"""Action-Intent State taxonomy: types, validation, and parent/child queries.

A taxonomy is a two-tier catalog of Action-Intent States (AIS). Macro states
name what an attacker achieved; each micro state names one way of achieving
its parent macro. The canonical catalog ships embedded (11 macros, 35 micros)
and user extensions load from JSON documents of the shape::

    {"version": "...",
     "macros": [{"key", "display_name", "description"}, ...],
     "micros": [{"key", "display_name", "description", "parent"}, ...]}

Entries may carry an optional ``original_name`` with the spelling used before
key normalization. A reserved ``unclassified`` micro (under a reserved
``unclassified`` macro) is implicit in every taxonomy and never serialized;
it is the sentinel verdict for alerts no mapping rule covers.

Taxonomies are immutable once built and safe to share across threads.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

KEY_RE = re.compile(r"[a-z][a-z0-9_]*\Z")

SENTINEL_KEY = "unclassified"

# Product/platform tokens that suggest a description is not service- and
# platform-agnostic. Heuristic only: matches raise advisory lint findings,
# never hard failures.
DEFAULT_PLATFORM_DENYLIST = (
    "Windows",
    "Linux",
    "macOS",
    "Android",
    "iOS",
    "Microsoft",
    "Apple",
    "Cisco",
    "Citrix",
    "Oracle",
    "Apache",
    "Nginx",
    "MySQL",
    "PostgreSQL",
    "MongoDB",
    "Kerberos",
    "Active Directory",
    "PowerShell",
    "Exchange",
    "SharePoint",
    "VMware",
    "Docker",
    "Kubernetes",
    "AWS",
    "Azure",
    "Sudo",
)
_DENYLIST_RE = re.compile(
    rf"\b(?:{'|'.join(map(re.escape, DEFAULT_PLATFORM_DENYLIST))})\b", re.IGNORECASE
)


class AisLevel(str, Enum):
    MACRO = "macro"
    MICRO = "micro"


class TaxonomyError(ValueError):
    """A taxonomy document failed structural validation.

    ``findings`` holds the hard :class:`LintFinding` items that caused the
    rejection, each with a record location.
    """

    def __init__(self, message: str, findings: Iterable[LintFinding] = ()):
        super().__init__(message)
        self.findings = tuple(findings)


class UnknownAisKey(KeyError):
    """Lookup of a macro or micro key that the taxonomy does not define."""


@dataclass(frozen=True)
class AisId:
    level: AisLevel
    key: str


@dataclass(frozen=True)
class AisRecord:
    id: AisId
    display_name: str
    description: str
    parent: AisId | None = None
    original_name: str | None = None

    @property
    def level(self) -> AisLevel:
        return self.id.level

    @property
    def key(self) -> str:
        return self.id.key


@dataclass(frozen=True)
class LintFinding:
    severity: str  # "hard" or "advisory"
    code: str
    location: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.code} at {self.location}: {self.message}"


SENTINEL_MACRO = AisRecord(
    id=AisId(AisLevel.MACRO, SENTINEL_KEY),
    display_name="Unclassified",
    description="Reserved sentinel for alerts outside the taxonomy.",
)
SENTINEL_MICRO = AisRecord(
    id=AisId(AisLevel.MICRO, SENTINEL_KEY),
    display_name="Unclassified",
    description="Reserved sentinel for alerts no mapping rule covers.",
    parent=SENTINEL_MACRO.id,
)


@dataclass(frozen=True)
class Taxonomy:
    """Validated AIS catalog. ``macros``/``micros`` exclude the sentinel."""

    version: str
    macros: tuple[AisRecord, ...]
    micros: tuple[AisRecord, ...]

    @cached_property
    def _records(self) -> dict[AisId, AisRecord]:
        records = (SENTINEL_MACRO, SENTINEL_MICRO, *self.macros, *self.micros)
        return {r.id: r for r in records}

    @cached_property
    def _children(self) -> dict[str, tuple[str, ...]]:
        children: dict[str, list[str]] = {r.key: [] for r in self.macros}
        children[SENTINEL_KEY] = [SENTINEL_KEY]
        for r in self.micros:
            children[r.parent.key].append(r.key)
        return {k: tuple(v) for k, v in children.items()}

    def has(self, level: AisLevel | str, key: str) -> bool:
        return AisId(AisLevel(level), key) in self._records

    def describe(self, level: AisLevel | str, key: str) -> AisRecord:
        """Full record for a key, sentinel included."""
        try:
            return self._records[AisId(AisLevel(level), key)]
        except KeyError:
            raise UnknownAisKey(f"unknown {AisLevel(level).value} key {key!r}") from None

    def macro_of(self, micro_key: str) -> str:
        """Parent macro key of a micro key."""
        return self.describe(AisLevel.MICRO, micro_key).parent.key

    def micros_of(self, macro_key: str) -> tuple[str, ...]:
        """Micro keys under a macro, in catalog order."""
        try:
            return self._children[macro_key]
        except KeyError:
            raise UnknownAisKey(f"unknown macro key {macro_key!r}") from None

    def macro_keys(self) -> tuple[str, ...]:
        return tuple(r.key for r in self.macros)

    def micro_keys(self) -> tuple[str, ...]:
        return tuple(r.key for r in self.micros)


def _lint_entry(
    entry: Any,
    level: AisLevel,
    location: str,
    macro_keys: set[str],
    seen: set[str],
    findings: list[LintFinding],
) -> None:
    def hard(code: str, message: str) -> None:
        findings.append(LintFinding("hard", code, location, message))

    if not isinstance(entry, Mapping):
        hard("malformed-entry", f"expected an object, got {type(entry).__name__}")
        return

    key = entry.get("key")
    if not isinstance(key, str) or not KEY_RE.match(key):
        hard("invalid-key", f"key must match [a-z][a-z0-9_]*, got {key!r}")
        key = None
    elif key == SENTINEL_KEY:
        hard("reserved-key", f"{SENTINEL_KEY!r} is reserved for the sentinel state")
    elif key in seen:
        hard("duplicate-key", f"{key!r} already defined at this level")
    else:
        seen.add(key)

    display_name = entry.get("display_name")
    if not isinstance(display_name, str) or not display_name.strip():
        hard("empty-display-name", "display_name must be non-empty text")

    description = entry.get("description")
    if not isinstance(description, str) or not description.strip():
        hard("empty-description", "description must be non-empty text")
    elif match := _DENYLIST_RE.search(description):
        findings.append(
            LintFinding(
                "advisory",
                "platform-term",
                location,
                f"description mentions {match.group(0)!r}; micro states should "
                "stay service and platform agnostic",
            )
        )

    parent = entry.get("parent")
    if level is AisLevel.MACRO:
        if parent is not None:
            hard("unexpected-parent", "macro entries must not declare a parent")
    else:
        if not isinstance(parent, str) or not parent:
            hard("missing-parent", "micro entries must declare a parent macro key")
        elif parent not in macro_keys:
            hard("dangling-parent", f"parent macro {parent!r} is not defined")

    original_name = entry.get("original_name")
    if original_name is not None and not isinstance(original_name, str):
        hard("invalid-original-name", "original_name must be text when present")


def lint_document(doc: Any) -> list[LintFinding]:
    """Lint a taxonomy document without raising.

    Structural problems (duplicate keys, dangling parents, empty
    descriptions, missing parents, reserved keys) are ``hard`` findings and
    will make :func:`from_document` raise. ``DEFAULT_PLATFORM_DENYLIST``
    matches in descriptions are ``advisory`` findings and never block a load.
    """
    findings: list[LintFinding] = []
    if not isinstance(doc, Mapping):
        findings.append(
            LintFinding("hard", "malformed-document", "$", "expected a JSON object")
        )
        return findings

    version = doc.get("version")
    if not isinstance(version, str) or not version:
        findings.append(
            LintFinding("hard", "missing-version", "version", "version must be non-empty text")
        )

    macro_entries = doc.get("macros")
    micro_entries = doc.get("micros")
    if not isinstance(macro_entries, Sequence) or isinstance(macro_entries, (str, bytes)):
        findings.append(
            LintFinding("hard", "malformed-document", "macros", "macros must be an array")
        )
        macro_entries = []
    if not isinstance(micro_entries, Sequence) or isinstance(micro_entries, (str, bytes)):
        findings.append(
            LintFinding("hard", "malformed-document", "micros", "micros must be an array")
        )
        micro_entries = []

    macro_keys = {
        e["key"]
        for e in macro_entries
        if isinstance(e, Mapping) and isinstance(e.get("key"), str)
    }
    seen_macros: set[str] = set()
    seen_micros: set[str] = set()
    for i, entry in enumerate(macro_entries):
        _lint_entry(entry, AisLevel.MACRO, f"macros[{i}]", macro_keys, seen_macros, findings)
    for i, entry in enumerate(micro_entries):
        _lint_entry(entry, AisLevel.MICRO, f"micros[{i}]", macro_keys, seen_micros, findings)
    return findings


def validate_extension(taxonomy_or_doc: Taxonomy | Mapping) -> list[LintFinding]:
    """Lint report for a taxonomy or raw document, superset-friendly.

    A built :class:`Taxonomy` is structurally valid by construction, so only
    advisory lints can fire for it; pass the raw document to surface hard
    findings without an exception.
    """
    if isinstance(taxonomy_or_doc, Taxonomy):
        return lint_document(to_document(taxonomy_or_doc))
    return lint_document(taxonomy_or_doc)


def _record(entry: Mapping, level: AisLevel) -> AisRecord:
    parent = entry.get("parent")
    return AisRecord(
        id=AisId(level, entry["key"]),
        display_name=entry["display_name"],
        description=entry["description"],
        parent=AisId(AisLevel.MACRO, parent) if parent is not None else None,
        original_name=entry.get("original_name"),
    )


def from_document(doc: Mapping) -> Taxonomy:
    """Build a validated Taxonomy; raises TaxonomyError on hard findings."""
    hard = [f for f in lint_document(doc) if f.severity == "hard"]
    if hard:
        head = "; ".join(str(f) for f in hard[:3])
        more = f" (+{len(hard) - 3} more)" if len(hard) > 3 else ""
        raise TaxonomyError(f"invalid taxonomy document: {head}{more}", hard)
    return Taxonomy(
        version=doc["version"],
        macros=tuple(_record(e, AisLevel.MACRO) for e in doc["macros"]),
        micros=tuple(_record(e, AisLevel.MICRO) for e in doc["micros"]),
    )


def to_document(taxonomy: Taxonomy) -> dict:
    """Serialize to document shape; inverse of :func:`from_document`."""

    def entry(record: AisRecord) -> dict:
        out: dict[str, Any] = {
            "key": record.key,
            "display_name": record.display_name,
            "description": record.description,
        }
        if record.parent is not None:
            out["parent"] = record.parent.key
        if record.original_name is not None:
            out["original_name"] = record.original_name
        return out

    return {
        "version": taxonomy.version,
        "macros": [entry(r) for r in taxonomy.macros],
        "micros": [entry(r) for r in taxonomy.micros],
    }


@lru_cache(maxsize=1)
def builtin_taxonomy() -> Taxonomy:
    """The canonical embedded catalog: 11 macros, 35 micros."""
    from aifseq._catalog import CATALOG_DOCUMENT

    return from_document(CATALOG_DOCUMENT)


def load_taxonomy(source: Taxonomy | Mapping | str | Path | None = None) -> Taxonomy:
    """Load a taxonomy from the builtin catalog, a document, or a JSON file.

    ``None`` or ``"builtin"`` selects the embedded catalog. A string or Path
    is read as a JSON file; a mapping is treated as an already-parsed
    document. Raises TaxonomyError on invalid documents, a file the JSON
    parser rejects included, and OSError on unreadable paths.
    """
    if source is None or source == "builtin":
        return builtin_taxonomy()
    if isinstance(source, Taxonomy):
        return source
    if isinstance(source, Mapping):
        return from_document(source)
    try:
        doc = json.loads(Path(source).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep, too many digits
        raise TaxonomyError(f"taxonomy file is not valid JSON: {exc}") from exc
    return from_document(doc)
