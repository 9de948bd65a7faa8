"""Action-Intent State taxonomy: types, validation, and parent/child queries.

A taxonomy is a two-tier catalog of Action-Intent States (AIS). Macro states
name what an attacker achieved; each micro state names one way of achieving
its parent macro. The canonical catalog (11 macros, 35 micros) ships as the
package file ``aifseq/data/catalog.json``, and it and user extensions are
JSON documents of the shape::

    {"version": "...",
     "macros": [{"key", "display_name", "description"}, ...],
     "micros": [{"key", "display_name", "description", "parent"}, ...]}

Entries may carry an optional ``original_name`` with the spelling used before
key normalization. A built state is an :class:`AisRecord`: the entry's fields
and its level, which with its key names it; a micro's ``parent`` is its
macro's key, as in the document. A reserved ``unclassified`` micro (under a
reserved ``unclassified`` macro) is implicit in every taxonomy and never
serialized; it is the sentinel verdict for alerts no mapping rule covers.

Taxonomies are immutable once built and safe to share across threads.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, fields
from enum import Enum
from functools import cached_property, lru_cache
from importlib import resources
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


# Each level's array in a taxonomy document, in the order lint reports them.
_LEVELS = (("macros", AisLevel.MACRO), ("micros", AisLevel.MICRO))


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
class AisRecord:
    """One state; ``to_document`` writes its fields after ``level``, in this order."""

    level: AisLevel
    key: str
    display_name: str
    description: str
    parent: str | None = None
    original_name: str | None = None


@dataclass(frozen=True)
class LintFinding:
    severity: str  # "hard" or "advisory"
    code: str
    location: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.code} at {self.location}: {self.message}"


SENTINEL_MACRO = AisRecord(
    AisLevel.MACRO,
    SENTINEL_KEY,
    display_name="Unclassified",
    description="Reserved sentinel for alerts outside the taxonomy.",
)
SENTINEL_MICRO = AisRecord(
    AisLevel.MICRO,
    SENTINEL_KEY,
    display_name="Unclassified",
    description="Reserved sentinel for alerts no mapping rule covers.",
    parent=SENTINEL_KEY,
)


@dataclass(frozen=True)
class Taxonomy:
    """Validated AIS catalog. ``macros``/``micros`` exclude the sentinel."""

    version: str
    macros: tuple[AisRecord, ...]
    micros: tuple[AisRecord, ...]

    @cached_property
    def _records(self) -> dict[tuple[AisLevel, str], AisRecord]:
        records = (SENTINEL_MACRO, SENTINEL_MICRO, *self.macros, *self.micros)
        return {(r.level, r.key): r for r in records}

    def has(self, level: AisLevel | str, key: str) -> bool:
        return (AisLevel(level), key) in self._records

    def describe(self, level: AisLevel | str, key: str) -> AisRecord:
        """Full record for a key, sentinel included."""
        try:
            return self._records[AisLevel(level), key]
        except KeyError:
            raise UnknownAisKey(f"unknown {AisLevel(level).value} key {key!r}") from None

    def macro_of(self, micro_key: str) -> str:
        """Parent macro key of a micro key."""
        return self.describe(AisLevel.MICRO, micro_key).parent

    def micros_of(self, macro_key: str) -> tuple[str, ...]:
        """Micro keys under a macro, in catalog order."""
        self.describe(AisLevel.MACRO, macro_key)
        return tuple(r.key for r in (SENTINEL_MICRO, *self.micros) if r.parent == macro_key)

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

    arrays: dict[AisLevel, Any] = {}
    for name, level in _LEVELS:
        entries = doc.get(name)
        if not isinstance(entries, Sequence) or isinstance(entries, (str, bytes)):
            findings.append(
                LintFinding("hard", "malformed-document", name, f"{name} must be an array")
            )
            entries = []
        arrays[level] = entries

    macro_keys = {
        e["key"]
        for e in arrays[AisLevel.MACRO]
        if isinstance(e, Mapping) and isinstance(e.get("key"), str)
    }
    for name, level in _LEVELS:
        seen: set[str] = set()
        for i, entry in enumerate(arrays[level]):
            _lint_entry(entry, level, f"{name}[{i}]", macro_keys, seen, findings)
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


def summarize_findings(findings: Sequence) -> str:
    """The first three findings joined by ``; ``, then ``(+N more)`` for the rest."""
    more = f" (+{len(findings) - 3} more)" if len(findings) > 3 else ""
    return "; ".join(map(str, findings[:3])) + more


def _record(entry: Mapping, level: AisLevel) -> AisRecord:
    """The inverse of :func:`to_document`'s entry: the record's fields after ``level``."""
    return AisRecord(level, *(entry.get(f.name) for f in fields(AisRecord)[1:]))


def from_document(doc: Mapping) -> Taxonomy:
    """Build a validated Taxonomy; raises TaxonomyError on hard findings."""
    hard = [f for f in lint_document(doc) if f.severity == "hard"]
    if hard:
        raise TaxonomyError(f"invalid taxonomy document: {summarize_findings(hard)}", hard)
    return Taxonomy(
        version=doc["version"],
        macros=tuple(_record(e, AisLevel.MACRO) for e in doc["macros"]),
        micros=tuple(_record(e, AisLevel.MICRO) for e in doc["micros"]),
    )


def to_document(taxonomy: Taxonomy) -> dict:
    """Serialize to document shape; inverse of :func:`from_document`."""

    def entry(record: AisRecord) -> dict:
        return {k: v for k, v in asdict(record).items() if k != "level" and v is not None}

    return {
        "version": taxonomy.version,
        "macros": [entry(r) for r in taxonomy.macros],
        "micros": [entry(r) for r in taxonomy.micros],
    }


@lru_cache(maxsize=1)
def builtin_taxonomy() -> Taxonomy:
    """The canonical catalog: 11 macros, 35 micros.

    Read from the package file ``aifseq/data/catalog.json``, which is what
    ``aifseq taxonomy export`` writes for it, and validated by
    :func:`from_document` like a user's document. Keys are normalized
    snake_case; where normalization changed the original catalog spelling
    (typo fixes, punctuation, and the zero-day micros renamed because they
    reused macro names), the original spelling is kept in ``original_name``.
    """
    return from_document(read_document(resources.files("aifseq.data") / "catalog.json"))


def read_document(path: str | Path) -> Any:
    """A JSON document, decoded as UTF-8 with a leading byte order mark dropped.

    Every document aifseq reads comes through here: a user's taxonomy or
    mapping file, and the package's catalog and starter mapping. Raises
    ValueError naming the file when it is not UTF-8 or not JSON the parser
    takes (too deep, too many digits included), and OSError when it cannot
    be read.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None


def load_taxonomy(source: str | Path | None = None) -> Taxonomy:
    """Load the builtin catalog or a taxonomy JSON file.

    ``source`` is ``None`` or ``"builtin"``, which select the shipped
    catalog, or any other string or a Path, which names a file read with
    :func:`read_document`. A document already parsed is not a source (a
    dict raises TypeError): pass it to :func:`from_document` instead. Raises
    TaxonomyError on an invalid document, a file the JSON parser rejects
    included, and OSError on an unreadable path.
    """
    if source is None or source == "builtin":
        return builtin_taxonomy()
    try:
        doc = read_document(source)
    except ValueError as exc:
        raise TaxonomyError(str(exc)) from None
    return from_document(doc)
