"""Declarative alert-to-intent classification.

A MappingSpec is a prioritized collection of rules; each rule is a
conjunction of predicates over a normalized alert (category, message
tokens, message regex, signature id ranges, generator id, severity) and
names the micro state it assigns. Classification is total: among matching
rules the winner is chosen by (priority desc, predicate count desc,
rule_id asc), and an alert no rule matches gets the reserved
``unclassified`` sentinel. The tie-break chain is total, so verdicts do
not depend on rule file ordering.

The shipped starter mapping covers the stock Snort/Suricata classtype
vocabulary. It is an editorial artifact, versioned and fully overridable;
the engine makes no assumption about which mapping is loaded.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from typing import Any, Iterable, Iterator

from aifseq.ingest import MEMO_TEXT_LIMIT, NormalizedAlert
from aifseq.taxonomy import SENTINEL_KEY, Taxonomy

_PREDICATE_KEYS = (
    "category_equals",
    "msg_contains_all",
    "msg_regex",
    "sid_in",
    "gid_equals",
    "severity_at_most",
)

# Distinct verdict keys one stream's memo holds before it starts over.
_VERDICT_MEMO_SIZE = 4096


class MappingError(ValueError):
    """A mapping document failed validation; findings lists every problem."""

    def __init__(self, findings: list[str]):
        self.findings = list(findings)
        shown = "; ".join(self.findings[:3])
        extra = len(self.findings) - 3
        if extra > 0:
            shown += f" (+{extra} more)"
        super().__init__(f"invalid mapping: {shown}")


@dataclass(frozen=True)
class Classification:
    """A rule's verdict, built once when the mapping loads.

    Every alert the rule matches shares it; the alert travels beside it as
    ``(alert, verdict)``.
    """

    micro: str
    macro: str
    matched_rule: str | None
    confidence: float


@dataclass(frozen=True)
class MappingRule:
    """One classification rule: a predicate conjunction and its verdict."""

    rule_id: str
    priority: int
    target_micro: str
    verdict: Classification
    category_equals: str | None = None
    msg_contains_all: tuple[str, ...] | None = None
    msg_regex: re.Pattern[str] | None = None
    sid_in: tuple[tuple[int, int], ...] | None = None
    gid_equals: int | None = None
    severity_at_most: int | None = None

    @cached_property
    def predicate_count(self) -> int:
        return sum(getattr(self, name) is not None for name in _PREDICATE_KEYS)

    def matches(self, alert: NormalizedAlert, msg_lower: str) -> bool:
        if self.category_equals is not None and alert.category != self.category_equals:
            return False
        if self.msg_contains_all is not None:
            for token in self.msg_contains_all:
                if token not in msg_lower:
                    return False
        if self.msg_regex is not None and self.msg_regex.search(alert.signature_msg) is None:
            return False
        if self.sid_in is not None:
            sid = alert.signature_id
            for lo, hi in self.sid_in:
                if lo <= sid <= hi:
                    break
            else:
                return False
        if self.gid_equals is not None and alert.generator_id != self.gid_equals:
            return False
        if self.severity_at_most is not None and (
            alert.severity is None or alert.severity > self.severity_at_most
        ):
            return False
        return True


@dataclass(frozen=True)
class MappingSpec:
    """A validated rule collection plus the default for unmatched alerts."""

    spec_version: str
    default_confidence: float
    rules: tuple[MappingRule, ...]

    @cached_property
    def ordered_rules(self) -> tuple[MappingRule, ...]:
        # Total precedence: priority desc, specificity desc, id asc.
        return tuple(
            sorted(self.rules, key=lambda r: (-r.priority, -r.predicate_count, r.rule_id))
        )

    @cached_property
    def unclassified(self) -> Classification:
        """The one verdict every unmatched alert shares."""
        return Classification(SENTINEL_KEY, SENTINEL_KEY, None, self.default_confidence)

    def rule_ids(self) -> list[str]:
        return [rule.rule_id for rule in self.rules]


def _valid_confidence(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and 0 < value <= 1


def _parse_sid_ranges(value: Any, where: str, findings: list[str]) -> tuple[tuple[int, int], ...] | None:
    if not isinstance(value, list) or not value:
        findings.append(f"{where}: sid_in must be a non-empty list")
        return None
    ranges: list[tuple[int, int]] = []
    for item in value:
        if isinstance(item, int) and not isinstance(item, bool):
            ranges.append((item, item))
        elif (
            isinstance(item, list)
            and len(item) == 2
            and all(isinstance(b, int) and not isinstance(b, bool) for b in item)
            and item[0] <= item[1]
        ):
            ranges.append((item[0], item[1]))
        else:
            findings.append(f"{where}: sid_in entry {item!r} is not a sid or [lo, hi] pair")
            return None
    return tuple(ranges)


def _parse_rule(
    raw: Any, index: int, taxonomy: Taxonomy, default_confidence: float, findings: list[str]
) -> MappingRule | None:
    where = f"rules[{index}]"
    if not isinstance(raw, dict):
        findings.append(f"{where}: rule is not an object")
        return None

    rule_id = raw.get("rule_id")
    if not isinstance(rule_id, str) or not rule_id:
        findings.append(f"{where}: rule_id must be non-empty text")
        return None
    where = f"rules[{index}] ({rule_id})"

    priority = raw.get("priority")
    if not isinstance(priority, int) or isinstance(priority, bool):
        findings.append(f"{where}: priority must be an integer")
        return None

    target = raw.get("target_micro")
    if not isinstance(target, str) or not (
        target == SENTINEL_KEY or taxonomy.has("micro", target)
    ):
        findings.append(f"{where}: unknown target micro {target!r}")
        return None

    confidence = raw.get("confidence")
    if confidence is not None and not _valid_confidence(confidence):
        findings.append(f"{where}: confidence must be in (0, 1]")
        return None

    match = raw.get("match")
    if not isinstance(match, dict) or not match:
        findings.append(f"{where}: match must hold at least one predicate")
        return None
    unknown = set(match) - set(_PREDICATE_KEYS)
    if unknown:
        findings.append(f"{where}: unknown predicate {sorted(unknown)[0]!r}")
        return None

    fields: dict[str, Any] = {}
    if "category_equals" in match:
        value = match["category_equals"]
        if not isinstance(value, str) or not value:
            findings.append(f"{where}: category_equals must be non-empty text")
            return None
        fields["category_equals"] = value
    if "msg_contains_all" in match:
        value = match["msg_contains_all"]
        if (
            not isinstance(value, list)
            or not value
            or not all(isinstance(t, str) and t for t in value)
        ):
            findings.append(f"{where}: msg_contains_all must be a non-empty list of tokens")
            return None
        fields["msg_contains_all"] = tuple(t.lower() for t in value)
    if "msg_regex" in match:
        value = match["msg_regex"]
        if not isinstance(value, str):
            findings.append(f"{where}: msg_regex must be text")
            return None
        try:
            fields["msg_regex"] = re.compile(value)
        except re.error as exc:
            findings.append(f"{where}: invalid regex: {exc}")
            return None
    if "sid_in" in match:
        ranges = _parse_sid_ranges(match["sid_in"], where, findings)
        if ranges is None:
            return None
        fields["sid_in"] = ranges
    if "gid_equals" in match:
        value = match["gid_equals"]
        if not isinstance(value, int) or isinstance(value, bool):
            findings.append(f"{where}: gid_equals must be an integer")
            return None
        fields["gid_equals"] = value
    if "severity_at_most" in match:
        value = match["severity_at_most"]
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            findings.append(f"{where}: severity_at_most must be a positive integer")
            return None
        fields["severity_at_most"] = value

    verdict = Classification(
        micro=target,
        macro=taxonomy.macro_of(target),
        matched_rule=rule_id if target != SENTINEL_KEY else None,
        confidence=float(default_confidence if confidence is None else confidence),
    )
    return MappingRule(rule_id=rule_id, priority=priority, target_micro=target, verdict=verdict, **fields)


def load_mapping(document: Any, taxonomy: Taxonomy) -> MappingSpec:
    """Validate a mapping document against a taxonomy.

    Raises MappingError listing every problem found: unknown target micros,
    invalid regexes, duplicate rule ids, empty predicate sets, malformed
    values. Regexes are compiled and each rule's verdict is built here, once.
    """
    findings: list[str] = []
    if not isinstance(document, dict):
        raise MappingError(["document is not an object"])

    spec_version = document.get("spec_version")
    if not isinstance(spec_version, str) or not spec_version:
        findings.append("spec_version must be non-empty text")
        spec_version = ""

    default_confidence = document.get("default_confidence")
    if not _valid_confidence(default_confidence):
        findings.append("default_confidence must be in (0, 1]")
        default_confidence = 1.0

    raw_rules = document.get("rules")
    rules: list[MappingRule] = []
    if not isinstance(raw_rules, list):
        findings.append("rules must be a list")
    else:
        seen: set[str] = set()
        for index, raw in enumerate(raw_rules):
            rule = _parse_rule(raw, index, taxonomy, default_confidence, findings)
            if rule is None:
                continue
            if rule.rule_id in seen:
                findings.append(f"rules[{index}]: duplicate rule_id {rule.rule_id!r}")
                continue
            seen.add(rule.rule_id)
            rules.append(rule)

    if findings:
        raise MappingError(findings)
    return MappingSpec(
        spec_version=spec_version,
        default_confidence=float(default_confidence),
        rules=tuple(rules),
    )


def classify_alert(alert: NormalizedAlert, spec: MappingSpec, taxonomy: Taxonomy) -> Classification:
    """Assign exactly one micro state (and its macro) to an alert.

    Returns the first matching rule's verdict, whose macro was resolved
    against ``taxonomy`` when ``spec`` was loaded from it. Total: an alert
    no rule matches gets ``spec.unclassified``, the sentinel with the
    mapping's default confidence. A sentinel verdict never carries a rule id.
    Scans the rules on every call; ``classify_stream`` memoizes per stream.
    """
    msg_lower = alert.signature_msg.lower()
    for rule in spec.ordered_rules:
        if rule.matches(alert, msg_lower):
            return rule.verdict
    return spec.unclassified


def classify_stream(
    alerts: Iterable[NormalizedAlert], spec: MappingSpec, taxonomy: Taxonomy
) -> Iterator[tuple[NormalizedAlert, Classification]]:
    """Order-preserving classification of an alert stream; one verdict each.

    A verdict depends only on the fields rules read: category, message,
    signature id, generator id and severity. Each stream therefore scans
    the rules once per distinct combination of them and reuses the verdict
    for repeats. The memo is emptied when it holds a fixed number of keys,
    and an alert whose message and category together exceed
    ``MEMO_TEXT_LIMIT`` characters is classified without it.
    """
    verdicts: dict[tuple, Classification] = {}
    for alert in alerts:
        msg, category = alert.signature_msg, alert.category
        if len(msg) + len(category or "") > MEMO_TEXT_LIMIT:
            yield alert, classify_alert(alert, spec, taxonomy)
            continue
        key = (category, msg, alert.signature_id, alert.generator_id, alert.severity)
        verdict = verdicts.get(key)
        if verdict is None:
            if len(verdicts) >= _VERDICT_MEMO_SIZE:
                verdicts.clear()
            verdict = verdicts[key] = classify_alert(alert, spec, taxonomy)
        yield alert, verdict


@dataclass(frozen=True)
class CoverageReport:
    """How a mapping performed over a batch of verdicts."""

    total: int
    rule_hits: dict[str, int]
    micro_counts: dict[str, int]
    macro_counts: dict[str, int]
    unclassified_fraction: float

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "rule_hits": dict(self.rule_hits),
            "micro_counts": dict(self.micro_counts),
            "macro_counts": dict(self.macro_counts),
            "unclassified_fraction": self.unclassified_fraction,
        }


def coverage_report(spec: MappingSpec, classified: Iterable[Classification]) -> CoverageReport:
    """Per-rule hit counts, per-level histograms, unclassified fraction."""
    rule_hits = {rule_id: 0 for rule_id in spec.rule_ids()}
    micro_counts: Counter[str] = Counter()
    macro_counts: Counter[str] = Counter()
    total = 0
    unclassified = 0
    for verdict in classified:
        total += 1
        micro_counts[verdict.micro] += 1
        macro_counts[verdict.macro] += 1
        if verdict.matched_rule is not None:
            rule_hits[verdict.matched_rule] += 1
        if verdict.micro == SENTINEL_KEY:
            unclassified += 1
    return CoverageReport(
        total=total,
        rule_hits=rule_hits,
        micro_counts=dict(sorted(micro_counts.items())),
        macro_counts=dict(sorted(macro_counts.items())),
        unclassified_fraction=unclassified / total if total else 0.0,
    )


def starter_mapping_document() -> dict:
    """A fresh copy of the shipped classtype mapping document."""
    text = resources.files("aifseq.data").joinpath("starter_mapping.json").read_text("utf-8")
    return json.loads(text)
