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
from typing import Any, Callable, Iterable, Iterator

from aifseq.ingest import MEMO_TEXT_LIMIT, NormalizedAlert
from aifseq.taxonomy import SENTINEL_KEY, Taxonomy

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
    """One classification rule: a predicate conjunction and its verdict.

    ``predicates`` holds ``(name, compiled value)`` pairs in ``_PREDICATES`` order.
    """

    rule_id: str
    priority: int
    target_micro: str
    verdict: Classification
    predicates: tuple[tuple[str, Any], ...]

    @property
    def predicate_count(self) -> int:
        return len(self.predicates)

    def matches(self, alert: NormalizedAlert, msg_lower: str) -> bool:
        for name, value in self.predicates:
            if not _PREDICATES[name][1](alert, msg_lower, value):
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


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _checked(valid: Callable[[Any], Any], message: str) -> Callable[[Any], Any]:
    """A parse that returns a value ``valid`` accepts and raises ``message`` otherwise."""

    def parse(value: Any) -> Any:
        if not valid(value):
            raise ValueError(message)
        return value

    return parse


def _tokens(value: Any) -> tuple[str, ...]:
    if not isinstance(value, list) or not value or not all(isinstance(t, str) and t for t in value):
        raise ValueError("msg_contains_all must be a non-empty list of tokens")
    return tuple(t.lower() for t in value)


def _regex(value: Any) -> re.Pattern[str]:
    if not isinstance(value, str):
        raise ValueError("msg_regex must be text")
    try:
        return re.compile(value)
    except re.error as exc:
        raise ValueError(f"invalid regex: {exc}") from None


def _sid_ranges(value: Any) -> tuple[tuple[int, int], ...]:
    if not isinstance(value, list) or not value:
        raise ValueError("sid_in must be a non-empty list")
    ranges = []
    for item in value:
        pair = [item, item] if _is_int(item) else item  # a sid is the range [sid, sid]
        if not (
            isinstance(pair, list) and len(pair) == 2 and all(map(_is_int, pair)) and pair[0] <= pair[1]
        ):
            raise ValueError(f"sid_in entry {item!r} is not a sid or [lo, hi] pair")
        ranges.append((pair[0], pair[1]))
    return tuple(ranges)


# Every predicate a rule's ``match`` may hold: name -> (parse, test). parse
# compiles a document value or raises ValueError with the finding text;
# test(alert, msg_lower, value) decides the predicate. Rules validate and
# test their predicates in this order.
_PREDICATES: dict[str, tuple[Callable[[Any], Any], Callable[[NormalizedAlert, str, Any], bool]]] = {
    "category_equals": (
        _checked(lambda v: isinstance(v, str) and v, "category_equals must be non-empty text"),
        lambda alert, msg_lower, category: alert.category == category,
    ),
    "msg_contains_all": (
        _tokens,
        lambda alert, msg_lower, tokens: all(token in msg_lower for token in tokens),
    ),
    "msg_regex": (
        _regex,
        lambda alert, msg_lower, pattern: pattern.search(alert.signature_msg) is not None,
    ),
    "sid_in": (
        _sid_ranges,
        lambda alert, msg_lower, ranges: any(lo <= alert.signature_id <= hi for lo, hi in ranges),
    ),
    "gid_equals": (
        _checked(_is_int, "gid_equals must be an integer"),
        lambda alert, msg_lower, gid: alert.generator_id == gid,
    ),
    "severity_at_most": (
        _checked(lambda v: _is_int(v) and v >= 1, "severity_at_most must be a positive integer"),
        lambda alert, msg_lower, most: alert.severity is not None and alert.severity <= most,
    ),
}


def _rule_id(raw: Any) -> str | None:
    """A rule document's rule_id if it is non-empty text, else None."""
    rule_id = raw.get("rule_id") if isinstance(raw, dict) else None
    return rule_id if isinstance(rule_id, str) and rule_id else None


def _parse_rule(raw: Any, taxonomy: Taxonomy, default_confidence: float) -> MappingRule:
    """Compile one rule document; raises ValueError with its first fault's finding text."""
    if not isinstance(raw, dict):
        raise ValueError("rule is not an object")
    rule_id = _rule_id(raw)
    if rule_id is None:
        raise ValueError("rule_id must be non-empty text")

    priority = raw.get("priority")
    if not _is_int(priority):
        raise ValueError("priority must be an integer")

    target = raw.get("target_micro")
    if not isinstance(target, str) or not (target == SENTINEL_KEY or taxonomy.has("micro", target)):
        raise ValueError(f"unknown target micro {target!r}")

    confidence = raw.get("confidence")
    if confidence is not None and not _valid_confidence(confidence):
        raise ValueError("confidence must be in (0, 1]")

    match = raw.get("match")
    if not isinstance(match, dict) or not match:
        raise ValueError("match must hold at least one predicate")
    unknown = match.keys() - _PREDICATES.keys()
    if unknown:
        raise ValueError(f"unknown predicate {sorted(unknown)[0]!r}")
    predicates = tuple(
        (name, parse(match[name])) for name, (parse, _) in _PREDICATES.items() if name in match
    )

    matched_rule = rule_id if target != SENTINEL_KEY else None
    confidence = float(default_confidence if confidence is None else confidence)
    verdict = Classification(target, taxonomy.macro_of(target), matched_rule, confidence)
    return MappingRule(rule_id, priority, target, verdict, predicates)


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
            try:
                rule = _parse_rule(raw, taxonomy, default_confidence)
            except ValueError as exc:
                rule_id = _rule_id(raw)
                where = f"rules[{index}]" if rule_id is None else f"rules[{index}] ({rule_id})"
                findings.append(f"{where}: {exc}")
                continue
            if rule.rule_id in seen:
                findings.append(f"rules[{index}]: duplicate rule_id {rule.rule_id!r}")
                continue
            seen.add(rule.rule_id)
            rules.append(rule)

    if findings:
        raise MappingError(findings)
    return MappingSpec(spec_version, float(default_confidence), tuple(rules))


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
