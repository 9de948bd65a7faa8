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

import re
from collections import Counter
from dataclasses import asdict, dataclass
from functools import cached_property
from importlib import resources
from typing import Any, Callable, Iterable, Iterator

from aifseq.ingest import NormalizedAlert, Signature, signature_fits_memo
from aifseq.taxonomy import SENTINEL_KEY, Taxonomy, read_document, summarize_findings

# Distinct signatures one stream's verdict memo holds before it starts over.
_VERDICT_MEMO_SIZE = 4096


class MappingError(ValueError):
    """A mapping document failed validation; findings lists every problem."""

    def __init__(self, findings: list[str]):
        self.findings = list(findings)
        super().__init__(f"invalid mapping: {summarize_findings(self.findings)}")


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

    ``predicates`` holds ``(test, compiled value)`` pairs in ``_PREDICATES`` order.
    """

    rule_id: str
    priority: int
    verdict: Classification
    predicates: tuple[tuple[Callable[[Signature, str, Any], bool], Any], ...]

    @property
    def predicate_count(self) -> int:
        return len(self.predicates)

    def matches(self, signature: Signature, msg_lower: str) -> bool:
        """Whether every predicate holds for a signature and its lowercased message."""
        for test, value in self.predicates:
            if not test(signature, msg_lower, value):
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
    except (re.error, OverflowError) as exc:  # OverflowError: a number past the engine's limits
        raise ValueError(f"invalid regex: {exc}") from None
    except RecursionError:
        raise ValueError("invalid regex: nested too deeply") from None


def _contains_all(signature: Signature, msg_lower: str, tokens: tuple[str, ...]) -> bool:
    for token in tokens:
        if token not in msg_lower:
            return False
    return True


def _sid_in(signature: Signature, msg_lower: str, ranges: tuple[tuple[int, int], ...]) -> bool:
    sid = signature.signature_id
    for lo, hi in ranges:
        if lo <= sid <= hi:
            return True
    return False


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
# test(signature, msg_lower, value) decides the predicate, so a verdict
# depends on an alert's signature alone. Rules validate and test their
# predicates in this order. The two tests that loop are named functions:
# with a generator in all() or any(), an uncached rule scan took about
# twice as long.
_PREDICATES: dict[str, tuple[Callable[[Any], Any], Callable[[Signature, str, Any], bool]]] = {
    "category_equals": (
        _checked(lambda v: isinstance(v, str) and v, "category_equals must be non-empty text"),
        lambda sig, msg_lower, category: sig.category == category,
    ),
    "msg_contains_all": (_tokens, _contains_all),
    "msg_regex": (
        _regex,
        lambda sig, msg_lower, pattern: pattern.search(sig.signature_msg) is not None,
    ),
    "sid_in": (_sid_ranges, _sid_in),
    "gid_equals": (
        _checked(_is_int, "gid_equals must be an integer"),
        lambda sig, msg_lower, gid: sig.generator_id == gid,
    ),
    "severity_at_most": (
        _checked(lambda v: _is_int(v) and v >= 1, "severity_at_most must be a positive integer"),
        lambda sig, msg_lower, most: sig.severity is not None and sig.severity <= most,
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
    if not isinstance(target, str) or not taxonomy.has("micro", target):
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
        (test, parse(match[name])) for name, (parse, test) in _PREDICATES.items() if name in match
    )

    matched_rule = rule_id if target != SENTINEL_KEY else None
    confidence = float(default_confidence if confidence is None else confidence)
    verdict = Classification(target, taxonomy.macro_of(target), matched_rule, confidence)
    return MappingRule(rule_id, priority, verdict, predicates)


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
    signature = alert.signature
    msg_lower = signature.signature_msg.lower()
    for rule in spec.ordered_rules:
        if rule.matches(signature, msg_lower):
            return rule.verdict
    return spec.unclassified


def classify_stream(
    alerts: Iterable[NormalizedAlert], spec: MappingSpec, taxonomy: Taxonomy
) -> Iterator[tuple[NormalizedAlert, Classification]]:
    """Order-preserving classification of an alert stream; one verdict each.

    Rules read only an alert's ``signature``, so each stream scans the rules
    once per distinct signature and reuses the verdict for repeats; the
    parsers hand every alert of one signature the same record, so a repeat
    is found by identity. The memo is emptied when it holds a fixed number
    of signatures, and one that ``ingest.signature_fits_memo`` turns away is
    scanned each time it comes.
    """
    verdicts: dict[Signature, Classification] = {}
    for alert in alerts:
        signature = alert.signature
        verdict = verdicts.get(signature)
        if verdict is None:
            verdict = classify_alert(alert, spec, taxonomy)
            if signature_fits_memo(signature.protocol, signature.signature_msg, signature.category):
                if len(verdicts) >= _VERDICT_MEMO_SIZE:
                    verdicts.clear()
                verdicts[signature] = verdict
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
        return asdict(self)


def coverage_report(spec: MappingSpec, classified: Iterable[Classification]) -> CoverageReport:
    """Per-rule hit counts, per-level histograms, unclassified fraction."""
    rule_hits = {rule_id: 0 for rule_id in spec.rule_ids()}
    micro_counts: Counter[str] = Counter()
    macro_counts: Counter[str] = Counter()
    for verdict in classified:
        micro_counts[verdict.micro] += 1
        macro_counts[verdict.macro] += 1
        if verdict.matched_rule is not None:
            rule_hits[verdict.matched_rule] += 1
    total = micro_counts.total()
    return CoverageReport(
        total=total,
        rule_hits=rule_hits,
        micro_counts=dict(sorted(micro_counts.items())),
        macro_counts=dict(sorted(macro_counts.items())),
        unclassified_fraction=micro_counts[SENTINEL_KEY] / total if total else 0.0,
    )


def starter_mapping_document() -> dict:
    """A fresh copy of the shipped classtype mapping document."""
    return read_document(resources.files("aifseq.data") / "starter_mapping.json")
