"""Tests for the declarative mapping engine."""

from __future__ import annotations

import random
import re
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aifseq import classify
from aifseq.classify import (
    Classification,
    MappingError,
    classify_alert,
    classify_stream,
    coverage_report,
    load_mapping,
    starter_mapping_document,
)
from aifseq.ingest import MEMO_TEXT_LIMIT, NormalizedAlert, RawRef, Signature
from aifseq.taxonomy import builtin_taxonomy

TAX = builtin_taxonomy()


def make_alert(**overrides) -> NormalizedAlert:
    fields = dict(
        timestamp=datetime(2021, 3, 1, 12, 0, 0, tzinfo=timezone.utc),
        src_ip="10.0.0.5",
        src_port=40000,
        dst_ip="192.168.1.20",
        dst_port=80,
        protocol="TCP",
        generator_id=1,
        signature_id=1000001,
        revision=1,
        signature_msg="ET SCAN Nmap TCP probe",
        category="Attempted Information Leak",
        severity=2,
        source_format="eve",
        raw_ref=RawRef("test", 1),
    )
    fields.update(overrides)
    signature = Signature(*(fields.pop(name) for name in Signature._fields))
    return NormalizedAlert(signature=signature, **fields)


def make_doc(rules, default_confidence=0.5, spec_version="t-1"):
    return {
        "spec_version": spec_version,
        "default_confidence": default_confidence,
        "rules": rules,
    }


def rule(rule_id, match, target, priority=10, confidence=None):
    raw = {"rule_id": rule_id, "priority": priority, "match": match, "target_micro": target}
    if confidence is not None:
        raw["confidence"] = confidence
    return raw


ADMIN_DOC = make_doc(
    [
        rule(
            "r-admin",
            {"category_equals": "Attempted Administrator Privilege Gain"},
            "root_privilege_escalation",
            confidence=0.7,
        )
    ]
)


def test_single_category_rule_assigns_micro_and_macro():
    spec = load_mapping(ADMIN_DOC, TAX)
    alert = make_alert(category="Attempted Administrator Privilege Gain")
    verdict = classify_alert(alert, spec, TAX)
    assert verdict.micro == "root_privilege_escalation"
    assert verdict.macro == "privilege_escalation"
    assert verdict.matched_rule == "r-admin"
    assert verdict.confidence == 0.7


def test_unmatched_alert_gets_sentinel_with_default_confidence():
    spec = load_mapping(ADMIN_DOC, TAX)
    verdict = classify_alert(make_alert(category="Not Suspicious Traffic"), spec, TAX)
    assert verdict.micro == "unclassified"
    assert verdict.macro == "unclassified"
    assert verdict.matched_rule is None
    assert verdict.confidence == 0.5


def test_higher_priority_rule_wins():
    doc = make_doc(
        [
            rule("r-low", {"category_equals": "X"}, "host_discovery", priority=5),
            rule("r-high", {"category_equals": "X"}, "service_discovery", priority=10),
        ]
    )
    spec = load_mapping(doc, TAX)
    verdict = classify_alert(make_alert(category="X"), spec, TAX)
    assert verdict.micro == "service_discovery"
    assert verdict.matched_rule == "r-high"


def test_predicate_count_breaks_priority_tie():
    doc = make_doc(
        [
            rule("r-one", {"category_equals": "X"}, "host_discovery"),
            rule(
                "r-two",
                {"category_equals": "X", "severity_at_most": 3},
                "service_discovery",
            ),
        ]
    )
    spec = load_mapping(doc, TAX)
    verdict = classify_alert(make_alert(category="X", severity=2), spec, TAX)
    assert verdict.matched_rule == "r-two"


def test_rule_id_breaks_full_tie():
    doc = make_doc(
        [
            rule("r-b", {"category_equals": "X"}, "host_discovery"),
            rule("r-a", {"category_equals": "X"}, "service_discovery"),
        ]
    )
    spec = load_mapping(doc, TAX)
    assert classify_alert(make_alert(category="X"), spec, TAX).matched_rule == "r-a"


def test_explicit_sentinel_target_carries_no_rule_id():
    doc = make_doc(
        [rule("r-noise", {"category_equals": "Misc activity"}, "unclassified", confidence=0.9)]
    )
    spec = load_mapping(doc, TAX)
    verdict = classify_alert(make_alert(category="Misc activity"), spec, TAX)
    assert verdict.micro == "unclassified"
    assert verdict.matched_rule is None
    assert verdict.confidence == 0.9


def test_alerts_hitting_one_rule_share_its_verdict():
    doc = make_doc(
        [
            rule("r-admin", {"category_equals": "Admin"}, "root_privilege_escalation"),
            rule("r-noise", {"category_equals": "Noise"}, "unclassified", confidence=0.9),
        ],
        default_confidence=0.3,
    )
    spec = load_mapping(doc, TAX)
    for category, expected in [
        ("Admin", Classification("root_privilege_escalation", "privilege_escalation", "r-admin", 0.3)),
        ("Noise", Classification("unclassified", "unclassified", None, 0.9)),
    ]:
        first, second = (
            classify_alert(make_alert(category=category, raw_ref=RawRef("test", i)), spec, TAX)
            for i in (1, 2)
        )
        assert first is second
        assert first == expected
    assert classify_alert(make_alert(category="Noise"), spec, TAX) is not spec.unclassified


def test_unmatched_alerts_share_one_sentinel_verdict():
    spec = load_mapping(make_doc(ADMIN_DOC["rules"], default_confidence=0.25), TAX)
    verdicts = [
        classify_alert(make_alert(category=category, raw_ref=RawRef("test", i)), spec, TAX)
        for i, category in enumerate(["nope", None, "Misc activity"])
    ]
    assert all(verdict is spec.unclassified for verdict in verdicts)
    assert spec.unclassified == Classification("unclassified", "unclassified", None, 0.25)


def test_rule_without_confidence_inherits_default():
    doc = make_doc([rule("r-x", {"category_equals": "X"}, "host_discovery")], default_confidence=0.4)
    spec = load_mapping(doc, TAX)
    assert classify_alert(make_alert(category="X"), spec, TAX).confidence == 0.4


def test_msg_contains_all_is_case_insensitive():
    doc = make_doc([rule("r-m", {"msg_contains_all": ["NMAP", "probe"]}, "host_discovery")])
    spec = load_mapping(doc, TAX)
    verdict = classify_alert(make_alert(signature_msg="et scan nMaP tcp PROBE"), spec, TAX)
    assert verdict.micro == "host_discovery"
    missed = classify_alert(make_alert(signature_msg="et scan masscan"), spec, TAX)
    assert missed.micro == "unclassified"


def test_msg_regex_case_sensitive_unless_opted_out():
    doc = make_doc([rule("r-r", {"msg_regex": r"Nmap \w+ probe"}, "host_discovery")])
    spec = load_mapping(doc, TAX)
    assert classify_alert(make_alert(signature_msg="ET SCAN Nmap TCP probe"), spec, TAX).micro == "host_discovery"
    assert classify_alert(make_alert(signature_msg="et scan nmap tcp probe"), spec, TAX).micro == "unclassified"

    relaxed = make_doc([rule("r-r", {"msg_regex": r"(?i)nmap \w+ probe"}, "host_discovery")])
    spec2 = load_mapping(relaxed, TAX)
    assert classify_alert(make_alert(signature_msg="et scan nmap tcp probe"), spec2, TAX).micro == "host_discovery"


def test_sid_ranges_and_singletons():
    doc = make_doc([rule("r-s", {"sid_in": [100, [2000, 2100]]}, "host_discovery")])
    spec = load_mapping(doc, TAX)
    assert classify_alert(make_alert(signature_id=100), spec, TAX).micro == "host_discovery"
    assert classify_alert(make_alert(signature_id=2050), spec, TAX).micro == "host_discovery"
    assert classify_alert(make_alert(signature_id=2101), spec, TAX).micro == "unclassified"


def test_gid_and_severity_predicates():
    doc = make_doc(
        [rule("r-g", {"gid_equals": 1, "severity_at_most": 2}, "end_point_dos")]
    )
    spec = load_mapping(doc, TAX)
    assert classify_alert(make_alert(severity=1), spec, TAX).micro == "end_point_dos"
    assert classify_alert(make_alert(severity=3), spec, TAX).micro == "unclassified"
    assert classify_alert(make_alert(severity=None), spec, TAX).micro == "unclassified"
    assert classify_alert(make_alert(generator_id=3, severity=1), spec, TAX).micro == "unclassified"


def test_category_equals_is_exact():
    spec = load_mapping(ADMIN_DOC, TAX)
    lower = make_alert(category="attempted administrator privilege gain")
    assert classify_alert(lower, spec, TAX).micro == "unclassified"
    missing = make_alert(category=None)
    assert classify_alert(missing, spec, TAX).micro == "unclassified"


def test_unknown_target_micro_rejected():
    doc = make_doc([rule("r-x", {"category_equals": "X"}, "pwn_everything")])
    with pytest.raises(MappingError, match="pwn_everything"):
        load_mapping(doc, TAX)


def test_macro_key_is_not_a_valid_target():
    doc = make_doc([rule("r-x", {"category_equals": "X"}, "privilege_escalation")])
    with pytest.raises(MappingError, match="unknown target micro"):
        load_mapping(doc, TAX)


def test_duplicate_rule_id_rejected():
    doc = make_doc(
        [
            rule("r1", {"category_equals": "X"}, "host_discovery"),
            rule("r1", {"category_equals": "Y"}, "service_discovery"),
        ]
    )
    with pytest.raises(MappingError, match="duplicate rule_id"):
        load_mapping(doc, TAX)


def test_empty_predicate_set_rejected():
    doc = make_doc([rule("r-x", {}, "host_discovery")])
    with pytest.raises(MappingError, match="at least one predicate"):
        load_mapping(doc, TAX)


def test_invalid_regex_rejected():
    doc = make_doc([rule("r-x", {"msg_regex": "["}, "host_discovery")])
    with pytest.raises(MappingError, match="invalid regex"):
        load_mapping(doc, TAX)


def test_unknown_predicate_rejected():
    doc = make_doc([rule("r-x", {"msg_startswith": "ET"}, "host_discovery")])
    with pytest.raises(MappingError, match="unknown predicate"):
        load_mapping(doc, TAX)


@pytest.mark.parametrize("bad", [0, 1.5, -0.2, "high"])
def test_bad_confidence_rejected(bad):
    doc = make_doc([rule("r-x", {"category_equals": "X"}, "host_discovery", confidence=bad)])
    with pytest.raises(MappingError):
        load_mapping(doc, TAX)


def test_bad_default_confidence_rejected():
    doc = make_doc([rule("r-x", {"category_equals": "X"}, "host_discovery")], default_confidence=0)
    with pytest.raises(MappingError, match="default_confidence"):
        load_mapping(doc, TAX)


def test_bad_sid_range_rejected():
    doc = make_doc([rule("r-x", {"sid_in": [[10, 5]]}, "host_discovery")])
    with pytest.raises(MappingError, match="sid_in"):
        load_mapping(doc, TAX)


def test_error_collects_multiple_findings():
    doc = make_doc(
        [
            rule("r1", {}, "host_discovery"),
            rule("r2", {"category_equals": "X"}, "nope"),
            rule("r1", {"category_equals": "Y"}, "host_discovery"),
        ]
    )
    with pytest.raises(MappingError) as info:
        load_mapping(doc, TAX)
    assert len(info.value.findings) == 2  # empty match, unknown target; dup id r1 never re-registered
    joined = " ".join(info.value.findings)
    assert "at least one predicate" in joined and "nope" in joined


def test_duplicate_detection_counts_parsed_rules():
    doc = make_doc(
        [
            rule("r1", {"category_equals": "X"}, "host_discovery"),
            rule("r1", {"category_equals": "Y"}, "service_discovery"),
            rule("r1", {"category_equals": "Z"}, "surfing"),
        ]
    )
    with pytest.raises(MappingError) as info:
        load_mapping(doc, TAX)
    assert sum("duplicate" in f for f in info.value.findings) == 2


OK_MATCH = {"category_equals": "X"}


@pytest.mark.parametrize(
    "doc, findings",
    [
        pytest.param([1], ["document is not an object"], id="document_not_object"),
        pytest.param(
            make_doc([], spec_version=""), ["spec_version must be non-empty text"], id="spec_version"
        ),
        pytest.param(
            make_doc([], default_confidence=0), ["default_confidence must be in (0, 1]"],
            id="default_confidence",
        ),
        pytest.param(make_doc({}), ["rules must be a list"], id="rules_not_a_list"),
        pytest.param(
            {"rules": "x"},
            [
                "spec_version must be non-empty text",
                "default_confidence must be in (0, 1]",
                "rules must be a list",
            ],
            id="every_document_fault",
        ),
        pytest.param(make_doc(["r"]), ["rules[0]: rule is not an object"], id="rule_not_object"),
        pytest.param(
            make_doc([rule("", OK_MATCH, "host_discovery")]),
            ["rules[0]: rule_id must be non-empty text"],
            id="rule_id",
        ),
        pytest.param(
            make_doc([rule("r-x", OK_MATCH, "host_discovery", priority=True)]),
            ["rules[0] (r-x): priority must be an integer"],
            id="priority",
        ),
        pytest.param(
            make_doc([rule("r-x", OK_MATCH, "pwn_everything")]),
            ["rules[0] (r-x): unknown target micro 'pwn_everything'"],
            id="unknown_target",
        ),
        pytest.param(
            make_doc([rule("r-x", OK_MATCH, "privilege_escalation")]),
            ["rules[0] (r-x): unknown target micro 'privilege_escalation'"],
            id="macro_target",
        ),
        pytest.param(
            make_doc([rule("r-x", OK_MATCH, "host_discovery", confidence=1.5)]),
            ["rules[0] (r-x): confidence must be in (0, 1]"],
            id="confidence",
        ),
        pytest.param(
            make_doc([rule("r-x", {}, "host_discovery")]),
            ["rules[0] (r-x): match must hold at least one predicate"],
            id="empty_match",
        ),
        pytest.param(
            make_doc([rule("r-x", {"msg_startswith": "ET", "zeta": 1, **OK_MATCH}, "host_discovery")]),
            ["rules[0] (r-x): unknown predicate 'msg_startswith'"],
            id="unknown_predicate",
        ),
        pytest.param(
            make_doc([rule("r-x", {"category_equals": ""}, "host_discovery")]),
            ["rules[0] (r-x): category_equals must be non-empty text"],
            id="category_equals",
        ),
        pytest.param(
            make_doc([rule("r-x", {"msg_contains_all": ["scan", ""]}, "host_discovery")]),
            ["rules[0] (r-x): msg_contains_all must be a non-empty list of tokens"],
            id="msg_contains_all",
        ),
        pytest.param(
            make_doc([rule("r-x", {"msg_regex": 5}, "host_discovery")]),
            ["rules[0] (r-x): msg_regex must be text"],
            id="msg_regex_not_text",
        ),
        pytest.param(
            make_doc([rule("r-x", {"msg_regex": "["}, "host_discovery")]),
            ["rules[0] (r-x): invalid regex: unterminated character set at position 0"],
            id="msg_regex_does_not_compile",
        ),
        pytest.param(
            make_doc([rule("r-x", {"msg_regex": "a{4294967296}"}, "host_discovery")]),
            ["rules[0] (r-x): invalid regex: the repetition number is too large"],
            id="msg_regex_repeat_overflows",
        ),
        pytest.param(
            make_doc([rule("r-x", {"msg_regex": "(" * 1_200 + ")" * 1_200}, "host_discovery")]),
            ["rules[0] (r-x): invalid regex: nested too deeply"],
            id="msg_regex_nested_too_deeply",
        ),
        pytest.param(
            make_doc([rule("r-x", {"sid_in": []}, "host_discovery")]),
            ["rules[0] (r-x): sid_in must be a non-empty list"],
            id="sid_in_empty",
        ),
        pytest.param(
            make_doc([rule("r-x", {"sid_in": [1, [10, 5], "x"]}, "host_discovery")]),
            ["rules[0] (r-x): sid_in entry [10, 5] is not a sid or [lo, hi] pair"],
            id="sid_in_bad_entry",
        ),
        pytest.param(
            make_doc([rule("r-x", {"gid_equals": "1"}, "host_discovery")]),
            ["rules[0] (r-x): gid_equals must be an integer"],
            id="gid_equals",
        ),
        pytest.param(
            make_doc([rule("r-x", {"severity_at_most": 0}, "host_discovery")]),
            ["rules[0] (r-x): severity_at_most must be a positive integer"],
            id="severity_at_most",
        ),
        pytest.param(
            make_doc([rule("r-x", {"severity_at_most": 0, "category_equals": 1}, "host_discovery")]),
            ["rules[0] (r-x): category_equals must be non-empty text"],
            id="first_bad_predicate_in_predicate_order",
        ),
        pytest.param(
            make_doc(
                [
                    rule("r1", OK_MATCH, "host_discovery"),
                    rule("r1", {"category_equals": "Y"}, "service_discovery"),
                ]
            ),
            ["rules[1]: duplicate rule_id 'r1'"],
            id="duplicate_rule_id",
        ),
        pytest.param(
            make_doc(
                [
                    rule("r1", {}, "host_discovery"),
                    rule("r2", OK_MATCH, "nope"),
                    rule("r3", OK_MATCH, "host_discovery"),
                    rule("r3", OK_MATCH, "host_discovery"),
                ],
                default_confidence="x",
            ),
            [
                "default_confidence must be in (0, 1]",
                "rules[0] (r1): match must hold at least one predicate",
                "rules[1] (r2): unknown target micro 'nope'",
                "rules[3]: duplicate rule_id 'r3'",
            ],
            id="every_rule_reported_in_order",
        ),
    ],
)
def test_mapping_findings_are_pinned(doc, findings):
    with pytest.raises(MappingError) as info:
        load_mapping(doc, TAX)
    assert info.value.findings == findings


def test_classify_stream_is_order_preserving_and_total():
    spec = load_mapping(ADMIN_DOC, TAX)
    alerts = [
        make_alert(category="Attempted Administrator Privilege Gain", signature_id=1),
        make_alert(category="nope", signature_id=2),
        make_alert(category="Attempted Administrator Privilege Gain", signature_id=3),
    ]
    pairs = list(classify_stream(alerts, spec, TAX))
    assert [a.signature_id for a, _ in pairs] == [1, 2, 3]
    assert [c.micro for _, c in pairs] == [
        "root_privilege_escalation",
        "unclassified",
        "root_privilege_escalation",
    ]
    assert list(classify_stream([], spec, TAX)) == []


# One rule per predicate kind; a higher priority wins, so changing any one
# field a rule reads can flip the verdict when the rules above it miss.
MEMO_SPEC = load_mapping(
    make_doc(
        [
            rule("r-cat", {"category_equals": "Cat A"}, "host_discovery", priority=10),
            rule("r-tok", {"msg_contains_all": ["probe"]}, "service_discovery", priority=20),
            rule("r-re", {"msg_regex": "^ET "}, "vulnerability_discovery", priority=30),
            rule("r-sid", {"sid_in": [[100, 199]]}, "information_discovery", priority=40),
            rule("r-gid", {"gid_equals": 3}, "surfing", priority=50),
            rule("r-sev", {"severity_at_most": 1}, "social_engineering", priority=60),
        ]
    ),
    TAX,
)
KEY_VALUES = {
    "category": [None, "Cat A", "Cat B"],
    "signature_msg": ["ET probe", "ET scan", "et Probe", "other"],
    "signature_id": [1, 150, 250],
    "generator_id": [1, 3],
    "severity": [None, 1, 3],
}
OUTSIDE_KEY_VALUES = {
    "timestamp": [datetime(2021, 3, 1, tzinfo=timezone.utc), datetime(2021, 3, 2, tzinfo=timezone.utc)],
    "src_ip": ["10.0.0.5", "10.0.0.6"],
    "src_port": [40000, None],
    "dst_ip": ["192.168.1.20", "10.9.9.9"],
    "dst_port": [80, None],
    "revision": [1, 2],
    "protocol": ["TCP", "ICMP"],
}
# No rule matches NEUTRAL; changing any one keyed field to its value in
# DECISIVE makes exactly one rule match.
NEUTRAL = dict(category="Cat B", signature_msg="other", signature_id=1, generator_id=1, severity=3)
DECISIVE = dict(category="Cat A", signature_msg="ET scan", signature_id=150, generator_id=3, severity=1)


@st.composite
def verdict_key_streams(draw):
    """Alerts in pairs that differ in one keyed field, each with a twin that differs only in fields no rule reads."""
    alerts = []
    for _ in range(draw(st.integers(1, 6))):
        base = {name: draw(st.sampled_from(values)) for name, values in KEY_VALUES.items()}
        name = draw(st.sampled_from(sorted(KEY_VALUES)))
        other = draw(st.sampled_from([v for v in KEY_VALUES[name] if v != base[name]]))
        outside = {name: draw(st.sampled_from(values)) for name, values in OUTSIDE_KEY_VALUES.items()}
        alerts += [make_alert(**base), make_alert(**{**base, name: other}), make_alert(**base, **outside)]
    return alerts


@settings(max_examples=200, deadline=None)
@given(alerts=verdict_key_streams())
@example(alerts=[make_alert(**{**NEUTRAL, name: DECISIVE[name]}) for name in NEUTRAL] + [make_alert(**NEUTRAL)])
@example(alerts=[make_alert(**NEUTRAL)] + [make_alert(**{**NEUTRAL, name: DECISIVE[name]}) for name in NEUTRAL])
@example(alerts=[make_alert(**base, **other) for base in (NEUTRAL, DECISIVE)
                 for other in ({}, {"revision": 2}, {"protocol": "ICMP"})])
def test_stream_memo_returns_the_oracle_verdict(alerts):
    # classify_stream reuses a verdict for alerts of one signature, whose
    # values include every field a rule reads and two no rule reads
    # (revision, protocol); classify_alert scans the rules every time.
    for alert, verdict in classify_stream(alerts, MEMO_SPEC, TAX):
        assert verdict is classify_alert(alert, MEMO_SPEC, TAX)


def test_long_texts_bypass_the_stream_memo(monkeypatch):
    # An alert whose protocol, message and category together run over
    # MEMO_TEXT_LIMIT is scanned every time it comes; a short one is scanned
    # once.
    calls = []

    def counting(alert, spec, taxonomy):
        calls.append(alert)
        return classify_alert(alert, spec, taxonomy)

    monkeypatch.setattr(classify, "classify_alert", counting)
    short = [make_alert(**NEUTRAL), make_alert(**DECISIVE)]
    half = "m" * (MEMO_TEXT_LIMIT // 2 + 1)
    long = [
        make_alert(signature_msg="ET probe " + "x" * MEMO_TEXT_LIMIT),
        make_alert(signature_msg=half, category=half),
        make_alert(**NEUTRAL, protocol="P" * MEMO_TEXT_LIMIT),
    ]
    alerts = (short + long) * 3
    pairs = list(classify_stream(alerts, MEMO_SPEC, TAX))
    assert [alert for alert, _ in pairs] == alerts
    for alert, verdict in pairs:
        assert verdict is classify_alert(alert, MEMO_SPEC, TAX)
    assert calls == short + long * 3


def test_coverage_report_counts():
    spec = load_mapping(ADMIN_DOC, TAX)
    alerts = [make_alert(category="Attempted Administrator Privilege Gain")] * 6 + [
        make_alert(category="nope")
    ] * 4
    verdicts = [c for _, c in classify_stream(alerts, spec, TAX)]
    report = coverage_report(spec, verdicts)
    assert report.total == 10
    assert report.unclassified_fraction == 0.4
    assert report.rule_hits == {"r-admin": 6}
    assert report.micro_counts == {"root_privilege_escalation": 6, "unclassified": 4}
    assert report.macro_counts == {"privilege_escalation": 6, "unclassified": 4}

    # A rule that targets the sentinel counts as unclassified, not as a hit.
    to_sentinel = rule("r-none", {"category_equals": "Not Suspicious Traffic"}, "unclassified")
    spec = load_mapping(make_doc(ADMIN_DOC["rules"] + [to_sentinel]), TAX)
    alerts += [make_alert(category="Not Suspicious Traffic")] * 5
    verdicts = [c for _, c in classify_stream(alerts, spec, TAX)]
    report = coverage_report(spec, verdicts)
    assert report.total == 15
    assert report.unclassified_fraction == 9 / 15
    assert report.rule_hits == {"r-admin": 6, "r-none": 0}
    assert report.micro_counts == {"root_privilege_escalation": 6, "unclassified": 9}
    assert report.macro_counts == {"privilege_escalation": 6, "unclassified": 9}


def test_coverage_report_empty_input():
    spec = load_mapping(ADMIN_DOC, TAX)
    report = coverage_report(spec, [])
    assert report.total == 0
    assert report.unclassified_fraction == 0.0
    assert report.rule_hits == {"r-admin": 0}
    assert report.micro_counts == {} and report.macro_counts == {}


def test_starter_mapping_loads_and_covers_known_classtypes():
    spec = load_mapping(starter_mapping_document(), TAX)
    assert spec.spec_version == "starter-1.0.0"
    scan = make_alert(category="Detection of a Network Scan", signature_msg="scan")
    assert classify_alert(scan, spec, TAX).micro == "host_discovery"
    admin = make_alert(category="Attempted Administrator Privilege Gain", signature_msg="x")
    assert classify_alert(admin, spec, TAX).micro == "root_privilege_escalation"
    dos = make_alert(category="Attempted Denial of Service", signature_msg="flood")
    verdict = classify_alert(dos, spec, TAX)
    assert (verdict.micro, verdict.macro) == ("end_point_dos", "disrupt")


def test_starter_mapping_msg_rule_outranks_category_rule():
    spec = load_mapping(starter_mapping_document(), TAX)
    alert = make_alert(
        category="Potentially Bad Traffic",
        signature_msg="GPL ATTACK_RESPONSE id check returned root",
    )
    verdict = classify_alert(alert, spec, TAX)
    assert verdict.micro == "root_privilege_escalation"
    assert verdict.matched_rule == "msg-id-check-root"
    assert verdict.confidence == 0.95


def test_starter_mapping_returns_fresh_copies():
    doc = starter_mapping_document()
    doc["rules"].clear()
    assert starter_mapping_document()["rules"]


# Randomized determinism checks; the acceptance suite runs the large loop.

CATEGORIES = ["Alpha", "Beta", "Gamma", None]
TOKENS = ["scan", "probe", "root", "login", "flood", "beacon"]
MICROS = [
    "host_discovery",
    "service_discovery",
    "root_privilege_escalation",
    "end_point_dos",
    "data_exfiltration",
    "unclassified",
]


def random_rule(rng: random.Random, rule_id: str) -> dict:
    match = {}
    if rng.random() < 0.5:
        match["category_equals"] = rng.choice([c for c in CATEGORIES if c])
    if rng.random() < 0.5:
        match["msg_contains_all"] = rng.sample(TOKENS, rng.randint(1, 2))
    if rng.random() < 0.3:
        match["msg_regex"] = rng.choice(TOKENS) + r"\b"
    if rng.random() < 0.4:
        lo = rng.randint(1, 50)
        match["sid_in"] = [[lo, lo + rng.randint(0, 20)]]
    if rng.random() < 0.2:
        match["gid_equals"] = rng.randint(1, 2)
    if rng.random() < 0.3:
        match["severity_at_most"] = rng.randint(1, 4)
    if not match:
        match["category_equals"] = rng.choice([c for c in CATEGORIES if c])
    return rule(
        rule_id,
        match,
        rng.choice(MICROS),
        priority=rng.randint(0, 5),
        confidence=round(rng.uniform(0.1, 1.0), 2),
    )


def random_alert(rng: random.Random) -> NormalizedAlert:
    return make_alert(
        category=rng.choice(CATEGORIES),
        signature_msg=" ".join(rng.sample(TOKENS, rng.randint(1, 4))),
        signature_id=rng.randint(1, 80),
        generator_id=rng.randint(1, 2),
        severity=rng.choice([None, 1, 2, 3, 4]),
    )


def oracle_verdict(alert, spec, doc) -> tuple[str, str | None]:
    # Evaluate every rule independently, then apply the tie-break chain. The
    # winner's target comes from its document, not from the compiled rule.
    msg_lower = alert.signature_msg.lower()
    matching = [r for r in spec.rules if r.matches(alert, msg_lower)]
    if not matching:
        return "unclassified", None
    best = sorted(matching, key=lambda r: (-r.priority, -r.predicate_count, r.rule_id))[0]
    micro = next(raw["target_micro"] for raw in doc["rules"] if raw["rule_id"] == best.rule_id)
    return micro, best.rule_id if micro != "unclassified" else None


def test_random_specs_match_oracle_and_survive_shuffling():
    rng = random.Random(20240812)
    for _ in range(200):
        n_rules = rng.randint(1, 8)
        raw_rules = [random_rule(rng, f"r{i:02d}") for i in range(n_rules)]
        doc = make_doc(raw_rules)
        spec = load_mapping(doc, TAX)
        alert = random_alert(rng)
        verdict = classify_alert(alert, spec, TAX)
        assert (verdict.micro, verdict.matched_rule) == oracle_verdict(alert, spec, doc)
        assert verdict.macro == TAX.macro_of(verdict.micro)

        shuffled = list(raw_rules)
        rng.shuffle(shuffled)
        spec2 = load_mapping(make_doc(shuffled), TAX)
        verdict2 = classify_alert(alert, spec2, TAX)
        assert (verdict2.micro, verdict2.macro, verdict2.matched_rule, verdict2.confidence) == (
            verdict.micro,
            verdict.macro,
            verdict.matched_rule,
            verdict.confidence,
        )


def test_adding_non_matching_rule_never_changes_verdicts():
    rng = random.Random(7)
    doc = make_doc([random_rule(rng, f"r{i}") for i in range(4)])
    spec = load_mapping(doc, TAX)
    alerts = [random_alert(rng) for _ in range(30)]
    before = [classify_alert(a, spec, TAX) for a in alerts]

    never_matches = rule(
        "zz-never", {"category_equals": "No Such Category Ever"}, "surfing", priority=99
    )
    spec2 = load_mapping(make_doc(doc["rules"] + [never_matches]), TAX)
    after = [classify_alert(a, spec2, TAX) for a in alerts]
    assert [(c.micro, c.matched_rule) for c in before] == [
        (c.micro, c.matched_rule) for c in after
    ]
