from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

import aifseq
from aifseq.taxonomy import (
    AisLevel,
    AisRecord,
    SENTINEL_KEY,
    Taxonomy,
    TaxonomyError,
    UnknownAisKey,
    builtin_taxonomy,
    from_document,
    lint_document,
    load_taxonomy,
    to_document,
    validate_extension,
)

DATA_DIR = Path(__file__).parent / "data"


def fixture_rows() -> list[dict[str, str]]:
    with open(DATA_DIR / "micro_macro_table.csv", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def minimal_doc() -> dict:
    return {
        "version": "test-1",
        "macros": [
            {"key": "alpha", "display_name": "Alpha", "description": "First group."},
            {"key": "beta", "display_name": "Beta", "description": "Second group."},
        ],
        "micros": [
            {"key": "a_one", "display_name": "A One", "description": "Way one.", "parent": "alpha"},
            {"key": "a_two", "display_name": "A Two", "description": "Way two.", "parent": "alpha"},
            {"key": "b_one", "display_name": "B One", "description": "Way three.", "parent": "beta"},
        ],
    }


def test_builtin_counts():
    t = builtin_taxonomy()
    assert len(t.macros) == 11
    assert len(t.micros) == 35


def test_builtin_matches_transcribed_table_row_for_row():
    t = builtin_taxonomy()
    generated = [
        {"micro_key": r.key, "micro_display": r.display_name, "macro_key": r.parent}
        for r in t.micros
    ]
    assert generated == fixture_rows()


def test_macro_of_known_rows():
    t = builtin_taxonomy()
    assert t.macro_of("lateral_movement") == "ensure_access"
    assert t.macro_of("data_exfiltration") == "disclosure"
    assert t.macro_of("zero_day_privilege_escalation") == "zero_day"


def test_macro_of_unknown_micro():
    with pytest.raises(UnknownAisKey):
        builtin_taxonomy().macro_of("warp_drive")


def test_micros_of_groups():
    t = builtin_taxonomy()
    assert t.micros_of("destroy") == ("data_destruction", "content_wipe")
    assert t.micros_of("delivery") == ("data_delivery",)
    assert t.micros_of("active_recon") == (
        "host_discovery",
        "service_discovery",
        "vulnerability_discovery",
        "information_discovery",
    )


def test_micros_of_unknown_macro():
    with pytest.raises(UnknownAisKey):
        builtin_taxonomy().micros_of("nonexistent")


def test_micros_of_the_sentinel_and_of_an_empty_macro():
    """The sentinel macro holds the sentinel micro in every taxonomy."""
    doc = minimal_doc()
    doc["macros"].append({"key": "gamma", "display_name": "Gamma", "description": "No ways yet."})
    custom = from_document(doc)
    for t in (builtin_taxonomy(), custom):
        assert t.micros_of(SENTINEL_KEY) == (SENTINEL_KEY,)
    assert custom.micros_of("gamma") == ()
    assert custom.micros_of("alpha") == ("a_one", "a_two")
    with pytest.raises(UnknownAisKey, match="unknown macro key 'a_one'"):
        custom.micros_of("a_one")


def test_partition_of_micros_under_macros():
    t = builtin_taxonomy()
    seen: list[str] = []
    for macro in t.macro_keys():
        group = t.micros_of(macro)
        assert all(t.macro_of(m) == macro for m in group)
        seen.extend(group)
    assert sorted(seen) == sorted(t.micro_keys())
    assert len(seen) == len(set(seen))


def test_describe_returns_verbatim_descriptions():
    t = builtin_taxonomy()
    surfing = t.describe(AisLevel.MICRO, "surfing")
    assert surfing.description.startswith("Using legitimate methods (websites, public documents")
    disrupt = t.describe(AisLevel.MACRO, "disrupt")
    assert disrupt.description == "Disruption in services, usually from a Denial of Service."


def test_describe_unknown_key():
    with pytest.raises(UnknownAisKey):
        builtin_taxonomy().describe(AisLevel.MICRO, "foo")


def test_sentinel_is_resolvable_but_outside_counts():
    t = builtin_taxonomy()
    assert t.has(AisLevel.MICRO, SENTINEL_KEY)
    assert t.macro_of(SENTINEL_KEY) == SENTINEL_KEY
    assert SENTINEL_KEY not in t.micro_keys()
    assert SENTINEL_KEY not in t.macro_keys()


def test_original_spellings_retained():
    t = builtin_taxonomy()
    assert t.describe(AisLevel.MACRO, "privilege_escalation").original_name == "Privilege Escalation."
    assert (
        t.describe(AisLevel.MICRO, "trusted_organization_exploitation").original_name
        == "Trusted Orginization Exploitation"
    )
    assert t.describe(AisLevel.MICRO, "zero_day_targeted_exploit").original_name == "Targeted Exploit"


def test_round_trip_document_identity():
    t = builtin_taxonomy()
    assert from_document(to_document(t)) == t


def test_load_taxonomy_from_file(tmp_path):
    path = tmp_path / "tax.json"
    path.write_text(json.dumps(to_document(builtin_taxonomy())), encoding="utf-8")
    assert load_taxonomy(path) == builtin_taxonomy()


def test_load_taxonomy_builtin_markers():
    assert load_taxonomy() is builtin_taxonomy()
    assert load_taxonomy("builtin") is builtin_taxonomy()


def test_load_rejects_dangling_parent():
    doc = minimal_doc()
    doc["micros"].append(
        {"key": "lost", "display_name": "Lost", "description": "Orphan.", "parent": "gamma"}
    )
    with pytest.raises(TaxonomyError) as exc:
        from_document(doc)
    assert any(f.code == "dangling-parent" for f in exc.value.findings)
    assert any("micros[3]" in f.location for f in exc.value.findings)


def test_load_rejects_duplicate_micro_key():
    doc = minimal_doc()
    doc["micros"].append(dict(doc["micros"][0]))
    with pytest.raises(TaxonomyError) as exc:
        from_document(doc)
    assert any(f.code == "duplicate-key" for f in exc.value.findings)


def test_load_rejects_reserved_key():
    doc = minimal_doc()
    doc["micros"].append(
        {
            "key": SENTINEL_KEY,
            "display_name": "Mine",
            "description": "Clash.",
            "parent": "alpha",
        }
    )
    with pytest.raises(TaxonomyError) as exc:
        from_document(doc)
    assert any(f.code == "reserved-key" for f in exc.value.findings)


def test_load_rejects_malformed_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(TaxonomyError):
        load_taxonomy(path)


def test_duplicate_key_across_levels_is_allowed():
    doc = minimal_doc()
    doc["micros"].append(
        {"key": "beta", "display_name": "Beta Way", "description": "Same key, micro level.", "parent": "alpha"}
    )
    t = from_document(doc)
    assert t.describe(AisLevel.MICRO, "beta").display_name == "Beta Way"
    assert t.describe(AisLevel.MACRO, "beta").display_name == "Beta"


def test_validate_extension_canonical_has_zero_hard_findings():
    findings = validate_extension(builtin_taxonomy())
    assert [f for f in findings if f.severity == "hard"] == []


def test_validate_extension_flags_denylist_token():
    doc = to_document(builtin_taxonomy())
    doc["micros"].append(
        {
            "key": "kerberoast",
            "display_name": "Kerberoast",
            "description": "Requesting Kerberos service tickets to crack offline.",
            "parent": "privilege_escalation",
        }
    )
    findings = validate_extension(doc)
    advisories = [f for f in findings if f.severity == "advisory" and "Kerberos" in f.message]
    assert advisories
    assert all(f.severity != "hard" for f in findings)
    # An advisory finding never blocks a load.
    assert from_document(doc).describe("micro", "kerberoast").display_name == "Kerberoast"


def test_validate_extension_reports_empty_description_as_hard():
    doc = minimal_doc()
    doc["macros"].append({"key": "gamma", "display_name": "Gamma", "description": ""})
    findings = validate_extension(doc)
    assert any(f.severity == "hard" and f.code == "empty-description" for f in findings)


def test_canonical_advisory_lint_is_heuristic_not_empty():
    # The canonical catalog itself names one product in a description, which
    # the default denylist flags; this pins the advisory path as reachable.
    findings = validate_extension(builtin_taxonomy())
    assert any(f.code == "platform-term" for f in findings)


def test_lint_document_survives_garbage():
    assert any(f.severity == "hard" for f in lint_document(42))
    assert any(f.severity == "hard" for f in lint_document({"version": "x", "macros": 3, "micros": []}))
    findings = lint_document({"version": "x", "macros": [17], "micros": []})
    assert any(f.code == "malformed-entry" for f in findings)


LINT_ORDER_CASES = {
    "entries": (
        {
            "version": "",
            "macros": [
                {"key": "alpha", "display_name": "Alpha", "description": "Runs on Windows."},
                {"key": "alpha", "display_name": " ", "description": "Again."},
                {"key": "Beta", "display_name": "B", "description": "x", "parent": "alpha"},
                17,
            ],
            "micros": [
                {"key": SENTINEL_KEY, "display_name": "U", "description": "x", "parent": "alpha"},
                {"key": "one", "display_name": "One", "description": "", "parent": "gamma"},
                {"key": "one", "display_name": "One", "description": "y", "original_name": 5},
                {"key": "alpha", "display_name": "A", "description": "Cisco kit.", "parent": "alpha"},
            ],
        },
        [
            ("hard", "missing-version", "version"),
            ("advisory", "platform-term", "macros[0]"),
            ("hard", "duplicate-key", "macros[1]"),
            ("hard", "empty-display-name", "macros[1]"),
            ("hard", "invalid-key", "macros[2]"),
            ("hard", "unexpected-parent", "macros[2]"),
            ("hard", "malformed-entry", "macros[3]"),
            ("hard", "reserved-key", "micros[0]"),
            ("hard", "empty-description", "micros[1]"),
            ("hard", "dangling-parent", "micros[1]"),
            ("hard", "duplicate-key", "micros[2]"),
            ("hard", "missing-parent", "micros[2]"),
            ("hard", "invalid-original-name", "micros[2]"),
            ("advisory", "platform-term", "micros[3]"),
        ],
    ),
    "arrays": (
        {"version": 3, "macros": "alpha", "micros": {"key": "one"}},
        [
            ("hard", "missing-version", "version"),
            ("hard", "malformed-document", "macros"),
            ("hard", "malformed-document", "micros"),
        ],
    ),
}


@pytest.mark.parametrize(("doc", "expected"), LINT_ORDER_CASES.values(), ids=LINT_ORDER_CASES.keys())
def test_lint_findings_come_in_document_order_at_both_levels(doc, expected):
    assert [(f.severity, f.code, f.location) for f in lint_document(doc)] == expected


def test_taxonomy_equality_is_field_for_field():
    doc = minimal_doc()
    a = from_document(doc)
    b = from_document(json.loads(json.dumps(doc)))
    assert a == b
    doc["micros"][0]["description"] = "Changed."
    assert from_document(doc) != a


def test_builtin_is_deterministic_and_cached():
    assert builtin_taxonomy() is builtin_taxonomy()


def randomized_mutation(doc: dict, rng) -> dict:
    """Apply one validity-preserving random mutation to a taxonomy document."""
    doc = json.loads(json.dumps(doc))
    op = rng.randrange(5)
    tag = rng.randrange(10**9)
    if op == 0:
        doc["macros"].append(
            {"key": f"m{tag}", "display_name": f"M {tag}", "description": f"Group {tag}."}
        )
    elif op == 1:
        parent = rng.choice(doc["macros"])["key"]
        doc["micros"].append(
            {
                "key": f"u{tag}",
                "display_name": f"U {tag}",
                "description": f"Way {tag}.",
                "parent": parent,
            }
        )
    elif op == 2:
        target = rng.choice(doc["micros"])
        target["description"] = f"Edited {tag}."
    elif op == 3:
        rng.shuffle(doc["micros"])
    else:
        doc["version"] = f"v{tag}"
    return doc


def test_randomized_mutations_preserve_partition_and_round_trip():
    import random

    rng = random.Random(20240811)
    doc = to_document(builtin_taxonomy())
    for _ in range(200):
        doc = randomized_mutation(doc, rng)
        t = from_document(doc)
        assert from_document(to_document(t)) == t
        grouped = [m for macro in t.macro_keys() for m in t.micros_of(macro)]
        assert sorted(grouped) == sorted(t.micro_keys())


def test_records_name_their_level_key_and_parent_macro_key():
    t = builtin_taxonomy()
    micro_key = t.micro_keys()[0]
    record = t.describe("micro", micro_key)
    assert (record.level, record.key) == (AisLevel.MICRO, micro_key)
    assert record.parent == t.macro_of(micro_key) == t.macro_keys()[0]
    assert t.describe(AisLevel.MACRO, record.parent).parent is None
    assert t.describe("micro", SENTINEL_KEY).parent == SENTINEL_KEY
    assert AisRecord(AisLevel.MACRO, "k", "K", "d") == AisRecord(
        level=AisLevel.MACRO, key="k", display_name="K", description="d"
    )


def test_package_exports_resolve_once_each():
    assert all(hasattr(aifseq, name) for name in aifseq.__all__)
    assert len(set(aifseq.__all__)) == len(aifseq.__all__)
    assert "AisId" not in aifseq.__all__
    assert not hasattr(aifseq, "AisId")
