"""End-to-end command-line tests."""

from __future__ import annotations

import csv
import gc
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from aifseq.cli import _CLASSIFICATION_COLUMNS, _classification_row, _csv_field, build_parser, main
from aifseq.classify import classify_stream, load_mapping, starter_mapping_document
from aifseq.ingest import read_alert_stream
from aifseq.sequence import (
    DEFAULT_GAP_SECONDS,
    DEFAULT_SKEW_SECONDS,
    STEP_COLUMNS,
    build_sequences,
    episode_step_rows,
    sequence_similarity,
    transition_matrix,
)
from aifseq.taxonomy import builtin_taxonomy, load_taxonomy, to_document

BASE = datetime(2021, 3, 1, 12, 0, 0, tzinfo=timezone.utc)
REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "data" / "golden_scenario.eve.json"

sys.path.insert(0, str(REPO / "perfbench"))
import corpus  # noqa: E402
import spans  # noqa: E402
from run import WORKLOADS  # noqa: E402

FAST_SEQUENCE = WORKLOADS["fast_sequence"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def eve_alert(seconds, src="10.0.0.5", category="Detection of a Network Scan", msg="scan", sid=1):
    ts = BASE + timedelta(seconds=seconds)
    return json.dumps(
        {
            "timestamp": ts.isoformat(),
            "event_type": "alert",
            "src_ip": src,
            "src_port": 40000,
            "dest_ip": "192.168.1.20",
            "dest_port": 80,
            "proto": "TCP",
            "alert": {
                "gid": 1,
                "signature_id": sid,
                "rev": 1,
                "signature": msg,
                "category": category,
                "severity": 2,
            },
        }
    )


@pytest.fixture
def three_alert_feed(tmp_path):
    # One attacker: scan at 0s, probe at 10s, scan again at 300s.
    lines = [
        eve_alert(0, category="Detection of a Network Scan"),
        eve_alert(10, category="Attempted Information Leak"),
        eve_alert(300, category="Detection of a Network Scan"),
    ]
    path = tmp_path / "feed.eve.json"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_taxonomy_show_lists_full_catalog(capsys):
    code, out, _ = run(capsys, "taxonomy", "show")
    assert code == 0
    assert "11 macro states, 35 micro states" in out
    macro_lines = [l for l in out.splitlines() if l and not l.startswith(" ") and ": " in l and not l.startswith("taxonomy ")]
    micro_lines = [l for l in out.splitlines() if l.startswith("  - ")]
    assert len(macro_lines) == 11
    assert len(micro_lines) == 35


def test_taxonomy_show_single_macro(capsys):
    code, out, _ = run(capsys, "taxonomy", "show", "--macro", "destroy")
    assert code == 0
    micro_lines = [l for l in out.splitlines() if l.startswith("  - ")]
    assert len(micro_lines) == 2
    assert "data_destruction" in out and "content_wipe" in out


def test_taxonomy_show_unknown_macro(capsys):
    code, _, err = run(capsys, "taxonomy", "show", "--macro", "conquer")
    assert code == 2
    assert "unknown macro" in err


def test_taxonomy_export_round_trips(capsys, tmp_path):
    target = tmp_path / "t.json"
    code, _, _ = run(capsys, "taxonomy", "export", "-o", str(target))
    assert code == 0
    assert load_taxonomy(target) == builtin_taxonomy()


def test_shipped_catalog_is_the_export(capsys, tmp_path):
    target = tmp_path / "x.json"
    code, _, _ = run(capsys, "taxonomy", "export", "-o", str(target))
    assert code == 0
    shipped = resources.files("aifseq.data").joinpath("catalog.json").read_bytes()
    assert target.read_bytes() == shipped


def test_validate_mapping_accepts_starter(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(starter_mapping_document()), encoding="utf-8")
    code, out, _ = run(capsys, "validate-mapping", "--mapping", str(path))
    assert code == 0
    assert "mapping OK" in out


def test_validate_mapping_rejects_unknown_target(capsys, tmp_path):
    doc = {
        "spec_version": "x",
        "default_confidence": 0.5,
        "rules": [
            {
                "rule_id": "r1",
                "priority": 1,
                "match": {"category_equals": "X"},
                "target_micro": "pwn_everything",
            }
        ],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "validate-mapping", "--mapping", str(path))
    assert code == 4
    assert err.count("finding:") == 1
    assert "pwn_everything" in err


@pytest.mark.parametrize(
    ("regex", "finding"),
    [
        ("a{4294967296}", "invalid regex: the repetition number is too large"),
        ("(" * 1_200 + ")" * 1_200, "invalid regex: nested too deeply"),
    ],
    ids=["repeat_overflows", "nested_too_deeply"],
)
def test_validate_mapping_reports_regex_overflow_and_recursion(capsys, tmp_path, regex, finding):
    # re.compile raises OverflowError and RecursionError for these, not
    # re.error; both ended in a traceback and exit 1.
    doc = starter_mapping_document()
    doc["rules"][0]["match"] = {"msg_regex": regex}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "validate-mapping", "--mapping", str(path))
    assert code == 4
    assert "Traceback" not in err
    assert err.count("finding:") == 1
    assert finding in err


def test_validate_mapping_unreadable_path(capsys, tmp_path):
    code, _, err = run(capsys, "validate-mapping", "--mapping", str(tmp_path / "missing.json"))
    assert code == 3
    assert "error:" in err


def test_classify_counts_and_coverage(capsys, tmp_path):
    lines = [
        eve_alert(0),
        eve_alert(1),
        json.dumps({"event_type": "flow", "src_ip": "10.0.0.5"}),
        eve_alert(2),
    ]
    feed = tmp_path / "feed.json"
    feed.write_text("\n".join(lines) + "\n", encoding="utf-8")
    mapping = tmp_path / "catch_all.json"
    mapping.write_text(
        json.dumps(
            {
                "spec_version": "t",
                "default_confidence": 0.5,
                "rules": [
                    {
                        "rule_id": "all",
                        "priority": 1,
                        "match": {"sid_in": [[0, 99999999]]},
                        "target_micro": "host_discovery",
                    }
                ],
            }
        ),
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    code, _, _ = run(
        capsys,
        "classify",
        "--input", str(feed),
        "--mapping", str(mapping),
        "--out", str(out_dir),
    )
    assert code == 0
    records = [
        json.loads(l)
        for l in (out_dir / "classifications.ndjson").read_text().splitlines()
    ]
    assert len(records) == 3
    assert all(r["micro"] == "host_discovery" for r in records)
    coverage = json.loads((out_dir / "coverage.json").read_text())
    assert coverage["total"] == 3
    assert coverage["unclassified_fraction"] == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "classify"
    assert manifest["config"]["taxonomy"] == "builtin"
    assert manifest["config"]["output_format"] == "json"
    assert manifest["ingest_stats"]["non_alert_skipped"] == 1
    assert "generated_at" in manifest


def test_classify_empty_rule_set_marks_everything_unclassified(capsys, tmp_path):
    feed = tmp_path / "feed.json"
    feed.write_text("\n".join([eve_alert(0), eve_alert(1), eve_alert(2)]) + "\n")
    mapping = tmp_path / "empty.json"
    mapping.write_text(
        json.dumps({"spec_version": "t", "default_confidence": 0.5, "rules": []})
    )
    out_dir = tmp_path / "out"
    code, _, _ = run(
        capsys, "classify", "--input", str(feed), "--mapping", str(mapping), "--out", str(out_dir)
    )
    assert code == 0
    coverage = json.loads((out_dir / "coverage.json").read_text())
    assert coverage["total"] == 3
    assert coverage["unclassified_fraction"] == 1.0


def test_classify_missing_input_exits_3(capsys, tmp_path, three_alert_feed):
    code, _, err = run(
        capsys, "classify", "--input", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")
    )
    assert code == 3
    assert "error:" in err

    # An output that cannot be written is an I/O error too: --out under a
    # regular file, and an export into a missing directory.
    code, _, err = run(
        capsys, "classify", "--input", str(three_alert_feed), "--out", str(three_alert_feed / "o")
    )
    assert code == 3
    assert "error:" in err
    code, _, err = run(capsys, "taxonomy", "export", "-o", str(tmp_path / "missing" / "t.json"))
    assert code == 3
    assert "error:" in err


def test_classify_invalid_mapping_exits_4(capsys, tmp_path, three_alert_feed):
    mapping = tmp_path / "bad.json"
    mapping.write_text("{not json")
    code, _, err = run(
        capsys,
        "classify",
        "--input", str(three_alert_feed),
        "--mapping", str(mapping),
        "--out", str(tmp_path / "o"),
    )
    assert code == 4
    assert "finding:" in err


BAD_JSON_FILES = {
    "not_utf8": b"\xff\xfe{}",
    "nested_too_deeply": b"[" * 100_000,
    "integer_too_long": b'{"n": ' + b"1" * 5_000 + b"}",
}


@pytest.mark.parametrize(
    "command",
    ["validate-mapping --mapping", "classify --mapping", "classify --taxonomy", "taxonomy show --taxonomy"],
)
@pytest.mark.parametrize("content", BAD_JSON_FILES.values(), ids=BAD_JSON_FILES.keys())
def test_config_file_the_json_parser_rejects_exits_4(capsys, tmp_path, three_alert_feed, command, content):
    # A decode error, a RecursionError or an over-long integer escaped the
    # loaders, which caught only JSONDecodeError, and ended in a traceback.
    config = tmp_path / "config.json"
    config.write_bytes(content)
    *argv, flag = command.split()
    if argv[0] == "classify":
        argv += ["--input", str(three_alert_feed), "--out", str(tmp_path / "o")]
    code, _, err = run(capsys, *argv, flag, str(config))
    assert code == 4
    assert "Traceback" not in err
    assert ("finding: " if flag == "--mapping" else "error: ") in err
    assert f"{config} is not valid JSON" in err
    assert not (tmp_path / "o").exists()


def test_mapping_file_with_a_byte_order_mark_loads(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps(starter_mapping_document()).encode("utf-8"))
    code, out, err = run(capsys, "validate-mapping", "--mapping", str(path))
    assert (code, err) == (0, "")
    assert "mapping OK" in out


def test_taxonomy_file_with_a_byte_order_mark_loads(capsys, tmp_path):
    path = tmp_path / "t.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps(to_document(builtin_taxonomy())).encode("utf-8"))
    code, out, err = run(capsys, "taxonomy", "show", "--taxonomy", str(path))
    assert (code, err) == (0, "")
    assert "11 macro states, 35 micro states" in out


def test_classify_csv_output(capsys, tmp_path, three_alert_feed):
    out_dir = tmp_path / "out"
    code, _, _ = run(
        capsys,
        "classify",
        "--input", str(three_alert_feed),
        "--out", str(out_dir),
        "--output-format", "csv",
    )
    assert code == 0
    raw = (out_dir / "classifications.csv").read_bytes()
    assert raw.count(b"\r\n") == 4  # header + 3 records
    header = raw.split(b"\r\n")[0].decode()
    assert header.startswith("alert_ref,ts,src_ip")


def test_classify_rejects_bad_usage(capsys, tmp_path):
    code, _, _ = run(capsys, "classify", "--out", str(tmp_path))
    assert code == 2  # --input required
    code, _, _ = run(capsys, "klassify")
    assert code == 2


def test_fast_format_requires_year(capsys, tmp_path):
    feed = tmp_path / "alerts.fast"
    feed.write_text(
        "03/01-12:00:00.000000  [**] [1:1:1] x [**] {TCP} 10.0.0.5:1 -> 10.0.0.6:2\n"
    )
    code, _, err = run(
        capsys, "classify", "--input", str(feed), "--format", "fast", "--out", str(tmp_path / "o")
    )
    assert code == 2
    assert "assumed-year" in err or "assumed_year" in err

    # Auto-detection hits the same requirement once the first line is seen.
    code, _, err = run(
        capsys, "classify", "--input", str(feed), "--out", str(tmp_path / "o2")
    )
    assert code == 2
    assert "assumed_year" in err
    # A failed run never writes a manifest, even where --out already exists.
    assert not (tmp_path / "o" / "manifest.json").exists()
    assert not (tmp_path / "o2" / "manifest.json").exists()
    assert not (tmp_path / "o2").exists()


def test_fast_format_with_year_classifies(capsys, tmp_path):
    feed = tmp_path / "alerts.fast"
    feed.write_text(
        "03/01-12:00:00.000000  [**] [1:1:1] ET SCAN Nmap probe [**] "
        "[Classification: Detection of a Network Scan] [Priority: 3] "
        "{TCP} 10.0.0.5:1024 -> 10.0.0.6:80\n"
    )
    out_dir = tmp_path / "out"
    code, _, _ = run(
        capsys,
        "classify",
        "--input", str(feed),
        "--format", "fast",
        "--assumed-year", "2021",
        "--out", str(out_dir),
    )
    assert code == 0
    record = json.loads((out_dir / "classifications.ndjson").read_text().splitlines()[0])
    assert record["micro"] == "host_discovery"
    assert record["ts"].startswith("2021-03-01T12:00:00")


@pytest.mark.parametrize("year", ["0", "10000", "-5", "abc"])
def test_assumed_year_outside_datetimes_range_is_a_usage_error(capsys, tmp_path, year):
    # Such a year made every fast line malformed in a run that exited 0.
    feed = tmp_path / "alerts.fast"
    feed.write_text("03/01-12:00:00.000000  [**] [1:1:1] x [**] {TCP} 10.0.0.5:1 -> 10.0.0.6:2\n")
    code, _, err = run(
        capsys, "classify", "--input", str(feed), "--assumed-year", year, "--out", str(tmp_path / "o")
    )
    assert code == 2
    assert "1 to 9999" in err
    assert not (tmp_path / "o").exists()


def test_sequence_gap_split_and_macro_transitions(capsys, tmp_path, three_alert_feed):
    out_dir = tmp_path / "out"
    code, _, _ = run(
        capsys,
        "sequence",
        "--input", str(three_alert_feed),
        "--out", str(out_dir),
        "--gap-seconds", "120",
        "--transitions", "macro",
    )
    assert code == 0
    docs = [json.loads(l) for l in (out_dir / "sequences.ndjson").read_text().splitlines()]
    assert len(docs) == 1
    assert docs[0]["key"] == "10.0.0.5"
    assert docs[0]["gap_threshold"] == 120.0
    assert len(docs[0]["episodes"]) == 2
    assert [len(ep["steps"]) for ep in docs[0]["episodes"]] == [2, 1]

    matrix = (out_dir / "transitions_macro.csv").read_text().strip().splitlines()
    assert matrix[0] == "state,active_recon"
    assert matrix[1] == "active_recon,1"
    assert len(matrix) == 2

    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["gap_seconds"] == 120.0
    assert manifest["config"]["skew_seconds"] == 5.0
    assert manifest["config"]["key"] == "src"
    assert manifest["config"]["ngram_n"] == 2


def test_sequence_similarity_identical_attackers(capsys, tmp_path):
    lines = []
    for src in ("10.0.0.5", "10.0.0.9"):
        lines += [
            eve_alert(0, src=src, category="Detection of a Network Scan"),
            eve_alert(10, src=src, category="Attempted Information Leak"),
        ]
    lines.sort(key=lambda l: json.loads(l)["timestamp"])
    feed = tmp_path / "two.json"
    feed.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "out"
    code, _, _ = run(
        capsys,
        "sequence",
        "--input", str(feed),
        "--out", str(out_dir),
        "--similarity", "lcs",
    )
    assert code == 0
    rows = (out_dir / "similarity.csv").read_text().strip().splitlines()
    assert rows[0] == "key_a,key_b,method,score"
    key_a, key_b, method, score = rows[1].split(",")
    assert {key_a, key_b} == {"10.0.0.5", "10.0.0.9"}
    assert method == "lcs_ratio"
    assert float(score) == 1.0


def test_sequence_include_unclassified_flag(capsys, tmp_path):
    lines = [
        eve_alert(0),
        eve_alert(5, category="Made Up Category"),
        eve_alert(10, category="Attempted Information Leak"),
    ]
    feed = tmp_path / "feed.json"
    feed.write_text("\n".join(lines) + "\n")

    out_a = tmp_path / "a"
    run(capsys, "sequence", "--input", str(feed), "--out", str(out_a))
    doc = json.loads((out_a / "sequences.ndjson").read_text().splitlines()[0])
    micros = [s["micro"] for ep in doc["episodes"] for s in ep["steps"]]
    assert "unclassified" not in micros

    out_b = tmp_path / "b"
    run(
        capsys,
        "sequence",
        "--input", str(feed),
        "--out", str(out_b),
        "--include-unclassified",
    )
    doc = json.loads((out_b / "sequences.ndjson").read_text().splitlines()[0])
    micros = [s["micro"] for ep in doc["episodes"] for s in ep["steps"]]
    assert "unclassified" in micros


def test_sequence_csv_output(capsys, tmp_path, three_alert_feed):
    out_dir = tmp_path / "out"
    code, _, _ = run(
        capsys,
        "sequence",
        "--input", str(three_alert_feed),
        "--out", str(out_dir),
        "--gap-seconds", "120",
        "--output-format", "csv",
    )
    assert code == 0
    rows = (out_dir / "sequences.csv").read_text().strip().splitlines()
    assert rows[0] == "key,episode,start,end,step,ts,micro,macro,run_length,alert_ref"
    assert len(rows) == 4  # 3 collapsed steps (all distinct adjacent micros)


def test_sequence_out_of_order_exits_5(capsys, tmp_path):
    lines = [eve_alert(100), eve_alert(0)]
    feed = tmp_path / "feed.json"
    feed.write_text("\n".join(lines) + "\n")
    code, _, err = run(
        capsys, "sequence", "--input", str(feed), "--out", str(tmp_path / "o")
    )
    assert code == 5
    assert "skew" in err


@pytest.mark.parametrize("value", ["nan", "inf", "abc"])
@pytest.mark.parametrize("flag", ["--gap-seconds", "--skew-seconds"])
def test_sequence_rejects_non_finite_thresholds(capsys, tmp_path, flag, value):
    # NaN passed the "< 0" check, silently re-sorted any disorder and wrote
    # NaN or Infinity, which is not JSON, into the manifest.
    feed = tmp_path / "feed.json"
    feed.write_text("\n".join([eve_alert(5 * 3600), eve_alert(0)]) + "\n")
    code, _, err = run(capsys, "sequence", "--input", str(feed), "--out", str(tmp_path / "o"), flag, value)
    assert code == 2
    assert "finite" in err
    assert not (tmp_path / "o").exists()


def test_bare_sequence_parse_takes_the_library_defaults():
    args = build_parser().parse_args(["sequence", "--input", "in", "--out", "out"])
    assert (args.gap_seconds, args.skew_seconds) == (DEFAULT_GAP_SECONDS, DEFAULT_SKEW_SECONDS)


@pytest.mark.parametrize("value", ["0", "x"])
def test_ngram_n_below_one_or_not_a_number_is_a_usage_error(capsys, tmp_path, three_alert_feed, value):
    # A non-number made argparse name the private type function in its message.
    code, _, err = run(
        capsys, "sequence", "--input", str(three_alert_feed), "--out", str(tmp_path / "o"),
        "--ngram-n", value,
    )
    assert code == 2
    assert "must be >= 1" in err
    assert "invalid _" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("caller_gc", [True, False], ids=["gc_on", "gc_off"])
def test_main_runs_without_the_cyclic_gc_and_restores_the_callers_setting(
    capsys, tmp_path, three_alert_feed, monkeypatch, caller_gc
):
    bad_mapping = tmp_path / "bad.json"
    bad_mapping.write_text("{not json")
    unsorted = tmp_path / "unsorted.json"
    unsorted.write_text("\n".join([eve_alert(100), eve_alert(0)]) + "\n")
    runs = [
        (0, ["sequence", "--input", str(three_alert_feed), "--out", str(tmp_path / "o0")]),
        (2, ["klassify"]),
        (2, ["taxonomy", "show", "--macro", "nope"]),
        (3, ["sequence", "--input", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o3")]),
        (4, ["sequence", "--input", str(three_alert_feed), "--mapping", str(bad_mapping),
             "--out", str(tmp_path / "o4")]),
        (5, ["sequence", "--input", str(unsorted), "--out", str(tmp_path / "o5")]),
        (4, ["validate-mapping", "--mapping", str(bad_mapping)]),
    ]
    seen = []

    def recording_build_sequences(*args, **kwargs):
        seen.append(gc.isenabled())
        return build_sequences(*args, **kwargs)

    monkeypatch.setattr("aifseq.cli.build_sequences", recording_build_sequences)
    gc.disable()
    try:
        for expected, argv in runs:
            if caller_gc:
                gc.enable()
            assert run(capsys, *argv)[0] == expected
            assert gc.isenabled() is caller_gc
    finally:
        gc.enable()
    # The exit-0 and exit-5 runs reach build_sequences, with the GC off.
    assert seen == [False, False]


def test_outputs_are_deterministic(capsys, tmp_path, three_alert_feed):
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for out_dir in dirs:
        code, _, _ = run(
            capsys,
            "sequence",
            "--input", str(three_alert_feed),
            "--out", str(out_dir),
            "--gap-seconds", "120",
            "--transitions", "both",
            "--similarity", "ngram",
        )
        assert code == 0
    for name in ("sequences.ndjson", "transitions_micro.csv", "transitions_macro.csv", "similarity.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    manifests = [json.loads((d / "manifest.json").read_text()) for d in dirs]
    for manifest in manifests:
        manifest.pop("generated_at")
    assert manifests[0] == manifests[1]


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.startswith("aifseq ")


GOLDEN_SEQUENCE = ["sequence", "--transitions", "both", "--similarity", "lcs"]
TRANSITIONS_AND_LCS = {
    "transitions_micro.csv": "f25d6ca08b7c5c6fc580bde22203952e16fe0cf61367787a7184547ad4a90de4",
    "transitions_macro.csv": "9e4c4f2edca77927696c9d27e3babc61f4270348c025ba85394340aefb3a0c6f",
    "similarity.csv": "fb90d9f8884fdcaa699b8858c46de5c509781a8b7aae099bf79a0f7fb6589428",
}
COVERAGE = {"coverage.json": "ee510ab02063d68a5251001f0c8cec07dc58bbe22c0e9a8f6fb753bc69dbb8a8"}


@pytest.mark.parametrize(
    "argv, digests",
    [
        (
            ["classify"],
            {
                **COVERAGE,
                "classifications.ndjson":
                    "8d8df4809aa9dcc6269dbfb195ef2d3eb9464de7d827539ffb27706f935938f9",
            },
        ),
        (
            ["classify", "--output-format", "csv"],
            {
                **COVERAGE,
                "classifications.csv":
                    "ddc30b90197dd7fcee59daccdfbb02efe79bbdb39e9214f3924b8a143977dc82",
            },
        ),
        (
            GOLDEN_SEQUENCE,
            {
                **TRANSITIONS_AND_LCS,
                "sequences.ndjson":
                    "d881ece9a0abc3550ac06c367a114a825bcd9f8dae2d9d47d28ec77c2b48e579",
            },
        ),
        (
            [*GOLDEN_SEQUENCE, "--output-format", "csv"],
            {
                **TRANSITIONS_AND_LCS,
                "sequences.csv":
                    "d53cdd44790c3fc74f4aca6d02694fd6cfcc432cb856a581d3a3192fd9d8c88e",
            },
        ),
        (
            ["sequence", "--similarity", "ngram"],
            {
                "sequences.ndjson":
                    "d881ece9a0abc3550ac06c367a114a825bcd9f8dae2d9d47d28ec77c2b48e579",
                "similarity.csv":
                    "1e486f623297dae534f956233a35866c55b458d57e883c5fc2554a4f1e7454e9",
            },
        ),
        (
            ["sequence", "--transitions", "both", "--uncollapsed-transitions"],
            {
                "transitions_micro.csv":
                    "9d045611ae4d9ea9982e6240004196dfe317ffd9deb02786d9b49f7128e5ac54",
                "transitions_macro.csv":
                    "e4658cc3d481e945963b9a2bc21cc97e3858510d193edc3004957bd3f9acfb9d",
                "sequences.ndjson":
                    "d881ece9a0abc3550ac06c367a114a825bcd9f8dae2d9d47d28ec77c2b48e579",
            },
        ),
    ],
    ids=[
        "classify-json", "classify-csv", "sequence-json", "sequence-csv", "sequence-ngram",
        "sequence-uncollapsed",
    ],
)
def test_golden_output_bytes_are_pinned(capsys, tmp_path, argv, digests):
    code, _, _ = run(capsys, *argv, "--input", str(GOLDEN), "--out", str(tmp_path))
    assert code == 0
    written = {p.name for p in tmp_path.iterdir()} - {"manifest.json"}
    assert written == set(digests)
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["taxonomy-show", "classify"])
def test_a_closed_stdout_ends_the_run_quietly(tmp_path, command, unbuffered):
    # A reader that stops early, as in `aifseq taxonomy show | head -1`,
    # closes its end of the pipe. Closing it before the run starts makes
    # every write to stdout fail, not only the ones after the reader left.
    # Buffered, the error comes from the flush; unbuffered, from print.
    argv = ["taxonomy", "show"]
    if command == "classify":
        argv = ["classify", "--input", str(GOLDEN), "--out", str(tmp_path / "out")]
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "aifseq.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (0, b"")
    if command == "classify":
        written = {p.name for p in (tmp_path / "out").iterdir()}
        assert written == {"classifications.ndjson", "coverage.json", "manifest.json"}


def test_golden_fixture_regenerates_from_its_script(capsys, tmp_path, monkeypatch):
    # The pinned digests above rest on the checked-in fixture; the script
    # that wrote it must still write the same bytes.
    spec = importlib.util.spec_from_file_location(
        "generate_golden_scenario", REPO / "scripts" / "generate_golden_scenario.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "OUT", tmp_path / GOLDEN.name)
    script.main()
    assert "wrote 205 events" in capsys.readouterr().out
    assert (tmp_path / GOLDEN.name).read_bytes() == GOLDEN.read_bytes()


def test_traced_benchmark_run_drives_the_cli(tmp_path):
    # perfbench/spans.py replaces the layer functions aifseq.cli imports and
    # counts what build_sequences received; this fails if the CLI stops
    # calling one of them through its module globals or passes an iterator.
    spans = tmp_path / "spans.json"
    result = subprocess.run(
        [
            sys.executable, str(REPO / "perfbench" / "spans.py"), str(REPO / "src"), str(spans),
            *GOLDEN_SEQUENCE, "--input", str(GOLDEN), "--out", str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    header = json.loads(spans.read_text(encoding="utf-8"))
    assert header["exit_code"] == 0
    assert header["counters"]["sequence_alerts"] > 0


# The benchmark's similarity_lcs corpus at seed 1: 160 attackers with
# heavy-tailed lengths (collapsed sequences of 4 to 420 labels, so the LCS
# bit vectors span several 64-bit words) and 12,720 pairs. Digests derived
# with the O(n*m) table implementation.
SIMILARITY_CORPUS = corpus.CorpusSpec("eve", alerts=5_000, attackers=160)
SIMILARITY_DIGESTS = {
    "lcs": "d56a9d1513836e3b798c23c07af8fa795fa8a5518e5dfad366392b42b06e2492",
    "ngram": "e5dbbfab513338d02968a84915830fbdd0a583aebb3ace559055a719b1db4e3f",
}


@pytest.fixture(scope="module")
def similarity_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("similarity_corpus")
    path = root / "alerts.eve.json"
    corpus.generate(SIMILARITY_CORPUS, 1, path, root / "truth.json")
    return path


@pytest.mark.parametrize("method", sorted(SIMILARITY_DIGESTS))
def test_similarity_bytes_on_long_sequences_are_pinned(capsys, tmp_path, similarity_corpus, method):
    code, _, _ = run(
        capsys, "sequence", "--format", "eve", "--similarity", method,
        "--input", str(similarity_corpus), "--out", str(tmp_path),
    )
    assert code == 0
    digest = hashlib.sha256((tmp_path / "similarity.csv").read_bytes()).hexdigest()
    assert digest == SIMILARITY_DIGESTS[method]


def test_traced_run_makes_one_similarity_call_per_pair(tmp_path, similarity_corpus):
    # The per-pair figures of the similarity layer divide by the calls the
    # tracer sees; this fails if similarity stops going through
    # sequence_similarity once per pair.
    spans_path = tmp_path / "spans.json"
    result = subprocess.run(
        [
            sys.executable, str(REPO / "perfbench" / "spans.py"), str(REPO / "src"), str(spans_path),
            "sequence", "--format", "eve", "--similarity", "lcs",
            "--input", str(similarity_corpus), "--out", str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    summary = spans.summarize(spans_path)
    attackers = summary["counters"]["attackers"]
    assert attackers == SIMILARITY_CORPUS.attackers
    assert summary["calls"]["sequence.similarity"] == attackers * (attackers - 1) // 2


@pytest.fixture(scope="module")
def fast_sequence_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("fast_sequence_corpus")
    path = root / FAST_SEQUENCE.input_name
    corpus.generate(FAST_SEQUENCE.corpus, 1, path, root / "truth.json")
    return path


def test_fast_sequence_bytes_match_the_benchmark_digests(capsys, tmp_path, fast_sequence_corpus):
    # The benchmark's fast_sequence run at seed 1 (36,364 fast lines through
    # the fast parser, sequencing, transitions and the CSV export), checked
    # against the digests the benchmark itself records.
    code, _, _ = run(
        capsys, *FAST_SEQUENCE.args, "--input", str(fast_sequence_corpus), "--out", str(tmp_path)
    )
    assert code == 0
    recorded = json.loads((REPO / "perfbench" / "digests.json").read_text(encoding="utf-8"))
    for name in FAST_SEQUENCE.outputs:
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == recorded["fast_sequence"][name], name


@given(row=st.lists(
    st.one_of(st.text(',"\r\n aZ', max_size=8), st.none(), st.integers(), st.floats()),
    min_size=2,
    max_size=6,
))
@example(row=["", None])
@example(row=['a,"b"', "\r\n", " ", 1.5])
def test_csv_field_matches_csv_writer(row):
    expected = io.StringIO()
    csv.writer(expected).writerow(row)
    assert ",".join(map(_csv_field, row)) + "\r\n" == expected.getvalue()


def former_sequence_csv_rows(sequences):
    """The rows the CLI fed to csv.writer before it wrote sequences.csv as text."""
    yield ["key", "episode", "start", "end", "step", *STEP_COLUMNS]
    for seq in sequences:
        key = seq.key.label()
        for ep_index, episode in enumerate(seq.episodes):
            start, end = episode.start.isoformat(), episode.end.isoformat()
            for step_index, row in enumerate(episode_step_rows(episode)):
                yield (key, ep_index, start, end, step_index, *row)


def former_similarity_rows(sequences, method, n):
    """The rows the CLI fed to csv.writer before it wrote similarity.csv as text."""
    yield ["key_a", "key_b", "method", "score"]
    labels = [seq.key.label() for seq in sequences]
    for i, left in enumerate(sequences):
        for right, right_label in zip(sequences[i + 1 :], labels[i + 1 :]):
            score = sequence_similarity(left, right, method, n=n)
            yield [labels[i], right_label, method, f"{score:.6f}"]


@pytest.mark.parametrize("key", ["src", "src-dst"])
def test_text_writers_match_csv_writer_when_every_ref_needs_quoting(capsys, tmp_path, key):
    # Every alert_ref starts with the input's file name, so a comma and a
    # double quote in it make csv.writer quote every alert_ref field.
    source = tmp_path / 'al,"x".eve.json'
    source.write_bytes(GOLDEN.read_bytes())
    out = tmp_path / "out"
    code, _, _ = run(
        capsys, "sequence", "--output-format", "csv", "--similarity", "lcs", "--key", key,
        "--input", str(source), "--out", str(out),
    )
    assert code == 0
    tax = builtin_taxonomy()
    alerts, _ = read_alert_stream(source)
    classified = classify_stream(alerts, load_mapping(starter_mapping_document(), tax), tax)
    sequences = build_sequences(list(classified), key_config=key.replace("-", "_"))
    for name, rows in [
        ("sequences.csv", former_sequence_csv_rows(sequences)),
        ("similarity.csv", former_similarity_rows(sequences, "lcs_ratio", 2)),
    ]:
        expected = io.StringIO()
        csv.writer(expected).writerows(rows)
        assert (out / name).read_bytes() == expected.getvalue().encode("utf-8"), name
    assert b',"al,""x"".eve.json:1"\r\n' in (out / "sequences.csv").read_bytes()


def test_row_writer_matches_csv_writer_on_classifications_and_transitions(capsys, tmp_path):
    # The file name quotes every alert_ref; the appended alert's message and
    # category hold a comma, a double quote, CR and LF.
    source = tmp_path / 'al,"x".eve.json'
    odd = {
        "timestamp": "2021-03-01T09:00:00+00:00", "event_type": "alert",
        "src_ip": "10.0.0.5", "src_port": 1, "dest_ip": "192.168.1.22", "dest_port": 2,
        "proto": "TCP",
        "alert": {"gid": 1, "signature_id": 1, "rev": 1, "signature": 'a,"b"\r\nc',
                  "category": "x,y", "severity": 2},
    }
    source.write_bytes(GOLDEN.read_bytes() + json.dumps(odd).encode() + b"\n")
    out = tmp_path / "out"
    for command, extra in [("classify", ()), ("sequence", ("--transitions", "both"))]:
        code, _, _ = run(
            capsys, command, "--output-format", "csv", *extra,
            "--input", str(source), "--out", str(out),
        )
        assert code == 0
    tax = builtin_taxonomy()
    alerts, _ = read_alert_stream(source)
    classified = list(classify_stream(alerts, load_mapping(starter_mapping_document(), tax), tax))
    sequences = build_sequences(classified)
    for name, rows in [
        ("classifications.csv",
         [_CLASSIFICATION_COLUMNS, *(_classification_row(a, v) for a, v in classified)]),
        ("transitions_micro.csv", transition_matrix(sequences, "micro").to_rows()),
        ("transitions_macro.csv", transition_matrix(sequences, "macro").to_rows()),
    ]:
        expected = io.StringIO()
        csv.writer(expected).writerows(rows)
        assert (out / name).read_bytes() == expected.getvalue().encode("utf-8"), name
    assert b'"a,""b""\r\nc","x,y"' in (out / "classifications.csv").read_bytes()
