"""Tests for the benchmark's corpus generator and its ground truth.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import corpus  # noqa: E402
from aifseq.classify import classify_alert, load_mapping, starter_mapping_document  # noqa: E402
from aifseq.ingest import EVE_FORMAT, SNORT_FAST_FORMAT, read_alert_stream  # noqa: E402
from aifseq.sequence import build_sequences  # noqa: E402
from aifseq.taxonomy import builtin_taxonomy  # noqa: E402

SMALL = {
    "eve": corpus.CorpusSpec("eve", alerts=1_500, attackers=40),
    "fast": corpus.CorpusSpec("fast", alerts=1_500, attackers=40),
}


def _generate(tmp_path: Path, fmt: str, seed: int, tag: str = "") -> tuple[Path, Path, dict]:
    input_path = tmp_path / f"{fmt}{seed}{tag}.in"
    truth_path = tmp_path / f"{fmt}{seed}{tag}.truth.json"
    truth = corpus.generate(SMALL[fmt], seed, input_path, truth_path)
    return input_path, truth_path, truth


@pytest.mark.parametrize("fmt", sorted(SMALL))
def test_same_seed_gives_identical_bytes(tmp_path, fmt):
    first = _generate(tmp_path, fmt, 7, "a")
    second = _generate(tmp_path, fmt, 7, "b")
    assert first[0].read_bytes() == second[0].read_bytes()
    assert first[1].read_bytes() == second[1].read_bytes()


@pytest.mark.parametrize("fmt", sorted(SMALL))
def test_different_seed_gives_different_bytes_but_the_same_work(tmp_path, fmt):
    _, _, truth_a = _generate(tmp_path, fmt, 7)
    input_b, _, truth_b = _generate(tmp_path, fmt, 8)
    assert (tmp_path / f"{fmt}7.in").read_bytes() != input_b.read_bytes()
    for key in ("counts", "attackers", "episodes", "collapsed_steps"):
        assert truth_a[key] == truth_b[key]


def test_zipf_sizes_are_heavy_tailed_and_exact():
    sizes = corpus.zipf_sizes(10_000, 100, 1.0)
    assert sum(sizes) == 10_000
    assert sizes == sorted(sizes, reverse=True)
    assert min(sizes) >= 2 and sizes[0] > 10 * sizes[-1]


def test_catalog_agrees_with_the_starter_mapping():
    taxonomy = builtin_taxonomy()
    spec = load_mapping(starter_mapping_document(), taxonomy)
    assert {sig[6] for sig in corpus.CATALOG} - {None} == set(spec.rule_ids())
    assert any(sig[5] == corpus.UNCLASSIFIED for sig in corpus.CATALOG)
    assert {sig[4] for sig in corpus.CATALOG} >= {"TCP", "UDP", "ICMP"}


@pytest.mark.parametrize("fmt", sorted(SMALL))
def test_ground_truth_matches_the_package(tmp_path, fmt):
    input_path, _, truth = _generate(tmp_path, fmt, 3)
    taxonomy = builtin_taxonomy()
    spec = load_mapping(starter_mapping_document(), taxonomy)
    wire = EVE_FORMAT if fmt == "eve" else SNORT_FAST_FORMAT
    alerts, stats = read_alert_stream(input_path, wire, corpus.ASSUMED_YEAR)
    pairs = [(alert, classify_alert(alert, spec, taxonomy)) for alert in alerts]

    counts = stats.to_dict()
    assert {k: counts[k] for k in truth["counts"]} == truth["counts"]
    assert truth["counts"]["malformed"] > 0
    assert (truth["counts"]["non_alert_skipped"] > 0) == (fmt == "eve")
    got = [[a.raw_ref.index, v.micro, v.matched_rule, a.timestamp.isoformat(), a.src_ip] for a, v in pairs]
    want = [[line, micro, rule, corpus.utc_iso(ts), src] for line, micro, rule, ts, src in truth["alerts"]]
    assert got == want
    assert any(":" in a.src_ip for a, _ in pairs)
    assert any(a.src_port is None for a, _ in pairs)

    sequences = build_sequences(pairs, gap_threshold=corpus.GAP_SECONDS, skew_seconds=corpus.SKEW_SECONDS)
    oracle = corpus.sequence_oracle(truth["alerts"])
    assert [seq.key.label() for seq in sequences] == list(oracle)
    assert [seq.collapsed_episode_labels() for seq in sequences] == list(oracle.values())
    assert len(sequences) == truth["attackers"]
    assert sum(len(seq.episodes) for seq in sequences) == truth["episodes"]


def test_some_alerts_are_displaced_within_the_skew_window(tmp_path):
    _, _, truth = _generate(tmp_path, "eve", 5)
    stamps = [row[3] for row in truth["alerts"]]
    behind = [prev - cur for prev, cur in zip(stamps, stamps[1:]) if cur < prev]
    assert behind and max(behind) < corpus.SKEW_SECONDS * 10**6


def test_every_starter_rule_is_hit_at_benchmark_size(tmp_path):
    spec = replace(SMALL["eve"], alerts=5_000, attackers=160)
    truth = corpus.generate(spec, 1, tmp_path / "in", tmp_path / "truth.json")
    rules = load_mapping(starter_mapping_document(), builtin_taxonomy()).rule_ids()
    assert set(truth["rule_hits"]) == set(rules)
    assert truth["unclassified"] > 0
