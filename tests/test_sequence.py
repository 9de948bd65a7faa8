"""Tests for episode building, collapsing, transitions, and similarity."""

from __future__ import annotations

import random
from datetime import datetime, timedelta, timezone
from itertools import groupby
from operator import attrgetter

import pytest

from aifseq.classify import Classification
from aifseq.ingest import NormalizedAlert, RawRef
from aifseq.sequence import (
    AisSequence,
    AttackerKey,
    Episode,
    OutOfOrderError,
    SequenceStep,
    build_sequences,
    collapse_repeats,
    extract_ngrams,
    sequence_similarity,
    sequence_to_document,
    transition_matrix,
)
from aifseq.taxonomy import builtin_taxonomy

TAX = builtin_taxonomy()
BASE = datetime(2021, 3, 1, 12, 0, 0, tzinfo=timezone.utc)

_counter = iter(range(1, 10_000_000))


def at(seconds: float) -> datetime:
    return BASE + timedelta(seconds=seconds)


def pair(seconds, micro="host_discovery", src="10.0.0.5", dst="192.168.1.20"):
    index = next(_counter)
    alert = NormalizedAlert(
        timestamp=at(seconds),
        src_ip=src,
        src_port=40000,
        dst_ip=dst,
        dst_port=80,
        protocol="TCP",
        generator_id=1,
        signature_id=1000000 + index,
        revision=1,
        signature_msg="sig",
        category=None,
        severity=2,
        source_format="eve",
        raw_ref=RawRef("test", index),
    )
    verdict = Classification(
        micro=micro,
        macro=TAX.macro_of(micro),
        matched_rule=None if micro == "unclassified" else "r",
        confidence=0.9,
        alert_ref=alert.raw_ref,
    )
    return alert, verdict


def seq_of(*episode_labels: list[str], key_value=("10.0.0.5",)) -> AisSequence:
    key = AttackerKey(key_fields=("src_ip",), value=key_value)
    episodes = []
    tick = 0
    for labels in episode_labels:
        steps = []
        for label in labels:
            steps.append(SequenceStep(at(tick), label, TAX.macro_of(label), RawRef("t", tick)))
            tick += 1
        episodes.append(Episode(key=key, steps=tuple(steps)))
        tick += 10_000
    return AisSequence(key=key, episodes=tuple(episodes), gap_threshold=600.0)


def test_gap_splits_episodes():
    seqs = build_sequences([pair(0), pair(10), pair(300)], gap_threshold=120)
    assert len(seqs) == 1
    eps = seqs[0].episodes
    assert [len(ep.steps) for ep in eps] == [2, 1]
    assert (eps[0].start, eps[0].end) == (at(0), at(10))
    assert (eps[1].start, eps[1].end) == (at(300), at(300))


def test_gap_boundary_is_strictly_greater():
    seqs = build_sequences([pair(0), pair(120)], gap_threshold=120)
    assert len(seqs[0].episodes) == 1
    seqs = build_sequences([pair(0), pair(120.001)], gap_threshold=120)
    assert len(seqs[0].episodes) == 2


def test_interleaved_attackers_get_separate_sequences():
    stream = [
        pair(0, src="10.0.0.5"),
        pair(1, src="10.0.0.9"),
        pair(2, src="10.0.0.5"),
        pair(3, src="10.0.0.9"),
    ]
    seqs = build_sequences(stream, gap_threshold=600)
    assert [s.key.value for s in seqs] == [("10.0.0.5",), ("10.0.0.9",)]
    for seq, expected in zip(seqs, [[at(0), at(2)], [at(1), at(3)]]):
        steps = [st.ts for ep in seq.episodes for st in ep.steps]
        assert steps == expected


def test_src_dst_key_config():
    stream = [
        pair(0, dst="192.168.1.20"),
        pair(1, dst="192.168.1.30"),
        pair(2, dst="192.168.1.20"),
    ]
    seqs = build_sequences(stream, key_config="src_dst")
    assert [s.key.value for s in seqs] == [
        ("10.0.0.5", "192.168.1.20"),
        ("10.0.0.5", "192.168.1.30"),
    ]
    assert seqs[0].key.key_fields == ("src_ip", "dst_ip")
    assert seqs[0].key.label() == "10.0.0.5->192.168.1.20"
    assert seqs[0].step_count() == 2


def test_unclassified_dropped_by_default():
    stream = [pair(0), pair(5, micro="unclassified"), pair(10, micro="service_discovery")]
    seqs = build_sequences(stream)
    labels = [st.micro for ep in seqs[0].episodes for st in ep.steps]
    assert labels == ["host_discovery", "service_discovery"]


def test_unclassified_kept_with_flag_and_stream_reconstructs():
    stream = [pair(0), pair(5, micro="unclassified"), pair(10, micro="service_discovery")]
    seqs = build_sequences(stream, include_unclassified=True)
    steps = [st for ep in seqs[0].episodes for st in ep.steps]
    assert [st.micro for st in steps] == ["host_discovery", "unclassified", "service_discovery"]
    assert [st.alert_ref for st in steps] == [a.raw_ref for a, _ in stream]


def test_unclassified_dropped_before_segmentation():
    # The sentinel in the middle bridges what would otherwise be one gap.
    stream = [pair(0), pair(500, micro="unclassified"), pair(1000)]
    seqs = build_sequences(stream, gap_threshold=600)
    assert len(seqs[0].episodes) == 2
    kept = build_sequences(stream, gap_threshold=600, include_unclassified=True)
    assert len(kept[0].episodes) == 1


def test_small_skew_is_resorted():
    stream = [pair(0), pair(10), pair(8), pair(20)]
    seqs = build_sequences(stream, skew_seconds=5)
    times = [st.ts for ep in seqs[0].episodes for st in ep.steps]
    assert times == [at(0), at(8), at(10), at(20)]


def test_skew_beyond_window_raises():
    stream = [pair(0), pair(60), pair(10)]
    with pytest.raises(OutOfOrderError, match="skew"):
        build_sequences(stream, skew_seconds=5)


def test_equal_timestamps_keep_arrival_order():
    a = pair(0, micro="host_discovery")
    b = pair(0, micro="service_discovery")
    seqs = build_sequences([a, b])
    assert [st.micro for st in seqs[0].episodes[0].steps] == [
        "host_discovery",
        "service_discovery",
    ]


def test_bad_config_rejected():
    with pytest.raises(ValueError, match="key_config"):
        build_sequences([], key_config="dst")
    with pytest.raises(ValueError, match="gap_threshold"):
        build_sequences([], gap_threshold=-1)
    with pytest.raises(ValueError, match="skew"):
        build_sequences([], skew_seconds=-1)


def test_empty_stream_yields_no_sequences():
    assert build_sequences([]) == []


def test_collapse_repeats_examples():
    assert collapse_repeats(["host_discovery", "host_discovery", "service_discovery"]) == [
        ("host_discovery", 2),
        ("service_discovery", 1),
    ]
    assert collapse_repeats([]) == []
    assert collapse_repeats(["a", "b", "a"]) == [("a", 1), ("b", 1), ("a", 1)]


def test_collapse_repeats_idempotent_and_merges_pairs():
    once = collapse_repeats(["a", "a", "b", "b", "b", "a"])
    assert once == [("a", 2), ("b", 3), ("a", 1)]
    assert collapse_repeats(once) == once
    assert collapse_repeats([("a", 2), ("a", 3), ("b", 1)]) == [("a", 5), ("b", 1)]


def test_collapse_repeats_rejects_bad_run_length():
    with pytest.raises(ValueError, match="run length"):
        collapse_repeats([("a", 0)])


def test_transition_macro_projection_after_micro_collapse():
    # Identical micros collapse away; no macro self-loop from a repeat.
    seq = seq_of(["host_discovery", "host_discovery", "root_privilege_escalation"])
    matrix = transition_matrix([seq], "macro")
    assert matrix.states == ("active_recon", "privilege_escalation")
    assert matrix.count_of("active_recon", "privilege_escalation") == 1
    assert matrix.total() == 1


def test_transition_macro_self_loop_from_distinct_micros():
    seq = seq_of(["host_discovery", "service_discovery"])
    matrix = transition_matrix([seq], "macro")
    assert matrix.states == ("active_recon",)
    assert matrix.count_of("active_recon", "active_recon") == 1


def test_transitions_never_cross_episodes():
    seq = seq_of(["host_discovery", "service_discovery"], ["service_discovery", "surfing"])
    matrix = transition_matrix([seq], "micro")
    assert matrix.count_of("host_discovery", "service_discovery") == 1
    assert matrix.count_of("service_discovery", "surfing") == 1
    assert matrix.count_of("service_discovery", "service_discovery") == 0
    assert matrix.total() == 2


def test_transition_empty_input():
    matrix = transition_matrix([], "micro")
    assert matrix.states == ()
    assert matrix.counts == ()
    assert matrix.total() == 0
    assert matrix.to_rows() == [["state"]]


def test_transition_uncollapsed_mode():
    seq = seq_of(["host_discovery", "host_discovery", "host_discovery"])
    collapsed = transition_matrix([seq], "micro")
    assert collapsed.total() == 0
    raw = transition_matrix([seq], "micro", collapsed=False)
    assert raw.count_of("host_discovery", "host_discovery") == 2


def test_transition_totals_match_collapsed_lengths():
    seq = seq_of(
        ["host_discovery", "host_discovery", "service_discovery"],
        ["surfing"],
        ["host_discovery", "service_discovery", "host_discovery"],
    )
    matrix = transition_matrix([seq], "micro")
    expected = sum(len(labels) - 1 for labels in seq.collapsed_episode_labels())
    assert matrix.total() == expected == 3


def test_row_probabilities():
    seq = seq_of(
        ["host_discovery", "service_discovery"],
        ["host_discovery", "surfing"],
        ["surfing"],
    )
    matrix = transition_matrix([seq], "micro")
    probs = dict(zip(matrix.states, matrix.row_probabilities))
    assert probs["host_discovery"] == [0.0, 0.5, 0.5]
    assert probs["service_discovery"] == []
    assert probs["surfing"] == []
    for row in matrix.row_probabilities:
        if row:
            assert abs(sum(row) - 1.0) < 1e-9


def test_transition_states_sorted_and_rows_align():
    seq = seq_of(["surfing", "host_discovery", "service_discovery"])
    matrix = transition_matrix([seq], "micro")
    assert list(matrix.states) == sorted(matrix.states)
    rows = matrix.to_rows()
    assert rows[0] == ["state", *matrix.states]
    assert rows[1][0] == matrix.states[0]


def test_extract_ngrams_examples():
    assert extract_ngrams(["a", "b", "c"], 2) == {("a", "b"): 1, ("b", "c"): 1}
    assert extract_ngrams(["a", "b"], 3) == {}
    assert extract_ngrams(["a", "a", "a"], 2) == {("a", "a"): 2}
    assert extract_ngrams([], 1) == {}
    assert sum(extract_ngrams(list("abcde"), 2).values()) == 4


@pytest.mark.parametrize("n", [0, -1, 1.5, "2"])
def test_extract_ngrams_rejects_bad_n(n):
    with pytest.raises(ValueError):
        extract_ngrams(["a"], n)


A, B, C, D = "host_discovery", "service_discovery", "vulnerability_discovery", "information_discovery"


def test_similarity_self_is_one():
    seq = seq_of([A, B, C], [B, D])
    assert sequence_similarity(seq, seq, "lcs_ratio") == 1.0
    assert sequence_similarity(seq, seq, "ngram_jaccard", n=2) == 1.0


def test_similarity_disjoint_is_zero():
    x = seq_of([A, B])
    y = seq_of([C, D], key_value=("10.0.0.9",))
    assert sequence_similarity(x, y, "lcs_ratio") == 0.0
    assert sequence_similarity(x, y, "ngram_jaccard", n=2) == 0.0


def test_ngram_jaccard_quarter_example():
    x = seq_of([A, B, C, D])
    y = seq_of([A, B, D], key_value=("10.0.0.9",))
    assert sequence_similarity(x, y, "ngram_jaccard", n=2) == 0.25


def test_lcs_ratio_value():
    x = seq_of([A, B, C, D])
    y = seq_of([A, B, D], key_value=("10.0.0.9",))
    assert sequence_similarity(x, y, "lcs_ratio") == 0.75


def test_similarity_empty_conventions():
    empty = seq_of()
    other = seq_of([A])
    assert sequence_similarity(empty, empty, "lcs_ratio") == 1.0
    assert sequence_similarity(empty, empty, "ngram_jaccard") == 1.0
    assert sequence_similarity(empty, other, "lcs_ratio") == 0.0
    assert sequence_similarity(other, empty, "ngram_jaccard") == 0.0


def test_ngram_jaccard_when_no_window_fits():
    # Single-step episodes yield no bigrams at all.
    x = seq_of([A])
    y = seq_of([A], key_value=("10.0.0.9",))
    z = seq_of([B], key_value=("10.0.0.7",))
    assert sequence_similarity(x, y, "ngram_jaccard", n=2) == 1.0
    assert sequence_similarity(x, z, "ngram_jaccard", n=2) == 0.0


def test_ngram_windows_do_not_span_episodes():
    x = seq_of([A, B], [C, D])
    y = seq_of([B, C], key_value=("10.0.0.9",))
    assert sequence_similarity(x, y, "ngram_jaccard", n=2) == 0.0


def test_similarity_uses_collapsed_lists():
    x = seq_of([A, A, A, B])
    y = seq_of([A, B], key_value=("10.0.0.9",))
    assert sequence_similarity(x, y, "lcs_ratio") == 1.0
    assert sequence_similarity(x, y, "ngram_jaccard", n=2) == 1.0


def test_similarity_unknown_method():
    seq = seq_of([A])
    with pytest.raises(ValueError, match="unknown method"):
        sequence_similarity(seq, seq, "cosine")


def test_similarity_symmetric_random():
    rng = random.Random(99)
    labels = [A, B, C]
    for _ in range(50):
        x = seq_of([rng.choice(labels) for _ in range(rng.randint(0, 6))])
        y = seq_of(
            [rng.choice(labels) for _ in range(rng.randint(0, 6))], key_value=("10.0.0.9",)
        )
        for method in ("lcs_ratio", "ngram_jaccard"):
            xy = sequence_similarity(x, y, method)
            yx = sequence_similarity(y, x, method)
            assert xy == yx
            assert 0.0 <= xy <= 1.0


def oracle_split(times, gap):
    if not times:
        return []
    breaks = [
        i for i in range(1, len(times)) if (times[i] - times[i - 1]).total_seconds() > gap
    ]
    bounds = [0, *breaks, len(times)]
    return [times[a:b] for a, b in zip(bounds, bounds[1:])]


def test_segmentation_matches_brute_force_splitter():
    rng = random.Random(20240813)
    for _ in range(100):
        count = rng.randint(0, 30)
        offsets = sorted(rng.uniform(0, 5000) for _ in range(count))
        gap = rng.choice([60, 300, 600])
        stream = [pair(offset) for offset in offsets]
        seqs = build_sequences(stream, gap_threshold=gap)
        got = [
            [st.ts for st in ep.steps] for seq in seqs for ep in seq.episodes
        ]
        expected = oracle_split([at(o) for o in offsets], gap)
        assert got == expected
        for seq in seqs:
            for ep in seq.episodes:
                deltas = [
                    (b.ts - a.ts).total_seconds() for a, b in zip(ep.steps, ep.steps[1:])
                ]
                assert all(d <= gap for d in deltas)
            for prev, nxt in zip(seq.episodes, seq.episodes[1:]):
                assert (nxt.start - prev.end).total_seconds() > gap


def interleaved_stream(rng, skew):
    """Several attackers and destinations on a coarse time grid, so ties are
    common; each record arrives up to ``skew`` seconds behind its nominal
    time, and about a fifth of the verdicts are unclassified."""
    sources = [f"10.0.0.{i}" for i in range(rng.randint(2, 5))]
    destinations = ["192.168.1.20", "192.168.1.21", "192.168.1.22"]
    micros = [A, B, C, "unclassified"]
    nominal = 0
    stream = []
    for _ in range(rng.randint(0, 80)):
        nominal += rng.choice([0, 0, 1, 2, 5, 40])
        micro = "unclassified" if rng.random() < 0.2 else rng.choice(micros[:3])
        stream.append(
            pair(
                nominal - rng.randint(0, skew),
                micro=micro,
                src=rng.choice(sources),
                dst=rng.choice(destinations),
            )
        )
    return stream


def oracle_sequences(stream, key_config, gap, include_unclassified):
    """Brute force: filter, stable global sort, group, then split on gaps."""
    kept = [
        (alert, verdict)
        for alert, verdict in stream
        if include_unclassified or verdict.micro != "unclassified"
    ]
    kept = sorted(kept, key=lambda p: p[0].timestamp)
    groups = {}
    for alert, verdict in kept:
        value = (alert.src_ip,) if key_config == "src" else (alert.src_ip, alert.dst_ip)
        step = (alert.timestamp, verdict.micro, verdict.macro, alert.raw_ref)
        groups.setdefault(value, []).append(step)
    result = []
    for value in sorted(groups):
        bounds = oracle_split([step[0] for step in groups[value]], gap)
        episodes, start = [], 0
        for chunk in bounds:
            episodes.append(groups[value][start : start + len(chunk)])
            start += len(chunk)
        result.append((value, episodes))
    return result


def test_interleaved_attackers_match_brute_force_oracle():
    rng = random.Random(20261018)
    for _ in range(60):
        skew = rng.choice([0, 3, 5])
        stream = interleaved_stream(rng, skew)
        gap = rng.choice([1, 4, 30])
        for key_config in ("src", "src_dst"):
            for include_unclassified in (False, True):
                seqs = build_sequences(
                    stream,
                    key_config,
                    gap,
                    include_unclassified=include_unclassified,
                    skew_seconds=skew,
                )
                got = [
                    (
                        seq.key.value,
                        [
                            [(st.ts, st.micro, st.macro, st.alert_ref) for st in ep.steps]
                            for ep in seq.episodes
                        ],
                    )
                    for seq in seqs
                ]
                assert got == oracle_sequences(stream, key_config, gap, include_unclassified)
                for seq in seqs:
                    for ep in seq.episodes:
                        expected_runs = []
                        for _, group in groupby(ep.steps, key=attrgetter("micro")):
                            run = list(group)
                            expected_runs.append((run[0], len(run)))
                        assert list(ep.collapsed_runs) == expected_runs
                        assert isinstance(ep.collapsed_runs, tuple)
                        assert ep.collapsed_runs is ep.collapsed_runs


def test_sequence_export_shape():
    stream = [pair(0), pair(1), pair(5, micro="service_discovery"), pair(1000)]
    seq = build_sequences(stream, gap_threshold=600)[0]
    doc = sequence_to_document(seq)
    assert doc["key"] == "10.0.0.5"
    assert doc["key_fields"] == ["src_ip"]
    assert doc["gap_threshold"] == 600.0
    assert len(doc["episodes"]) == 2
    first = doc["episodes"][0]
    assert first["start"] == at(0).isoformat()
    assert first["end"] == at(5).isoformat()
    assert first["steps"][0]["micro"] == "host_discovery"
    assert first["steps"][0]["macro"] == "active_recon"
    assert first["steps"][0]["run_length"] == 2
    assert first["steps"][1]["run_length"] == 1
    ref = first["steps"][0]["alert_ref"]
    assert ref.startswith("test:")
