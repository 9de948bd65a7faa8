"""Tests for episode building, collapsing, transitions, and similarity."""

from __future__ import annotations

import gc
import random
import tracemalloc
from datetime import datetime, timedelta, timezone
from itertools import combinations_with_replacement, groupby, product
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aifseq.classify import Classification
from aifseq.ingest import NormalizedAlert, RawRef, Signature, read_alert_stream
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
        signature=Signature("TCP", 1, 1000000 + index, 1, "sig", None, 2),
        source_format="eve",
        raw_ref=RawRef("test", index),
    )
    verdict = Classification(
        micro=micro,
        macro=TAX.macro_of(micro),
        matched_rule=None if micro == "unclassified" else "r",
        confidence=0.9,
    )
    return alert, verdict


def seq_of(*episode_labels: list[str], key_value=("10.0.0.5",)) -> AisSequence:
    key = AttackerKey(key_fields=("src_ip",), value=key_value)
    episodes = []
    tick = 0
    for labels in episode_labels:
        steps = []
        for label in labels:
            verdict = Classification(label, TAX.macro_of(label), "r", 0.9)
            steps.append(SequenceStep(at(tick), verdict, RawRef("t", tick)))
            tick += 1
        episodes.append(Episode(steps=tuple(steps)))
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
    labels = [st.verdict.micro for ep in seqs[0].episodes for st in ep.steps]
    assert labels == ["host_discovery", "service_discovery"]


def test_unclassified_kept_with_flag_and_stream_reconstructs():
    stream = [pair(0), pair(5, micro="unclassified"), pair(10, micro="service_discovery")]
    seqs = build_sequences(stream, include_unclassified=True)
    steps = [st for ep in seqs[0].episodes for st in ep.steps]
    assert [st.verdict.micro for st in steps] == ["host_discovery", "unclassified", "service_discovery"]
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
    assert [st.verdict.micro for st in seqs[0].episodes[0].steps] == [
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
    # Every comparison with NaN is false, so a "< 0" check lets it through.
    with pytest.raises(ValueError, match="gap_threshold"):
        build_sequences([pair(0)], gap_threshold=float("nan"))
    with pytest.raises(ValueError, match="skew"):
        build_sequences([pair(0)], skew_seconds=float("nan"))


def test_infinite_thresholds_keep_their_meaning():
    stream = [pair(0), pair(5 * 3600), pair(10)]
    seqs = build_sequences(stream, gap_threshold=float("inf"), skew_seconds=float("inf"))
    assert [[st.ts for st in ep.steps] for ep in seqs[0].episodes] == [[at(0), at(10), at(5 * 3600)]]


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


@pytest.mark.parametrize(
    "method, n, message",
    [("cosine", 2, "unknown method"), ("ngram_jaccard", -3, "n must be"), ("ngram_jaccard", True, "n must be")],
)
def test_similarity_checks_arguments_before_the_empty_shortcut(method, n, message):
    empty = seq_of()
    for x, y in [(empty, empty), (empty, seq_of([A]))]:
        with pytest.raises(ValueError, match=message):
            sequence_similarity(x, y, method, n=n)


def test_ngram_jaccard_matches_set_oracle_on_every_small_sequence():
    # Every sequence of 0-2 episodes, each of 1-3 labels over {A, B}: this
    # covers empty sequences, ones shorter than n and gram-less multi-episode
    # ones, for each window size and in both argument orders.
    episodes = [list(labels) for size in (1, 2, 3) for labels in product((A, B), repeat=size)]
    shapes = [[], *([ep] for ep in episodes), *([e1, e2] for e1 in episodes for e2 in episodes)]
    sequences = [seq_of(*shape) for shape in shapes]
    collapsed = [[[label for label, _ in groupby(ep)] for ep in shape] for shape in shapes]
    flat = [[label for ep in eps for label in ep] for eps in collapsed]
    for n in (1, 2, 3):
        grams = [
            {tuple(ep[i : i + n]) for ep in eps for i in range(len(ep) - n + 1)} for eps in collapsed
        ]
        for i, j in combinations_with_replacement(range(len(shapes)), 2):
            union = grams[i] | grams[j]
            if union:
                expected = len(grams[i] & grams[j]) / len(union)
            else:
                expected = 1.0 if flat[i] == flat[j] else 0.0
            x, y = sequences[i], sequences[j]
            assert sequence_similarity(x, y, "ngram_jaccard", n=n) == expected, (shapes[i], shapes[j], n)
            assert sequence_similarity(y, x, "ngram_jaccard", n=n) == expected, (shapes[j], shapes[i], n)


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


def lcs_table(x, y):
    """Plain O(n*m) dynamic-programming LCS length, the oracle for the kernel."""
    previous = [0] * (len(y) + 1)
    for xi in x:
        current = [0]
        for j, yj in enumerate(y, start=1):
            if xi == yj:
                current.append(previous[j - 1] + 1)
            else:
                current.append(max(previous[j], current[j - 1]))
        previous = current
    return previous[-1]


# Collapsed lengths straddle the 64-, 128- and 256-bit word edges of the
# bit-parallel kernel's big-int vectors.
COLLAPSED_LENGTHS = st.one_of(
    st.integers(0, 300), st.sampled_from((63, 64, 65, 127, 128, 129, 255, 256, 257))
)


@st.composite
def collapsed_sequence(draw, alphabet, key_value):
    """A sequence whose flattened collapsed labels are drawn directly.

    Adjacent labels differ inside an episode, so ``labels`` is exactly the
    flattened collapsed list; each label becomes a run of 1-3 steps, and
    equal neighbours may only sit across an episode boundary.
    """
    length = draw(COLLAPSED_LENGTHS)
    k = len(alphabet)
    if k == 1:
        cuts = set(range(1, length))
    else:
        cuts = draw(st.sets(st.integers(1, max(length - 1, 1)), max_size=4))
    picks = draw(st.lists(st.integers(0, k - 1), min_size=length, max_size=length))
    runs = draw(st.lists(st.integers(1, 3), min_size=length, max_size=length))
    indices: list[int] = []
    for i, pick in enumerate(picks):
        if i == 0 or i in cuts:
            indices.append(pick)
        else:
            indices.append((indices[-1] + 1 + pick % (k - 1)) % k)
    episodes: list[list[str]] = [[]]
    for i, (index, run) in enumerate(zip(indices, runs)):
        if i in cuts:
            episodes.append([])
        episodes[-1].extend([alphabet[index]] * run)
    labels = [alphabet[index] for index in indices]
    return labels, seq_of(*[ep for ep in episodes if ep], key_value=key_value)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lcs_ratio_matches_dp_table(data):
    micros = TAX.micro_keys()
    alphabet = data.draw(st.lists(st.sampled_from(micros), min_size=1, max_size=len(micros), unique=True))
    x_labels, x = data.draw(collapsed_sequence(alphabet, ("10.0.0.5",)))
    # y may miss some of x's labels, so the kernel also meets absent masks.
    y_alphabet = alphabet[data.draw(st.integers(0, len(alphabet) - 1)) :]
    y_labels, y = data.draw(collapsed_sequence(y_alphabet, ("10.0.0.9",)))
    assert list(x.flattened_collapsed) == x_labels
    assert list(y.flattened_collapsed) == y_labels
    if not x_labels and not y_labels:
        expected = 1.0
    elif not x_labels or not y_labels:
        expected = 0.0
    else:
        expected = lcs_table(x_labels, y_labels) / max(len(x_labels), len(y_labels))
    assert sequence_similarity(x, y, "lcs_ratio") == expected
    assert sequence_similarity(y, x, "lcs_ratio") == expected


def test_similarity_features_are_cached_per_sequence_and_per_n():
    x = seq_of([A, B, C, A, B], [D, A])
    y = seq_of([A, B, C, D, A], key_value=("10.0.0.9",))
    assert x.flattened_collapsed is x.flattened_collapsed
    assert x.label_masks is x.label_masks
    lcs = sequence_similarity(x, y, "lcs_ratio")
    assert lcs == sequence_similarity(x, y, "lcs_ratio") == sequence_similarity(y, x, "lcs_ratio")
    assert lcs == lcs_table([A, B, C, A, B, D, A], [A, B, C, D, A]) / 7
    # Bigrams {AB, BC, CA, DA} vs {AB, BC, CD, DA}; trigrams
    # {ABC, BCA, CAB} vs {ABC, BCD, CDA}. Each n keeps its own set.
    assert sequence_similarity(x, y, "ngram_jaccard", n=2) == 3 / 5
    assert sequence_similarity(x, y, "ngram_jaccard", n=3) == 1 / 5
    assert sequence_similarity(x, y, "ngram_jaccard", n=2) == 3 / 5
    assert x.gram_union(3) == {(A, B, C), (B, C, A), (C, A, B)}
    assert sequence_similarity(x, y, "ngram_jaccard", n=1) == 1.0
    # A cached n=1 set must not answer for values that merely compare equal.
    for bad in (True, 1.0, 2.0):
        with pytest.raises(ValueError, match="n must be"):
            sequence_similarity(x, y, "ngram_jaccard", n=bad)


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
                            [(st.ts, st.verdict.micro, st.verdict.macro, st.alert_ref) for st in ep.steps]
                            for ep in seq.episodes
                        ],
                    )
                    for seq in seqs
                ]
                assert got == oracle_sequences(stream, key_config, gap, include_unclassified)
                for seq in seqs:
                    for ep in seq.episodes:
                        expected_runs = []
                        for _, group in groupby(ep.steps, key=attrgetter("verdict.micro")):
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


def test_per_alert_records_are_slot_values():
    """``RawRef`` and ``SequenceStep`` compare, hash and print by value, in slots."""
    ref = RawRef("a", 1)
    verdict = Classification("host_discovery", "active_recon", "r", 0.9)
    step = SequenceStep(at(0), verdict, ref)
    cases = [
        (ref, RawRef("a", 1), RawRef("a", 2)),
        (step, SequenceStep(at(0), verdict, RawRef("a", 1)),
         SequenceStep(at(0), verdict, RawRef("b", 1))),
    ]
    for record, same, other in cases:
        assert record == same and hash(record) == hash(same)
        assert record != other
        assert not hasattr(record, "__dict__")
        assert not isinstance(record, tuple)
    assert repr(ref) == "RawRef(source='a', index=1)"
    assert repr(step) == (
        f"SequenceStep(ts={at(0)!r}, verdict=Classification(micro='host_discovery', "
        "macro='active_recon', matched_rule='r', confidence=0.9), "
        "alert_ref=RawRef(source='a', index=1))"
    )
    assert str(ref) == "a:1"

    stream = [pair(0), pair(1, micro="service_discovery"), pair(2, src="10.0.0.9"), pair(1000)]
    seqs = build_sequences(stream, gap_threshold=600)
    assert len(seqs) == 2
    for seq in seqs:
        hash(seq)
        for episode in seq.episodes:
            hash(episode)


def synthetic_stream(attackers, alerts, spacing):
    """``attackers`` sources interleaved, each with ``alerts`` alerts ``spacing`` seconds apart."""
    return [
        pair(i * spacing + a / attackers, src=f"10.1.{a // 250}.{a % 250}")
        for i in range(alerts)
        for a in range(attackers)
    ]


def traced_call(call):
    """``call()``'s result, and the traced bytes it peaked at and retained."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        gc.collect()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, peak - before, after - before


@pytest.mark.parametrize(
    "attackers, alerts, spacing",
    [(200, 50, 1), (20, 500, 1), (2_000, 18, 1_000)],
    ids=["multi-step-episodes", "long-sequences", "single-step-episodes"],
)
def test_build_sequences_holds_each_step_once(attackers, alerts, spacing):
    """The traced peak of a call stays within 5% of what it retains.

    A second hold of every step (a sorted copy of each group, or group lists
    kept until the end) puts the peak 7-12% above the result on these shapes.
    """
    stream = synthetic_stream(attackers, alerts, spacing)
    seqs, peak, retained = traced_call(lambda: build_sequences(stream, gap_threshold=600))
    assert sum(seq.step_count() for seq in seqs) == attackers * alerts
    episodes = sum(len(seq.episodes) for seq in seqs)
    assert episodes == (attackers if spacing < 600 else attackers * alerts)
    assert peak < 1.05 * retained


def test_build_sequences_frees_a_list_built_for_the_call():
    """A list only the call holds is freed before episodes are cut.

    With one episode per step, the episodes outweigh the steps. Holding the
    alert list while they are built put the traced peak at 2.15x what the
    call retains (Python 3.11); freeing it first puts the peak at 1.77x.
    """
    seqs, peak, retained = traced_call(
        lambda: build_sequences(synthetic_stream(2_000, 18, 1_000), gap_threshold=600)
    )
    assert sum(len(seq.episodes) for seq in seqs) == 2_000 * 18
    assert peak < 1.95 * retained


def test_parsed_alerts_of_one_signature_hold_it_once():
    """10,000 fast alerts of one signature hold one record of its values between them.

    Traced bytes retained per alert, Python 3.11, list slot included: 304
    when each alert kept the signature's seven values in slots of its own
    (14 slots, 144 B an alert), 256 with the shared record (8 slots, 96 B).
    """
    lines = [
        f"05/01-08:00:{i // 200:02d}.{i:06d}  [**] [1:2100498:7] GPL ATTACK_RESPONSE id check returned root "
        f"[**] [Classification: Potentially Bad Traffic] [Priority: 2] {{TCP}} 10.0.0.5:51823 -> 192.168.1.20:80"
        for i in range(10_000)
    ]
    alerts, _, retained = traced_call(
        lambda: list(read_alert_stream(lines, fmt="snort_fast", assumed_year=2019)[0])
    )
    assert len(alerts) == 10_000
    assert len({id(alert.signature) for alert in alerts}) == 1
    assert retained < 280 * len(alerts)


def test_steps_of_one_verdict_hold_it_once():
    """20,000 steps of one episode, built from one verdict, all hold that very object.

    Traced bytes retained per step, Python 3.11, tuple slot included: 72
    when each step kept the verdict's micro and macro in slots of its own
    (4 slots), 64 with the shared verdict (3 slots). ``tracemalloc`` counts
    the bytes asked for; pymalloc serves both sizes from its 64 B class.
    """
    verdict = pair(0)[1]
    stream = [(pair(i)[0], verdict) for i in range(20_000)]
    seqs, _, retained = traced_call(lambda: build_sequences(stream, gap_threshold=600))
    steps = [step for seq in seqs for episode in seq.episodes for step in episode.steps]
    assert len(steps) == 20_000 and len(seqs[0].episodes) == 1
    assert all(step.verdict is verdict for step in steps)
    assert retained < 68 * len(steps)


def test_build_sequences_reads_any_iterable_once_and_leaves_it_unchanged():
    """A one-shot generator gives what its list gives, and the list is not touched."""
    stream = [
        pair(0),
        pair(10),
        pair(8, micro="service_discovery"),
        pair(9, src="10.0.0.9"),
        pair(7, src="10.0.0.9"),
        pair(2000, micro="unclassified"),
        pair(2001),
    ]
    snapshot = list(stream)
    from_list = build_sequences(stream, skew_seconds=5)
    from_generator = build_sequences((item for item in stream), skew_seconds=5)
    assert from_generator == from_list
    assert [seq.step_count() for seq in from_list] == [4, 2]
    assert len(stream) == len(snapshot)
    assert all(item is same for item, same in zip(stream, snapshot))
