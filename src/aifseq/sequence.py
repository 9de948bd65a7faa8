"""Per-attacker intent sequences and their analytics.

Classified alerts are grouped by attacker key (source address, or
source/destination pair), split into episodes wherever the gap between
consecutive alerts exceeds a threshold (strictly greater), and analyzed as
ordered label lists: run-length collapse of repeated micro labels,
within-episode transition matrices, n-gram extraction, and cross-attacker
similarity (LCS ratio, computed bit-parallel, or n-gram Jaccard).

Episodes keep one step per alert so the original stream is recoverable.
Each episode collapses its repeated micros once, on first use, and the
analytics and the export share the result; each exported step carries its
run length. Transitions are always counted within a single episode, never
across episode or attacker boundaries. Every sequence records the gap
threshold that produced it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from aifseq.classify import Classification
from aifseq.ingest import NormalizedAlert, RawRef
from aifseq.taxonomy import SENTINEL_KEY, AisLevel

KEY_CONFIGS = {
    "src": ("src_ip",),
    "src_dst": ("src_ip", "dst_ip"),
}

DEFAULT_GAP_SECONDS = 600.0
DEFAULT_SKEW_SECONDS = 5.0


class OutOfOrderError(ValueError):
    """Input stream was unsorted beyond the allowed skew window."""


@dataclass(frozen=True)
class AttackerKey:
    """Identity a sequence is grouped by: field names plus concrete values."""

    key_fields: tuple[str, ...]
    value: tuple[str, ...]

    def label(self) -> str:
        return "->".join(self.value)


@dataclass(frozen=True, slots=True)
class SequenceStep:
    """One classified alert inside an episode."""

    ts: object  # datetime; kept loose so tests can build steps directly
    micro: str
    macro: str
    alert_ref: RawRef


@dataclass(frozen=True)
class Episode:
    """A burst of activity: consecutive steps no further apart than the gap."""

    key: AttackerKey
    steps: tuple[SequenceStep, ...]

    @property
    def start(self):
        return self.steps[0].ts

    @property
    def end(self):
        return self.steps[-1].ts

    @cached_property
    def collapsed_runs(self) -> tuple[tuple[SequenceStep, int], ...]:
        """Maximal runs of identical micros: (first step of run, run length)."""
        runs: list[tuple[SequenceStep, int]] = []
        start = 0
        for _, run in collapse_repeats(step.micro for step in self.steps):
            runs.append((self.steps[start], run))
            start += run
        return tuple(runs)


@dataclass(frozen=True)
class AisSequence:
    """All of one attacker's episodes, in time order.

    The similarity features (flattened labels, label bitmasks, n-gram
    unions) are computed once, on first use, so all-pairs similarity
    builds them once per sequence rather than once per pair.
    """

    key: AttackerKey
    episodes: tuple[Episode, ...]
    gap_threshold: float

    def step_count(self) -> int:
        return sum(len(ep.steps) for ep in self.episodes)

    def collapsed_episode_labels(self) -> list[list[str]]:
        return [[step.micro for step, _ in ep.collapsed_runs] for ep in self.episodes]

    @cached_property
    def flattened_collapsed(self) -> tuple[str, ...]:
        """Every episode's collapsed micros, concatenated in time order."""
        return tuple(label for labels in self.collapsed_episode_labels() for label in labels)

    @cached_property
    def label_masks(self) -> dict[str, int]:
        """Per label, the bits of the positions it holds in ``flattened_collapsed``."""
        masks: dict[str, int] = {}
        for i, label in enumerate(self.flattened_collapsed):
            masks[label] = masks.get(label, 0) | 1 << i
        return masks

    @cached_property
    def _gram_unions(self) -> dict[int, frozenset[tuple[str, ...]]]:
        return {}

    def gram_union(self, n: int) -> frozenset[tuple[str, ...]]:
        """Union of the per-episode n-gram sets; windows never span an episode boundary."""
        _check_n(n)
        grams = self._gram_unions.get(n)
        if grams is None:
            grams = frozenset(
                gram for labels in self.collapsed_episode_labels() for gram in extract_ngrams(labels, n)
            )
            self._gram_unions[n] = grams
        return grams


def build_sequences(
    classified: Iterable[tuple[NormalizedAlert, Classification]],
    key_config: str = "src",
    gap_threshold: float = DEFAULT_GAP_SECONDS,
    *,
    include_unclassified: bool = False,
    skew_seconds: float = DEFAULT_SKEW_SECONDS,
) -> list[AisSequence]:
    """Group a classified stream into per-attacker episode sequences.

    The stream must be globally time-ordered up to ``skew_seconds`` of
    sensor skew; within the window records are re-sorted (stably), beyond
    it OutOfOrderError is raised. Unclassified verdicts are dropped before
    segmentation unless ``include_unclassified``. Returns one sequence per
    distinct key, ordered by key value.
    """
    fields = KEY_CONFIGS.get(key_config)
    if fields is None:
        raise ValueError(f"unknown key_config {key_config!r}; expected one of {sorted(KEY_CONFIGS)}")
    if gap_threshold < 0:
        raise ValueError("gap_threshold must be non-negative")
    if skew_seconds < 0:
        raise ValueError("skew_seconds must be non-negative")

    groups: dict[tuple[str, ...], list[SequenceStep]] = {}
    max_ts = None
    max_ref = None
    for alert, verdict in classified:
        ts = alert.timestamp
        # An alert at or after the running maximum is never beyond a window
        # of 0 or more, so only one behind it pays for the subtraction.
        if max_ts is None or ts > max_ts:
            max_ts, max_ref = ts, alert.raw_ref
        elif (max_ts - ts).total_seconds() > skew_seconds:
            raise OutOfOrderError(
                f"{alert.raw_ref} is {(max_ts - ts).total_seconds():.3f}s behind "
                f"{max_ref}, beyond the {skew_seconds:.3f}s skew window"
            )
        if not include_unclassified and verdict.micro == SENTINEL_KEY:
            continue
        value = (alert.src_ip,) if key_config == "src" else (alert.src_ip, alert.dst_ip)
        step = SequenceStep(ts, verdict.micro, verdict.macro, alert.raw_ref)
        groups.setdefault(value, []).append(step)

    # A stable global sort followed by a partition orders each group exactly
    # like a stable sort of that group alone, so sorting per key is enough.
    sequences: list[AisSequence] = []
    for value in sorted(groups):
        key = AttackerKey(key_fields=fields, value=value)
        episodes: list[Episode] = []
        current: list[SequenceStep] = []
        for step in sorted(groups[value], key=attrgetter("ts")):
            if current and (step.ts - current[-1].ts).total_seconds() > gap_threshold:
                episodes.append(Episode(key=key, steps=tuple(current)))
                current = []
            current.append(step)
        if current:
            episodes.append(Episode(key=key, steps=tuple(current)))
        sequences.append(
            AisSequence(key=key, episodes=tuple(episodes), gap_threshold=float(gap_threshold))
        )
    return sequences


def collapse_repeats(steps: Iterable) -> list[tuple[str, int]]:
    """Run-length collapse of adjacent identical labels.

    Accepts plain labels or (label, run_length) pairs, so the operation is
    idempotent as stated: collapsing an already-collapsed list returns it
    unchanged. Non-adjacent repeats are kept.
    """
    collapsed: list[tuple[str, int]] = []
    for item in steps:
        if isinstance(item, tuple):
            label, run = item
            if not isinstance(run, int) or isinstance(run, bool) or run < 1:
                raise ValueError(f"run length must be a positive integer, got {run!r}")
        else:
            label, run = item, 1
        if collapsed and collapsed[-1][0] == label:
            collapsed[-1] = (label, collapsed[-1][1] + run)
        else:
            collapsed.append((label, run))
    return collapsed


@dataclass(frozen=True)
class TransitionMatrix:
    """Adjacent-pair counts over episode label lists at one level."""

    level: AisLevel
    states: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]

    @cached_property
    def _index(self) -> dict[str, int]:
        return {state: i for i, state in enumerate(self.states)}

    def count_of(self, src: str, dst: str) -> int:
        return self.counts[self._index[src]][self._index[dst]]

    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    @property
    def row_probabilities(self) -> list[list[float]]:
        """Per-row distributions; a row with no outgoing transitions is []."""
        rows: list[list[float]] = []
        for row in self.counts:
            total = sum(row)
            rows.append([count / total for count in row] if total else [])
        return rows

    def to_rows(self) -> list[list]:
        """Header row plus one row per source state, for tabular export."""
        header: list = ["state", *self.states]
        body = [[state, *row] for state, row in zip(self.states, self.counts)]
        return [header, *body]


def transition_matrix(
    seqs: Iterable[AisSequence], level: AisLevel | str, *, collapsed: bool = True
) -> TransitionMatrix:
    """Count within-episode adjacent transitions at the requested level.

    Runs of identical micros are collapsed first (unless ``collapsed`` is
    off), then projected to the level; two distinct micros under one macro
    therefore can produce a macro self-transition, while a repeat flood
    cannot. States are every label observed, sorted; empty input gives a
    0x0 matrix.
    """
    lvl = AisLevel(level)
    # The level values are the SequenceStep field names.
    label_of = attrgetter(lvl.value)
    label_lists: list[list[str]] = []
    for seq in seqs:
        for episode in seq.episodes:
            if collapsed:
                source: Sequence[SequenceStep] = [step for step, _ in episode.collapsed_runs]
            else:
                source = episode.steps
            label_lists.append([label_of(step) for step in source])

    states = sorted({label for labels in label_lists for label in labels})
    index = {state: i for i, state in enumerate(states)}
    counts = [[0] * len(states) for _ in states]
    for labels in label_lists:
        for src, dst in zip(labels, labels[1:]):
            counts[index[src]][index[dst]] += 1
    return TransitionMatrix(
        level=lvl, states=tuple(states), counts=tuple(tuple(row) for row in counts)
    )


def _check_n(n) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")


def extract_ngrams(steps: Sequence[str], n: int) -> Counter[tuple[str, ...]]:
    """All contiguous length-n windows with multiplicity."""
    _check_n(n)
    labels = list(steps)
    return Counter(tuple(labels[i : i + n]) for i in range(len(labels) - n + 1))


def _lcs_length(x: AisSequence, y: AisSequence) -> int:
    """LCS length of the flattened collapsed lists, bit-parallel.

    Allison & Dix (IPL 1986) as restated by Hyyrö (2004): bit i of ``v``
    stands for position i of the longer list, and the loop makes one step
    per label of the shorter one, so a pair costs O(len(shorter)) big-int
    operations. The zero bits among the low ``m`` bits of ``v`` count the
    LCS; carries past bit ``m - 1`` never reach back down, so ``v`` is
    masked only at the end.
    """
    if len(x.flattened_collapsed) < len(y.flattened_collapsed):
        x, y = y, x
    masks = x.label_masks
    m = len(x.flattened_collapsed)
    full = (1 << m) - 1
    v = full
    for label in y.flattened_collapsed:
        u = v & masks.get(label, 0)
        v = (v + u) | (v - u)
    return m - (v & full).bit_count()


def sequence_similarity(
    x: AisSequence, y: AisSequence, method: str = "lcs_ratio", *, n: int = 2
) -> float:
    """Score two attackers' collapsed label sequences in [0, 1].

    ``lcs_ratio`` is |LCS| / max length over the flattened collapsed
    lists; ``ngram_jaccard`` is Jaccard over each sequence's union of
    per-episode n-gram sets. Two empty sequences score 1, one empty
    scores 0; when neither side yields any n-gram the score is 1 exactly
    when the flattened lists are identical.
    """
    if method == "ngram_jaccard":
        _check_n(n)
    elif method != "lcs_ratio":
        raise ValueError(f"unknown method {method!r}; expected 'lcs_ratio' or 'ngram_jaccard'")
    flat_x = x.flattened_collapsed
    flat_y = y.flattened_collapsed
    if not flat_x and not flat_y:
        return 1.0
    if not flat_x or not flat_y:
        return 0.0

    if method == "lcs_ratio":
        return _lcs_length(x, y) / max(len(flat_x), len(flat_y))
    grams_x = x.gram_union(n)
    grams_y = y.gram_union(n)
    union = grams_x | grams_y
    if not union:
        return 1.0 if flat_x == flat_y else 0.0
    return len(grams_x & grams_y) / len(union)


STEP_COLUMNS = ("ts", "micro", "macro", "run_length", "alert_ref")


def episode_step_rows(episode: Episode) -> Iterator[tuple[str, str, str, int, str]]:
    """Each collapsed step of an episode as exported, in ``STEP_COLUMNS`` order."""
    for step, run in episode.collapsed_runs:
        yield step.ts.isoformat(), step.micro, step.macro, run, str(step.alert_ref)


def sequence_to_document(seq: AisSequence) -> dict:
    """Export one sequence with run-length-collapsed steps."""
    episodes = [
        {
            "start": episode.start.isoformat(),
            "end": episode.end.isoformat(),
            "steps": [dict(zip(STEP_COLUMNS, row)) for row in episode_step_rows(episode)],
        }
        for episode in seq.episodes
    ]
    return {
        "key": seq.key.label(),
        "key_fields": list(seq.key.key_fields),
        "gap_threshold": seq.gap_threshold,
        "episodes": episodes,
    }
