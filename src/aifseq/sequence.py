"""Per-attacker intent sequences and their analytics.

Classified alerts are grouped by attacker key (source address, or
source/destination pair), split into episodes wherever the gap between
consecutive alerts exceeds a threshold (strictly greater), and analyzed as
ordered label lists: run-length collapse of repeated micro labels,
within-episode transition matrices, n-gram extraction, and cross-attacker
similarity (LCS ratio or n-gram Jaccard).

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
from typing import Iterable, Sequence

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


@dataclass(frozen=True)
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
    """All of one attacker's episodes, in time order."""

    key: AttackerKey
    episodes: tuple[Episode, ...]
    gap_threshold: float

    def step_count(self) -> int:
        return sum(len(ep.steps) for ep in self.episodes)

    def collapsed_episode_labels(self) -> list[list[str]]:
        return [[step.micro for step, _ in ep.collapsed_runs] for ep in self.episodes]

    def flattened_collapsed(self) -> list[str]:
        return [label for labels in self.collapsed_episode_labels() for label in labels]


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
        if max_ts is not None and (max_ts - ts).total_seconds() > skew_seconds:
            raise OutOfOrderError(
                f"{alert.raw_ref} is {(max_ts - ts).total_seconds():.3f}s behind "
                f"{max_ref}, beyond the {skew_seconds:.3f}s skew window"
            )
        if max_ts is None or ts > max_ts:
            max_ts, max_ref = ts, alert.raw_ref
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


def extract_ngrams(steps: Sequence[str], n: int) -> Counter[tuple[str, ...]]:
    """All contiguous length-n windows with multiplicity."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    labels = list(steps)
    return Counter(tuple(labels[i : i + n]) for i in range(len(labels) - n + 1))


def _lcs_length(x: Sequence[str], y: Sequence[str]) -> int:
    if len(x) < len(y):
        x, y = y, x
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


def _gram_union(seq: AisSequence, n: int) -> set[tuple[str, ...]]:
    # Windows never span an episode boundary.
    grams: set[tuple[str, ...]] = set()
    for labels in seq.collapsed_episode_labels():
        grams.update(extract_ngrams(labels, n).keys())
    return grams


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
    flat_x = x.flattened_collapsed()
    flat_y = y.flattened_collapsed()
    if not flat_x and not flat_y:
        return 1.0
    if not flat_x or not flat_y:
        return 0.0

    if method == "lcs_ratio":
        return _lcs_length(flat_x, flat_y) / max(len(flat_x), len(flat_y))
    if method == "ngram_jaccard":
        grams_x = _gram_union(x, n)
        grams_y = _gram_union(y, n)
        union = grams_x | grams_y
        if not union:
            return 1.0 if flat_x == flat_y else 0.0
        return len(grams_x & grams_y) / len(union)
    raise ValueError(f"unknown method {method!r}; expected 'lcs_ratio' or 'ngram_jaccard'")


def sequence_to_document(seq: AisSequence) -> dict:
    """Export one sequence with run-length-collapsed steps."""
    episodes = []
    for episode in seq.episodes:
        steps = [
            {
                "ts": step.ts.isoformat(),
                "micro": step.micro,
                "macro": step.macro,
                "run_length": run,
                "alert_ref": str(step.alert_ref),
            }
            for step, run in episode.collapsed_runs
        ]
        episodes.append(
            {
                "start": episode.start.isoformat(),
                "end": episode.end.isoformat(),
                "steps": steps,
            }
        )
    return {
        "key": seq.key.label(),
        "key_fields": list(seq.key.key_fields),
        "gap_threshold": seq.gap_threshold,
        "episodes": episodes,
    }
