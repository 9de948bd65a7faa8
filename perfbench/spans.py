"""Traced, in-process run of the aifseq CLI, and the per-layer summary of it.

Run as ``python spans.py SRC_DIR SPANS_PATH CLI_ARGS...``. It imports
``aifseq.cli`` from ``SRC_DIR``, replaces the layer functions the CLI
imports with span-recording wrappers, runs ``cli.main(CLI_ARGS)`` inside a
root ``cli`` span and exits with its code. Spans stay in memory until the
run ends and are then written to ``SPANS_PATH`` (a JSON header) and
``SPANS_PATH.bin`` (four int64 columns: span name, parent span, start ns,
end ns).

Generators are timed per ``next()``, so classify's spans contain the
ingest spans its iteration causes. A span's self time is its duration
minus its direct children's; the ``cli`` layer is whatever ``main`` spends
outside every wrapped call (argument parsing, record building, JSON/CSV
encoding, file writes).

Untraced benchmark runs start ``python -m aifseq.cli`` and never load this
module's wrappers.
"""

from __future__ import annotations

import json
import resource
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

LAYERS = (
    "taxonomy",
    "ingest",
    "classify",
    "sequence",
    "sequence.transitions",
    "sequence.similarity",
    "sequence.export",
    "cli",
)
# Span names are layer names, except coverage, which is timed on its own
# and counted as part of the classify layer.
SPAN_NAMES = (*LAYERS, "classify.coverage")
SPAN_LAYER = {name: name for name in LAYERS} | {"classify.coverage": "classify"}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Spans in four parallel int64 columns; a stack gives each its parent."""

    def __init__(self) -> None:
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def enter(self, name_id: int) -> None:
        self._stack.append(len(self.start))
        self.name.append(name_id)
        self.parent.append(self._stack[-2])
        self.end.append(0)
        self.start.append(perf_counter_ns())

    def exit(self) -> None:
        self.end[self._stack.pop()] = perf_counter_ns()

    def call(self, name: str, fn):
        name_id = SPAN_NAMES.index(name)

        def wrapper(*args, **kwargs):
            self.enter(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return wrapper

    def iterate(self, name: str, iterator, on_end=None):
        """Yield from ``iterator``, one span per ``next()``."""
        name_id = SPAN_NAMES.index(name)
        while True:
            self.enter(name_id)
            try:
                item = next(iterator)
            except StopIteration:
                self.exit()
                if on_end is not None:
                    on_end()
                return
            except BaseException:
                self.exit()
                raise
            self.exit()
            yield item

    def write(self, path: Path, header: dict) -> None:
        header = dict(header, names=list(SPAN_NAMES), count=len(self.start))
        path.write_text(json.dumps(header), encoding="utf-8")
        with open(f"{path}.bin", "wb") as fh:
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(fh)


def install(tracer: Tracer, cli) -> dict:
    """Wrap the layer functions ``cli`` calls; returns what they observed."""
    seen: dict = {}

    def read_alert_stream(*args, **kwargs):
        alerts, stats = read_inner(*args, **kwargs)
        seen["ingest_stats"] = stats
        return tracer.iterate("ingest", alerts), stats

    def classify_stream(*args, **kwargs):
        def done():
            seen["classify_maxrss_mb"] = _maxrss_mb()

        return tracer.iterate("classify", iter(cli_classify_stream(*args, **kwargs)), done)

    def coverage_report(spec, classified):
        seen["coverage"] = report = coverage_inner(spec, classified)
        return report

    def build_sequences(classified, *args, **kwargs):
        seen["classified"] = classified
        seen["sequences"] = result = sequences_inner(classified, *args, **kwargs)
        return result

    read_inner = tracer.call("ingest", cli.read_alert_stream)
    cli_classify_stream = cli.classify_stream
    coverage_inner = tracer.call("classify.coverage", cli.coverage_report)
    sequences_inner = tracer.call("sequence", cli.build_sequences)

    cli.read_alert_stream = read_alert_stream
    cli.classify_stream = classify_stream
    cli.coverage_report = coverage_report
    cli.build_sequences = build_sequences
    for name in ("builtin_taxonomy", "load_mapping", "starter_mapping_document"):
        setattr(cli, name, tracer.call("taxonomy", getattr(cli, name)))
    cli.transition_matrix = tracer.call("sequence.transitions", cli.transition_matrix)
    cli.sequence_similarity = tracer.call("sequence.similarity", cli.sequence_similarity)
    cli.sequence_to_document = tracer.call("sequence.export", cli.sequence_to_document)
    return seen


def counters(seen: dict) -> dict:
    """Deterministic counts from what the wrappers observed."""
    out: dict = {"classify_maxrss_mb": seen.get("classify_maxrss_mb", 0.0)}
    stats = seen.get("ingest_stats")
    if stats is not None:
        out.update(records_seen=stats.records_seen, alerts_emitted=stats.alerts_emitted,
                   non_alert_skipped=stats.non_alert_skipped, malformed=stats.malformed)
    if "coverage" in seen:
        out["unclassified_fraction"] = seen["coverage"].unclassified_fraction
    if "sequences" in seen:
        classified = seen["classified"]
        unclassified = sum(verdict.micro == "unclassified" for _, verdict in classified)
        out["unclassified_fraction"] = unclassified / len(classified) if classified else 0.0
        sequences = seen["sequences"]
        out.update(sequence_alerts=len(classified), attackers=len(sequences),
                   episodes=sum(len(seq.episodes) for seq in sequences),
                   steps=sum(seq.step_count() for seq in sequences))
    return out


def main(argv: list[str]) -> int:
    src, spans_path, cli_args = argv[0], Path(argv[1]), argv[2:]
    sys.path.insert(0, src)
    from aifseq import cli

    tracer = Tracer()
    seen = install(tracer, cli)
    main_fn = tracer.call("cli", cli.main)
    code = main_fn(cli_args)
    tracer.write(spans_path, {"exit_code": code, "counters": counters(seen)})
    return code


def summarize(spans_path: Path) -> dict:
    """Busy and self seconds per span name, self seconds per layer, span counts."""
    header = json.loads(spans_path.read_text(encoding="utf-8"))
    count = header["count"]
    columns = []
    with open(f"{spans_path}.bin", "rb") as fh:
        for _ in range(4):
            column = array("q")
            column.fromfile(fh, count)
            columns.append(column)
    name, parent, start, end = columns
    names = header["names"]
    duration = [e - s for s, e in zip(start, end)]
    child = [0] * count
    for i in range(count):
        if parent[i] >= 0:
            child[parent[i]] += duration[i]
    busy = dict.fromkeys(names, 0)
    self_ns = dict.fromkeys(names, 0)
    calls = dict.fromkeys(names, 0)
    for i in range(count):
        key = names[name[i]]
        busy[key] += duration[i]
        self_ns[key] += duration[i] - child[i]
        calls[key] += 1
    layer_self = dict.fromkeys(LAYERS, 0)
    for key, value in self_ns.items():
        layer_self[SPAN_LAYER[key]] += value
    return {
        "counters": header["counters"],
        "busy_s": {k: v / 1e9 for k, v in busy.items()},
        "self_s": {k: v / 1e9 for k, v in self_ns.items()},
        "layer_self_s": {k: v / 1e9 for k, v in layer_self.items()},
        "calls": calls,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
