"""The aifseq benchmark: seeded CLI workloads, checked outputs, one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload fast_sequence --seed 1 --seconds 55 --trace 0

The benchmark is a closed loop with one client: it starts one fresh
``python -m aifseq.cli`` process at a time (through ``launcher.py``), waits
for it, checks its outputs, and starts the next, until ``--seconds`` have
passed. Each child's CPU time and peak RSS come from its own rusage
(``os.wait4``). A pass of the reference loop (``reference.py``) just before
and just after each run gauges the machine's speed, and the CLI's wall time
is reported in reference passes. Set-up time is the same command on an
input with no records, run several times. With ``--trace 1`` untraced and traced runs
alternate; the traced runs (``spans.py``) give the per-layer metrics and
the tracing overhead. Inputs come from ``corpus.py`` and depend only on the
workload and the seed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; metric names and units come from
BENCHMARK.json. Any failed output check makes ``correct`` false and the exit
code 1; a checkout without ``src/aifseq`` exits with 2 and no result. See
README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
from corpus import ASSUMED_YEAR, CorpusSpec, generate, sequence_oracle
from spans import LAYERS, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"
DIGESTS = HERE / "digests.json"
BENCHMARK = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 1
SETUP_RUNS = 11
MIN_RUNS = 3
CHILD_TIMEOUT_S = 60


@dataclass(frozen=True)
class Workload:
    corpus: CorpusSpec
    args: tuple[str, ...]
    outputs: tuple[str, ...]

    @property
    def input_name(self) -> str:
        return "alerts.eve.json" if self.corpus.fmt == "eve" else "alerts.fast"


# Why each workload exists is in BENCHMARK.json and README.md; eve_classify
# and similarity_ngram are not in BENCHMARK.json (README.md says why). Sizes
# keep one CLI run near 2 s, so that a 55 s run holds about ten of them.
WORKLOADS = {
    "eve_classify": Workload(
        CorpusSpec("eve", alerts=32_000, attackers=2_000),
        ("classify", "--format", "eve", "--output-format", "json"),
        ("classifications.ndjson", "coverage.json"),
    ),
    "fast_sequence": Workload(
        CorpusSpec("fast", alerts=36_000, attackers=2_000),
        ("sequence", "--format", "fast", "--assumed-year", str(ASSUMED_YEAR),
         "--transitions", "both", "--output-format", "csv"),
        ("sequences.csv", "transitions_micro.csv", "transitions_macro.csv"),
    ),
    "similarity_lcs": Workload(
        CorpusSpec("eve", alerts=5_000, attackers=160),
        ("sequence", "--format", "eve", "--similarity", "lcs"),
        ("sequences.ndjson", "similarity.csv"),
    ),
    "similarity_ngram": Workload(
        CorpusSpec("eve", alerts=5_500, attackers=300),
        ("sequence", "--format", "eve", "--similarity", "ngram"),
        ("sequences.ndjson", "similarity.csv"),
    ),
}


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5])


class Helper:
    """A long-lived helper process that answers one JSON line per request."""

    def __init__(self, script: str) -> None:
        self.proc = subprocess.Popen([sys.executable, str(HERE / script)], text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def ask(self, request) -> object:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Launcher(Helper):
    """The small process (launcher.py) that starts every measured command."""

    def __init__(self) -> None:
        super().__init__("launcher.py")
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, argv: list[str], cwd: Path, log: Path) -> Sample:
        return Sample(**self.ask({"argv": argv, "cwd": str(cwd), "env": self.env, "log": str(log),
                                  "timeout": CHILD_TIMEOUT_S}))


class Reference(Helper):
    """The process (reference.py) that runs the reference loop."""

    def __init__(self) -> None:
        super().__init__("reference.py")

    def sample(self) -> float:
        return self.ask(None)


def check_outputs(workload: Workload, out_dir: Path, truth: dict, oracle: dict, seed: int) -> list[str]:
    """Every output check the workload's command calls for."""
    args = workload.args
    problems = check.check_manifest(out_dir, truth, [*workload.outputs])
    if args[0] == "classify":
        problems += check.check_classifications(out_dir, truth, workload.input_name)
        return problems
    output_format = "csv" if "csv" in args else "json"
    problems += check.check_sequences(out_dir, truth, oracle, output_format)
    if "--transitions" in args:
        problems += check.check_transitions(out_dir, oracle)
    if "--similarity" in args:
        method = "lcs_ratio" if "lcs" in args else "ngram_jaccard"
        problems += check.check_similarity(out_dir, oracle, method, seed)
    return problems


class Runner:
    """Runs one workload's command and checks each run against the first."""

    def __init__(self, name: str, seed: int, work: Path, launcher: Launcher):
        self.name = name
        self.launcher = launcher
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.tally = Tally()
        self.digests: dict[str, str] | None = None
        self.recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))[name]
        input_path = work / self.workload.input_name
        self.truth = generate(self.workload.corpus, seed, input_path, work / "truth.json")
        self.oracle = sequence_oracle(self.truth["alerts"])
        (work / "empty").mkdir()
        (work / "empty" / self.workload.input_name).write_text("", encoding="utf-8")

    def argv(self, out: str, traced: str | None = None) -> list[str]:
        cli_args = [*self.workload.args, "--input", self.workload.input_name, "--out", out]
        if traced is None:
            return [sys.executable, "-m", "aifseq.cli", *cli_args]
        return [sys.executable, str(HERE / "spans.py"), str(SRC), traced, *cli_args]

    def setup_sample(self) -> Sample:
        empty = self.work / "empty"
        shutil.rmtree(empty / "out", ignore_errors=True)
        sample = self.launcher.run(self.argv("out"), empty, self.work / "setup.log")
        problems = self._exit_problems(sample, self.work / "setup.log")
        if not problems:
            problems = _readable(self._check_empty, empty / "out")
        self.tally.record(problems)
        return sample

    def _check_empty(self, out: Path) -> list[str]:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        if manifest["ingest_stats"]["records_seen"] != 0:
            return ["empty input: records_seen is not 0"]
        return []

    def sample(self, traced: bool = False) -> Sample:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        log = self.work / "run.log"
        spans = str(self.work / "spans.json") if traced else None
        sample = self.launcher.run(self.argv("out", spans), self.work, log)
        problems = self._exit_problems(sample, log)
        if not problems:
            problems = _readable(self._check, out)
        self.tally.record(problems)
        return sample

    def _exit_problems(self, sample: Sample, log: Path) -> list[str]:
        if sample.code == 0:
            return []
        tail = log.read_text(encoding="utf-8", errors="replace")[-500:]
        return [f"{self.name}: exit code {sample.code}: {tail}"]

    def _check(self, out: Path) -> list[str]:
        digests = check.output_digests(out)
        if self.digests is None:
            problems = check_outputs(self.workload, out, self.truth, self.oracle, self.seed)
            if problems:
                return problems
            self.digests = digests
        if digests != self.digests:
            return ["output bytes differ from the first correct run's"]
        if self.seed == DEFAULT_SEED and digests != self.recorded:
            return [f"output bytes differ from the digests recorded in {DIGESTS.name}"]
        return []


def _readable(check_fn, out: Path) -> list[str]:
    """Run an output check; missing or unparseable outputs are problems too."""
    try:
        return check_fn(out)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output in {out.name}: {exc!r}"]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean_ratio(numerators: list[float], denominators: list[float]) -> float:
    if not numerators:
        return 0.0
    return statistics.fmean(numerators) / statistics.fmean(denominators)


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src_hash.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


def layer_metrics(summary: dict, bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced run."""
    busy, self_s, calls = summary["busy_s"], summary["self_s"], summary["calls"]
    layer_self, counters = summary["layer_self_s"], summary["counters"]
    seen = counters.get("records_seen", 0)
    alerts = counters.get("alerts_emitted", 0)
    scan_s = self_s["classify"]
    pairs = calls["sequence.similarity"]

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds else 0.0

    metrics = {
        "taxonomy.busy_s": busy["taxonomy"],
        "ingest.busy_s": busy["ingest"],
        "ingest.records_per_s": rate(seen, busy["ingest"]),
        "ingest.useful_ratio": rate(alerts, seen),
        "ingest.malformed": counters.get("malformed", 0),
        "ingest.non_alert": counters.get("non_alert_skipped", 0),
        "classify.self_s": layer_self["classify"],
        "classify.alerts_per_s": rate(alerts, scan_s),
        "classify.coverage_s": busy["classify.coverage"],
        "classify.unclassified_fraction": counters.get("unclassified_fraction", 0.0),
        "classify.maxrss_mb": counters["classify_maxrss_mb"],
        "sequence.busy_s": busy["sequence"],
        "sequence.alerts_per_s": rate(counters.get("sequence_alerts", 0), busy["sequence"]),
        "sequence.attackers": counters.get("attackers", 0),
        "sequence.episodes": counters.get("episodes", 0),
        "sequence.steps": counters.get("steps", 0),
        "sequence.transitions.busy_s": busy["sequence.transitions"],
        "sequence.similarity.busy_s": busy["sequence.similarity"],
        "sequence.similarity.pairs": pairs,
        "sequence.similarity.us_per_pair": rate(busy["sequence.similarity"] * 1e6, pairs),
        "sequence.export.busy_s": busy["sequence.export"],
        "cli.self_s": layer_self["cli"],
        "cli.bytes_written": bytes_written,
    }
    total = sum(layer_self.values())
    for layer in LAYERS:
        metrics[f"{layer}.self_frac"] = rate(layer_self[layer], total)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "aifseq" / "cli.py").is_file():
        print(f"error: no aifseq sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    # On SIGTERM, unwind through the finally blocks that stop the helpers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # One core for this process and everything it starts: on a shared host
    # the cores run at different speeds from moment to moment, and the
    # reference passes only gauge the core the measured runs use.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    code = 0
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        work = WORK / f"{name}-{args.seed}-{args.trace}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            with Launcher() as launcher, Reference() as reference:
                code = max(code, measure(Runner(name, args.seed, work, launcher), reference, args))
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return code


def measure(runner: Runner, reference: Reference, args: argparse.Namespace) -> int:
    # --seconds bounds the whole measurement: warm-up, set-up runs, reference
    # passes and output checks included.
    started = time.perf_counter()
    # Warm-up, not counted: compiles bytecode, fills the page cache, and makes
    # the full output check on the first run.
    runner.setup_sample()
    runner.sample()
    # Set-up samples are spread over the measurement so that a slow spell of
    # the machine does not land on all of them at once. A reference pass
    # just before and just after each measured run gauges the machine's
    # speed over the same stretch of time.
    setup: list[float] = []
    passes: list[tuple[float, float]] = []
    untraced: list[Sample] = []
    traced: list[Sample] = []
    layers: list[dict[str, float]] = []
    while time.perf_counter() - started < args.seconds or len(untraced) < MIN_RUNS:
        setup.append(runner.setup_sample().wall_s)
        before = reference.sample()
        untraced.append(runner.sample())
        if args.trace:
            traced.append(runner.sample(traced=True))
            if traced[-1].code == 0:
                out_bytes = sum(p.stat().st_size for p in (runner.work / "out").iterdir())
                layers.append(layer_metrics(summarize(runner.work / "spans.json"), out_bytes))
        passes.append((before, reference.sample()))
    while len(setup) < SETUP_RUNS:
        setup.append(runner.setup_sample().wall_s)

    ok = [(s, pair) for s, pair in zip(untraced, passes) if s.code == 0]
    wall = median([s.wall_s for s, _ in ok])
    lines = runner.truth["counts"]["records_seen"]
    end_to_end = {
        # Means, not medians: the host's speed flips between a fast and a slow
        # state many times a second, and a mean weighs each state by its time.
        "wall_ref": mean_ratio([s.wall_s for s, _ in ok], [t for _, pair in ok for t in pair]),
        "peak_rss_mb": median([s.rss_mb for s, _ in ok]),
        "setup_s": median(setup),
    }
    # Raw times swing with the shared host's speed; they are printed and
    # recorded but not reported as metrics (see README.md).
    raw = {
        "wall_s": (wall, "s"),
        "records_per_s": (lines / wall if wall else 0.0, "1/s"),
        "cpu_s": (median([s.cpu_s for s, _ in ok]), "s"),
        "reference_s": (median([t for pair in passes for t in pair]), "s"),
    }
    tally = runner.tally
    env = environment()
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    print(f"workload {runner.name}: {lines} input lines, seed {args.seed}, {len(untraced)} untraced "
          f"runs, {len(traced)} traced runs, {len(setup)} set-up runs, {2 * len(passes)} reference passes")
    print(f"environment: {json.dumps(env)}")
    print(f"digests: {json.dumps(runner.digests)}")
    for metric in declared["end_to_end"]:
        print(f"  {metric['name']} = {end_to_end[metric['name']]:.6g} {metric['unit']}")
    for name, (value, unit) in raw.items():
        print(f"  {name} = {value:.6g} {unit} (raw)")
    print(f"  failed_frac = {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted} runs)")
    for problem in list(dict.fromkeys(tally.problems))[:10]:
        print(f"  FAILED CHECK: {problem}")

    values, kind = end_to_end, "end_to_end"
    if args.trace:
        values = {metric: median([run[metric] for run in layers]) for metric in layers[0]} if layers else {}
        # Each traced run follows an untraced one; the ratio within a pair
        # cancels most of the host's slow and fast spells.
        ratios = [t.wall_s / u.wall_s for u, t in zip(untraced, traced) if u.code == t.code == 0]
        values["trace.overhead_frac"] = median(ratios) - 1 if ratios else 0.0
        kind = "per_layer"
        for metric in declared[kind]:
            print(f"  {metric['name']} = {values.get(metric['name'], 0.0):.6g} {metric['unit']}")
        split = ", ".join(f"{layer} {values.get(f'{layer}.self_frac', 0.0):.1%}" for layer in LAYERS)
        print(f"self-time split: {split}")
    result = {
        "correct": tally.failed == 0 and bool(ok),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared[kind]},
    }
    RESULTS.mkdir(exist_ok=True)
    record = dict(result, workload=runner.name, seed=args.seed, trace=args.trace, environment=env,
                  raw={name: value for name, (value, _) in raw.items()},
                  samples=[vars(s) for s in untraced], traced_samples=[vars(s) for s in traced],
                  setup_samples=setup, reference_passes=passes, digests=runner.digests)
    (RESULTS / f"{runner.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
