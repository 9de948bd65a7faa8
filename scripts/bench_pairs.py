#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarized in BENCH_<pr>.json.

Usage, from the repository root::

    python3 scripts/bench_pairs.py --pr N --seeds 701 702 703

It measures every workload BENCHMARK.json lists at the run length
``perfbench/run.py`` defaults to, and records BENCHMARK.json's
``run_seconds``. ``--workload`` picks any workloads ``perfbench/run.py``
defines instead; one BENCHMARK.json does not list (``eve_classify``,
``similarity_ngram``) is gated by nothing, so it is recorded with
``"gated": false`` and without a bound or a gain verdict. Each side
(``--base``, default ``HEAD~1``, and ``--head``, default ``HEAD``) is
exported with ``git archive`` into its own temporary directory, so both
are measured from their committed files and nothing is registered in the
repository's ``.git``; set ``TMPDIR`` to choose where.
For every workload and seed the two sides run ``perfbench/run.py`` one
after the other, the parent first on even pairs and the change first on
odd ones, so a slow spell of the machine does not land on one side only.
After its pairs, each workload gets three ``--trace 1`` runs per side at
the first seed, alternating in the same way. The file keeps the per-layer
metrics of every traced run, and beside them each one in seconds divided by
that run's reference pass (``reference_s``), the gauge of the machine's
speed that ``wall_ref`` uses, so runs compare across a change in the
machine's speed; per side it also keeps the median of each such metric.
Each side runs its own ``perfbench/``, and the script reads the JSON line
each run prints: it is the same instrument, not a second one.

The output holds both commits, the workloads, seeds and environment
(including whether ``PYTHONDONTWRITEBYTECODE`` kept the runs from caching
bytecode, which moves ``setup_s`` and peak RSS), every
run's end-to-end values, each side's median and quartiles, and per metric
the number of pairs the change won (ties count for neither) and whether
that is a gain: at least nine wins in ten and medians further apart than
the parent's quartiles. The gated ``setup_s`` is raw wall time, so it
follows the machine's speed; each run also keeps it divided by its
reference pass (``setup_ref``), summarized the same way but not gated,
so without a gain verdict.
The file is rewritten after every pair, so an interrupted session keeps
what it measured. The script exits 1 if any run was not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The line each perfbench/run.py run prints for the median reference pass.
REFERENCE_LINE = re.compile(r"\s*reference_s = (\S+) s \(raw\)$")
TRACED_RUNS = 3


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def export(commit: str, dest: Path) -> None:
    """Write the tree of ``commit`` to ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", "--format=tar", commit], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {commit} failed")


def run_once(tree: Path, workload: str, seed: int, trace: bool = False) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its result line, reference pass and environment.

    A traced run's metrics are the per-layer ones.
    """
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(int(trace))],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    env = next((json.loads(line.split(":", 1)[1]) for line in lines
                if line.startswith("environment: ")), None)
    reference = next((float(m.group(1)) for line in lines if (m := REFERENCE_LINE.match(line))), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                  "error": proc.stderr[-2000:]}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    setup = metrics.get("setup_s")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "setup_ref": setup / reference if setup is not None and reference else None,
        "reference_s": reference,
        "environment": env,
        **({"error": result["error"]} if "error" in result else {}),
    }


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def defined_workloads() -> list[str]:
    """Every workload ``perfbench/run.py`` defines, gated or not."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import WORKLOADS

    return list(WORKLOADS)


def summarize(runs: list[dict], metrics: list[dict], gated: bool) -> dict:
    """Per metric: each side's median and quartiles, and the change's wins.

    A gated workload's metrics also get their bound and the gain verdict.
    """
    pairs = {}
    for run in runs:
        pairs.setdefault(run["seed"], {})[run["side"]] = run
    complete = [p for p in pairs.values() if len(p) == 2 and all(r["correct"] for r in p.values())]
    summary = {"pairs": len(complete)}
    if not complete:
        return summary

    def compare(value, lower: bool, gated: bool) -> dict:
        base = [value(p["base"]) for p in complete]
        head = [value(p["head"]) for p in complete]
        wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        entry = {"base": base, "head": head, "head_wins": wins}
        if len(complete) >= 2:
            entry["base_stats"], entry["head_stats"] = b, h = spread(base), spread(head)
            if gated:
                # The gain rule: the change wins nine pairs in ten, and the
                # medians differ by more than the parent's quartile spread.
                gap = b["median"] - h["median"] if lower else h["median"] - b["median"]
                entry["gain"] = wins >= 0.9 * len(complete) and gap > b["q3"] - b["q1"]
        return entry

    for metric in metrics:
        name = metric["name"]
        gate = {"bound": metric["bound"]} if gated else {"gated": False}
        summary[name] = {"unit": metric["unit"], **gate,
                         **compare(lambda run: run["metrics"][name], metric["better"] == "lower", gated)}
    if all(p[side]["setup_ref"] is not None for p in complete for side in p):
        summary["setup_ref"] = {"unit": "ref", "gated": False,
                                **compare(lambda run: run["setup_ref"], True, False)}
    return summary


def median_ref(runs: list[dict]) -> dict:
    """Per metric, the median over ``runs`` of its value in reference units."""
    values: dict[str, list[float]] = {}
    for run in runs:
        for name, value in run.get("metrics_ref", {}).items():
            values.setdefault(name, []).append(value)
    return {name: statistics.median(v) for name, v in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True, type=int, help="number in BENCH_<pr>.json")
    parser.add_argument("--base", default="HEAD~1", help="parent commit (default HEAD~1)")
    parser.add_argument("--head", default="HEAD", help="change commit (default HEAD)")
    parser.add_argument("--workload", action="append", choices=defined_workloads(),
                        help="a workload perfbench/run.py defines "
                             "(default: all that BENCHMARK.json lists)")
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed")
    args = parser.parse_args()

    commits = {"base": git("rev-parse", args.base), "head": git("rev-parse", args.head)}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = benchmark["end_to_end"]
    seconds = [m["name"] for m in benchmark["per_layer"] if m["unit"] == "s"]
    gated = [w["name"] for w in benchmark["workloads"]]
    workloads = args.workload or gated
    out = ROOT / f"BENCH_{args.pr}.json"
    record = {
        "pr": args.pr,
        "commits": commits,
        "run_seconds": benchmark["run_seconds"],
        "seeds": args.seeds,
        "order": "parent first on even pairs (0-based), change first on odd pairs",
        "environment": {"python": platform.python_version(), "platform": platform.platform(),
                        "bytecode_cached": not os.environ.get("PYTHONDONTWRITEBYTECODE")},
        "workloads": {},
    }
    ok = True
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in commits}
        for side, commit in commits.items():
            export(commit, trees[side])
        for workload in workloads:
            runs: list[dict] = []
            for index, seed in enumerate(args.seeds):
                for side in ("base", "head") if index % 2 == 0 else ("head", "base"):
                    run = run_once(trees[side], workload, seed)
                    runs.append({"seed": seed, "side": side, **run})
                    ok = ok and run["correct"]
                    print(f"{workload} seed {seed} {side}: correct={run['correct']} "
                          f"{json.dumps(run['metrics'])}", flush=True)
                record["workloads"][workload] = {
                    "gated": workload in gated, "runs": runs,
                    "summary": summarize(runs, metrics, workload in gated),
                }
                out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
            traced = {"seed": args.seeds[0], "base": [], "head": []}
            for index in range(TRACED_RUNS):
                for side in ("base", "head") if index % 2 == 0 else ("head", "base"):
                    run = run_once(trees[side], workload, args.seeds[0], trace=True)
                    ok = ok and run["correct"]
                    if run["reference_s"]:
                        run["metrics_ref"] = {name: run["metrics"][name] / run["reference_s"]
                                              for name in seconds if name in run["metrics"]}
                    traced[side].append(run)
                    print(f"{workload} seed {args.seeds[0]} {side} traced: correct={run['correct']} "
                          f"{json.dumps(run['metrics'])}", flush=True)
            traced["median_ref"] = {side: median_ref(traced[side]) for side in ("base", "head")}
            record["workloads"][workload]["traced"] = traced
            out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
