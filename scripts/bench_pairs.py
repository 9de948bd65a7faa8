#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarized in BENCH_<pr>.json.

Usage, from the repository root::

    python3 scripts/bench_pairs.py --pr N --seeds 701 702 703

It measures every workload BENCHMARK.json lists (``--workload`` picks
some of them) at the run length ``perfbench/run.py`` defaults to, and
records BENCHMARK.json's ``run_seconds``. Each side (``--base``, default
``HEAD~1``, and ``--head``, default ``HEAD``) is exported with ``git
archive`` into its own temporary directory, so both are measured from
their committed files and nothing is registered in the repository's
``.git``; set ``TMPDIR`` to choose where.
For every workload and seed the two sides run ``perfbench/run.py`` one
after the other, the parent first on even pairs and the change first on
odd ones, so a slow spell of the machine does not land on one side only.
Each side runs its own ``perfbench/``, and the script reads the JSON line
each run prints: it is the same instrument, not a second one.

The output holds both commits, the workloads, seeds and environment, every
run's end-to-end values, each side's median and quartiles, and per metric
the number of pairs the change won (ties count for neither) and whether
that is a gain: at least nine wins in ten and medians further apart than
the parent's quartiles. The file is rewritten after every pair, so an
interrupted session keeps what it measured. The script exits 1 if any run
was not correct.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its result line and environment."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    env = next((json.loads(line.split(":", 1)[1]) for line in lines
                if line.startswith("environment: ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                  "error": proc.stderr[-2000:]}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "environment": env,
        **({"error": result["error"]} if "error" in result else {}),
    }


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, and the change's wins."""
    pairs = {}
    for run in runs:
        pairs.setdefault(run["seed"], {})[run["side"]] = run
    complete = [p for p in pairs.values() if len(p) == 2 and all(r["correct"] for r in p.values())]
    summary = {"pairs": len(complete)}
    if not complete:
        return summary
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [p["base"]["metrics"][name] for p in complete]
        head = [p["head"]["metrics"][name] for p in complete]
        wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        entry = {"unit": metric["unit"], "bound": metric["bound"], "base": base, "head": head,
                 "head_wins": wins}
        if len(complete) >= 2:
            entry["base_stats"], entry["head_stats"] = b, h = spread(base), spread(head)
            # The gain rule: the change wins nine pairs in ten, and the medians
            # differ by more than the parent's quartile spread.
            gap = b["median"] - h["median"] if lower else h["median"] - b["median"]
            entry["gain"] = wins >= 0.9 * len(complete) and gap > b["q3"] - b["q1"]
        summary[name] = entry
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True, type=int, help="number in BENCH_<pr>.json")
    parser.add_argument("--base", default="HEAD~1", help="parent commit (default HEAD~1)")
    parser.add_argument("--head", default="HEAD", help="change commit (default HEAD)")
    parser.add_argument("--workload", action="append",
                        help="one of BENCHMARK.json's workloads (default: all of them)")
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed")
    args = parser.parse_args()

    commits = {"base": git("rev-parse", args.base), "head": git("rev-parse", args.head)}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = benchmark["end_to_end"]
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    out = ROOT / f"BENCH_{args.pr}.json"
    record = {
        "pr": args.pr,
        "commits": commits,
        "run_seconds": benchmark["run_seconds"],
        "seeds": args.seeds,
        "order": "parent first on even pairs (0-based), change first on odd pairs",
        "environment": {"python": platform.python_version(), "platform": platform.platform()},
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
                record["workloads"][workload] = {"runs": runs, "summary": summarize(runs, metrics)}
                out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
