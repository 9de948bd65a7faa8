"""Output checks for one CLI run against the corpus ground truth.

``oracle`` arguments are ``corpus.sequence_oracle`` of the truth rows. Every
check returns a list of problems; an empty list means the run's
outputs are correct. The oracles here are deliberately naive (full LCS
table, set-based Jaccard) and share no code with ``aifseq``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from pathlib import Path

from corpus import utc_iso

SIMILARITY_SAMPLE = 40
STARTER_RULES = 27


def output_digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every output file; the manifest without ``generated_at``."""
    digests = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("generated_at", None)
            data = json.dumps(manifest, indent=2).encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def check_manifest(out_dir: Path, truth: dict, expected_outputs: list[str]) -> list[str]:
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    problems = []
    stats = manifest["ingest_stats"]
    for name, want in truth["counts"].items():
        if stats.get(name) != want:
            problems.append(f"manifest ingest_stats.{name} = {stats.get(name)}, expected {want}")
    if manifest["outputs"] != expected_outputs:
        problems.append(f"manifest outputs {manifest['outputs']}, expected {expected_outputs}")
    return problems


def check_classifications(out_dir: Path, truth: dict, input_name: str) -> list[str]:
    problems = []
    rows = truth["alerts"]
    with open(out_dir / "classifications.ndjson", encoding="utf-8") as fh:
        lines = fh.readlines()
    if len(lines) != len(rows):
        return [f"{len(lines)} classification records, expected {len(rows)}"]
    for text, (line_no, micro, rule, ts_us, src_ip) in zip(lines, rows):
        record = json.loads(text)
        want = (f"{input_name}:{line_no}", micro, rule, utc_iso(ts_us), src_ip)
        got = (record["alert_ref"], record["micro"], record["matched_rule"], record["ts"], record["src_ip"])
        if got != want:
            problems.append(f"classification {got} != expected {want}")
            if len(problems) >= 5:
                break

    coverage = json.loads((out_dir / "coverage.json").read_text(encoding="utf-8"))
    hits = coverage["rule_hits"]
    if len(hits) != STARTER_RULES or min(hits.values()) < 1:
        problems.append(f"coverage.json: not every one of {STARTER_RULES} starter rules was hit: {hits}")
    if {k: v for k, v in hits.items() if v} != truth["rule_hits"]:
        problems.append("coverage.json rule_hits differ from the ground truth")
    if coverage["total"] != len(rows) or coverage["unclassified_fraction"] != truth["unclassified"] / len(rows):
        problems.append("coverage.json total / unclassified_fraction differ from the ground truth")
    return problems


def _episodes_from_json(out_dir: Path) -> dict[str, list[list[str]]]:
    found = {}
    with open(out_dir / "sequences.ndjson", encoding="utf-8") as fh:
        for text in fh:
            doc = json.loads(text)
            found[doc["key"]] = [[step["micro"] for step in ep["steps"]] for ep in doc["episodes"]]
    return found


def _episodes_from_csv(out_dir: Path) -> dict[str, list[list[str]]]:
    found: dict[str, list[list[str]]] = {}
    with open(out_dir / "sequences.csv", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for key, episode, _start, _end, _step, _ts, micro, *_ in reader:
            episodes = found.setdefault(key, [])
            if int(episode) == len(episodes):
                episodes.append([])
            episodes[int(episode)].append(micro)
    return found


def check_sequences(out_dir: Path, truth: dict, oracle: dict, output_format: str) -> list[str]:
    found = _episodes_from_json(out_dir) if output_format == "json" else _episodes_from_csv(out_dir)
    problems = []
    if len(found) != truth["attackers"]:
        problems.append(f"{len(found)} sequences, expected {truth['attackers']}")
    episodes = sum(len(eps) for eps in found.values())
    if episodes != truth["episodes"]:
        problems.append(f"{episodes} episodes, expected {truth['episodes']}")
    if list(found) != list(oracle):
        problems.append("sequence keys differ from the oracle (or are out of order)")
    elif found != oracle:
        bad = next(key for key in oracle if found[key] != oracle[key])
        problems.append(f"episodes of {bad} differ from the oracle")
    return problems


def check_transitions(out_dir: Path, oracle: dict) -> list[str]:
    expected: dict[tuple[str, str], int] = {}
    for episodes in oracle.values():
        for labels in episodes:
            for pair in zip(labels, labels[1:]):
                expected[pair] = expected.get(pair, 0) + 1
    totals = {}
    found: dict[tuple[str, str], int] = {}
    for level in ("micro", "macro"):
        with open(out_dir / f"transitions_{level}.csv", encoding="utf-8", newline="") as fh:
            header, *body = list(csv.reader(fh))
        totals[level] = sum(int(v) for row in body for v in row[1:])
        if level == "micro":
            found = {(row[0], dst): int(v) for row in body for dst, v in zip(header[1:], row[1:]) if int(v)}
    problems = []
    if found != expected:
        problems.append("transitions_micro.csv differs from the oracle")
    if totals["macro"] != totals["micro"]:
        problems.append(f"macro transitions total {totals['macro']} != micro total {totals['micro']}")
    return problems


def _lcs(x: list[str], y: list[str]) -> int:
    table = [[0] * (len(y) + 1) for _ in range(len(x) + 1)]
    for i in range(1, len(x) + 1):
        for j in range(1, len(y) + 1):
            if x[i - 1] == y[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(x)][len(y)]


def _bigrams(episodes: list[list[str]]) -> set[tuple[str, str]]:
    return {pair for labels in episodes for pair in zip(labels, labels[1:])}


def oracle_score(left: list[list[str]], right: list[list[str]], method: str) -> float:
    """Similarity of two attackers' collapsed episodes by brute force."""
    flat_x = [label for ep in left for label in ep]
    flat_y = [label for ep in right for label in ep]
    if method == "lcs_ratio":
        return _lcs(flat_x, flat_y) / max(len(flat_x), len(flat_y))
    grams_x, grams_y = _bigrams(left), _bigrams(right)
    union = grams_x | grams_y
    if not union:
        return 1.0 if flat_x == flat_y else 0.0
    return len(grams_x & grams_y) / len(union)


def check_similarity(out_dir: Path, oracle: dict, method: str, seed: int) -> list[str]:
    keys = list(oracle)
    with open(out_dir / "similarity.csv", encoding="utf-8", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    n = len(keys)
    if header != ["key_a", "key_b", "method", "score"] or len(rows) != n * (n - 1) // 2:
        return [f"similarity.csv has {len(rows)} rows, expected {n * (n - 1) // 2}"]
    problems = []
    expected_pairs = ((a, b) for i, a in enumerate(keys) for b in keys[i + 1 :])
    for row, (a, b) in zip(rows, expected_pairs):
        if row[:3] != [a, b, method] or not 0.0 <= float(row[3]) <= 1.0:
            problems.append(f"similarity row {row} out of order or out of range")
            return problems
    rng = random.Random(seed)
    index = {key: i for i, key in enumerate(keys)}
    for row in rng.sample(rows, min(SIMILARITY_SAMPLE, len(rows))):
        a, b = row[0], row[1]
        want = f"{oracle_score(oracle[a], oracle[b], method):.6f}"
        if row[3] != want:
            problems.append(f"similarity {a} vs {b} ({index[a]}, {index[b]}) = {row[3]}, oracle {want}")
    return problems
