"""The reference loop: a fixed piece of pure-Python work that gauges how fast
the machine runs Python at the moment.

On a shared host the speed of a core swings by a factor of up to two, in
spells from tens of milliseconds to minutes. ``run.py`` runs a reference
pass before and after every measured command and reports the command's time
in reference passes, which cancels the slow spells that a run spans.

The pass has the same mix as the CLI's work: JSON lines, timestamps,
regular expressions, substring rules, sorting, grouping, CSV writing and a
dynamic-programming table. Its input is built from constants, so it is the
same for every seed, and it shares no code with ``aifseq``, so a change to
the package cannot change its time. It runs in a process of its own, so
that neither the benchmark's heap nor the launcher's peak RSS is affected.

Protocol: each line on stdin asks for one pass; the reply is one line with
the pass's wall time in seconds. The process exits when stdin closes.
"""

from __future__ import annotations

import csv
import io
import json
import re
import sys
import time
from datetime import datetime

SIGNATURE = re.compile(r"ET (?P<family>[A-Z]+) probe (?P<n>\d+)")
RULES = (("scan", "host_discovery"), ("policy", "data_exfiltration"),
         ("exploit", "service_specific_exploitation"), ("privilege", "user_privilege_escalation"))
LCS_PREFIX = 160


def reference_lines() -> list[str]:
    """The pass's input: EVE-like alert lines built from their index."""
    return [json.dumps({
        "timestamp": f"2021-02-{1 + i % 28:02d}T{i % 24:02d}:{i * 7 % 60:02d}:{i * 13 % 60:02d}"
                     f".{i * 7919 % 10**6:06d}+0000",
        "event_type": "alert",
        "src_ip": f"10.0.{i % 50}.{i % 50 + 1}",
        "dest_port": 1024 + i * 31 % 4096,
        "alert": {"signature": f"ET {('SCAN', 'POLICY', 'EXPLOIT', 'TROJAN')[i % 4]} probe {i % 97} attempt",
                  "category": ("Detection of a Network Scan", "Attempted User Privilege Gain")[i % 2],
                  "severity": 1 + i % 3},
    }) for i in range(30_000)]


def reference_pass(lines: list[str]) -> float:
    """Wall time of one pass over ``lines``."""
    started = time.perf_counter()
    rows = []
    for line in lines:
        event = json.loads(line)
        ts = datetime.strptime(event["timestamp"], "%Y-%m-%dT%H:%M:%S.%f%z")
        family = SIGNATURE.search(event["alert"]["signature"])["family"].lower()
        text = f"{family} {event['alert']['category'].lower()}"
        label = next((micro for needle, micro in RULES if needle in text), "unclassified")
        rows.append((event["src_ip"], ts.isoformat(), label, event["dest_port"]))
    rows.sort()
    groups: dict[str, list[str]] = {}
    for src, _, label, _ in rows:
        groups.setdefault(src, []).append(label)
    csv.writer(io.StringIO()).writerows(rows)
    keys = sorted(groups)
    for left, right in zip(keys, keys[1:]):
        lcs_length(groups[left][:LCS_PREFIX], groups[right][:LCS_PREFIX])
    return time.perf_counter() - started


def lcs_length(a: list[str], b: list[str]) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


def main() -> int:
    lines = reference_lines()
    for _ in sys.stdin:
        print(json.dumps(reference_pass(lines)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
