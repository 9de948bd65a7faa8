"""The launcher must report each child's own peak RSS, not its parent's."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402


def test_child_rss_excludes_the_benchmark_process(tmp_path):
    ballast = bytearray(150 * 2**20)
    for i in range(0, len(ballast), 4096):
        ballast[i] = 1
    launcher = run.Launcher()
    try:
        sample = launcher.run([sys.executable, "-c", "pass"], tmp_path, tmp_path / "log")
    finally:
        launcher.close()
    del ballast
    assert sample.code == 0
    assert 0 < sample.rss_mb < 100
    assert sample.wall_s > 0 and sample.cpu_s > 0
