"""Repository hygiene invariants.

Build artifacts must never be tracked: a committed ``.pyc`` serves the
wrong bytecode to whoever checks out next, and churns every diff.
These tests pin the invariant (and that ``.gitignore`` keeps new
clutter out) so it cannot regress silently.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    try:
        return subprocess.run(
            ["git", *args],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=30,
        ).stdout
    except (OSError, subprocess.CalledProcessError, subprocess.TimeoutExpired):
        pytest.skip("not a usable git checkout")


def test_no_bytecode_or_cache_dirs_are_tracked():
    tracked = git("ls-files").splitlines()
    offenders = [
        path for path in tracked
        if path.endswith((".pyc", ".pyo")) or "__pycache__" in path
    ]
    assert offenders == [], (
        "generated bytecode is tracked; "
        f"run 'git rm -r --cached' on: {offenders}"
    )


def test_gitignore_covers_bytecode_everywhere():
    probes = [
        "src/repro/__pycache__/cli.cpython-311.pyc",
        "tests/__pycache__/x.pyc",
        "benchmarks/output/BENCH_service_throughput.json",
        "benchmarks/output/bench_fastpath.txt",
        "runtime.sock",
    ]
    try:
        result = subprocess.run(
            ["git", "check-ignore", "--no-index", *probes],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        pytest.skip("not a usable git checkout")
    # exit 0: all ignored; 1: some not ignored; >1: real git error
    if result.returncode > 1:
        pytest.skip(f"git check-ignore unavailable: {result.stderr}")
    assert sorted(result.stdout.split()) == sorted(probes)


def test_transient_bench_metrics_are_not_tracked():
    tracked = git("ls-files", "benchmarks/output").splitlines()
    offenders = [p for p in tracked if Path(p).name.startswith("BENCH_")]
    assert offenders == [], (
        "BENCH_*.json are per-run measurements; the committed reference "
        f"is benchmarks/baselines.json — untrack: {offenders}"
    )
