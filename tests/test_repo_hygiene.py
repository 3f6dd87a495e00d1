"""Repository hygiene invariants.

Build artifacts must never be tracked: a committed ``.pyc`` serves the
wrong bytecode to whoever checks out next, and churns every diff.
These tests pin the invariant (and that ``.gitignore`` keeps new
clutter out) so it cannot regress silently.  A child process a test
starts inherits the caller's environment, ``PYTHONDONTWRITEBYTECODE``
included, so a test run leaves no bytecode under ``src/``.
"""

from __future__ import annotations

import ast
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


def _bare_env_lines(source: str) -> list[int]:
    """Lines of every ``env=`` literal dict that does not spread
    ``os.environ``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.keyword) and node.arg == "env" and isinstance(node.value, ast.Dict):
            dict_ = node.value
            spread = [value for key, value in zip(dict_.keys, dict_.values) if key is None]
            if not any(ast.unparse(value) == "os.environ" for value in spread):
                lines.append(node.value.lineno)
    return lines


def test_the_env_check_catches_a_bare_env():
    assert _bare_env_lines('run(cmd, env={"PYTHONPATH": SRC, "PATH": "/bin"})') == [1]
    assert _bare_env_lines('run(cmd, env={**os.environ, "PYTHONPATH": SRC})') == []


def test_child_processes_inherit_the_callers_environment():
    files = [
        path
        for root in ("tests", "benchmarks")
        for path in sorted((REPO_ROOT / root).rglob("*.py"))
        if "harness" not in path.relative_to(REPO_ROOT).parts
    ]
    offenders = [
        f"{path.relative_to(REPO_ROOT)}:{line}"
        for path in files
        for line in _bare_env_lines(path.read_text())
    ]
    assert offenders == [], (
        "build a child's env as {**os.environ, ...} so it keeps the caller's "
        f"PYTHONDONTWRITEBYTECODE: {offenders}"
    )
