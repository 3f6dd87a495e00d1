"""Kill-a-node chaos test: SIGKILL a replica mid-load, lose nothing.

A real cluster — coordinator + three ``repro cluster join`` nodes as
subprocesses, replication 2 — takes pipelined load through the public
:func:`repro.service.connect` API while one node is SIGKILLed.  The
acceptance bar from the fabric design: **zero failed queries, zero
duplicated answers**, the coordinator marks the node dead within the
heartbeat window, and ``repro cluster status`` reflects it.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.fabric import RetryPolicy
from repro.service import connect

SRC = str(Path(__file__).resolve().parents[2] / "src")
HEARTBEAT_S = 0.2
MISS_LIMIT = 2


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _spawn(args: list[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args],
        env={**os.environ, "PYTHONPATH": SRC},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _cli_status(coordinator: str) -> dict:
    out = subprocess.run(
        [sys.executable, "-m", "repro.cli", "cluster", "status", coordinator, "--json"],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=10,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def _wait_alive(coordinator: str, count: int, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            status = _cli_status(coordinator)
        except (AssertionError, json.JSONDecodeError, subprocess.TimeoutExpired):
            status = {"nodes": []}
        alive = [n for n in status["nodes"] if n["state"] == "alive"]
        if len(alive) >= count:
            return
        time.sleep(0.2)
    raise AssertionError(f"cluster never reached {count} alive nodes")


@pytest.fixture()
def live_cluster():
    """Coordinator + 3 joined nodes (replication 2) as subprocesses."""
    coordinator = f"127.0.0.1:{_free_port()}"
    procs = [_spawn([
        "cluster", "coordinator", coordinator, "--replication", "2",
        "--heartbeat-s", str(HEARTBEAT_S), "--miss-limit", str(MISS_LIMIT),
    ])]
    try:
        time.sleep(0.5)
        procs.extend(
            _spawn(["cluster", "join", coordinator, "--listen", "127.0.0.1:0"])
            for _ in range(3)
        )
        _wait_alive(coordinator, 3)
        yield coordinator, procs
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()


QUERIES = [(d, float(m)) for d in range(3, 9) for m in (8, 40, 100)]


def test_sigkill_mid_load_loses_nothing(live_cluster):
    coordinator, procs = live_cluster
    node_procs = procs[1:]
    status = _cli_status(coordinator)
    assert [n["state"] for n in status["nodes"]] == ["alive"] * 3

    answered: Counter = Counter()
    rounds = 12
    kill_round = 4
    killed_at = None
    with connect(
        f"cluster:{coordinator}",
        retry=RetryPolicy(attempts=6, base_delay_s=0.05, max_delay_s=0.5),
    ) as client:
        for round_no in range(rounds):
            if round_no == kill_round:
                node_procs[0].send_signal(signal.SIGKILL)
                killed_at = time.monotonic()
            # query_many raises RouteError on any lost query; a short
            # answer list or a non-ok doc would be a failed query
            results = client.query_many(QUERIES)
            assert len(results) == len(QUERIES)
            for result in results:
                assert result["ok"], result
                answered[(result["d"], result["m"])] += 1

    # exactly one answer per query per round: nothing lost, nothing doubled
    assert answered == Counter({(d, m): rounds for d, m in QUERIES})

    # the coordinator noticed the death within the heartbeat window
    # (SIGKILL drops the registration connection, so usually instantly)
    deadline = killed_at + HEARTBEAT_S * MISS_LIMIT + 2.0
    while True:
        states = Counter(n["state"] for n in _cli_status(coordinator)["nodes"])
        if states.get("dead") == 1:
            break
        assert time.monotonic() < deadline, f"death never observed: {states}"
        time.sleep(0.1)
    assert states["alive"] == 2

    # and the survivors still answer through the refreshed routes
    with connect(f"cluster:{coordinator}") as client:
        follow_up = client.query_many(QUERIES)
    assert all(result["ok"] for result in follow_up)
    assert len(follow_up) == len(QUERIES)
