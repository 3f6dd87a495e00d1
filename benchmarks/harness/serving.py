"""Serving workloads: a real ``repro serve`` subprocess under closed-loop load.

The load generator is this process: one asyncio loop, no threads, and
at most ``nproc`` connections (2 on the reference box).  Each connection
is a planner that keeps ``depth`` request frames (binary) or batch lines
(JSON) of 32 queries in flight and sends the next one only when an
answer arrives.  All request bytes are encoded before the clock starts;
answers are checked only after it stops.  ``run.py`` pins this process,
and so the shard builds and servers it starts, to one CPU.

Window: ``warmup_s`` of load, then a ``{"op": "stats"}`` snapshot and
the start of the ``seconds``-long measured window, then a second
snapshot.  ``run.py`` turns the window's answer times and latencies
into the end-to-end metrics.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

import numpy as np

import inputs
import spans

HERE = Path(__file__).resolve().parent
HEADER = struct.Struct("<4sBBHI")
HEADER_BYTES = HEADER.size
#: binary opcodes used below (see repro.service.wire); the harness
#: decodes answers itself so a codec bug cannot hide behind itself
OP_HELLO_OK, OP_RESULT = 2, 4
#: a run whose load generator takes more than this share of the CPU it
#: shares with the server measures the client, not the server
CLIENT_BOUND_FRAC = 0.5


# ----------------------------------------------------------------------
# the server under test
# ----------------------------------------------------------------------
def read_proc_status(pid: int, key: str) -> float:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith(key + ":"):
                return float(line.split()[1])
    raise RuntimeError(f"no {key} for pid {pid}")


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of a live process."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rpartition(")")[2].split()
    # fields[11], fields[12] are utime and stime (stat fields 14, 15)
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def build_shards(root: Path, workdir: Path, index: int) -> Path:
    """``repro shards DIR``: the default preset's tables for d in 2..8."""
    shard_dir = workdir / f"shards{index}"
    subprocess.run(
        [sys.executable, "-m", "repro", "shards", str(shard_dir)],
        cwd=workdir, env={**os.environ, "PYTHONPATH": str(root / "src")},
        check=True, timeout=170, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    return shard_dir


class Server:
    """``repro serve --shards DIR --socket unix:PATH`` with the default
    server configuration, or its traced twin when ``spans_path`` is set."""

    def __init__(self, root: Path, workdir: Path, shard_dir: Path, name: str,
                 spans_path: Path | None = None):
        self.workdir = workdir
        self.shard_dir = shard_dir
        self.sock_name = f"{name}.sock"
        sock = workdir / self.sock_name
        # AF_UNIX paths are capped near 108 bytes: connect by the
        # shorter of the absolute and the cwd-relative spelling
        self.sock_path = min(str(sock), os.path.relpath(sock), key=len)
        self.spans_path = spans_path
        self.proc: subprocess.Popen | None = None
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}

    def start(self) -> None:
        """Start the server and wait until it answers a HELLO."""
        serve_args = ["--shards", str(self.shard_dir), "--socket", f"unix:{self.sock_name}"]
        if self.spans_path is None:
            argv = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            argv = [sys.executable, str(HERE / "traced_server.py"), str(self.spans_path),
                    *serve_args]
        with open(self.workdir / "server.log", "ab") as log:
            self.proc = subprocess.Popen(
                argv, cwd=self.workdir, env=self.env, stdout=log, stderr=log
            )
        self.catalog = self._await_hello(deadline=spans.now() + 170.0)

    def _await_hello(self, deadline: float) -> list[str]:
        from repro.service import wire

        hello = wire.pack_frame(wire.OP_HELLO, wire.hello_payload())
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}; see "
                    f"{self.workdir / 'server.log'}"
                )
            try:
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                    sock.settimeout(10.0)
                    sock.connect(self.sock_path)
                    sock.sendall(hello)
                    opcode, payload = read_frame_blocking(sock)
                if opcode != OP_HELLO_OK:
                    raise RuntimeError(f"server answered HELLO with opcode {opcode}")
                return json.loads(payload)["presets"]
            except (FileNotFoundError, ConnectionRefusedError):
                if spans.now() > deadline:
                    raise RuntimeError("server did not start listening in time") from None
                time.sleep(0.005)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def peak_rss_mb(self) -> float:
        return read_proc_status(self.pid, "VmHWM") / 1024.0

    def stop(self) -> None:
        """SIGTERM (a graceful drain; the traced server writes its spans
        on the way out), then wait; kill if it does not exit."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def read_frame_blocking(sock: socket.socket) -> tuple[int, bytes]:
    def exactly(n: int) -> bytes:
        buf = b""
        while len(buf) < n:
            chunk = sock.recv(n - len(buf))
            if not chunk:
                raise ConnectionRefusedError("server closed the connection")
            buf += chunk
        return buf

    _, _, opcode, _, length = HEADER.unpack(exactly(HEADER_BYTES))
    return opcode, exactly(length) if length else b""


# ----------------------------------------------------------------------
# request frames, encoded before the clock starts
# ----------------------------------------------------------------------
class Frames:
    """The workload's endless frame stream: frame ``i`` is always the
    same bytes.  Hot streams cycle a pool of 16 blocks (their 256 cells
    repeat anyway); the cold stream pre-encodes enough blocks for
    ``qps_cap`` queries per second and extends itself if a run outpaces
    that, so no cold query is ever sent twice."""

    def __init__(self, workload: str, seed: int, preset_id: int, seconds: float,
                 qps_cap: float = 100_000.0):
        self.workload = workload
        self.seed = seed
        self.preset_id = preset_id
        self.json_wire = workload.endswith("_json")
        self.cycle = None if workload == "serve_cold_binary" else 16
        if self.cycle is None:
            wanted = qps_cap * seconds / (inputs.QUERIES_PER_FRAME * inputs.FRAMES_PER_BLOCK)
            n_blocks = max(1, int(np.ceil(wanted)))
        else:
            n_blocks = self.cycle
        self.blocks = [self._encode(block) for block in range(n_blocks)]

    def _encode(self, block: int) -> list[bytes]:
        from repro.service import wire

        d, m = inputs.query_block(self.workload, self.seed, block)
        if self.json_wire:
            return [
                json.dumps({"queries": [{"d": di, "m": mi} for di, mi in zip(dr, mr)]})
                .encode() + b"\n"
                for dr, mr in zip(d.tolist(), m.tolist())
            ]
        records = np.empty(d.shape, dtype=wire.QUERY_DTYPE)
        records["preset"] = self.preset_id
        records["d"] = d
        records["m"] = m
        return [wire.pack_frame(wire.OP_QUERY, row.tobytes()) for row in records]

    def frame(self, i: int) -> bytes:
        block, row = divmod(i, inputs.FRAMES_PER_BLOCK)
        if self.cycle is not None:
            block %= self.cycle
        while block >= len(self.blocks):
            self.blocks.append(self._encode(len(self.blocks)))
        return self.blocks[block][row]

    def queries(self, i: int) -> list[tuple[int, float]]:
        block, row = divmod(i, inputs.FRAMES_PER_BLOCK)
        if self.cycle is not None:
            block %= self.cycle
        d, m = inputs.query_block(self.workload, self.seed, block)
        return list(zip(d[row].tolist(), m[row].tolist()))


# ----------------------------------------------------------------------
# answer checking (after the clock stops)
# ----------------------------------------------------------------------
def decode_result(payload: bytes) -> list[tuple[tuple[int, ...], float]]:
    """``(partition, time_us)`` per query from an ``OP_RESULT`` payload:
    ``u32 count | f64 time[count] | u8 source[count] | u8 nparts[count] |
    u8 parts[sum(nparts)]``.  Raises ValueError on any inconsistency."""
    if len(payload) < 4:
        raise ValueError("result payload shorter than its count")
    (count,) = struct.unpack_from("<I", payload)
    head = 4 + 10 * count
    if len(payload) < head:
        raise ValueError(f"result payload of {len(payload)} bytes too short for {count}")
    times = np.frombuffer(payload, "<f8", count, 4).tolist()
    nparts = np.frombuffer(payload, np.uint8, count, 4 + 9 * count).tolist()
    if len(payload) != head + sum(nparts):
        raise ValueError("result payload length disagrees with its partition counts")
    parts = payload[head:]
    out, cursor = [], 0
    for k, t in zip(nparts, times):
        out.append((tuple(parts[cursor:cursor + k]), t))
        cursor += k
    return out


def decode_json(line: bytes) -> list[tuple[tuple[int, ...], float]]:
    doc = json.loads(line)
    if not doc.get("ok"):
        raise ValueError(f"error answer: {doc.get('error')}")
    return [(tuple(r["partition"]), r["time_us"]) for r in doc["results"]]


def check_answers(samples, expected, json_wire: bool) -> tuple[int, list[str]]:
    """Compare recorded answers with ``expected(queries)``.

    ``samples`` holds ``(queries, raw)`` pairs: the ``(d, m)`` list a
    frame carried and the raw answer (``OP_RESULT`` payload or JSON
    line).  Returns the number of wrong or undecodable query answers and
    a few messages describing them."""
    failed, messages = 0, []
    for queries, raw in samples:
        try:
            got = decode_json(raw) if json_wire else decode_result(raw)
            if len(got) != len(queries):
                raise ValueError(f"{len(got)} answers for {len(queries)} queries")
        except (ValueError, KeyError, TypeError) as exc:
            failed += len(queries)
            messages.append(f"undecodable answer: {exc}")
            continue
        for (d, m), answer, want in zip(queries, got, expected(queries)):
            if answer != want:
                failed += 1
                messages.append(f"d={d} m={m!r}: served {answer}, resolver says {want}")
    return failed, messages[:20]


def resolver(shard_dir: Path):
    """Ground truth: a fresh registry over the same shard directory."""
    from repro.service.registry import OptimizerRegistry

    registry = OptimizerRegistry.from_shards(shard_dir)

    def expected(queries):
        results = registry.resolve([(inputs.PRESET, d, m) for d, m in queries])
        return [(r.partition, r.time_us) for r in results]

    return expected


# ----------------------------------------------------------------------
# the closed-loop load generator
# ----------------------------------------------------------------------
class Recorder:
    """Per-frame outcomes, split into the measured window and the rest."""

    def __init__(self, sample_every: int, max_samples: int):
        self.w0 = self.w1 = float("inf")
        self.done_at: list[float] = []
        self.latency_us: list[float] = []
        self.bytes = 0
        self.queries = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: list[tuple[int, bytes]] = []
        self.sample_every = sample_every
        self.max_samples = max_samples

    def record(self, i: int, t_sent: float, t_done: float, ok: bool, raw: bytes,
               sent_bytes: int, nq: int) -> None:
        self.attempted += nq
        if not ok:
            self.failed += nq
            if len(self.errors) < 20:
                self.errors.append(raw[:200].decode("utf-8", "replace"))
        elif i % self.sample_every == 0 and len(self.samples) < self.max_samples:
            self.samples.append((i, raw))
        if self.w0 <= t_done < self.w1:
            self.done_at.append(t_done)
            self.latency_us.append((t_done - t_sent) * 1e6)
            self.bytes += sent_bytes + len(raw)
            self.queries += nq


async def _connection(path, frames: Frames, c: int, n_conns: int, depth: int,
                      rec: Recorder, stop: asyncio.Event) -> None:
    from repro.service import wire

    reader, writer = await asyncio.open_unix_connection(path)
    try:
        if not frames.json_wire:
            writer.write(wire.pack_frame(wire.OP_HELLO, wire.hello_payload()))
            _, _, opcode, _, length = HEADER.unpack(await reader.readexactly(HEADER_BYTES))
            await reader.readexactly(length)
            if opcode != OP_HELLO_OK:
                raise RuntimeError(f"HELLO answered with opcode {opcode}")
        inflight: deque = deque()
        sent = 0

        def send() -> None:
            nonlocal sent
            i = c + sent * n_conns
            sent += 1
            frame = frames.frame(i)
            inflight.append((i, spans.now(), len(frame)))
            writer.write(frame)

        for _ in range(depth):
            send()
        nq = inputs.QUERIES_PER_FRAME
        while inflight:
            if frames.json_wire:
                raw = await reader.readline()
                if not raw:
                    raise ConnectionError("server closed the connection")
                ok = raw.startswith(b'{"ok": true')
                header_len = 0
            else:
                header = await reader.readexactly(HEADER_BYTES)
                _, _, opcode, _, length = HEADER.unpack(header)
                raw = await reader.readexactly(length) if length else b""
                ok = opcode == OP_RESULT
                header_len = HEADER_BYTES
            t_done = spans.now()
            i, t_sent, sent_bytes = inflight.popleft()
            rec.record(i, t_sent, t_done, ok, raw, sent_bytes + header_len, nq)
            if not stop.is_set():
                send()
    finally:
        writer.close()
        await writer.wait_closed()


async def _stats(path) -> dict:
    reader, writer = await asyncio.open_unix_connection(path)
    try:
        writer.write(b'{"op": "stats"}\n')
        return json.loads(await reader.readline())
    finally:
        writer.close()
        await writer.wait_closed()


async def _drive(server: Server, frames: Frames, shape: dict, seconds: float,
                 rec: Recorder) -> dict:
    n_conns = min(2, os.cpu_count() or 1)
    stop = asyncio.Event()
    conns = [
        asyncio.create_task(
            _connection(server.sock_path, frames, c, n_conns, shape["depth"], rec, stop)
        )
        for c in range(n_conns)
    ]
    try:
        await asyncio.sleep(shape["warmup_s"])
        before = await _stats(server.sock_path)
        cpu0, gen0 = proc_cpu_s(server.pid), time.process_time()
        rec.w0 = spans.now()
        await asyncio.sleep(seconds)
        rec.w1 = spans.now()
        cpu1, gen1 = proc_cpu_s(server.pid), time.process_time()
        after = await _stats(server.sock_path)
    finally:
        stop.set()
        await asyncio.gather(*conns)
    return {
        "before": before, "after": after,
        "server_cpu_s": cpu1 - cpu0, "loadgen_cpu_s": gen1 - gen0,
    }


# ----------------------------------------------------------------------
# one serving run
# ----------------------------------------------------------------------
def measure(server: Server, workload: str, seed: int, seconds: float, shape: dict) -> dict:
    """Drive a started server for one window and check sampled answers,
    and that the load generator did not set the pace."""
    frames = Frames(workload, seed, server.catalog.index(inputs.PRESET),
                    shape["warmup_s"] + seconds)
    rec = Recorder(shape["sample_every"], shape["max_samples"])
    window = asyncio.run(_drive(server, frames, shape, seconds, rec))
    rss_mb = server.peak_rss_mb()
    samples = [(frames.queries(i), raw) for i, raw in rec.samples]
    wrong, messages = check_answers(samples, resolver(server.shard_dir), frames.json_wire)
    if not rec.done_at:
        raise RuntimeError("the server answered nothing in the measured window")
    attempted, failed = max(rec.attempted, 1), rec.failed + wrong
    loadgen_frac = window["loadgen_cpu_s"] / (rec.w1 - rec.w0)
    if loadgen_frac > CLIENT_BOUND_FRAC:
        # the whole measurement is invalid: none of its ops count
        failed = attempted
        messages.append(f"INVALID: the load generator used {loadgen_frac:.0%} of the CPU "
                        f"(limit {CLIENT_BOUND_FRAC:.0%}): client-bound")
    return {
        "n_ops": rec.queries,
        "attempted": attempted,
        "failed": failed,
        "failures": rec.errors + messages,
        # one window; each completion is a frame of 32 queries
        "windows": [{"t0": rec.w0, "t1": rec.w1, "done": rec.done_at,
                     "lat_us": rec.latency_us, "ops_each": inputs.QUERIES_PER_FRAME}],
        "rss_mb": rss_mb,
        "wall_s": rec.w1 - rec.w0,
        "window": window,
        "bytes_per_query": rec.bytes / max(rec.queries, 1),
    }


def run(root: Path, workdir: Path, workload: str, seed: int, seconds: float,
        scale: dict, trace: bool) -> tuple[dict, dict | None]:
    """Set up ``scale["serve"]["setups"]`` times (shard build plus a
    server answering HELLO), measure the last server; with ``trace``,
    measure a traced server on the same shards too.  Returns the
    untraced measurements (with the set-up intervals) and the traced
    ones (with the span breakdown of their window), or None."""
    shape = scale["serve"]
    setups = []
    for index in range(shape["setups"]):
        t0 = spans.now()
        shard_dir = build_shards(root, workdir, index)
        server = Server(root, workdir, shard_dir, f"srv{index}")
        try:
            server.start()
            setups.append((t0, spans.now()))
            if index == shape["setups"] - 1:
                plain = measure(server, workload, seed, seconds, shape)
        finally:
            server.stop()
    plain["setups"] = setups
    if not trace:
        return plain, None
    spans_path = workdir / "server-spans.json"
    server = Server(root, workdir, shard_dir, "traced", spans_path)
    try:
        server.start()
        traced = measure(server, workload, seed, seconds, shape)
    finally:
        server.stop()
    window = traced["windows"][0]
    traced["layers"] = spans.breakdown(spans.load(spans_path), window["t0"], window["t1"])
    return plain, traced


def layer_metrics(raw: dict) -> dict:
    """Per-layer metrics of one traced serving run."""
    from repro.service.async_server import LatencyHistogram

    before, after = raw["window"]["before"], raw["window"]["after"]
    reg0, reg1 = before["stats"], after["stats"]
    srv0, srv1 = before["server"], after["server"]
    queries = max(reg1["queries"] - reg0["queries"], 1)
    batches = srv1["batches"] - srv0["batches"]
    layers = raw["layers"]

    def total(name: str) -> float:
        return layers.get(name, {}).get("total_s", 0.0)

    def count(name: str) -> int:
        return int(layers.get(name, {}).get("count", 0))

    def per(name: str, denominator: float) -> float:
        return total(name) * 1e6 / denominator if denominator else 0.0

    frames, lines = count("wire.decode"), count("json.extract")
    # admission-to-write latency of the window: the server histogram's
    # bucket counts after minus before
    hist = LatencyHistogram()
    buckets = dict(map(tuple, srv0["latency"]["buckets"]))
    for bound, c in srv1["latency"]["buckets"]:
        delta = c - buckets.get(bound, 0)
        index = len(hist.BOUNDS) if bound is None else hist.BOUNDS.index(bound)
        hist.counts[index] += delta
        hist.count += delta
    hist.max_us = srv1["latency"]["max_us"]
    return {
        "async_server.flushes_per_kq": batches * 1e3 / queries,
        "async_server.batch_occupancy": (
            (srv1["batched_queries"] - srv0["batched_queries"]) / batches if batches else 0.0
        ),
        "async_server.admit_to_write_p99_us": hist.percentile(99.0),
        "async_server.peak_in_flight": srv1["peak_in_flight"],
        "async_server.cpu_ms_per_kq": raw["window"]["server_cpu_s"] * 1e6 / queries,
        "loadgen.cpu_frac": raw["window"]["loadgen_cpu_s"] / raw["wall_s"],
        "wire.decode_us_per_frame": per("wire.decode", frames),
        "wire.encode_us_per_frame": per("wire.encode", frames),
        "batch.admit_us_per_frame": per("batch.admit", frames),
        "wire.bytes_per_query": raw["bytes_per_query"],
        "json.extract_us_per_line": per("json.extract", lines),
        "json.build_us_per_line": per("json.build", lines),
        "batch.resolve_us_per_query": per("batch.resolve", queries),
        "batch.resolve_self_us_per_query": (
            layers.get("batch.resolve", {}).get("self_s", 0.0) * 1e6 / queries
        ),
        "registry.memo_hit_ratio": (reg1["memo_hits"] - reg0["memo_hits"]) / queries,
        "registry.table_us": per("registry.table", count("registry.table")),
        "vectorized.grid_calls_per_kq": (reg1["grid_calls"] - reg0["grid_calls"]) * 1e3 / queries,
        "vectorized.cells_per_query": (reg1["grid_cells"] - reg0["grid_cells"]) / queries,
        "vectorized.grid_us_per_call": per("vectorized.grid", count("vectorized.grid")),
    }
