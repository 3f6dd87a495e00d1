"""Host speed, measured while the benchmark runs, and timings in reference seconds.

The reference box is two vCPUs of a shared VM.  Another tenant on a
CPU's hyperthread sibling slows all work on that CPU by up to 1.5x, for
seconds to minutes at a time, and each of the two CPUs on its own
schedule: wall times of identical 10-second runs spread by 20 to 40%
(README, Reference time).  No statistic of one run's wall times removes
that, so each run measures the speed of the CPU it runs on and reports
timings in reference seconds:

- :func:`pinned` puts the run's processes (the harness, the server or
  worker, and everything they start) on one CPU;
- a :class:`Sampler` process on that CPU times a fixed probe every
  :data:`PROBE_EVERY_S`; the CPU's speed at that instant is
  :data:`REFERENCE_PROBE_S` over the probe's CPU time;
- a :class:`ReferenceClock` integrates that speed over time, so an
  interval's reference seconds are what the same work takes on an
  uncontended CPU of the reference box.

The probe is this file's fixed work, never the program's, so code that
does more work still reads slower, stalls included.  It mixes the two
kinds of work the program's time goes to, interpreter object work and
socket system calls, because contention slows them by different
amounts.  It is timed in the sampler's CPU time, so the time the CPU
spends on the program between probes is not billed to it.

Run as a script, this file is the sampler: it probes until its standard
input closes, then prints the samples as JSON.
"""

from __future__ import annotations

import gc
import json
import os
import select
import socket
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

now = time.monotonic

#: seconds between probes
PROBE_EVERY_S = 0.05
#: CPU time of one probe on an uncontended CPU of the reference box
REFERENCE_PROBE_S = 230e-6
#: probes per rolling median, so one probe hit by an interrupt moves nothing
SMOOTH = 3


@contextmanager
def pinned():
    """Run the calling thread, and every process it starts meanwhile,
    on one CPU (the highest it may use)."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class _Item:
    __slots__ = ("key", "size")

    def __init__(self, key: int, size: tuple[int, int]) -> None:
        self.key = key
        self.size = size


def probe(send: socket.socket, recv: socket.socket) -> float:
    """CPU seconds of the fixed probe work, with the garbage collector off."""
    gc.disable()
    try:
        start = time.thread_time()
        index: dict = {}
        sizes = []
        for i in range(300):
            item = _Item(i, (i, i + 1))
            index[(i & 31, item.size)] = item
            sizes.append(item.key + len(item.size))
        sizes.sort(reverse=True)
        message = b"x" * 64
        for _ in range(60):
            send.send(message)
            recv.recv(64)
        return time.thread_time() - start
    finally:
        gc.enable()


def sample_until_eof() -> None:
    """The sampler: probe every :data:`PROBE_EVERY_S` until standard
    input closes, then print ``[[instant, probe CPU seconds], ...]``."""
    send, recv = socket.socketpair()
    samples = [(now(), probe(send, recv))]
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], PROBE_EVERY_S)[0]:
        samples.append((now(), probe(send, recv)))
    json.dump(samples, sys.stdout)


class Sampler:
    """The sampler in a process of its own, on the CPUs its creator may
    use: inside :func:`pinned`, the run's one CPU.  Its samples are in
    :attr:`samples` once the ``with`` block ends."""

    def __enter__(self) -> Sampler:
        self.samples: list[list[float]] = []
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        if self._proc.stdout.readline() != "ready\n":
            self._stop()
            raise RuntimeError("the speed sampler did not start")
        return self

    def _stop(self) -> str:
        self._proc.stdin.close()
        out = self._proc.stdout.read()
        self._proc.wait()
        return out

    def __exit__(self, *exc) -> None:
        out = self._stop()
        if exc[0] is None:
            self.samples = json.loads(out)


class ReferenceClock:
    """Reference seconds at any instant, from a sampler's samples in
    time order (their instants are :func:`time.monotonic`, one clock for
    every process).  Speed is interpolated between samples and held
    beyond the first and last."""

    def __init__(self, samples: list) -> None:
        if not samples:
            raise RuntimeError("no speed samples: the run never probed its CPU")
        t, cpu_s = np.array(samples, dtype=float).T
        half = SMOOTH // 2
        window = np.lib.stride_tricks.sliding_window_view(
            np.pad(cpu_s, half, mode="edge"), SMOOTH
        )
        speed = REFERENCE_PROBE_S / np.median(window, axis=1)
        self._t = np.concatenate([[t[0] - 1e6], t, [t[-1] + 1e6]])
        speed = np.concatenate([[speed[0]], speed, [speed[-1]]])
        self._ref = np.concatenate(
            [[0.0], np.cumsum(np.diff(self._t) * (speed[1:] + speed[:-1]) / 2)]
        )

    def __call__(self, t):
        """Reference seconds since an arbitrary origin at instant(s) ``t``."""
        return np.interp(t, self._t, self._ref)

    def seconds(self, t0: float, t1: float) -> float:
        """Reference seconds between two instants."""
        return float(self(t1) - self(t0))


if __name__ == "__main__":
    sample_until_eof()
