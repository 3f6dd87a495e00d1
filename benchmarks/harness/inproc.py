"""One pass of an in-process workload, in a fresh interpreter.

``run.py`` starts this script once per pass, so compile caches, the
planner cache and RSS start cold and identical every time::

    python benchmarks/harness/inproc.py '{"workload": "plan_stream", ...}'

The single argument is a JSON object (workload, seed, pass spec, scale,
trace flag, optional spans path, setup-only flag).  The pass prints one
JSON record: the monotonic instant of its first op (the parent turns
that into ``setup_s``), the op count, each op's end and latency, failures
found by the correctness checks, peak RSS, and, when traced, the
per-layer span breakdown and work counters.

An op is one planning request (``plan_stream``), one simulated exchange
(``reproduce``) or one chaos cell (``chaos``).  The op span is recorded
on every pass; the layer spans only when tracing.
"""

from __future__ import annotations

import json
import sys
from collections import Counter

import inputs
from spans import Tracer, breakdown, now


def peak_rss_mb() -> float:
    """Peak resident set size of this process (``VmHWM``), in MB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def counting_grid(counters: Counter):
    def around(grid):
        def counted(*args, **kwargs):
            out = grid(*args, **kwargs)
            counters["vectorized.cells"] += out.size
            return out

        return counted

    return around


def counting_run(counters: Counter):
    def around(run):
        def counted(self, *args, **kwargs):
            before = self.engine.n_events
            result = run(self, *args, **kwargs)
            counters["engine.boots"] += 1
            counters["engine.events"] += self.engine.n_events - before
            return result

        return counted

    return around


def install_layers(tracer: Tracer, counters: Counter, op_name: str) -> None:
    """Timing wrappers at every pricing/engine layer boundary except the
    one already wrapped as the op span."""
    from repro.comm.program import SimulatedExchange
    from repro.plan.planner import CollectivePlanner
    from repro.sim.machine import SimulatedHypercube

    layers = [
        ("repro.plan.patterns", "plan_pattern", "patterns.plan_pattern", None),
        ("repro.core.programs", "pattern_program", "programs.build", None),
        ("repro.sim.fastpath", "compile_program", "fastpath.compile", None),
        ("repro.sim.fastpath", "compile_schedule", "fastpath.compile", None),
        ("repro.sim.fastpath", "program_time", "fastpath.price", None),
        ("repro.sim.fastpath", "exchange_time", "fastpath.price", None),
        ("repro.model.vectorized", "multiphase_time_grid", "vectorized.grid",
         counting_grid(counters)),
        ("repro.comm.program", "simulate_exchange", "engine.exchange", None),
        ("repro.analysis.chaos", "run_degraded_workload", "chaos.cell", None),
    ]
    for module, attr, name, around in layers:
        if name != op_name:
            tracer.patch_everywhere(module, attr, name, around)
    tracer.patch(CollectivePlanner, "decide", "planner.decide")
    tracer.patch(SimulatedExchange, "verify", "verify")
    tracer.patch(SimulatedHypercube, "run", "engine.run", counting_run(counters))


def compile_cache_counts() -> tuple[int, int]:
    """(hits, misses) of the fast path's compile caches."""
    from repro.sim import fastpath

    hits = misses = 0
    for name in ("_compile_program", "_compile_schedule"):
        info = getattr(fastpath, name).cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


class Pass:
    """Shared bookkeeping: failures, counters, the tracer."""

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.tracer = Tracer()
        self.counters: Counter = Counter()
        self.failures: list[str] = []
        self.failed = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


# ----------------------------------------------------------------------
# the three workloads: each sets up, returns (run, op_name)
# ----------------------------------------------------------------------
def plan_stream(job: dict, state: Pass):
    from repro.analysis.validation import rel_drift
    from repro.model.params import ipsc860
    from repro.plan import patterns
    from repro.plan.planner import CollectivePlanner
    from repro.plan.policies import ModelPolicy
    from repro.sim import fastpath

    requests = inputs.plan_requests(job["seed"], job["scale"]["plan_stream"]["requests"])
    params = ipsc860()
    planner = CollectivePlanner(ModelPolicy(params))

    def request(d: int, m: float) -> float:
        decision = planner.decide(d, m)
        for pattern in patterns.PATTERNS:
            patterns.plan_pattern(pattern, m, d, params, planner=planner)
        replay = fastpath.exchange_time(d, m, decision.partition, params)
        return rel_drift(decision.predicted_us, replay)

    request = state.tracer.wrap("plan.request", request)

    def run() -> int:
        cache_before = compile_cache_counts()
        for d, m in requests:
            drift = request(d, m)
            if drift is None or drift >= 0.01:
                state.fail(f"fast-path replay drift {drift!r} at d={d} m={m}")
        hits, misses = (a - b for a, b in zip(compile_cache_counts(), cache_before))
        state.counters.update({
            "planner.decisions": planner.stats.decisions,
            "planner.cache_hits": planner.stats.cache_hits,
            "fastpath.compile_hits": hits,
            "fastpath.compile_misses": misses,
        })
        return len(requests)

    return run, "plan.request"


def reproduce(job: dict, state: Pass):
    from repro.analysis import figures
    from repro.analysis.hull import PAPER_HULLS
    from repro.analysis.validation import rel_drift
    from repro.comm import program
    from repro.core.partitions import canonical
    from repro.model.cost import multiphase_time
    from repro.model.params import ipsc860

    configs = inputs.reproduce_configs(job["scale"])
    state.tracer.patch_everywhere("repro.comm.program", "simulate_exchange", "engine.exchange")
    params = ipsc860()

    def run() -> int:
        for figure, _ in job["scale"]["reproduce"]["figures"]:
            data = figures.figure_data(figure, params=params, simulate=False)
            hull = tuple(canonical(p) for p in data.hull_partitions)
            if hull != tuple(canonical(p) for p in PAPER_HULLS[data.spec.d]):
                state.fail(f"figure {figure}: hull {hull} differs from the paper's")
        # the figures' byte-verified exchanges, one figure's point at a time
        for figure, d, partition, m in configs:
            measured = program.simulate_exchange(d, m, tuple(partition), params).time_us
            predicted = multiphase_time(m, d, partition, params)
            drift = rel_drift(predicted, measured)
            if drift is None or drift > 0.01:
                state.fail(
                    f"figure {figure}: {partition} at m={m} measured {measured:.1f} us "
                    f"vs predicted {predicted:.1f} us"
                )
        return len(configs)

    return run, "engine.exchange"


def chaos(job: dict, state: Pass):
    from repro.analysis import chaos as chaos_mod

    shape = job["scale"]["chaos"]
    state.tracer.patch_everywhere("repro.analysis.chaos", "run_degraded_workload", "chaos.cell")

    def run() -> int:
        report = chaos_mod.chaos_sweep(shape["d"], shape["m"], seed=job["spec"])
        for cell in report.cells:
            if cell.n_drops:
                state.fail(
                    f"chaos seed {job['spec']}: {cell.n_drops} dropped messages in "
                    f"cell ({cell.failure_rate}, {cell.straggler_scale}, {cell.policy})"
                )
        state.counters["faults.retries"] += sum(c.n_retries for c in report.cells)
        state.counters["chaos.switches"] += sum(c.n_switches for c in report.cells)
        return len(report.cells)

    return run, "chaos.cell"


WORKLOADS = {"plan_stream": plan_stream, "reproduce": reproduce, "chaos": chaos}


def main(job: dict) -> dict:
    state = Pass(job["trace"])
    run, op_name = WORKLOADS[job["workload"]](job, state)
    if state.trace:
        install_layers(state.tracer, state.counters, op_name)
    t_first = now()
    if job.get("setup_only"):
        return {"t_first": t_first, "n_ops": 0}
    n_ops = run()
    t_end = now()
    spans = state.tracer.spans
    ops = [s for s in spans if s[0] == op_name]
    record = {
        "t_first": t_first,
        "wall_s": t_end - t_first,
        "n_ops": n_ops,
        "failed": state.failed,
        "failures": state.failures,
        "done": [s[2] for s in ops],
        "lat_us": [(s[2] - s[1]) * 1e6 for s in ops],
        "rss_mb": peak_rss_mb(),
    }
    if state.trace:
        record["layers"] = breakdown(spans, t_first, t_end)
        record["counters"] = dict(state.counters)
        if job.get("spans_path"):
            state.tracer.dump(job["spans_path"])
    return record


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
