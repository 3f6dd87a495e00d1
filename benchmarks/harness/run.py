#!/usr/bin/env python3
"""One seeded benchmark for both hot paths: serving and pricing.

Usage, from the root of a checkout::

    python3 benchmarks/harness/run.py --workload <name|all> --seed N \
        [--seconds 10] [--trace 0|1] [--out DIR]

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same work once untraced and once with layer spans
and prints the per-layer metrics instead (plus ``trace.overhead``, the
traced run's throughput loss).  Every metric is printed by name with its
unit, after an environment fingerprint and the SHA-256 digest of the
generated inputs; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit status is
0 when every correctness check passed, 1 when one failed, 2 when the
benchmark could not run (no program to measure, bad arguments, a crashed
process); only the first two print the JSON line.

Each workload runs its program in fresh Python subprocesses (a
``repro serve`` server, or one ``inproc.py`` interpreter per pass), so
caches, memo and RSS start cold and identical.  All of a workload's
processes run on one CPU, whose speed is probed throughout, and every
timing is reported in reference seconds (``speed.py``), with its wall
time reading next to it.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np

import inputs
import serving
import spans
from speed import ReferenceClock, Sampler, pinned

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def bootstrap(root: Path = ROOT) -> None:
    """Put the checkout's ``src/`` first on the import path, and refuse
    to run without it: measuring an installed copy would measure the
    wrong program."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise RuntimeError(f"no program to benchmark: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise RuntimeError(f"imported repro from {repro.__file__}, not {src}")


def declared(root: Path = ROOT) -> dict[str, dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    doc = json.loads((root / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in doc[kind]} for kind in ("end_to_end", "per_layer")}


def fingerprint(root: Path = ROOT) -> dict:
    commit = "unknown"
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "pinned_cpu": max(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


# ----------------------------------------------------------------------
# in-process workloads: one inproc.py interpreter per pass
# ----------------------------------------------------------------------
def pass_specs(workload: str, seed: int, scale: dict) -> list:
    """One spec per pass of a round: a chaos sweep seed each, else one
    pass with no spec."""
    return inputs.chaos_seeds(seed, scale) if workload == "chaos" else [None]


def windows(records: list[dict]) -> list[dict]:
    """Each pass as a measurement window of single ops."""
    return [
        {"t0": r["t_first"], "t1": r["t_first"] + r["wall_s"], "done": r["done"],
         "lat_us": r["lat_us"], "ops_each": 1}
        for r in records
    ]


def spawn_pass(job: dict, workdir: Path) -> dict:
    """One pass; its set-up runs from the spawn to the pass's first op."""
    t0 = spans.now()
    proc = subprocess.run(
        [sys.executable, str(HERE / "inproc.py"), json.dumps(job)],
        cwd=workdir, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{job['workload']} pass failed:\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup"] = (t0, record["t_first"])
    return record


def run_rounds(workload: str, seed: int, scale: dict, trace: bool, workdir: Path,
               *, seconds: float | None = None, rounds: int | None = None) -> list[dict]:
    """Whole rounds of the workload's passes: ``rounds`` of them, or as
    many as fit in ``seconds`` (at least one)."""
    specs = pass_specs(workload, seed, scale)
    records: list[dict] = []
    t_start, done = spans.now(), 0
    while True:
        t_round = spans.now()
        for k, spec in enumerate(specs):
            job = {"workload": workload, "seed": seed, "spec": spec, "scale": scale,
                   "trace": trace}
            if trace:
                job["spans_path"] = str(workdir / f"spans-{workload}-{done}-{k}.json")
            records.append(spawn_pass(job, workdir))
        done += 1
        if rounds is not None:
            if done >= rounds:
                return records
        elif spans.now() - t_start + (spans.now() - t_round) > seconds:
            return records


def run_inproc(workload: str, seed: int, seconds: float, trace: bool, scale: dict,
               workdir: Path) -> tuple[dict, dict | None]:
    """The untraced rounds (with their set-up intervals), and with
    ``trace`` the same number of traced rounds (with their span
    breakdown), or None."""
    records = run_rounds(workload, seed, scale, False, workdir, seconds=seconds)
    setup_only = {"workload": workload, "seed": seed, "scale": scale, "trace": False,
                  "spec": pass_specs(workload, seed, scale)[0], "setup_only": True}
    spare = [spawn_pass(setup_only, workdir) for _ in range(scale["min_setups"] - len(records))]
    n_ops = sum(r["n_ops"] for r in records)
    plain = {
        "n_ops": n_ops,
        "attempted": max(n_ops, 1),
        "failed": sum(r["failed"] for r in records),
        "failures": [f for r in records for f in r["failures"]],
        "windows": windows(records),
        "setups": [r["setup"] for r in records + spare],
        "rss_mb": max(r["rss_mb"] for r in records),
    }
    if not trace:
        return plain, None
    n_rounds = len(records) // len(pass_specs(workload, seed, scale))
    records = run_rounds(workload, seed, scale, True, workdir, rounds=n_rounds)
    counters: dict[str, float] = {}
    for r in records:
        for key, value in r["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return plain, {
        "n_ops": sum(r["n_ops"] for r in records),
        "windows": windows(records),
        "wall_s": sum(r["wall_s"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "failures": [f for r in records for f in r["failures"]],
        "layers": spans.merge([r["layers"] for r in records]),
        "counters": counters,
    }


def inproc_layer_metrics(traced: dict) -> dict:
    layers, counters, n_ops = traced["layers"], traced["counters"], max(traced["n_ops"], 1)

    def total(name: str) -> float:
        return layers.get(name, {}).get("total_s", 0.0)

    def count(name: str) -> int:
        return int(layers.get(name, {}).get("count", 0))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def mean_us(name: str) -> float:
        return ratio(total(name) * 1e6, count(name))

    c = counters.get
    boots, events = c("engine.boots", 0), c("engine.events", 0)
    cells = count("chaos.cell")
    compiles = c("fastpath.compile_hits", 0) + c("fastpath.compile_misses", 0)
    return {
        "planner.decide_us": mean_us("planner.decide"),
        "planner.cache_hit_ratio": ratio(c("planner.cache_hits", 0), c("planner.decisions", 0)),
        "patterns.plan_pattern_us": mean_us("patterns.plan_pattern"),
        "programs.build_us": mean_us("programs.build"),
        "fastpath.compile_us": mean_us("fastpath.compile"),
        "fastpath.compile_hit_ratio": ratio(c("fastpath.compile_hits", 0), compiles),
        "fastpath.price_us": mean_us("fastpath.price"),
        "vectorized.grid_calls_per_kq": count("vectorized.grid") * 1e3 / n_ops,
        "vectorized.cells_per_query": c("vectorized.cells", 0) / n_ops,
        "vectorized.grid_us_per_call": mean_us("vectorized.grid"),
        "engine.boots": boots,
        "engine.events_per_exchange": ratio(events, boots),
        "engine.events_per_s": ratio(events, total("engine.run")),
        "engine.exchange_self_us": ratio(
            layers.get("engine.exchange", {}).get("self_s", 0.0) * 1e6, count("engine.exchange")
        ),
        "verify.us_per_exchange": ratio(total("verify") * 1e6, count("engine.exchange")),
        "faults.retries_per_cell": ratio(c("faults.retries", 0), cells),
        "chaos.switches_per_cell": ratio(c("chaos.switches", 0), cells),
        "chaos.cell_us": mean_us("chaos.cell"),
    }


# ----------------------------------------------------------------------
# one workload, end to end
# ----------------------------------------------------------------------
def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it, capped
    at 99 (and floored at the median for tiny samples)."""
    return max(50.0, min(99.0, 100.0 * (1.0 - 10.0 / n)))


def window_time(raw: dict) -> tuple[ReferenceClock, int, float, float]:
    """``(clock, ops, wall seconds, reference seconds)`` of a run's
    measurement windows."""
    clock = ReferenceClock(raw["speed"])
    windows = raw["windows"]
    ops = sum(len(w["done"]) * w["ops_each"] for w in windows)
    wall_s = sum(w["t1"] - w["t0"] for w in windows)
    ref_s = sum(clock.seconds(w["t0"], w["t1"]) for w in windows)
    return clock, ops, wall_s, ref_s


def end_to_end(raw: dict) -> tuple[dict, dict]:
    """The end-to-end metrics of one run, and the readings reported
    beside them: mean host speed, the tail latency, and each timing in
    wall time.

    Throughput counts every op of every measurement window over the
    windows' whole reference time, stalls included; a latency's
    reference time is the reference seconds between its op's start and
    end; set-up time is the median of the run's set-ups."""
    clock, ops, wall_s, ref_s = window_time(raw)
    windows = raw["windows"]
    done = np.concatenate([np.asarray(w["done"], dtype=float) for w in windows])
    lat_us = np.concatenate([np.asarray(w["lat_us"], dtype=float) for w in windows])
    ref_lat_us = (clock(done) - clock(done - lat_us * 1e-6)) * 1e6
    setups = raw["setups"]
    metrics = {
        "ops_per_s": ops / ref_s,
        "latency_p50_us": float(np.percentile(ref_lat_us, 50)),
        "setup_s": float(np.median([clock.seconds(t0, t1) for t0, t1 in setups])),
        "rss_mb": raw["rss_mb"],
    }
    tail_q = tail_percentile(len(lat_us))
    readings = {
        "host_speed": ref_s / wall_s,
        "latency_tail_us": float(np.percentile(ref_lat_us, tail_q)),
        "tail_q": tail_q,
        "tail_n": len(lat_us),
        "wall": {
            "ops_per_s": ops / wall_s,
            "latency_p50_us": float(np.percentile(lat_us, 50)),
            "latency_tail_us": float(np.percentile(lat_us, tail_q)),
            "setup_s": float(np.median([t1 - t0 for t0, t1 in setups])),
        },
    }
    return metrics, readings


def in_reference_time(layers: dict, units: dict, speed: float) -> dict:
    """Per-layer times and rates measured at mean host ``speed``, in
    reference time like the end-to-end metrics."""
    scale = {"us": speed, "ms/kq": speed, "1/s": 1.0 / speed}
    return {
        name: value * scale[units[name]] if units[name] in scale else value
        for name, value in layers.items()
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: dict = inputs.FULL, workdir: Path | None = None) -> dict:
    """Run one workload, its processes pinned to one CPU; returns every
    measured metric plus the checks.

    ``metrics`` holds the end-to-end metrics of the untraced run and
    ``readings`` what is reported beside them; with ``trace`` also
    ``layers`` (per-layer metrics of the traced run) and ``self_frac``
    (each span name's share of the traced wall time)."""
    if workdir is None:
        workdir = ROOT / ".bench_out" / workload
        shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True, exist_ok=True)
    with pinned(), Sampler() as sampler:
        if workload in inputs.SERVE_WORKLOADS:
            digest = inputs.serve_digest(workload, seed)
            raw, traced = serving.run(ROOT, workdir, workload, seed, seconds, scale, trace)
        else:
            digest = inputs.inproc_digest(workload, seed, scale)
            raw, traced = run_inproc(workload, seed, seconds, trace, scale, workdir)
    raw["speed"] = sampler.samples
    if traced is not None:
        traced["speed"] = sampler.samples
    metrics, readings = end_to_end(raw)
    result = {
        "workload": workload, "seed": seed, "trace": int(trace), "digest": digest,
        "n_ops": raw["n_ops"], "attempted": raw["attempted"], "failed": raw["failed"],
        "failures": raw["failures"][:20],
        "metrics": metrics,
        "readings": readings,
    }
    if traced is None:
        return result
    units = declared()["per_layer"]
    layers = dict.fromkeys(units, 0.0)
    if workload in inputs.SERVE_WORKLOADS:
        layers.update(serving.layer_metrics(traced))
    else:
        layers.update(inproc_layer_metrics(traced))
    _, traced_ops, traced_wall_s, traced_ref_s = window_time(traced)
    layers = in_reference_time(layers, units, traced_ref_s / traced_wall_s)
    wall, breakdown = traced["wall_s"], traced["layers"]
    result["failed"] += traced["failed"]
    result["failures"] += traced["failures"][:20]
    layers["trace.other_frac"] = breakdown["(other)"]["self_s"] / wall
    layers["trace.overhead"] = metrics["ops_per_s"] / (traced_ops / traced_ref_s) - 1.0
    result["layers"] = layers
    result["self_frac"] = {
        name: entry["self_s"] / wall for name, entry in breakdown.items() if name != "(other)"
    }
    return result


def contract_line(results: list[dict], trace: bool) -> dict:
    """The last line of standard output.  For one workload, its metrics
    by name; for ``all``, prefixed with ``<workload>.``."""
    units = declared()["per_layer" if trace else "end_to_end"]
    metrics = {}
    for result in results:
        values = result["layers"] if trace else result["metrics"]
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        for name, unit in units.items():
            metrics[prefix + name] = {"value": values[name], "unit": unit}
    return {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def report(results: list[dict], env: dict, trace: bool) -> int:
    """Print the fingerprint, every metric with its unit, any failures,
    and the contract line; returns the exit status."""
    units = declared()
    print("env " + " ".join(f"{k}={json.dumps(v)}" for k, v in env.items()))
    for r in results:
        print(f"{r['workload']} seed={r['seed']} inputs.sha256={r['digest']}")
        print(f"{r['workload']} n_ops {r['n_ops']} count")
        print(f"{r['workload']} failed_frac {r['failed'] / r['attempted']:.6g} frac")
        shown = [("end_to_end", r["metrics"])]
        if trace:
            shown.append(("per_layer", r["layers"]))
        wall = r["readings"]["wall"]
        for kind, values in shown:
            for name, unit in units[kind].items():
                note = f"  (wall {wall[name]:.6g})" if name in wall else ""
                print(f"{r['workload']} {name} {values[name]:.6g} {unit}{note}")
        readings = r["readings"]
        print(f"{r['workload']} host_speed {readings['host_speed']:.4g} "
              f"(reference over wall seconds)")
        print(f"{r['workload']} latency_tail_us {readings['latency_tail_us']:.6g} us  "
              f"(wall {wall['latency_tail_us']:.6g}; p{readings['tail_q']:.4g} of "
              f"{readings['tail_n']}; reported, not gated)")
        for failure in r["failures"]:
            print(f"{r['workload']} FAILED {failure}")
    line = contract_line(results, trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*inputs.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write each result as JSON here")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        bootstrap()
        env = fingerprint()
        results = [run_workload(name, args.seed, args.seconds, bool(args.trace))
                   for name in names]
    except RuntimeError as exc:  # raised here: no program, a failed subprocess
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 — any other crash also means no result
        traceback.print_exc()
        return 2
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        for r in results:
            path = args.out / f"{r['workload']}.seed{r['seed']}.trace{r['trace']}.json"
            path.write_text(json.dumps({**r, "env": env}, indent=1) + "\n")
    return report(results, env, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
