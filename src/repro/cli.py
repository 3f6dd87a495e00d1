"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``report``
    Print the full paper-vs-reproduced comparison (optionally with the
    simulated agreement rows).
``figure N``
    Regenerate Figure 4, 5, or 6 as an ASCII plot (model curves).
``hull D``
    Print the hull of optimality for cube dimension ``D``.
``simulate D M [PARTS...]``
    Run one verified exchange on the simulated machine and print its
    measured time, transmission count, and per-phase breakdown.
``sweep``
    Optimal-partition guidance table across dimensions and block
    sizes; ``--batch`` (the default) scores each dimension in one
    vectorized grid evaluation, ``--no-batch`` uses the scalar path.
``shards DIR``
    Write one shard file per machine preset, holding its calibration:
    what a serving process needs to build the §6 "done only once"
    answer, the certified pool envelope, itself.
``serve``
    Long-lived JSON-lines query loop on stdin/stdout (one request per
    line; see :mod:`repro.service.server` for the protocol).  With
    ``--shards DIR`` the presets come from the prebuilt directory; every
    dimension is answered from its certified pool envelope.  With
    ``--socket HOST:PORT`` (or ``unix:PATH``) the same protocol is
    served to many concurrent clients by the asyncio transport of
    :mod:`repro.service.async_server`, with per-connection pipelining
    and cross-client micro-batching; ``--warm LOG`` replays a
    JSON-lines query log into the result memo before the first
    request (both transports).
``query D M``
    One-shot optimizer query through the same service path; with
    ``--connect ADDR`` the query is answered by a running socket
    server instead of an in-process registry.
``plan D M``
    Show the collective planner's decision for a ``(d, m)`` exchange
    (or a §9 pattern with ``--pattern``) under a chosen policy, with
    every scored candidate.
``apps``
    Run the application workloads end-to-end under a planning policy
    (``--policy {fixed,model,service,contention}``), payload-check
    them, and print the predicted-vs-simulated validation report.
``validate``
    The validation report alone, replaying every planner decision on
    the chosen simulator: ``--engine fast`` (default) uses the
    vectorized lockstep fast path of :mod:`repro.sim.fastpath`,
    ``--engine event`` spot-checks on the coroutine discrete-event
    engine.  ``apps`` accepts the same ``--engine`` switch.
``check``
    Static verification, no simulator: ``--schedules`` certifies every
    ``(d, partition)`` schedule, §9 pattern program, and
    planner-emitted collective (edge/port-disjoint circuits, legal
    e-cube routes, block conservation, fast-path coefficient
    fidelity); ``--code`` runs the AST lint rules of
    :mod:`repro.check.rules` over the source tree.  With neither flag,
    both run.  Exit status 1 on any violation; ``--json`` emits the
    machine-readable report.
``chaos``
    Sweep failure rate × straggler severity × planning policy over a
    multi-step exchange workload on seeded degraded machines
    (:mod:`repro.analysis.chaos`): per-cell completion time, retry
    counts, and plan-switch counts, byte-verified.  ``--json`` emits
    the machine-readable report; the same seed always reproduces it.
``demo``
    A one-minute tour: three algorithms, optimizer, simulation.

``hull`` accepts ``--save FILE`` / ``--load FILE`` for the §6 "store
the optimal combination for repeated future use" workflow.  ``hull``,
``sweep``, and ``query`` accept ``--json`` for machine-readable
output (the default text output is unchanged).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.analysis.figures import figure_data, render_figure
from repro.analysis.report import full_report
from repro.comm.program import simulate_exchange
from repro.model.cost import multiphase_time, phase_breakdown
from repro.model.optimizer import best_partition, hull_of_optimality
from repro.model.params import PRESETS
from repro.service import OptimizerRegistry, serve

__all__ = ["build_parser", "main"]


def _params(name: str):
    try:
        return PRESETS[name]()
    except KeyError:
        raise SystemExit(f"unknown machine preset {name!r}; have {sorted(PRESETS)}")


def _fmt(partition) -> str:
    from repro.plan.decision import format_partition

    return format_partition(partition)


def _add_server_flags(parser: argparse.ArgumentParser) -> None:
    """The shared socket-server tunables — one flag set, one
    :class:`~repro.service.config.ServerConfig`, consumed identically
    by ``repro serve --socket`` and ``repro cluster join``."""
    parser.add_argument(
        "--max-batch", type=int, default=None, metavar="N",
        help="flush the cross-client micro-batch at N pending queries "
        "(socket mode; default: 64)",
    )
    parser.add_argument(
        "--hold-us", type=float, default=None, metavar="US",
        help="hold the micro-batch up to US microseconds to gather "
        "occupancy (socket mode; default: 0 — flush at the end of "
        "the event-loop turn)",
    )
    parser.add_argument(
        "--auth-token", metavar="TOKEN", default=None,
        help="require this shared secret at connection negotiation "
        "(socket mode; binary HELLO token / JSON {\"op\": \"auth\"})",
    )
    parser.add_argument(
        "--shed-queries", type=int, default=None, metavar="N",
        help="shed query requests with RETRY_LATER once N queries are "
        "pending in the micro-batcher (socket mode; default: off)",
    )
    parser.add_argument(
        "--shed-bytes", type=int, default=None, metavar="BYTES",
        help="shed query requests with RETRY_LATER once BYTES of "
        "requests are admitted but unanswered (socket mode; default: off)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multiphase complete exchange on a circuit-switched hypercube "
        "(Bokhari, ICPP 1991) — reproduction toolkit",
    )
    parser.add_argument(
        "--machine", default="ipsc860", choices=sorted(PRESETS),
        help="machine parameter preset (default: ipsc860)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="paper-vs-reproduced comparison table")
    p_report.add_argument(
        "--simulate", action="store_true",
        help="include the simulated agreement rows (slower)",
    )

    p_figure = sub.add_parser("figure", help="render Figure 4, 5, or 6 (ASCII)")
    p_figure.add_argument("number", type=int, choices=(4, 5, 6))

    p_hull = sub.add_parser("hull", help="hull of optimality for a cube dimension")
    p_hull.add_argument("d", type=int)
    p_hull.add_argument("--m-max", type=float, default=400.0)
    p_hull.add_argument("--save", metavar="FILE", help="persist the table as JSON")
    p_hull.add_argument("--load", metavar="FILE", help="read a stored table instead of rebuilding")
    p_hull.add_argument(
        "--json", action="store_true",
        help="print the table as JSON instead of the text listing",
    )

    p_sweep = sub.add_parser("sweep", help="optimal-partition table over (d, m)")
    p_sweep.add_argument("--dims", type=int, nargs="+", default=[4, 5, 6, 7])
    p_sweep.add_argument("--sizes", type=float, nargs="+",
                         default=[0.0, 8.0, 24.0, 40.0, 80.0, 160.0, 320.0])
    p_sweep.add_argument(
        "--batch", action=argparse.BooleanOptionalAction, default=True,
        help="score each dimension's whole block-size row in one "
        "vectorized grid evaluation (--no-batch: scalar reference path; "
        "identical output)",
    )
    p_sweep.add_argument(
        "--json", action="store_true",
        help="print the sweep cells as JSON instead of the text table",
    )

    p_shards = sub.add_parser(
        "shards", help="write machine calibrations into a shard directory"
    )
    p_shards.add_argument("dir", help="directory to write <preset>.shard files into")
    p_shards.add_argument(
        "--all-machines", action="store_true",
        help="build shards for every preset, not just --machine",
    )

    p_serve = sub.add_parser(
        "serve", help="serve optimizer queries as JSON lines (stdio or socket)"
    )
    p_serve.add_argument(
        "--shards", metavar="DIR",
        help="serve from a prebuilt shard directory (see 'repro shards')",
    )
    p_serve.add_argument(
        "--socket", metavar="ADDR",
        help="serve many concurrent clients on HOST:PORT or unix:PATH "
        "(async transport with cross-client batching; default: stdio)",
    )
    p_serve.add_argument(
        "--warm", metavar="LOG",
        help="replay a JSON-lines query log into the result memo on startup",
    )
    _add_server_flags(p_serve)

    p_cluster = sub.add_parser(
        "cluster", help="run and administer a coordinator-backed optimizer cluster"
    )
    csub = p_cluster.add_subparsers(dest="cluster_command", required=True)
    p_coord = csub.add_parser(
        "coordinator", help="run the cluster control plane (routing + liveness)"
    )
    p_coord.add_argument(
        "address", metavar="ADDR", help="bind HOST:PORT or unix:PATH"
    )
    p_coord.add_argument(
        "--replication", type=int, default=2, metavar="N",
        help="replicas per (preset, d) shard key (default: 2)",
    )
    p_coord.add_argument(
        "--heartbeat-s", type=float, default=2.0, metavar="S",
        help="node heartbeat cadence in seconds (default: 2.0)",
    )
    p_coord.add_argument(
        "--miss-limit", type=int, default=3, metavar="K",
        help="consecutive missed heartbeats before a node is dead "
        "(default: 3)",
    )
    p_join = csub.add_parser(
        "join", help="serve optimizer queries as a member of a cluster"
    )
    p_join.add_argument(
        "coordinator", metavar="COORD", help="coordinator HOST:PORT or unix:PATH"
    )
    p_join.add_argument(
        "--listen", metavar="ADDR", required=True,
        help="data-plane bind address (HOST:PORT or unix:PATH; port 0 "
        "picks an ephemeral port)",
    )
    p_join.add_argument(
        "--shards", metavar="DIR",
        help="serve from a prebuilt shard directory (see 'repro shards')",
    )
    p_join.add_argument(
        "--warm", metavar="LOG",
        help="replay a JSON-lines query log into the result memo on startup",
    )
    p_join.add_argument(
        "--node-id", metavar="ID", default=None,
        help="stable node name (default: the advertised address)",
    )
    p_join.add_argument(
        "--advertise", metavar="ADDR", default=None,
        help="address clients should dial (default: the bound address)",
    )
    _add_server_flags(p_join)
    p_status = csub.add_parser(
        "status", help="print the coordinator's membership and routing state"
    )
    p_status.add_argument(
        "coordinator", metavar="COORD", help="coordinator HOST:PORT or unix:PATH"
    )
    p_status.add_argument(
        "--json", action="store_true", help="print the raw status document"
    )
    p_drain = csub.add_parser(
        "drain", help="gracefully drain one node out of the cluster"
    )
    p_drain.add_argument(
        "coordinator", metavar="COORD", help="coordinator HOST:PORT or unix:PATH"
    )
    p_drain.add_argument("node", metavar="NODE", help="node id to drain")

    p_query = sub.add_parser(
        "query", help="one-shot optimizer query through the service path"
    )
    p_query.add_argument("d", type=int, help="cube dimension")
    p_query.add_argument("m", type=float, help="block size in bytes")
    p_query.add_argument(
        "--shards", metavar="DIR",
        help="answer from a prebuilt shard directory (see 'repro shards')",
    )
    p_query.add_argument(
        "--connect", metavar="ADDR",
        help="ask a running socket server (HOST:PORT or unix:PATH) or a "
        "whole cluster (cluster:COORD_ADDR) instead of building an "
        "in-process registry",
    )
    p_query.add_argument(
        "--wire", choices=("json", "binary"), default="json",
        help="transport for --connect: JSON lines or the negotiated "
        "length-prefixed binary protocol (default: json)",
    )
    p_query.add_argument(
        "--auth-token", metavar="TOKEN", default=None,
        help="shared secret for a server started with --auth-token "
        "(requires --connect)",
    )
    p_query.add_argument(
        "--json", action="store_true", help="print the answer as JSON"
    )

    p_plan = sub.add_parser(
        "plan", help="show the collective planner's decision for (d, m)"
    )
    p_plan.add_argument("d", type=int, help="cube dimension")
    p_plan.add_argument("m", type=float, help="block size in bytes")
    p_plan.add_argument(
        "--policy", default="model",
        choices=("fixed", "model", "service", "contention", "traffic"),
        help="planning policy (default: model)",
    )
    p_plan.add_argument(
        "--pattern", default="exchange",
        choices=("exchange", "broadcast", "scatter", "allgather"),
        help="collective to plan (default: the complete exchange)",
    )
    p_plan.add_argument(
        "--shards", metavar="DIR",
        help="back the service policy with a prebuilt shard directory",
    )
    p_plan.add_argument(
        "--json", action="store_true", help="print the decision as JSON"
    )

    p_apps = sub.add_parser(
        "apps", help="run the app workloads under a planning policy"
    )
    p_validate = sub.add_parser(
        "validate",
        help="replay planner decisions: predicted vs simulated, per app",
    )
    for p_sub in (p_apps, p_validate):
        p_sub.add_argument(
            "--policy", default="model",
            choices=("fixed", "model", "service", "contention", "traffic"),
            help="planning policy (default: model)",
        )
        p_sub.add_argument(
            "--apps", nargs="+", metavar="APP", default=None,
            help="subset of workloads (default: transpose fft2d lookup adi)",
        )
        p_sub.add_argument(
            "--shards", metavar="DIR",
            help="back the service policy with a prebuilt shard directory",
        )
        p_sub.add_argument(
            "--engine", default="fast", choices=("fast", "event"),
            help="decision-replay simulator: the vectorized lockstep fast "
            "path (default) or the coroutine event engine (spot-check)",
        )

    p_sim = sub.add_parser("simulate", help="run one verified simulated exchange")
    p_sim.add_argument("d", type=int, help="cube dimension")
    p_sim.add_argument("m", type=int, help="block size in bytes")
    p_sim.add_argument(
        "parts", type=int, nargs="*",
        help="partition parts (default: the optimizer's choice)",
    )

    p_check = sub.add_parser(
        "check",
        help="static verification: certify schedules and lint the source tree",
    )
    p_check.add_argument(
        "--schedules", action="store_true",
        help="statically certify every (d, partition) schedule, pattern "
        "program, and planner-emitted collective",
    )
    p_check.add_argument(
        "--code", action="store_true",
        help="run the AST lint rules over the source tree",
    )
    p_check.add_argument(
        "--dims", type=int, nargs="+", metavar="D", default=None,
        help="cube dimensions to certify (default: 2..8)",
    )
    p_check.add_argument(
        "--root", default=None, metavar="DIR",
        help="source root for --code (default: the installed repro "
        "package's src/ tree)",
    )
    p_check.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the machine-readable CheckReport document",
    )

    p_chaos = sub.add_parser(
        "chaos",
        help="sweep failure rate x straggler severity x policy on "
        "seeded degraded machines",
    )
    p_chaos.add_argument("--d", type=int, default=3, help="cube dimension (default: 3)")
    p_chaos.add_argument(
        "--m", type=int, default=8, help="block size in bytes (default: 8)"
    )
    p_chaos.add_argument(
        "--steps", type=int, default=6,
        help="exchanges per cell workload (default: 6)",
    )
    p_chaos.add_argument(
        "--seed", type=int, default=0,
        help="fault-plan seed; identical seeds reproduce the sweep exactly",
    )
    p_chaos.add_argument(
        "--failure-rates", type=float, nargs="+", metavar="RATE",
        default=(0.0, 0.25), help="per-wire outage probabilities (default: 0 0.25)",
    )
    p_chaos.add_argument(
        "--stragglers", type=float, nargs="+", metavar="SCALE",
        default=(1.0, 8.0),
        help="straggler compute-slowdown severities; 1.0 = none "
        "(default: 1 8)",
    )
    p_chaos.add_argument(
        "--policies", nargs="+", metavar="POLICY",
        default=("fixed", "adaptive"), choices=("fixed", "adaptive", "model"),
        help="planning policies to race (default: fixed adaptive)",
    )
    p_chaos.add_argument(
        "--threshold", type=float, default=0.25,
        help="adaptive policy's re-plan drift threshold (default: 0.25)",
    )
    p_chaos.add_argument(
        "--json", action="store_true", help="emit the machine-readable report"
    )

    sub.add_parser("demo", help="one-minute guided tour")
    return parser


def cmd_report(args) -> int:
    report = full_report(include_simulation=args.simulate, params=_params(args.machine))
    print(report.render())
    return 0 if report.all_agree else 1


def cmd_figure(args) -> int:
    data = figure_data(args.number, params=_params(args.machine), simulate=False)
    print(render_figure(data))
    hull = " -> ".join(_fmt(h) for h in data.hull_partitions)
    print(f"\nhull of optimality: {hull}")
    print(f"switch points: {[round(b, 1) for b in data.hull_boundaries]} bytes")
    return 0


def cmd_hull(args) -> int:
    params = _params(args.machine)
    if args.load:
        from repro.model.store import load_table

        table, params = load_table(args.load, expected_params=params)
    else:
        table = hull_of_optimality(args.d, params, m_max=args.m_max)
    if args.save:
        from repro.model.store import save_table

        save_table(table, params, args.save)
        print(f"stored optimizer table in {args.save}")
    if table.d != args.d:
        raise SystemExit(
            f"stored table is for d={table.d}, not the requested d={args.d}"
        )
    # walk the raw segments (not the deduplicated hull) so stored
    # tables with adjacent equal segments keep correct boundaries; the
    # final segment is open-ended (hi None) until rendered per mode
    ranges: list[dict] = []
    lo = 0.0
    for idx, segment in enumerate(table.segments):
        hi = table.boundaries[idx] if idx < len(table.boundaries) else None
        if ranges and ranges[-1]["partition"] == list(segment):
            ranges[-1]["hi"] = hi
        else:
            ranges.append({"partition": list(segment), "lo": lo, "hi": hi})
        if hi is not None:
            lo = hi
    if args.json:
        # stored documents do not record the block-size bound, so a loaded
        # table's coverage beyond its last switch point is unknown —
        # emit null rather than fabricating a validity range
        m_max = None if args.load else args.m_max
        for entry in ranges:
            if entry["hi"] is None:
                entry["hi"] = m_max
        print(json.dumps({
            "d": args.d,
            "machine": params.name,
            "m_max": m_max,
            "boundaries": list(table.boundaries),
            "segments": [list(segment) for segment in table.segments],
            "hull": [list(segment) for segment in table.hull_partitions],
            "ranges": ranges,
        }))
        return 0
    if args.load:
        # stored documents do not record the block-size bound they were
        # built with — show the exact switch points and leave the last
        # segment open-ended rather than fabricate a validity cap (the
        # JSON path emits null for the same reason)
        print(f"hull of optimality, d={args.d}, {params.name}, stored table:")
    else:
        print(f"hull of optimality, d={args.d}, {params.name}, 0-{args.m_max:.0f} B:")
    for entry in ranges:
        if entry["hi"] is None and args.load:
            print(f"  {_fmt(entry['partition']):14s} {entry['lo']:7.1f} .. {'?':>7s} bytes")
            continue
        hi = entry["hi"] if entry["hi"] is not None else args.m_max
        print(f"  {_fmt(entry['partition']):14s} {entry['lo']:7.1f} .. {hi:7.1f} bytes")
    return 0


def cmd_simulate(args) -> int:
    params = _params(args.machine)
    partition = tuple(args.parts) if args.parts else best_partition(
        float(args.m), args.d, params
    ).partition
    result = simulate_exchange(args.d, args.m, partition, params)
    predicted = multiphase_time(args.m, args.d, partition, params)
    print(f"complete exchange, d={args.d} ({1 << args.d} nodes), m={args.m} B, "
          f"partition {_fmt(partition)} on {params.name}")
    print(f"  simulated: {result.time_us:12.1f} us   (byte-verified)")
    print(f"  predicted: {predicted:12.1f} us   (eq. 3)")
    print(f"  transmissions per node: {sum((1 << di) - 1 for di in partition)}")
    print(f"  queueing wait: {result.trace.total_contention_wait:.1f} us")
    for cost in phase_breakdown(args.m, args.d, partition, params):
        print(
            f"  phase d_i={cost.phase_dim}: effective block {cost.effective_block:.0f} B, "
            f"{cost.total:.1f} us"
        )
    return 0


def cmd_sweep(args) -> int:
    from repro.analysis.sweep import partition_sweep, render_sweep

    params = _params(args.machine)
    cells = partition_sweep(tuple(args.dims), tuple(args.sizes), params, batch=args.batch)
    if args.json:
        print(json.dumps({
            "machine": params.name,
            "cells": [
                {
                    "d": cell.d,
                    "m": cell.m,
                    "partition": list(cell.partition),
                    "time_us": cell.time_us,
                    "gain_over_classics": cell.gain_over_classics,
                }
                for cell in cells
            ],
        }))
        return 0
    print(f"optimal partitions on {params.name}:")
    print(render_sweep(cells))
    return 0


def _registry(shards: str | None):
    if shards:
        try:
            return OptimizerRegistry.from_shards(shards)
        except ValueError as exc:
            raise SystemExit(str(exc))
    return OptimizerRegistry()


def cmd_shards(args) -> int:
    names = sorted(PRESETS) if args.all_machines else [args.machine]
    for path in OptimizerRegistry().save_shards(args.dir, presets=names):
        print(f"wrote {path}")
    return 0


def _serving_registry(args):
    """The registry plus effective default preset behind every serving
    entry point (``serve`` and ``cluster join``), warm-up included."""
    registry = _registry(args.shards)
    default_preset: str | None = args.machine
    if args.machine not in registry.preset_names:
        # a shard directory need not include the CLI's default preset;
        # serve anyway and require every request to name its own
        default_preset = None
        print(
            f"note: preset {args.machine!r} is not served by this registry "
            f"(have {list(registry.preset_names)}); requests must name a preset",
            file=sys.stderr,
        )
    if args.warm:
        from repro.service.warmup import warm_registry

        try:
            report = warm_registry(registry, args.warm, default_preset=default_preset)
        except OSError as exc:
            raise SystemExit(f"cannot read warm-up log: {exc}")
        print(f"warm-up: {report.describe()}", file=sys.stderr)
    return registry, default_preset


def cmd_serve(args) -> int:
    socket_only = (
        ("--max-batch", args.max_batch),
        ("--hold-us", args.hold_us),
        ("--auth-token", args.auth_token),
        ("--shed-queries", args.shed_queries),
        ("--shed-bytes", args.shed_bytes),
    )
    misused = [flag for flag, value in socket_only if value is not None]
    if args.socket is None and misused:
        raise SystemExit(f"{'/'.join(misused)} only apply to --socket serving")
    registry, default_preset = _serving_registry(args)
    # the summary reports *served* traffic: whatever warm-up resolved
    # into the memo is a baseline, not a query some client asked
    base = registry.stats.as_dict()
    if args.socket:
        from repro.service.async_server import run_server
        from repro.service.client import parse_address
        from repro.service.config import ServerConfig

        try:
            address = parse_address(args.socket)
            config = ServerConfig.from_flags(args, default_preset=default_preset)
        except ValueError as exc:
            # bad --max-batch / --hold-us / --shed-* values surface here
            raise SystemExit(str(exc))

        def announce(server) -> None:
            print(
                f"serving optimizer queries on {server.address}",
                file=sys.stderr, flush=True,
            )

        try:
            server_stats = run_server(registry, address, config=config, ready=announce)
        except OSError as exc:
            raise SystemExit(f"cannot serve on {address}: {exc}")
        stats = registry.stats
        served = stats.queries - base["queries"]
        hits = stats.memo_hits - base["memo_hits"]
        print(
            f"served {served} queries over "
            f"{server_stats.connections_opened} connections: "
            f"{hits} memo hits ({hits / served if served else 0.0:.1%}), "
            f"{server_stats.batches} batches "
            f"(mean occupancy {server_stats.mean_batch_queries:.1f}, "
            f"peak {server_stats.peak_batch_queries}), "
            f"{stats.grid_calls - base['grid_calls']} grid calls, "
            f"{server_stats.binary_connections} binary connections, "
            f"{server_stats.shed} shed, "
            f"p99 {server_stats.p99_us:.0f} us",
            file=sys.stderr,
        )
        return 0
    stats = serve(registry, sys.stdin, sys.stdout, default_preset=default_preset)
    served = stats.queries - base["queries"]
    hits = stats.memo_hits - base["memo_hits"]
    print(
        f"served {served} queries: {hits} memo hits "
        f"({hits / served if served else 0.0:.1%}), "
        f"{stats.grid_calls - base['grid_calls']} grid calls",
        file=sys.stderr,
    )
    return 0


def cmd_cluster(args) -> int:
    handler = {
        "coordinator": _cmd_cluster_coordinator,
        "join": _cmd_cluster_join,
        "status": _cmd_cluster_status,
        "drain": _cmd_cluster_drain,
    }[args.cluster_command]
    return handler(args)


def _cmd_cluster_coordinator(args) -> int:
    from repro.fabric.coordinator import run_coordinator

    def announce(coordinator) -> None:
        print(
            f"cluster coordinator serving on {coordinator.address} "
            f"(replication {args.replication}, heartbeat {args.heartbeat_s:g}s "
            f"x{args.miss_limit})",
            file=sys.stderr, flush=True,
        )

    try:
        status = run_coordinator(
            args.address,
            replication=args.replication,
            heartbeat_s=args.heartbeat_s,
            miss_limit=args.miss_limit,
            ready=announce,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    except OSError as exc:
        raise SystemExit(f"cannot serve coordinator on {args.address}: {exc}")
    nodes = status["nodes"]
    alive = sum(1 for node in nodes if node["state"] == "alive")
    print(
        f"coordinator stopped at epoch {status['epoch']}: "
        f"{len(nodes)} nodes seen, {alive} alive",
        file=sys.stderr,
    )
    return 0


def _cmd_cluster_join(args) -> int:
    from repro.fabric.node import run_node
    from repro.service.config import ServerConfig

    registry, default_preset = _serving_registry(args)

    def announce(node) -> None:
        print(
            f"cluster node {node.node_id} serving optimizer queries on "
            f"{node.address} (coordinator {args.coordinator})",
            file=sys.stderr, flush=True,
        )

    try:
        config = ServerConfig.from_flags(args, default_preset=default_preset)
    except ValueError as exc:
        raise SystemExit(str(exc))
    try:
        stats = run_node(
            registry,
            args.coordinator,
            args.listen,
            config=config,
            node_id=args.node_id,
            advertise=args.advertise,
            ready=announce,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    except OSError as exc:
        raise SystemExit(f"cannot serve cluster node on {args.listen}: {exc}")
    print(
        f"node stopped: served {stats.responses} responses over "
        f"{stats.connections_opened} connections, {stats.shed} shed, "
        f"p99 {stats.p99_us:.0f} us",
        file=sys.stderr,
    )
    return 0


def _cmd_cluster_status(args) -> int:
    from repro.fabric.cluster import fetch_status

    try:
        status = fetch_status(args.coordinator)
    except (ConnectionError, OSError) as exc:
        raise SystemExit(
            f"cannot reach cluster coordinator at {args.coordinator}: {exc} "
            f"(is it running? start one with "
            f"'repro cluster coordinator {args.coordinator}')"
        )
    if args.json:
        print(json.dumps(status))
        return 0
    nodes = status["nodes"]
    alive = sum(1 for node in nodes if node["state"] == "alive")
    print(
        f"cluster at {args.coordinator}: epoch {status['epoch']}, "
        f"replication {status['replication']}, heartbeat "
        f"{status['heartbeat_s']:g}s x{status['miss_limit']}, "
        f"{alive}/{len(nodes)} nodes alive"
    )
    for node in nodes:
        stats = node.get("stats", {})
        print(
            f"  {node['node']:24s} {node['address']:22s} {node['state']:8s} "
            f"age {node['age_s']:6.1f}s  shed {stats.get('shed', 0):>4}  "
            f"p99 {stats.get('p99_us', 0.0):8.0f} us  "
            f"{stats.get('connections_active', 0)} conns"
        )
    return 0


def _cmd_cluster_drain(args) -> int:
    from repro.fabric.cluster import RouteError, request_drain

    try:
        answer = request_drain(args.coordinator, args.node)
    except RouteError as exc:
        raise SystemExit(f"drain refused: {exc}")
    except (ConnectionError, OSError) as exc:
        raise SystemExit(
            f"cannot reach cluster coordinator at {args.coordinator}: {exc}"
        )
    print(
        f"node {answer['node']} is {answer['state']} "
        f"(epoch {answer['epoch']}); it leaves the routing table now and "
        f"shuts down on its next heartbeat"
    )
    return 0


def cmd_query(args) -> int:
    if args.connect:
        return _cmd_query_connect(args)
    if args.wire != "json":
        raise SystemExit("--wire only applies to --connect queries")
    if args.auth_token is not None:
        raise SystemExit("--auth-token only applies to --connect queries")
    registry = _registry(args.shards)
    try:
        result = registry.resolve([(args.machine, args.d, args.m)])[0]
    except ValueError as exc:
        raise SystemExit(str(exc))
    if args.json:
        print(json.dumps({
            "preset": result.preset,
            "d": result.d,
            "m": result.m,
            "partition": list(result.partition),
            "time_us": result.time_us,
            "source": result.source,
        }))
        return 0
    params = registry.params(args.machine)
    print(
        f"optimal partition for d={args.d}, m={args.m:g} B on {params.name}: "
        f"{_fmt(result.partition)}"
    )
    print(f"  predicted time: {result.time_us:.1f} us")
    if result.source == "grid":
        served = "certified pool envelope (its winner priced alone)"
    else:
        served = "exact full-pool scoring (no certified winner at this block size)"
    print(f"  served from: {served} ({result.source})")
    return 0


def _cmd_query_connect(args) -> int:
    """Answer ``repro query --connect`` from a running socket server
    (or, with a ``cluster:`` target, from a whole cluster)."""
    from repro.fabric.cluster import RouteError
    from repro.service import ServiceError, connect

    if args.shards:
        raise SystemExit("--connect and --shards are mutually exclusive")
    try:
        with connect(
            args.connect, wire=args.wire, auth_token=args.auth_token
        ) as client:
            response = client.query(args.d, args.m, preset=args.machine)
    except ValueError as exc:
        raise SystemExit(str(exc))
    except ServiceError as exc:
        raise SystemExit(f"server error: {exc}")
    except RouteError as exc:
        raise SystemExit(f"cluster at {args.connect} could not answer: {exc}")
    except (ConnectionError, OSError) as exc:
        if args.connect.startswith("cluster:"):
            hint = (
                "is the coordinator running? start one with "
                f"'repro cluster coordinator {args.connect.removeprefix('cluster:')}'"
            )
        else:
            hint = (
                "is the server running? start one with "
                f"'repro serve --socket {args.connect}'"
            )
        raise SystemExit(
            f"cannot reach optimizer server at {args.connect}: {exc} ({hint})"
        )
    if args.json:
        print(json.dumps({
            key: response[key]
            for key in ("preset", "d", "m", "partition", "time_us", "source")
        }))
        return 0
    print(
        f"optimal partition for d={args.d}, m={args.m:g} B on "
        f"{response['preset']}: {_fmt(response['partition'])}"
    )
    print(f"  predicted time: {response['time_us']:.1f} us")
    print(f"  served from: optimizer server at {args.connect} ({response['source']})")
    return 0


def _policy(args):
    """Build the requested planning policy (shared by plan/apps)."""
    from repro.plan import make_policy

    params = _params(args.machine)
    registry = None
    if getattr(args, "shards", None):
        # only the service policy answers from a registry; accepting
        # --shards elsewhere would pay the load and silently ignore it
        if args.policy != "service":
            raise SystemExit(
                f"--shards only applies to --policy service "
                f"(got --policy {args.policy})"
            )
        registry = _registry(args.shards)
    try:
        return make_policy(
            args.policy, params, preset=args.machine, registry=registry
        )
    except ValueError as exc:
        raise SystemExit(str(exc))


def cmd_plan(args) -> int:
    from repro.model.cost import multiphase_time
    from repro.plan import CollectivePlanner, plan_pattern

    params = _params(args.machine)
    planner = CollectivePlanner(_policy(args))
    if args.pattern != "exchange":
        decision = plan_pattern(args.pattern, args.m, args.d, params, planner=planner)
        if args.json:
            print(json.dumps({
                "pattern": decision.pattern,
                "d": decision.d,
                "m": decision.m,
                "machine": params.name,
                "policy": planner.policy_name,
                "algorithm": decision.algorithm,
                "partition": list(decision.partition) if decision.partition else None,
                "predicted_us": decision.predicted_us,
                "candidates": [
                    {"algorithm": name, "predicted_us": t}
                    for name, t in decision.candidates
                ],
            }))
            return 0
        print(f"plan for {args.pattern}, d={args.d}, m={args.m:g} B on "
              f"{params.name} (policy: {planner.policy_name})")
        print(f"  chosen: {decision.algorithm}   predicted {decision.predicted_us:.1f} us")
        print("  candidates:")
        for name, t in decision.candidates:
            marker = "  <-- chosen" if name == decision.algorithm else ""
            print(f"    {name:10s} {t:12.1f} us{marker}")
        return 0

    decision = planner.decide(args.d, args.m)
    # the fixed alternatives the paper compares against, always scored
    candidates: list[tuple[str, tuple[int, ...] | None, float | None]] = [
        ("standard", (1,) * args.d,
         multiphase_time(args.m, args.d, (1,) * args.d, params)),
        ("single-phase", (args.d,),
         multiphase_time(args.m, args.d, (args.d,), params)),
    ]
    if decision.algorithm == "multiphase":
        candidates.append(("multiphase", decision.partition, decision.predicted_us))
    # the contention policy prices the naive baseline from the fast
    # path's reservation replay; other policies leave it unpriced
    naive_us = decision.naive_us
    if naive_us is None and decision.algorithm == "naive":
        naive_us = decision.predicted_us
    candidates.append(("naive", None, naive_us))
    if args.json:
        print(json.dumps({
            "pattern": "exchange",
            "d": args.d,
            "m": args.m,
            "machine": params.name,
            "policy": planner.policy_name,
            "algorithm": decision.algorithm,
            "partition": list(decision.partition) if decision.partition else None,
            "predicted_us": decision.predicted_us,
            "source": decision.source,
            "candidates": [
                {
                    "algorithm": name,
                    "partition": list(part) if part is not None else None,
                    "predicted_us": t,
                }
                for name, part, t in candidates
            ],
        }))
        return 0
    print(f"plan for complete exchange, d={args.d}, m={args.m:g} B on "
          f"{params.name} (policy: {planner.policy_name})")
    print(f"  chosen: {decision.describe()}   [{decision.source}]")
    print("  candidates:")
    for name, part, t in candidates:
        label = _fmt(part) if part is not None else "rotation"
        time_str = f"{t:12.1f} us" if t is not None else "  (no analytic model)"
        marker = "  <-- chosen" if name == decision.algorithm else ""
        print(f"    {name:12s} {label:16s}{time_str}{marker}")
    return 0


def cmd_apps(args) -> int:
    from repro.analysis.validation import validate_policy

    params = _params(args.machine)
    policy = _policy(args)
    try:
        report = validate_policy(
            policy, params=params, apps=args.apps, engine=args.engine
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    print(report.render())
    return 0


def cmd_chaos(args) -> int:
    from repro.analysis.chaos import chaos_sweep

    params = _params(args.machine)
    try:
        report = chaos_sweep(
            args.d,
            args.m,
            n_steps=args.steps,
            seed=args.seed,
            failure_rates=tuple(args.failure_rates),
            straggler_scales=tuple(args.stragglers),
            policies=tuple(args.policies),
            threshold=args.threshold,
            params=params,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    if args.json:
        print(json.dumps(report.as_dict()))
    else:
        print(report.render())
    return 0


def cmd_demo(args) -> int:
    params = _params(args.machine)
    d, m = 7, 40
    print("Bokhari (1991): multiphase complete exchange — demo")
    print("=" * 56)
    choice = best_partition(float(m), d, params)
    print(f"best partition for d={d}, m={m} B: {_fmt(choice.partition)}")
    for partition in [(1,) * d, (d,), choice.partition]:
        t = multiphase_time(m, d, partition, params) * 1e-6
        print(f"  {_fmt(partition):16s} predicted {t:.4f} s")
    result = simulate_exchange(5, m, (3, 2), params)
    print(f"simulated d=5 multiphase {{2,3}}: {result.time_s:.4f} s, "
          f"byte-verified, zero contention")
    return 0


def cmd_check(args) -> int:
    import json as _json
    from pathlib import Path

    from repro.check import CheckReport, check_schedules, run_rules
    from repro.check.schedule import CHECK_DIMS

    run_schedules = args.schedules or not (args.schedules or args.code)
    run_code = args.code or not (args.schedules or args.code)
    report = CheckReport()
    if run_schedules:
        dims = tuple(args.dims) if args.dims else CHECK_DIMS
        report.extend(check_schedules(dims))
    if run_code:
        if args.root is not None:
            root = Path(args.root)
        else:
            import repro

            root = Path(repro.__file__).resolve().parent.parent
        report.extend(run_rules(root=root))
    if args.as_json:
        print(_json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "report": cmd_report,
        "figure": cmd_figure,
        "hull": cmd_hull,
        "simulate": cmd_simulate,
        "sweep": cmd_sweep,
        "shards": cmd_shards,
        "serve": cmd_serve,
        "cluster": cmd_cluster,
        "query": cmd_query,
        "plan": cmd_plan,
        "apps": cmd_apps,
        "validate": cmd_apps,
        "chaos": cmd_chaos,
        "check": cmd_check,
        "demo": cmd_demo,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
