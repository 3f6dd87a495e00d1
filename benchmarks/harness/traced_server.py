"""``repro serve`` with layer spans recorded from outside the server.

Usage (as ``serving.py`` starts it)::

    python benchmarks/harness/traced_server.py SPANS.json --shards DIR --socket unix:PATH

Before handing the remaining arguments to ``repro serve``, this wraps
the module attributes the socket server calls at each layer boundary in
timing wrappers.  The spans stay in memory and are written to
``SPANS.json`` when the server exits (SIGTERM drains it gracefully).
Nothing under ``src/`` changes.
"""

from __future__ import annotations

import sys

from spans import Tracer


def install(tracer: Tracer) -> None:
    import repro.service.async_server  # noqa: F401 — loads every module patched below
    from repro.service.registry import OptimizerRegistry

    for module, attr, name in (
        ("repro.service.wire", "decode_query_payload", "wire.decode"),
        ("repro.service.batch", "queries_from_arrays", "batch.admit"),
        ("repro.service.batch", "resolve_queries", "batch.resolve"),
        ("repro.service.wire", "encode_results", "wire.encode"),
        ("repro.service.wire", "pack_frame", "wire.encode"),
        ("repro.service.server", "extract_queries", "json.extract"),
        ("repro.service.server", "build_response", "json.build"),
        ("repro.model.vectorized", "multiphase_time_grid", "vectorized.grid"),
    ):
        tracer.patch_everywhere(module, attr, name)
    tracer.patch(OptimizerRegistry, "table", "registry.table")


def main(argv: list[str]) -> int:
    from repro.cli import main as repro_main

    spans_path, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    try:
        return repro_main(["serve", *serve_args])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
