"""Tests for the top-level public API surface and doctests."""

from __future__ import annotations

import doctest
import importlib
import inspect
import pkgutil

import pytest

import repro


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_alls_importable(self):
        for module_name in (
            "repro.core", "repro.model", "repro.hypercube", "repro.sim",
            "repro.comm", "repro.analysis", "repro.apps", "repro.util",
            "repro.service", "repro.plan", "repro.patterns", "repro.fabric",
        ):
            module = importlib.import_module(module_name)
            for name in module.__all__:
                assert hasattr(module, name), f"{module_name}.{name}"

    def test_retired_switch_point_engines_are_gone(self):
        """One switch-point engine, the line envelope: the bisections,
        their pairs kernel and the registry's sweep bound are gone."""
        from repro.service.registry import OptimizerRegistry

        for module_name, name in (
            ("repro.model", "empirical_crossovers"),
            ("repro.model.crossover", "empirical_crossovers"),
            ("repro.model.vectorized", "multiphase_time_pairs"),
        ):
            assert not hasattr(importlib.import_module(module_name), name)
        assert not hasattr(OptimizerRegistry, "coverage")

    def test_retired_shard_tables_are_gone(self):
        """A shard is a calibration: the stored-table reader, the
        registry's table bookkeeping and its single-key memo calls are
        gone."""
        from repro.service.registry import OptimizerRegistry, RegistryStats

        for module_name, name in (
            ("repro.model", "ShardFile"),
            ("repro.model.store", "ShardFile"),
            ("repro.service", "DEFAULT_DIMS"),
            ("repro.service.registry", "DEFAULT_DIMS"),
            ("repro.service.registry", "_TABLE_BOUND"),
        ):
            assert not hasattr(importlib.import_module(module_name), name)
        for name in ("has_shard", "memo_get", "memo_put"):
            assert not hasattr(OptimizerRegistry, name)
        for name in ("tables_built", "tables_loaded", "tables_evicted"):
            assert not hasattr(RegistryStats(), name)
        assert "dims" not in inspect.signature(OptimizerRegistry.save_shards).parameters

    def test_every_module_has_docstring(self):
        package = repro
        for info in pkgutil.walk_packages(package.__path__, prefix="repro."):
            if info.name == "repro.__main__":
                continue  # importing it would execute the CLI
            module = importlib.import_module(info.name)
            assert module.__doc__, f"{info.name} lacks a module docstring"

    def test_quickstart_from_docstring(self):
        outcome = repro.multiphase_exchange(4, 32, (2, 2))
        outcome.verify()
        assert repro.best_partition(40, 7, repro.ipsc860()).partition == (4, 3)


DOCTEST_MODULES = [
    "repro",
    "repro.util.bitops",
    "repro.hypercube.topology",
    "repro.hypercube.routing",
    "repro.hypercube.subcube",
    "repro.core.partitions",
    "repro.core.blocks",
    "repro.core.shuffle",
    "repro.core.exchange",
    "repro.core.standard",
    "repro.core.optimal",
    "repro.core.multiphase",
    "repro.core.variants",
    "repro.model.cost",
    "repro.model.crossover",
    "repro.model.optimizer",
    "repro.model.vectorized",
    "repro.service.registry",
    "repro.service.batch",
    "repro.service.server",
    "repro.service.config",
    "repro.fabric.ring",
    "repro.sim.machine",
    "repro.sim.fastpath",
    "repro.comm.program",
    "repro.plan.decision",
    "repro.plan.planner",
    "repro.plan.policies",
    "repro.plan.patterns",
    "repro.apps.transpose",
    "repro.apps.fft2d",
    "repro.apps.matvec",
    "repro.patterns.broadcast",
    "repro.patterns.scatter",
    "repro.patterns.allgather",
    "repro.patterns.execute",
    "repro.core.programs",
]


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_doctests(module_name):
    module = importlib.import_module(module_name)
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{result.failed} doctest failures in {module_name}"


def test_doctests_carry_real_examples():
    attempted = 0
    for module_name in DOCTEST_MODULES:
        attempted += doctest.testmod(importlib.import_module(module_name)).attempted
    assert attempted >= 15  # the docs genuinely carry examples
