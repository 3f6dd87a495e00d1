"""Tests for the vectorized grid evaluation of the cost model.

The load-bearing guarantee is *bitwise* agreement with the scalar
model: the grid path drives the figures, tables, hulls, and sweeps,
whose text outputs must not move by one ulp when batching is on.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partitions import cached_partitions, partitions
from repro.model.cost import multiphase_time
from repro.model.optimizer import best_partition, best_partitions
from repro.model.params import hypothetical, ipsc860
from repro.model.vectorized import (
    grid_winners,
    multiphase_time_grid,
    multiphase_time_pairs,
    partition_row,
    pool_rows,
    price_rows,
)

PRESET_PARAMS = (ipsc860(), hypothetical())


def params_strategy():
    """Presets plus randomized constants (sync handshake on and off)."""
    finite = st.floats(min_value=0.0, max_value=500.0, allow_nan=False)
    randomized = st.builds(
        lambda lam, tau, delta, rho, lam0, gamma, sync: ipsc860().with_overrides(
            latency=lam,
            byte_time=tau,
            hop_time=delta,
            permute_time=rho,
            sync_latency=lam0,
            global_sync_per_dim=gamma,
            pairwise_sync=sync,
        ),
        finite, finite, finite, finite, finite, finite, st.booleans(),
    )
    return st.one_of(st.sampled_from(PRESET_PARAMS), randomized)


class TestGridMatchesScalar:
    @settings(deadline=None, max_examples=120)
    @given(
        d=st.integers(min_value=1, max_value=10),
        ms=st.lists(
            st.floats(min_value=0.0, max_value=4096.0, allow_nan=False),
            min_size=1,
            max_size=24,
        ),
        params=params_strategy(),
        data=st.data(),
    )
    def test_full_float_precision_agreement(self, d, ms, params, data):
        """Property: every grid cell equals the scalar model exactly —
        ``==`` on floats, not approx — over randomized block sizes,
        dimensions, partition subsets, and machine constants."""
        pool = list(cached_partitions(d))
        subset = data.draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool))
        )
        grid = multiphase_time_grid(ms, d, subset, params)
        assert grid.shape == (len(subset), len(ms))
        for i, partition in enumerate(subset):
            for j, m in enumerate(ms):
                assert grid[i, j] == multiphase_time(m, d, partition, params)

    def test_unordered_partitions_accepted(self, ipsc):
        """Compositions (non-canonical orderings) evaluate too, exactly
        like the scalar model does."""
        grid = multiphase_time_grid([40.0], 7, [(2, 3, 2), (3, 4)], ipsc)
        assert grid[0, 0] == multiphase_time(40.0, 7, (2, 3, 2), ipsc)
        assert grid[1, 0] == multiphase_time(40.0, 7, (3, 4), ipsc)

    def test_full_pool_d7_dense_grid(self, ipsc):
        ms = [i * 400.0 / 511 for i in range(512)]
        pool = list(partitions(7))
        grid = multiphase_time_grid(ms, 7, pool, ipsc)
        spot = [(0, 0), (7, 99), (14, 511), (3, 256)]
        for i, j in spot:
            assert grid[i, j] == multiphase_time(ms[j], 7, pool[i], ipsc)


class TestPairsMatchScalar:
    @settings(deadline=None, max_examples=120)
    @given(
        d=st.integers(min_value=1, max_value=10),
        ms=st.lists(
            st.floats(min_value=0.0, max_value=4096.0, allow_nan=False),
            min_size=1,
            max_size=24,
        ),
        params=params_strategy(),
        data=st.data(),
    )
    def test_elementwise_agreement(self, d, ms, params, data):
        """Property: each (m, partition) pairing equals the scalar
        model exactly — the pairs kernel is the grid's diagonal."""
        pool = list(cached_partitions(d))
        candidates = data.draw(
            st.lists(st.sampled_from(pool), min_size=len(ms), max_size=len(ms))
        )
        times = multiphase_time_pairs(ms, d, candidates, params)
        assert times.shape == (len(ms),)
        for i, (m, partition) in enumerate(zip(ms, candidates)):
            assert times[i] == multiphase_time(m, d, partition, params)

    def test_length_mismatch_rejected(self, ipsc):
        with pytest.raises(ValueError, match="paired with"):
            multiphase_time_pairs([1.0, 2.0], 5, [(5,)], ipsc)

    def test_empty(self, ipsc):
        assert multiphase_time_pairs([], 5, [], ipsc).shape == (0,)


class TestValidation:
    def test_rejects_negative_block_size(self, ipsc):
        with pytest.raises(ValueError, match=">= 0"):
            multiphase_time_grid([4.0, -1.0], 5, [(5,)], ipsc)

    def test_rejects_nan_block_size(self, ipsc):
        with pytest.raises(ValueError, match="finite"):
            multiphase_time_grid([float("nan")], 5, [(5,)], ipsc)

    def test_rejects_2d_input(self, ipsc):
        with pytest.raises(ValueError, match="one-dimensional"):
            multiphase_time_grid([[1.0, 2.0]], 5, [(5,)], ipsc)

    def test_rejects_bad_partition(self, ipsc):
        with pytest.raises(ValueError, match="sums to"):
            multiphase_time_grid([1.0], 5, [(3, 3)], ipsc)

    def test_empty_pool_and_empty_grid(self, ipsc):
        assert multiphase_time_grid([1.0], 5, [], ipsc).shape == (0, 1)
        assert multiphase_time_grid([], 5, [(5,)], ipsc).shape == (1, 0)


class TestWinners:
    def test_grid_winners_match_scalar_tiebreak(self, ipsc):
        pool = list(partitions(7))
        ms = [0.0, 12.0, 40.0, 160.0, 400.0]
        winners = grid_winners(multiphase_time_grid(ms, 7, pool, ipsc), pool)
        expected = [
            min(pool, key=lambda p: (multiphase_time(m, 7, p, ipsc), p)) for m in ms
        ]
        assert winners == expected

    def test_grid_winners_shape_mismatch(self, ipsc):
        times = multiphase_time_grid([1.0], 5, cached_partitions(5), ipsc)
        with pytest.raises(ValueError, match="rows"):
            grid_winners(times, [(5,)])

    def test_exact_tie_prefers_smaller_tuple(self):
        """With all costs forced to zero every partition ties; the
        batched tie-break must pick the lexicographically smallest
        tuple, like the scalar ``min(pool, key=(time, p))``."""
        free = ipsc860().with_overrides(
            latency=0.0, byte_time=0.0, hop_time=0.0, permute_time=0.0,
            sync_latency=0.0, global_sync_per_dim=0.0,
        )
        pool = list(partitions(6))
        winners = grid_winners(multiphase_time_grid([8.0], 6, pool, free), pool)
        assert winners == [min(pool)]


class TestBestPartitionsBatch:
    def test_matches_scalar_best_partition(self, ipsc):
        ms = [0.0, 1.0, 12.5, 40.0, 399.0, 400.0]
        batch = best_partitions(ms, 7, ipsc)
        for m, choice in zip(ms, batch):
            scalar = best_partition(m, 7, ipsc, method="scalar")
            assert choice.m == scalar.m
            assert choice.partition == scalar.partition
            assert choice.time == scalar.time
            assert choice.ranking == scalar.ranking

    def test_candidate_restriction(self, ipsc):
        (choice,) = best_partitions([40.0], 6, ipsc, candidates=[(6,), (3, 3)])
        assert {p for p, _ in choice.ranking} == {(6,), (3, 3)}

    def test_ranking_times_are_python_floats(self, ipsc):
        (choice,) = best_partitions([40.0], 5, ipsc)
        assert all(type(t) is float for _, t in choice.ranking)
        assert type(choice.time) is float

    def test_empty_batch(self, ipsc):
        assert best_partitions([], 5, ipsc) == []


class TestOverflowDomain:
    def test_dead_slots_stay_zero_at_overflowing_block_sizes(self, ipsc):
        """Padding slots contribute an exact +0.0 even when m*2**d
        overflows float64: the grid must mirror the scalar model's
        inf, never NaN."""
        with np.errstate(over="ignore"):
            grid = multiphase_time_grid([5e306], 7, [(7,), (4, 3)], ipsc)
        assert not np.isnan(grid).any()
        for i, p in enumerate([(7,), (4, 3)]):
            assert grid[i, 0] == multiphase_time(5e306, 7, p, ipsc)


#: block sizes at the edges of the float domain: signed zeros, the
#: smallest subnormal, and sizes whose ``m*2**d`` overflows to inf (the
#: dead-slot ``0*inf`` case)
EDGE_BLOCK_SIZES = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e300, 1.7e308)


def composition(max_d: int = 10):
    """A ``(d, composition)`` pair: a partition of ``d`` in any order."""
    return st.integers(min_value=1, max_value=max_d).flatmap(
        lambda d: st.tuples(
            st.just(d), st.sampled_from(cached_partitions(d)).flatmap(st.permutations)
        )
    ).map(lambda pair: (pair[0], tuple(pair[1])))


class TestRowKernel:
    @settings(deadline=None, max_examples=150)
    @given(
        cells=st.lists(
            st.tuples(
                composition(),
                st.one_of(
                    st.sampled_from(EDGE_BLOCK_SIZES),
                    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                ),
            ),
            min_size=1,
            max_size=40,
        ),
        params=params_strategy(),
    )
    def test_rows_equal_the_scalar_model_bit_for_bit(self, cells, params):
        """Property: one call over rows of mixed ``d``, compositions in
        any order and edge block sizes prices each row exactly as
        ``multiphase_time`` does, ``float.hex`` for ``float.hex``."""
        rows = [partition_row(d, p) for (d, p), _ in cells]
        ms = [m for _, m in cells]
        with np.errstate(over="ignore", invalid="ignore"):
            times = price_rows(np.array(rows), np.array(ms), params)
        assert times.shape == (len(cells),)
        for ((d, p), m), got in zip(cells, times.tolist()):
            assert got.hex() == multiphase_time(m, d, p, params).hex()

    def test_pool_rows_are_sorted_and_priced_like_the_grid(self, ipsc):
        pool, rows = pool_rows(7)
        assert list(pool) == sorted(partitions(7))
        ms = np.array([0.0, 1.0, 40.0, 400.0, 4096.0])
        got = price_rows(rows[:, np.newaxis], ms[np.newaxis, :], ipsc)
        assert got.tolist() == multiphase_time_grid(ms, 7, pool, ipsc).tolist()

    def test_the_table_grows_with_partitions_not_block_sizes(self, ipsc):
        from repro.model import vectorized
        from repro.model.optimizer import evaluate_partitions

        _, rows = pool_rows(8)
        size = len(vectorized._TABLE)
        ms = np.linspace(0.0, 4096.0, 10_000)
        price_rows(np.repeat(rows, ms.size), np.tile(ms, rows.size), ipsc)
        multiphase_time_grid(ms, 8, partitions(8), ipsc)
        for m in ms[::100].tolist():
            evaluate_partitions(m, 8, ipsc)
        assert len(vectorized._TABLE) == size

    def test_unknown_partitions_are_checked_before_they_enter_the_table(self):
        from repro.model import vectorized

        ones = partition_row(3, (1, 1, 1))
        size = len(vectorized._TABLE)
        with pytest.raises(ValueError, match="sums to"):
            partition_row(5, (3, 3))
        with pytest.raises(TypeError, match="bool"):
            multiphase_time_grid([1.0], 3, [(True, True, 1)], ipsc860())
        # a lookup is by value and (True, True, 1) == (1, 1, 1): the
        # hit must not skip the check
        with pytest.raises(TypeError, match="bool"):
            partition_row(3, (True, True, 1))
        assert partition_row(3, (np.int64(1),) * 3) == ones
        assert len(vectorized._TABLE) == size

    def test_threads_filling_the_table_agree_on_every_row(self, ipsc):
        """Eight threads fill the table with the same new compositions
        (every composition of 13 not yet in it), each in its own order,
        with a short switch interval: every pair gets exactly one row,
        every thread reads it back, and each row prices like the scalar
        model."""
        import sys
        import threading

        from repro.model import vectorized

        def composition(d: int, cuts: int) -> tuple[int, ...]:
            """The composition of ``d`` cut after part ``i`` for every
            set bit ``i`` of ``cuts``."""
            parts, run = [], 1
            for bit in range(d - 1):
                if cuts >> bit & 1:
                    parts.append(run)
                    run = 0
                run += 1
            return (*parts, run)

        d = 13
        new = [
            p for p in (composition(d, c) for c in range(1 << (d - 1)))
            if (d, p) not in vectorized._TABLE._index
        ]
        # other tests may already have priced the canonical pool of 13
        assert len(new) >= (1 << (d - 1)) - len(cached_partitions(d))
        size = len(vectorized._TABLE)
        got: list[dict] = [{} for _ in range(8)]

        def fill(k: int) -> None:
            order = np.random.default_rng(k).permutation(len(new))
            for i in order.tolist():
                got[k][new[i]] = partition_row(d, new[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fill, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(rows == got[0] for rows in got)
        assert len(vectorized._TABLE) == size + len(new)
        assert sorted(got[0].values()) == list(range(size, size + len(new)))
        times = price_rows(np.array(list(got[0].values())), 40.0, ipsc).tolist()
        for p, time_us in zip(got[0], times):
            assert time_us.hex() == multiphase_time(40.0, d, p, ipsc).hex()


#: block sizes every kernel shape is checked at: zero, the smallest
#: subnormal, and sizes whose products overflow (m·2**d) or nearly do
KERNEL_BLOCK_SIZES = (0.0, 5e-324, 1e300, 1.7e308)

block_sizes = st.one_of(
    st.sampled_from(KERNEL_BLOCK_SIZES),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)


def scalar_hexes(cells, params):
    """``multiphase_time`` of each ``((d, partition), m)`` in ``cells``
    (a nested list of any shape), flattened, as ``float.hex``."""
    return [
        multiphase_time(m, d, p, params).hex()
        for (d, p), m in np.array(cells, dtype=object).reshape(-1, 2).tolist()
    ]


def assert_priced_like_the_scalar_model(times, cells, params):
    """``times`` (any shape) against ``cells``, a same-shape nested
    list of ``((d, partition), m)``, ``float.hex`` for ``float.hex``."""
    assert [t.hex() for t in np.asarray(times).ravel().tolist()] == scalar_hexes(cells, params)


class TestOnePassKernel:
    """The one-pass kernel against the scalar model: every shape a
    caller uses, rows of mixed widths in one call, block sizes at the
    edges of the float domain, and results on both sides of a chunk.
    Nothing here silences numpy: an overflow must not warn."""

    @settings(deadline=None, max_examples=120)
    @given(
        pairs=st.lists(composition(), min_size=1, max_size=12),
        ms=st.lists(block_sizes, min_size=1, max_size=12),
        params=params_strategy(),
        shape=st.sampled_from(["rows", "grid", "scalar m", "one row", "scalar row"]),
    )
    def test_every_shape_is_bit_identical(self, pairs, ms, params, shape):
        """Overflow is silent; the one warning allowed is numpy's
        invalid-value one, where a zero rate meets an overflowed
        ``m·2**k`` and the scalar model's answer is NaN too."""
        rows = np.array([partition_row(d, p) for d, p in pairs])
        if shape == "rows":
            k = min(len(pairs), len(ms))
            args = rows[:k], np.array(ms[:k])
            cells = [(pairs[i], ms[i]) for i in range(k)]
        elif shape == "grid":
            args = rows[:, np.newaxis], np.array(ms)[np.newaxis, :]
            cells = [[(pair, m) for m in ms] for pair in pairs]
        elif shape == "scalar m":
            args = rows, ms[0]
            cells = [(pair, ms[0]) for pair in pairs]
        elif shape == "one row":
            args = rows[0], np.array(ms)
            cells = [(pairs[0], m) for m in ms]
        else:
            args = rows[0], ms[0]
            cells = [(pairs[0], ms[0])]
        want = scalar_hexes(cells, params)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            times = price_rows(*args, params)
        assert times.shape == np.broadcast(*args).shape
        assert [t.hex() for t in times.ravel().tolist()] == want
        for warning in caught:
            assert "invalid value" in str(warning.message) and "nan" in want

    @pytest.mark.parametrize(
        "d, p, m, other",
        [
            (6, (1, 2, 3), 7.0, lambda phases: sum(reversed(phases))),
            # numpy's pairwise reduction keeps eight partial sums
            (8, (1,) * 8, 40.0, lambda phases: float(np.sum(phases))),
        ],
        ids=["reversed", "numpy-sum"],
    )
    def test_phase_sums_run_left_to_right(self, ipsc, d, p, m, other):
        """Phases whose sum rounds differently in another order must be
        added left to right, as the scalar model does, in every call
        shape: one cell, one row, two rows."""
        from repro.model.cost import phase_cost

        phases = [phase_cost(m, di, d, ipsc, n_phases=len(p)).total for di in p]
        want = multiphase_time(m, d, p, ipsc)
        assert want == sum(phases) != other(phases)
        row = partition_row(d, p)
        for rows, ms in ((row, m), ([row], m), ([row, row], [m, m])):
            got = np.ravel(price_rows(np.array(rows), ms, ipsc)).tolist()
            assert {t.hex() for t in got} == {want.hex()}

    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["under", "at", "over"])
    def test_results_around_the_chunk_size(self, ipsc, offset):
        """Chunks of the result cover it exactly: a 1-D call, one row
        against every block size, a grid whose chunks are several rows,
        and a grid whose every row is larger than a chunk, just under,
        at and over one chunk."""
        from repro.model import vectorized

        pool = [((3, p), partition_row(3, p)) for p in cached_partitions(3)]
        width = max(len(p) for (_, p), _ in pool)
        cells = vectorized._PRICE_CHUNK_BYTES // (8 * width) + offset
        rng = np.random.default_rng(cells)
        ms = rng.uniform(0.0, 4096.0, cells)
        picks = rng.integers(0, len(pool), cells)
        picks[0] = max(range(len(pool)), key=lambda i: len(pool[i][0][1]))
        rows = np.array([pool[i][1] for i in picks])
        assert_priced_like_the_scalar_model(
            price_rows(rows, ms, ipsc), [(pool[i][0], m) for i, m in zip(picks, ms)], ipsc
        )
        pair, row = pool[picks[0]]
        assert_priced_like_the_scalar_model(
            price_rows(np.array(row), ms, ipsc), [(pair, m) for m in ms], ipsc
        )
        grid_rows = np.array([row for _, row in pool])
        for width_ms in (cells // len(pool) + 1, cells + 1):
            grid_ms = ms[:width_ms] if width_ms <= cells else np.append(ms, 1.5)
            times = price_rows(grid_rows[:, np.newaxis], grid_ms[np.newaxis, :], ipsc)
            assert_priced_like_the_scalar_model(
                times, [[(pair, m) for m in grid_ms] for pair, _ in pool], ipsc
            )

    @pytest.mark.parametrize("m", [1e250, 1.7e308])
    def test_overflowing_block_sizes_price_without_warnings(self, ipsc, m):
        """Near the float maximum the answers are the scalar model's
        ``inf`` (or finite), and pricing them prints nothing: the
        kernel, the optimizer and the service resolver."""
        from repro.service.batch import resolve_queries
        from repro.service.registry import OptimizerRegistry

        pool, rows = pool_rows(8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            times = price_rows(rows, m, ipsc)
            choice = best_partition(m, 8, ipsc)
            results = resolve_queries(
                OptimizerRegistry(), [("ipsc860", d, m) for d in range(4, 9)]
            )
        assert_priced_like_the_scalar_model(times, [((8, p), m) for p in pool], ipsc)
        assert choice.time == multiphase_time(m, 8, choice.partition, ipsc)
        for d, result in zip(range(4, 9), results):
            want = best_partition(m, d, ipsc)
            assert result.partition == want.partition
            assert result.time_us.hex() == want.time.hex()

    def test_invalid_operations_still_warn(self, ipsc):
        """Only overflow is silenced: an infinite block size (outside
        the kernel's domain) makes a dead slot's ``0·inf``, and numpy
        still reports it."""
        rows = np.array([partition_row(3, (3,)), partition_row(3, (1, 1, 1))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="invalid"):
                price_rows(rows, np.inf, ipsc)


class TestSlotTableGrowth:
    @pytest.mark.parametrize("order", ["ascending", "descending"])
    def test_capacity_follows_the_pairs(self, order):
        """Rows double only when full and slots widen only to the widest
        partition: registering pools in either order keeps the table
        within twice its pairs (plus the initial 64 rows)."""
        from repro.model.vectorized import _SlotTable

        table = _SlotTable()
        dims = range(1, 13) if order == "ascending" else range(12, 0, -1)
        for d in dims:
            table.pool(d)
        coef, widths = table.arrays
        assert len(table) == sum(len(cached_partitions(d)) for d in dims)
        assert coef.shape[0] == widths.shape[0] < 2 * len(table) + 64
        assert coef.shape[1:] == (5, 12)
        # every row survived the growth copies, dead slots still zero
        for (d, p), row in table._index.items():
            alone = _SlotTable()
            at = alone.row(d, p)
            assert (coef[row, :, : len(p)] == alone.arrays[0][at]).all()
            assert not coef[row, :, len(p):].any()
            assert widths[row] == len(p)
