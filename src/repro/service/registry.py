"""Registry of machine calibrations and their certified pool envelopes.

The registry is the storage half of the query service.  It answers
from one certified pool envelope per (machine preset × cube dimension)
(:func:`~repro.model.optimizer.pool_envelope`, built the first time it
is asked for): a few floats each, never evicted, that name the pool
winner of every block size outside the slivers around its switch
points.  A bounded **result memo** (``memo_capacity``) over resolved
``(preset, d, m)`` queries lets repeat lookups skip both the envelope
and the pricing kernel entirely.

A shard file (:mod:`repro.model.store`) is one preset's calibration:
:meth:`~OptimizerRegistry.save_shards` writes a directory of them and
:meth:`~OptimizerRegistry.from_shards` serves one, taking its presets
from the files.  :meth:`OptimizerRegistry.table` walks the envelope into
an :class:`~repro.model.optimizer.OptimizerTable` for callers that want
the tabulated form; no answer reads it.

Every interaction is counted in :class:`RegistryStats`, which the
JSON-lines server reports in-band (``{"op": "stats"}``) and the CLI
prints after a serving session.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from repro.model.optimizer import (
    OptimizerTable,
    PoolEnvelope,
    hull_of_optimality,
    pool_envelope,
)
from repro.model.params import PRESETS, MachineParams
from repro.model.store import load_shard, save_shard

__all__ = ["OptimizerRegistry", "RegistryStats", "SHARD_SUFFIX"]

#: shard files in a registry directory are named ``<preset><suffix>``
SHARD_SUFFIX = ".shard"


@dataclass
class RegistryStats:
    """Counters for one registry's lifetime."""

    #: individual queries seen by :func:`repro.service.batch.resolve_queries`,
    #: repeats included: each binary record, as each JSON query
    queries: int = 0
    #: queries answered straight from the result memo
    memo_hits: int = 0
    #: queries that needed an envelope lookup + model evaluation
    memo_misses: int = 0
    #: same-batch duplicates (within a frame or line too) folded into an
    #: already-scheduled cell
    coalesced: int = 0
    #: groups priced by batch resolution: one per ``(preset, d,
    #: winner)`` group of certified misses and one per scored pool.  A
    #: count of priced groups, not of kernel invocations: a resolve
    #: call prices all its groups of one preset in one
    #: :func:`~repro.model.vectorized.price_rows` call
    grid_calls: int = 0
    #: cells priced across those groups: one per certified miss, and a
    #: scored pool's every partition at every block size
    grid_cells: int = 0

    @property
    def memo_hit_rate(self) -> float:
        """Fraction of queries served from the memo (0.0 when idle)."""
        return self.memo_hits / self.queries if self.queries else 0.0

    def as_dict(self) -> dict:
        """JSON-ready snapshot, hit rate included."""
        return {
            "queries": self.queries,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "memo_hit_rate": self.memo_hit_rate,
            "coalesced": self.coalesced,
            "grid_calls": self.grid_calls,
            "grid_cells": self.grid_cells,
        }


def _normalize_presets(
    presets: Mapping[str, MachineParams | Callable[[], MachineParams]] | None,
) -> dict[str, MachineParams]:
    source = presets if presets is not None else PRESETS
    out: dict[str, MachineParams] = {}
    for name, value in source.items():
        out[name] = value() if callable(value) else value
    return out


class OptimizerRegistry:
    """Optimal partitions served preset × dimension, from certified
    pool envelopes.

    >>> registry = OptimizerRegistry()
    >>> registry.lookup("ipsc860", 7, 40.0)
    (4, 3)
    """

    def __init__(
        self,
        presets: Mapping[str, MachineParams | Callable[[], MachineParams]] | None = None,
        *,
        shard_dir: str | Path | None = None,
        memo_capacity: int = 65536,
    ) -> None:
        if memo_capacity < 0:
            raise ValueError(f"memo_capacity must be >= 0, got {memo_capacity}")
        self.memo_capacity = int(memo_capacity)
        self.stats = RegistryStats()
        self._presets = _normalize_presets(presets)
        self._memo: OrderedDict[
            tuple[str, int, float], tuple[bytes, float]
        ] = OrderedDict()
        self._envelopes: dict[tuple[str, int], PoolEnvelope] = {}
        if shard_dir is not None:
            self._attach_shard_dir(Path(shard_dir))

    # ------------------------------------------------------------------
    # presets and shards
    # ------------------------------------------------------------------
    def _attach_shard_dir(self, directory: Path) -> None:
        if not directory.is_dir():
            raise ValueError(f"shard directory {directory} does not exist")
        paths = sorted(directory.glob(f"*{SHARD_SUFFIX}"))
        if not paths:
            raise ValueError(
                f"shard directory {directory} holds no *{SHARD_SUFFIX} files; "
                "build it with 'repro shards' (or check the path)"
            )
        for path in paths:
            params, saved_as = load_shard(path)
            name = path.name[: -len(SHARD_SUFFIX)]
            if saved_as is not None and saved_as != name:
                raise ValueError(
                    f"shard {path} was saved for preset {saved_as!r} but is "
                    f"named {name!r}; renaming a shard would serve the wrong "
                    "calibration"
                )
            known = self._presets.get(name)
            if known is not None and known != params:
                raise ValueError(
                    f"shard {path} was built for a different {name!r} calibration; "
                    "rebuild the shard or drop the preset override"
                )
            # shards may introduce presets the process didn't configure
            self._presets[name] = params

    @property
    def preset_names(self) -> tuple[str, ...]:
        """Presets this registry can answer for, sorted."""
        return tuple(sorted(self._presets))

    def params(self, preset: str) -> MachineParams:
        """The calibration behind ``preset``."""
        try:
            return self._presets[preset]
        except KeyError:
            raise ValueError(
                f"unknown machine preset {preset!r}; have {sorted(self._presets)}"
            ) from None

    # ------------------------------------------------------------------
    # tables and envelopes
    # ------------------------------------------------------------------
    def table(self, preset: str, d: int) -> OptimizerTable:
        """The optimizer table for ``(preset, d)``: a fresh walk of its
        envelope up to 400 B."""
        return hull_of_optimality(int(d), self.params(preset))

    def lookup(self, preset: str, d: int, m: float) -> tuple[int, ...]:
        """The optimal partition for one ``(preset, d, m)``, answered as
        :meth:`resolve` answers it."""
        return self.resolve([(preset, d, m)])[0].partition

    def envelope(self, preset: str, d: int) -> PoolEnvelope:
        """The certified pool envelope of ``(preset, d)``, built the
        first time it is asked for and kept for the registry's life:
        at most one per preset and ``d`` up to ``MAX_DIMENSION``, since
        an unknown preset or dimension raises before anything is
        stored."""
        key = (preset, int(d))
        found = self._envelopes.get(key)
        if found is None:
            found = self._envelopes[key] = pool_envelope(int(d), self.params(preset))
        return found

    # ------------------------------------------------------------------
    # result memo
    # ------------------------------------------------------------------
    def memo_get_many(
        self, keys: Sequence[tuple[str, int, float]]
    ) -> list[tuple[bytes, float] | None]:
        """The memo entry of every key, in order (None for a miss); each
        hit is touched in that order, to the LRU's newest end."""
        found = list(map(self._memo.get, keys))
        touch = self._memo.move_to_end
        for key in compress(keys, found):
            touch(key)
        return found

    def memo_put_many(
        self, entries: Sequence[tuple[tuple[str, int, float], tuple[bytes, float]]]
    ) -> None:
        """Insert ``entries`` in order, then evict the oldest overflow:
        the entries and LRU order that putting them one at a time,
        evicting as it goes, would leave."""
        if self.memo_capacity == 0:
            return
        memo = self._memo
        size = len(memo)
        memo.update(entries)
        if len(memo) - size < len(entries):
            # a key was there already, or came twice: moving every key
            # in entry order leaves each where its last put would
            for key, _ in entries:
                memo.move_to_end(key)
        for _ in range(len(memo) - self.memo_capacity):
            memo.popitem(last=False)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def resolve(self, queries: Iterable) -> list:
        """Resolve many ``(preset, d, m)`` lookups in one coalesced
        pass — see :func:`repro.service.batch.resolve_queries`."""
        from repro.service.batch import resolve_queries

        return resolve_queries(self, queries)

    # ------------------------------------------------------------------
    # persist
    # ------------------------------------------------------------------
    def save_shards(
        self, directory: str | Path, presets: Sequence[str] | None = None
    ) -> list[Path]:
        """Write one shard file per preset, its calibration, into
        ``directory``: a directory :meth:`from_shards` (or ``repro serve
        --shards``) can serve without any calibration of its own."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        return [
            save_shard(
                self.params(preset), directory / f"{preset}{SHARD_SUFFIX}", preset=preset
            )
            for preset in (presets if presets is not None else self.preset_names)
        ]

    @classmethod
    def from_shards(cls, directory: str | Path, **kwargs) -> "OptimizerRegistry":
        """A registry serving a prebuilt shard directory.

        Presets are taken from the shard headers themselves, so the
        serving process needs no calibration of its own.
        """
        return cls(presets={}, shard_dir=directory, **kwargs)
