"""Persistence for optimizer tables (paper §6) — format v2.

"...it needs to be done only once and the optimal combination stored
for repeated future use."  This module is that store, in two shapes:

* **single-table JSON documents** (:func:`save_table` /
  :func:`load_table`) — the human-readable form the CLI's
  ``hull --save/--load`` workflow uses.  Format v2 adds a SHA-256
  parameter fingerprint; v1 documents (no fingerprint) still load
  through the same entry points.
* **multi-table shard files** (:func:`save_shard` / :func:`load_shard`
  / :class:`ShardFile`) — the serving form behind
  :class:`repro.service.OptimizerRegistry`.  One shard holds every
  precomputed table for one machine preset in an mmap-friendly binary
  layout: a small JSON header indexes two contiguous typed regions
  (``float64`` boundaries, ``int64`` segment data), so opening a shard
  reads only the header and each table's numbers are materialized
  lazily from a :func:`numpy.memmap` on first use.

Every load path validates the parameter fingerprint so a table is
never silently reused on a differently calibrated machine, and every
table's segments are re-checked to partition its dimension.  The
degenerate *empty* table (no segments, no boundaries — e.g. a d=1
placeholder produced before any sweep ran) round-trips instead of
rendering the document unloadable.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import asdict
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from repro.model.optimizer import OptimizerTable
from repro.model.params import MachineParams

__all__ = [
    "ShardFile",
    "load_shard",
    "load_table",
    "params_fingerprint",
    "save_shard",
    "save_table",
    "table_from_dict",
    "table_to_dict",
]

#: JSON table-document format; independent of the shard container format
_TABLE_FORMAT_VERSION = 2
#: document versions :func:`table_from_dict` accepts (v1 predates the
#: parameter fingerprint; reading it stays supported forever)
_TABLE_COMPAT_VERSIONS = (1, 2)
#: binary shard container format
_SHARD_FORMAT_VERSION = 2

#: shard container magic — 8 bytes so the header that follows stays
#: 8-byte aligned without padding games
_SHARD_MAGIC = b"RPROSHRD"
_SHARD_ALIGN = 8


def params_fingerprint(params: MachineParams) -> str:
    """SHA-256 over the canonical JSON of the machine constants.

    Two :class:`MachineParams` share a fingerprint iff every field —
    name included — is equal, which is exactly the "same calibration"
    predicate the store guards on.
    """
    canonical = json.dumps(asdict(params), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _params_from_header(fields, origin: str) -> MachineParams:
    """Machine constants from a stored header's ``params`` mapping.

    Unknown or missing keys (a version-skewed or hand-edited file)
    surface as the ValueError every load path reports, not a raw
    TypeError from the dataclass constructor."""
    try:
        return MachineParams(**fields)
    except TypeError as exc:
        raise ValueError(f"corrupt {origin}: bad machine parameters ({exc})") from None


def _validate_table_data(
    d: int,
    boundaries: tuple[float, ...],
    segments: tuple[tuple[int, ...], ...],
) -> None:
    """Structural checks shared by the JSON and shard load paths."""
    if not segments:
        if boundaries:
            raise ValueError(
                f"corrupt table: {len(boundaries)} boundaries but no segments"
            )
        return  # degenerate empty table: valid, serves nothing
    if len(segments) != len(boundaries) + 1:
        raise ValueError(
            f"corrupt table: {len(segments)} segments for {len(boundaries)} boundaries"
        )
    for segment in segments:
        if sum(segment) != d:
            raise ValueError(f"corrupt table: segment {segment} does not partition {d}")
    if any(b > a for a, b in zip(boundaries[1:], boundaries)):
        raise ValueError(f"corrupt table: boundaries {boundaries} are not sorted")


def table_to_dict(table: OptimizerTable, params: MachineParams) -> dict:
    """JSON-ready (format v2) representation of a table plus its
    calibration and the calibration's fingerprint."""
    return {
        "format_version": _TABLE_FORMAT_VERSION,
        "fingerprint": params_fingerprint(params),
        "d": table.d,
        "params": asdict(params),
        "boundaries": list(table.boundaries),
        "segments": [list(segment) for segment in table.segments],
    }


def table_from_dict(doc: dict) -> tuple[OptimizerTable, MachineParams]:
    """Inverse of :func:`table_to_dict`, with validation.

    Accepts both current (v2) documents and the fingerprint-less v1
    documents earlier releases wrote; empty-segment (degenerate)
    tables round-trip rather than raising.
    """
    version = doc.get("format_version")
    if version not in _TABLE_COMPAT_VERSIONS:
        raise ValueError(
            f"unsupported optimizer-table format {version!r}; "
            f"expected one of {list(_TABLE_COMPAT_VERSIONS)}"
        )
    params = _params_from_header(doc["params"], "table document")
    stored_print = doc.get("fingerprint")
    if stored_print is None:
        # only the fingerprint-less v1 format may omit it; a v2
        # document without one has been tampered with or truncated
        if version >= _TABLE_FORMAT_VERSION:
            raise ValueError(
                "corrupt table: v2 document is missing its parameter fingerprint"
            )
    elif stored_print != params_fingerprint(params):
        raise ValueError(
            "corrupt table: parameter fingerprint does not match the stored "
            f"constants for {params.name!r}"
        )
    boundaries = tuple(float(b) for b in doc["boundaries"])
    segments = tuple(tuple(int(p) for p in segment) for segment in doc["segments"])
    d = int(doc["d"])
    _validate_table_data(d, boundaries, segments)
    table = OptimizerTable(
        d=d,
        params_name=params.name,
        boundaries=boundaries,
        segments=segments,
    )
    return table, params


def save_table(table: OptimizerTable, params: MachineParams, path: str | Path) -> Path:
    """Write a single table to ``path`` (JSON, format v2)."""
    path = Path(path)
    path.write_text(json.dumps(table_to_dict(table, params), indent=2) + "\n")
    return path


def load_table(
    path: str | Path, *, expected_params: MachineParams | None = None
) -> tuple[OptimizerTable, MachineParams]:
    """Read a table (v1 or v2 document), optionally pinning the
    calibration it must match.

    Raises :class:`ValueError` if ``expected_params`` differs from the
    stored calibration — the guard against reusing a table across
    machines.
    """
    doc = json.loads(Path(path).read_text())
    table, params = table_from_dict(doc)
    if expected_params is not None and params != expected_params:
        raise ValueError(
            f"stored table was built for {params.name!r} with different constants; "
            f"rebuild for {expected_params.name!r}"
        )
    return table, params


# ----------------------------------------------------------------------
# multi-table shard files
# ----------------------------------------------------------------------

def _tables_by_dim(
    tables: Mapping[int, OptimizerTable] | Iterable[OptimizerTable],
) -> dict[int, OptimizerTable]:
    if isinstance(tables, Mapping):
        items = {int(d): t for d, t in tables.items()}
    else:
        items = {t.d: t for t in tables}
    for d, table in items.items():
        if table.d != d:
            raise ValueError(f"table for d={table.d} filed under d={d}")
    if not items:
        raise ValueError("a shard must hold at least one table")
    return items


def save_shard(
    tables: Mapping[int, OptimizerTable] | Iterable[OptimizerTable],
    params: MachineParams,
    path: str | Path,
    *,
    m_max: float | None = None,
    preset: str | None = None,
) -> Path:
    """Write every table to one binary shard file.

    Layout: ``magic | u64 version | u64 header length | header JSON |
    pad to 8 | float64 region | int64 region``.  The header carries the
    machine constants, their fingerprint, and per-table element ranges
    into the two numeric regions, so a reader can open the shard by
    parsing only the header and ``memmap`` the rest.

    ``m_max`` records the block-size bound the tables were built to
    (their last segment runs to it); it gates no served answer, which
    always comes from the pool envelope.  ``preset`` records the
    registry key the shard was saved under, so a renamed shard file
    cannot silently serve one machine's calibration as another's.
    """
    items = _tables_by_dim(tables)
    path = Path(path)

    floats: list[float] = []
    ints: list[int] = []
    index: dict[str, dict] = {}
    for d in sorted(items):
        table = items[d]
        if table.params_name != params.name:
            raise ValueError(
                f"table for d={d} was built on {table.params_name!r}, "
                f"not {params.name!r}"
            )
        _validate_table_data(d, table.boundaries, table.segments)
        b_start = len(floats)
        floats.extend(table.boundaries)
        lens_start = len(ints)
        ints.extend(len(segment) for segment in table.segments)
        parts_start = len(ints)
        for segment in table.segments:
            ints.extend(segment)
        index[str(d)] = {
            "boundaries": [b_start, len(table.boundaries)],
            "seg_lens": [lens_start, len(table.segments)],
            "seg_parts": [parts_start, len(ints) - parts_start],
        }

    header = {
        "format_version": _SHARD_FORMAT_VERSION,
        "params": asdict(params),
        "fingerprint": params_fingerprint(params),
        "float64_count": len(floats),
        "int64_count": len(ints),
        "tables": index,
    }
    if m_max is not None:
        header["m_max"] = float(m_max)
    if preset is not None:
        header["preset"] = preset
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    prefix = _SHARD_MAGIC + struct.pack("<QQ", _SHARD_FORMAT_VERSION, len(header_bytes))
    payload_offset = len(prefix) + len(header_bytes)
    padding = (-payload_offset) % _SHARD_ALIGN

    # write-then-rename so a crash mid-write never leaves a truncated
    # shard behind; on POSIX this also lets live readers memmapping the
    # old file keep a consistent view (the old inode survives until
    # they close it) — on Windows, replacing a shard a reader holds
    # open raises PermissionError instead of corrupting it
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as fh:
        fh.write(prefix)
        fh.write(header_bytes)
        fh.write(b"\0" * padding)
        fh.write(np.asarray(floats, dtype="<f8").tobytes())
        fh.write(np.asarray(ints, dtype="<i8").tobytes())
    os.replace(tmp, path)
    return path


class ShardFile:
    """Lazy reader for one multi-table shard.

    Opening parses the header only; :meth:`load` materializes a single
    table from the memory-mapped numeric regions on first use and
    caches it.  The mapping is read-only, so many registries (or
    processes) can serve from one shard file.
    """

    def __init__(
        self,
        path: Path,
        params: MachineParams,
        fingerprint: str,
        index: dict[int, dict],
        floats: np.ndarray,
        ints: np.ndarray,
        m_max: float | None = None,
        preset: str | None = None,
    ) -> None:
        self.path = path
        self.params = params
        self.fingerprint = fingerprint
        #: block-size bound the tables were swept to (None if the shard
        #: predates bound recording)
        self.m_max = m_max
        #: registry key the shard was saved under (None if it predates
        #: preset recording) — guards against renamed shard files
        self.preset = preset
        self._index = index
        self._floats = floats
        self._ints = ints
        self._cache: dict[int, OptimizerTable] = {}

    @classmethod
    def open(cls, path: str | Path) -> "ShardFile":
        path = Path(path)
        with path.open("rb") as fh:
            magic = fh.read(len(_SHARD_MAGIC))
            if magic != _SHARD_MAGIC:
                raise ValueError(f"{path} is not an optimizer shard file")
            sizes = fh.read(16)
            if len(sizes) != 16:
                raise ValueError(f"corrupt shard {path}: truncated header")
            version, header_len = struct.unpack("<QQ", sizes)
            if version != _SHARD_FORMAT_VERSION:
                raise ValueError(
                    f"unsupported shard format {version}; "
                    f"expected {_SHARD_FORMAT_VERSION}"
                )
            header_bytes = fh.read(header_len)
            if len(header_bytes) != header_len:
                raise ValueError(f"corrupt shard {path}: truncated header")
            header = json.loads(header_bytes.decode("utf-8"))
        try:
            params = _params_from_header(header["params"], f"shard {path}")
            if header["fingerprint"] != params_fingerprint(params):
                raise ValueError(
                    f"corrupt shard {path}: parameter fingerprint does not match "
                    f"the stored constants for {params.name!r}"
                )
            n_floats = int(header["float64_count"])
            n_ints = int(header["int64_count"])
            table_index = header["tables"]
        except KeyError as exc:
            raise ValueError(
                f"corrupt shard {path}: missing header field {exc}"
            ) from None
        payload_offset = len(_SHARD_MAGIC) + 16 + header_len
        payload_offset += (-payload_offset) % _SHARD_ALIGN
        expected_size = payload_offset + 8 * (n_floats + n_ints)
        if path.stat().st_size < expected_size:
            raise ValueError(
                f"corrupt shard {path}: header promises {expected_size} bytes "
                f"of data but the file holds {path.stat().st_size}"
            )
        floats = (
            np.memmap(path, dtype="<f8", mode="r", offset=payload_offset, shape=(n_floats,))
            if n_floats
            else np.empty(0, dtype="<f8")
        )
        ints_offset = payload_offset + 8 * n_floats
        ints = (
            np.memmap(path, dtype="<i8", mode="r", offset=ints_offset, shape=(n_ints,))
            if n_ints
            else np.empty(0, dtype="<i8")
        )
        index = {int(d): spans for d, spans in table_index.items()}
        return cls(
            path, params, header["fingerprint"], index, floats, ints,
            m_max=header.get("m_max"),
            preset=header.get("preset"),
        )

    @property
    def dims(self) -> tuple[int, ...]:
        """Dimensions stored in this shard, ascending."""
        return tuple(sorted(self._index))

    def __contains__(self, d: int) -> bool:
        return int(d) in self._index

    def load(self, d: int) -> OptimizerTable:
        """Materialize (and cache) the table for dimension ``d``."""
        d = int(d)
        if d in self._cache:
            return self._cache[d]
        try:
            spans = self._index[d]
        except KeyError:
            raise KeyError(
                f"shard {self.path} holds no table for d={d}; have {self.dims}"
            ) from None
        b_start, b_count = spans["boundaries"]
        boundaries = tuple(float(b) for b in self._floats[b_start : b_start + b_count])
        l_start, l_count = spans["seg_lens"]
        seg_lens = [int(n) for n in self._ints[l_start : l_start + l_count]]
        p_start, p_count = spans["seg_parts"]
        parts = [int(p) for p in self._ints[p_start : p_start + p_count]]
        if sum(seg_lens) != p_count:
            raise ValueError(f"corrupt shard {self.path}: segment index mismatch")
        segments: list[tuple[int, ...]] = []
        cursor = 0
        for length in seg_lens:
            segments.append(tuple(parts[cursor : cursor + length]))
            cursor += length
        _validate_table_data(d, boundaries, tuple(segments))
        table = OptimizerTable(
            d=d,
            params_name=self.params.name,
            boundaries=boundaries,
            segments=tuple(segments),
        )
        self._cache[d] = table
        return table

    def unload(self, d: int) -> None:
        """Drop the cached materialization for dimension ``d``.

        The memory mapping stays open, so a later :meth:`load`
        re-materializes from it."""
        self._cache.pop(int(d), None)

    def tables(self) -> dict[int, OptimizerTable]:
        """Every table in the shard (materializes them all)."""
        return {d: self.load(d) for d in self.dims}


def load_shard(path: str | Path) -> ShardFile:
    """Open a shard file (header only; tables load lazily)."""
    return ShardFile.open(path)
