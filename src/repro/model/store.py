"""Persistence for optimizer tables (paper §6) — format v2.

"...it needs to be done only once and the optimal combination stored
for repeated future use."  This module is that store, in two shapes:

* **single-table JSON documents** (:func:`save_table` /
  :func:`load_table`) — the human-readable form the CLI's
  ``hull --save/--load`` workflow uses.  Format v2 adds a SHA-256
  parameter fingerprint; v1 documents (no fingerprint) still load
  through the same entry points.
* **shard files** (:func:`save_shard` / :func:`load_shard`) — the
  serving form behind :class:`repro.service.OptimizerRegistry`.  A
  shard is one machine preset's calibration: the stored answer is the
  certified pool envelope, which the registry builds from it in well
  under a millisecond, so a shard stores no table.

Every load path validates the parameter fingerprint so a table or a
calibration is never silently reused on a differently calibrated
machine, and every table's segments are re-checked to partition its
dimension.  The degenerate *empty* table (no segments, no boundaries —
e.g. a d=1 placeholder produced before any sweep ran) round-trips
instead of rendering the document unloadable.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import asdict
from pathlib import Path

from repro.model.optimizer import OptimizerTable
from repro.model.params import MachineParams

__all__ = [
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
    """Structural checks on a stored table's boundaries and segments."""
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
# shard files: one preset's calibration
# ----------------------------------------------------------------------

def save_shard(params: MachineParams, path: str | Path, *, preset: str) -> Path:
    """Write one preset's calibration to a binary shard file.

    Layout: ``magic | u64 version | u64 header length | header JSON |
    pad to 8``.  The header carries the machine constants, their
    fingerprint and ``preset``, the registry key the shard is saved
    under, so a renamed shard file cannot silently serve one machine's
    calibration as another's.  Its table index is empty: every answer
    comes from the pool envelope, which the registry builds from the
    calibration, so the container's numeric regions stay empty (a
    reader of the v2 format that still expects tables opens the file
    as a shard of none).
    """
    path = Path(path)
    header = {
        "format_version": _SHARD_FORMAT_VERSION,
        "params": asdict(params),
        "fingerprint": params_fingerprint(params),
        "float64_count": 0,
        "int64_count": 0,
        "tables": {},
        "preset": preset,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    prefix = _SHARD_MAGIC + struct.pack("<QQ", _SHARD_FORMAT_VERSION, len(header_bytes))
    padding = (-(len(prefix) + len(header_bytes))) % _SHARD_ALIGN

    # write-then-rename so a crash mid-write never leaves a truncated
    # shard behind
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(prefix + header_bytes + b"\0" * padding)
    os.replace(tmp, path)
    return path


def load_shard(path: str | Path) -> tuple[MachineParams, str | None]:
    """The calibration a shard file stores, and the preset it was saved
    under (None if the shard predates preset recording).

    Reads the header only: any numeric regions an older shard carries
    after it (stored optimizer tables) are ignored, so a shard
    directory written before tables were retired still serves.
    """
    path = Path(path)
    with path.open("rb") as fh:
        if fh.read(len(_SHARD_MAGIC)) != _SHARD_MAGIC:
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
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except ValueError:
        raise ValueError(f"corrupt shard {path}: header is not JSON") from None
    if not isinstance(header, dict):
        raise ValueError(f"corrupt shard {path}: header is not a JSON object")
    try:
        params = _params_from_header(header["params"], f"shard {path}")
        fingerprint = header["fingerprint"]
    except KeyError as exc:
        raise ValueError(f"corrupt shard {path}: missing header field {exc}") from None
    if fingerprint != params_fingerprint(params):
        raise ValueError(
            f"corrupt shard {path}: parameter fingerprint does not match "
            f"the stored constants for {params.name!r}"
        )
    return params, header.get("preset")
