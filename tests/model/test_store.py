"""Tests for optimizer-table persistence (§6: 'stored for repeated
future use')."""

from __future__ import annotations

import json
import struct
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.model.optimizer import OptimizerTable, hull_of_optimality
from repro.model.params import hypothetical, ipsc860
from repro.model.store import (
    load_shard,
    load_table,
    params_fingerprint,
    save_shard,
    save_table,
    table_from_dict,
    table_to_dict,
)


@pytest.fixture(scope="module")
def table():
    return hull_of_optimality(5, ipsc860())


class TestRoundtrip:
    def test_dict_roundtrip(self, table):
        doc = table_to_dict(table, ipsc860())
        restored, params = table_from_dict(doc)
        assert restored == table
        assert params == ipsc860()

    def test_file_roundtrip(self, table, tmp_path):
        path = save_table(table, ipsc860(), tmp_path / "d5.json")
        restored, params = load_table(path)
        assert restored.lookup(40.0) == table.lookup(40.0)
        assert restored.boundaries == table.boundaries
        assert params.name == "iPSC-860"

    def test_lookup_after_restore(self, table, tmp_path):
        path = save_table(table, ipsc860(), tmp_path / "d5.json")
        restored, _ = load_table(path)
        for m in (0.0, 50.0, 100.0, 400.0):
            assert restored.lookup(m) == table.lookup(m)


class TestValidation:
    def test_parameter_fingerprint_guard(self, table, tmp_path):
        path = save_table(table, ipsc860(), tmp_path / "d5.json")
        with pytest.raises(ValueError, match="different constants"):
            load_table(path, expected_params=hypothetical())

    def test_matching_fingerprint_accepted(self, table, tmp_path):
        path = save_table(table, ipsc860(), tmp_path / "d5.json")
        restored, _ = load_table(path, expected_params=ipsc860())
        assert restored == table

    def test_rejects_unknown_format(self, table, tmp_path):
        doc = table_to_dict(table, ipsc860())
        doc["format_version"] = 99
        with pytest.raises(ValueError, match="format"):
            table_from_dict(doc)

    def test_rejects_corrupt_segments(self, table, tmp_path):
        doc = table_to_dict(table, ipsc860())
        doc["segments"][0] = [9, 9]
        with pytest.raises(ValueError, match="partition"):
            table_from_dict(doc)

    def test_rejects_mismatched_lengths(self, table):
        doc = table_to_dict(table, ipsc860())
        doc["boundaries"].append(500.0)
        with pytest.raises(ValueError, match="segments"):
            table_from_dict(doc)

    def test_file_is_plain_json(self, table, tmp_path):
        path = save_table(table, ipsc860(), tmp_path / "d5.json")
        doc = json.loads(path.read_text())
        assert doc["d"] == 5

    def test_rejects_tampered_fingerprint(self, table):
        doc = table_to_dict(table, ipsc860())
        doc["params"]["latency"] = 1.0
        with pytest.raises(ValueError, match="fingerprint"):
            table_from_dict(doc)

    def test_rejects_unsorted_boundaries(self, table):
        doc = table_to_dict(table, ipsc860())
        if len(doc["boundaries"]) < 2:
            doc["boundaries"] = [50.0, 10.0]
            doc["segments"] = [doc["segments"][0]] * 3
        else:
            doc["boundaries"] = list(reversed(doc["boundaries"]))
        with pytest.raises(ValueError, match="sorted"):
            table_from_dict(doc)


class TestFormatCompat:
    def test_documents_are_v2(self, table):
        doc = table_to_dict(table, ipsc860())
        assert doc["format_version"] == 2
        assert doc["fingerprint"] == params_fingerprint(ipsc860())

    def test_unknown_params_field_is_a_clean_error(self, table):
        doc = table_to_dict(table, ipsc860())
        doc["params"]["bogus_key"] = 1
        with pytest.raises(ValueError, match="bad machine parameters"):
            table_from_dict(doc)

    def test_v2_document_without_fingerprint_rejected(self, table):
        doc = table_to_dict(table, ipsc860())
        del doc["fingerprint"]
        with pytest.raises(ValueError, match="missing its parameter fingerprint"):
            table_from_dict(doc)

    def test_v1_documents_still_load(self, table):
        """Fingerprint-less documents written by earlier releases keep
        loading through the same entry points."""
        doc = table_to_dict(table, ipsc860())
        doc["format_version"] = 1
        del doc["fingerprint"]
        restored, params = table_from_dict(doc)
        assert restored == table
        assert params == ipsc860()

    def test_v1_file_roundtrip(self, table, tmp_path):
        doc = table_to_dict(table, ipsc860())
        doc["format_version"] = 1
        del doc["fingerprint"]
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(doc))
        restored, _ = load_table(path, expected_params=ipsc860())
        assert restored == table


class TestDegenerateTables:
    """The d=1 family: trivial and empty tables must round-trip."""

    def test_d1_roundtrip(self, tmp_path):
        table = hull_of_optimality(1, ipsc860())
        path = save_table(table, ipsc860(), tmp_path / "d1.json")
        restored, _ = load_table(path)
        assert restored == table
        assert restored.lookup(40.0) == (1,)

    def test_empty_segments_roundtrip(self):
        empty = OptimizerTable(d=1, params_name="iPSC-860", boundaries=(), segments=())
        doc = table_to_dict(empty, ipsc860())
        restored, _ = table_from_dict(doc)
        assert restored == empty

    def test_empty_table_lookup_raises_clearly(self):
        empty = OptimizerTable(d=1, params_name="iPSC-860", boundaries=(), segments=())
        with pytest.raises(ValueError, match="empty"):
            empty.lookup(10.0)

    def test_boundaries_without_segments_rejected(self):
        empty = OptimizerTable(d=1, params_name="iPSC-860", boundaries=(), segments=())
        doc = table_to_dict(empty, ipsc860())
        doc["boundaries"] = [10.0]
        with pytest.raises(ValueError, match="no segments"):
            table_from_dict(doc)


SHARD_DATA = Path(__file__).resolve().parent.parent / "service" / "data"


def _header(raw: bytes) -> tuple[dict, int]:
    """A shard's header document and the byte length of its prefix."""
    assert raw[:8] == b"RPROSHRD"
    version, header_len = struct.unpack("<QQ", raw[8:24])
    assert version == 2
    return json.loads(raw[24 : 24 + header_len]), 24 + header_len


def _rewrite_header(path: Path, header: dict) -> None:
    encoded = json.dumps(header, sort_keys=True).encode()
    prefix = b"RPROSHRD" + struct.pack("<QQ", 2, len(encoded))
    path.write_bytes(prefix + encoded + b"\0" * ((-(len(prefix) + len(encoded))) % 8))


class TestShardFiles:
    def test_roundtrip(self, tmp_path):
        path = save_shard(ipsc860(), tmp_path / "ipsc860.shard", preset="ipsc860")
        assert load_shard(path) == (ipsc860(), "ipsc860")

    def test_a_shard_is_its_header_with_an_empty_table_index(self, tmp_path):
        path = save_shard(hypothetical(), tmp_path / "s.shard", preset="hypothetical")
        raw = path.read_bytes()
        header, end = _header(raw)
        assert header == {
            "fingerprint": params_fingerprint(hypothetical()),
            "float64_count": 0,
            "format_version": 2,
            "int64_count": 0,
            "params": json.loads(json.dumps(asdict(hypothetical()))),
            "preset": "hypothetical",
            "tables": {},
        }
        # padded to 8 and nothing after: a reader that expects tables
        # finds the (empty) numeric regions exactly where it looks
        assert len(raw) == end + (-end) % 8
        assert not raw[end:].strip(b"\0")

    def test_reads_a_shard_that_stores_tables(self):
        """Shards written while a shard still carried its optimizer
        tables serve the same: the tables after the header are
        skipped."""
        for preset, params in (("ipsc860", ipsc860()), ("hypothetical", hypothetical())):
            path = SHARD_DATA / f"{preset}.shard"
            header, _ = _header(path.read_bytes())
            assert sorted(header["tables"]) == ["5", "7"] and header["float64_count"]
            assert load_shard(path) == (params, preset)

    def test_rejects_non_shard_file(self, tmp_path):
        path = tmp_path / "not.shard"
        path.write_bytes(b"definitely not a shard")
        with pytest.raises(ValueError, match="not an optimizer shard"):
            load_shard(path)

    def test_rejects_other_versions(self, tmp_path):
        path = save_shard(ipsc860(), tmp_path / "s.shard", preset="ipsc860")
        raw = path.read_bytes()
        path.write_bytes(raw[:8] + struct.pack("<Q", 3) + raw[16:])
        with pytest.raises(ValueError, match="unsupported shard format 3"):
            load_shard(path)

    def test_truncated_header_is_a_clean_error(self, tmp_path):
        path = save_shard(ipsc860(), tmp_path / "s.shard", preset="ipsc860")
        raw = path.read_bytes()
        _, end = _header(raw)
        for cut in (20, end - 1):
            path.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match="truncated header"):
                load_shard(path)

    def test_header_must_be_a_json_object(self, tmp_path):
        path = tmp_path / "s.shard"
        for body, message in ((b"{not json", "not JSON"), (b"[1, 2]", "not a JSON object")):
            path.write_bytes(b"RPROSHRD" + struct.pack("<QQ", 2, len(body)) + body)
            with pytest.raises(ValueError, match=message):
                load_shard(path)

    def test_rejects_tampered_header(self, tmp_path):
        path = save_shard(ipsc860(), tmp_path / "s.shard", preset="ipsc860")
        raw = path.read_bytes()
        tampered = raw.replace(b'"latency": 95.0', b'"latency": 90.0')
        assert tampered != raw
        path.write_bytes(tampered)
        with pytest.raises(ValueError, match="fingerprint"):
            load_shard(path)

    def test_missing_header_field_is_a_clean_error(self, tmp_path):
        path = save_shard(ipsc860(), tmp_path / "s.shard", preset="ipsc860")
        header, _ = _header(path.read_bytes())
        for field in ("fingerprint", "params"):
            _rewrite_header(path, {k: v for k, v in header.items() if k != field})
            with pytest.raises(ValueError, match=f"missing header field '{field}'"):
                load_shard(path)

    def test_a_shard_without_a_preset_loads(self, tmp_path):
        path = save_shard(ipsc860(), tmp_path / "s.shard", preset="ipsc860")
        header, _ = _header(path.read_bytes())
        del header["preset"]
        _rewrite_header(path, header)
        assert load_shard(path) == (ipsc860(), None)

    def test_fingerprint_distinguishes_presets(self):
        assert params_fingerprint(ipsc860()) != params_fingerprint(hypothetical())
        assert params_fingerprint(ipsc860()) == params_fingerprint(ipsc860())
