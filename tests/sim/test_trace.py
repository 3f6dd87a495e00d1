"""Tests for trace records and statistics."""

from __future__ import annotations

import dataclasses

import pytest

from repro.sim.trace import BarrierRecord, ShuffleRecord, Trace, TransmissionRecord


def rec(src=0, dst=1, nbytes=10, hops=1, t_req=0.0, t_start=0.0, t_end=5.0, kind="exchange"):
    return TransmissionRecord(
        src=src, dst=dst, nbytes=nbytes, hops=hops,
        t_request=t_req, t_start=t_start, t_end=t_end, kind=kind,
    )


class TestRecords:
    def test_wait_and_duration(self):
        r = rec(t_req=1.0, t_start=3.0, t_end=8.0)
        assert r.wait == 2.0
        assert r.duration == 5.0


class TestTransmissionRecordContract:
    """The record is slotted for speed; its dataclass contract, and so
    the golden trace digests built from its repr, are unchanged."""

    @staticmethod
    def _unslotted():
        """The same fields as a plain frozen dataclass, as the record
        was declared before it was slotted."""
        fields = [(f.name, f.type, f) for f in dataclasses.fields(TransmissionRecord)]
        fields = [(name, kind, dataclasses.field(default=f.default)) for name, kind, f in fields]
        return dataclasses.make_dataclass("TransmissionRecord", fields, frozen=True)

    def test_frozen(self):
        r = rec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.t_end = 9.0
        with pytest.raises((dataclasses.FrozenInstanceError, AttributeError, TypeError)):
            r.extra = 1

    def test_slotted(self):
        assert not hasattr(rec(), "__dict__")
        assert TransmissionRecord.__slots__ == tuple(
            f.name for f in dataclasses.fields(TransmissionRecord)
        )

    def test_equality_and_hash(self):
        a = rec(t_req=1.0, t_start=3.0, t_end=8.0)
        b = rec(t_req=1.0, t_start=3.0, t_end=8.0)
        assert a == b and hash(a) == hash(b)
        assert a != rec(t_req=1.0, t_start=3.0, t_end=8.5)
        assert len({a, b, rec()}) == 2
        assert hash(a) == hash(tuple(getattr(a, f.name) for f in dataclasses.fields(a)))

    def test_repr_is_byte_identical_to_the_unslotted_dataclass(self):
        plain = self._unslotted()
        for record in (rec(), rec(src=5, dst=2, nbytes=0, hops=2, t_req=0.1, t_start=1 / 3,
                                  t_end=2e-7, kind="forced")):
            values = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
            assert repr(record) == repr(plain(**values))
        assert repr(rec()) == (
            "TransmissionRecord(src=0, dst=1, nbytes=10, hops=1, t_request=0.0, "
            "t_start=0.0, t_end=5.0, kind='exchange', tag=0)"
        )


class TestTraceStats:
    def test_empty_trace(self):
        trace = Trace()
        assert trace.makespan == 0.0
        assert trace.total_contention_wait == 0.0
        assert trace.n_transmissions == 0
        assert trace.per_phase_times() == []

    def test_makespan_across_record_types(self):
        trace = Trace()
        trace.record_transmission(rec(t_end=10.0))
        trace.record_barrier(BarrierRecord(t_first_arrival=0, t_release=25.0, n_participants=4))
        trace.record_shuffle(ShuffleRecord(node=0, nbytes=8, t_start=20.0, t_end=22.0))
        assert trace.makespan == 25.0

    def test_aggregates(self):
        trace = Trace()
        trace.record_transmission(rec(src=0, nbytes=10, t_req=0, t_start=2, t_end=5))
        trace.record_transmission(rec(src=0, nbytes=30, t_req=0, t_start=0, t_end=9))
        trace.record_transmission(rec(src=1, nbytes=5, t_req=1, t_start=1, t_end=3))
        assert trace.total_bytes == 45
        assert trace.total_contention_wait == 2.0
        assert trace.transmissions_per_node()[0] == 2
        assert trace.transmissions_per_node()[1] == 1

    def test_per_phase_times(self):
        trace = Trace()
        trace.mark_phase(0, 0.0)
        trace.mark_phase(1, 100.0)
        trace.record_transmission(rec(t_end=150.0))
        phases = trace.per_phase_times()
        assert phases == [(0, 0.0, 100.0), (1, 100.0, 150.0)]

    def test_summary_keys(self):
        trace = Trace()
        trace.record_transmission(rec())
        trace.record_drop(0, 1, 2, 3.0)
        summary = trace.summary()
        assert summary["n_transmissions"] == 1.0
        assert summary["n_drops"] == 1.0
        assert summary["makespan_us"] == pytest.approx(5.0)
