"""The JSON writer's text cache for repeated answers.

:func:`repro.service.server.build_response` reads a result document's
head from ``server._repeated_heads``, a process-wide cache of at most
4096 heads, when the answer came from the result memo and its ``m`` and
``time_us`` are both nonzero; every other head is rendered afresh.
These tests hold every line to :func:`json.dumps` of the same documents
(:mod:`tests.service.columnar_oracle`), check that each zero keeps its
sign, that two calibrations of one preset name never share a head, that
fresh answers leave the cache empty, that it never grows past its bound
and that a full cache admits nothing until its heads go stale.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.model.params import ipsc860
from repro.service.batch import Answers
from repro.service.wire import SOURCE_CODES
from repro.service.registry import OptimizerRegistry
from repro.service import server
from repro.service.server import _repeated_heads, handle_request
from tests.service import columnar_oracle

BOUND = 4096


@pytest.fixture(autouse=True)
def cold_cache():
    _repeated_heads.clear()
    yield
    _repeated_heads.clear()


def answer(obj, registry) -> str:
    return handle_request(obj, registry, default_preset="ipsc860").decode("ascii")


def oracle_line(obj, registry) -> str:
    return json.dumps(columnar_oracle.handle_request(obj, registry)) + "\n"


#: a small pool, so that streams repeat cells: both presets, zeros of
#: both signs, block sizes up to one that prices at infinity
cells = st.tuples(
    st.sampled_from(["ipsc860", "hypothetical"]),
    st.integers(1, 10),
    st.sampled_from([0.0, -0.0, 1.5, 40.0, 400.5, 1e250, 1.7e308, 77.25]),
)
tags = st.one_of(
    st.none(), st.integers(-5, 5), st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2)
)


@st.composite
def requests(draw):
    queries = [
        {"preset": p, "d": d, "m": m, **({} if tag is None else {"id": tag})}
        for (p, d, m), tag in draw(st.lists(st.tuples(cells, tags), min_size=1, max_size=6))
    ]
    request_id = draw(tags)
    if len(queries) == 1 and draw(st.booleans()):
        return queries[0]
    if draw(st.booleans()):
        return queries
    return {"queries": queries, **({} if request_id is None else {"id": request_id})}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(stream=st.lists(requests(), min_size=1, max_size=8))
def test_every_line_equals_the_oracle_document(stream):
    served, oracle = OptimizerRegistry(), OptimizerRegistry()
    for obj in stream + stream:  # the second copy answers from the memo
        assert answer(obj, served) == oracle_line(obj, oracle)


def test_each_zero_keeps_its_sign_when_repeated():
    registry = OptimizerRegistry()
    for d, first, second in ((5, 0.0, -0.0), (6, -0.0, 0.0)):
        for m in (first, second, first, second):
            doc = json.loads(answer({"d": d, "m": m}, registry))
            assert math.copysign(1.0, doc["m"]) == math.copysign(1.0, m), (d, m, doc)
        line = answer([{"d": d, "m": m} for m in (first, second, second, first)], registry)
        docs = json.loads(line)["results"]
        assert [doc["source"] for doc in docs] == ["memo"] * 4
        signs = [math.copysign(1.0, doc["m"]) for doc in docs]
        assert signs == [math.copysign(1.0, m) for m in (first, second, second, first)]
    assert len(_repeated_heads) == 0


def test_two_calibrations_of_one_preset_answer_their_own_times():
    base = OptimizerRegistry()
    slow = OptimizerRegistry(presets={"ipsc860": ipsc860().with_overrides(latency=190.0)})
    query = {"preset": "ipsc860", "d": 7, "m": 40.0}
    lines = {name: [] for name in ("base", "slow")}
    for _ in range(3):
        for name, registry in (("base", base), ("slow", slow)):
            lines[name].append(json.loads(answer(query, registry)))
    for name, registry in (("base", base), ("slow", slow)):
        want = registry.resolve([("ipsc860", 7, 40.0)])[0].time_us
        assert [doc["time_us"] for doc in lines[name]] == [want] * 3, name
        assert [doc["source"] for doc in lines[name]] == ["grid", "memo", "memo"]
    assert lines["base"][0]["time_us"] != lines["slow"][0]["time_us"]
    assert len(_repeated_heads) == 2


def test_fresh_answers_leave_the_cache_empty():
    registry = OptimizerRegistry()
    batch = [{"preset": p, "d": d, "m": 1.0 + i + d / 16}
             for i in range(40) for d in range(4, 9) for p in ("ipsc860", "hypothetical")]
    docs = json.loads(answer(batch, registry))["results"]
    assert {doc["source"] for doc in docs} <= {"grid", "pool"}
    assert len(_repeated_heads) == 0


def test_the_cache_never_grows_past_its_bound():
    registry = OptimizerRegistry()
    batches = [[{"d": 6, "m": 1.0 + (half * 2600 + i) / 8} for i in range(2600)]
               for half in (0, 1)]
    for repeat in range(2):
        for batch in batches:
            line = answer(batch, registry)
            assert line == json.dumps(json.loads(line)) + "\n"
            sources = {doc["source"] for doc in json.loads(line)["results"]}
            assert (sources == {"memo"}) if repeat else ("memo" not in sources)
    assert server._HEADS_MAX == BOUND
    assert len(_repeated_heads) == BOUND


def test_a_full_cache_admits_nothing_until_its_heads_go_stale(monkeypatch):
    monkeypatch.setattr(server, "_HEADS_MAX", 8)
    monkeypatch.setattr(server, "_HEADS_STALE", 32)
    served, oracle = OptimizerRegistry(), OptimizerRegistry()

    def send(batch):
        assert answer(batch, served) == oracle_line(batch, oracle)

    first = [{"preset": "ipsc860", "d": 5, "m": 1.0 + i} for i in range(8)]
    later = [{"preset": "ipsc860", "d": 5, "m": 100.5 + i} for i in range(40)]
    for batch in (first, first, later):
        send(batch)
    held = set(_repeated_heads)
    assert sorted(entry[0] for entry in _repeated_heads.values()) == [q["m"] for q in first]
    send(later[:32])  # 32 repeated answers miss a full cache: none admitted
    assert set(_repeated_heads) == held and _repeated_heads.misses == 32
    send(first)
    assert set(_repeated_heads) == held and _repeated_heads.misses == 32
    send(later[32:33])  # one miss more and its heads count as stale
    assert len(_repeated_heads) == 0 and _repeated_heads.misses == 0
    send(later[33:] + first)
    assert {entry[0] for entry in _repeated_heads.values()} == {
        q["m"] for q in later[33:] + first[:1]
    }
    assert _repeated_heads.misses == len(first) - 1


def test_answers_that_share_a_time_keep_their_own_heads(monkeypatch):
    monkeypatch.setattr(server, "_HEADS_MAX", 1)  # the first head stays
    memo = SOURCE_CODES["memo"]
    # each differs from the first in one field the head prints
    cells = [("ipsc860", 5, 40.0), ("ipsc860", 6, 40.0), ("hypothetical", 5, 40.0),
             ("ipsc860", 5, 40.0), ("ipsc860", 5, 41.0)]
    parts = [bytes([3, 2]), bytes([3, 2]), bytes([3, 2]), bytes([5]), bytes([3, 2])]
    answers = Answers(cells, [1234.5] * 5, bytearray([memo] * 5), parts)
    for _ in range(2):
        line = server.build_response("batch", answers, [None] * 5).decode("ascii")
        docs = json.loads(line)["results"]
        assert [(doc["preset"], doc["d"], doc["m"]) for doc in docs] == cells
        assert [doc["partition"] for doc in docs] == [list(p) for p in parts]
        assert line == json.dumps(json.loads(line)) + "\n"
    assert list(_repeated_heads.values())[0][:4] == (40.0, 5, bytes([3, 2]), "ipsc860")
    assert _repeated_heads.misses == 8
