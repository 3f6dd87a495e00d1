"""Tests for the AST lint engine (repro.check.rules).

Every rule gets (a) a failing snippet that must be flagged, (b) a
clean/allowlisted snippet that must pass — a lint rule that cannot
distinguish the two is noise.  The suite ends by running the whole
engine over the repository's real ``src/`` tree, which must be clean:
the rules are gating in CI.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.check import RULES, run_rules
from repro.check.rules import LintRule

RULE_IDS = {rule.rule_id for rule in RULES}
SRC_ROOT = Path(repro.__file__).resolve().parent.parent


def run_snippets(tmp_path, snippets, **kwargs):
    """Write ``{relpath: source}`` under tmp_path and lint them."""
    for relpath, source in snippets.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return run_rules(root=tmp_path, **kwargs)


def checks(report, rule_id):
    return [v for v in report.violations if v.check == rule_id]


class TestRegistry:
    def test_at_least_five_rules(self):
        assert len(RULES) >= 5

    def test_rules_have_hints_and_unique_ids(self):
        assert len(RULE_IDS) == len(RULES)
        for rule in RULES:
            assert rule.fix_hint
            assert rule.description
            assert rule.check_file or rule.check_project


class TestAsyncBlocking:
    def test_flags_sleep_in_async_def(self, tmp_path):
        report = run_snippets(tmp_path, {"a.py": (
            "import time\n"
            "async def handler():\n"
            "    time.sleep(1)\n"
        )})
        (violation,) = checks(report, "async-blocking")
        assert violation.line == 3
        assert "time.sleep" in violation.message

    def test_flags_open_and_subprocess(self, tmp_path):
        report = run_snippets(tmp_path, {"a.py": (
            "import subprocess\n"
            "async def handler(path):\n"
            "    data = open(path).read()\n"
            "    subprocess.run(['ls'])\n"
        )})
        assert len(checks(report, "async-blocking")) == 2

    def test_sync_def_is_fine(self, tmp_path):
        report = run_snippets(tmp_path, {"a.py": (
            "import time\n"
            "def handler():\n"
            "    time.sleep(1)\n"
        )})
        assert checks(report, "async-blocking") == []

    def test_nested_sync_def_resets_context(self, tmp_path):
        report = run_snippets(tmp_path, {"a.py": (
            "import time\n"
            "async def handler():\n"
            "    def offloaded():\n"
            "        time.sleep(1)\n"
            "    return offloaded\n"
        )})
        assert checks(report, "async-blocking") == []


class TestEngineImport:
    def test_flags_unsanctioned_import(self, tmp_path):
        report = run_snippets(tmp_path, {"repro/plan/rogue.py": (
            "from repro.sim.engine import Engine\n"
        )})
        (violation,) = checks(report, "engine-import")
        assert violation.target.endswith("rogue.py")

    def test_flags_from_sim_import_engine(self, tmp_path):
        report = run_snippets(tmp_path, {"a.py": (
            "from repro.sim import engine\n"
        )})
        assert len(checks(report, "engine-import")) == 1

    def test_sanctioned_site_is_allowed(self, tmp_path):
        report = run_snippets(tmp_path, {"repro/sim/machine.py": (
            "from repro.sim.engine import Engine\n"
        )})
        assert checks(report, "engine-import") == []


class TestFloatEq:
    def test_flags_bare_float_equality(self, tmp_path):
        report = run_snippets(tmp_path, {"a.py": (
            "def f(x):\n"
            "    return x == 0.5 or 1.0 != x\n"
        )})
        assert len(checks(report, "float-eq")) == 2

    def test_inline_allow_suppresses(self, tmp_path):
        report = run_snippets(tmp_path, {"a.py": (
            "def f(x):\n"
            "    return x == 0.0  # repro: allow[float-eq]\n"
        )})
        assert checks(report, "float-eq") == []

    def test_integer_equality_is_fine(self, tmp_path):
        report = run_snippets(tmp_path, {"a.py": "ok = (3 == 3)\n"})
        assert checks(report, "float-eq") == []


class TestUnseededRand:
    def test_flags_argless_default_rng(self, tmp_path):
        report = run_snippets(tmp_path, {"a.py": (
            "import numpy as np\n"
            "rng = np.random.default_rng()\n"
        )})
        (violation,) = checks(report, "unseeded-rand")
        assert "default_rng" in violation.message

    def test_seeded_default_rng_is_fine(self, tmp_path):
        report = run_snippets(tmp_path, {"a.py": (
            "import numpy as np\n"
            "rng = np.random.default_rng(1234)\n"
        )})
        assert checks(report, "unseeded-rand") == []

    def test_flags_legacy_numpy_global_rng(self, tmp_path):
        report = run_snippets(tmp_path, {"a.py": (
            "import numpy as np\n"
            "x = np.random.rand(3)\n"
        )})
        assert len(checks(report, "unseeded-rand")) == 1

    def test_flags_stdlib_random(self, tmp_path):
        report = run_snippets(tmp_path, {"a.py": (
            "import random\n"
            "x = random.choice([1, 2])\n"
        )})
        assert len(checks(report, "unseeded-rand")) == 1

    def test_local_name_random_not_confused(self, tmp_path):
        # a local object happening to be named `random` is not the module
        report = run_snippets(tmp_path, {"a.py": (
            "random = make_sampler()\n"
            "x = random.choice([1, 2])\n"
        )})
        assert checks(report, "unseeded-rand") == []


class TestWallClock:
    def test_flags_wall_clock_reads(self, tmp_path):
        report = run_snippets(tmp_path, {"a.py": (
            "import time\n"
            "t0 = time.perf_counter()\n"
            "t1 = time.time()\n"
        )})
        assert len(checks(report, "wall-clock")) == 2

    def test_simulated_clock_is_fine(self, tmp_path):
        report = run_snippets(tmp_path, {"a.py": (
            "def now(engine):\n"
            "    return engine.now\n"
        )})
        assert checks(report, "wall-clock") == []


class TestProtocolDrift:
    def test_flags_disagreeing_constants(self, tmp_path):
        report = run_snippets(tmp_path, {
            "svc/server.py": "MAX_BATCH_QUERIES = 4096\n",
            "svc/client.py": "MAX_BATCH_QUERIES = 1024\n",
        })
        violations = checks(report, "protocol-drift")
        assert len(violations) == 2  # one per disagreeing site
        assert all("MAX_BATCH_QUERIES" in v.message for v in violations)

    def test_agreeing_constants_pass(self, tmp_path):
        report = run_snippets(tmp_path, {
            "svc/server.py": "MAX_BATCH_QUERIES = 4096\nONLY_HERE = 1\n",
            "svc/async_server.py": "MAX_BATCH_QUERIES = 4096\n",
        })
        assert checks(report, "protocol-drift") == []

    def test_single_file_never_drifts(self, tmp_path):
        report = run_snippets(tmp_path, {
            "svc/server.py": "MAX_BATCH_QUERIES = 4096\n",
        })
        assert checks(report, "protocol-drift") == []

    def test_flags_binary_frame_constant_drift(self, tmp_path):
        # wire.py is a protocol file: a client re-defining a frame
        # constant (instead of importing it) must be caught the moment
        # the values disagree
        report = run_snippets(tmp_path, {
            "svc/wire.py": 'WIRE_MAGIC = b"RPRW"\nWIRE_VERSION = 1\nOP_QUERY = 3\n',
            "svc/client.py": 'WIRE_MAGIC = b"RPRW"\nWIRE_VERSION = 2\nOP_QUERY = 4\n',
        })
        violations = checks(report, "protocol-drift")
        names = {v.message.split()[2] for v in violations}
        assert names == {"WIRE_VERSION", "OP_QUERY"}  # magic agrees
        assert len(violations) == 4  # one per disagreeing site

    def test_agreeing_frame_constants_pass(self, tmp_path):
        report = run_snippets(tmp_path, {
            "svc/wire.py": 'WIRE_MAGIC = b"RPRW"\nHEADER_BYTES = 12\n',
            "svc/async_server.py": 'WIRE_MAGIC = b"RPRW"\n',
            "svc/server.py": "MAX_BATCH_QUERIES = 4096\n",
        })
        assert checks(report, "protocol-drift") == []


class TestEngine:
    def test_certifies_rules_with_no_findings(self, tmp_path):
        report = run_snippets(tmp_path, {"a.py": "x = 1\n"})
        assert report.ok
        assert len(report.certified) == len(RULES)

    def test_rule_subset(self, tmp_path):
        subset = [r for r in RULES if r.rule_id == "float-eq"]
        report = run_snippets(
            tmp_path,
            {"a.py": "import time\nasync def f():\n    time.sleep(1)\ny = 1 == 0.5\n"},
            rules=subset,
        )
        # only the selected rule ran
        assert {v.check for v in report.violations} == {"float-eq"}

    def test_syntax_error_files_are_skipped(self, tmp_path):
        report = run_snippets(tmp_path, {"broken.py": "def f(:\n"})
        assert report.ok

    def test_violation_lines_are_accurate(self, tmp_path):
        source = "x = 1\ny = 2\nz = 1.0 == q\n"
        report = run_snippets(tmp_path, {"a.py": source})
        (violation,) = checks(report, "float-eq")
        assert violation.line == 3
        assert "1.0" in source.splitlines()[violation.line - 1]


class TestRepositoryIsClean:
    """The gate itself: the real src/ tree passes every rule."""

    def test_src_tree_passes_all_rules(self):
        report = run_rules(root=SRC_ROOT)
        assert report.ok, report.render()
        assert len(report.certified) == len(RULES)

    def test_inline_allows_suppress_and_removing_them_flags_again(self, tmp_path):
        """Float-equality sentinels marked with inline allows pass;
        the same source without the comments is flagged at each."""
        source = (
            "def sentinel(lo, hi):\n"
            "    if lo == 0.0 and hi == 0.0:  # repro: allow[float-eq] — exact sentinel\n"
            "        return None\n"
            "    return lo if hi != 1.0 else hi  # repro: allow[float-eq] — exact sentinel\n"
        )
        assert checks(run_snippets(tmp_path / "allowed", {"a.py": source}), "float-eq") == []
        bare = source.replace("  # repro: allow[float-eq] — exact sentinel", "")
        flagged = checks(run_snippets(tmp_path / "bare", {"a.py": bare}), "float-eq")
        assert sorted(v.line for v in flagged) == [2, 2, 4]
