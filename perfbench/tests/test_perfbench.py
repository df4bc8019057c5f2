"""The benchmark's own tests: smoke runs of every workload and checks
that each output check can fail.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

The smoke runs drive ``perfbench/run.py`` exactly as a user would, at
tiny sizes (``--smoke``); they take about a minute in all.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import checks  # noqa: E402
from perfbench.checks import CheckFailed  # noqa: E402
from perfbench.common import percentile  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
#: Per-layer metrics each workload must move off zero (its home layers).
HOME_METRICS = {
    "compute": ["des.events", "des.run_s", "des.link.bytes",
                "pfs.client.ops", "experiments.A1.wall_s", "self_s.des",
                "scale.conservative.events",
                "scale.partitioned_process.wall_s",
                "des.partition.windows", "scale.us_per_event"],
    "service": ["store.get_ref.calls", "scenario.digest.calls",
                "service.warm_hits", "service.hit_ratio",
                "service.latency.p99_ms", "self_s.service",
                "store.put.calls", "store.set_ref.calls",
                "journal.flush.calls", "service.journal.records",
                "service.computed"],
}
#: Per-layer metrics a workload must leave at exactly zero.
IDLE_METRICS = {
    "compute": ["store.put.calls", "service.warm_hits",
                "service.journal.records"],
    "service": ["experiments.A1.wall_s", "scale.conservative.events"],
}


def run_bench(workload: str, *, cwd: Path = ROOT, trace: int = 0,
              seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def make_checkout(path: Path, *, copy_src: bool = False) -> Path:
    """A checkout at ``path`` with the benchmark, the golden fixture and
    the sources (a link to them, or a copy a test may alter)."""
    shutil.copy(ROOT / "BENCHMARK.json", path)
    shutil.copytree(ROOT / "perfbench", path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    golden = path / "tests" / "experiments" / "golden_seed0.json"
    golden.parent.mkdir(parents=True)
    shutil.copy(ROOT / "tests" / "experiments" / "golden_seed0.json", golden)
    if copy_src:
        shutil.copytree(ROOT / "src", path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    else:
        (path / "src").symlink_to(ROOT / "src")
    return path


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench(workload, trace=trace)
    assert proc.returncode == 0, proc.stderr
    doc = result_of(proc)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    assert doc["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in doc["metrics"].items()
    }
    values = {name: entry["value"] for name, entry in doc["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if trace:
        for name in HOME_METRICS[workload]:
            assert values[name] > 0, name
        for name in IDLE_METRICS.get(workload, ()):
            assert values[name] == 0, name
        # The self-time split plus the unattributed remainder is the
        # profiled pass's wall time.
        parts = sum(v for k, v in values.items() if k.startswith("self_s."))
        assert parts + values["trace.unattributed_s"] == pytest.approx(
            values["trace.profiled_wall_s"], rel=1e-9)
    else:
        assert all(v > 0 for v in values.values())
        assert values["ok_ratio"] == 1.0


def test_wrong_golden_reference_fails_the_run(tmp_path):
    checkout = make_checkout(tmp_path)
    fixture = checkout / "tests" / "experiments" / "golden_seed0.json"
    golden = json.loads(fixture.read_text())
    golden["A1"]["measured"]["events"] += 1
    fixture.write_text(json.dumps(golden))
    proc = run_bench("compute", cwd=checkout)
    assert proc.returncode == 1
    doc = result_of(proc)
    assert doc["correct"] is False and doc["failed"] >= 1
    assert "check_golden" in proc.stderr


def test_experiment_raising_off_seed_zero_fails_the_run(tmp_path):
    """A task that raises has no record; the run must not pass without it,
    even at a seed the golden check does not cover."""
    checkout = make_checkout(tmp_path, copy_src=True)
    registry = checkout / "src" / "repro" / "experiments" / "__init__.py"
    registry.write_text(registry.read_text() + textwrap.dedent("""
        _real_a1 = ALL_EXPERIMENTS["A1"]


        def _a1_fails_off_seed0(seed=0, **kwargs):
            if seed != 0:
                raise RuntimeError("A1 fails at nonzero seeds")
            return _real_a1(seed=seed, **kwargs)


        ALL_EXPERIMENTS["A1"] = _a1_fails_off_seed0
    """))
    proc = run_bench("compute", cwd=checkout, seed=3)
    assert proc.returncode == 1
    doc = result_of(proc)
    assert doc["correct"] is False and doc["failed"] >= 1
    assert "experiments without a record: ['A1']" in proc.stderr


def test_fails_without_the_program(tmp_path):
    """A directory holding only the benchmark must not produce a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compute",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- every check can fail ----------------------------------------------------

GOLDEN = {"X1": {"id": "X1", "claim": "c", "supported": True, "notes": "n",
                 "measured": {"a": 1, "b": 0.5, "ok": True}}}


def _record(**measured):
    rec = json.loads(json.dumps(GOLDEN["X1"]))
    rec["measured"].update(measured)
    return {"X1": rec}


def test_check_golden():
    checks.check_golden(_record(), GOLDEN)
    checks.check_golden(_record(b=0.5 * (1 + 1e-9)), GOLDEN)
    for wrong in (_record(a=2), _record(b=0.51), _record(ok=False), {}):
        with pytest.raises(CheckFailed):
            checks.check_golden(wrong, GOLDEN)


def test_check_supported():
    checks.check_supported(_record(), ["X1"])
    bad = _record()
    bad["X1"]["supported"] = False
    for wrong, ids in ((bad, ["X1"]), (_record(), ["X1", "X2"])):
        with pytest.raises(CheckFailed):
            checks.check_supported(wrong, ids)


def test_check_repeats():
    checks.check_repeats("x", ["d1", "d1"])
    for wrong in (["d1", "d2"], []):
        with pytest.raises(CheckFailed):
            checks.check_repeats("x", wrong)


def test_check_arms_agree():
    checks.check_arms_agree({"a": "d", "b": "d"}, "d")
    with pytest.raises(CheckFailed):
        checks.check_arms_agree({"a": "d", "b": "d"}, "wrong")


def test_check_replies():
    reply = {"seed": 7, "state": "done", "cached": True, "artifact": "art"}
    checks.check_replies([reply], {7: "art"}, cached=True)
    for wrong, refs, cached in (
        (reply, {7: "other"}, True),
        (reply, {7: "art"}, False),
        ({**reply, "state": "failed"}, {}, True),
    ):
        with pytest.raises(CheckFailed):
            checks.check_replies([wrong], refs, cached=cached)


def test_check_warm():
    checks.check_warm({"warm_hits": 5, "computed": 0, "journal_records": 0}, 5)
    for wrong in ({"warm_hits": 4, "computed": 1, "journal_records": 0},
                  {"warm_hits": 5, "computed": 0, "journal_records": 2}):
        with pytest.raises(CheckFailed):
            checks.check_warm(wrong, 5)


def test_check_computed_once():
    checks.check_computed_once({"computed": 3}, 3)
    with pytest.raises(CheckFailed):
        checks.check_computed_once({"computed": 4}, 3)


def test_check_verify():
    checks.check_verify([])
    with pytest.raises(CheckFailed):
        checks.check_verify([{"digest": "d", "problem": "corrupt"}])


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile([3.0], 99) == 3.0
