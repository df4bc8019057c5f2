"""The paper-suite half of the ``compute`` workload: every registered
experiment, sequential, cache off.

This is what a user of ``repro-io experiment all --no-cache`` waits on.
One pass runs all experiments at the run's seed; one operation is one
experiment task.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from perfbench import checks
from perfbench.common import ROOT, Ops, Options
from perfbench.trace import Tracer

#: Cheap experiments the smoke mode runs instead of the whole suite.
SMOKE_IDS = ("E4", "C5", "A1", "R1")
#: What a fresh interpreter imports before it can run the suite.
SETUP_CODE = "import repro.experiments, repro.experiments.runner"
#: Seed-0 records every pass at seed 0 must reproduce.
GOLDEN = ROOT / "tests" / "experiments" / "golden_seed0.json"


def suite_ids(opts: Options) -> List[str]:
    from repro.experiments import ALL_EXPERIMENTS

    return list(SMOKE_IDS) if opts.smoke else list(ALL_EXPERIMENTS)


def suite_pass(ids: Sequence[str], seed: int, store: Path
               ) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, float]]:
    """One sequential, uncached pass: records and seconds per task."""
    from repro.experiments.runner import run_experiments

    results = run_experiments(ids, seeds=[seed], jobs=1, use_cache=False,
                              manifest=False, cache_dir=store)
    records = {r.experiment_id: r.record.to_dict()
               for r in results if not r.failed}
    seconds = {r.experiment_id: (None if r.failed else r.seconds)
               for r in results}
    return records, seconds


def check_seed0(ids: Sequence[str], store: Path, ops: Ops) -> None:
    """The seed-0 pass: golden records and supported claims."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    golden = {eid: rec for eid, rec in golden.items() if eid in ids}
    records, _seconds = suite_pass(ids, 0, store)
    ops.check(checks.check_golden, records, golden)
    ops.check(checks.check_supported, records, ids)


def count_tasks(ids: Sequence[str], seconds: Dict[str, float],
                ops: Ops) -> None:
    """One operation per task; a task that raised is a failed one."""
    for eid in ids:
        if seconds[eid] is None:
            ops.fail()
        else:
            ops.ok(seconds[eid])


def install(tracer: Tracer, ids: Sequence[str]) -> None:
    from repro.experiments import ALL_EXPERIMENTS

    for eid in ids:
        # The harvest after each experiment frees its simulation.
        tracer.wrap(ALL_EXPERIMENTS, eid, f"experiments.{eid}",
                    after=tracer.harvest)


def span_metrics(result: Dict[str, Any], ids: Sequence[str]
                 ) -> Dict[str, float]:
    """``experiments.<ID>.wall_s`` per unit of work."""
    spans = result["tracer"].span_totals()
    return {
        f"experiments.{eid}.wall_s":
            spans.get(f"experiments.{eid}", {}).get("s", 0.0) / result["units"]
        for eid in ids
    }
