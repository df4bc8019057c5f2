"""``compute``: the simulations a user of the toolkit waits on.

One unit of work is one pass over every registered experiment at the
run's seed (:mod:`perfbench.suite`) followed by one pass of the 100k-rank
scale model over the windowed engine arms (:mod:`perfbench.scale`).  One
operation is one experiment task or one arm's run.  The store and the
service stay idle.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from perfbench import checks, scale, suite
from perfbench.common import (
    Ops, Options, end_to_end, self_peak_rss_kb, time_fresh_interpreter,
)
from perfbench.trace import Tracer, layer_metrics, traced_run

#: A fresh interpreter imports the experiment runner and warms the scale
#: arms up (imports, numpy, the process backend's worker).
SETUP_CODE = suite.SETUP_CODE + "\n" + scale.SETUP_CODE

Arms = List[Tuple[str, float, Any]]


class Compute:
    """The fixed inputs of one run and the unit of work over them."""

    def __init__(self, opts: Options, ops: Ops) -> None:
        self.ops = ops
        self.seed = opts.seed
        self.ids = suite.suite_ids(opts)
        self.store = opts.work / "store"
        self.cfg = scale.config(opts, scale.SMOKE if opts.smoke
                                else scale.FULL)
        # Outside the timed phase: the golden seed-0 records, and every
        # arm against the per-rank sequential engine on a small config.
        suite.check_seed0(self.ids, self.store, ops)
        scale.check_reference(opts, ops)

    def unit(self) -> Tuple[str, Arms]:
        """One suite pass and one pass of the arms: the suite's record
        digest and ``(arm, seconds, ScaleResult)`` per arm."""
        records, seconds = suite.suite_pass(self.ids, self.seed, self.store)
        suite.count_tasks(self.ids, seconds, self.ops)
        # A task that raised has no record, and fails this check.
        self.ops.check(checks.check_supported, records, self.ids)
        arms = scale.scale_pass(self.cfg)
        for _arm, arm_seconds, _result in arms:
            self.ops.ok(arm_seconds)
        return checks.record_digest(records), arms

    def check(self, outputs: Sequence[Tuple[str, Dict[str, str]]]) -> None:
        """Across units: the suite's records repeat, and every arm of
        every pass reproduces the first conservative digest."""
        self.ops.check(checks.check_repeats, "paper-suite records",
                       [records for records, _arms in outputs])
        digests = {f"{arm}#{i}": digest
                   for i, (_records, arms) in enumerate(outputs)
                   for arm, digest in arms.items()}
        self.ops.check(checks.check_arms_agree, digests,
                       digests["conservative#0"])


def digests_of(arms: Arms) -> Dict[str, str]:
    return {arm: result.digest for arm, _s, result in arms}


def run(opts: Options) -> Tuple[Dict[str, float], Ops]:
    setup = time_fresh_interpreter(SETUP_CODE, opts.setup_samples)
    ops = Ops()
    work = Compute(opts, ops)
    units: List[float] = []
    outputs: List[Tuple[str, Dict[str, str]]] = []
    start = time.perf_counter()
    # At least two units, so the repeat check has something to compare.
    while len(units) < 2 or time.perf_counter() - start < opts.seconds:
        begin = time.perf_counter()
        records, arms = work.unit()
        units.append(time.perf_counter() - begin)
        outputs.append((records, digests_of(arms)))
    elapsed = time.perf_counter() - start
    work.check(outputs)
    return end_to_end(setup=setup, units=units, ops=ops, elapsed=elapsed,
                      peak_rss_kb=self_peak_rss_kb()), ops


def trace(opts: Options, spans_path: Path) -> Tuple[Dict[str, float], Ops]:
    ops = Ops()
    work = Compute(opts, ops)

    def install(tracer: Tracer) -> None:
        tracer.install_des()
        suite.install(tracer, work.ids)
        scale.install(tracer)

    result = traced_run(work.unit, install, opts.seconds, spans_path)
    outputs = result["outputs"]
    work.check([(records, digests_of(arms)) for records, arms in outputs])
    out = layer_metrics(result)
    out.update(suite.span_metrics(result, work.ids))
    out.update(scale.arm_metrics([arms for _records, arms in outputs]))
    return out, ops
