"""The scale half of the ``compute`` workload: the 100k-rank
``scale_write`` model on every windowed engine arm.

No experiment of the suite reaches ``des.cohort``, ``des.partition`` or
the YAWNS window loops; this does.  One pass runs the four arms; one
operation is one arm's run.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Sequence, Tuple

from perfbench import checks
from perfbench.common import Ops, Options
from perfbench.trace import Tracer

#: The serial backend runs a two-partition plan, so windows exchange
#: events across partitions.  The thread and process backends run one
#: worker each: with two shared cores, two workers measure the host's
#: scheduling more than the engine (their times swung 2x run to run),
#: while one worker still pays each backend's per-window hand-off.
ARMS: Dict[str, Dict[str, Any]] = {
    "conservative": {"engine": "conservative"},
    "partitioned_serial": {"engine": "partitioned", "backend": "serial",
                           "workers": 2},
    "partitioned_thread": {"engine": "partitioned", "backend": "thread",
                           "workers": 1},
    "partitioned_process": {"engine": "partitioned", "backend": "process",
                            "workers": 1},
}
#: The timed configuration: 100k ranks, 64 islands, 100 rounds.
FULL = {"ranks": 100_000, "islands": 64, "rounds": 100}
SMOKE = {"ranks": 2_000, "islands": 8, "rounds": 5}
#: The small configuration the per-rank sequential engine can afford;
#: it is the reference every arm must reproduce bit for bit.
REFERENCE = {"ranks": 2_048, "islands": 8, "rounds": 4}
SETUP_CODE = (
    "from repro.simulate.scalemodel import ScaleConfig, run_scale\n"
    f"for kw in {list(ARMS.values())!r}:\n"
    f"    run_scale(ScaleConfig(seed=0, **{REFERENCE!r}), **kw)\n"
)


def config(opts: Options, shape: Dict[str, int]):
    from repro.simulate.scalemodel import ScaleConfig

    return ScaleConfig(seed=opts.seed, **shape)


def scale_pass(cfg) -> List[Tuple[str, float, Any]]:
    """Every arm once: ``(arm, seconds, ScaleResult)``."""
    from repro.simulate import scalemodel

    out = []
    for arm, kwargs in ARMS.items():
        start = time.perf_counter()
        result = scalemodel.run_scale(cfg, **kwargs)
        out.append((arm, time.perf_counter() - start, result))
    return out


def check_reference(opts: Options, ops: Ops) -> str:
    """Outside the timed phase: on a small configuration every arm agrees
    with the per-rank sequential engine.  Also warms the arms up (imports,
    numpy, the process backend's workers)."""
    from repro.simulate.scalemodel import run_scale

    small = config(opts, REFERENCE)
    reference = run_scale(small, engine="sequential").digest
    digests = {arm: result.digest for arm, _s, result in scale_pass(small)}
    ops.check(checks.check_arms_agree, digests, reference)
    return reference


def install(tracer: Tracer) -> None:
    from repro.simulate import scalemodel

    tracer.wrap(scalemodel, "run_scale", "scale.run_scale")


def arm_metrics(passes: Sequence[List[Tuple[str, float, Any]]]
                ) -> Dict[str, float]:
    """``scale.*`` and ``des.partition.*`` per unit of work, one pass of
    the arms per unit."""
    out: Dict[str, float] = {}
    units = len(passes)
    total_s = total_events = 0.0
    for arm in ARMS:
        runs = [(s, res) for arms in passes for a, s, res in arms if a == arm]
        seconds = sum(s for s, _res in runs) / units
        events = sum(res.events for _s, res in runs) / units
        out[f"scale.{arm}.wall_s"] = seconds
        out[f"scale.{arm}.events"] = events
        total_s += seconds
        total_events += events
    out["scale.us_per_event"] = 1e6 * total_s / total_events
    stats = passes[-1][list(ARMS).index("partitioned_serial")][2].stats
    out["des.partition.windows"] = stats["windows"]
    out["des.partition.exchanged"] = stats["exchanged"]
    out["des.partition.mean_occupancy"] = stats["mean_occupancy"]
    return out
