#!/usr/bin/env python3
"""The repository's benchmark: one command, two workloads, every metric.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload compute --seed 0 --seconds 10 --trace 0

``--trace 0`` times the workload with tracing off and prints the
end-to-end metrics; ``--trace 1`` makes the separate traced run and prints
the per-layer metrics.  Metric names and units come from
``BENCHMARK.json``; ``perfbench/README.md`` defines each one and says
which per-layer metric should move which end-to-end metric.

Every workload checks its outputs.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
exit code is 0 only when every check passed.  Output checks count as
operations, so a failed check also shows in ``failed`` and ``ok_ratio``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("compute", "service")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed (or span-traced) phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: checks the machinery, not speed")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # The checkout's sources, never an installed copy.
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

    from perfbench import compute, service
    from perfbench.common import WORK_ROOT, Options, make_workdir, percentile

    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    opts = Options(workload=args.workload, seed=args.seed,
                   seconds=args.seconds, work=make_workdir(args.workload),
                   smoke=args.smoke, setup_samples=1 if args.smoke else 3)
    spans = WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.json"

    module = {"compute": compute, "service": service}[args.workload]
    try:
        values, ops = (module.trace(opts, spans) if args.trace
                       else module.run(opts))
    finally:
        shutil.rmtree(opts.work, ignore_errors=True)

    unknown = sorted(set(values) - {m["name"] for m in declared})
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    # A layer the workload does not reach reads 0 (traced runs only).
    if not args.trace:
        missing = [m["name"] for m in declared if m["name"] not in values]
        if missing:
            raise KeyError(f"end-to-end metrics not measured: {missing}")
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        for m in declared
    }
    for name, entry in metrics.items():
        print(f"{name:40s} {entry['value']:>16.6g} {entry['unit']}")
    if not args.trace:
        # The tail swings too far from run to run on a shared host to
        # carry a regression bound; it is printed, not gated.
        print(f"{'latency samples':40s} {len(ops.latencies):>16d} count")
        for q in (90, 99):
            print(f"{f'p{q}_ms (not bounded)':40s} "
                  f"{1e3 * percentile(ops.latencies, q):>16.6g} ms")
    for problem in ops.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not ops.problems,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0 if not ops.problems else 1


if __name__ == "__main__":
    sys.exit(main())
