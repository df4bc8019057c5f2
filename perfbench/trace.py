"""The traced run: spans, counts, GC pauses and per-package self time.

Everything here is attached from outside the program.  :class:`Tracer`
swaps public functions for timing wrappers (and puts the originals back
afterwards); counts are read from public attributes at the same
boundaries; self time per package comes from the standard-library
profiler, because the work of ``pfs``, ``cluster`` and ``iostack`` runs
as callbacks inside ``Environment.run`` with no synchronous boundary of
its own to wrap.

A traced run makes three passes over the same unit of work:

1. untraced, for the reference wall time;
2. with spans, counts and ``gc.callbacks`` on, repeated until the run's
   ``--seconds`` are spent -- per-layer counts and seconds are reported
   per unit of work;
3. under :mod:`cProfile`, for the self-time split.

The ratios of passes 2 and 3 to pass 1 are the tracing overheads, and
``trace.unattributed_s`` closes the self-time breakdown to pass 3's wall
time.
"""

from __future__ import annotations

import cProfile
import gc
import json
import pstats
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from perfbench.common import ROOT, SRC

#: Packages of ``repro`` whose self time is reported on its own; the
#: rest of ``repro`` is ``repro_other``, the benchmark's own code
#: ``bench``, and the interpreter, standard library and numpy ``other``.
LAYERS = (
    "des", "pfs", "cluster", "iostack", "mpi", "workloads", "modeling",
    "monitoring", "experiments", "scenario", "store", "service", "jobs",
    "simulate",
)
SELF_TIME_KEYS = LAYERS + ("repro_other", "bench", "other")

_REPRO = SRC / "repro"
_BENCH = ROOT / "perfbench"


def package_of(filename: str) -> str:
    """The self-time bucket a source file belongs to."""
    if filename.startswith("<") or filename == "~":
        return "other"
    path = Path(filename).resolve()
    if path.is_relative_to(_REPRO):
        parts = path.relative_to(_REPRO).parts
        if len(parts) > 1 and parts[0] in LAYERS:
            return parts[0]
        return "repro_other"
    if path.is_relative_to(_BENCH):
        return "bench"
    return "other"


def self_time_by_package(profile: cProfile.Profile) -> Dict[str, float]:
    """Profiler self time summed per package.

    A C builtin (``heapq.heappush``, ``sorted``...) has no file of its
    own; its time is charged to the packages of its callers, in the
    proportions the profiler recorded per caller.
    """
    out = {key: 0.0 for key in SELF_TIME_KEYS}
    for (filename, _line, _func), entry in pstats.Stats(profile).stats.items():
        _cc, _nc, tt, _ct, callers = entry
        if filename != "~" or not callers:
            out[package_of(filename)] += tt
            continue
        for (caller_file, _l, _f), caller_entry in callers.items():
            out[package_of(caller_file)] += caller_entry[2]
    return out


class Tracer:
    """In-memory spans and counts around patched public functions."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index]`` per span, in start order.
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._patches: List[tuple] = []
        self._links: List[Any] = []
        self._clients: List[Any] = []
        self._gc_start = 0.0

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn: Callable,
              after: Optional[Callable[[], None]] = None) -> Callable:
        """``fn`` wrapped in a span named ``name``; ``after`` runs once
        the span has closed."""
        spans, clock = self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            stack = self._stack()
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
                if after is not None:
                    after()

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) until
        :meth:`uninstall`."""
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = replacement
        else:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, name: str,
             after: Optional[Callable[[], None]] = None) -> None:
        original = owner[attr] if isinstance(owner, dict) \
            else owner.__dict__[attr]
        self.patch(owner, attr, self.timed(name, original, after))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- counts read from public attributes ----------------------------------

    def install_des(self) -> None:
        """Spans around ``Environment.run`` (with the exact event count it
        processed) and counts from ``FairShareLink`` and ``PFSClient``."""
        from repro.des import Environment, FairShareLink
        from repro.pfs.client import PFSClient

        counts = self.counts
        run = self.timed("des.run", Environment.__dict__["run"])

        def counted_run(env, *args, **kwargs):
            before = env.events_processed
            try:
                return run(env, *args, **kwargs)
            finally:
                counts["des.events"] += env.events_processed - before

        self.patch(Environment, "run", counted_run)
        self._collect_instances(FairShareLink, self._links)
        self._collect_instances(PFSClient, self._clients)
        transfer = FairShareLink.__dict__["transfer"]
        batch = FairShareLink.__dict__["transfer_batch"]

        def counted_transfer(link, nbytes):
            counts["des.link.transfers"] += 1
            return transfer(link, nbytes)

        def counted_batch(link, sizes):
            events = batch(link, sizes)
            counts["des.link.transfers"] += len(events)
            return events

        self.patch(FairShareLink, "transfer", counted_transfer)
        self.patch(FairShareLink, "transfer_batch", counted_batch)

    def _collect_instances(self, cls: type, into: List[Any]) -> None:
        init = cls.__dict__["__init__"]

        def collecting_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            into.append(obj)

        self.patch(cls, "__init__", collecting_init)

    def harvest(self) -> None:
        """Fold the links and clients created so far into the counts and
        let them go (an experiment's simulation is freed when it ends)."""
        counts = self.counts
        for link in self._links:
            counts["des.link.bytes"] += link.bytes_transferred
        for client in self._clients:
            stats = client.stats
            counts["pfs.client.ops"] += (
                stats.reads + stats.writes + stats.meta_ops
            )
            counts["pfs.client.retries"] += stats.retries
            counts["pfs.client.cache_hits"] += stats.cache_hits
            counts["pfs.client.cache_misses"] += stats.cache_misses
        self._links.clear()
        self._clients.clear()

    # -- garbage collector ---------------------------------------------------

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.counts["gc.pause_s"] += time.perf_counter() - self._gc_start
            self.counts[f"gc.collections.gen{info['generation']}"] += 1

    def install_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    # -- results -------------------------------------------------------------

    def span_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls and inclusive seconds.  A span nested in
        a span of the same name adds to the calls, not the seconds."""
        spans = self.spans
        out: Dict[str, Dict[str, float]] = {}
        for name, start, end, parent in spans:
            entry = out.setdefault(name, {"calls": 0, "s": 0.0})
            entry["calls"] += 1
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                entry["s"] += end - start
        return out

    def dump(self, path: Path) -> None:
        """Write the spans out (at the end of the run, never during it)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent"],
                "spans": self.spans,
            }, fh)


def traced_run(unit: Callable[[], Any], install: Callable[[Tracer], None],
               seconds: float, spans_path: Path) -> Dict[str, Any]:
    """Run the three passes over ``unit`` (see the module docstring).

    Returns the tracer, what ``unit`` returned on each span-pass unit,
    the wall times of the three passes (per unit) and the profiler's
    self-time split.
    """
    start = time.perf_counter()
    unit()
    untraced = time.perf_counter() - start

    tracer = Tracer()
    install(tracer)
    tracer.install_gc()
    outputs = []
    start = time.perf_counter()
    try:
        while True:
            outputs.append(unit())
            tracer.harvest()
            if time.perf_counter() - start >= seconds:
                break
    finally:
        tracer.uninstall()
    units = len(outputs)
    spanned = (time.perf_counter() - start) / units
    tracer.dump(spans_path)

    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.enable()
    try:
        unit()
    finally:
        profile.disable()
    profiled = time.perf_counter() - start
    self_s = self_time_by_package(profile)
    return {
        "tracer": tracer,
        "units": units,
        "outputs": outputs,
        "untraced": untraced,
        "spanned": spanned,
        "profiled": profiled,
        "self_s": self_s,
    }


def layer_metrics(result: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics every workload shares, per unit of work."""
    tracer: Tracer = result["tracer"]
    units = result["units"]
    counts = tracer.counts
    spans = tracer.span_totals()

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0) / units

    out: Dict[str, float] = {}
    for name in (
        "des.events", "des.link.transfers", "des.link.bytes",
        "pfs.client.ops", "pfs.client.retries", "gc.pause_s",
        "gc.collections.gen0", "gc.collections.gen1", "gc.collections.gen2",
    ):
        out[name] = counts.get(name, 0) / units
    lookups = counts.get("pfs.client.cache_hits", 0) \
        + counts.get("pfs.client.cache_misses", 0)
    out["pfs.client.cache_hit_ratio"] = (
        counts.get("pfs.client.cache_hits", 0) / lookups if lookups else 0.0
    )
    out["des.run_calls"] = span("des.run", "calls")
    out["des.run_s"] = span("des.run", "s")
    out["des.events_per_s"] = (
        out["des.events"] / out["des.run_s"] if out["des.run_s"] else 0.0
    )
    for name in ("scenario.canonical_json", "scenario.digest", "store.get_ref",
                 "store.get", "store.put", "store.set_ref", "journal.flush"):
        out[f"{name}.calls"] = span(name, "calls")
        out[f"{name}.s"] = span(name, "s")
    out["journal.append.calls"] = span("journal.append", "calls")
    for key, seconds in result["self_s"].items():
        out[f"self_s.{key}"] = seconds
    out["trace.untraced_wall_s"] = result["untraced"]
    out["trace.spans_wall_s"] = result["spanned"]
    out["trace.profiled_wall_s"] = result["profiled"]
    out["trace.span_overhead"] = result["spanned"] / result["untraced"]
    out["trace.profile_overhead"] = result["profiled"] / result["untraced"]
    out["trace.unattributed_s"] = (
        result["profiled"] - sum(result["self_s"].values())
    )
    return out
