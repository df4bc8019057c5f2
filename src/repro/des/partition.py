"""One YAWNS conservative window loop over partitioned LPs.

The LP population of a :class:`~repro.des.ross.RossKernel` is split into
*partitions* (ideally along fabric islands -- racks / OSS groups -- so that
most traffic stays inside a partition); every partition owns its LPs'
event queues, and each conservative window is processed by all partitions.
:meth:`PartitionedExecutor._drive` is the one window loop: it reduces the
per-partition minima to the LBTS, cuts off at ``until``, rejects degenerate
windows, records the window's stats, and routes the cross-partition
messages -- gathered at the window barrier and sorted into their canonical
content-based order, so thread/process completion order cannot leak into
results -- to their destination partitions before the next reduction.
:class:`ConservativeExecutor` is that loop over a one-partition serial
plan.

Determinism: an LP processes exactly the same events in exactly the same
local order as under the sequential executor -- the partition an LP lives
in only changes *where* that happens, never *what* -- so final LP states
and per-LP traces are bit-identical across all executors and backends
(the engine-equivalence property tests pin this).

Backends
--------
Each backend supplies only the two steps of a window: run it on every
partition, and deliver the routed events (reporting each partition's next
pending timestamp).

``serial``
    One partition at a time, in index order.  The reference
    implementation; also the cheapest when windows are narrow.
``thread``
    A :class:`~concurrent.futures.ThreadPoolExecutor` processes
    partitions concurrently within each window.  Wins when LP handlers
    release the GIL (numpy cohort handlers); loses little otherwise.
``process``
    Persistent worker processes, one per partition, each owning its
    partition's LP state for the whole run.  Only window horizons and
    cross-partition events cross the IPC boundary.  Requires a picklable
    ``kernel_factory`` so every worker can build its shard of the model.
"""

from __future__ import annotations

import heapq
import logging
import multiprocessing
import traceback
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.des.cohort import canonical_event_sort
from repro.des.engine import SimulationError
from repro.des.ross import (
    ExecutionStats,
    LogicalProcess,
    RossEvent,
    RossKernel,
    _Mediator,
)
from repro.telemetry import TELEMETRY
from repro.telemetry.collect import (
    init_worker,
    merge_snapshot,
    snapshot as telemetry_snapshot,
    worker_init_args,
)

_INF = float("inf")

BACKENDS = ("serial", "thread", "process")

#: One partition's per-window result: ``(cross_partition_events,
#: events_processed, max_events_one_lp)``.
WindowResult = Tuple[List[RossEvent], int, int]


def _degenerate_window_error(lbts: float, lookahead: float) -> SimulationError:
    """A window that admits no events would loop forever; fail loudly.

    This happens when the lookahead vanishes against the magnitude of the
    clock (``lbts + lookahead == lbts`` in float64) -- an effectively
    zero-lookahead configuration.  Raising is the difference between a
    clear diagnostic and a silent spin.
    """
    return SimulationError(
        f"degenerate conservative window at t={lbts!r}: lookahead "
        f"{lookahead!r} vanishes against the clock (lbts + lookahead == "
        f"lbts in float64), so the window can never admit an event. "
        f"Increase the lookahead or rescale the model's time units."
    )


# ---------------------------------------------------------------------------
# Partition plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionPlan:
    """Assignment of LP ids to partitions.

    ``assignment`` maps every LP id to a partition index in
    ``[0, n_partitions)``.  Build one with :meth:`round_robin`,
    :meth:`contiguous` or :meth:`from_islands`.
    """

    n_partitions: int
    assignment: Dict[int, int]

    def __post_init__(self):
        if self.n_partitions < 1:
            raise ValueError("need at least one partition")
        bad = {lp: p for lp, p in self.assignment.items()
               if not 0 <= p < self.n_partitions}
        if bad:
            raise ValueError(f"LP(s) assigned outside partition range: {bad}")

    @classmethod
    def round_robin(cls, lp_ids: Sequence[int], n_partitions: int) -> "PartitionPlan":
        ids = sorted(lp_ids)
        n = max(1, min(n_partitions, len(ids)))
        return cls(n, {lp: i % n for i, lp in enumerate(ids)})

    @classmethod
    def contiguous(cls, lp_ids: Sequence[int], n_partitions: int) -> "PartitionPlan":
        """Equal contiguous slices of the sorted id space.

        The right default for island-numbered models: neighbouring islands
        (which exchange halo traffic) land in the same partition.
        """
        ids = sorted(lp_ids)
        n = max(1, min(n_partitions, len(ids)))
        per = -(-len(ids) // n)  # ceil division
        return cls(n, {lp: min(i // per, n - 1) for i, lp in enumerate(ids)})

    @classmethod
    def from_islands(
        cls, islands: Sequence[Sequence[int]], n_partitions: Optional[int] = None
    ) -> "PartitionPlan":
        """Partition along pre-grouped islands (e.g. fabric islands).

        Whole islands are assigned contiguously so intra-island traffic
        never crosses a partition boundary; ``n_partitions`` defaults to
        one partition per island.
        """
        if not islands:
            raise ValueError("need at least one island")
        n = len(islands) if n_partitions is None else min(n_partitions, len(islands))
        n = max(1, n)
        per = -(-len(islands) // n)
        assignment: Dict[int, int] = {}
        for i, members in enumerate(islands):
            part = min(i // per, n - 1)
            for lp in members:
                if lp in assignment:
                    raise ValueError(f"LP {lp} appears in multiple islands")
                assignment[lp] = part
        return cls(n, assignment)

    def members(self, partition: int) -> List[int]:
        return sorted(lp for lp, p in self.assignment.items() if p == partition)

    def describe(self) -> str:
        sizes = [0] * self.n_partitions
        for p in self.assignment.values():
            sizes[p] += 1
        return (f"{self.n_partitions} partition(s) over "
                f"{len(self.assignment)} LP(s), sizes {sizes}")


def fabric_islands(spec) -> List[Dict[str, Any]]:
    """Group a :class:`~repro.cluster.platform.PlatformSpec` into islands.

    Each OSS (with its OSTs) anchors one island -- the storage-side
    "rack" -- and the compute nodes are dealt out contiguously across
    islands, mirroring how rack-local traffic dominates on real fabrics.
    Returns one dict per island: ``{"oss": name, "osts": [ids],
    "compute": [names]}``.  The scenario layer and the scale model use
    this to size LP populations and partition plans from the platform.
    """
    n_islands = max(1, spec.n_oss)
    islands: List[Dict[str, Any]] = []
    per_compute = -(-spec.n_compute // n_islands)
    for i in range(n_islands):
        lo = i * per_compute
        hi = min(spec.n_compute, lo + per_compute)
        islands.append({
            "oss": f"oss{i}",
            "osts": list(range(i * spec.osts_per_oss,
                               (i + 1) * spec.osts_per_oss)),
            "compute": [f"c{j}" for j in range(lo, hi)],
        })
    return islands


# ---------------------------------------------------------------------------
# Per-partition runtime
# ---------------------------------------------------------------------------

class _Shard(_Mediator):
    """One partition's private runtime: LPs, queues, clock and outbox.

    LP handlers receive the shard as their ``kernel`` argument and send
    through the same contract as :class:`~repro.des.ross.RossKernel`.  A
    shard owns its LPs' queues and send counters, so partitions execute a
    window concurrently without sharing any mutable state.
    """

    __slots__ = (
        "lookahead", "_known", "lps", "queues",
        "_now", "_current_lp", "_outbox", "_send_counters", "events_handled",
    )

    def __init__(self, kernel: RossKernel, lps: Dict[int, LogicalProcess]):
        self.lookahead = kernel.lookahead
        self._known = kernel.lps
        self.lps = lps
        self.queues: Dict[int, List[RossEvent]] = {lp_id: [] for lp_id in lps}
        self._now = 0.0
        self._current_lp: Optional[int] = None
        self._outbox: List[RossEvent] = []
        self._send_counters = {lp_id: kernel._send_counters[lp_id] for lp_id in lps}
        self.events_handled = 0

    def enqueue(self, ev: RossEvent) -> None:
        heapq.heappush(self.queues[ev.dest], ev)

    def min_pending(self) -> float:
        heads = [q[0].time for q in self.queues.values() if q]
        return min(heads) if heads else _INF

    def route(self, events: List[RossEvent]) -> float:
        """Deliver routed events; return the next pending timestamp."""
        for ev in events:
            self.enqueue(ev)
        return self.min_pending()

    def run_window(self, horizon: float, until: float) -> WindowResult:
        """Process every pending event below ``horizon`` (and ``until``).

        Intra-partition messages are enqueued locally (their timestamps
        are beyond the horizon, so they cannot join the current window);
        everything else is handed back for the executor to route after the
        barrier.
        """
        remote: List[RossEvent] = []
        window_events = 0
        max_per_lp = 0
        for lp_id in sorted(self.queues):
            q = self.queues[lp_id]
            if not q:
                continue
            lp = self.lps[lp_id]
            handled_here = 0
            while q and q[0].time < horizon and q[0].time <= until:
                handled_here += 1
                for new in self._execute(lp, heapq.heappop(q)):
                    if new.time < horizon:
                        raise RuntimeError(
                            "causality violation: generated event inside "
                            "the current window (lookahead contract broken)"
                        )
                    if new.dest in self.lps:
                        heapq.heappush(self.queues[new.dest], new)
                    else:
                        remote.append(new)
            window_events += handled_here
            if handled_here > max_per_lp:
                max_per_lp = handled_here
        self.events_handled += window_events
        return remote, window_events, max_per_lp

    def result(self) -> Dict[str, Any]:
        """The end-of-run payload every backend returns to the executor."""
        return {
            "events": self.events_handled,
            "digests": {lp_id: lp.state_digest() for lp_id, lp in self.lps.items()},
            "traces": {lp_id: lp.trace for lp_id, lp in self.lps.items()},
            "collected": {
                lp_id: lp.collect_result()
                for lp_id, lp in self.lps.items()
                if hasattr(lp, "collect_result")
            },
        }


def _build_shards(kernel: RossKernel, plan: PartitionPlan) -> List[_Shard]:
    """Split a populated kernel into per-partition shards.

    The kernel's injected initial events (its outbox) are routed into the
    owning shards; its per-LP send counters carry over so a partitioned
    run started mid-stream numbers messages identically.
    """
    missing = sorted(set(kernel.lps) - set(plan.assignment))
    if missing:
        raise ValueError(f"partition plan does not cover LP(s): {missing}")
    members: List[Dict[int, LogicalProcess]] = [
        {} for _ in range(plan.n_partitions)
    ]
    for lp_id in sorted(kernel.lps):
        members[plan.assignment[lp_id]][lp_id] = kernel.lps[lp_id]
    shards = [_Shard(kernel, lps) for lps in members]
    for ev in kernel._drain_outbox():
        shards[plan.assignment[ev.dest]].enqueue(ev)
    return shards


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------

@dataclass
class PartitionStats(ExecutionStats):
    """Execution stats plus partition-level occupancy accounting."""

    backend: str = "serial"
    partitions: int = 1
    #: Total events each partition processed over the whole run.
    partition_events: List[int] = field(default_factory=list)
    #: Per window: how many partitions processed at least one event.  The
    #: realized-parallelism signal -- a window occupying one partition ran
    #: as fast as the serial executor would have.
    occupied_partitions: List[int] = field(default_factory=list)
    #: Events that crossed a partition boundary (synchronization traffic).
    exchanged: int = 0

    @property
    def mean_occupancy(self) -> float:
        """Average number of partitions active per window."""
        if not self.occupied_partitions:
            return 0.0
        return sum(self.occupied_partitions) / len(self.occupied_partitions)

    @property
    def exchange_fraction(self) -> float:
        """Share of all events that crossed partitions."""
        return self.exchanged / self.events if self.events else 0.0


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------

class PartitionedExecutor:
    """Conservative windowed execution with concurrent partitions.

    Parameters
    ----------
    kernel:
        A populated :class:`RossKernel` (serial/thread backends; optional
        for ``process``, where each worker builds its own via the factory).
    plan:
        LP-to-partition assignment.  Defaults to one round-robin partition
        per worker.
    backend:
        ``"serial"``, ``"thread"`` or ``"process"`` (see module docs).
    max_workers:
        Concurrency cap for the thread backend (the process backend runs
        one worker per partition by construction).
    kernel_factory / factory_args:
        Module-level callable (plus positional args) that rebuilds the
        populated kernel; required by the process backend, which cannot
        ship live LP object graphs across the IPC boundary.
    """

    def __init__(
        self,
        kernel: Optional[RossKernel] = None,
        plan: Optional[PartitionPlan] = None,
        backend: str = "serial",
        max_workers: Optional[int] = None,
        kernel_factory: Optional[Callable[..., RossKernel]] = None,
        factory_args: Tuple = (),
    ):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
        if kernel is None:
            if kernel_factory is None:
                raise ValueError("need a kernel or a kernel_factory")
            if backend != "process":
                kernel = kernel_factory(*factory_args)
        if backend == "process" and kernel_factory is None:
            raise ValueError(
                "the process backend needs a picklable kernel_factory: live "
                "LP graphs do not cross the IPC boundary"
            )
        probe = kernel if kernel is not None else kernel_factory(*factory_args)
        if probe.lookahead <= 0:
            raise ValueError("partitioned execution requires positive lookahead")
        self.lookahead = probe.lookahead
        if plan is None:
            workers = max_workers or multiprocessing.cpu_count()
            plan = PartitionPlan.round_robin(sorted(probe.lps), workers)
        self.kernel = kernel
        self.plan = plan
        self.backend = backend
        self.max_workers = max_workers
        self.kernel_factory = kernel_factory
        self.factory_args = factory_args
        self.stats = PartitionStats(backend=backend, partitions=plan.n_partitions)
        #: Every partition's end-of-run payload (see :meth:`_Shard.result`).
        self._results: List[Dict[str, Any]] = []

    def run(self, until: float = _INF) -> PartitionStats:
        if self.backend == "process":
            self._results = self._run_process(until)
        else:
            self._results = self._run_local(until)
        self.stats.partition_events = [r["events"] for r in self._results]
        self._publish_telemetry()
        return self.stats

    # -- the window loop -----------------------------------------------------
    def _drive(
        self,
        mins: List[float],
        run_window: Callable[[float], List[WindowResult]],
        route: Callable[[List[List[RossEvent]]], List[float]],
        until: float,
    ) -> None:
        """The YAWNS window loop, shared by every backend.

        ``mins`` holds each partition's next pending timestamp.  Each
        round takes LBTS = ``min(mins)``, runs the window ``[LBTS, LBTS +
        lookahead)`` on every partition (``run_window(horizon)``), and
        hands each partition its share of the canonically sorted
        cross-partition traffic (``route(groups)``, which returns the new
        ``mins``).  Because every message carries at least ``lookahead``
        of delay, no event generated inside a window can land in it.
        """
        assignment = self.plan.assignment
        while True:
            lbts = min(mins)
            if lbts == _INF or lbts > until:
                return
            horizon = lbts + self.lookahead
            if not horizon > lbts:
                raise _degenerate_window_error(lbts, self.lookahead)
            groups: List[List[RossEvent]] = [
                [] for _ in range(self.plan.n_partitions)
            ]
            for ev in self._record_window(run_window(horizon), lbts):
                groups[assignment[ev.dest]].append(ev)
            mins = route(groups)

    def _record_window(
        self, per_partition: List[WindowResult], now: float
    ) -> List[RossEvent]:
        """Fold one window's per-partition results into the stats; return
        the canonically-sorted cross-partition traffic.

        ``now`` is the window's LBTS (simulated seconds); when telemetry
        is on it timestamps the occupancy/exchange time series.
        """
        stats = self.stats
        window_events = sum(n for _, n, _ in per_partition)
        stats.events += window_events
        stats.windows += 1
        stats.window_sizes.append(window_events)
        stats.critical_path += max((m for _, _, m in per_partition), default=0)
        occupied = sum(1 for _, n, _ in per_partition if n)
        stats.occupied_partitions.append(occupied)
        remote: List[RossEvent] = []
        for out, _, _ in per_partition:
            remote.extend(out)
        stats.exchanged += len(remote)
        if TELEMETRY.active:
            series = TELEMETRY.series
            series.record("des.partition.occupancy", now, occupied, "partitions")
            series.record("des.partition.window_events", now, window_events, "events")
            series.record("des.partition.exchanged", now, len(remote), "events")
        return canonical_event_sort(remote)

    def _publish_telemetry(self) -> None:
        if not TELEMETRY.active:
            return
        m = TELEMETRY.metrics
        s = self.stats
        m.counter("des.partition.windows").inc(s.windows)
        m.counter("des.partition.events").inc(s.events)
        m.counter("des.partition.exchanged").inc(s.exchanged)
        for occupied in s.occupied_partitions:
            m.histogram("des.partition.window_occupancy").observe(occupied)
        for p, n in enumerate(s.partition_events):
            m.counter(f"des.partition.p{p}.events").inc(n)

    # -- serial / thread -----------------------------------------------------
    def _run_local(self, until: float) -> List[Dict[str, Any]]:
        shards = _build_shards(self.kernel, self.plan)
        threaded = self.backend == "thread"
        pool = (
            ThreadPoolExecutor(
                max_workers=min(
                    self.plan.n_partitions,
                    self.max_workers or multiprocessing.cpu_count(),
                )
            )
            if threaded
            else nullcontext()
        )
        with pool:
            mapper = pool.map if threaded else map
            self._drive(
                [s.min_pending() for s in shards],
                lambda horizon: list(
                    mapper(lambda s: s.run_window(horizon, until), shards)
                ),
                lambda groups: [s.route(g) for s, g in zip(shards, groups)],
                until,
            )
        return [s.result() for s in shards]

    # -- process backend -----------------------------------------------------
    def _run_process(self, until: float) -> List[Dict[str, Any]]:
        ctx = _mp_context()
        conns = []
        procs = []
        try:
            telemetry_active, log_level = worker_init_args()
            for p in range(self.plan.n_partitions):
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=_partition_worker,
                    args=(child, self.kernel_factory, self.factory_args,
                          self.plan, p, telemetry_active, log_level),
                    daemon=False,
                )
                proc.start()
                child.close()
                conns.append(parent)
                procs.append(proc)

            def exchange(msgs):
                for conn, msg in zip(conns, msgs):
                    conn.send(msg)
                return [self._recv(conn) for conn in conns]

            self._drive(
                [self._recv(conn) for conn in conns],
                lambda horizon: exchange([("window", horizon, until)] * len(conns)),
                lambda groups: exchange([("route", g) for g in groups]),
                until,
            )
            finals = exchange([("finish",)] * len(conns))
        finally:
            for conn in conns:
                conn.close()
            for proc in procs:
                proc.join(timeout=30)
                if proc.is_alive():  # pragma: no cover - defensive
                    proc.terminate()
                    proc.join()
        for final in finals:
            merge_snapshot(final.pop("telemetry"))
        return finals

    @staticmethod
    def _recv(conn):
        msg = conn.recv()
        if isinstance(msg, tuple) and msg and msg[0] == "error":
            raise SimulationError(
                f"partition worker failed:\n{msg[1]}"
            )
        return msg

    # -- result access -------------------------------------------------------
    def _merged(self, key: str) -> Dict[int, Any]:
        out: Dict[int, Any] = {}
        for result in self._results:
            out.update(result[key])
        return out

    def state_digests(self) -> Dict[int, Any]:
        """Final ``state_digest()`` of every LP, merged across partitions."""
        return self._merged("digests")

    def traces(self) -> Dict[int, list]:
        """Per-LP handled-event traces (determinism checks)."""
        return self._merged("traces")

    def collect(self) -> Dict[int, Any]:
        """``collect_result()`` of every LP that defines it, merged across
        partitions: how runs return model-level outcomes."""
        return self._merged("collected")


class ConservativeExecutor(PartitionedExecutor):
    """YAWNS-style conservative windowed executor on one core.

    The shared window loop over a one-partition serial plan.  Requires
    ``kernel.lookahead > 0``.  Each round:

    1. LBTS = min timestamp over all pending events (global reduction).
    2. Window = ``[LBTS, LBTS + lookahead)``.
    3. Every LP processes its pending events inside the window in local
       key order.  Messages generated carry timestamps >= LBTS + lookahead,
       i.e. beyond the window, so no causality violation is possible.
    4. Barrier; repeat.

    LPs run in place, so the kernel's LPs hold the final state afterwards.
    """

    def __init__(self, kernel: RossKernel):
        if kernel.lookahead <= 0:
            raise ValueError("conservative execution requires positive lookahead")
        super().__init__(kernel, PartitionPlan(1, dict.fromkeys(kernel.lps, 0)))


def _mp_context():
    """Prefer fork (cheap, no pickling of the factory's globals); fall back
    to the platform default where fork is unavailable."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _partition_worker(
    conn, factory, factory_args, plan, partition,
    telemetry_active=False, log_level=logging.WARNING,
):
    """Worker entry point: build the model, keep one partition, serve windows.

    ``telemetry_active``/``log_level`` mirror the parent's observability
    state (a ``spawn``-context worker starts from library defaults); the
    worker's spans/metrics/series ride back on the ``finish`` reply.
    """
    try:
        init_worker(telemetry_active, log_level)
        shard = _build_shards(factory(*factory_args), plan)[partition]
        conn.send(shard.min_pending())
        while True:
            msg = conn.recv()
            if msg[0] == "window":
                span = (
                    TELEMETRY.tracer.span(
                        "partition.window", cat="des.partition",
                        partition=partition,
                    )
                    if TELEMETRY.active
                    else nullcontext()
                )
                with span:
                    reply = shard.run_window(*msg[1:])
            elif msg[0] == "route":
                reply = shard.route(msg[1])
            elif msg[0] == "finish":
                conn.send(dict(shard.result(), telemetry=telemetry_snapshot()))
                return
            else:  # pragma: no cover - protocol misuse
                raise RuntimeError(f"unknown message {msg[0]!r}")
            conn.send(reply)
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass


__all__ = [
    "BACKENDS",
    "ConservativeExecutor",
    "PartitionPlan",
    "PartitionStats",
    "PartitionedExecutor",
    "fabric_islands",
]
