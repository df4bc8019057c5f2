"""``service``: a closed loop against the run service.

Load comes from this one process over :data:`CONNECTIONS` connections;
each sends its next submission only after the previous reply
(a closed loop, so a slower service receives less load).  Every request
submits the ``tiny`` preset, in a fixed mix:

* warm requests repeat one seed whose result a cold submission put in
  the store during set-up -- admission and store reads only, no DES work
  and no journal writes;
* every :data:`COLD_EVERY`-th request is a seed not seen before -- a pool
  computation, a store put, a ref write and a journal fsync each.

Timed runs talk to ``repro-io serve --workers 1`` in its own process.
The traced run boots :class:`~repro.service.RunService` in this process
instead, so the span wrappers reach its store and journal calls.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from perfbench import checks
from perfbench.common import (
    Ops, Options, end_to_end, percentile, proc_status_kb, python_env, ROOT,
)
from perfbench.trace import Tracer, layer_metrics, traced_run

SCENARIO = "tiny"
#: Client connections, so requests in flight.  One: a request never
#: queues behind another's computation on the single pool worker, and
#: client and server never both need a core at once.  With two, the
#: throughput swung up to 2x between runs on a shared two-core host.
CONNECTIONS = 1
#: One request in this many is cold; the rest are warm.  The cold ones
#: wait on an fsync and on the pool worker, which a shared host slows far
#: more than the warm path: at 1 in 20 they took a third of the time, and
#: ``wall_s`` went from 1.3 to 2.4 s in one of six runs.
COLD_EVERY = 100
#: Requests per unit of work (``wall_s``; one traced unit).
BLOCK = 1000
SMOKE_BLOCK = 100
#: Blocks answered before the server's peak RSS is read.  The server keeps
#: every job it served, so its memory grows with requests answered; read
#: after a fixed amount of work it does not move with throughput.
RSS_BLOCKS = 3
#: Cold requests resubmitted after the timed phase; each must be a warm
#: hit on the artifact its first submission computed.
RESUBMIT = 20
#: Warm requests sent on their own after the timed phase, to check that
#: the warm path computes nothing and writes nothing to the journal.
WARM_CHECK = 200
BOOT_TIMEOUT = 60.0
#: Server stats fields that count a rejected submission.
REJECTED = ("rejected_backpressure", "rejected_quota", "rejected_draining")


def warm_seed(seed: int) -> int:
    """The one seed warm requests repeat; the set-up submission computes
    it (and so warms the pool worker, which every server life pays once)."""
    return 1 + 1_000_003 * seed


def seeds_for(seed: int) -> Iterator[int]:
    """Request seeds: the warm seed, and every :data:`COLD_EVERY`-th
    request the next seed after it."""
    base = warm_seed(seed)
    cold = itertools.count(base + 1)
    for i in itertools.count(1):
        yield next(cold) if i % COLD_EVERY == 0 else base


class ClosedLoop:
    """Closed-loop load generator over :class:`~repro.service.ServiceClient`
    connections, counting refusals, retries and reconnects against the
    requests it attempts."""

    def __init__(self, clients: List[Any], seeds: Iterator[int]) -> None:
        self.clients = clients
        self.seeds = seeds
        self.ops = Ops()
        #: ``{"seed", "state", "cached", "artifact"}`` per answered job.
        self.replies: List[Dict[str, Any]] = []
        self.retries = 0
        self.reconnects = 0

    async def run(self, count: int) -> float:
        """Send ``count`` requests; returns the elapsed seconds."""
        issued = 0

        async def connection(index: int, client) -> None:
            nonlocal issued
            while issued < count:
                issued += 1
                await self._request(client, f"bench-{index}", next(self.seeds))

        start = time.perf_counter()
        await asyncio.gather(*(connection(i, c)
                               for i, c in enumerate(self.clients)))
        return time.perf_counter() - start

    async def _request(self, client, tenant: str, seed: int) -> None:
        while True:
            begin = time.perf_counter()
            try:
                reply = await client.submit(SCENARIO, seed=seed, tenant=tenant)
            except ConnectionError:
                self.ops.fail()
                self.reconnects += 1
                await client.reconnect()
            else:
                if "state" in reply:  # a job document, done or not
                    if reply["state"] == "done":
                        self.ops.ok(time.perf_counter() - begin)
                    else:
                        self.ops.fail()
                    task = reply["tasks"][0]
                    self.replies.append({
                        "seed": seed, "state": reply["state"],
                        "cached": task.get("cached"),
                        "artifact": task.get("artifact"),
                    })
                    return
                self.ops.fail()  # refused at admission
                if not reply.get("retry"):
                    return
                await asyncio.sleep(0.01)
            self.retries += 1


def _stats_counts(doc: Dict[str, Any]) -> Dict[str, int]:
    stats = doc["stats"]
    journal = doc.get("journal") or {}
    return {
        "computed": stats["computed"],
        "warm_hits": stats["warm_hits"],
        "coalesced": stats["coalesced"],
        "tasks": stats["tasks_submitted"],
        "jobs": stats["jobs_submitted"],
        "rejected": sum(stats[k] for k in REJECTED),
        "journal_records": journal.get("records", 0),
        "journal_fsync_batches": journal.get("fsync_batches", 0),
    }


async def server_counts(client) -> Dict[str, int]:
    return _stats_counts(await client.stats())


def delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before[key] for key in after}


async def settled_counts(client) -> Dict[str, int]:
    """Server counts once the journal flusher has caught up with the
    records appended after the last reply (start/land records)."""
    previous = await server_counts(client)
    while True:
        await asyncio.sleep(0.25)
        current = await server_counts(client)
        if current == previous:
            return current
        previous = current


# -- timed run: the server in its own process --------------------------------

class ServerProcess:
    """``repro-io serve --workers 1`` in a child process."""

    def __init__(self, state: Path) -> None:
        self.state = state
        self.log = open(state.parent / f"{state.name}.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--workers", "1",
             "--store-dir", str(state / "store")],
            cwd=ROOT, env=python_env(), stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        self.address: Optional[Tuple[str, int]] = None
        self.client = None

    async def ready(self) -> None:
        """Wait for the discovery file of *this* server, then connect."""
        from repro.service import load_discovery
        from repro.service.server import DISCOVERY_NAME

        deadline = time.perf_counter() + BOOT_TIMEOUT
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} during boot"
                )
            try:
                doc = load_discovery(self.state / DISCOVERY_NAME)
            except (FileNotFoundError, ValueError):
                doc = None
            if doc is not None and doc.get("pid") == self.proc.pid:
                break
            if time.perf_counter() > deadline:
                raise RuntimeError("server did not come up")
            await asyncio.sleep(0.005)
        self.address = (doc["host"], doc["port"])
        self.client = await self.connect()
        await self.client.ping()

    async def connect(self):
        from repro.service import ServiceClient

        return await ServiceClient.connect(*self.address)

    def peak_rss_kb(self) -> float:
        return proc_status_kb(self.proc.pid, "VmHWM")

    async def stop(self) -> None:
        """Orderly shutdown; kill only if it does not exit in time."""
        try:
            if self.client is not None and self.proc.poll() is None:
                try:
                    await self.client.shutdown()
                except ConnectionError:
                    pass
                await self.client.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        finally:
            self.log.close()


async def cold_submission(client, seed: int, ops: Ops) -> Dict[str, Any]:
    """One computed submission (see :func:`warm_seed`)."""
    loop = ClosedLoop([client], iter([seed]))
    await loop.run(1)
    if not loop.replies:
        raise RuntimeError("the cold submission was refused")
    ops.check(checks.check_replies, loop.replies, {}, cached=False)
    return loop.replies[0]


def check_unit(replies: List[Dict[str, Any]], change: Dict[str, int],
               reference: Dict[int, str], ops: Ops) -> None:
    """Checks on one stretch of the closed loop: warm requests are store
    hits on the set-up's artifact, each cold seed is computed once."""
    warm = [r for r in replies if r["seed"] in reference]
    cold = [r for r in replies if r["seed"] not in reference]
    ops.check(checks.check_replies, warm, reference, cached=True)
    ops.check(checks.check_replies, cold, {}, cached=False)
    ops.check(checks.check_computed_once, change,
              len({r["seed"] for r in cold}))


async def check_warm_path(client, seed: int, reference: Dict[int, str],
                          ops: Ops) -> None:
    """Warm requests on their own: all hits, nothing computed and no
    journal records."""
    before = await settled_counts(client)
    loop = ClosedLoop([client], itertools.repeat(seed))
    await loop.run(WARM_CHECK)
    ops.check(checks.check_replies, loop.replies, reference, cached=True)
    ops.check(checks.check_warm, delta(await settled_counts(client), before),
              len(loop.replies))


async def check_resubmit(client, replies: List[Dict[str, Any]],
                         ops: Ops) -> None:
    """Cold results resubmitted are warm hits on the same artifacts."""
    before = await server_counts(client)
    again = ClosedLoop([client], iter([r["seed"] for r in replies[:RESUBMIT]]))
    await again.run(min(RESUBMIT, len(replies)))
    ops.check(checks.check_replies, again.replies,
              {r["seed"]: r["artifact"] for r in replies}, cached=True)
    ops.check(checks.check_computed_once,
              delta(await server_counts(client), before), 0)


async def _run(opts: Options) -> Tuple[Dict[str, float], Ops]:
    ops = Ops()
    setup: List[float] = []
    servers: List[ServerProcess] = []
    reference: Dict[int, str] = {}
    try:
        # Every set-up boots a fresh server on an empty store and makes
        # one computed submission; the last server serves the loop.
        for k in range(opts.setup_samples):
            if servers:
                await servers.pop().stop()
            start = time.perf_counter()
            servers.append(ServerProcess(opts.work / f"boot{k}"))
            await servers[-1].ready()
            first = await cold_submission(
                servers[-1].client, warm_seed(opts.seed), ops)
            reference = {first["seed"]: first["artifact"]}
            setup.append(time.perf_counter() - start)
        server = servers[-1]
        clients = [server.client] + [
            await server.connect() for _ in range(CONNECTIONS - 1)]
        before = await settled_counts(server.client)

        block = SMOKE_BLOCK if opts.smoke else BLOCK
        loop = ClosedLoop(clients, seeds_for(opts.seed))
        units: List[float] = []
        start = time.perf_counter()
        # Whole blocks until the time is up, and at least RSS_BLOCKS.
        while (len(units) < RSS_BLOCKS
               or time.perf_counter() - start < opts.seconds):
            units.append(await loop.run(block))
            if len(units) == RSS_BLOCKS:
                peak = server.peak_rss_kb()
        elapsed = time.perf_counter() - start
        change = delta(await settled_counts(server.client), before)
        check_unit(loop.replies, change, reference, ops)
        await check_resubmit(server.client, [
            r for r in loop.replies if r["seed"] not in reference], ops)
        await check_warm_path(server.client, warm_seed(opts.seed),
                              reference, ops)
        for client in clients[1:]:
            await client.close()
        await servers.pop().stop()
        verify_store(server.state / "store", ops)
    finally:
        for server in servers:
            await server.stop()
    ops.merge(loop.ops)
    return end_to_end(setup=setup, units=units, ops=ops, elapsed=elapsed,
                      peak_rss_kb=peak), ops


def verify_store(store: Path, ops: Ops) -> None:
    """The closing ``store verify`` must come back clean."""
    from repro.store import RunStore

    ops.check(checks.check_verify, RunStore(store).verify())


def run(opts: Options) -> Tuple[Dict[str, float], Ops]:
    return asyncio.run(_run(opts))


# -- traced run: the service in this process ---------------------------------

def install_service(tracer: Tracer) -> None:
    from repro.scenario.spec import ScenarioSpec
    from repro.service.journal import JobJournal
    from repro.store import RunStore

    tracer.install_des()
    for name in ("canonical_json", "digest"):
        tracer.wrap(ScenarioSpec, name, f"scenario.{name}")
    for name in ("get_ref", "get", "put", "set_ref"):
        tracer.wrap(RunStore, name, f"store.{name}")
    for name in ("append", "flush"):
        tracer.wrap(JobJournal, name, f"journal.{name}")


def rss_kb() -> float:
    return proc_status_kb(os.getpid(), "VmRSS")


def trace(opts: Options, spans_path: Path) -> Tuple[Dict[str, float], Ops]:
    from repro.service import RunService, ServiceClient, ServiceConfig

    ops = Ops()
    block = SMOKE_BLOCK if opts.smoke else BLOCK
    seeds = seeds_for(opts.seed)
    loop = asyncio.new_event_loop()
    service = RunService(ServiceConfig(store_dir=opts.work / "store",
                                       workers=1, state_dir=opts.work))
    clients: List[Any] = []
    try:
        host, port = loop.run_until_complete(service.start())
        for _ in range(CONNECTIONS):
            clients.append(loop.run_until_complete(
                ServiceClient.connect(host, port)))
        first = loop.run_until_complete(cold_submission(
            clients[0], warm_seed(opts.seed), ops))
        reference = {first["seed"]: first["artifact"]}
        loop.run_until_complete(settled_counts(clients[0]))

        async def one_unit() -> Dict[str, Any]:
            before = await server_counts(clients[0])
            rss = rss_kb()
            load = ClosedLoop(clients, seeds)
            await load.run(block)
            return {
                "load": load,
                "rss_kb": rss_kb() - rss,
                "change": delta(await server_counts(clients[0]), before),
            }

        result = traced_run(lambda: loop.run_until_complete(one_unit()),
                            install_service, opts.seconds, spans_path)
        units = result["outputs"]
        for unit in units:
            check_unit(unit["load"].replies, unit["change"], reference, ops)
            ops.merge(unit["load"].ops)
    finally:
        for client in clients:
            loop.run_until_complete(client.close())
        loop.run_until_complete(service.stop())
        # Connection handlers still winding down, as ``asyncio.run`` would.
        pending = asyncio.all_tasks(loop)
        for task in pending:
            task.cancel()
        loop.run_until_complete(asyncio.gather(*pending,
                                               return_exceptions=True))
        loop.close()
    verify_store(opts.work / "store", ops)

    n = len(units)
    total = {key: sum(u["change"][key] for u in units)
             for key in units[0]["change"]}
    latencies = [x for u in units for x in u["load"].ops.latencies
                 if not math.isinf(x)]
    out = layer_metrics(result)
    out["service.hit_ratio"] = (total["warm_hits"] / total["tasks"]
                                if total["tasks"] else 0.0)
    for key in ("warm_hits", "computed", "coalesced", "rejected"):
        out[f"service.{key}"] = total[key] / n
    out["service.journal.records"] = total["journal_records"] / n
    out["service.journal.fsync_batches"] = total["journal_fsync_batches"] / n
    out["client.retries"] = sum(u["load"].retries for u in units) / n
    out["client.reconnects"] = sum(u["load"].reconnects for u in units) / n
    out["service.latency.p99_ms"] = 1e3 * percentile(latencies, 99)
    out["service.latency.n"] = len(latencies)
    out["service.rss_kb_per_job"] = (
        sum(u["rss_kb"] for u in units) / total["jobs"] if total["jobs"] else 0.0
    )
    return out, ops
