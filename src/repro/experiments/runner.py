"""Parallel experiment runner backed by the content-addressed run store.

The reproduction suite (19+ experiments, see
:data:`repro.experiments.ALL_EXPERIMENTS`) was historically run one
experiment at a time in-process.  Every experiment is an independent pure
function of ``(experiment id, seed)``, which makes the suite embarrassingly
parallel and perfectly cacheable:

* **Parallel fan-out** -- :func:`run_experiments` spreads experiment x seed
  tasks over a :class:`~concurrent.futures.ProcessPoolExecutor`.  Tasks are
  enumerated in a deterministic order and results are reassembled in that
  order, so ``--jobs 4`` output is byte-identical to the sequential path.

* **Deterministic per-task seeding** -- before each task (in the worker
  *and* in the sequential fallback) the global ``random`` / ``numpy``
  generators are re-seeded from a hash of ``(experiment id, seed)``.
  Experiments are expected to seed their own RNGs from the ``seed``
  argument; this guard additionally isolates any accidental use of global
  RNG state from execution order, so sequential and parallel runs agree.

* **Store-backed result cache** -- results land in the content-addressed
  :class:`repro.store.RunStore` (default ``results/store``): each record
  becomes an ``experiment_record`` artifact keyed by the SHA-256 of its
  canonical JSON, and a ref ``records/<id>-s<seed>-<source digest16>``
  points the cache key at it.  The source digest hashes every ``.py``
  file of the installed ``repro`` package, so any source change
  invalidates the whole cache while identical outcomes across digests
  still deduplicate to one object.

* **Failure containment** -- a task that raises, or whose worker process
  dies outright, is recorded as a failed result (``RunResult.error``)
  in the manifest while the rest of the matrix completes; tasks whose
  pool broke are retried once in a fresh pool first (see
  :func:`repro.ioutil.resilient_pool_map`).  ``fail_fast=True`` restores
  abort-on-first-failure.

* **Self-telemetry and provenance** -- cache outcomes (hit / miss / stale /
  corrupt) are counted in the global metrics registry and logged; a stale
  or corrupt entry is *never* served -- it falls back to re-execution,
  and re-putting the recomputed artifact heals a corrupt object in place.
  Every invocation writes a ``manifest.json`` (see
  :mod:`repro.telemetry.provenance`) whose tasks reference record
  artifacts by digest and whose host metadata is a by-digest artifact
  reference; store-backed runs additionally land a run document
  (``repro-io store ls`` / ``diff``) and each returned
  :class:`ExperimentRecord` carries a ``provenance`` reference to both.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import logging
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.experiment import (
    ExperimentRecord,
    record_from_dict,  # noqa: F401  (re-export: canonical home is repro.core)
    record_payload,
)
from repro.jobs import execute_tasks, load_ref_artifact, store_ref_artifact
from repro.telemetry.collect import worker_snapshot
from repro.store import RunArtifact, RunStore
from repro.store.store import DEFAULT_STORE_DIR
from repro.telemetry import TELEMETRY, build_manifest, write_manifest
from repro.telemetry.provenance import MANIFEST_NAME, host_reference

log = logging.getLogger(__name__)

#: Store location, relative to the caller's working directory by default.
#: (``DEFAULT_CACHE_DIR`` is the historical name, kept as an alias.)
DEFAULT_CACHE_DIR = DEFAULT_STORE_DIR


# -- cache keying ------------------------------------------------------------

def source_digest() -> str:
    """SHA-256 over every ``.py`` file of the installed ``repro`` package.

    Path-relative names are mixed into the hash so renames invalidate too.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode("utf-8"))
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def task_seed(experiment_id: str, seed: int) -> int:
    """Deterministic 64-bit seed for one (experiment, seed) task."""
    digest = hashlib.sha256(f"{experiment_id}:{seed}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def record_ref_name(experiment_id: str, seed: int, digest: str) -> str:
    """Store ref key for one cached (experiment, seed, source digest) task."""
    return f"records/{experiment_id}-s{seed}-{digest[:16]}"


# -- task execution ----------------------------------------------------------

@functools.cache
def _freeze_start_up_heap() -> None:
    """Take everything alive now -- modules, classes, functions -- out of
    the cycle collector's reach, once per process.

    A full collection rescans the whole long-lived heap, and allocation-
    heavy simulations trigger them several times a second.  Unfrozen, the
    import graph is rescanned on every pass (~35 ms each on a 2-vCPU host,
    ~10 ms frozen), often inside a millisecond-scale experiment.  Frozen
    objects are still freed by reference counting; only a reference cycle
    among them would never be collected.
    """
    gc.freeze()


def _execute(task: Tuple[str, int]) -> Dict:
    """Run one (experiment id, seed) task; must be module-level (picklable)."""
    from repro.experiments import ALL_EXPERIMENTS

    _freeze_start_up_heap()
    experiment_id, seed = task
    ts = task_seed(experiment_id, seed)
    random.seed(ts)
    try:  # numpy is a hard dependency, but stay importable without it
        import numpy as np

        np.random.seed(ts % 2**32)
    except ImportError:  # pragma: no cover
        pass
    return ALL_EXPERIMENTS[experiment_id](seed=seed).to_dict()


def _execute_timed(task: Tuple[str, int]) -> Tuple[Dict, float, Optional[Dict]]:
    """Worker-side wrapper: run one task and time it in the worker, so the
    manifest's per-task durations are real even under the process pool.

    The third element is this worker's telemetry snapshot (``None`` when
    telemetry is off or the wrapper runs in-process), cleared per task so
    a pooled worker running many tasks reports each one exactly once."""
    start = time.perf_counter()
    payload = _execute(task)
    seconds = time.perf_counter() - start
    return payload, seconds, worker_snapshot()


@dataclass
class RunResult:
    """Outcome of one (experiment, seed) task.

    ``record`` is ``None`` exactly when the task failed (worker crash or
    in-task exception); ``error`` then carries a human-readable reason and
    the failure is recorded in the run manifest instead of aborting the
    whole invocation (unless ``fail_fast``).
    """

    experiment_id: str
    seed: int
    record: Optional[ExperimentRecord]
    cached: bool
    seconds: float
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.record is None

    @property
    def payload(self) -> bytes:
        if self.record is None:
            return json.dumps(
                {"error": self.error}, sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
        return record_payload(self.record)

    @property
    def artifact_digest(self) -> Optional[str]:
        """Content address of this record's store artifact (pure function
        of the outcome -- identical whether or not the store was written)."""
        if self.record is None:
            return None
        return RunArtifact.from_record(self.record).digest()


def run_experiments(
    ids: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (0,),
    jobs: int = 1,
    use_cache: bool = True,
    cache_dir: Path | str = DEFAULT_STORE_DIR,
    digest: Optional[str] = None,
    manifest: bool = True,
    manifest_path: Optional[Union[Path, str]] = None,
    fail_fast: bool = False,
) -> List[RunResult]:
    """Run ``ids`` x ``seeds`` experiment tasks, in parallel when ``jobs > 1``.

    Parameters
    ----------
    ids:
        Experiment ids in the order results should be returned
        (default: every registered experiment).
    seeds:
        Seeds to run each experiment with.
    jobs:
        Worker process count; ``1`` runs everything in this process.
    use_cache:
        Serve unchanged (id, seed, source digest) tasks from the run
        store and put fresh results back into it.
    cache_dir:
        Store root (created on demand; default ``results/store``).
    digest:
        Precomputed :func:`source_digest` (recomputed when ``None``).
    manifest:
        Write a run-provenance ``manifest.json`` describing this invocation
        (see :mod:`repro.telemetry.provenance`), land a run document in the
        store (when ``use_cache``) and attach a provenance reference to
        every returned record.
    manifest_path:
        Where to write it (default: ``<cache_dir>/../manifest.json``, i.e.
        next to the store the results live under).
    fail_fast:
        When false (default) a task that raises -- or whose worker process
        dies -- becomes a failed :class:`RunResult` (``record is None``,
        ``error`` set, recorded in the manifest) while every other task
        still completes.  When true the first failure propagates as an
        exception, aborting the run.

    Returns
    -------
    Results in deterministic task order (ids outer, seeds inner) --
    independent of completion order and of ``jobs``.
    """
    from repro.experiments import ALL_EXPERIMENTS

    if ids is None:
        ids = list(ALL_EXPERIMENTS)
    unknown = [i for i in ids if i not in ALL_EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiment id(s): {unknown}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    seeds = list(seeds)
    store = RunStore(cache_dir)
    wall_start = time.perf_counter()
    tracer = TELEMETRY.tracer if TELEMETRY.active else None

    tasks: List[Tuple[str, int]] = [(eid, seed) for eid in ids for seed in seeds]
    results: Dict[Tuple[str, int], RunResult] = {}
    cache_counts = {"hits": 0, "fresh": 0, "stale": 0, "corrupt": 0}
    metrics = TELEMETRY.metrics

    if (use_cache or manifest) and digest is None:
        if tracer is not None:
            with tracer.span("source_digest", cat="runner"):
                digest = source_digest()
        else:
            digest = source_digest()

    # Serve cache hits; stale/corrupt entries are counted and recomputed.
    misses: List[Tuple[str, int]] = []
    for task in tasks:
        hit, status = (
            _cache_load(store, task, digest) if use_cache else (None, "miss")
        )
        if status == "hit":
            cache_counts["hits"] += 1
        else:
            if status in ("stale", "corrupt"):
                cache_counts[status] += 1
            cache_counts["fresh"] += 1  # will be freshly executed
            misses.append(task)
        metrics.counter(f"runner.cache.{status}").inc()
        if hit is not None:
            results[task] = hit
    if use_cache:
        log.debug(
            "store %s: %d hit(s), %d miss(es) of %d task(s)",
            store.root, cache_counts["hits"], len(misses), len(tasks),
        )

    # Compute misses through the shared job-execution core -- in-process
    # for jobs=1, fanned out over resilient worker pools otherwise.
    if misses:
        span_factory = pool_span = None
        if tracer is not None:
            span_factory = lambda k: tracer.span(  # noqa: E731
                "experiment_task", cat="runner",
                experiment=misses[k][0], seed=misses[k][1],
            )
            pool_span = lambda workers, n: tracer.span(  # noqa: E731
                "pool.map", cat="runner", workers=workers, tasks=n,
            )
        outcomes = execute_tasks(
            _execute_timed, misses, jobs,
            fail_fast=fail_fast,
            fail_label=lambda k: (
                f"experiment task {misses[k][0]}#s{misses[k][1]}"
            ),
            span_factory=span_factory,
            pool_span=pool_span,
        )
        for task, outcome in zip(misses, outcomes):
            if outcome.failed:
                log.error(
                    "task %s#s%d failed: %s", task[0], task[1], outcome.error
                )
                results[task] = RunResult(
                    task[0], task[1], None, cached=False,
                    seconds=outcome.seconds, error=outcome.error,
                )
            else:
                results[task] = RunResult(
                    task[0], task[1],
                    record_from_dict(outcome.value),
                    cached=False,
                    seconds=outcome.seconds,
                )
        log.info(
            "executed %d task(s) with jobs=%d in %.2fs",
            len(misses), jobs, time.perf_counter() - wall_start,
        )
        if use_cache:
            for task in misses:
                if not results[task].failed:  # never cache a failure
                    _cache_store(store, task, digest, results[task].record)

    ordered = [results[task] for task in tasks]
    metrics.counter("runner.tasks.total").inc(len(tasks))
    n_failed = sum(1 for r in ordered if r.failed)
    if n_failed:
        metrics.counter("runner.tasks.failed").inc(n_failed)
        log.warning("%d of %d task(s) failed", n_failed, len(tasks))

    if manifest:
        out_path = (
            Path(manifest_path) if manifest_path is not None
            else Path(cache_dir).parent / MANIFEST_NAME
        )
        host = host_reference(store) if use_cache else None
        doc = build_manifest(
            source_digest=digest,
            ids=ids,
            seeds=seeds,
            jobs=jobs,
            cache_dir=cache_dir,
            use_cache=use_cache,
            tasks=[
                {
                    "id": r.experiment_id,
                    "seed": r.seed,
                    "cached": r.cached,
                    "seconds": r.seconds,
                    "record_sha256": hashlib.sha256(r.payload).hexdigest(),
                    **(
                        {"error": r.error} if r.failed
                        else {"artifact": r.artifact_digest}
                    ),
                }
                for r in ordered
            ],
            cache_counts=cache_counts,
            wall_seconds=time.perf_counter() - wall_start,
            host=host,
        )
        write_manifest(doc, out_path)
        run_id = None
        if use_cache:
            # Land the manifest and the run document in the store so the
            # invocation is addressable (``repro-io store ls/diff``).
            manifest_digest = store.put(RunArtifact.from_run_manifest(doc))
            artifacts = {
                f"{r.experiment_id}#s{r.seed}": r.artifact_digest
                for r in ordered
                if not r.failed
            }
            if host is not None:
                artifacts["host"] = host["artifact"]
            run_id = store.add_run(
                "experiment", manifest_digest, artifacts, created=doc["created"]
            )
        ref = {"manifest": str(out_path), "source_digest": digest}
        if run_id is not None:
            ref["run_id"] = run_id
            ref["store"] = str(store.root)
        for r in ordered:
            if r.record is not None:
                r.record.provenance = dict(
                    ref,
                    seed=r.seed,
                    cached=r.cached,
                    seconds=r.seconds,
                    artifact=r.artifact_digest,
                )

    return ordered


# -- store-backed cache I/O --------------------------------------------------

def _cache_load(
    store: RunStore, task: Tuple[str, int], digest: Optional[str]
) -> Tuple[Optional[RunResult], str]:
    """Try to serve ``task`` from the run store.

    Returns ``(result, status)`` where status is one of ``"hit"``,
    ``"miss"`` (no ref / no object), ``"stale"`` (ref keyed on another
    source digest) or ``"corrupt"`` (unreadable ref, or an artifact whose
    bytes no longer hash to its address).  Stale and corrupt entries are
    logged and *never* served; the caller falls back to re-execution, and
    the re-put heals a corrupt object in place.
    """
    if not digest:
        return None, "miss"
    name = record_ref_name(task[0], task[1], digest)
    artifact, status, _digest = load_ref_artifact(store, name, digest)
    if artifact is None:
        return None, status
    try:
        record = artifact.to_record()
    except ValueError as exc:
        log.warning("corrupt cache entry %s (%s); re-executing", name, exc)
        return None, "corrupt"
    return (
        RunResult(task[0], task[1], record, cached=True, seconds=0.0),
        "hit",
    )


def _cache_store(
    store: RunStore, task: Tuple[str, int], digest: str, record: ExperimentRecord
) -> None:
    # Prune refs for the same task keyed on older source digests (their
    # objects stay until ``store gc`` decides they are unreachable).
    stale_prefix = f"records/{task[0]}-s{task[1]}-"
    current = record_ref_name(task[0], task[1], digest)
    for name, _ in store.refs(f"{stale_prefix}*"):
        if name != current:
            store.delete_ref(name)
    store_ref_artifact(
        store,
        current,
        RunArtifact.from_record(record),
        meta={
            "experiment_id": task[0],
            "seed": task[1],
            "source_digest": digest,
        },
    )
