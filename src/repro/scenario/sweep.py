"""Cartesian parameter sweeps over a base scenario.

The evaluation loops every parallel-I/O paper runs ("for each stripe
count, for each transfer size, ...") become data: :func:`expand_grid`
takes a base :class:`~repro.scenario.spec.ScenarioSpec` and an ordered
``{parameter: [values...]}`` grid and yields one fully-resolved scenario
per grid point, in :func:`itertools.product` order (first key outermost --
matching the nested-loop order a hand-written sweep would use).

Parameters address any layer of the spec:

* dotted paths pin the layer explicitly -- ``platform.n_oss``,
  ``storage.default_stripe_count``, ``stack.cb_nodes``,
  ``workloads.0.n_ranks``, ``workloads.0.params.transfer_size``;
* bare names resolve by layer order: a platform field, else a storage
  field, else a stack field, else a workload field (``n_ranks``/``kind``,
  applied to every workload), else a workload *parameter* applied to every
  workload (so ``stripe_count=4`` reaches each job's config).

:func:`run_sweep` executes the expanded points through the same machinery
as the experiment runner: process-pool fan-out, the content-addressed
:class:`repro.store.RunStore` as the point cache (``sweep_point``
artifacts behind ``sweep/<scenario digest16>-<source digest16>`` refs),
and a sweep manifest recording per-point provenance (overrides, digests,
cache status, wall-clock, artifact address).
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import logging
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.cluster.platform import PlatformSpec
from repro.jobs import (
    ProgressLedger,
    execute_tasks,
    load_ref_artifact,
    store_ref_artifact,
)
from repro.telemetry.collect import worker_snapshot
from repro.scenario.spec import (
    ScenarioError,
    ScenarioSpec,
    StackSpec,
    StorageSpec,
    WorkloadSpec,
)
from repro.store import RunArtifact, RunStore
from repro.store.store import DEFAULT_STORE_DIR

log = logging.getLogger(__name__)

SWEEP_SCHEMA = "repro.scenario.sweep/1"
SWEEP_MANIFEST_NAME = "sweep-manifest.json"
SWEEP_PROGRESS_NAME = "sweep-progress.json"
SWEEP_PROGRESS_SCHEMA = "repro.scenario.sweep.progress/1"

#: Sweep results live in the same store as the experiment runner's.
DEFAULT_CACHE_DIR = DEFAULT_STORE_DIR

_WORKLOAD_FIELDS = ("kind", "n_ranks")


def _spec_fields(cls) -> set:
    return {f.name for f in dataclasses.fields(cls)}


def _replace_workload(w: WorkloadSpec, parts: Sequence[str], value) -> WorkloadSpec:
    if parts and parts[0] == "params":
        if len(parts) != 2:
            raise ScenarioError(
                f"workload params path must be 'params.<name>', got "
                f"{'.'.join(parts)!r}"
            )
        params = dict(w.params)
        params[parts[1]] = value
        return dataclasses.replace(w, params=params)
    if len(parts) == 1 and parts[0] in _WORKLOAD_FIELDS:
        return dataclasses.replace(w, **{parts[0]: value})
    raise ScenarioError(f"unknown workload override path {'.'.join(parts)!r}")


def _apply_one(spec: ScenarioSpec, key: str, value) -> ScenarioSpec:
    parts = key.split(".")
    head = parts[0]

    if len(parts) == 1 and head in ("seed", "concurrent", "name"):
        return spec.replace(**{head: value})

    if head in ("platform", "storage", "stack") and len(parts) == 2:
        sub = getattr(spec, head)
        if parts[1] not in _spec_fields(type(sub)):
            raise ScenarioError(f"{head} has no field {parts[1]!r}")
        return spec.replace(**{head: dataclasses.replace(sub, **{parts[1]: value})})

    if head == "workloads":
        if len(parts) < 3:
            raise ScenarioError(
                f"workload override needs 'workloads.<index>.<field>', got {key!r}"
            )
        try:
            idx = int(parts[1])
            wl = list(spec.workloads)
            wl[idx] = _replace_workload(wl[idx], parts[2:], value)
        except (ValueError, IndexError) as exc:
            raise ScenarioError(f"bad workload index in {key!r}: {exc}") from exc
        return spec.replace(workloads=tuple(wl))

    if len(parts) == 1:
        # Bare name: resolve platform -> storage -> stack -> workloads.
        if head in _spec_fields(PlatformSpec):
            return spec.replace(
                platform=dataclasses.replace(spec.platform, **{head: value})
            )
        if head in _spec_fields(StorageSpec):
            return spec.replace(
                storage=dataclasses.replace(spec.storage, **{head: value})
            )
        if head in _spec_fields(StackSpec):
            return spec.replace(
                stack=dataclasses.replace(spec.stack, **{head: value})
            )
        if not spec.workloads:
            raise ScenarioError(
                f"cannot resolve bare parameter {head!r}: no matching spec "
                f"field and the scenario declares no workloads"
            )
        if head in _WORKLOAD_FIELDS:
            wl = [dataclasses.replace(w, **{head: value}) for w in spec.workloads]
        else:
            wl = [
                dataclasses.replace(w, params={**w.params, head: value})
                for w in spec.workloads
            ]
        return spec.replace(workloads=tuple(wl))

    raise ScenarioError(f"unknown override path {key!r}")


def apply_overrides(spec: ScenarioSpec, overrides: Mapping[str, Any]) -> ScenarioSpec:
    """Return ``spec`` with every override applied (spec is not mutated)."""
    for key, value in overrides.items():
        spec = _apply_one(spec, key, value)
    return spec


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def point_name(base: ScenarioSpec, overrides: Mapping[str, Any]) -> str:
    """Human-readable point label, e.g. ``a3-ior/stripe_count=4,transfer_size=1048576``."""
    pairs = ",".join(
        f"{k.rsplit('.', 1)[-1]}={_fmt_value(v)}" for k, v in overrides.items()
    )
    return f"{base.name}/{pairs}" if pairs else base.name


@dataclass(frozen=True)
class SweepPoint:
    """One fully-resolved grid point."""

    name: str
    #: The flat override mapping that produced this point.
    overrides: Dict[str, Any]
    scenario: ScenarioSpec


def expand_grid(
    base: ScenarioSpec, grid: Mapping[str, Sequence[Any]]
) -> List[SweepPoint]:
    """Expand the cartesian product of ``grid`` over ``base``.

    Iteration order is :func:`itertools.product` over the grid's key
    order: the first key is the outermost loop.  Every point is validated;
    an invalid combination fails the whole expansion (before anything
    runs).
    """
    if not grid:
        return [SweepPoint(base.name, {}, base.validate())]
    keys = list(grid)
    empty = [k for k in keys if not list(grid[k])]
    if empty:
        raise ScenarioError(f"empty value list for sweep parameter(s): {empty}")
    points: List[SweepPoint] = []
    for combo in itertools.product(*(list(grid[k]) for k in keys)):
        overrides = dict(zip(keys, combo))
        name = point_name(base, overrides)
        spec = apply_overrides(base, overrides).replace(name=name)
        points.append(SweepPoint(name, overrides, spec.validate()))
    return points


# -- execution ---------------------------------------------------------------

@dataclass
class SweepResult:
    """Outcome of one sweep point.

    ``outcome`` is ``None`` exactly when the point failed (worker crash or
    in-point exception); ``error`` then carries the reason and the failure
    is recorded in the sweep manifest.
    """

    point: SweepPoint
    #: :meth:`repro.scenario.build.ScenarioRun.to_dict` payload.
    outcome: Optional[Dict[str, Any]]
    cached: bool
    seconds: float
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.outcome is None

    @property
    def payload(self) -> bytes:
        doc = {"error": self.error} if self.outcome is None else self.outcome
        return json.dumps(
            doc, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    @property
    def artifact_digest(self) -> Optional[str]:
        """Content address of this point's store artifact (pure function
        of the outcome)."""
        if self.outcome is None:
            return None
        return RunArtifact.from_sweep_point(self.outcome).digest()


def _execute_point(scenario_json: str) -> Dict[str, Any]:
    """Run one scenario (module-level: picklable for the process pool)."""
    from repro.scenario.build import run_scenario

    spec = ScenarioSpec.from_json(scenario_json)
    # Isolate accidental global-RNG use from pool scheduling order, exactly
    # like the experiment runner's per-task seeding guard.
    ts = int.from_bytes(
        hashlib.sha256(spec.digest().encode("utf-8")).digest()[:8], "big"
    )
    random.seed(ts)
    try:
        import numpy as np

        np.random.seed(ts % 2**32)
    except ImportError:  # pragma: no cover
        pass
    return run_scenario(spec).to_dict()


def _execute_point_timed(scenario_json: str):
    """Task wrapper: time the point and, in a pool worker, snapshot the
    worker's telemetry (cleared per point, so a pooled worker serving
    many points reports each exactly once; ``None`` in-process, where
    telemetry already lands in the parent registries)."""
    start = time.perf_counter()
    outcome = _execute_point(scenario_json)
    seconds = time.perf_counter() - start
    return outcome, seconds, worker_snapshot()


def point_ref_name(scenario_digest: str, source_digest: str) -> str:
    """Store ref key for one cached (scenario, source digest) point."""
    return f"sweep/{scenario_digest[:16]}-{source_digest[:16]}"


class _SweepProgress(ProgressLedger):
    """Live progress ledger for one running sweep.

    A :class:`repro.jobs.ProgressLedger` instantiated with the
    historical ``sweep-progress.json`` schema: atomically rewritten next
    to the sweep manifest at start, after every point completion, and at
    finish, so ``repro-io watch`` can tail a consistent document while
    the pool is still working.
    """

    def __init__(self, path: Path, base_name: str, points, jobs: int):
        super().__init__(
            path,
            SWEEP_PROGRESS_SCHEMA,
            (p.name for p in points),
            extra={"sweep": base_name, "jobs": jobs},
        )


def _cache_load(
    store: RunStore, scenario_digest: str, source_digest: str
) -> Optional[Dict[str, Any]]:
    """Serve one point from the store, or ``None`` to re-execute.

    A ref keyed on another source digest, an unreadable ref, an artifact
    whose bytes no longer hash to its address, or one of the wrong kind
    are all logged and never served (the re-put after recomputation
    heals corrupt objects) -- the shared
    :func:`repro.jobs.load_ref_artifact` discipline.
    """
    artifact, _status, _digest = load_ref_artifact(
        store,
        point_ref_name(scenario_digest, source_digest),
        source_digest,
        kind="sweep_point",
    )
    if artifact is None:
        return None
    outcome = dict(artifact.payload)
    return outcome if outcome else None


def _cache_store(
    store: RunStore,
    scenario_digest: str,
    source_digest: str,
    outcome: Dict[str, Any],
) -> str:
    return store_ref_artifact(
        store,
        point_ref_name(scenario_digest, source_digest),
        RunArtifact.from_sweep_point(outcome),
        meta={
            "scenario_digest": scenario_digest,
            "source_digest": source_digest,
        },
    )


def run_sweep(
    base: ScenarioSpec,
    grid: Mapping[str, Sequence[Any]],
    jobs: int = 1,
    use_cache: bool = True,
    cache_dir: Union[Path, str] = DEFAULT_CACHE_DIR,
    seed: Optional[int] = None,
    manifest: bool = True,
    manifest_path: Optional[Union[Path, str]] = None,
    fail_fast: bool = False,
) -> List[SweepResult]:
    """Run every grid point of a sweep, in parallel when ``jobs > 1``.

    Points are executed through :func:`repro.scenario.build.run_scenario`
    on worker processes and cached in the content-addressed run store
    keyed by ``(scenario digest, source digest)`` -- the same invalidation
    discipline as the experiment runner: any source change re-runs
    everything, an unchanged point is a store read.  Results come back in
    grid order regardless of ``jobs``.

    A point that raises -- or whose worker process dies -- becomes a
    failed :class:`SweepResult` (``outcome is None``, ``error`` set,
    recorded in the manifest, never cached) while the remaining points
    still run; ``fail_fast=True`` aborts on the first failure instead.

    When ``manifest`` is true a sweep manifest (schema
    ``repro.scenario.sweep/1``) is written next to the store recording,
    for every point, the overrides, the scenario digest, cache status,
    wall-clock seconds and the point's artifact address; store-backed
    sweeps (``use_cache``) additionally land the manifest and a run
    document in the store (``repro-io store ls/diff``).
    """
    from repro.experiments.runner import source_digest as compute_source_digest
    from repro.telemetry.provenance import host_metadata, host_reference, \
        write_manifest

    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if seed is not None:
        base = base.with_seed(seed)
    points = expand_grid(base, grid)
    cache_dir = Path(cache_dir)
    store = RunStore(cache_dir)
    wall_start = time.perf_counter()
    src_digest = compute_source_digest()

    manifest_out = (
        Path(manifest_path) if manifest_path is not None
        else cache_dir.parent / SWEEP_MANIFEST_NAME
    )

    results: Dict[int, SweepResult] = {}
    misses: List[int] = []
    progress = (
        _SweepProgress(
            manifest_out.with_name(SWEEP_PROGRESS_NAME), base.name, points, jobs
        )
        if manifest
        else None
    )
    for i, point in enumerate(points):
        outcome = (
            _cache_load(store, point.scenario.digest(), src_digest)
            if use_cache
            else None
        )
        if outcome is not None:
            results[i] = SweepResult(point, outcome, cached=True, seconds=0.0)
            if progress is not None:
                progress.mark_cached(point.name)
        else:
            misses.append(i)
    if progress is not None:
        progress.write()
    log.info(
        "sweep %s: %d point(s), %d cached, %d to run (jobs=%d)",
        base.name, len(points), len(points) - len(misses), len(misses), jobs,
    )

    if misses:
        payloads = [points[i].scenario.canonical_json() for i in misses]

        def on_point_done(k: int, task_outcome) -> None:
            if progress is None:
                return
            progress.mark_done(
                points[misses[k]].name, task_outcome.seconds,
                task_outcome.error,
            )

        outcomes = execute_tasks(
            _execute_point_timed,
            payloads,
            jobs,
            fail_fast=fail_fast,
            fail_label=lambda k: f"sweep point {points[misses[k]].name!r}",
            on_outcome=on_point_done,
        )
        for i, outcome in zip(misses, outcomes):
            if outcome.failed:
                log.error(
                    "sweep point %r failed: %s", points[i].name, outcome.error
                )
                results[i] = SweepResult(
                    points[i], None, cached=False, seconds=outcome.seconds,
                    error=outcome.error,
                )
                continue  # never cache a failure
            results[i] = SweepResult(
                points[i], outcome.value, cached=False, seconds=outcome.seconds
            )
            if use_cache:
                _cache_store(
                    store, points[i].scenario.digest(), src_digest,
                    outcome.value,
                )

    ordered = [results[i] for i in range(len(points))]

    if manifest:
        out_path = manifest_out
        host = host_reference(store) if use_cache else host_metadata()
        doc = {
            "schema": SWEEP_SCHEMA,
            "created": time.time(),
            "base_scenario": base.name,
            "base_digest": base.digest(),
            "source_digest": src_digest,
            "grid": {k: list(v) for k, v in grid.items()},
            "jobs": jobs,
            "use_cache": use_cache,
            "cache_dir": str(cache_dir),
            "points": [
                {
                    "name": r.point.name,
                    "overrides": dict(r.point.overrides),
                    "scenario_digest": r.point.scenario.digest(),
                    "cached": r.cached,
                    "seconds": r.seconds,
                    "result_sha256": hashlib.sha256(r.payload).hexdigest(),
                    **(
                        {"error": r.error} if r.failed
                        else {"artifact": r.artifact_digest}
                    ),
                }
                for r in ordered
            ],
            "wall_seconds": time.perf_counter() - wall_start,
            "host": host,
        }
        write_manifest(doc, out_path)
        if use_cache:
            manifest_digest = store.put(RunArtifact.from_sweep_manifest(doc))
            artifacts = {
                r.point.name: r.artifact_digest for r in ordered if not r.failed
            }
            if "artifact" in host:
                artifacts["host"] = host["artifact"]
            store.add_run(
                "sweep", manifest_digest, artifacts, created=doc["created"]
            )
    if progress is not None:
        progress.write(finished=True)

    return ordered


def load_sweep_manifest(path: Union[Path, str]) -> Dict[str, Any]:
    """Read a sweep manifest back, validating its schema marker."""
    with open(Path(path), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != SWEEP_SCHEMA:
        raise ValueError(
            f"{path} is not a scenario sweep manifest (schema={doc.get('schema')!r})"
        )
    return doc
