"""Content-addressed run store: one artifact model from runner to CLI.

The paper's evaluation cycle (Fig. 4) only closes if results can *flow*:
measurement output feeds modeling, model output feeds simulation, and
everything must be comparable across runs.  This package gives every
result the toolkit produces a single on-disk home and a single identity:

* :mod:`repro.store.artifact` -- :class:`RunArtifact`, the typed envelope
  (experiment record, run/sweep manifest, sweep point, trace, metrics,
  host metadata, bench report) addressed by the SHA-256 of its canonical
  JSON;
* :mod:`repro.store.store` -- :class:`RunStore`, the ``put/get/query/
  diff/gc/export`` API over an ``objects/`` + ``refs/`` + ``runs/`` tree
  with atomic, concurrent-writer-safe writes;
* :mod:`repro.store.migrate` -- the one-shot ingest of the legacy
  ``results/`` layout.

Producers refactored onto it: the experiment runner's record cache
(:mod:`repro.experiments.runner`), the sweep runner's point cache
(:mod:`repro.scenario.sweep`), provenance manifests
(:mod:`repro.telemetry.provenance` -- host metadata referenced by
digest), and the benchmark gate's baselines
(``benchmarks/check_regression.py``).  The ``repro-io store`` CLI serves
``ls/show/diff/gc/export/migrate/table``.
"""

from repro.store.artifact import (
    ARTIFACT_SCHEMA,
    ArtifactError,
    KINDS,
    RunArtifact,
)
from repro.store.store import (
    DEFAULT_STORE_DIR,
    EXPORT_SCHEMA,
    RUN_SCHEMA,
    STORE_SCHEMA,
    RunStore,
    StoreError,
    StoreIntegrityError,
    StoreMissingError,
    payload_diff,
)
from repro.store.migrate import migrate_results
from repro.store.scrub import SCRUB_SCHEMA, scrub_store

__all__ = [
    "SCRUB_SCHEMA",
    "scrub_store",
    "ARTIFACT_SCHEMA",
    "ArtifactError",
    "DEFAULT_STORE_DIR",
    "EXPORT_SCHEMA",
    "KINDS",
    "RUN_SCHEMA",
    "RunArtifact",
    "RunStore",
    "STORE_SCHEMA",
    "StoreError",
    "StoreIntegrityError",
    "StoreMissingError",
    "migrate_results",
    "payload_diff",
]
