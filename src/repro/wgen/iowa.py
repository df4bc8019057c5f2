"""IOWA-style workload producer/consumer abstraction.

Snyder et al. [20] introduce "an I/O workload abstraction based on
different I/O workload generators ... and workload consumers (such as
storage system simulation and I/O replay tool)".  The point of the
abstraction is decoupling: any source can feed any consumer.

Sources produce a :class:`~repro.workloads.base.Workload`:

* :class:`TraceSource` -- from recorded trace records,
* :class:`ProfileSource` -- from a characterization profile,
* :class:`SyntheticSource` -- from a DSL description.

Consumers accept a workload:

* :class:`SimulationConsumer` -- runs it on a simulated system and returns
  the :class:`~repro.workloads.base.WorkloadResult`.

The :class:`IOWA` registry names sources and consumers and runs any pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.platform import Platform
from repro.monitoring.profiler import JobProfile
from repro.ops import IORecord
from repro.pfs.filesystem import ParallelFileSystem
from repro.simulate.execsim import run_workload
from repro.simulate.tracesim import trace_to_workload
from repro.wgen.dsl import parse_workload
from repro.wgen.from_profile import synthesize_from_profile
from repro.workloads.base import Workload, WorkloadResult


class WorkloadSource:
    """Base class of workload producers."""

    def produce(self) -> Workload:
        raise NotImplementedError


@dataclass
class TraceSource(WorkloadSource):
    """Trace workload: replays recorded records exactly (Sec. IV-B-4's
    'I/O Trace Workloads')."""

    records: List[IORecord]
    layer: str = "posix"
    preserve_think_time: bool = True
    name: str = "trace"

    def produce(self) -> Workload:
        return trace_to_workload(
            self.records,
            name=self.name,
            layer=self.layer,
            preserve_think_time=self.preserve_think_time,
        )


@dataclass
class ProfileSource(WorkloadSource):
    """Characterization workload: synthesized from counters
    ('I/O Characterization Workloads')."""

    profile: JobProfile
    seed: int = 0
    include_think_time: bool = True

    def produce(self) -> Workload:
        return synthesize_from_profile(
            self.profile, seed=self.seed, include_think_time=self.include_think_time
        )


@dataclass
class SyntheticSource(WorkloadSource):
    """Synthetic workload: parsed from a DSL text
    ('Synthetic I/O Workloads')."""

    text: str

    def produce(self) -> Workload:
        return parse_workload(self.text)


class WorkloadConsumer:
    """Base class of workload consumers."""

    def consume(self, workload: Workload) -> object:
        raise NotImplementedError


@dataclass
class SimulationConsumer(WorkloadConsumer):
    """Feeds the workload to the storage-system simulation."""

    platform: Platform
    pfs: ParallelFileSystem
    observers: Optional[list] = None

    def consume(self, workload: Workload) -> WorkloadResult:
        return run_workload(
            self.platform, self.pfs, workload, observers=self.observers
        )


class IOWA:
    """Named registry of sources and consumers.

    >>> iowa = IOWA()
    >>> iowa.register_source("ckpt", SyntheticSource(DSL_TEXT))   # doctest: +SKIP
    >>> iowa.register_consumer("sim", SimulationConsumer(p, fs))  # doctest: +SKIP
    >>> result = iowa.run("ckpt", "sim")                          # doctest: +SKIP
    """

    def __init__(self):
        self._sources: Dict[str, WorkloadSource] = {}
        self._consumers: Dict[str, WorkloadConsumer] = {}

    def register_source(self, name: str, source: WorkloadSource) -> None:
        if name in self._sources:
            raise ValueError(f"source {name!r} already registered")
        self._sources[name] = source

    def register_consumer(self, name: str, consumer: WorkloadConsumer) -> None:
        if name in self._consumers:
            raise ValueError(f"consumer {name!r} already registered")
        self._consumers[name] = consumer

    def sources(self) -> List[str]:
        return sorted(self._sources)

    def consumers(self) -> List[str]:
        return sorted(self._consumers)

    def run(self, source: str, consumer: str) -> object:
        """Produce from ``source`` and feed to ``consumer``."""
        if source not in self._sources:
            raise KeyError(f"unknown source {source!r} (have {self.sources()})")
        if consumer not in self._consumers:
            raise KeyError(f"unknown consumer {consumer!r} (have {self.consumers()})")
        workload = self._sources[source].produce()
        return self._consumers[consumer].consume(workload)
