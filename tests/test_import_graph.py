"""The package's import graph, checked in fresh interpreters.

An import cycle or an eager heavy import only shows in a process that has
not imported anything yet: inside one pytest session, whichever module a
previous test loaded hides both.  So every check here runs
``python -c`` with ``PYTHONPATH=src``.

* Every top-level ``repro.<name>`` imports on its own.
* ``scipy`` (only :func:`repro.modeling.t_test` and
  :func:`repro.modeling.ks_test` use it) stays unloaded by the entry points
  that start the CLI, the run service, the paper suite and the scale model.
* The run store and the job layer load neither the simulator's numerics
  (``numpy``) nor its topology library (``networkx``).
"""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_SRC = Path(__file__).resolve().parents[1] / "src"
TOP_LEVEL = sorted(m.name for m in pkgutil.iter_modules([str(REPO_SRC / "repro")]))


def _loaded_after(imports: str, watched: list) -> list:
    """Import ``imports`` in a fresh interpreter; return which ``watched``
    top-level modules ended up in ``sys.modules``."""
    code = (
        f"import json, sys\nimport {imports}\n"
        f"print(json.dumps([m for m in {watched!r} if m in sys.modules]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(REPO_SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, f"import {imports} failed:\n{proc.stderr}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_top_level_listing_is_complete():
    assert {"cli", "core", "pfs", "iostack", "monitoring", "store"} <= set(TOP_LEVEL)


@pytest.mark.parametrize("name", TOP_LEVEL)
def test_imports_cleanly(name):
    _loaded_after(f"repro.{name}", [])


@pytest.mark.parametrize("imports", [
    "repro.experiments, repro.experiments.runner",
    "repro.service.server",
    "repro.simulate.scalemodel",
    "repro.cli",
])
def test_entry_points_do_not_load_scipy(imports):
    assert _loaded_after(imports, ["scipy"]) == []


@pytest.mark.parametrize("imports", ["repro.store", "repro.jobs"])
def test_store_and_jobs_do_not_load_the_simulator(imports):
    assert _loaded_after(imports, ["numpy", "networkx"]) == []
