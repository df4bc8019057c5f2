"""Output checks: a faster wrong answer must fail the benchmark.

Every check is a pure function over values the workload produced and
raises :class:`CheckFailed` with a readable message when the output is
wrong.  They take their references as arguments, so the benchmark's own
tests can hand them a wrong reference and watch them fail.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Iterable, List, Mapping, Sequence

#: Experiments whose notes embed formatted floats; their notes may differ
#: in the last printed digit across BLAS builds while the claim holds
#: (the same allowance the experiment test suite makes).
FLOAT_NOTES = frozenset({"C6"})
#: Relative tolerance for float measurements against the golden fixture.
GOLDEN_REL = 1e-6
GOLDEN_ABS = 1e-12


class CheckFailed(AssertionError):
    """An output check found a wrong result."""


def record_digest(record: Mapping[str, Any]) -> str:
    """SHA-256 of a record's canonical JSON (key-sorted, compact)."""
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _value_matches(got: Any, want: Any) -> bool:
    if isinstance(want, bool) or want is None:
        return got == want
    if isinstance(want, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or isinstance(got, bool):
            return False
        if isinstance(want, float) and math.isnan(want):
            return isinstance(got, float) and math.isnan(got)
        return math.isclose(got, want, rel_tol=GOLDEN_REL, abs_tol=GOLDEN_ABS)
    return got == want


def check_golden(records: Mapping[str, Mapping[str, Any]],
                 golden: Mapping[str, Mapping[str, Any]]) -> None:
    """Seed-0 records must match the golden fixture, experiment by
    experiment (exact for ids, claims, verdicts, strings and integers;
    floats within :data:`GOLDEN_REL`)."""
    missing = sorted(set(golden) - set(records))
    if missing:
        raise CheckFailed(f"golden experiments not run: {missing}")
    for eid, want in golden.items():
        got = records[eid]
        for key in ("id", "claim", "supported"):
            if got.get(key) != want.get(key):
                raise CheckFailed(
                    f"{eid}.{key}: {got.get(key)!r} != golden {want.get(key)!r}"
                )
        got_m, want_m = got.get("measured", {}), want.get("measured", {})
        if set(got_m) != set(want_m):
            raise CheckFailed(f"{eid}: measured keys differ from golden")
        for key, want_val in want_m.items():
            if not _value_matches(got_m[key], want_val):
                raise CheckFailed(
                    f"{eid}.measured[{key}]: {got_m[key]!r} != golden "
                    f"{want_val!r}"
                )
        if eid not in FLOAT_NOTES and got.get("notes") != want.get("notes"):
            raise CheckFailed(f"{eid}.notes differ from golden")


def check_supported(records: Mapping[str, Mapping[str, Any]],
                    ids: Iterable[str]) -> None:
    """Every experiment in ``ids`` produced a record whose claim verdict
    is ``supported`` (an experiment that raised has no record)."""
    missing = sorted(set(ids) - set(records))
    if missing:
        raise CheckFailed(f"experiments without a record: {missing}")
    bad = sorted(eid for eid, rec in records.items()
                 if rec.get("supported") is not True)
    if bad:
        raise CheckFailed(f"claims not supported: {bad}")


def check_repeats(label: str, digests: Sequence[str]) -> None:
    """Repeated runs of identical inputs must produce one digest."""
    distinct = sorted(set(digests))
    if not digests:
        raise CheckFailed(f"{label}: nothing to compare")
    if len(distinct) != 1:
        raise CheckFailed(
            f"{label}: {len(distinct)} distinct digests over "
            f"{len(digests)} runs ({', '.join(d[:12] for d in distinct)})"
        )


def check_arms_agree(digests: Mapping[str, str], reference: str) -> None:
    """Every engine arm must reproduce the reference digest bit for bit."""
    wrong = {arm: d[:12] for arm, d in digests.items() if d != reference}
    if wrong:
        raise CheckFailed(
            f"engine arms disagree with reference {reference[:12]}: {wrong}"
        )


def check_replies(replies: Iterable[Mapping[str, Any]],
                  artifacts: Mapping[int, str],
                  *, cached: bool) -> None:
    """Service replies: every one ``done``, with the expected cache flag
    and the artifact already known for its seed."""
    for reply in replies:
        seed = reply["seed"]
        if reply.get("state") != "done":
            raise CheckFailed(f"seed {seed}: job state {reply.get('state')!r}")
        if bool(reply.get("cached")) is not cached:
            raise CheckFailed(
                f"seed {seed}: cached={reply.get('cached')!r}, "
                f"expected {cached}"
            )
        want = artifacts.get(seed)
        if want is not None and reply.get("artifact") != want:
            raise CheckFailed(
                f"seed {seed}: artifact {str(reply.get('artifact'))[:12]} "
                f"!= expected {want[:12]}"
            )


def check_warm(delta: Mapping[str, int], requests: int) -> None:
    """The warm phase is all store hits and writes nothing to the journal."""
    if requests <= 0:
        raise CheckFailed("warm phase completed no requests")
    hits = delta.get("warm_hits", 0)
    if hits != requests or delta.get("computed", 0) != 0:
        raise CheckFailed(
            f"warm hit ratio {hits}/{requests} with "
            f"{delta.get('computed', 0)} computed (want 1.0 and 0)"
        )
    if delta.get("journal_records", 0) != 0:
        raise CheckFailed(
            f"warm phase wrote {delta['journal_records']} journal records"
        )


def check_computed_once(delta: Mapping[str, int], distinct: int) -> None:
    """Every distinct scenario digest is computed exactly once."""
    if delta.get("computed", 0) != distinct:
        raise CheckFailed(
            f"{delta.get('computed', 0)} computations for {distinct} "
            f"distinct digests"
        )


def check_verify(problems: List[Mapping[str, Any]]) -> None:
    """``store verify`` must come back clean."""
    if problems:
        raise CheckFailed(f"store verify found {len(problems)} problem(s): "
                          f"{problems[:3]}")
