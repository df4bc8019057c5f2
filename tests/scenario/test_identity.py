"""Scenario identity: pinned preset digests and the memoized canonical form.

``preset_digests_seed0.json`` holds every preset's seed-0 ``digest()`` as
computed before the spec identity was memoized; cache keys, store refs
and service coalescing all hang off these values, so a serialization
change that moves any of them fails here first.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.scenario import (
    SCENARIOS,
    ScenarioSpec,
    WorkloadSpec,
    expand_grid,
    get_scenario,
)

FIXTURE = Path(__file__).with_name("preset_digests_seed0.json")


def _fresh_canonical(spec):
    return json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))


def _assert_identity(spec):
    """The memoized identity equals a from-scratch serialization."""
    text = _fresh_canonical(spec)
    assert spec.canonical_json() == text
    assert spec.digest() == hashlib.sha256(text.encode("utf-8")).hexdigest()
    # Second calls are served from the memo, unchanged.
    assert spec.canonical_json() == text
    assert spec.digest() == hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_fixture_pins_every_preset():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_preset_seed0_digest_is_pinned(name):
    pinned = json.loads(FIXTURE.read_text())
    assert get_scenario(name, 0).digest() == pinned[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_memoized_identity_matches_fresh_serialization(name):
    _assert_identity(get_scenario(name))


@pytest.mark.parametrize("name", ["tiny", "r1-ckpt-outage", "c10-shared"])
def test_json_round_trip_keeps_identity(name):
    spec = get_scenario(name)
    spec.digest()  # memo populated on one side only
    back = ScenarioSpec.from_json(spec.to_json())
    assert back == spec
    _assert_identity(back)
    assert back.digest() == spec.digest()


def test_grid_points_have_fresh_identities():
    base = get_scenario("tiny")
    base.digest()
    points = expand_grid(base, {"n_oss": [2, 4], "stripe_count": [1, 2]})
    digests = set()
    for point in points:
        _assert_identity(point.scenario)
        digests.add(point.scenario.digest())
    assert len(digests) == len(points)
    assert base.digest() not in digests


def test_with_seed_and_replace_do_not_carry_the_memo():
    spec = get_scenario("tiny")
    original = spec.digest()
    reseeded = spec.with_seed(spec.seed + 1)
    renamed = spec.replace(name="tiny-renamed")
    rewired = spec.replace(workloads=(WorkloadSpec("mdtest", 2),))
    for derived in (reseeded, renamed, rewired):
        _assert_identity(derived)
        assert derived.digest() != original
    assert spec.digest() == original
    assert spec.with_seed(spec.seed).digest() == original


def test_memo_does_not_affect_equality():
    a = get_scenario("tiny")
    b = get_scenario("tiny")
    a.digest()
    assert a == b and repr(a) == repr(b)
