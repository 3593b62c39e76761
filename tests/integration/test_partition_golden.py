"""Partitioned execution against the golden fixture of the parent commit.

One operator family renders its labels from the partitioning property and
runs every partition through one ``run_partitions``; the plans it builds and
the profile structure the cost models charge must be the ones the three
operator families it replaced produced (see ``partition_golden.py``).
"""

from __future__ import annotations

import json

import pytest

import partition_golden as golden


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(golden.FIXTURE.read_text())


@pytest.fixture(scope="module")
def session():
    return golden.make_session()


def test_plan_shapes_are_byte_identical(session, expected):
    actual = golden.plan_shapes(session)
    assert actual.keys() == expected["plans"].keys()
    assert len(actual) == (22 + 4) * len(golden.CONFIGS)
    changed = {key: (shape, actual[key])
               for key, shape in expected["plans"].items()
               if actual[key] != shape}
    assert not changed, "\n\n".join(
        f"{key}\n-- expected --\n{want}\n-- actual --\n{got}"
        for key, (want, got) in changed.items())


def test_profile_structure_is_unchanged(session, expected):
    # JSON round-trip so tuples/None compare the way the fixture stores them.
    actual = json.loads(json.dumps(golden.profile_structure(session)))
    assert actual.keys() == expected["profiles"].keys()
    for key, want in expected["profiles"].items():
        got = actual[key]
        assert got["morsel_dispatch"] == want["morsel_dispatch"], key
        assert got["exchange_bytes"] == want["exchange_bytes"], key
        assert got["events"] == want["events"], key
    # The fixture really exercises both kinds.
    assert expected["profiles"]["q1/lanes4/pytorch"]["morsel_dispatch"] > 0
    assert expected["profiles"]["q3/shards4-hash/pytorch"]["exchange_bytes"] > 0
