"""Partitioned plans against the golden fixture of the parent commit.

One operator family renders its labels from the partitioning property; the
plans it builds must be the ones the three operator families it replaced
produced (see ``partition_golden.py``).  A ``lanes`` entry prices the serial
plan: it renders the labels the planner placed before, and runs the serial
executor, op for op.  So does a ``devices`` entry.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

import partition_golden as golden
from repro import ExecutionOptions
from repro.backends.base import split_partitions
from repro.datasets import tpch


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


#: A statement's width-free entry and two widths: four lanes, four devices.
WIDTHS = ({}, {"parallelism": 4}, {"devices": 4})


def test_lanes_plans_run_the_serial_kernels(session):
    """A width prices the serial statement: its handle runs the serial
    handle's executor and traced program, so its kernels are the serial
    plan's.  A device count is the same width as a lane count."""
    for number in golden.PROFILED_QUERIES:
        for backend in golden.BACKENDS:
            handles = [session.compile(
                tpch.query(number, golden.SCALE_FACTOR),
                options=ExecutionOptions(backend=backend, **width))
                for width in WIDTHS]
            serial, lanes, devices = handles
            assert lanes.executor is serial.executor
            assert devices.executor is serial.executor
            assert devices.explain() == lanes.explain(), (number, backend)
            ops = [Counter(event.op for event in handle.execute(
                profile=True).profile.events) for handle in handles]
            assert ops[0] == ops[1] == ops[2], (number, backend)
            if backend != "pytorch":
                assert serial.executor.compile_count == 1, (number, backend)


def test_lanes_dispatches_do_not_depend_on_the_backend(session):
    """A lanes operator hands out its n morsels once, however the graph
    passes reorder, merge or fuse its kernels: the count follows the scopes,
    not the order of the events."""
    for number in golden.PROFILED_QUERIES:
        counts = {}
        for backend in golden.BACKENDS:
            compiled = session.compile(
                tpch.query(number, golden.SCALE_FACTOR),
                options=ExecutionOptions(backend=backend, parallelism=4))
            widths = compiled.operator_plan.lanes
            events = compiled.execute(profile=True).profile.events
            host = split_partitions(events, widths)
            ran = {event.scope for event in events if event.scope in widths}
            assert host.dispatches == 4 * len(ran) > 0, number
            assert len(ran) <= compiled.explain().count("workers=4")
            counts[backend] = host.dispatches
        assert len(set(counts.values())) == 1, (number, counts)
