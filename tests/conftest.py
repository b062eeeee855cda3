"""Shared fixtures: small applications used across the test suite, and
a helper for timing tests that must not depend on earlier tests."""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.model import Application, Label, Platform, Task, TaskSet


@pytest.fixture
def platform2() -> Platform:
    """A two-core platform with default DMA/CPU cost parameters."""
    return Platform.symmetric(2)


@pytest.fixture
def simple_app(platform2: Platform) -> Application:
    """One producer (5 ms, P1) feeding one consumer (10 ms, P2)."""
    tasks = TaskSet(
        [
            Task("PROD", 5_000, 1_000.0, "P1", 0),
            Task("CONS", 10_000, 2_000.0, "P2", 0),
        ]
    )
    labels = [Label("x", 64, writer="PROD", readers=("CONS",))]
    return Application(platform2, tasks, labels)


@pytest.fixture
def fig1_app() -> Application:
    """The application of the paper's Fig. 1.

    Six tasks on two cores; tau_1, tau_3, tau_5 on P1 and tau_2, tau_4,
    tau_6 on P2.  Communications: t1 -> t2, t3 -> t4, t5 -> t6, and
    t6 -> t1 (each through one label).  All tasks share one period so
    every instant requires every communication, as in the figure.
    """
    platform = Platform.symmetric(2)
    period = 10_000
    tasks = TaskSet(
        [
            Task("t1", period, 500.0, "P1", 0),
            Task("t3", period, 500.0, "P1", 1),
            Task("t5", period, 500.0, "P1", 2),
            Task("t2", period, 500.0, "P2", 0),
            Task("t4", period, 500.0, "P2", 1),
            Task("t6", period, 500.0, "P2", 2),
        ]
    )
    labels = [
        Label("l12", 200, writer="t1", readers=("t2",)),
        Label("l34", 150, writer="t3", readers=("t4",)),
        Label("l56", 100, writer="t5", readers=("t6",)),
        Label("l61", 120, writer="t6", readers=("t1",)),
    ]
    return Application(platform, tasks, labels)


@pytest.fixture
def multirate_app(platform2: Platform) -> Application:
    """Three tasks with non-harmonic periods and two-way communication."""
    tasks = TaskSet(
        [
            Task("FAST", 4_000, 500.0, "P1", 0),
            Task("MID", 6_000, 800.0, "P2", 0),
            Task("SLOW", 12_000, 2_000.0, "P2", 1),
        ]
    )
    labels = [
        Label("f2m", 64, writer="FAST", readers=("MID",)),
        Label("m2f", 32, writer="MID", readers=("FAST",)),
        Label("f2s", 256, writer="FAST", readers=("SLOW",)),
    ]
    return Application(platform2, tasks, labels)


def in_fresh_interpreter(fn, *args):
    """``fn(*args)``, run in a newly spawned interpreter.

    For timing tests, whose in-process numbers depend on which tests ran
    before: late in a long run a fork costs more, because it copies the
    page tables of a larger process, and Python loops run slower.
    ``fn`` must be defined at module level.
    """
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, mp_context=spawn) as fresh:
        return fresh.submit(fn, *args).result()
