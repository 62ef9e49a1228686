"""Benchmark configuration: shared fixtures and the perf-trajectory hook.

Each ``bench_eN_*.py`` module regenerates one experiment of the E1–E12 suite
(see ARCHITECTURE.md for the layer map behind them).
pytest-benchmark measures the kernels; the ``test_experiment_passes``
function in each module re-runs the *claims* (the shape checks) so a bench
run is also a correctness gate.

``--perf-record DIR`` additionally captures every test's wall time into a
schema-versioned ``BENCH_<k>.json`` trajectory under ``DIR`` (kind
``bench``), so a plain pytest bench run feeds the same perf-trajectory
pipeline as ``repro-label perf run``.  Caveat: for tests using the
``benchmark`` fixture the recorded wall covers pytest-benchmark's whole
adaptive round loop, so ``bench`` trajectories are informational — they
cannot be promoted to the baseline (``perf baseline`` rejects them).
"""

from __future__ import annotations

import time

import pytest

from repro.graphs import generators as gen
from repro.labeling.spec import L21
from repro.reduction.to_tsp import reduce_to_path_tsp


def pytest_addoption(parser):
    parser.addoption(
        "--perf-record",
        default=None,
        metavar="DIR",
        help="record per-test wall times into BENCH_<k>.json under DIR",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if item.config.getoption("--perf-record", default=None) is None:
        yield
        return
    t0 = time.perf_counter()
    outcome = yield
    wall = time.perf_counter() - t0
    if outcome.excinfo is None:
        records = item.config.stash.setdefault(_PERF_STASH, [])
        records.append((item.nodeid, wall))


_PERF_STASH = pytest.StashKey()


def pytest_sessionfinish(session, exitstatus):
    out_dir = session.config.getoption("--perf-record", default=None)
    records = session.config.stash.get(_PERF_STASH, [])
    if out_dir is None or not records:
        return
    from repro.perf import PerfRecord, Trajectory, write_trajectory
    from repro.perf.environment import environment_provenance

    trajectory = Trajectory(
        environment=environment_provenance(calibrate=False),
        records=[
            PerfRecord(experiment=nodeid, wall_seconds=(wall,))
            for nodeid, wall in records
        ],
        kind="bench",
    )
    path = write_trajectory(trajectory, directory=out_dir)
    print(f"\nperf trajectory: wrote {path} ({len(records)} records)")


@pytest.fixture(scope="session")
def diam2_n12():
    return gen.random_graph_with_diameter_at_most(12, 2, seed=0)


@pytest.fixture(scope="session")
def diam2_n14():
    return gen.random_graph_with_diameter_at_most(14, 2, seed=0)


@pytest.fixture(scope="session")
def diam2_n100():
    return gen.random_graph_with_diameter_at_most(100, 2, seed=0)


@pytest.fixture(scope="session")
def reduced_n12(diam2_n12):
    return reduce_to_path_tsp(diam2_n12, L21)


@pytest.fixture(scope="session")
def reduced_n14(diam2_n14):
    return reduce_to_path_tsp(diam2_n14, L21)


@pytest.fixture(scope="session")
def reduced_n100(diam2_n100):
    return reduce_to_path_tsp(diam2_n100, L21)
