"""Figure datasets shared across test modules.

Each dataset is built once per session: the acceptance criteria and
the reference drift gate read the same rows.
"""

import time

import pytest

from omneg import sweep


@pytest.fixture(scope="session")
def fig2_data():
    spec = sweep.figure_spec("fig2", parallel=1)
    start = time.perf_counter()
    rows = sweep.run_sweep(spec)
    elapsed = time.perf_counter() - start
    return spec, rows, elapsed


@pytest.fixture(scope="session")
def fig3_rows():
    return sweep.run_sweep(sweep.figure_spec("fig3", parallel=1))


@pytest.fixture(scope="session")
def fig4_rows():
    return sweep.run_sweep(sweep.figure_spec("fig4", parallel=1))


@pytest.fixture(scope="session")
def fig5_data():
    out = {}
    for which in ("fig5a", "fig5b"):
        spec = sweep.figure_spec(which, parallel=1)
        out[which] = (spec, sweep.run_sweep(spec))
    return out
