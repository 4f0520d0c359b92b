"""Figure datasets shared across test modules.

Each dataset is built once per session: the acceptance criteria and
the reference drift gate read the same results. Each is
(base, axes, results), as ``sweep.figure_spec`` and ``run_sweep`` give them.
"""

import time

import pytest

import oracles
from omneg import sweep


def _figure(which):
    base, axes = sweep.figure_spec(which)
    return base, axes, sweep.run_sweep(base, axes)


@pytest.fixture(scope="session")
def fig2_data():
    """fig2's (base, axes, results) and the seconds its sweep took."""
    start = time.perf_counter()
    data = _figure("fig2")
    return data, time.perf_counter() - start


@pytest.fixture(scope="session")
def fig3_data():
    return _figure("fig3")


@pytest.fixture(scope="session")
def fig4_data():
    return _figure("fig4")


@pytest.fixture(scope="session")
def fig5_data():
    return {which: _figure(which) for which in ("fig5a", "fig5b")}


@pytest.fixture(scope="session")
def fig_sample(fig2_data, fig3_data, fig4_data, fig5_data):
    """(point, result) for every 7th fig2-fig5a point that reached the stability stage."""
    sample = []
    for data in (fig2_data[0], fig3_data, fig4_data, fig5_data["fig5a"]):
        for point, result in oracles.grid_points(*data)[::7]:
            if result.stable is not None:
                sample.append((point, result))
    return sample
