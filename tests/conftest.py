"""Figure datasets shared across test modules.

Each dataset is built once per session: the acceptance criteria and
the reference drift gate read the same rows.
"""

import dataclasses
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


@pytest.fixture(scope="session")
def fig_sample(fig2_data, fig3_rows, fig4_rows, fig5_data):
    """(point, row) for every 7th fig2-fig5a row that reached the stability stage."""
    datasets = {
        "fig2": fig2_data[1],
        "fig3": fig3_rows,
        "fig4": fig4_rows,
        "fig5a": fig5_data["fig5a"][1],
    }
    sample = []
    for which, rows in datasets.items():
        spec = sweep.figure_spec(which)
        names = [name for name, _ in spec.axes]
        for row in rows[::7]:
            if row.result.stable is not None:
                point = dataclasses.replace(spec.base, **dict(zip(names, row.axis_values)))
                sample.append((point, row.result))
    return sample
