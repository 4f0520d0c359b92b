"""Figure drift gate: the five datasets against the benchmark's reference.

The reference arrays and the row check are the benchmark's own
(``bench/workloads.py``), read from the checkout so the tolerance is
stated once: error codes and axis values must match exactly and E_N
within ``EN_ATOL + EN_RTOL * |ref|``.
"""

import sys
from pathlib import Path

import pytest

from omneg import sweep

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def _grid(which, request):
    if which == "fig2":
        return request.getfixturevalue("fig2_data")[0]
    if which in ("fig5a", "fig5b"):
        return request.getfixturevalue("fig5_data")[which]
    return request.getfixturevalue(f"{which}_data")


@pytest.mark.parametrize("which", sweep.FIGURE_NAMES)
def test_figure_matches_reference(which, request, reference, tmp_path):
    _, axes, results = _grid(which, request)
    out = tmp_path / f"{which}.csv"
    sweep.write_csv(str(out), axes, results)
    drift = workloads.Drift()
    failed = workloads.check_figure(
        out.read_text(encoding="utf-8"), reference[which], drift
    )
    print(f"{which}: {failed} failed rows, max |dE_N| = {drift.max_abs:.2e}")
    assert failed == 0
