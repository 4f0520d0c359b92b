"""Regenerate bench/reference/figures.npz from the current package.

    python3 bench/make_reference.py

The committed file was made at the commit that introduced the
benchmark; regenerate it only when a change to the figure outputs is
intended and reviewed, since the figures workload checks every pass
against it.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from omneg import cli  # noqa: E402
from workloads import FIGURES, REFERENCE, table_arrays  # noqa: E402


def main() -> int:
    arrays = {}
    work = BENCH_DIR / "_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for name in FIGURES:
            out = Path(tmp) / f"{name}.csv"
            if cli.main([name, "--out", str(out), "--parallel", "1"]) != 0:
                return 1
            table = table_arrays(out.read_text(encoding="utf-8"))
            arrays[f"{name}_header"] = np.array(table["header"])
            arrays[f"{name}_axes"] = table["axes"]
            arrays[f"{name}_code"] = table["code"].astype(np.int8)
            arrays[f"{name}_en"] = table["en"]
            print(f"{name}: {len(table['code'])} rows")
    REFERENCE.parent.mkdir(exist_ok=True)
    np.savez_compressed(REFERENCE, **arrays)
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
