"""One cold set-up of a workload, timed in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/setup_probe.py <workload> <seed> <workdir>

``run.py`` starts this several times per run and reports the median as
``setup_s``. Run from the root of a checkout. It prints one number: the
seconds spent in ``import missingmass`` (numpy included) plus the seconds
spent building the workload's inputs and running its first case, the
warm-up. Everything is cold, so a table or cache the library builds on
first use is counted. Importing the benchmark's own modules (mpmath for
the references) falls between the two timed spans and is not counted.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path


def main() -> int:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    t0 = time.perf_counter()
    import missingmass

    t_import = time.perf_counter() - t0

    import workloads

    ctx = workloads.Context(missingmass, seed, workdir, dict(os.environ))
    try:
        t0 = time.perf_counter()
        workloads.SETUPS[name](ctx)[0].run()
        t_setup = time.perf_counter() - t0
    finally:
        for f in workdir.glob("*.txt"):
            f.unlink()
        if workdir.is_dir():
            workdir.rmdir()
    print(t_import + t_setup)
    return 0


if __name__ == "__main__":
    sys.exit(main())
