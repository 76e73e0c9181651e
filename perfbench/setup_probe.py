"""Set-up time of one benchmark process, measured in that process.

Set-up is the import of sienna (with numpy and scipy), the first
``standard_code().codec()`` and one warm-up op, up to the first timed op.
Generating the warm-up input is not counted. ``run.py`` calls
``measure_setup`` in its own process and runs this file as a script in
fresh processes, which print their seconds, so one run can report the
median of several set-ups.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def add_source_path() -> None:
    """Import sienna from this checkout's sources, or fail."""
    if not (SRC / "sienna" / "__init__.py").is_file():
        raise SystemExit(f"error: no sienna sources under {SRC}")
    sys.path.insert(0, str(SRC))


def measure_setup(workload: str, seed: int):
    """Return (set-up seconds, the built workload)."""
    t0 = time.perf_counter()
    import workloads  # numpy, scipy and sienna load here

    built = workloads.WORKLOADS[workload]()
    t1 = time.perf_counter()
    warm_input = built.make_input(seed, workloads.WARMUP_INDEX)
    t2 = time.perf_counter()
    built.run_op(warm_input)
    t3 = time.perf_counter()
    loaded = Path(sys.modules["sienna"].__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        raise SystemExit(f"error: sienna was imported from {loaded}, not from {SRC}")
    return (t1 - t0) + (t3 - t2), built


if __name__ == "__main__":
    add_source_path()
    seconds, _ = measure_setup(sys.argv[1], int(sys.argv[2]))
    print(repr(seconds))
