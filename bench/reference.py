"""One-off reference timings of the two targets of ROADMAP item 3.

Run from the repository root:

    python3 bench/reference.py

It times ``nodal.weak_domains`` at n = m = 320 with 40 % zeros and
``report.build_report`` at n = m = 160, three times each after a warm-up,
and prints the medians of wall time, CPU time and wall time scaled by the
calibration kernel of ``run.py`` run before and after each call.  These
sizes are too slow for the timed workloads, so they are not metrics.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import random
import statistics
import sys
import time

import run

sys.path.insert(0, str(run.SRC))

import shg.nodal as nodal  # noqa: E402
import shg.report as report  # noqa: E402
import shg.spectra as spectra  # noqa: E402
from shg.shgio import parse  # noqa: E402
from workloads import _instance_text  # noqa: E402


def _timed(fn, repeats: int = 3) -> dict:
    rows = []
    for _ in range(repeats):
        c1 = run.calibrate()
        wall, cpu = time.perf_counter(), time.process_time()
        fn()
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        rows.append((wall, cpu, wall * run.speed_scale(c1, run.calibrate())))
    wall, cpu, scaled = (statistics.median(col) for col in zip(*rows))
    return {"wall_s": wall, "cpu_s": cpu, "calibrated_s": scaled}


def main() -> int:
    rng = random.Random(320)
    values = [rng.choice((-1, 1)) * rng.uniform(0.1, 1.0) for _ in range(320)]
    for v in rng.sample(range(320), 128):
        values[v] = 0.0
    f = spectra.VertexFunction.from_values(values)
    h = parse(_instance_text(320, 320))
    small = parse(_instance_text(40, 1))
    nodal.weak_domains(small, spectra.VertexFunction.from_values(values[:40]))
    out = {"weak_domains n=320 zeros=40%": _timed(lambda: nodal.weak_domains(h, f))}
    g = parse(_instance_text(160, 160))
    report.build_report(small, "")
    out["build_report n=160"] = _timed(lambda: report.build_report(g, ""))
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
