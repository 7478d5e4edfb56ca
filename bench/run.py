"""Benchmark of the ``shg report``, ``shg domains`` and ``shg fuzz`` paths.

Run from the repository root:

    python3 bench/run.py --workload report --seed 1 --seconds 30 --trace 0

The run builds the workload's item list from the seed, then passes over
it round-robin until the time is used (at least three passes), in one
process and one thread with BLAS pinned to one thread.  Each item run is
timed by the wall clock and scaled by the machine's speed at that moment,
read from a fixed calibration kernel run just before and just after it;
an item's time is the median of its scaled times over the passes.  Every
output is checked outside the timed region.  The last line of standard
output is one JSON object: with ``--trace 0`` the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a separate traced run.  Raw
figures go to ``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import os

# before numpy is imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("report", "domains", "fuzz")
MIN_PASSES = 3
SETUP_SAMPLES = 5       # this process plus four fresh ones
# Times are scaled by CALIBRATION_REF_S / (calibration kernel time next to
# them): this shared machine runs the program up to 2.2x slower in phases
# that last from milliseconds to minutes, and the scaling cancels them
# (bench/README.md).  CALIBRATION_REF_S is the kernel's time on the
# machine at its fastest, so scaled times read as seconds there.
CALIBRATION_REPEATS = 15
CALIBRATION_REF_S = 1.2e-3


def setup(name: str, seed: int):
    """Import numpy and shg, build the inputs and warm up; this is setup_s."""
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import shg
    if Path(shg.__file__).resolve().parent != (SRC / "shg").resolve():
        raise ImportError(f"shg imported from {shg.__file__}, not from {SRC}")
    import workloads
    w = workloads.make(name, seed)
    workloads.warm_up(w)
    return w


def fresh_setup_seconds(args) -> float:
    """Set-up time of a fresh interpreter, timed by that interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _calibration_input(n: int = 80, m: int = 60):
    rng = random.Random(0)
    edges = [(tuple(rng.sample(range(1, n + 1), rng.randint(2, 4))), rng.choice((-1, 1)))
             for _ in range(m)]
    return edges, [0] + [rng.choice((-1, 1)) for _ in range(n)]


_CALIBRATION_INPUT = _calibration_input()


def _calibration_kernel() -> list[frozenset[int]]:
    """Sign-coherent components of a fixed signed hypergraph by union-find:
    Python code of the same kind as the program's, fixed for good."""
    edges, signs = _CALIBRATION_INPUT
    parent = list(range(len(signs)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for verts, s in edges:
        for i, x in enumerate(verts):
            for y in verts[i + 1:]:
                if signs[x] * s * signs[y] > 0:
                    parent[find(x)] = find(y)
    groups: dict[int, set[int]] = {}
    for v in range(1, len(signs)):
        groups.setdefault(find(v), set()).add(v)
    return sorted((frozenset(g) for g in groups.values()), key=min)


def calibrate() -> float:
    """Wall time of the calibration kernel, repeated, now."""
    t = time.perf_counter()
    for _ in range(CALIBRATION_REPEATS):
        _calibration_kernel()
    return time.perf_counter() - t


def speed_scale(before: float, after: float) -> float:
    """Factor turning a wall time into scaled seconds, from the kernel
    times measured just before and just after it."""
    return 2.0 * CALIBRATION_REF_S / (before + after)


def run_passes(w, seconds: float, seed: int, tracer=None) -> dict:
    """Round-robin passes over the items in a seeded order, each item run
    between two calibration kernels.  Returns the scaled, wall and CPU
    times per item, the pass count and the operation counts."""
    n = len(w.items)
    times: list[list[float]] = [[] for _ in range(n)]
    walls: list[list[float]] = [[] for _ in range(n)]
    cpus: list[list[float]] = [[] for _ in range(n)]
    first: list = [None] * n          # (canonical output, its problems)
    attempted = failed = wrong = 0
    problems_seen: list[str] = []
    order = list(range(n))
    rng = random.Random(seed)
    clock = time.perf_counter
    t0 = clock()
    passes = 0
    while True:
        rng.shuffle(order)
        for i in order:
            item = w.items[i]
            attempted += 1
            error = None
            c1 = calibrate()
            if tracer is not None:
                tracer.begin(passes, i)
            t, cpu = clock(), time.process_time()
            try:
                out = w.run(item)
            except Exception as exc:   # a program fault: count it, keep going
                error = exc
            wall, cpu = clock() - t, time.process_time() - cpu
            if tracer is not None:
                tracer.finish()
            scale = speed_scale(c1, calibrate())
            if tracer is not None:
                tracer.scales.append(scale)
            if error is not None:
                failed += 1
                problems_seen.append(f"item {i}: {error!r}")
                continue
            times[i].append(wall * scale)
            walls[i].append(wall)
            cpus[i].append(cpu)
            canon = w.canon(out)
            if first[i] is None:
                first[i] = (canon, w.check(item, canon))
            problems = first[i][1] if canon == first[i][0] else (
                w.check(item, canon) + ["output differs from the first pass"])
            if problems:
                failed += 1
                wrong += 1
                problems_seen.append(f"item {i}: {problems[0]}")
        passes += 1
        elapsed = clock() - t0
        if passes >= MIN_PASSES and elapsed * (passes + 1) / passes > seconds:
            break
    return {"times": times, "walls": walls, "cpus": cpus, "passes": passes,
            "attempted": attempted, "failed": failed, "wrong": wrong,
            "problems": problems_seen[:20], "elapsed": clock() - t0}


def end_to_end(times: list[list[float]]) -> dict[str, float]:
    """Item time: the median over passes.  Tail: ten items beyond it."""
    per_item = sorted(statistics.median(ts) for ts in times if ts)
    n = len(per_item)
    return {
        "items_per_s": n / sum(per_item),
        "item_p50_s": statistics.median(per_item),
        "item_tail_s": per_item[n - 11],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "shg" / "__init__.py").is_file():
        print(f"error: no shg sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    c1 = calibrate()
    t0 = time.perf_counter()
    w = setup(args.workload, args.seed)
    own_setup = (time.perf_counter() - t0) * speed_scale(c1, calibrate())
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    res = run_passes(w, args.seconds, args.seed, tracer)
    e2e = end_to_end(res["times"])

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    units = {"items_per_s": "1/s", "item_p50_s": "s", "item_tail_s": "s",
             "setup_s": "s", "peak_rss_mb": "MB"}
    if tracer is None:
        setups = [own_setup] + [fresh_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
        e2e["setup_s"] = statistics.median(setups)
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {k: {"value": v, "unit": units[k]} for k, v in e2e.items()}
        raw = {"setup_samples_s": setups}
    else:
        import numpy as np
        layers = tracer.layer_metrics(res["passes"], len(w.items))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        np.savez(f"{stem}-spans.npz", **tracer.arrays())
        raw = {"traced_end_to_end": e2e}
        print("traced end-to-end: " + json.dumps(e2e), file=sys.stderr)
    raw.update({k: res[k] for k in ("passes", "attempted", "failed", "problems", "elapsed")})
    raw["wall_end_to_end"] = end_to_end(res["walls"])
    raw["cpu_end_to_end"] = end_to_end(res["cpus"])
    raw["item_n"] = [it.n for it in w.items]
    raw["item_times_s"] = res["times"]
    raw["item_wall_s"] = res["walls"]
    raw["item_cpu_s"] = res["cpus"]
    stem.with_suffix(".json").write_text(json.dumps(raw) + "\n")
    for p in res["problems"]:
        print(f"check: {p}", file=sys.stderr)
    print(json.dumps({"correct": res["wrong"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
