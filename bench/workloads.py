"""The three workloads: their item lists, the timed call and the checks.

Each workload is a fixed list of items made from the benchmark seed.
``run`` is the only code inside the timed region.  ``canon`` turns its
output into plain data (untimed); ``check`` checks that data with the
independent recomputations of ``checks``.  The program is reached only
through module attributes, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Callable

import shg.nodal as nodal
import shg.report as report
import shg.shgio as shgio
import shg.spectra as spectra
import shg.verify as verify

import checks

# Sizes come in three rungs of 20 items: the median item then lies in
# the middle of the second rung and the tail item (ten beyond it, the
# 50/60 quantile) in the middle of the third, so that both read a median
# of 20 instances instead of one instance that the seed happens to draw.
RUNG_ITEMS = 20
REPORT_N = (16, 28, 40)
DOMAINS_N, ZERO_FRACTION = (40, 100, 160), 0.4
FUZZ_ITEMS = 40         # campaign seeds 0..39


@dataclass(frozen=True)
class Item:
    n: int
    text: str = ""
    values: tuple[float, ...] = ()
    campaign_seed: int = -1


@dataclass(frozen=True)
class Workload:
    items: tuple[Item, ...]
    run: Callable[[Item], Any]
    canon: Callable[[Any], Any]
    check: Callable[[Item, Any], list[str]]


def _ladder(rungs: tuple[int, ...]) -> list[int]:
    return [n for n in rungs for _ in range(RUNG_ITEMS)]


def _instance_text(n: int, seed: int) -> str:
    cfg = verify.GenConfig(n_range=(n, n), m_range=(n, n), edge_size_range=(2, 4),
                           seed=seed, count=1)
    return shgio.serialize(next(verify.generate(cfg)))


def _run_report(item: Item) -> str:
    h = shgio.parse(item.text)
    return report.report_json(report.build_report(h, report.input_digest(item.text)))


def _run_domains(item: Item):
    h = shgio.parse(item.text)
    f = spectra.VertexFunction.from_values(item.values)
    return nodal.decompose(h, f), nodal.fiedler_sets(h, f)


def _canon_domains(out) -> dict:
    dec, fs = out
    return {
        "strong": [sorted(s) for s in dec.strong],
        "weak_cores": [sorted(s) for s in dec.weak_cores],
        "weak_closures": [sorted(s) for s in dec.weak_closures],
        "fiedler": sorted(fs.fiedler),
        "other_zeros": sorted(fs.other_zeros),
    }


def _run_fuzz(item: Item):
    return verify.run_campaign(verify.GenConfig(seed=item.campaign_seed, count=1))


def make(name: str, seed: int) -> Workload:
    """The workload ``name`` with its items made from ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    if name == "report":
        items = tuple(Item(n, _instance_text(n, rng.getrandbits(32)))
                      for n in _ladder(REPORT_N))
        return Workload(items, _run_report, lambda out: out,
                        lambda it, out: checks.check_report(it.text, json.loads(out)))
    if name == "domains":
        items = []
        for n in _ladder(DOMAINS_N):
            text = _instance_text(n, rng.getrandbits(32))
            # magnitudes kept away from the zero tolerance, exact zero count
            values = [rng.choice((-1, 1)) * rng.uniform(0.1, 1.0) for _ in range(n)]
            for v in rng.sample(range(n), round(ZERO_FRACTION * n)):
                values[v] = 0.0
            items.append(Item(n, text, tuple(values)))
        return Workload(tuple(items), _run_domains, _canon_domains,
                        lambda it, out: checks.check_domains(it.text, it.values, out))
    if name == "fuzz":
        # A fixed seed range: per-item cost is heavy-tailed (the exhaustive
        # forest search of nodal.sandwich), so a different 40-seed window
        # per benchmark seed would move every metric by far more than its
        # bound.  The benchmark seed only orders the items within a pass.
        items = tuple(
            Item(next(verify.generate(verify.GenConfig(seed=s, count=1))).n, campaign_seed=s)
            for s in range(FUZZ_ITEMS))
        return Workload(items, _run_fuzz,
                        lambda out: json.dumps(out.as_dict(), sort_keys=True),
                        lambda it, out: checks.check_campaign(it.n, json.loads(out)))
    raise ValueError(f"unknown workload {name!r}")


def warm_up(w: Workload) -> None:
    """Load the code paths before timing: one eigendecomposition at the
    largest size (the first ``eigh`` call is slow cold) and one run of
    the smallest item."""
    largest = max(w.items, key=lambda it: it.n)
    text = largest.text or shgio.serialize(
        next(verify.generate(verify.GenConfig(seed=largest.campaign_seed, count=1))))
    spectra.eigendecompose(spectra.laplacian(shgio.parse(text)))
    w.run(min(w.items, key=lambda it: it.n))
