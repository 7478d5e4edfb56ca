"""Spans around the public functions of the program, for the traced run.

``Tracer.install`` replaces each named function, in every ``shg`` module
that binds it, with a wrapper that records a span: its name, start, end
and parent span.  A generator function gets one span per step.  Spans
are kept in flat arrays in memory and written out at the end; self time
is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# (module, function) pairs; the span name is "<module>.<function>"
TRACED = (
    ("shgio", "parse"), ("shgio", "serialize"),
    ("spectra", "laplacian"), ("spectra", "eigendecompose"),
    ("nodal", "decompose"), ("nodal", "strong_domains"), ("nodal", "weak_domains"),
    ("nodal", "fiedler_sets"), ("nodal", "l_plus"), ("nodal", "support_cyclomatic"),
    ("nodal", "clique_expansion"), ("nodal", "check_bounds"),
    ("core", "connected_components"), ("core", "cyclomatic"), ("core", "is_tree_like"),
    ("core", "weak_delete"), ("core", "spanning_hyperforest"), ("core", "lies_on_cycle"),
    ("report", "build_report"), ("report", "report_json"),
    ("verify", "generate"), ("verify", "oracle_domains"),
)
# the campaign's properties, each wrapped in verify.REGISTRY as "verify.<id>"
PROPERTY_IDS = (
    "core.cyclomatic-nonnegative", "core.acyclic-iff-zero", "core.tree-like-no-cycle",
    "core.tree-like-deletion", "core.induced-identity", "core.exact-forest-geq-greedy",
    "spectra.self-adjoint", "spectra.trace-eigsum", "spectra.classical-graph",
    "spectra.interlacing", "spectra.supertree-rank", "spectra.rayleigh-bounds",
    "nodal.oracle-agreement", "nodal.weak-le-strong", "nodal.no-zeros-identical",
    "nodal.max-two-memberships", "nodal.zero-neighbor-containment",
    "nodal.domain-graph-connected", "nodal.eigen-upper-bounds",
    "nodal.eigen-lower-bound-logged", "nodal.sandwich", "nodal.scaling-invariance",
)
# the per-layer metrics, as listed in BENCHMARK.json
PER_LAYER = (
    "shgio.parse.self_s", "shgio.parse.calls", "shgio.serialize.self_s",
    "spectra.laplacian.self_s", "spectra.laplacian.calls",
    "spectra.eigendecompose.self_s", "spectra.eigendecompose.calls",
    "nodal.decompose.calls", "nodal.decompose.per_function",
    "nodal.strong_domains.self_s", "nodal.weak_domains.self_s", "nodal.weak_domains.calls",
    "nodal.fiedler_sets.self_s", "nodal.fiedler_sets.calls", "nodal.l_plus.self_s",
    "nodal.support_cyclomatic.self_s", "nodal.clique_expansion.self_s",
    "nodal.clique_expansion.calls", "nodal.check_bounds.self_s", "nodal.check_bounds.calls",
    "core.connected_components.self_s", "core.connected_components.calls",
    "core.cyclomatic.self_s", "core.is_tree_like.self_s", "core.is_tree_like.calls",
    "core.weak_delete.self_s", "core.spanning_hyperforest.self_s",
    "core.spanning_hyperforest.calls", "core.lies_on_cycle.self_s",
    "report.build_report.self_s", "report.report_json.self_s",
    "verify.generate.self_s", "verify.oracle_domains.self_s", "verify.oracle_domains.calls",
) + tuple(f"verify.{pid}.self_s" for pid in PROPERTY_IDS)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name_id = array("H")
        self._stack = [-1]
        # (pass, item, first span, end span) per timed item run
        self.runs: list[tuple[int, int, int, int]] = []
        self._open_run: tuple[int, int, int] | None = None
        # distinct functions given to nodal.decompose in the current item run
        self.decomposed: set = set()
        self.distinct_functions: list[int] = []
        # calibration scale per item run, appended by the caller
        self.scales: list[float] = []

    def install(self) -> None:
        import shg.verify
        modules = [m for k, m in list(sys.modules.items()) if k == "shg" or k.startswith("shg.")]
        for mod_name, fn_name in TRACED:
            orig = getattr(sys.modules[f"shg.{mod_name}"], fn_name, None)
            if orig is None:
                # gone from the program: its metrics read 0
                self.names.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
        registry = shg.verify.REGISTRY
        for pid in PROPERTY_IDS:
            if pid in registry:
                registry[pid] = self._wrap(f"verify.{pid}", registry[pid])
            else:
                self.names.append(f"verify.{pid}")

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        start, end, parent, name_id, stack = (
            self.start, self.end, self.parent, self.name_id, self._stack)
        clock = time.perf_counter
        decomposed = self.decomposed if name == "nodal.decompose" else None

        def span(call):
            idx = len(start)
            parent.append(stack[-1])
            name_id.append(nid)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return call()
            finally:
                end[idx] = clock()
                stack.pop()

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                done = object()
                while True:
                    x = span(lambda: next(it, done))
                    if x is done:
                        return
                    yield x
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if decomposed is not None:
                f = args[1]
                decomposed.add((f.values, f.zero_tolerance))
            return span(lambda: fn(*args, **kwargs))
        return wrapper

    def begin(self, pass_no: int, item_no: int) -> None:
        self.decomposed.clear()
        self._open_run = (pass_no, item_no, len(self.start))

    def finish(self) -> None:
        pass_no, item_no, first = self._open_run
        self.runs.append((pass_no, item_no, first, len(self.start)))
        self.distinct_functions.append(len(self.decomposed))

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16),
            "runs": np.array(self.runs, dtype=np.int64).reshape(-1, 4),
        }

    def layer_metrics(self, n_passes: int, n_items: int) -> dict[str, tuple[float, str]]:
        """The ``PER_LAYER`` metrics: self time (scaled like the item
        times, per item the median over passes, summed over items), calls
        per pass, and decompositions per distinct function; a function
        the workload never calls reads 0."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        self_t = dur.copy()
        has_parent = a["parent"] >= 0
        np.subtract.at(self_t, a["parent"][has_parent], dur[has_parent])
        k = len(self.names)
        per_run = np.zeros((n_passes, n_items, k))
        calls = np.zeros((n_passes, k), dtype=np.int64)
        for (pass_no, item_no, first, last), scale in zip(self.runs, self.scales):
            ids = a["name_id"][first:last]
            np.add.at(per_run[pass_no, item_no], ids, self_t[first:last] * scale)
            np.add.at(calls[pass_no], ids, 1)
        self_s = np.median(per_run, axis=0).sum(axis=0)
        if not (calls == calls[0]).all():
            print("warning: call counts differ between passes", file=sys.stderr)
        out: dict[str, tuple[float, str]] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.self_s"] = (float(self_s[i]), "s")
            out[f"{name}.calls"] = (int(calls[0, i]), "count")
        dec = self.names.index("nodal.decompose")
        distinct = sum(self.distinct_functions[:n_items])
        out["nodal.decompose.per_function"] = (
            float(calls[0, dec]) / distinct if distinct else 0.0, "ratio")
        return {name: out[name] for name in PER_LAYER}
