"""Independent checks of the outputs of the three workloads.

Nothing here calls into ``shg``: the instance is read back from its text
with a parser of this module, the Laplacian is rebuilt from the edge
list, and the partitions are recomputed with a union-find of this
module.  Every check returns a list of problems; an empty list means the
output passed.
"""

from __future__ import annotations

import hashlib

import numpy as np

ZERO_TOL_REL = 1e-8      # the program's default relative zero tolerance
SPECTRAL_TOL = 1e-8      # residual, orthonormality and trace tolerance


def read_instance(text: str) -> tuple[int, list[tuple[tuple[int, ...], int]]]:
    """(n, [(vertices of e, sgn(e))]) from the ``shg 1`` text format."""
    n = 0
    edges = []
    for line in text.splitlines():
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0] == "vertices":
            n = int(tokens[1])
        elif tokens[0] == "edge":
            verts, prod = [], 1
            for tok in tokens[1:]:
                v, s = tok.split(":")
                verts.append(int(v))
                prod *= 1 if s == "+" else -1
            edges.append((tuple(verts), prod if len(verts) % 2 else -prod))
    return n, edges


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        self.parent[self.find(a)] = self.find(b)

    def groups(self) -> list[list[int]]:
        out: dict[int, list[int]] = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return sorted((sorted(g) for g in out.values()), key=lambda g: g[0])


def _signs(values, rel_tol: float = ZERO_TOL_REL) -> list[int]:
    """Sign per vertex, index 0 unused; |f(v)| <= rel_tol * max|f| is zero."""
    tol = rel_tol * max((abs(x) for x in values), default=0.0)
    return [0] + [0 if abs(x) <= tol else (1 if x > 0 else -1) for x in values]


def _strong(edges, sign) -> list[list[int]]:
    uf = _UnionFind([v for v in range(1, len(sign)) if sign[v]])
    for verts, s in edges:
        for i, x in enumerate(verts):
            for y in verts[i + 1:]:
                if sign[x] * s * sign[y] > 0:
                    uf.union(x, y)
    return uf.groups()


def _sorted_sets(sets) -> list[list[int]]:
    return sorted((sorted(s) for s in sets), key=lambda g: g[0] if g else 0)


def check_partitions(edges, values, strong, cores, closures, label: str = "",
                     rel_tol: float = ZERO_TOL_REL) -> list[str]:
    """Strong domains against this module's union-find; weak cores
    partition the support and are unions of strong domains; without
    zeros, strong = cores = closures."""
    sign = _signs(values, rel_tol)
    support = {v for v in range(1, len(sign)) if sign[v]}
    problems = []
    if _sorted_sets(strong) != _strong(edges, sign):
        problems.append(f"{label}strong domains differ from the recomputed components")
    covered = [v for core in cores for v in core]
    if len(covered) != len(set(covered)) or set(covered) != support:
        problems.append(f"{label}weak cores do not partition the support")
    core_of = {v: i for i, core in enumerate(cores) for v in core}
    for dom in strong:
        if len({core_of.get(v) for v in dom}) != 1:
            problems.append(f"{label}strong domain {sorted(dom)[:4]}... is split across weak cores")
            break
    if len(support) == len(values):
        if not (_sorted_sets(strong) == _sorted_sets(cores) == _sorted_sets(closures)):
            problems.append(f"{label}zero-free function: strong, cores and closures differ")
    return problems


def laplacian(n: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """(L, degrees) with A_xy the sum of sgn(e) over edges holding x and y."""
    a = np.zeros((n, n))
    deg = np.zeros(n)
    for verts, s in edges:
        for i, x in enumerate(verts):
            deg[x - 1] += 1
            for y in verts[i + 1:]:
                a[x - 1, y - 1] += s
                a[y - 1, x - 1] += s
    return np.eye(n) - a / deg[:, None], deg


def check_report(text: str, rep: dict) -> list[str]:
    """Checks of one ``shg report`` JSON document against its input."""
    problems = []
    if rep["input_digest"] != hashlib.sha256(text.encode("utf-8")).hexdigest():
        problems.append("input_digest is not the sha256 of the input")
    n, edges = read_instance(text)
    lam = np.array(rep["spectrum"]["eigenvalues"], dtype=float)
    funcs = rep["eigenfunctions"]
    if len(lam) != n or len(funcs) != n or len(rep["bounds"]) != n:
        return problems + [f"expected {n} eigenpairs and bound rows"]
    f = np.array([ef["values"] for ef in funcs], dtype=float).T
    lap, deg = laplacian(n, edges)
    scale = 1.0 + float(np.max(np.abs(lam)))
    residual = float(np.max(np.abs(lap @ f - f * lam[None, :])))
    if residual > SPECTRAL_TOL * scale * max(1.0, float(np.max(np.abs(f)))):
        problems.append(f"eigenpair residual {residual:.3e}")
    gram = f.T @ (deg[:, None] * f)
    defect = float(np.max(np.abs(gram - np.eye(n))))
    if defect > SPECTRAL_TOL:
        problems.append(f"functions are not D-orthonormal (defect {defect:.3e})")
    if abs(float(lam.sum()) - n) > SPECTRAL_TOL * n:
        problems.append(f"eigenvalues sum to {float(lam.sum())!r}, not {n}")
    rel_tol = rep["tolerances"]["zero_tolerance_rel"]
    for i, ef in enumerate(funcs):
        label = f"f{ef['index']}: "
        if ef["index"] != i + 1 or ef["eigenvalue"] != lam[i]:
            problems.append(f"{label}index or eigenvalue does not match the spectrum")
        if ef["strong_count"] != len(ef["strong"]) or ef["weak_count"] != len(ef["weak_cores"]):
            problems.append(f"{label}counts do not match the listed domains")
        problems += check_partitions(edges, ef["values"], ef["strong"], ef["weak_cores"],
                                     ef["weak_closures"], label, rel_tol)
    for row in rep["bounds"]:
        if row["strong_count"] > row["k"] + row["r"] - 1:
            problems.append(f"bounds row {row['eig_index']}: S > k+r-1")
        if row["weak_count"] > row["k"] + row["c"] - 1:
            problems.append(f"bounds row {row['eig_index']}: W > k+c-1")
    return problems


def check_domains(text: str, values, out: dict) -> list[str]:
    """Checks of one decomposition plus Fiedler split of a supplied function."""
    n, edges = read_instance(text)
    problems = check_partitions(edges, values, out["strong"], out["weak_cores"],
                                out["weak_closures"])
    sign = _signs(values)
    zeros = {v for v in range(1, n + 1) if not sign[v]}
    zuf = _UnionFind(zeros)
    for verts, _ in edges:
        zs = [v for v in verts if v in zeros]
        for z in zs[1:]:
            zuf.union(zs[0], z)
    core_of = {v: i for i, core in enumerate(out["weak_cores"]) for v in core}
    want = [set(core) for core in out["weak_cores"]]
    comps = {zuf.find(z): set() for z in zeros}
    for z in zeros:
        comps[zuf.find(z)].add(z)
    for verts, _ in edges:
        roots = {zuf.find(v) for v in verts if v in zeros}
        for ci in {core_of[v] for v in verts if v in core_of}:
            for root in roots:
                want[ci] |= comps[root]
    if len(out["weak_closures"]) != len(want) or any(
            set(got) != w for got, w in zip(out["weak_closures"], want)):
        problems.append("weak closures are not their cores plus the zero components touching them")
    memberships: dict[int, int] = {}
    for closure in out["weak_closures"]:
        for v in closure:
            memberships[v] = memberships.get(v, 0) + 1
    if any(memberships.get(z, 0) > 2 for z in zeros):
        problems.append("a zero lies in more than two closures")
    fiedler, other = set(out["fiedler"]), set(out["other_zeros"])
    if fiedler & other or fiedler | other != zeros:
        problems.append("fiedler and other_zeros do not split the zeros")
    neighbours: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for verts, _ in edges:
        for v in verts:
            neighbours[v].update(verts)
    for z in zeros:
        if neighbours[z] - {z} <= zeros and z not in fiedler:
            problems.append(f"zero {z} has only zero neighbours but is not in fiedler")
    return problems


def check_campaign(n: int, result: dict) -> list[str]:
    """Checks of the ``as_dict()`` of a one-instance campaign on n vertices."""
    problems = []
    if result["passed"] is not True or result["failures"]:
        problems.append(f"campaign failed: {[f['property_id'] for f in result['failures']]}")
    if result["instances_run"] != 1:
        problems.append(f"instances_run is {result['instances_run']}, not 1")
    hist = result["sharpness_stats"]
    if sum(count for _, count in hist) != n:
        problems.append(f"sharpness histogram counts {sum(c for _, c in hist)} eigenpairs, not {n}")
    if any(slack < 0 for slack, _ in hist):
        problems.append("negative slack in the sharpness histogram")
    return problems
