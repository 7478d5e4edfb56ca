"""Self-test of the benchmark's checks: each must pass a real output and
fail on a corrupted copy of it.

Run from the repository root:

    python3 bench/selftest.py

It feeds the checks a split strong domain, a shifted eigenvalue, a zero
dropped from a weak closure and a failed campaign record, and exits 1 if
a check lets any of them through or rejects the uncorrupted output.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks
import workloads


def _expect(label: str, problems: list[str], marker: str | None) -> bool:
    """marker None: the output must pass; otherwise a problem must name it."""
    ok = not problems if marker is None else any(marker in p for p in problems)
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {problems[:1] or 'passes'}")
    return ok


def main() -> int:
    results = []

    w = workloads.make("report", 0)
    item = w.items[8]
    rep = json.loads(w.run(item))
    results.append(_expect("report, as produced", checks.check_report(item.text, rep), None))

    split = copy.deepcopy(rep)
    ef = next(ef for ef in split["eigenfunctions"] if any(len(s) > 1 for s in ef["strong"]))
    j = next(j for j, s in enumerate(ef["strong"]) if len(s) > 1)
    dom = ef["strong"].pop(j)
    ef["strong"][j:j] = [dom[:1], dom[1:]]
    ef["strong_count"] += 1
    results.append(_expect("report, a strong domain split in two",
                           checks.check_report(item.text, split), "strong domains differ"))

    shifted = copy.deepcopy(rep)
    shifted["spectrum"]["eigenvalues"][3] += 1e-3
    shifted["eigenfunctions"][3]["eigenvalue"] += 1e-3
    results.append(_expect("report, an eigenvalue shifted by 1e-3",
                           checks.check_report(item.text, shifted), "residual"))

    w = workloads.make("domains", 0)
    item = w.items[0]
    out = w.canon(w.run(item))
    results.append(_expect("domains, as produced",
                           checks.check_domains(item.text, item.values, out), None))
    dropped = copy.deepcopy(out)
    zeros = {v for v, x in enumerate(item.values, 1) if x == 0.0}
    closure = next(c for c in dropped["weak_closures"] if zeros & set(c))
    closure.remove(min(zeros & set(closure)))
    results.append(_expect("domains, a zero dropped from a closure",
                           checks.check_domains(item.text, item.values, dropped),
                           "weak closures"))

    w = workloads.make("fuzz", 0)
    item = min(w.items, key=lambda it: it.n)
    result = json.loads(w.canon(w.run(item)))
    results.append(_expect("fuzz, as produced", checks.check_campaign(item.n, result), None))
    failed = copy.deepcopy(result)
    failed["failures"].append({"seed": item.campaign_seed, "index": 0,
                               "property_id": "nodal.oracle-agreement",
                               "instance": "", "details": "corrupted"})
    failed["passed"] = False
    results.append(_expect("fuzz, a failed campaign record",
                           checks.check_campaign(item.n, failed), "campaign failed"))

    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
