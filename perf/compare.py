"""A/B verdicts between untraced benchmark results.

    python3 perf/compare.py PARENT.json CHANGE.json [PARENT.json CHANGE.json ...]

Files alternate parent, change, parent, change, as ``run.py --out`` wrote
them.  For each (workload, metric) with a bound it prints one of:

* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``better``: it is better by more than the bound;
* ``same``: neither;
* ``unresolved``: the parent's run-to-run spread (IQR / median) exceeds the
  bound, unless every change run beats every parent run (then ``better``).

With one pair the spread is unknown (shown as n/a) and the bound alone
decides.  With ten or more pairs it also applies the claim rule: the change
wins at least 9 of 10 pairs (ties count for neither) and the medians differ
by more than the parent's IQR.  Exit status 1 if any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Correctness and accuracy metrics that BENCHMARK.json cannot list (they
#: are 0, or vary with the seed, by design); any worsening is a regression.
EXTRA_BOUNDS = {
    "point_p90_ms": ("lower", 0.10),
    "fail_ratio": ("lower", 0.0),
    "claims_failed": ("lower", 0.0),
    "paper_err_pct": ("lower", 0.0),
}
CLAIM_PAIRS = 10
CLAIM_WIN_SHARE = 0.9


def bounds() -> dict[str, tuple[str, float]]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    out.update(EXTRA_BOUNDS)
    return out


def _beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(parents: list[dict], changes: list[dict], better: str,
            bound: float) -> dict:
    """Compare one metric's per-run summaries (their ``median``)."""
    p = [s["median"] for s in parents if s.get("median") is not None]
    c = [s["median"] for s in changes if s.get("median") is not None]
    if not p or not c:
        return {"verdict": "unresolved", "reason": "no values"}
    pm, cm = statistics.median(p), statistics.median(c)
    q1 = q3 = pm
    if len(p) > 1:
        q1, _, q3 = statistics.quantiles(p, n=4)
    sign = 1.0 if better == "lower" else -1.0
    if pm:
        worse_by = sign * (cm - pm) / abs(pm)
        spread = (q3 - q1) / abs(pm) if len(p) > 1 else None
    else:
        worse_by = 0.0 if cm == pm else sign * (cm - pm) * float("inf")
        spread = 0.0
    row = {"parent": pm, "change": cm, "worse_by": worse_by,
           "spread": spread, "bound": bound}
    if spread is not None and spread > bound:
        all_beat = all(_beats(x, y, better) for x in c for y in p)
        row["verdict"] = "better" if all_beat else "unresolved"
    elif worse_by > bound:
        row["verdict"] = "worse"
    elif -worse_by > bound:
        row["verdict"] = "better"
    else:
        row["verdict"] = "same"
    if len(p) >= CLAIM_PAIRS and len(p) == len(c):
        wins = sum(_beats(y, x, better) for x, y in zip(p, c))
        met = (wins >= CLAIM_WIN_SHARE * len(p)
               and abs(cm - pm) > q3 - q1)
        row["claim"] = {"wins": wins, "pairs": len(p), "met": met}
    return row


def compare(docs: list[dict]) -> list[dict]:
    """One row per (workload, metric) present in every document."""
    if len(docs) < 2 or len(docs) % 2:
        raise ValueError("give parent/change files in pairs")
    if any(doc.get("traced") for doc in docs):
        raise ValueError("compare untraced runs; per-layer metrics have no bound")
    parents, changes = docs[0::2], docs[1::2]
    rows = []
    for workload in parents[0]["workloads"]:
        if not all(workload in d["workloads"] for d in docs):
            continue
        for metric, (better, bound) in bounds().items():
            def series(side):
                return [d["workloads"][workload]["metrics"][metric]
                        for d in side
                        if metric in d["workloads"][workload]["metrics"]]

            ps, cs = series(parents), series(changes)
            if ps and cs:
                rows.append({"workload": workload, "metric": metric,
                             **verdict(ps, cs, better, bound)})
    return rows


def _pct(x) -> str:
    return "n/a" if x is None else f"{100 * x:+.1f}%"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", type=Path)
    args = parser.parse_args(argv)
    try:
        rows = compare([json.loads(f.read_text()) for f in args.files])
    except (OSError, ValueError, KeyError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    print(f"{'workload':<12} {'metric':<17} {'parent':>12} {'change':>12} "
          f"{'worse by':>9} {'spread':>8} {'bound':>6}  verdict")
    for r in rows:
        if "parent" not in r:
            print(f"{r['workload']:<12} {r['metric']:<17} {'':>12} {'':>12} "
                  f"{'':>9} {'':>8} {'':>6}  {r['verdict']} ({r['reason']})")
            continue
        claim = r.get("claim")
        note = "" if claim is None else (
            f"  claim {'met' if claim['met'] else 'not met'} "
            f"({claim['wins']}/{claim['pairs']} wins)")
        print(f"{r['workload']:<12} {r['metric']:<17} {r['parent']:>12.6g} "
              f"{r['change']:>12.6g} {_pct(r['worse_by']):>9} "
              f"{_pct(r['spread']):>8} {100 * r['bound']:>5.0f}%  "
              f"{r['verdict']}{note}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
