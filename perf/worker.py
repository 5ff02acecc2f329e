"""One benchmark workload, run in a fresh single-threaded interpreter.

``python perf/worker.py '<json spec>'`` prints one JSON object as its last
line.  :mod:`run` builds the spec and the environment; see README.md.

Spec keys: ``mode`` (``run`` or ``setup``), ``workload``, ``seed``,
``size`` (rows for fig3, TPC-H scale factor for fig4), ``passes`` (a fixed
count, or null for as many passes as fit in ``seconds`` of point time),
``seconds``, ``layers`` (install the per-layer ledger) and ``expected``
(the digest every pass must reproduce, or null).

Only the public entry points users call drive the simulation:
``measure_point``, ``run_query_profile``, ``tracing`` and ``chrome_trace``.
The one hook outside the ledger is a post-init hook on ``Machine`` that
collects each point's machines to read their metrics snapshots.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import resource
import sys
import time
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace

import layers

#: The 11 Fig. 3 selectivities, 0% to 100%.
SELECTIVITIES = tuple(round(0.1 * i, 1) for i in range(11))
FIG4_QUERIES = ("Q1", "Q3", "Q6", "Q18", "Q22")
#: Paper values for ``paper_err_pct``: Fig. 3 speed-up at 0% and 100%
#: selectivity, and the Fig. 4 average idle period in bus cycles.
PAPER_SPEEDUP = {0.0: 5.0, 1.0: 9.0}
PAPER_IDLE_CYCLES = 500.0


@dataclass(frozen=True)
class Workload:
    kind: str               # "fig3" or "fig4"
    seed: int
    size: float             # rows (fig3) or TPC-H scale factor (fig4)
    smoke_size: float
    traced_passes: int
    exact: bool = False     # inside fastforward.exact_mode()
    trace: bool = False     # each point inside tracing() + chrome_trace()


WORKLOADS = {
    "fig3-ff": Workload("fig3", 42, 262_144, 8192, 3),
    "fig3-exact": Workload("fig3", 42, 65_536, 4096, 3, exact=True),
    "fig3-paper": Workload("fig3", 42, 4_194_304, 16_384, 1),
    "fig4-tpch": Workload("fig4", 1, 0.01, 0.002, 3),
    "fig3-traced": Workload("fig3", 42, 262_144, 8192, 3, trace=True),
}


def digest(payloads: dict) -> str:
    """The benchmark's one digest definition.

    sha256 of the compact, sorted-key JSON of ``{point name: simulated
    payload}``.  A fig3 payload is every ``Fig3Point`` field, ``timeline``
    included; a fig4 payload is ``{"profile": MCProfile fields, "budget":
    GapBudget fields}``.
    """
    blob = json.dumps(payloads, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class PointError(Exception):
    """A point whose output disagrees with the benchmark's own oracle."""


def _modules():
    """Import what a workload uses; shared by set-up timing and runs."""
    from repro.compute import get_backend, set_backend

    set_backend("numpy")
    import repro.analysis.idle as idle
    import repro.analysis.speedup as speedup
    import repro.obs.export as export
    import repro.obs.tracer as tracer
    import repro.sim.fastforward as fastforward
    import repro.tpch as tpch
    import repro.workloads as workloads
    from repro.config import GEM5_PLATFORM, XEON_PLATFORM
    from repro.system.machine import Machine

    return SimpleNamespace(
        idle=idle, speedup=speedup, export=export, tracer=tracer,
        fastforward=fastforward, tpch=tpch, workloads=workloads,
        Machine=Machine, gem5=GEM5_PLATFORM, xeon=XEON_PLATFORM,
        backend=get_backend)


def setup(spec: dict) -> dict:
    """``setup_s``: import repro, generate the inputs, build one Machine."""
    start = time.perf_counter()
    m = _modules()
    w = WORKLOADS[spec["workload"]]
    if w.kind == "fig3":
        m.workloads.uniform_column(int(spec["size"]), spec["seed"])
        m.Machine(m.gem5)
    else:
        m.tpch.generate(scale=spec["size"], seed=spec["seed"])
        m.Machine(m.xeon)
    return {"setup_s": time.perf_counter() - start}


def run(spec: dict) -> dict:
    m = _modules()
    w = WORKLOADS[spec["workload"]]
    seed, size = spec["seed"], spec["size"]
    counts: Counter = Counter()
    built: list = []
    machine_cls = m.Machine
    init = machine_cls.__init__

    def collect(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    machine_cls.__init__ = collect
    ledger, missing = None, []
    if spec["layers"]:
        ledger = layers.Ledger()
        _, missing = layers.install(ledger)
        layers.observe_work(ledger, counts)
    recorder = layers.Recorder(ledger, counts,
                               getattr(m.fastforward, "STATS", None))

    if w.kind == "fig3":
        points = _fig3_points(m, w, int(size), seed, counts)
    else:
        points = _fig4_points(m, size, seed)
    check = (m.speedup.check_figure3_shape if w.kind == "fig3"
             else m.idle.check_figure4_shape)

    out = {"pass_s": [], "point_ms": [], "pass_bursts": [], "digests": [],
           "claims_failed": [], "claims": None, "paper_err_pct": None,
           "attempted": 0, "failed": 0, "errors": []}
    reference = spec["expected"]

    def run_point(name, fn, timed):
        start = time.perf_counter()
        try:
            obj, payload = fn()
        except Exception as exc:  # a failing point is counted, not fatal
            obj = payload = None
            out["errors"].append(f"{name}: {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        bursts = 0
        for machine in built:
            snap = layers.machine_counts(machine)
            counts.update(snap)
            bursts += layers.bursts(snap)
        built.clear()
        # Machines are cyclic garbage: free them now, outside the timed
        # region, so every point starts from the same heap.
        gc.collect()
        if timed:
            out["point_ms"].append(elapsed * 1e3)
        return obj, payload, elapsed, bursts

    def more_passes() -> bool:
        done = out["pass_s"]
        if spec["passes"]:
            return len(done) < spec["passes"]
        # At least one pass; then another only if it should still fit.
        return not done or sum(done) * (len(done) + 1) / len(done) <= spec["seconds"]

    mode = m.fastforward.exact_mode() if w.exact else contextlib.nullcontext()
    pass_counts = []
    with mode:
        name, fn = points[len(points) // 2]
        run_point(name, fn, timed=False)
        recorder.close()
        while more_passes():
            objs, payloads, pass_s, pass_bursts = [], {}, 0.0, 0
            for name, fn in points:
                obj, payload, elapsed, bursts = run_point(name, fn, timed=True)
                pass_s += elapsed
                pass_bursts += bursts
                if obj is not None:
                    objs.append(obj)
                    payloads[name] = payload
            pass_counts.append(recorder.close())
            if not out["pass_s"]:
                # Later passes repeat the same work; growth after the first
                # is allocator drift, which would make the peak depend on
                # how many passes fit in the run.
                out["peak_rss_mib"] = _peak_rss_mib()
            out["pass_s"].append(pass_s)
            out["pass_bursts"].append(pass_bursts)
            out["attempted"] += len(points)
            out["failed"] += len(points) - len(objs)
            if len(objs) < len(points):
                out["digests"].append(None)
                out["claims_failed"].append(None)
                continue
            pass_digest = digest(payloads)
            out["digests"].append(pass_digest)
            reference = reference or pass_digest
            if pass_digest != reference:
                out["failed"] += len(points)
                out["errors"].append(f"pass {len(out['pass_s'])}: digest "
                                     f"{pass_digest} != {reference}")
            claims = check(objs)
            out["claims_failed"].append(sum(not ok for ok in claims.values()))
            if out["claims"] is None:
                out["claims"] = claims
                out["paper_err_pct"] = _paper_err(m, w, objs)

    out["host"] = {"python": sys.version.split()[0],
                   "numpy": sys.modules["numpy"].__version__,
                   "backend": m.backend().name}
    if ledger is not None:
        mismatches = sorted({key for other in pass_counts[1:]
                             for key in set(other) | set(pass_counts[0])
                             if other.get(key, 0) != pass_counts[0].get(key, 0)})
        snapshot = ledger.snapshot()
        out["layers"] = {
            "metrics": layers.derive(snapshot, recorder.total(), missing),
            "targets": snapshot["targets"],
            "missing_targets": missing,
            "pass_mismatches": mismatches,
        }
    return out


def _fig3_points(m, w: Workload, rows: int, seed: int, counts: Counter):
    """(name, fn) per selectivity; fn returns (Fig3Point, payload)."""
    speedup, tracer, export = m.speedup, m.tracer, m.export
    column = m.workloads.uniform_column(rows, seed)
    expected = {}
    for s in SELECTIVITIES:
        low, high = m.workloads.bounds_for_selectivity(s)
        expected[s] = int(((column >= low) & (column <= high)).sum())

    def point(s):
        if w.trace:
            with tracer.tracing() as spans:
                p = speedup.measure_point(s, rows, seed=seed)
            export.chrome_trace(spans)
            counts["obs.events"] += len(spans.events)
            counts["obs.dropped"] += spans.dropped
        else:
            p = speedup.measure_point(s, rows, seed=seed)
        if p.matches != expected[s]:
            raise PointError(f"{p.matches} matches, expected {expected[s]}")
        return p, dataclasses.asdict(p)

    return [(f"sel={s}", lambda s=s: point(s)) for s in SELECTIVITIES]


def _fig4_points(m, scale: float, seed: int):
    """(name, fn) per query; fn returns (Fig4Point, payload)."""
    idle = m.idle
    data = m.tpch.generate(scale=scale, seed=seed)

    def point(query):
        p = idle.run_query_profile(query, data)
        return p, {"profile": dataclasses.asdict(p.profile),
                   "budget": dataclasses.asdict(p.budget)}

    return [(q, lambda q=q: point(q)) for q in FIG4_QUERIES]


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _paper_err(m, w: Workload, objs) -> float:
    """Mean |sim - paper| / paper, in percent."""
    if w.kind == "fig4":
        avg = m.idle.average_idle_cycles(objs)
        return 100.0 * abs(avg - PAPER_IDLE_CYCLES) / PAPER_IDLE_CYCLES
    by_sel = {p.selectivity: p.speedup for p in objs}
    errs = [abs(by_sel[s] - ref) / ref for s, ref in PAPER_SPEEDUP.items()]
    return 100.0 * sum(errs) / len(errs)


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    result = setup(spec) if spec["mode"] == "setup" else run(spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
