"""Fan benchmark points out over a process pool and report results.

Each worker checks the content-addressed store itself before simulating, so
a warm cache costs one JSON read per point regardless of worker count, and
a cold run populates the store as points complete.  Wall-clock numbers are
measured here (around the cache check + simulation), never cached.
"""

from __future__ import annotations

import json
import pathlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from typing import Any

from ..errors import ConfigError
from ..obs.tracer import TRACE as _TRACE
from ..sim import fastforward as _ffm
from ..sim.perturb import perturbed
from .configs import SweepConfig
from .runner import execute
from .store import DEFAULT_CACHE_DIR, ResultStore, cache_key, code_fingerprint

DEFAULT_OUTPUT = pathlib.Path("BENCH_results.json")

#: Committed perf trajectory: one JSON line per recorded run (``--record-
#: history``).  Entries chain PR to PR, so CI can gate on wall-clock
#: regressions against the previous recording of the same point set.
DEFAULT_HISTORY = pathlib.Path("BENCH_history.jsonl")

#: ``--history-gate`` fails on a wall-clock regression beyond this factor
#: vs the previous comparable history entry (>10% slower fails).
HISTORY_REGRESSION_TOLERANCE = 0.10

#: Per-point fields measured on the host rather than simulated.  They vary
#: run to run (timers, cache state, how much work fast-forward elided) and
#: MUST stay out of every determinism comparison — sim_identical deltas, the
#: CI ``--diff`` gate — and out of the content-addressed store payloads.
#: ``perturb_seed`` belongs here by the confluence contract: the simulated
#: payload is bit-identical under every tie-break permutation, so a
#: perturbed report must diff clean against an unperturbed one.  ``backend``
#: belongs here by the backend bit-identity contract (DESIGN.md §10): a
#: python-backend report must diff clean against a numpy-backend one.
HOST_ONLY_POINT_FIELDS = ("wall_s", "cached", "ff_skipped_events", "exact",
                          "perturb_seed", "backend")


def simulated_view(point: dict[str, Any]) -> dict[str, Any]:
    """The point with every host-timing field stripped: the comparable part.

    ``key`` is dropped too — it encodes the code fingerprint, so it changes
    whenever any source file does, which says nothing about the simulation.
    """
    return {k: v for k, v in point.items()
            if k not in HOST_ONLY_POINT_FIELDS and k != "key"}


def run_point(config: SweepConfig, fingerprint: str, cache_dir: str,
              use_cache: bool, exact: bool = False,
              perturb_seed: int | None = None,
              backend: str | None = None) -> dict[str, Any]:
    """Run (or fetch) one point.  Top-level so process pools can pickle it.

    ``exact=True`` disables steady-state fast-forward for the simulation —
    the escape hatch CI uses to prove the fast path changes nothing.  The
    cache key is deliberately shared between modes: results are bit-identical
    by contract, so an exact run may be served by a fast-forwarded entry and
    vice versa.  ``ff_skipped_events`` is measured per execution and is
    ``None`` on a cache hit (nothing was simulated).

    ``perturb_seed`` shuffles same-timestamp event tie-breaks for the run
    (see :mod:`repro.sim.perturb`): the schedule-confluence contract says
    the simulated payload is bit-identical anyway.  Perturbed runs bypass
    the result store — serving a cached payload would prove nothing about
    this schedule.

    ``backend`` selects the compute backend for the simulation (default:
    the process's active backend).  It is part of the cache key, so the
    two backends' results never cross-pollinate the store.
    """
    from ..compute import backend_scope, get_backend

    started = time.perf_counter()
    if backend is None:
        backend = get_backend().name
    key = cache_key(config, fingerprint, backend)
    if perturb_seed is not None:
        use_cache = False
    store = ResultStore(cache_dir) if use_cache else None
    cached = store.get(key) if store is not None else None
    skipped: int | None = None
    if cached is not None:
        result = cached
        hit = True
    else:
        _ffm.STATS.reset()
        tracer = _TRACE.tracer if _TRACE.on else None
        root_opened = tracer is not None and tracer.depth == 0
        if root_opened:
            tracer.begin(config.name, tracer.root_track(config.name), 0,
                         experiment=config.experiment, exact=exact)
        try:
            with perturbed(perturb_seed), backend_scope(backend):
                if exact:
                    with _ffm.exact_mode():
                        result = execute(config)
                else:
                    result = execute(config)
        finally:
            if root_opened:
                tracer.end(None)
        skipped = _ffm.STATS.skipped_events
        hit = False
        if store is not None:
            store.put(key, result)
    wall_s = time.perf_counter() - started
    return {
        "name": config.name,
        "key": key,
        "config": asdict(config),
        "result": result,
        "wall_s": wall_s,
        "cached": hit,
        "exact": exact,
        "perturb_seed": perturb_seed,
        "backend": backend,
        "ff_skipped_events": skipped,
    }


def run_sweep(configs: list[SweepConfig], workers: int = 1,
              cache_dir: str | pathlib.Path = DEFAULT_CACHE_DIR,
              use_cache: bool = True, serial: bool = False,
              exact: bool = False,
              perturb_seed: int | None = None,
              backend: str | None = None) -> dict[str, Any]:
    """Run every config and assemble the report dictionary.

    ``serial=True`` (or ``workers <= 1``) runs in-process — the comparison
    baseline and the debug path.  Otherwise points fan out over a
    ``ProcessPoolExecutor``; results keep config order regardless of
    completion order, so reports diff cleanly run-to-run.  ``backend`` is
    resolved here once so pool workers cannot disagree with the parent
    about which compute backend a point ran under.
    """
    from ..compute import get_backend

    fingerprint = code_fingerprint()
    cache_dir = str(cache_dir)
    if backend is None:
        backend = get_backend().name
    started = time.perf_counter()
    if serial or workers <= 1:
        points = [run_point(c, fingerprint, cache_dir, use_cache, exact,
                            perturb_seed, backend)
                  for c in configs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_point, c, fingerprint, cache_dir,
                                   use_cache, exact, perturb_seed, backend)
                       for c in configs]
            points = [f.result() for f in futures]
    total_wall_s = time.perf_counter() - started
    skipped = [p["ff_skipped_events"] for p in points
               if p.get("ff_skipped_events") is not None]
    return {
        "version": 1,
        "fingerprint": fingerprint,
        "workers": 1 if serial else max(workers, 1),
        "num_points": len(points),
        # Reduce step: the authoritative hit count is derived here from the
        # per-point flags, so the top-level counter can never disagree with
        # the ``cached: true`` entries in ``points``.
        "cache_hits": sum(1 for p in points if p.get("cached")),
        "exact": exact,
        "perturb_seed": perturb_seed,
        "backend": backend,
        "ff_skipped_events": sum(skipped) if skipped else None,
        "total_wall_s": total_wall_s,
        "points": points,
    }


def diff_reports(report_a: dict[str, Any],
                 report_b: dict[str, Any]) -> list[str]:
    """Names of points whose *simulated* payloads differ between reports.

    Host-timing fields (:data:`HOST_ONLY_POINT_FIELDS`) are stripped before
    comparing, so an exact run diffs clean against a fast-forwarded run of
    the same code.  A point present in only one report counts as a mismatch.
    """
    a_points = {p["name"]: p for p in report_a.get("points", [])}
    b_points = {p["name"]: p for p in report_b.get("points", [])}
    mismatched = []
    for name in sorted(a_points.keys() | b_points.keys()):
        in_a, in_b = a_points.get(name), b_points.get(name)
        if (in_a is None or in_b is None
                or simulated_view(in_a) != simulated_view(in_b)):
            mismatched.append(name)
    return mismatched


def compare_backends(configs: list[SweepConfig],
                     backends: tuple[str, ...] = ("python", "numpy"),
                     cache_dir: str | pathlib.Path = DEFAULT_CACHE_DIR,
                     exact: bool = False) -> dict[str, Any]:
    """Run ``configs`` under every backend and fold the timings together.

    Every backend runs serially with the cache bypassed so each point's
    ``wall_s`` measures an actual simulation.  Returns the last backend's
    report with a ``backend_compare`` section attached: per-point and
    total wall-clock per backend, the last-vs-first speedup, and whether
    the simulated payloads were bit-identical across all backends
    (``identical`` — the DESIGN.md §10 contract, measured end-to-end).

    Backends that cannot be constructed in this process (e.g. ``numpy``
    where numpy does not import) are skipped, not failed: they are listed
    under ``skipped_backends`` with the reason, and the comparison runs
    over whatever remains.  Asking for zero available backends is the only
    error case.
    """
    from ..compute import available_backends

    usable = available_backends()
    names = [name for name in backends if name in usable]
    skipped = [{"backend": name, "reason": "unavailable in this environment"}
               for name in backends if name not in usable]
    if not names:
        raise ConfigError(
            f"none of the requested backends {tuple(backends)} are "
            f"available (have: {usable})"
        )
    reports = {name: run_sweep(configs, serial=True, cache_dir=cache_dir,
                               use_cache=False, exact=exact, backend=name)
               for name in names}
    baseline = names[0]
    mismatched = sorted({point
                         for name in names[1:]
                         for point in diff_reports(reports[baseline],
                                                   reports[name])})
    walls = {name: {p["name"]: p["wall_s"] for p in reports[name]["points"]}
             for name in names}
    points: dict[str, Any] = {}
    for config in configs:
        entry = {f"{name}_wall_s": walls[name][config.name] for name in names}
        last = walls[names[-1]][config.name]
        entry["wall_speedup"] = (walls[baseline][config.name] / last
                                 if last > 0 else None)
        points[config.name] = entry
    total = {f"{name}_wall_s": reports[name]["total_wall_s"]
             for name in names}
    last_total = reports[names[-1]]["total_wall_s"]
    total["wall_speedup"] = (reports[baseline]["total_wall_s"] / last_total
                             if last_total > 0 else None)
    primary = dict(reports[names[-1]])
    primary["backend_compare"] = {
        "backends": names,
        "skipped_backends": skipped,
        "identical": not mismatched,
        "mismatched_points": mismatched,
        "points": points,
        "total": total,
    }
    return primary


def compute_deltas(report: dict[str, Any],
                   previous: dict[str, Any]) -> dict[str, Any]:
    """Speedup-vs-previous-run deltas, keyed by point name.

    ``sim_identical`` flags whether the simulated payload matched the
    previous run exactly — the determinism check CI enforces.
    ``wall_speedup`` > 1 means this run was faster.
    """
    prev_points = {p["name"]: p for p in previous.get("points", [])}
    point_deltas: dict[str, Any] = {}
    for point in report["points"]:
        prev = prev_points.get(point["name"])
        if prev is None:
            continue
        wall_speedup = (prev["wall_s"] / point["wall_s"]
                        if point["wall_s"] > 0 else None)
        point_deltas[point["name"]] = {
            "sim_identical": simulated_view(prev) == simulated_view(point),
            "wall_speedup": wall_speedup,
            "previously_cached": prev["cached"],
        }
    prev_total = previous.get("total_wall_s")
    total_speedup = (prev_total / report["total_wall_s"]
                     if prev_total and report["total_wall_s"] > 0 else None)
    return {
        "previous_fingerprint": previous.get("fingerprint"),
        "total_wall_speedup": total_speedup,
        "points": point_deltas,
    }


def write_results(report: dict[str, Any],
                  output: str | pathlib.Path = DEFAULT_OUTPUT) -> dict[str, Any]:
    """Attach deltas against the previous report at ``output`` and write it."""
    output = pathlib.Path(output)
    previous: dict[str, Any] | None = None
    try:
        with output.open("r", encoding="utf-8") as handle:
            previous = json.load(handle)
    except (FileNotFoundError, json.JSONDecodeError, OSError):
        previous = None
    if previous is not None:
        report = dict(report)
        report["deltas"] = compute_deltas(report, previous)
    output.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n",
                      encoding="utf-8")
    return report


def _history_signature(report: dict[str, Any]) -> str:
    """What makes two history entries wall-clock comparable: the point set.

    Names encode experiment/rows/selectivity/grade/..., so identical sorted
    names means the same work was simulated.  Mode and backend are excluded
    deliberately — a history line records *the repo's* speed for this point
    set however it was achieved, and regressions against a faster backend's
    entry are exactly the regressions the gate exists to catch.
    """
    return ",".join(sorted(p["name"] for p in report.get("points", [])))


def read_history(path: str | pathlib.Path = DEFAULT_HISTORY) -> list[dict]:
    """All parseable entries in the history file, oldest first."""
    entries: list[dict] = []
    try:
        text = pathlib.Path(path).read_text(encoding="utf-8")
    except (FileNotFoundError, OSError):
        return entries
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(entry, dict):
            entries.append(entry)
    return entries


def timeline_columns(report: dict[str, Any]) -> dict[str, Any]:
    """Informational utilisation/idle columns for a sweep report.

    Mean over the points whose payload carries the counter-derived
    ``timeline`` digest (fig3 points); ``None`` columns when no point does.
    These never gate — :func:`check_history_regression` compares only
    ``total_wall_s``.
    """
    digests = [p["result"]["timeline"] for p in report.get("points", [])
               if isinstance(p.get("result"), dict)
               and p["result"].get("timeline")]
    if not digests:
        return {"bus_utilisation_pct": None, "idle_gap_p50_cycles": None,
                "idle_gap_p95_cycles": None}
    n = len(digests)
    return {
        "bus_utilisation_pct":
            sum(d["bus_utilisation_pct"] for d in digests) / n,
        "idle_gap_p50_cycles":
            sum(d["idle_gap_p50_cycles"] for d in digests) / n,
        "idle_gap_p95_cycles":
            sum(d["idle_gap_p95_cycles"] for d in digests) / n,
    }


def record_history(report: dict[str, Any],
                   path: str | pathlib.Path = DEFAULT_HISTORY,
                   note: str | None = None) -> dict[str, Any]:
    """Append this run's summary line to the committed perf trajectory.

    One JSON object per line: fingerprint, backend, the largest row count
    in the sweep, total wall seconds, fast-forward events skipped, and the
    speedup vs the previous entry for the *same point set*
    (``total_wall_speedup`` > 1 means this run was faster; ``null`` when
    there is no comparable predecessor).  Wall-clock only ever comes from
    uncached points — recording a cache-hit run would write a meaningless
    near-zero wall time into the trajectory, so it is refused.

    Entries additionally carry informational (non-gating) utilisation/idle
    columns averaged over the points that report a ``timeline`` digest:
    ``bus_utilisation_pct``, ``idle_gap_p50_cycles``,
    ``idle_gap_p95_cycles`` — ``null`` when no point carries one (e.g. the
    analytic ``scan_estimate`` experiment).  Only ``total_wall_s`` gates.
    """
    if any(p.get("cached") for p in report.get("points", [])):
        raise ConfigError(
            "refusing to record history from a run with cache hits; rerun "
            "with --no-cache so wall_s measures actual simulation"
        )
    signature = _history_signature(report)
    previous = None
    for entry in reversed(read_history(path)):
        if entry.get("points_sig") == signature:
            previous = entry
            break
    prev_wall = previous.get("total_wall_s") if previous else None
    total_wall_s = report["total_wall_s"]
    speedup = (prev_wall / total_wall_s
               if prev_wall and total_wall_s > 0 else None)
    rows = [p.get("config", {}).get("rows") for p in report.get("points", [])]
    rows = [r for r in rows if isinstance(r, int)]
    entry = {
        "fingerprint": report.get("fingerprint"),
        "backend": report.get("backend"),
        "rows": max(rows) if rows else None,
        "num_points": report.get("num_points"),
        "points_sig": signature,
        "exact": report.get("exact", False),
        "total_wall_s": total_wall_s,
        "total_wall_speedup": speedup,
        "ff_skipped_events": report.get("ff_skipped_events"),
    }
    entry.update(timeline_columns(report))
    if note:
        entry["note"] = note
    history_path = pathlib.Path(path)
    with history_path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def check_history_regression(
        path: str | pathlib.Path = DEFAULT_HISTORY,
        tolerance: float = HISTORY_REGRESSION_TOLERANCE) -> tuple[bool, str]:
    """Gate the newest history entry against its comparable predecessor.

    Returns ``(ok, message)``.  Fails only when the latest entry is more
    than ``tolerance`` slower than the previous entry with the same point
    set; a missing file, a single entry, or no comparable predecessor all
    pass (the trajectory has to start somewhere).
    """
    entries = read_history(path)
    if not entries:
        return True, f"history gate: no entries in {path}"
    latest = entries[-1]
    previous = None
    for entry in reversed(entries[:-1]):
        if entry.get("points_sig") == latest.get("points_sig"):
            previous = entry
            break
    if previous is None:
        return True, "history gate: no comparable predecessor entry"
    prev_wall = previous.get("total_wall_s")
    wall = latest.get("total_wall_s")
    if not prev_wall or not wall:
        return True, "history gate: missing wall-clock data"
    ratio = wall / prev_wall
    detail = (f"{wall:.3f}s vs previous {prev_wall:.3f}s "
              f"({ratio:.2f}x, tolerance {1 + tolerance:.2f}x)")
    if ratio > 1 + tolerance:
        return False, f"history gate: wall-clock regression — {detail}"
    return True, f"history gate: ok — {detail}"
