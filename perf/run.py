"""The repo benchmark: five paper workloads, end to end and per layer.

    python3 perf/run.py [--workload NAME] [--seed N] [--seconds S]
                        [--trace 0|1 | --traced] [--smoke] [--out FILE]

Each workload runs in its own fresh, single-threaded interpreter
(``worker.py``), one at a time, with one closed-loop client: each point
starts when the previous one returns.  Without ``--trace 1`` it reports the
end-to-end metrics; with it, a separate run reports the per-layer ones and
the outside-in path checks.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import layers
from worker import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
PERF = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
CLEARED_ENV = ("REPRO_TRACE", "REPRO_EXACT", "REPRO_SIMSAN", "REPRO_BACKEND")

#: Layers that must do work on a workload; ``calls == 0`` there is a
#: coverage error (the benchmark no longer reaches that layer).
MOST_WORK = {
    "analysis": tuple(WORKLOADS),
    "cpu": ("fig3-paper", "fig3-ff"),
    "dram": ("fig3-exact",),
    "cache": ("fig4-tpch",),
    "compute": ("fig3-paper",),
    "sim": ("fig3-ff",),
    "jafar": ("fig3-ff", "fig3-exact", "fig3-paper", "fig3-traced"),
    "columnstore": ("fig4-tpch",),
    "obs": ("fig3-traced",),
    "system": ("fig4-tpch", "fig3-paper"),
    "workloads": ("fig4-tpch", "fig3-paper"),
    "mem": ("fig4-tpch", "fig3-paper"),
}


class BenchError(Exception):
    """The benchmark could not run (not a wrong result)."""


# -- statistics ------------------------------------------------------------------


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolation percentile, ``p`` in [0, 100]."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def highest_percentile(values: list[float]) -> float | None:
    """The highest of :data:`PERCENTILES` with at least ten samples beyond it."""
    usable = [p for p in PERCENTILES
              if len(values) * (100.0 - p) / 100.0 >= 10 - 1e-9]
    return max(usable) if usable else None


def summary(values: list[float], unit: str) -> dict:
    """Median, quartiles and sample count; quartiles as the driver takes them."""
    if not values:
        return {"unit": unit, "median": None, "q1": None, "q3": None, "n": 0}
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (median, median, median))
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "n": len(values)}


# -- running workers -------------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    # numpy asks for transparent huge pages on large arrays; whether one is
    # granted depends on the array's address, so with it on, peak RSS (and
    # fault time) differed by 3 MiB between identical runs.
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               NUMPY_MADVISE_HUGEPAGE="0", PYTHONPATH=str(ROOT / "src"))
    return env


def spawn(spec: dict) -> dict:
    """Run one worker to completion and return its JSON result."""
    try:
        proc = subprocess.run(
            [sys.executable, str(PERF / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{spec['workload']}: worker timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{spec['workload']}: worker exited "
                         f"{proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def expected_digest(name: str, seed: int, size: float) -> str | None:
    """The committed digest for this input, if ``expected.json`` has one."""
    entries = json.loads((PERF / "expected.json").read_text())["digests"]
    for entry in entries.get(name, ()):
        if entry["seed"] == seed and entry["size"] == size:
            return entry["digest"]
    return None


def base_spec(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    w = WORKLOADS[name]
    size = w.smoke_size if smoke else w.size
    return {"mode": "run", "workload": name, "seed": seed, "size": size,
            "passes": 1 if smoke else None, "seconds": seconds,
            "layers": False, "expected": expected_digest(name, seed, size)}


def run_untraced(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    spec = base_spec(name, seed, seconds, smoke)
    run = spawn(spec)
    setups = [spawn({**spec, "mode": "setup"})["setup_s"]
              for _ in range(1 if smoke else SETUP_SAMPLES)]
    points = run["point_ms"]
    p90 = (percentile(points, 90.0)
           if (highest_percentile(points) or 0) >= 90.0 else None)
    claims = [c for c in run["claims_failed"] if c is not None]
    metrics = {
        "run_s": summary(run["pass_s"], "s"),
        "point_p50_ms": summary(points, "ms"),
        "point_p90_ms": {"unit": "ms", "median": p90, "n": len(points)},
        "sim_bursts_per_s": summary(
            [b / s for b, s in zip(run["pass_bursts"], run["pass_s"])], "1/s"),
        "setup_s": summary(setups, "s"),
        "peak_rss_mib": summary([run["peak_rss_mib"]], "MiB"),
        "fail_ratio": summary([run["failed"] / run["attempted"]], "ratio"),
        "claims_failed": summary([max(claims)] if claims else [], "count"),
        "paper_err_pct": summary([run["paper_err_pct"]]
                                 if run["paper_err_pct"] is not None else [], "%"),
    }
    correct = run["failed"] == 0 and bool(claims) and max(claims) == 0
    return _record(name, spec, run, correct, metrics)


def run_traced(name: str, seed: int, smoke: bool) -> dict:
    """A reference run and a ledger run of the same fixed pass count."""
    spec = base_spec(name, seed, 0, smoke)
    spec["passes"] = 1 if smoke else WORKLOADS[name].traced_passes
    ref = spawn(spec)
    run = spawn({**spec, "layers": True})
    ledger = run["layers"]
    metrics = dict(ledger["metrics"])
    metrics["trace_overhead_pct"] = 100.0 * (
        statistics.median(run["pass_s"]) / statistics.median(ref["pass_s"]) - 1)
    errors = [f"{name}: pass-to-pass count differs: {key}"
              for key in ledger["pass_mismatches"]]
    if run["digests"] != ref["digests"]:
        errors.append(f"{name}: traced digests {run['digests']} != "
                      f"untraced {ref['digests']}")
    if name != "fig3-traced" and metrics["obs.calls"]:
        errors.append(f"{name}: obs.calls = {metrics['obs.calls']} without tracing")
    claims = [c for r in (ref, run) for c in r["claims_failed"] if c is not None]
    correct = (ref["failed"] == run["failed"] == 0 and bool(claims)
               and max(claims) == 0 and not errors)
    record = _record(name, spec, run, correct, metrics)
    record["attempted"] += ref["attempted"]
    record["failed"] += ref["failed"]
    record["path_errors"] = errors
    record["missing_targets"] = ledger["missing_targets"]
    record["targets"] = ledger["targets"]
    record["coverage_errors"] = [
        f"{name}: {layer}.calls == 0" for layer, names in MOST_WORK.items()
        if name in names and not metrics[f"{layer}.calls"]]
    return record


def _record(name, spec, run, correct, metrics) -> dict:
    return {"seed": spec["seed"], "size": spec["size"],
            "attempted": run["attempted"], "failed": run["failed"],
            "correct": correct, "digest": run["digests"][0],
            "expected_digest": spec["expected"], "claims": run["claims"],
            "errors": run["errors"][:10], "worker_host": run["host"],
            "metrics": metrics}


def compare_traced_to_ff(traced: dict, ff: dict) -> list[str]:
    """Non-obs layer calls and counters of fig3-traced equal fig3-ff's."""
    def counts(record):
        return {k: v for k, v in record["metrics"].items()
                if not k.startswith("obs.") and not k.endswith("_s")
                and not k.endswith("share_pct") and k != "trace_overhead_pct"}

    a, b = counts(traced), counts(ff)
    return [f"fig3-traced {k} = {a[k]} but fig3-ff {k} = {b.get(k)}"
            for k in sorted(a) if a[k] != b.get(k)]


# -- host metadata ---------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD's commit, read from ``.git`` inside the checkout (None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu_model(), "git_sha": git_sha(),
            "platform": platform.platform()}


# -- reporting -------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_workload(name: str, record: dict) -> None:
    print(f"== {name} (seed {record['seed']}, size {_fmt(record['size'])}): "
          f"{record['attempted']} attempted, {record['failed']} failed, "
          f"correct={record['correct']}")
    for metric, value in record["metrics"].items():
        if isinstance(value, dict):
            print(f"  {metric:<30} {value['unit']:<6} median {_fmt(value['median'])}"
                  f"  [q1 {_fmt(value.get('q1'))}, q3 {_fmt(value.get('q3'))}]"
                  f"  n={value['n']}")
        else:
            print(f"  {metric:<30} {layers.unit_of(metric):<6} {_fmt(value)}")
    for key in ("errors", "path_errors", "coverage_errors", "missing_targets"):
        for line in record.get(key) or ():
            print(f"  {key[:-1]}: {line}")


def result_line(records: dict, traced: bool, bench: dict) -> dict:
    """The one-line result: the value of each metric BENCHMARK.json lists."""
    listed = [m["name"] for m in bench["per_layer" if traced else "end_to_end"]]
    metrics = {}
    for name, record in records.items():
        for metric in listed:
            value = record["metrics"][metric]
            key = metric if len(records) == 1 else f"{name}.{metric}"
            if traced:
                metrics[key] = {"value": value, "unit": layers.unit_of(metric)}
            else:
                metrics[key] = {"value": value["median"], "unit": value["unit"]}
    return {"correct": all(r["correct"] for r in records.values()),
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": sum(r["failed"] for r in records.values()),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all five)")
    parser.add_argument("--seed", type=int,
                        help="input seed (default: 42 for fig3, 1 for TPC-H)")
    parser.add_argument("--seconds", type=float,
                        help="point time to measure per workload "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the per-layer traced run")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one pass, to check the benchmark")
    parser.add_argument("--out", type=Path,
                        help="result JSON (default: perf/results/<run>.json)")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds is not None and args.seconds < 0:
        parser.error("--seconds must be non-negative")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    names = [args.workload] if args.workload else list(WORKLOADS)

    records: dict[str, dict] = {}
    try:
        for name in names:
            seed = WORKLOADS[name].seed if args.seed is None else args.seed
            if args.trace:
                records[name] = run_traced(name, seed, args.smoke)
            else:
                records[name] = run_untraced(name, seed, seconds, args.smoke)
            print_workload(name, records[name])
        if args.trace and "fig3-traced" in records:
            ff = records.get("fig3-ff") or run_traced(
                "fig3-ff", records["fig3-traced"]["seed"], args.smoke)
            errors = compare_traced_to_ff(records["fig3-traced"], ff)
            records["fig3-traced"]["path_errors"] += errors
            if errors:
                records["fig3-traced"]["correct"] = False
                print("\n".join(f"  path_error: {e}" for e in errors))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    out = args.out or PERF / "results" / (
        f"{args.workload or 'all'}{'-traced' if args.trace else ''}"
        f"{'-smoke' if args.smoke else ''}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    line = result_line(records, bool(args.trace), bench)
    doc = {"schema": "perf-run/1", "host": host(), "traced": bool(args.trace),
           "smoke": args.smoke, "seconds": seconds, "correct": line["correct"],
           "workloads": records}
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
