"""Tests for the benchmark's own logic; ``PYTHONPATH=src python -m pytest perf -q``."""

from __future__ import annotations

import json
import subprocess
import sys
import time
import types
from pathlib import Path

import compare
import layers
import run
import worker

PERF = Path(__file__).resolve().parent


def test_highest_percentile_needs_ten_samples_beyond():
    assert run.highest_percentile(list(range(19))) is None
    assert run.highest_percentile(list(range(20))) == 50.0
    assert run.highest_percentile(list(range(99))) == 50.0
    assert run.highest_percentile(list(range(100))) == 90.0
    assert run.highest_percentile(list(range(1000))) == 99.0
    assert run.highest_percentile(list(range(10_000))) == 99.9


def test_percentile_and_summary():
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 50.0) == 50.5
    assert abs(run.percentile(values, 90.0) - 90.1) < 1e-9
    s = run.summary([3.0, 1.0, 2.0, 4.0], "s")
    assert (s["median"], s["n"], s["unit"]) == (2.5, 4, "s")
    assert s["q1"] <= s["median"] <= s["q3"]
    assert run.summary([], "ms")["median"] is None


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_folds_nested_wrappers():
    clock = _FakeClock()
    ledger = layers.Ledger(clock=clock)

    def inner():
        clock.now += 5.0

    inner_w = ledger.wrap("low", "mod:inner", inner)

    def outer():
        clock.now += 1.0
        inner_w()
        clock.now += 2.0
        inner_w()

    ledger.wrap("high", "mod:outer", outer)()
    snap = ledger.snapshot()
    assert snap["layers"]["high"] == {"calls": 1, "self_s": 3.0}
    assert snap["layers"]["low"] == {"calls": 2, "self_s": 10.0}
    assert snap["targets"]["mod:outer"]["incl_s"] == 13.0


def test_install_rebinds_aliases_and_lists_missing_targets(monkeypatch):
    home = types.ModuleType("repro.zz_perf_home")

    def kernel(x):
        return x + 1

    home.kernel = kernel

    class Unit:
        def step(self):
            return home.kernel(1)

    home.Unit = Unit
    caller = types.ModuleType("repro.zz_perf_caller")
    caller.kern = kernel  # ``from ..home import kernel as kern``
    monkeypatch.setitem(sys.modules, home.__name__, home)
    monkeypatch.setitem(sys.modules, caller.__name__, caller)

    ledger = layers.Ledger()
    table = {"a": ("repro.zz_perf_home:Unit.step",),
             "b": ("repro.zz_perf_home:kernel", "repro.zz_perf_home:Gone.run")}
    undo, missing = layers.install(ledger, table)
    try:
        assert missing == ["repro.zz_perf_home:Gone.run"]
        assert caller.kern(1) == 2 and Unit().step() == 2
        snap = ledger.snapshot()
        assert snap["layers"]["a"]["calls"] == 1
        assert snap["layers"]["b"]["calls"] == 2
    finally:
        undo()
    assert caller.kern is kernel and home.kernel is kernel
    assert "step" in vars(Unit) and Unit.step.__name__ == "step"


def test_missing_target_metrics_are_null():
    ledger = layers.Ledger()
    ledger.wrap("sim", "repro.sim.engine:Simulator.run", lambda: None)()
    observe = "repro.sim.fastforward:EpochSkipper.observe"
    metrics = layers.derive(ledger.snapshot(), {"ff.skips": 0}, [observe])
    assert metrics["sim.ff_observes"] is None
    assert metrics["sim.ff_skip_pct"] is None
    assert metrics["sim.calls"] == 1
    assert metrics["cpu.self_s"] is None
    assert metrics["cache.l1_hit_pct"] == 0.0


def test_digest_ignores_dict_order():
    a = {"sel=0.0": {"cpu_ps": 1, "timeline": {"x": 1.5, "y": 2}},
         "sel=1.0": {"cpu_ps": 3, "timeline": None}}
    b = {"sel=1.0": {"timeline": None, "cpu_ps": 3},
         "sel=0.0": {"timeline": {"y": 2, "x": 1.5}, "cpu_ps": 1}}
    assert worker.digest(a) == worker.digest(b)
    b["sel=1.0"]["cpu_ps"] = 4
    assert worker.digest(a) != worker.digest(b)


def _doc(**metrics):
    return {"traced": False, "workloads": {"w": {"metrics": {
        name: {"median": m, "q1": q1, "q3": q3, "n": 5}
        for name, (m, q1, q3) in metrics.items()}}}}


def _verdicts(*docs):
    return {r["metric"]: r for r in compare.compare(list(docs))}


def test_compare_verdicts():
    parent = _doc(run_s=(1.00, 0.99, 1.01), sim_bursts_per_s=(100.0, 99.0, 101.0),
                  fail_ratio=(0.0, 0.0, 0.0))
    change = _doc(run_s=(1.20, 1.19, 1.21), sim_bursts_per_s=(100.5, 99.0, 101.0),
                  fail_ratio=(0.1, 0.1, 0.1))
    v = _verdicts(parent, change)
    assert v["run_s"]["verdict"] == "worse"
    assert v["run_s"]["spread"] is None  # one pair: run-to-run spread unknown
    assert v["sim_bursts_per_s"]["verdict"] == "same"
    assert v["fail_ratio"]["verdict"] == "worse"    # bound 0
    assert "claim" not in v["run_s"]
    v = _verdicts(change, parent)
    assert v["run_s"]["verdict"] == "better"
    assert v["sim_bursts_per_s"]["verdict"] == "same"


def test_compare_unresolved_when_parent_runs_spread_beyond_bound():
    runs = [_doc(setup_s=(m, m, m)) for m in (0.10, 0.21, 0.30, 0.20)]
    row = _verdicts(*runs)["setup_s"]  # parent runs 0.10 and 0.30
    assert row["spread"] > 0.25 and row["verdict"] == "unresolved"
    runs[1] = _doc(setup_s=(0.05, 0.05, 0.05))
    runs[3] = _doc(setup_s=(0.06, 0.06, 0.06))
    assert _verdicts(*runs)["setup_s"]["verdict"] == "better"  # beats every run


def test_compare_claim_rule_on_ten_pairs():
    docs = []
    for i in range(10):
        docs.append(_doc(run_s=(1.00 + 0.001 * i, 1.0, 1.0)))
        change = 0.80 if i else 1.2  # the change loses one pair in ten
        docs.append(_doc(run_s=(change, change, change)))
    row = _verdicts(*docs)["run_s"]
    assert row["verdict"] == "better"
    assert row["claim"] == {"wins": 9, "pairs": 10, "met": True}
    docs[3] = _doc(run_s=(1.5, 1.5, 1.5))  # one more loss: 8/10
    assert _verdicts(*docs)["run_s"]["claim"]["met"] is False


def _run_smoke(tmp_path, *extra):
    out = tmp_path / "result.json"
    proc = subprocess.run([sys.executable, str(PERF / "run.py"), "--smoke",
                           "--out", str(out), *extra],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(out.read_text())


def test_smoke_end_to_end(tmp_path):
    bench = json.loads((PERF.parent / "BENCHMARK.json").read_text())
    start = time.perf_counter()
    line, doc = _run_smoke(tmp_path)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    for name in worker.WORKLOADS:
        record = doc["workloads"][name]
        assert record["digest"] == record["expected_digest"]
        for m in bench["end_to_end"]:
            assert line["metrics"][f"{name}.{m['name']}"]["value"] > 0

    line, doc = _run_smoke(tmp_path, "--traced")
    assert line["correct"]
    for name in worker.WORKLOADS:
        record = doc["workloads"][name]
        assert record["path_errors"] == []
        assert record["missing_targets"] == []
        assert record["coverage_errors"] == []
        for m in bench["per_layer"]:
            assert line["metrics"][f"{name}.{m['name']}"]["value"] is not None
    assert time.perf_counter() - start < 30
