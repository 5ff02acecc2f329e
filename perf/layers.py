"""Outside-in per-layer host-time ledger for the traced benchmark run.

Each layer of ``src/repro`` is a set of public functions.  :func:`install`
wraps them where callers look them up: a method is replaced on its class,
and a module-level function is rebound in every loaded ``repro`` module
that holds it, so ``from ..cpu import branchy_select`` callers see the
wrapper too.  It must run before any ``Machine`` is built, so that hot
loops which bind methods once per run bind the wrapper.

Wrappers nest.  A call's self time is its duration minus the time spent in
wrapped calls below it, so every host second inside the outermost wrapper
lands in exactly one layer.  A target that no longer exists is listed as
missing instead of failing the run; metrics derived from it read ``None``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

#: Layer name -> wrapped targets.  ``module:Class.method`` is replaced on
#: the class; ``module:function`` wherever a ``repro`` module binds it.
#: ``module:*`` expands to every function in the module's ``__all__``;
#: ``compute`` is expanded by :func:`expand` to the active backend class.
LAYERS: dict[str, tuple[str, ...]] = {
    "analysis": ("repro.analysis.speedup:measure_point",
                 "repro.analysis.idle:run_query_profile"),
    "workloads": ("repro.workloads.generators:uniform_column",
                  "repro.tpch.datagen:generate"),
    "system": ("repro.system.machine:Machine.__init__",
               "repro.system.profiler:profile_controller"),
    "mem": ("repro.mem.physical:PhysicalMemory.write",
            "repro.mem.physical:PhysicalMemory.fill",
            "repro.mem.physical:PhysicalMemory.read"),
    "columnstore": ("repro.columnstore.storage:StorageManager.load_table",
                    "repro.columnstore.operators:*"),
    "jafar": ("repro.jafar.driver:JafarDriver.select_column",
              "repro.jafar.driver:JafarDriver.select_page",
              "repro.jafar.device:JafarDevice.start"),
    "cpu": ("repro.cpu.kernels:branchy_select",
            "repro.cpu.core:Core.stream_read_phase",
            "repro.cpu.core:Core.random_read_phase",
            "repro.cpu.core:Core.compute_phase"),
    "cache": ("repro.cache.hierarchy:CacheHierarchy.access",
              "repro.cache.hierarchy:CacheHierarchy.invalidate_range"),
    "dram": ("repro.dram.controller:MemoryController.stream_read_ps",
             "repro.dram.controller:MemoryController.stream_write_ps",
             "repro.dram.controller:MemoryController.submit",
             "repro.dram.controller:MemoryController.submit_batch",
             "repro.dram.rank:Rank.access"),
    "compute": ("repro.compute.base:ComputeBackend.*",),
    "sim": ("repro.sim.fastforward:EpochSkipper.observe",
            "repro.sim.fastforward:EpochSkipper.skip",
            "repro.sim.engine:Simulator.run",
            "repro.sim.engine:Simulator.fast_forward_to"),
    "obs": ("repro.obs.tracer:SpanTracer.begin",
            "repro.obs.tracer:SpanTracer.end",
            "repro.obs.tracer:SpanTracer.complete",
            "repro.obs.tracer:SpanTracer.instant",
            "repro.obs.tracer:SpanTracer.bank_access",
            "repro.obs.timeline:TimelineSampler.bus",
            "repro.obs.timeline:TimelineSampler.queue",
            "repro.obs.timeline:TimelineSampler.synth",
            "repro.obs.export:chrome_trace"),
}

PHASE_LABELS = ("repro.cpu.core:Core.stream_read_phase",
                "repro.cpu.core:Core.random_read_phase",
                "repro.cpu.core:Core.compute_phase")


def _resolve(spec: str):
    """(owner, attribute, original) for one concrete ``module:qualname``."""
    module_name, _, qualname = spec.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def expand(spec: str) -> list[str]:
    """Concrete ``module:qualname`` targets for one table entry."""
    module_name, _, qualname = spec.partition(":")
    if qualname == "*":
        module = importlib.import_module(module_name)
        return [f"{module_name}:{name}" for name in module.__all__
                if inspect.isfunction(getattr(module, name))]
    if qualname == "ComputeBackend.*":
        from repro.compute import get_backend

        base = importlib.import_module(module_name).ComputeBackend
        active = type(get_backend())
        return [f"{active.__module__}:{active.__name__}.{name}"
                for name, member in vars(base).items()
                if inspect.isfunction(member) and not name.startswith("_")]
    return [spec]


class Ledger:
    """Per-target call counts, inclusive time and self time.

    ``observers`` maps a target to ``fn(result, args)``, called after the
    wrapped call returns, for work counts only the return value carries.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.layer_of: dict[str, str] = {}
        # target -> [calls, inclusive seconds, self seconds]
        self.cells: dict[str, list] = {}
        self.observers: dict[str, object] = {}
        self._stack = [0.0]

    def wrap(self, layer: str, label: str, fn):
        """A wrapper around ``fn`` charging its self time to ``layer``."""
        cell = self.cells.setdefault(label, [0, 0.0, 0.0])
        self.layer_of[label] = layer
        clock = self.clock
        stack = self._stack
        observers = self.observers

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                stack[-1] += duration
                cell[0] += 1
                cell[1] += duration
                cell[2] += duration - child
            observer = observers.get(label)
            if observer is not None:
                observer(result, args)
            return result

        return wrapper

    def snapshot(self) -> dict:
        """``{"targets": {label: {calls, incl_s, self_s}}, "layers": ...}``."""
        targets = {label: {"layer": self.layer_of[label], "calls": c,
                           "incl_s": incl, "self_s": own}
                   for label, (c, incl, own) in self.cells.items()}
        layers: dict[str, dict] = {}
        for label, row in targets.items():
            layer = layers.setdefault(row["layer"],
                                      {"calls": 0, "self_s": 0.0})
            layer["calls"] += row["calls"]
            layer["self_s"] += row["self_s"]
        return {"targets": targets, "layers": layers}


def install(ledger: Ledger, layers: dict[str, tuple[str, ...]] = LAYERS):
    """Wrap every target; returns ``(undo, missing_targets)``.

    ``undo()`` restores the originals in reverse order.
    """
    patches: list[tuple[object, str, object]] = []
    missing: list[str] = []
    for layer, specs in layers.items():
        for spec in specs:
            try:
                concrete = expand(spec)
            except (ImportError, AttributeError):
                missing.append(spec)
                continue
            for label in concrete:
                try:
                    owner, attr, original = _resolve(label)
                except (ImportError, AttributeError):
                    missing.append(label)
                    continue
                wrapper = ledger.wrap(layer, label, original)
                if inspect.isclass(owner):
                    patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for module in list(sys.modules.values()):
                    name = getattr(module, "__name__", "")
                    if name != "repro" and not name.startswith("repro."):
                        continue
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, alias, original))
                            setattr(module, alias, wrapper)

    def undo() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return undo, missing


# -- work counts ----------------------------------------------------------------

_MACHINE_METRICS = ("imc.reads", "imc.writes", "imc.row_hits", "imc.row_misses",
                    "jafar.invocations", "jafar.bursts_read",
                    "jafar.writeback_bursts", "jafar.words_processed",
                    "jafar.busy_ps")


def machine_counts(machine) -> dict:
    """One machine's work, from ``metrics.snapshot()`` and ``hierarchy.stats()``."""
    snap = machine.metrics.snapshot()
    out = {name: snap[name]["value"] for name in _MACHINE_METRICS
           if name in snap}
    levels = list(machine.hierarchy.stats().values())
    out["l1.hits"] = levels[0]["hits"]
    out["l1.misses"] = levels[0]["misses"]
    out["llc.hits"] = levels[-1]["hits"]
    out["llc.misses"] = levels[-1]["misses"]
    out["cache.writebacks"] = sum(level["writebacks"] for level in levels)
    return out


def bursts(counts: dict) -> int:
    """Simulated bursts: CPU-leg IMC reads + writes, JAFAR reads + writebacks."""
    return sum(counts.get(name, 0) for name in (
        "imc.reads", "imc.writes", "jafar.bursts_read", "jafar.writeback_bursts"))


def observe_work(ledger: Ledger, counts) -> None:
    """Count work that only return values carry: rows generated, CPU lines."""

    def rows(result, args):
        counts["workloads.rows"] += len(result)

    def tables(result, args):
        counts["workloads.rows"] += sum(t.num_rows for t in result.tables())

    def phase(result, args):
        counts["cpu.lines_read"] += result.lines_read
        counts["cpu.lines_written"] += result.lines_written
        counts["cpu.stall_ps"] += result.stall_ps

    ledger.observers["repro.workloads.generators:uniform_column"] = rows
    ledger.observers["repro.tpch.datagen:generate"] = tables
    for label in PHASE_LABELS:
        ledger.observers[label] = phase


class Recorder:
    """Deterministic work counts, read at phase boundaries.

    A vector holds the named counts, the fast-forward ``STATS`` counters
    and every target's call count.  :meth:`close` returns the change since
    the previous boundary, so passes can be compared for equality.
    """

    def __init__(self, ledger: Ledger | None, counts, ff_stats) -> None:
        self.ledger = ledger
        self.counts = counts
        self.ff_stats = ff_stats
        self._start = self._last = self.vector()

    def vector(self) -> dict:
        out = dict(self.counts)
        if self.ff_stats is not None:
            out.update((f"ff.{key}", value)
                       for key, value in self.ff_stats.snapshot().items()
                       if key != "type")
        if self.ledger is not None:
            out.update((f"calls {label}", cell[0])
                       for label, cell in self.ledger.cells.items())
        return out

    def close(self) -> dict:
        now = self.vector()
        delta = _diff(now, self._last)
        self._last = now
        return delta

    def total(self) -> dict:
        return _diff(self.vector(), self._start)


def _diff(now: dict, before: dict) -> dict:
    return {key: value - before.get(key, 0) for key, value in now.items()}


# -- per-layer metrics ----------------------------------------------------------

COMPUTE_KERNELS = ("batch_issue", "batch_mark_busy", "fused_hit_run",
                   "apply_delta")


def unit_of(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "count"


def derive(snapshot: dict, totals: dict, missing: list[str]) -> dict:
    """Every per-layer metric, from a ledger snapshot and the run's counts.

    A metric whose target is missing reads ``None``; a percentage whose
    base is 0 reads 0.
    """
    targets, by_layer = snapshot["targets"], snapshot["layers"]
    gone = set(missing)

    def calls(*labels):
        if any(label in gone or label not in targets for label in labels):
            return None
        return sum(targets[label]["calls"] for label in labels)

    def incl(label):
        return None if calls(label) is None else targets[label]["incl_s"]

    def count(key, *needs):
        if any(label in gone for label in needs):
            return None
        default = None if key.startswith("ff.") else 0
        return totals.get(key, default)

    def pct(num, den):
        if num is None or den is None:
            return None
        return 100.0 * num / den if den else 0.0

    def scale(value, factor):
        return None if value is None else value * factor

    out: dict = {}
    total_self = sum(row["self_s"] for row in by_layer.values())
    for layer in LAYERS:
        row = by_layer.get(layer)
        out[f"{layer}.self_s"] = None if row is None else row["self_s"]
        out[f"{layer}.share_pct"] = (None if row is None
                                     else pct(row["self_s"], total_self))
        out[f"{layer}.calls"] = None if row is None else row["calls"]

    phases = PHASE_LABELS
    out["cpu.lines_read"] = count("cpu.lines_read", *phases)
    out["cpu.lines_written"] = count("cpu.lines_written", *phases)
    out["cpu.stall_sim_ms"] = scale(count("cpu.stall_ps", *phases), 1e-9)

    hits, misses = count("imc.row_hits"), count("imc.row_misses")
    lane = count("ff.lane_requests")
    out["dram.rank_accesses"] = calls("repro.dram.rank:Rank.access")
    out["dram.submits"] = calls("repro.dram.controller:MemoryController.submit")
    out["dram.batch_submits"] = calls(
        "repro.dram.controller:MemoryController.submit_batch")
    out["dram.reads"] = count("imc.reads")
    out["dram.writes"] = count("imc.writes")
    out["dram.row_hit_pct"] = pct(hits, hits + misses)
    out["dram.lane_requests"] = lane
    out["dram.batched_pct"] = pct(count("ff.batched_requests"), lane)

    l1 = count("l1.hits") + count("l1.misses")
    out["cache.accesses"] = l1
    out["cache.l1_hit_pct"] = pct(count("l1.hits"), l1)
    out["cache.llc_hit_pct"] = pct(count("llc.hits"),
                                   count("llc.hits") + count("llc.misses"))
    out["cache.writebacks"] = count("cache.writebacks")

    for kernel in COMPUTE_KERNELS:
        labels = [label for label, row in targets.items()
                  if row["layer"] == "compute"
                  and label.endswith(f".{kernel}")]
        out[f"compute.{kernel}_calls"] = calls(*labels) if labels else None

    observes = calls("repro.sim.fastforward:EpochSkipper.observe")
    out["sim.ff_observes"] = observes
    out["sim.ff_skips"] = count("ff.skips")
    out["sim.ff_skip_pct"] = pct(count("ff.skips"), observes)
    out["sim.ff_skipped_events"] = count("ff.skipped_events")
    out["sim.ff_refused"] = count("ff.refused")

    out["jafar.pages"] = count("jafar.invocations")
    out["jafar.bursts_read"] = count("jafar.bursts_read")
    out["jafar.writeback_bursts"] = count("jafar.writeback_bursts")
    out["jafar.words_processed"] = count("jafar.words_processed")
    out["jafar.busy_sim_ms"] = count("jafar.busy_ps") * 1e-9

    operators = [label for label in targets
                 if label.startswith("repro.columnstore.operators:")]
    out["columnstore.operator_calls"] = (
        None if "repro.columnstore.operators:*" in gone else calls(*operators))
    out["columnstore.load_s"] = incl(
        "repro.columnstore.storage:StorageManager.load_table")

    out["obs.events"] = count("obs.events")
    out["obs.dropped"] = count("obs.dropped")
    out["obs.export_s"] = incl("repro.obs.export:chrome_trace")

    out["system.machines"] = calls("repro.system.machine:Machine.__init__")
    out["system.machine_build_s"] = incl("repro.system.machine:Machine.__init__")
    out["workloads.rows_generated"] = count(
        "workloads.rows", "repro.workloads.generators:uniform_column",
        "repro.tpch.datagen:generate")
    return out
