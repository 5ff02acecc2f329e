"""Seeded differential fuzzing of the CPU stream lane against exact mode.

Each case draws a random sequence of stream phases — per-line compute
(scalar or per-line, integral or fractional cycles), posted-write volumes
(integral or not), a write base in the input's bank, another bank or
another rank, bases off row alignment, lengths that cross refresh
deadlines and bank ends, and random prefetch depth and drain batch — and
runs it through :meth:`Core.stream_read_phase` on fresh machines four ways:
fast-forward on and in :func:`exact_mode`, under the python and numpy
backends.  Every run must match the python/exact reference exactly:
``PhaseStats``, the full ``metrics.snapshot()``, the core's clock and
write queue, and every bank, rank and channel timing field.

Seeds are fixed, so a failure reproduces exactly; the ``slow`` campaign
widens the seed range and the phase lengths.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.cache import CacheHierarchy, SetAssociativeCache
from repro.compute import backend_scope
from repro.config import GEM5_PLATFORM
from repro.cpu import Core
from repro.dram import DRAMGeometry, MemoryController, speed_grade
from repro.obs.metrics import MetricsRegistry
from repro.sim import fastforward as _ffm

# 128-line rows and 16-row banks: phases of a few thousand lines cross
# bank ends, and at ~4 ns per line they cross the 7.8 us refresh interval.
GEO = DRAMGeometry(channels=1, dimms_per_channel=1, ranks_per_dimm=2,
                   banks_per_rank=4, row_bytes=8192, rows_per_bank=16)
LINE = 64
RUNS = (("numpy", False), ("python", False), ("numpy", True))


def _random_case(seed: int, max_lines: int) -> dict:
    rng = random.Random(seed)
    phases = []
    for _ in range(rng.choice((1, 1, 2, 3))):
        nlines = rng.randrange(16, max_lines)
        # Input in rank 0, line-aligned at a random row offset (rarely
        # misaligned, which keeps the phase off the lane entirely).
        base = rng.randrange(0, GEO.rank_bytes - nlines * LINE) // LINE * LINE
        if rng.random() < 0.05:
            base += 8
        kind = rng.choice(("scalar-int", "scalar-frac", "vec-int",
                           "vec-frac"))
        if kind == "scalar-int":
            cycles = float(rng.randrange(0, 40))
        elif kind == "scalar-frac":
            cycles = rng.uniform(0.0, 40.0)
        else:
            vec = np.array([rng.randrange(0, 40) for _ in range(nlines)],
                           dtype=np.float64)
            if kind == "vec-frac":
                vec += np.array([rng.random() for _ in range(nlines)])
            cycles = vec
        out_kind = rng.choice(("none", "scalar", "vec-int", "vec-frac"))
        if out_kind == "none":
            writes = 0.0
        elif out_kind == "scalar":
            writes = rng.choice((8.0, 32.0, 64.0, 100.0, 10.5))
        else:
            vec = np.array([rng.choice((0, 0, 8, 16, 64))
                            for _ in range(nlines)], dtype=np.float64)
            if out_kind == "vec-frac":
                vec *= 1.3
            writes = vec
        # Leave room for the worst-case output (<= 100 B per line).
        room = 2 * nlines * LINE + LINE
        target = rng.choice(("default", "same-bank", "other-bank",
                             "other-rank"))
        if target == "default":
            write_base = None
        elif target == "same-bank":
            bank_lo = base - base % GEO.bank_bytes
            write_base = rng.randrange(bank_lo, bank_lo + GEO.bank_bytes,
                                       LINE)
        elif target == "other-bank":
            bank = (base // GEO.bank_bytes + rng.randrange(1, 4)) % 4
            write_base = bank * GEO.bank_bytes + rng.randrange(
                0, GEO.bank_bytes, LINE)
        else:
            write_base = GEO.rank_bytes + rng.randrange(
                0, max(GEO.rank_bytes - room, LINE), LINE)
        if write_base is not None:
            write_base = min(write_base, GEO.total_bytes - room)
        phases.append(dict(base_addr=base, nbytes=nlines * LINE,
                           cycles_per_line=cycles,
                           write_bytes_per_line=writes,
                           write_base=write_base))
    return dict(
        prefetch_depth=rng.choice((0, 1, 2, 4, 8, 16)),
        write_drain_batch=rng.choice((1, 2, 8, 16, 32)),
        # Start anywhere in the first two refresh intervals.
        start_ps=rng.randrange(0, 2 * speed_grade(
            GEM5_PLATFORM.dram_grade).trefi_ps),
        phases=phases)


def _build(case: dict):
    timings = speed_grade(GEM5_PLATFORM.dram_grade)
    registry = MetricsRegistry()
    mc = MemoryController(timings, GEO, metrics=registry)
    hierarchy = CacheHierarchy([
        SetAssociativeCache("L1", 65536, 64, 2, 4),
        SetAssociativeCache("L2", 131072, 64, 8, 12),
    ])
    core = Core(GEM5_PLATFORM, mc, hierarchy,
                prefetch_depth=case["prefetch_depth"],
                write_drain_batch=case["write_drain_batch"],
                start_ps=case["start_ps"])
    return core, mc, registry


def _slots(obj, skip=("timings", "_t")) -> dict:
    return {slot: getattr(obj, slot) for slot in type(obj).__slots__
            if slot not in skip}


def _hardware_state(core: Core, mc: MemoryController) -> dict:
    state = {"core.now_ps": core.now_ps,
             "core.write_cursor": core._write_cursor,
             "core.pending": list(core._pending_writes),
             "mc.last_arrival_ps": mc._last_arrival_ps}
    for channel in mc.channels:
        state[f"ch{channel.index}.bus_free_ps"] = channel.bus_free_ps
        for r, rank in enumerate(channel.all_ranks()):
            key = f"ch{channel.index}.rank{r}"
            state[f"{key}.io_free_ps"] = rank.io_free_ps
            state[f"{key}.act_times"] = list(rank._act_times)
            state[f"{key}.refresh"] = _slots(rank.refresh)
            for bank in rank.banks:
                state[f"{key}.bank{bank.index}"] = _slots(bank)
    return state


def _run(case: dict, backend: str, exact: bool) -> dict:
    with backend_scope(backend):
        core, mc, registry = _build(case)
        if exact:
            with _ffm.exact_mode():
                stats = [core.stream_read_phase(**p) for p in case["phases"]]
        else:
            stats = [core.stream_read_phase(**p) for p in case["phases"]]
    return {"stats": [dataclasses.asdict(s) for s in stats],
            "metrics": registry.snapshot(),
            "hardware": _hardware_state(core, mc)}


def _first_diff(ref: dict, got: dict) -> str:
    for section in ref:
        a, b = ref[section], got[section]
        if isinstance(a, dict):
            for key in sorted(a.keys() | b.keys()):
                if a.get(key) != b.get(key):
                    return f"{section}.{key}: {a.get(key)!r} != {b.get(key)!r}"
        elif a != b:
            return f"{section}: {a!r} != {b!r}"
    return "no difference"


def _check(seed: int, max_lines: int) -> None:
    case = _random_case(seed, max_lines)
    ref = _run(case, "python", exact=True)
    for backend, exact in RUNS:
        got = _run(case, backend, exact)
        if got != ref:
            mode = "exact" if exact else "fast-forward"
            pytest.fail(f"seed {seed}: {backend}/{mode} diverged from "
                        f"python/exact: {_first_diff(ref, got)}")


def test_stream_lane_fuzz():
    """Tier-1 campaign; it must actually drive the lane and its drains."""
    if not _ffm.FF.on:
        pytest.skip("fast-forward is forced off (REPRO_EXACT or SimSan)")
    _ffm.STATS.reset()
    for seed in range(12):
        _check(seed, max_lines=2400)
    assert _ffm.STATS.lane_requests > 0
    assert _ffm.STATS.batched_requests > 0


@pytest.mark.parametrize("seed", [185])
def test_stream_lane_fuzz_regressions(seed):
    """Campaign seeds that once diverged, kept in tier 1.

    185: a refresh that ended before a line's arrival leaves the row open,
    so the line the lane replays through Rank.access is a row hit; the lane
    used to count every replayed line as a miss.
    """
    _check(seed, max_lines=6000)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(100, 300))
def test_stream_lane_fuzz_campaign(seed):
    _check(seed, max_lines=6000)
