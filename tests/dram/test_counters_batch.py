"""``IMCCounters.record_run`` must be bit-identical to per-request record.

The batched controller pipeline folds a window's counter updates into one
call (merged busy intervals, run-length-folded latencies, single counter
bumps).  These tests replay seeded random completion streams through both
paths and compare the full metrics snapshot — every counter, histogram
moment, bucket dict, busy span and idle-gap record.
"""

import random
from types import SimpleNamespace

import pytest

from repro.dram import DDR3_1600
from repro.dram.counters import _FOLD_MIN, IMCCounters
from repro.sim.stats import Histogram


def _fake_completed(rng, n, gap_chance):
    """Arrival-sorted fake completions with controllable idle gaps."""
    out = []
    t = 1000
    for _ in range(n):
        if rng.random() < gap_chance:
            t += rng.randrange(50_000, 200_000)   # force an idle gap
        else:
            t += rng.randrange(0, 2_000)          # stay inside the span
        arrival = t
        finish = arrival + rng.choice((13750, 13750, 13750, 21250, 0))
        out.append(SimpleNamespace(
            request=SimpleNamespace(is_write=rng.random() < 0.4,
                                    arrival_ps=arrival),
            finish_ps=finish,
            row_hits=rng.randrange(0, 3),
            row_misses=rng.randrange(0, 2),
        ))
    return out


def _snapshot(counters):
    counters.finish()
    return counters.metrics.snapshot()


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("gap_chance", [0.0, 0.3])
def test_record_run_matches_per_request_record(seed, gap_chance):
    rng = random.Random(seed)
    completed = _fake_completed(rng, rng.randrange(1, 120), gap_chance)
    ref = IMCCounters(DDR3_1600)
    for done in completed:
        ref.record(done.request.is_write, done.request.arrival_ps,
                   done.finish_ps, done.row_hits, done.row_misses)
    run = IMCCounters(DDR3_1600)
    run.record_run(completed)
    assert _snapshot(ref) == _snapshot(run)


def test_record_run_empty_is_noop():
    counters = IMCCounters(DDR3_1600)
    before = _snapshot(counters)
    counters.record_run([])
    assert _snapshot(counters) == before


def test_histogram_record_n_matches_repeated_record():
    ref, fold = Histogram("ref"), Histogram("fold")
    for value, n in ((0, 3), (13750, 100), (1, 1), (1 << 40, 7)):
        for _ in range(n):
            ref.record(value)
        fold.record_n(value, n)
        fold.record_n(value, 0)   # n == 0 is a no-op
    assert (ref.count, ref.total, ref.total_sq, ref.min, ref.max,
            ref.buckets) == (fold.count, fold.total, fold.total_sq,
                             fold.min, fold.max, fold.buckets)


def _lane_stream(rng, n, gap_chance):
    """A stream-lane buffer: non-decreasing arrivals, strictly increasing
    data ends (one bus), reads with drain-write entries interleaved."""
    starts, ends, write_at = [], [], []
    t = end = 5000
    for i in range(n):
        t += (rng.randrange(50_000, 200_000) if rng.random() < gap_chance
              else rng.randrange(0, 3_000))
        end = max(t, end) + rng.choice((5000, 13750, 18750))
        starts.append(t)
        ends.append(end)
        if i and rng.random() < 0.15:
            write_at.append(i)
    return starts, ends, write_at


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [1, _FOLD_MIN - 1, _FOLD_MIN, 300])
@pytest.mark.parametrize("gap_chance", [0.0, 0.4])
def test_record_lane_matches_per_request_record(engine, seed, n, gap_chance):
    # Both sides of the scalar/vectorised break-even, under each backend,
    # on top of tracker state left by earlier requests.
    rng = random.Random(seed * 1000 + n)
    starts, ends, write_at = _lane_stream(rng, n, gap_chance)
    ref = IMCCounters(DDR3_1600)
    lane = IMCCounters(DDR3_1600)
    for counters in (ref, lane):
        counters.record(False, 0, 4000, 0, 1)
        counters.record(True, 100, 4500, 1, 0)
    writes = set(write_at)
    for i, (start, end) in enumerate(zip(starts, ends)):
        ref.record(i in writes, start, end, 0, 0)
    ref.row_hits.add(n)
    ref.row_misses.add(2)
    lane.record_lane(starts, ends, write_at, len(write_at), n, 2)
    assert _snapshot(ref) == _snapshot(lane)


def test_record_lane_split_folds_match_one_fold(engine):
    # A lane run flushed mid-way (the buffer cap) folds like one call.
    rng = random.Random(7)
    starts, ends, write_at = _lane_stream(rng, 400, 0.2)
    one = IMCCounters(DDR3_1600)
    one.record_lane(starts, ends, write_at, len(write_at))
    split = IMCCounters(DDR3_1600)
    cut = 150
    split.record_lane(starts[:cut], ends[:cut],
                      [i for i in write_at if i < cut])
    split.record_lane(starts[cut:], ends[cut:],
                      [i - cut for i in write_at if i >= cut], len(write_at))
    assert _snapshot(one) == _snapshot(split)
