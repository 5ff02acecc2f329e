"""Integrated-memory-controller performance counters.

§3.3 profiles a Xeon's IMC counters: cycles the read queue was busy
(``RC_busy``), cycles the write queue was busy (``WC_busy``), and the number
of reads and writes.  The paper then *estimates* controller idle time as::

    MC_empty = total_cycles - RC_busy - WC_busy          (lower bound)
    mean_idle_period = MC_empty / (#reads + #writes)     (pessimistic)

:class:`IMCCounters` maintains those counters for the simulated controller —
and, because this is a simulator, also the ground-truth idle-gap histogram
the real hardware could not expose, so the bound's pessimism is measurable.
"""

from __future__ import annotations

import numpy as np

from ..compute import get_backend
from ..compute.python_backend import (latency_hist_reference,
                                      mark_busy_reference)
from .timing import DDR3Timings

#: Below this many buffered lane entries :meth:`IMCCounters.record_lane`
#: folds with the scalar reference: converting to ndarrays and dispatching
#: four vectorised kernels costs a fixed 70-170 us on a 2-CPU x86 host,
#: more than a Python loop over a short run.  Measured break-even on
#: lane-shaped streams: 64-96 entries.  This is the fold's only size
#: cutoff; the kernels vectorise whatever subset they are handed.
_FOLD_MIN = 64


def _pull(tracker) -> list:
    """A BusyTracker's state as the 12-slot list the fold kernels mutate:
    [cur_start, cur_end, busy_ps, intervals, last_end, first_start,
    gap-count, gap-total, gap-total_sq, gap-min, gap-max, gap-buckets]."""
    g = tracker._gaps
    return [tracker._cur_start, tracker._cur_end, tracker.busy_ps,
            tracker.intervals, tracker._last_end, tracker._first_start,
            g.count, g.total, g.total_sq, g.min, g.max, g.buckets]


def _push(tracker, s: list) -> None:
    """Write a folded 12-slot state back (the bucket dict is shared)."""
    g = tracker._gaps
    (tracker._cur_start, tracker._cur_end, tracker.busy_ps,
     tracker.intervals, tracker._last_end, tracker._first_start,
     g.count, g.total, g.total_sq, g.min, g.max, _) = s


class IMCCounters:
    """Counter block for one memory controller.

    All instruments are created through the machine's
    :class:`~repro.obs.metrics.MetricsRegistry`, so one ``snapshot()`` of the
    registry covers the whole block under the ``imc.*`` namespace.  A private
    registry is constructed when none is supplied (unit tests, standalone
    controllers).
    """

    def __init__(self, timings: DDR3Timings, registry=None) -> None:
        if registry is None:
            from ..obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
        self.timings = timings
        self.metrics = registry
        self.read_queue = registry.busy_tracker("imc.read_queue")
        self.write_queue = registry.busy_tracker("imc.write_queue")
        self.combined = registry.busy_tracker("imc.any_queue")
        self.reads = registry.counter("imc.reads")
        self.writes = registry.counter("imc.writes")
        self.read_latency = registry.histogram("imc.read_latency_ps")
        self.row_hits = registry.counter("imc.row_hits")
        self.row_misses = registry.counter("imc.row_misses")

    def record(self, is_write: bool, arrival_ps: int, finish_ps: int,
               row_hits: int, row_misses: int) -> None:
        """Account one completed request."""
        if is_write:
            self.writes.add()
            self.write_queue.mark_busy(arrival_ps, finish_ps)
        else:
            self.reads.add()
            self.read_queue.mark_busy(arrival_ps, finish_ps)
            self.read_latency.record(finish_ps - arrival_ps)
        self.combined.mark_busy(arrival_ps, finish_ps)
        self.row_hits.add(row_hits)
        self.row_misses.add(row_misses)

    def record_run(self, completed: list) -> None:
        """Account a batch of completed requests, arrival-sorted.

        Bit-identical to calling :meth:`record` once per element in order,
        by construction: scalar counters are bumped once with the run
        totals; runs of equal read latencies fold into one
        ``Histogram.record_n``; and consecutive overlapping/abutting busy
        intervals are merged before marking — ``BusyTracker.mark_busy``
        would coalesce them into the same open interval anyway, and
        per-tracker input order (non-decreasing starts) is preserved, so
        busy_ps, interval counts, idle-gap records and the open-interval
        state all come out identical.  Zero-length intervals are dropped
        here exactly as ``mark_busy`` drops them.
        """
        reads = writes = hits = misses = 0
        r_s = r_e = w_s = w_e = c_s = c_e = None
        lat_v = None
        lat_n = 0
        rq, wq, cq = self.read_queue, self.write_queue, self.combined
        for done in completed:
            req = done.request
            a = done.request.arrival_ps
            f = done.finish_ps
            hits += done.row_hits
            misses += done.row_misses
            if req.is_write:
                writes += 1
                if f > a:
                    if w_s is None:
                        w_s, w_e = a, f
                    elif a <= w_e:
                        if f > w_e:
                            w_e = f
                    else:
                        wq.mark_busy(w_s, w_e)
                        w_s, w_e = a, f
            else:
                reads += 1
                lat = f - a
                if lat == lat_v:
                    lat_n += 1
                else:
                    if lat_n:
                        self.read_latency.record_n(lat_v, lat_n)
                    lat_v = lat
                    lat_n = 1
                if f > a:
                    if r_s is None:
                        r_s, r_e = a, f
                    elif a <= r_e:
                        if f > r_e:
                            r_e = f
                    else:
                        rq.mark_busy(r_s, r_e)
                        r_s, r_e = a, f
            if f > a:
                if c_s is None:
                    c_s, c_e = a, f
                elif a <= c_e:
                    if f > c_e:
                        c_e = f
                else:
                    cq.mark_busy(c_s, c_e)
                    c_s, c_e = a, f
        if lat_n:
            self.read_latency.record_n(lat_v, lat_n)
        if r_s is not None:
            rq.mark_busy(r_s, r_e)
        if w_s is not None:
            wq.mark_busy(w_s, w_e)
        if c_s is not None:
            cq.mark_busy(c_s, c_e)
        if reads:
            self.reads.add(reads)
        if writes:
            self.writes.add(writes)
        if hits:
            self.row_hits.add(hits)
        if misses:
            self.row_misses.add(misses)

    def record_lane(self, starts: list, ends: list, write_at: list,
                    writes: int = 0, hits: int = 0, misses: int = 0) -> None:
        """Account buffered CPU stream-lane requests in one fold.

        ``starts``/``ends`` hold each lane entry's (arrival, data end) in
        stream order: one per read line, and one per same-row run of a
        write drain (the run's bursts share one arrival, so marking its
        last data end is what marking each burst does).  ``write_at``
        lists the indices of the write entries, ascending; ``writes``
        counts the write bursts they cover.

        Bit-identical to calling :meth:`record` per request in stream
        order: each tracker sees its own intervals in the same order, and
        the latency histogram is order-free.  The lane's arrivals never
        decrease and its data ends strictly increase (one channel bus), the
        ``batch_mark_busy`` preconditions.  Below :data:`_FOLD_MIN` entries
        the scalar reference folds the plain lists.
        """
        n = len(starts)
        self.reads.add(n - len(write_at))
        if writes:
            self.writes.add(writes)
        if hits:
            self.row_hits.add(hits)
        if misses:
            self.row_misses.add(misses)
        trackers = (self.read_queue, self.write_queue, self.combined)
        rq, wq, cq = states = [_pull(t) for t in trackers]
        h = self.read_latency
        hist = (h.count, h.total, h.total_sq, h.min, h.max, h.buckets)
        if n < _FOLD_MIN:
            lats = []
            w_iter = iter(write_at)
            w_next = next(w_iter, n)
            for i, (start, end) in enumerate(zip(starts, ends)):
                mark_busy_reference(cq, start, end)
                if i == w_next:
                    mark_busy_reference(wq, start, end)
                    w_next = next(w_iter, n)
                else:
                    mark_busy_reference(rq, start, end)
                    lats.append(end - start)
            counts = latency_hist_reference(*hist, lats)
        else:
            backend = get_backend()
            s_a = np.array(starts, dtype=np.int64)
            e_a = np.array(ends, dtype=np.int64)
            backend.batch_mark_busy(cq, s_a, e_a)
            if write_at:
                w = np.array(write_at, dtype=np.intp)
                backend.batch_mark_busy(wq, s_a[w], e_a[w])
                keep = np.ones(n, dtype=bool)
                keep[w] = False
                s_a = s_a[keep]
                e_a = e_a[keep]
            backend.batch_mark_busy(rq, s_a, e_a)
            counts = backend.batch_latency_hist(*hist, e_a - s_a)
        h.count, h.total, h.total_sq, h.min, h.max = counts
        for tracker, s in zip(trackers, states):
            _push(tracker, s)

    def finish(self) -> None:
        """Close open busy intervals at the end of a run."""
        self.read_queue.finish()
        self.write_queue.finish()
        self.combined.finish()

    def ff_parts(self) -> list:
        """(snapshot, restore) pairs for fast-forward extrapolation.

        Scalar counter values form one additive part; each busy tracker and
        the latency histogram contribute their own parts (their snapshots
        mix additive slots with equality-pinned ones — see
        :mod:`repro.sim.fastforward`).
        """
        def snap() -> tuple:
            return (self.reads.value, self.writes.value,
                    self.row_hits.value, self.row_misses.value)

        def restore(state: tuple) -> None:
            (self.reads.value, self.writes.value,
             self.row_hits.value, self.row_misses.value) = state

        return [
            (snap, restore),
            (self.read_queue.ff_snapshot, self.read_queue.ff_restore),
            (self.write_queue.ff_snapshot, self.write_queue.ff_restore),
            (self.combined.ff_snapshot, self.combined.ff_restore),
            (self.read_latency.ff_snapshot, self.read_latency.ff_restore),
        ]

    # -- the paper's derived quantities (§3.3) -----------------------------------

    def rc_busy_cycles(self) -> float:
        """Cycles the read queue was busy, in memory-bus clocks."""
        return self.timings.ps_to_cycles(self.read_queue.busy_ps)

    def wc_busy_cycles(self) -> float:
        """Cycles the write queue was busy, in memory-bus clocks."""
        return self.timings.ps_to_cycles(self.write_queue.busy_ps)

    def total_accesses(self) -> int:
        return self.reads.value + self.writes.value

    def mc_empty_cycles(self, total_cycles: float) -> float:
        """The paper's lower bound on idle cycles (assumes zero R/W overlap)."""
        return max(0.0, total_cycles - self.rc_busy_cycles() - self.wc_busy_cycles())

    def mean_idle_period_cycles(self, total_cycles: float) -> float:
        """The paper's pessimistic mean idle-period estimate, in bus cycles."""
        accesses = self.total_accesses()
        if accesses == 0:
            return total_cycles
        return self.mc_empty_cycles(total_cycles) / accesses

    def true_mean_idle_gap_cycles(self) -> float:
        """Ground truth: mean gap between busy spans of the combined queue."""
        gaps = self.combined.idle_gaps_ps()
        return self.timings.ps_to_cycles(round(gaps.mean)) if gaps.count else 0.0
