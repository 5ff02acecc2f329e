"""Batch pipeline vs event-driven path: bit-identity at the edges.

The batched request pipeline (DESIGN.md §12) only runs when fast-forward is
on; ``exact_mode()`` forces every request down the per-event path.  These
tests run the same sweep configurations both ways and demand the simulated
payloads diff clean — the end-to-end form of the exactness invariant, aimed
squarely at the places batches must break and fall back:

* tREFI straddles — runs long enough that batch windows hit refresh
  deadlines mid-formation (every config beyond a few thousand rows crosses
  many 7.8 µs windows);
* buffer drains mid-batch — a minimal 512-bit JAFAR buffer forces a
  write-back drain after every interior burst;
* degenerate selectivities 0.0 / 1.0 — all-skip and all-hit streams, the
  two extremes of batch run length.

Tier 1 keeps rows small; the ``slow`` campaign re-proves identity at the
paper-scale 262144-row point and completes a 4M-row fig3 point, the
ISSUE's routine-paper-sweep target.
"""

import pytest

from repro.bench.configs import SweepConfig
from repro.bench.orchestrator import diff_reports, run_sweep
from repro.sim import fastforward as _ffm


def _identity_case(configs):
    """Run configs fast-forwarded and exact; fail on any simulated diff."""
    fast = run_sweep(configs, serial=True, use_cache=False, exact=False)
    exact = run_sweep(configs, serial=True, use_cache=False, exact=True)
    mismatched = diff_reports(fast, exact)
    assert not mismatched, (
        f"batched fast-forward path diverged from the event-driven path on "
        f"{mismatched}")
    return fast


class TestBatchVsEventDriven:
    def test_degenerate_selectivities(self):
        # All-skip and all-hit: the longest possible uniform batch runs.
        configs = [SweepConfig("fig3_point", rows=8192, selectivity=s)
                   for s in (0.0, 1.0)]
        report = _identity_case(configs)
        # The fast run must actually have fast-forwarded something,
        # or this proved nothing about the batch path.
        assert report["ff_skipped_events"] > 0

    def test_trefi_straddle(self):
        # 8192 rows cross dozens of 7.8 us refresh windows: every batch
        # formation eventually hits a tREFI deadline and must hand the
        # straddling request back to the event-driven path.
        configs = [SweepConfig("fig3_point", rows=8192, selectivity=0.5)]
        _identity_case(configs)

    def test_buffer_drain_mid_batch(self):
        # A minimal 512-bit buffer drains after every interior burst, so
        # write-back pressure interrupts batches as often as possible.
        configs = [SweepConfig("fig3_point", rows=2048, selectivity=0.5,
                               buffer_bits=512),
                   SweepConfig("fig3_point", rows=2048, selectivity=0.9,
                               buffer_bits=512)]
        _identity_case(configs)

    def test_mixed_grades_and_kernels(self):
        configs = [SweepConfig("fig3_point", rows=2048, selectivity=0.25,
                               grade="DDR3-1066G"),
                   SweepConfig("fig3_point", rows=2048, selectivity=0.75,
                               kernel="predicated"),
                   SweepConfig("scan_estimate", rows=2048, selectivity=0.5)]
        _identity_case(configs)


@pytest.mark.slow
class TestPaperScale:
    def test_identity_at_262144_rows(self):
        # The ISSUE's headline scale: batch-vs-event identity where the
        # wall-clock speedup is claimed.
        configs = [SweepConfig("fig3_point", rows=262144, selectivity=s)
                   for s in (0.0, 0.5, 1.0)]
        report = _identity_case(configs)
        assert report["ff_skipped_events"] > 0

    def test_4m_row_point_completes(self):
        # 4M rows as a routine benchmark: fast-forwarded only (the exact
        # run at this scale is a nightly-budget job, and identity is
        # already proven at 262144 rows above).
        _ffm.STATS.reset()
        report = run_sweep(
            [SweepConfig("fig3_point", rows=4194304, selectivity=0.5)],
            serial=True, use_cache=False)
        point = report["points"][0]
        result = point["result"]
        # At this scale the column spans geometry the device-side epoch
        # skipper refuses, so the CPU stream lane is what makes the point
        # routine: it must have served the bulk of the traffic (the column
        # alone is 524288 lines), and its write drains must have gone
        # through the batch_row_timing kernel (219630 bursts at s=0.5).
        assert _ffm.STATS.lane_requests > 500_000
        assert _ffm.STATS.batched_requests > 100_000
        assert result["matches"] == pytest.approx(4194304 * 0.5, rel=0.01)
        assert result["jafar_ps"] > 0 and result["cpu_ps"] > 0
