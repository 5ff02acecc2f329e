"""Steady-state fast-forward: epoch-skipping for periodic streaming phases.

The paper's headline experiments are dominated by long streaming phases in
which the memory controller issues a strictly periodic ACT/RD/PRE cadence
and the JAFAR device drains the IO buffer at a fixed rate.  Because every
hot-path component in this package computes time by *translation-invariant*
max/plus arithmetic over integer picosecond timestamps (``max(a, b) + c``
commutes with shifting every timestamp by the same amount), a phase that
repeats exactly — same per-period state delta twice in a row — provably
repeats forever until an *exogenous absolute deadline* interferes.  The
deadlines are enumerable: the rank refresh timer (tREFI is an absolute
schedule, not a relative one), an address-space boundary that changes the
command pattern (end of a DRAM row span, a bank/rank crossing, the output
buffer's writeback row), and the end of the phase itself.

:class:`PeriodDetector` watches state snapshots taken at period boundaries;
once ``confirm`` identical consecutive deltas are observed it hands back the
per-period delta, and :class:`EpochSkipper` jumps the state forward ``n``
periods in O(1) — bounded so no skipped event crosses a deadline — by
slot-wise extrapolation ``state += n * delta``.  Results are bit-identical
to the event-by-event execution, which the golden suite and the SimSan
fast-forward sanitizer both enforce.

Snapshot slots follow strict extrapolation rules (:func:`apply_delta`):

* ``int`` slots advance additively (timestamps, counters, cursors);
* ``float`` slots advance additively only while every value on the
  sequential path is an exactly-representable integer (< 2**53) — the only
  float left in hot-path state is the CPU stream phase's write backlog —
  otherwise the skip is refused and execution stays exact;
* ``bool``/``str``/``None`` slots must be equal across periods (mode bits,
  bucket keys, open-interval markers).

Fast-forward is **on by default** and can be disabled three ways: the
``REPRO_EXACT=1`` environment variable, :func:`set_enabled` (the bench
``--exact`` escape hatch), or installing the SimSan sanitizers (the
fast-forward sanitizer forces exact execution so the other sanitizers see
the full command stream).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Sequence

from ..compute import get_backend
from ..compute.base import MAX_EXACT_FLOAT  # noqa: F401  (re-exported)
from ..errors import SimulationError

#: Periods with identical deltas required before a skip is trusted.  Two
#: identical deltas means three identical boundary-to-boundary transitions
#: were measured from live execution.
CONFIRM_PERIODS = 2

ENV_VAR = "REPRO_EXACT"


class FastForwardState:
    """Process-wide fast-forward switch.

    ``on`` is the single flag the hot paths read; it folds together the
    user-facing enable (:func:`set_enabled`, ``REPRO_EXACT``) and any
    scoped forces (:func:`exact_mode`, the SimSan sanitizer).
    """

    __slots__ = ("on", "_enabled", "_forced_off")

    def __init__(self) -> None:
        self._enabled = os.environ.get(ENV_VAR, "") in ("", "0")
        self._forced_off = 0
        self.on = self._enabled

    def _recompute(self) -> None:
        self.on = self._enabled and self._forced_off == 0

    def set_enabled(self, enabled: bool) -> None:
        self._enabled = bool(enabled)
        self._recompute()

    def force_off(self) -> None:
        """Push one scoped exact-mode requirement (nestable)."""
        self._forced_off += 1
        self._recompute()

    def allow(self) -> None:
        """Pop one scoped exact-mode requirement."""
        if self._forced_off <= 0:
            raise SimulationError("fastforward.allow() without force_off()")
        self._forced_off -= 1
        self._recompute()


FF = FastForwardState()


def is_enabled() -> bool:
    """Whether fast-forward paths may run right now."""
    return FF.on


def set_enabled(enabled: bool) -> None:
    """Enable/disable fast-forward globally (the bench ``--exact`` switch)."""
    FF.set_enabled(enabled)


@contextmanager
def exact_mode():
    """Run a block with fast-forward forced off (nestable)."""
    FF.force_off()
    try:
        yield
    finally:
        FF.allow()


class FFStats:
    """Counters describing how much work fast-forward elided."""

    __slots__ = ("skipped_events", "skipped_periods", "skips",
                 "lane_requests", "batched_requests", "refused")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.skipped_events = 0    # individual bursts/lines not executed
        self.skipped_periods = 0   # whole periods jumped over
        self.skips = 0             # O(1) jumps performed
        self.lane_requests = 0     # requests served by the controller lane
        self.batched_requests = 0  # lane drain writes via batch_row_timing
        self.refused = 0           # confirmed periods not skipped (bounds)

    def snapshot(self) -> dict:
        """MetricsRegistry-schema view (one ``snapshot()`` shape everywhere)."""
        return {
            "type": "ff_stats",
            "skipped_events": self.skipped_events,
            "skipped_periods": self.skipped_periods,
            "skips": self.skips,
            "lane_requests": self.lane_requests,
            "batched_requests": self.batched_requests,
            "refused": self.refused,
        }

    def register_into(self, registry) -> None:
        """Expose each counter as an ``ff.*`` gauge on an obs registry."""
        for slot in self.__slots__:
            # Registration runs once per run, never per event.
            registry.gauge(f"ff.{slot}",  # analyze: ignore[hot-alloc] once per run
                           lambda s=slot: getattr(self, s))


STATS = FFStats()


# -- snapshot algebra ----------------------------------------------------------


class Pinned:
    """A snapshot slot that must be *equal* across periods, never extrapolated.

    Wraps values whose dynamics are not translation-invariant (histogram
    min/max compare samples across periods) or that identify structure
    rather than state (bucket keys).  A changed pinned slot restarts
    detection instead of producing a bogus additive delta.
    """

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __eq__(self, other) -> bool:
        return type(other) is Pinned and self.value == other.value

    def __hash__(self) -> int:
        return hash(("Pinned", self.value))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Pinned({self.value!r})"


def snapshot_delta(prev: tuple, cur: tuple) -> tuple | None:
    """Slot-wise delta between two state snapshots.

    Returns None when the snapshots are not comparable (different shapes or
    types, or a non-numeric slot changed) — the caller restarts detection.
    """
    if len(prev) != len(cur):
        return None
    delta = []
    append = delta.append
    for a, b in zip(prev, cur):
        ta = type(a)
        if ta is not type(b):
            return None
        if ta is int:
            append(b - a)
        elif ta is float:
            append(b - a)
        elif a == b:      # bool, str, None, any equality-pinned slot
            append(None)
        else:
            return None
    return tuple(delta)


def apply_delta(base: tuple, delta: tuple, periods: int) -> tuple | None:
    """Extrapolate ``base`` forward by ``periods`` periods of ``delta``.

    Returns None when a float slot cannot be extrapolated exactly (the
    sequential additions might round); the caller must then stay exact.
    Dispatches to the active compute backend (the reference semantics live
    in :func:`repro.compute.python_backend.apply_delta_reference`).
    """
    return get_backend().apply_delta(base, delta, periods)


class PeriodDetector:
    """Confirms a repeating per-period state delta from boundary snapshots.

    Feed one snapshot per period boundary via :meth:`observe`; once the
    same delta has been seen ``confirm`` times in a row the delta is
    returned (and keeps being returned while it holds).  After a skip,
    :meth:`prime` re-seats the last snapshot so an unchanged cadence can
    skip again without re-confirming.
    """

    __slots__ = ("confirm", "_prev", "_delta", "_seen")

    def __init__(self, confirm: int = CONFIRM_PERIODS) -> None:
        if confirm < 1:
            raise SimulationError("detector needs confirm >= 1")
        self.confirm = confirm
        self.reset()

    def reset(self) -> None:
        self._prev = None
        self._delta = None
        self._seen = 0

    def observe(self, snapshot: tuple) -> tuple | None:
        prev = self._prev
        self._prev = snapshot
        if prev is None:
            return None
        delta = snapshot_delta(prev, snapshot)
        if delta is None:
            self._delta = None
            self._seen = 0
            return None
        if delta == self._delta:
            self._seen += 1
        else:
            self._delta = delta
            self._seen = 1
        if self._seen >= self.confirm:
            return delta
        return None

    def prime(self, snapshot: tuple) -> None:
        """Replace the last-seen snapshot (after the caller jumped state)."""
        self._prev = snapshot


# -- state plumbing ------------------------------------------------------------


class StateGroup:
    """Flattens an ordered set of component snapshots into one tuple.

    Each part is a ``(snapshot, restore)`` pair of callables; ``snapshot``
    returns a tuple of scalar slots, ``restore`` accepts the same shape
    back.  The group remembers per-part lengths from the last snapshot so
    an extrapolated flat tuple can be routed back to its components.
    """

    __slots__ = ("_parts", "_lengths")

    def __init__(self, parts: Sequence[tuple[Callable[[], tuple],
                                             Callable[[tuple], None]]]) -> None:
        self._parts = list(parts)
        self._lengths: list[int] | None = None

    def snapshot(self) -> tuple:
        pieces = [part[0]() for part in self._parts]
        self._lengths = [len(p) for p in pieces]
        flat: list = []
        for piece in pieces:
            flat.extend(piece)
        return tuple(flat)

    def restore(self, flat: tuple) -> None:
        if self._lengths is None:
            raise SimulationError("restore() before snapshot()")
        pos = 0
        for (_, restore), length in zip(self._parts, self._lengths):
            restore(flat[pos:pos + length])
            pos += length
        if pos != len(flat):
            raise SimulationError("state group shape changed mid-restore")


class EpochSkipper:
    """Boundary-driven period detection plus O(1) multi-period jumps.

    The driver loop calls :meth:`observe` at every period boundary (after
    any boundary work such as writeback drains).  When the detector has
    confirmed a delta, the driver computes the admissible period count
    ``n`` from its deadline bounds and calls :meth:`skip`, which
    extrapolates the grouped state, re-materialises every component, and —
    when a trace is attached — synthesises the skipped periods' command
    stream as time-shifted copies of the confirmed template period.
    """

    __slots__ = ("group", "detector", "trace", "_snapshot", "_period_cmds",
                 "_period_recs", "_prev_cmds", "_prev_recs", "_cmd_mark",
                 "_rec_mark")

    def __init__(self, parts, trace=None, confirm: int = CONFIRM_PERIODS) -> None:
        self.group = StateGroup(parts)
        self.detector = PeriodDetector(confirm)
        self.trace = trace
        self._snapshot: tuple | None = None
        self._period_cmds: tuple[int, int] = (0, 0)
        self._period_recs: tuple[int, int] = (0, 0)
        self._prev_cmds: tuple[int, int] = (0, 0)
        self._prev_recs: tuple[int, int] = (0, 0)
        self._cmd_mark = 0
        self._rec_mark = 0

    def observe(self) -> tuple | None:
        """Snapshot at a period boundary; returns the confirmed delta."""
        snap = self.group.snapshot()
        self._snapshot = snap
        trace = self.trace
        if trace is not None:
            cmds = len(trace.commands)
            recs = len(trace.records)
            self._prev_cmds = self._period_cmds
            self._prev_recs = self._period_recs
            self._period_cmds = (self._cmd_mark, cmds)
            self._period_recs = (self._rec_mark, recs)
            self._cmd_mark = cmds
            self._rec_mark = recs
        return self.detector.observe(snap)

    def slot(self, index: int) -> int | float:
        """Read one slot of the last boundary snapshot (for deadline math)."""
        assert self._snapshot is not None
        return self._snapshot[index]

    def skip(self, delta: tuple, periods: int, period_ps: int) -> bool:
        """Jump ``periods`` periods forward.  Returns False if refused.

        ``period_ps`` is the per-period time shift used to synthesise trace
        records for the skipped periods (the delta of the caller's clock
        slot).  The state change is all-or-nothing: extrapolation is
        validated before any component is touched.
        """
        if periods <= 0:
            return False
        snap = self._snapshot
        if snap is None:
            return False
        trace = self.trace
        plan = None
        if trace is not None:
            plan = self._synthesis_plan(trace, period_ps)
            if plan is None:
                STATS.refused += 1
                return False
        advanced = apply_delta(snap, delta, periods)
        if advanced is None:
            STATS.refused += 1
            return False
        self.group.restore(advanced)
        self._snapshot = advanced
        self.detector.prime(advanced)
        if plan is not None:
            self._synthesise(trace, periods, period_ps, plan)
        STATS.skips += 1
        STATS.skipped_periods += periods
        return True

    def _synthesis_plan(self, trace, period_ps: int) -> tuple | None:
        """Per-command row/time steps from the last two period slices.

        Compares the confirmed template period's commands against the
        preceding period's: shapes must match, every command's issue time
        must advance by exactly ``period_ps`` (a command-level check of the
        uniform-shift property the state delta implies), and row numbers
        yield a per-slot stride (the streamed row advances, the writeback
        row does not).  Returns None — refusing the skip — otherwise.
        """
        c0, c1 = self._period_cmds
        p0, p1 = self._prev_cmds
        cur_cmds = trace.commands[c0:c1]
        prev_cmds = trace.commands[p0:p1]
        if len(cur_cmds) != len(prev_cmds) or not cur_cmds:
            return None
        cmd_steps: list[int | None] = []
        for a, b in zip(prev_cmds, cur_cmds):
            if (a.kind != b.kind or a.agent != b.agent or a.rank != b.rank
                    or a.bank != b.bank
                    or b.time_ps - a.time_ps != period_ps):
                return None
            if a.row is None and b.row is None:
                cmd_steps.append(None)
            elif a.row is None or b.row is None:
                return None
            else:
                cmd_steps.append(b.row - a.row)
        r0, r1 = self._period_recs
        q0, q1 = self._prev_recs
        cur_recs = trace.records[r0:r1]
        prev_recs = trace.records[q0:q1]
        if len(cur_recs) != len(prev_recs):
            return None
        rec_steps: list[int] = []
        for a, b in zip(prev_recs, cur_recs):
            if (a.agent != b.agent or a.rank != b.rank or a.bank != b.bank
                    or a.is_write != b.is_write or a.row_hit != b.row_hit
                    or b.time_ps - a.time_ps != period_ps):
                return None
            rec_steps.append(b.row - a.row)
        return cur_cmds, cmd_steps, cur_recs, rec_steps

    def _synthesise(self, trace, periods: int, period_ps: int,
                    plan: tuple) -> None:
        """Append the skipped periods' records, shifted period by period.

        Uses the public record methods so capacity limits behave exactly as
        they would have on the executed path.
        """
        template_cmds, cmd_steps, template_recs, rec_steps = plan
        for p in range(1, periods + 1):
            shift = p * period_ps
            for cmd, step in zip(template_cmds, cmd_steps):
                row = cmd.row if step is None else cmd.row + step * p
                trace.record_command(cmd.time_ps + shift, cmd.kind, cmd.agent,
                                     cmd.rank, cmd.bank, row)
            for rec, step in zip(template_recs, rec_steps):
                trace.record(rec.time_ps + shift, rec.agent, rec.rank,
                             rec.bank, rec.row + step * p, rec.is_write,
                             rec.row_hit)
        self._cmd_mark = len(trace.commands)
        self._rec_mark = len(trace.records)
