"""The ``python`` backend: per-element reference kernels.

Every kernel is a plain Python loop over Python scalars — the executable
specification of the batch semantics.  Arrays still go in and out as NumPy
(the data plane is unchanged); only the *kernel* runs element by element.
Deliberately unclever: when the numpy backend and this one disagree, this
one is right.
"""

from __future__ import annotations

import numpy as np

from .base import MAX_EXACT_FLOAT, ComputeBackend


def mark_busy_reference(s: list, start: int, end: int) -> None:
    """BusyTracker.mark_busy on a pulled 12-slot state list (the shared
    scalar reference; batch kernels must fold intervals exactly like a
    sequence of these calls)."""
    cur_end = s[1]
    if s[0] is None:
        s[0] = start
        s[1] = end
        if s[5] is None:
            s[5] = start
        return
    if start <= cur_end:
        if end > cur_end:
            s[1] = end
        return
    s[2] += cur_end - s[0]
    s[3] += 1
    s[4] = cur_end
    gap = start - (cur_end or 0)
    s[6] += 1
    s[7] += gap
    s[8] += gap * gap
    if s[9] is None or gap < s[9]:
        s[9] = gap
    if s[10] is None or gap > s[10]:
        s[10] = gap
    b = 0 if gap < 1 else gap.bit_length()
    buckets = s[11]
    buckets[b] = buckets.get(b, 0) + 1
    s[0] = start
    s[1] = end


def latency_hist_reference(count: int, total: int, total_sq: int,
                           vmin: int | None, vmax: int | None, buckets: dict,
                           lats) -> tuple:
    """Histogram.record over pulled scalars, one latency at a time (the
    shared reference for ``batch_latency_hist``; ``lats`` is any iterable
    of Python ints)."""
    for lat in lats:
        count += 1
        total += lat
        total_sq += lat * lat
        if vmin is None or lat < vmin:
            vmin = lat
        if vmax is None or lat > vmax:
            vmax = lat
        b = 0 if lat < 1 else lat.bit_length()
        buckets[b] = buckets.get(b, 0) + 1
    return count, total, total_sq, vmin, vmax


def batch_issue_reference(ft, floor0: int, now0: int, cps, outs,
                          backlog0: float, post_budget: int, line_bytes: int,
                          col0: int, busfree0: int, next_ref: int, cl: int,
                          burst: int, tccd: int):
    """Sequential-semantics stream-run solve (the shared reference).

    The loop is the CPU stream lane's per-line flow, op for op, including
    the float backlog accumulation order.  Results come back as plain
    lists.
    """
    ft_list = ft
    cps_list = cps.tolist()
    outs_list = outs.tolist() if outs is not None else None
    depth = len(ft_list)
    m = len(cps_list)
    issue_out: list[int] = []
    de_out: list[int] = []
    now_out: list[int] = []
    floor = floor0
    now = now0
    col = col0
    busfree = busfree0
    backlog = backlog0
    posts = 0
    stall = 0
    cas = 0
    done = 0
    for p in range(m):
        if outs_list is not None:
            out = outs_list[p]
        else:
            out = 0.0
        if out:
            # Peek the line's posting outcome first: a post beyond the
            # budget would trigger a drain mid-line, so the run stops
            # before the line.  The float order matches the per-line loop
            # exactly (add, then repeated subtraction).
            nb = backlog + out
            np_count = posts
            while nb >= line_bytes:
                nb -= line_bytes
                np_count += 1
            if np_count > post_budget:
                break
        else:
            nb = backlog
            np_count = posts
        raw = ft_list[p] if p < depth else now_out[p - depth]
        issue = raw if raw > floor else floor
        if issue >= next_ref:
            break
        cas = col
        if issue > cas:
            cas = issue
        dflo = busfree - cl
        if dflo > cas:
            cas = dflo
        de = cas + cl + burst
        busfree = de
        col = cas + tccd
        floor = issue
        if de > now:
            stall += de - now
            now = de
        now += cps_list[p]
        backlog = nb
        posts = np_count
        issue_out.append(issue)
        de_out.append(de)
        now_out.append(now)
        done += 1
    return done, issue_out, de_out, now_out, stall, posts, backlog, cas


def apply_delta_reference(base: tuple, delta: tuple,
                          periods: int) -> tuple | None:
    """Sequential-semantics snapshot extrapolation (the shared reference).

    The numpy backend falls back to this for snapshots its int64 fast path
    cannot represent, so the exact-fallback logic lives once, here.
    """
    out = []
    append = out.append
    for value, step in zip(base, delta):
        if step is None:
            append(value)
        elif type(value) is int:
            append(value + step * periods)
        else:  # float slot: only integral values within 2**53 are exact
            if step == 0.0:
                append(value)
                continue
            new = value + step * periods
            if not (value.is_integer() and step.is_integer()
                    and abs(new) <= MAX_EXACT_FLOAT):
                return None
            append(new)
    return tuple(out)


class PythonBackend(ComputeBackend):
    """Pure-Python per-element loops; the bit-identity reference."""

    name = "python"

    def range_mask(self, values: np.ndarray, low: int, high: int) -> np.ndarray:
        return np.fromiter((low <= v <= high for v in values.tolist()),
                           dtype=bool, count=values.size)

    def count_in_range(self, values: np.ndarray, low: int, high: int) -> int:
        count = 0
        for v in values.tolist():
            if low <= v <= high:
                count += 1
        return count

    def kth_smallest(self, values: np.ndarray, k: int) -> int:
        return int(sorted(values.tolist())[k - 1])

    def pack_mask(self, mask: np.ndarray) -> np.ndarray:
        bits = mask.tolist()
        out = bytearray((len(bits) + 7) // 8)
        for i, bit in enumerate(bits):
            if bit:
                out[i >> 3] |= 1 << (i & 7)
        # frombuffer over the bytearray keeps the array writable, matching
        # np.packbits output.
        return np.frombuffer(out, dtype=np.uint8)

    def unpack_mask(self, buf: np.ndarray, num_rows: int) -> np.ndarray:
        data = buf.tolist()
        return np.fromiter(((data[i >> 3] >> (i & 7)) & 1
                            for i in range(num_rows)),
                           dtype=bool, count=num_rows)

    def popcount(self, mask: np.ndarray) -> int:
        count = 0
        for bit in mask.tolist():
            if bit:
                count += 1
        return count

    def flatnonzero(self, mask: np.ndarray) -> np.ndarray:
        return np.array([i for i, bit in enumerate(mask.tolist()) if bit],
                        dtype=np.int64)

    def merge_masked(self, current: np.ndarray, owned: np.ndarray,
                     update: np.ndarray) -> None:
        for i, take in enumerate(owned.tolist()):
            if take:
                current[i] = update[i]

    def per_line_stats(self, mask: np.ndarray,
                       rows_per_line: int) -> tuple[np.ndarray, np.ndarray]:
        bits = mask.tolist()
        nlines = -(-len(bits) // rows_per_line)
        matches = [0] * nlines
        mispredicts = [0] * nlines
        prev = False  # predictor starts predicting "no match"
        for i, bit in enumerate(bits):
            line = i // rows_per_line
            if bit:
                matches[line] += 1
            if bit != prev:
                mispredicts[line] += 1
            prev = bit
        return (np.array(matches, dtype=np.float64),
                np.array(mispredicts, dtype=np.float64))

    def fused_hit_run(self, n: int, cursor: int, alu_ready: int, io: int,
                      b_col: int, b_dfree: int, b_pre: int, next_ref: int,
                      cl: int, burst: int, tccd: int, trtp: int,
                      wp_full: float) -> tuple[int, int, int, int, int, int, int]:
        done = 0
        while done < n:
            if cursor >= next_ref:
                break
            busy = io
            if alu_ready > busy:
                busy = alu_ready
            if b_dfree > busy:
                busy = b_dfree
            cas = b_col
            if cursor > cas:
                cas = cursor
            dflo = busy - cl
            if dflo > cas:
                cas = dflo
            ds = cas + cl
            de = ds + burst
            b_dfree = de
            b_col = cas + tccd
            npre = cas + trtp
            if npre > b_pre:
                b_pre = npre
            io = de
            # Reference semantics: exact while the command cursor stays
            # inside the 2**52 ps sim horizon (MAX_EXACT_FLOAT is 2**53).
            proc = round(ds + wp_full)  # analyze: ignore[float-exactness] ds < 2**52 sim horizon
            if de > proc:
                proc = de
            alu_ready = proc
            cursor = cas
            done += 1
        return done, cursor, alu_ready, io, b_col, b_dfree, b_pre

    def batch_row_timing(self, n: int, arrival: int, col0: int, busfree0: int,
                         latency: int, burst: int, tccd: int,
                         chained: bool = False) -> tuple[int, int, int]:
        cas_first = cas = de = 0
        col = col0
        busfree = busfree0
        at = arrival
        for i in range(n):
            cas = col
            if at > cas:
                cas = at
            dflo = busfree - latency
            if dflo > cas:
                cas = dflo
            de = cas + latency + burst
            busfree = de
            col = cas + tccd
            if i == 0:
                cas_first = cas
            if chained:
                at = de
        return cas_first, cas, de

    def batch_issue(self, ft, floor0, now0, cps, outs, backlog0, post_budget,
                    line_bytes, col0, busfree0, next_ref, cl, burst, tccd):
        return batch_issue_reference(ft, floor0, now0, cps, outs, backlog0,
                                     post_budget, line_bytes, col0, busfree0,
                                     next_ref, cl, burst, tccd)

    def batch_mark_busy(self, s: list, starts, ends) -> None:
        for start, end in zip(starts.tolist(), ends.tolist()):
            mark_busy_reference(s, start, end)

    def batch_latency_hist(self, count, total, total_sq, vmin, vmax, buckets,
                           lats) -> tuple:
        return latency_hist_reference(count, total, total_sq, vmin, vmax,
                                      buckets, lats.tolist())

    def apply_delta(self, base: tuple, delta: tuple,
                    periods: int) -> tuple | None:
        return apply_delta_reference(base, delta, periods)
