"""A fixed reference loop that measures how fast this machine is right now.

Every timing the benchmark reports is divided by the time of this loop,
measured close to the work it scales, and multiplied by REF_NOMINAL_S: the
result is "seconds at the reference speed".  On a shared machine the speed of
the interpreter drifts by tens of percent between runs; the loop slows down
with the program and the ratio stays put.

The loop never calls commdist.  It mixes what the program spends its time on:
modular row elimination over Python ints, Fraction arithmetic on small and on
multi-word integers, tuple-keyed dict traffic and a small numpy product.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

# Seconds one chunk takes at the reference speed: its time in the fast state
# of a shared 2-vCPU x86-64 host (Python 3.11, numpy 2.4).  It only fixes the
# unit, so that scaled and raw seconds agree on a quiet machine; it never
# needs to change.
REF_NOMINAL_S = 0.0003

_P = 10007
_M = [[(i * 31 + j * 17 + i * j * 7) % _P for j in range(10)] for i in range(10)]
_A = np.arange(36, dtype=np.int64).reshape(6, 6)
_ROUNDS = 2


def _eliminate() -> int:
    m = [row[:] for row in _M]
    r = 0
    for c in range(10):
        piv = next((i for i in range(r, 10) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], _P - 2, _P)
        m[r] = [x * inv % _P for x in m[r]]
        for i in range(10):
            f = m[i][c]
            if i != r and f:
                m[i] = [(x - f * y) % _P for x, y in zip(m[i], m[r])]
        r += 1
    return r


def ref_work() -> int:
    """One chunk of the reference loop (a few hundred microseconds)."""
    out = 0
    for _ in range(_ROUNDS):
        out += _eliminate()
        acc = Fraction(0)
        for i in range(1, 25):
            acc += Fraction(i, i + 1)
        big = Fraction(0)  # multi-word integers, as in QQ elimination
        for i in range(1, 12):
            big += Fraction(123456789012345678 * i + 1, 98765432109876543 + i)
        out += big.numerator % 7
        d: dict = {}
        for i in range(150):
            key = (i % 13, i % 7)
            d[key] = d.get(key, 0) + i
        out += acc.numerator % 7 + len(d) + int(((_A @ _A) % 7).sum())
    return out


def speed(durs) -> float:
    """Multiplier from raw seconds to seconds at the reference speed, given
    the durations of chunks run evenly in time over the work."""
    return REF_NOMINAL_S * statistics.fmean(1.0 / d for d in durs)


class RefClock:
    """Runs the reference loop on a timer and times operations beside it.

    While armed, SIGALRM runs one chunk every ``interval`` seconds, between
    or inside operations; the machine's speed switches within tens of
    milliseconds on a shared host, so the samples must be that dense.  Chunk
    time is subtracted from the operation it interrupted, and each operation
    is scaled by the speed the chunks run close to it in time measured.
    """

    def __init__(self, interval: float = 0.005):
        self.interval = interval
        self.starts: list[float] = []  # start time of every chunk
        self.durs: list[float] = []
        self.stolen_s = 0.0  # all chunk time so far
        self.limit: tuple | None = None  # (op start, stolen then, chunks then, limit)
        self._old = None

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        ref_work()
        d = time.perf_counter() - t0
        self.starts.append(t0)
        self.durs.append(d)
        self.stolen_s += d
        if self.limit is not None:
            op_t0, stolen0, n0, limit = self.limit
            done = (t0 - op_t0 - (self.stolen_s - d - stolen0)) * speed(self.durs[n0:])
            if done > limit:
                self.limit = None
                raise OpTimeout()

    def __enter__(self):
        t0 = time.perf_counter()
        for _ in range(3):  # let the interpreter specialise the loop before it counts
            ref_work()
        self.stolen_s += time.perf_counter() - t0
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def time_op(self, fn, timeout: float | None = None):
        """Run fn() while armed; return (result, raw seconds without chunks, (t0, t1)).

        A fn still running after `timeout` seconds at the reference speed is
        interrupted and the result is the OpTimeout instance.  The limit is in
        reference seconds so that a stopped operation costs the same on a
        fast or a slow machine.
        """
        s0 = self.stolen_s
        t0 = time.perf_counter()
        self.limit = None if timeout is None else (t0, s0, len(self.durs), timeout)
        try:
            result = fn()
        except OpTimeout as exc:
            result = exc
        finally:
            self.limit = None
            t1 = time.perf_counter()
        return result, t1 - t0 - (self.stolen_s - s0), (t0, t1)

    def speed_near(self, t0: float, t1: float, least: int = 4) -> float:
        """Mean of REF_NOMINAL_S / chunk time over the chunks run in [t0, t1],
        widened to the nearest ones until there are `least`.

        Chunks fire at even steps of wall time, so this mean is the time
        average of the speed; one chunk slowed by an interrupt barely moves it.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        while hi - lo < least and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        return speed(self.durs[lo:hi])

    def scale(self, raw: float, span: tuple[float, float]) -> float:
        """Raw seconds of an operation run over `span`, at the reference speed."""
        return raw * self.speed_near(*span)


class OpTimeout(BaseException):
    """Raised inside an operation that outlived its time limit.

    A BaseException, so that the program's own ``except Exception`` handlers
    do not swallow it.
    """
