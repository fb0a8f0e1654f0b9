"""Machine speed, sampled with a fixed reference kernel while the workload runs.

The host lends this benchmark a share of its cores, and their speed moves in
phases of seconds to minutes: a fixed numpy loop takes anywhere from 1x to
1.6x its fastest time, with CPU time equal to wall time.  A wall time read
during a slow phase says more about the host than about the program.

A :class:`Pacer` interrupts the process every ``period`` seconds (SIGALRM) and
times :func:`reference_kernel`, a fixed loop of small numpy and Python work of
the same kind as the program's own.  :meth:`Pacer.scaled` then turns an
interval of wall time into seconds at the reference speed: each stretch
between probes is scaled by ``REF_S`` over the kernel time measured around it,
and the probes' own time is left out.  The kernel is the benchmark's own code,
so a change to the program moves the scaled time and leaves the kernel alone.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

import numpy as np

# Seconds the reference kernel takes at the reference speed: about its median
# time when it interrupts a workload on a 2-core Xeon VM (Python 3.11, numpy
# 2.4).  Any constant would do; this one keeps scaled times close to wall times.
REF_S = 0.0035

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((128, 32))
_W = _RNG.standard_normal((32, 32))
_X = _RNG.standard_normal((256, 2))
_W1 = _RNG.standard_normal((2, 32))
_W2 = _RNG.standard_normal((32, 32))
_W3 = _RNG.standard_normal((32, 1))


class _Node:
    __slots__ = ("value", "parent")

    def __init__(self, value, parent):
        self.value = value
        self.parent = parent


def reference_kernel() -> float:
    """Three parts of about equal time: small matrix products, a forward and
    backward pass of a 2-32-32-1 tanh MLP on 256 points, and Python object
    bookkeeping.  Returns a checksum so the work cannot be skipped."""
    acc = 0.0
    for _ in range(40):
        h = np.tanh(_A @ _W)
        acc += float((h.T @ _A)[0, 0])
    for _ in range(8):
        h1 = np.tanh(_X @ _W1)
        h2 = np.tanh(h1 @ _W2)
        go = np.ones_like(h2 @ _W3) / 256.0
        gh2 = (go @ _W3.T) * (1.0 - h2 * h2)
        gh1 = (gh2 @ _W2.T) * (1.0 - h1 * h1)
        acc += float((h2.T @ go)[0, 0] + (h1.T @ gh2)[0, 0] + (_X.T @ gh1)[0, 0])
    nodes = {}
    node = None
    for i in range(2500):
        node = _Node(i * 0.5, node)
        nodes[i & 63] = node
        acc += node.value
    return acc + len(nodes)


def time_reference() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def reference_s() -> float:
    """The reference kernel's time now: the median of five probes."""
    return statistics.median(time_reference() for _ in range(5))


class Pacer:
    """Probes the reference kernel every ``period`` seconds while started."""

    def __init__(self, period: float = 0.1):
        self.period = period
        self.starts = []  # perf_counter at each probe's start
        self.ends = []
        self.ref = []  # each probe's kernel time
        self._old = None

    def _probe(self, signum, frame):
        # A collection of the program's heap must not land in the probe.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(start)
        self.ends.append(end)
        self.ref.append(end - start)

    def start(self):
        self._probe(None, None)
        self._old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._old is not None:
            signal.signal(signal.SIGALRM, self._old)
            self._old = None
        self._probe(None, None)

    def scaled(self, a: float, b: float) -> float:
        """Seconds at the reference speed that the wall interval [a, b] took,
        probes excluded.  The stretch before probe ``i`` is scaled by the
        median of probes ``i - 2`` to ``i + 1``, so one slow probe moves
        nothing."""
        total = 0.0
        i = bisect.bisect_right(self.ends, a)  # first probe that ends after a
        t = a
        while t < b:
            seg_end = min(b, self.starts[i]) if i < len(self.starts) else b
            if seg_end > t:
                near = self.ref[max(0, i - 2):i + 2] or self.ref[-2:]
                total += (seg_end - t) * REF_S / statistics.median(near)
            if i >= len(self.starts):
                break
            t = max(t, self.ends[i])
            i += 1
        return total
