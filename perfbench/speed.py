"""Machine-speed sampling, so that timings can be put at one reference speed.

The benchmark machine is a shared VM whose speed moves by up to ~1.7x in
phases of seconds to minutes, because of other tenants, not of this
process (CPU steal stays near zero, so CPU time moves with wall time).
``SpeedMeter`` runs a fixed probe every ``INTERVAL_S`` seconds from a
SIGALRM handler while a workload runs.  The probe is numpy and Python code
of the same kind as the library's numpy path (row-grouped gathers with
multiply-adds, a dense product, an interpreter loop, page faults on fresh
memory) on fixed data; it imports nothing from hprelu, so no change to
hprelu moves it.

An operation timed with ``meter.timed`` gets its wall seconds minus the
probe time that fell inside it (``raw_s``) and, once the run is over, the
mean speed of the probes taken during it and within ``PAD_S`` either side.
Speed is ``PROBE_REF_S`` / probe seconds, so it is about 1 on the machine
the reference was taken on and below 1 when the machine is slower.
``raw_s * speed`` is the operation's time at the reference speed.
"""

import mmap
import signal
import time

import numpy as np

# Median probe seconds inside a workload run on the reference machine
# (2-vCPU Xeon VM, numpy 2.4.6, one BLAS thread).  It sets the scale only:
# every comparison is between runs normalized by the same constant.
PROBE_REF_S = 0.006
# Seconds between probes; a probe takes ~6 ms, so they cost ~2.5%.
INTERVAL_S = 0.25
# Probes this far before and after an operation also count for its speed:
# one probe is noisy, while the machine's speed phases last seconds.
PAD_S = 1.0
# Calls before the first sample, which bring the probe's data into cache.
WARM_CALLS = 20


class _Probe:
    """Fixed work, about 6 ms at the reference speed.

    Every array is allocated once and the fresh pages come from mmap, so
    that the probe's time does not depend on the allocator's state, which
    the workload changes."""

    FRESH_BYTES = 1 << 20

    def __init__(self):
        rng = np.random.default_rng(20101217)
        rows, k, npts = 600, 4, 250
        self.cols = [rng.integers(0, rows, size=rows) for _ in range(k)]
        self.vals = [rng.standard_normal((rows, 1)) for _ in range(k)]
        self.x = rng.standard_normal((rows, npts))
        self.gathered = np.empty_like(self.x)
        self.out = np.empty_like(self.x)
        self.dense = rng.standard_normal((120, 120))
        self.product = np.empty_like(self.dense)

    def __call__(self):
        out, g = self.out, self.gathered
        out[:] = 0.0
        for cols, vals in zip(self.cols, self.vals):
            np.take(self.x, cols, axis=0, out=g)
            np.multiply(g, vals, out=g)
            np.add(out, g, out=out)
        np.maximum(out, 0.0, out=out)
        for _ in range(4):
            np.matmul(self.dense, self.dense, out=self.product)
        fresh = mmap.mmap(-1, self.FRESH_BYTES)
        np.frombuffer(fresh, dtype=np.uint8)[::mmap.PAGESIZE] = 1
        fresh.close()
        acc = 0
        for i in range(12000):
            acc += i * i
        return acc


class SpeedMeter:
    def __init__(self):
        self.probe = _Probe()
        self.samples = []  # (start, seconds) of each probe
        self.spent = 0.0  # probe seconds so far
        self._saved = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.probe()
        dt = time.perf_counter() - t0
        self.samples.append((t0, dt))
        self.spent += dt

    def warm(self):
        for _ in range(WARM_CALLS):
            self.probe()
        return self

    def start(self):
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._saved is not None:
            signal.signal(signal.SIGALRM, self._saved)
            self._saved = None

    def sample_now(self, count):
        """Take ``count`` probes in a row (for a span with no timer)."""
        for _ in range(count):
            self._tick(None, None)

    def timed(self, fn, *args):
        """Call fn(*args); returns (result, Op)."""
        spent0 = self.spent
        t0 = time.perf_counter()
        out = fn(*args)
        t1 = time.perf_counter()
        return out, Op(self, t0, t1, t1 - t0 - (self.spent - spent0))

    def speed(self, t0, t1):
        """Mean probe speed from PAD_S before t0 to PAD_S after t1."""
        lo, hi = t0 - PAD_S, t1 + PAD_S
        got = [dt for start, dt in self.samples if lo <= start <= hi]
        if not got:
            raise RuntimeError("no speed probe fell near the operation")
        return float(np.mean([PROBE_REF_S / dt for dt in got]))

    def median_speed(self):
        return float(np.median([PROBE_REF_S / dt for _, dt in self.samples]))


def timed(meter, fn, *args):
    """``meter.timed(fn, *args)``, or a plain timing when meter is None."""
    if meter is not None:
        return meter.timed(fn, *args)
    t0 = time.perf_counter()
    out = fn(*args)
    t1 = time.perf_counter()
    return out, Op(None, t0, t1, t1 - t0)


class Op:
    __slots__ = ("meter", "t0", "t1", "raw_s")

    def __init__(self, meter, t0, t1, raw_s):
        self.meter, self.t0, self.t1, self.raw_s = meter, t0, t1, raw_s

    def ref_s(self):
        """Seconds at the reference speed (raw seconds with no meter)."""
        if self.meter is None:
            return self.raw_s
        return self.raw_s * self.meter.speed(self.t0, self.t1)
