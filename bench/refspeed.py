"""Host speed from a fixed reference kernel, to put times on one scale.

On a shared host the speed of a vCPU drifts, by up to 2x from one second to
the next and by as much over minutes, so a stage timed at a slow moment reads
slow whatever the program does.  ``Sampler`` therefore runs a kernel, a fixed
~20 ms of work that uses none of ``linbayes``, every ``INTERVAL_S`` (about 8%
of a run) from a ``SIGALRM`` handler, in the same process and on the same
vCPU as the stage it interrupts.  ``Sampler.scale`` turns a measured interval
into reference-speed seconds: the interval without the kernel's own time,
times ``REFERENCE_S / mean kernel seconds`` during it, i.e. seconds on a host
where the kernel takes ``REFERENCE_S``.  A change to ``linbayes`` moves the
scaled times and leaves the kernel alone.

The kernel mixes the three kinds of work the workloads spend their time in:
a Python loop over small numpy gathers and scatters (the wave sweeps), CSR
matvecs with vector updates (the Jacobi-CG solves) and float formatting
(the CSV writes).
"""

from __future__ import annotations

import signal
import statistics
import time
import warnings

import numpy as np
import scipy.sparse as sp

REFERENCE_S = 0.02
INTERVAL_S = 0.25
# an interval shorter than this is scaled by the kernels within this window
# around its middle
MIN_WINDOW_S = 1.0

_LOOP_STEPS = 600
_MATVECS = 400
_FORMATTED = 2400


def _operands():
    rng = np.random.default_rng(0)
    n = 33
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        stiff = (sp.kron(lap, eye) + sp.kron(eye, lap)).tocsr()
    conn = np.stack([np.arange(100), np.arange(1, 101)], axis=1)
    return {
        "conn": conn, "flat": conn.ravel(), "phi": rng.standard_normal((3, 2)),
        "x": rng.standard_normal(101), "stiff": stiff, "b": rng.standard_normal(n * n),
        "values": rng.standard_normal(_FORMATTED),
    }


_OPS = _operands()


def _work():
    ops = _OPS
    conn, flat, phi = ops["conn"], ops["flat"], ops["phi"]
    x = ops["x"].copy()
    for _ in range(_LOOP_STEPS):
        y = np.zeros(101)
        np.add.at(y, flat, ((x[conn] @ phi.T) @ phi).ravel())
        x = 0.5 * x + 1e-3 * y
    v = ops["b"].copy()
    for _ in range(_MATVECS):
        v = v - 1e-2 * (ops["stiff"] @ v)
        v *= 1.0 / np.sqrt(v @ v + 1.0)
    text = "\n".join(f"{a:.17g}" for a in ops["values"])
    return float(x.sum() + v.sum()) + len(text)


class Sampler:
    """Runs the kernel every ``INTERVAL_S`` while the ``with`` block runs.

    Python runs the handler between bytecodes of the main thread, so a
    sample lands inside whatever stage is running, at most one C call late.
    """

    def __init__(self):
        self.samples = []  # (perf_counter at start, seconds)
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        _work()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        _work()  # warm-up
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, start, end):
        """(share of [start, end) not spent in the kernel, factor to
        reference speed over it)."""
        inside = sum(d for t, d in self.samples if start <= t < end)
        pad = max(0.0, MIN_WINDOW_S - (end - start)) / 2
        near = [d for t, d in self.samples if start - pad <= t < end + pad]
        if not near:
            mid = 0.5 * (start + end)
            near = [d for _, d in sorted(self.samples, key=lambda s: abs(s[0] - mid))[:4]]
        share = 1.0 - inside / (end - start) if end > start else 1.0
        return max(share, 0.0), REFERENCE_S / statistics.fmean(near)
