"""A fixed reference computation that gauges the host's momentary speed.

The benchmark runs on a few cores of a shared host.  Other tenants change
how fast one process runs by up to twofold, from one second to the next,
which swamps any change to the program.  The benchmark therefore times this
slice between all timed steps and reports each step's time scaled to a host
on which the slices around it take REFERENCE_S.  Other tenants slow
interpreter-bound and memory-bound code by different amounts, so the slice
has one part of each kind, timed apart, and each step is scaled by the part
its own work resembles: the solver's work between BLAS calls (a small SLSQP
solve, tiny dense factorisations) or the grid oracle's elementwise passes
over arrays larger than a core's private caches.  The slice is the same code
on every commit, so only changes to the program move the scaled times.
"""

from __future__ import annotations

import time

import numpy as np
# Bound at import: the tracer wraps scipy.optimize.minimize as the solver's
# optimizer, and must not count the slices' solves.
from scipy.optimize import minimize

# Each part on an unloaded core of the 2-core 2.0 GHz Xeon VM the benchmark
# was defined on, so scaled times read close to that machine's quiet times.
REFERENCE_S = {"interpreter": 0.004, "memory": 0.003}

_rng = np.random.default_rng(20170904)
_A = _rng.normal(size=(12, 4))
_B = _rng.normal(size=12)
_C = _rng.normal(size=(3, 4))
_M = np.eye(3) + 0.1
_GRID = np.linspace(0.1, 1.0, 600_000)
_WORK = np.empty_like(_GRID)     # written in place, so no part depends on malloc
_CONSTRAINTS = [{"type": "ineq", "fun": lambda x: 1.0 - _C @ x, "jac": lambda x: -_C}]


def _log_sum_exp(x):
    z = _A @ x + _B
    top = z.max()
    e = np.exp(z - top)
    return top + np.log(e.sum()), (e / e.sum()) @ _A


def _interpreter_bound():
    for _ in range(3):
        minimize(_log_sum_exp, np.zeros(4), jac=True, method="SLSQP",
                 bounds=[(-3.0, 3.0)] * 4, constraints=_CONSTRAINTS)
        for _ in range(50):
            np.linalg.slogdet(_M)
            np.linalg.solve(_M, _B[:3])


def _memory_bound():
    np.multiply(_GRID, 0.5, out=_WORK)
    np.add(_WORK, 1.0, out=_WORK)
    np.divide(_GRID, _WORK, out=_WORK)
    np.multiply(_WORK, 3.0, out=_WORK)
    np.log1p(_WORK, out=_WORK)
    _WORK.max()


PARTS = {"interpreter": _interpreter_bound, "memory": _memory_bound}


def reference_slice() -> dict:
    """Run each part of the reference work once; its duration in seconds by
    part."""
    out = {}
    for part, work in PARTS.items():
        t0 = time.perf_counter()
        work()
        out[part] = time.perf_counter() - t0
    return out


def scaled(seconds, part, slices) -> float:
    """``seconds`` measured among ``slices``, expressed at the reference
    speed of ``part``."""
    return seconds * REFERENCE_S[part] * len(slices) / sum(s[part] for s in slices)
