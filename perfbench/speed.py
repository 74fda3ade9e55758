"""A fixed speed probe, for timing on a shared host whose speed drifts.

On a few cores of a shared host the same code runs 10-20% faster or slower
from one minute to the next (other tenants' load moves the clock and the
shared caches), and the process's CPU time drifts with its wall time.  The
probe measures that drift: a fixed mix of the numpy work the library does
(complex matrix products and tensor contractions, complex exponentials,
FFTs and an interpreted loop on small arrays, and one 16 MB phase-table
product) on fixed inputs, about 0.16 s on a 2-core x86 VM.  It uses no
liefourier code, so a change to the library cannot move it.

Workers probe before and after every task; the times of a pass (every
task once) are scaled by ``REFERENCE_S`` over the mean of the pass's
probes (``to_reference``), and read as "seconds on a host where the probe
takes ``REFERENCE_S``".  Averaging over the pass's probes keeps the
probe's own noise (about 15% from one call to the next) out of the
factor.  The raw times stay in the benchmark's detail record.
"""

from __future__ import annotations

import time

import numpy as np

# About what the probe took (median of 100 calls) on the 2-core x86 VM the
# benchmark was defined on, so scaled times read close to raw ones there.
REFERENCE_S = 0.16

_RNG = np.random.default_rng(20210128)
_A = _RNG.standard_normal((96, 96)) + 1j * _RNG.standard_normal((96, 96))
_X = _RNG.standard_normal(60000)
_T = _RNG.standard_normal((24, 24, 24)) + 0j
# a torus phase-table chunk: 4000 points x 250 labels (16 MB complex)
_POINTS = _RNG.standard_normal((4000, 2))
_LABELS = _RNG.standard_normal((250, 2))
_VALUES = _RNG.standard_normal((4000, 2)) + 0j


def probe() -> float:
    """Seconds this process takes for the fixed probe work, now."""
    started = time.perf_counter()
    # small arrays, as in the SU(2) transforms and checkers
    for _ in range(120):
        _A @ _A
    for _ in range(8):
        np.exp(2j * np.pi * _X)
    for _ in range(150):
        np.tensordot(_T, _A[:24, :24], axes=(2, 0))
    for _ in range(150):
        np.fft.fft2(_A)
    acc = 0.0
    for i in range(100000):
        acc += _X[i % 100] * 2.0
    # one chunk of phase table, as in the torus transforms
    np.exp(-2j * np.pi * (_POINTS @ _LABELS.T)).T @ _VALUES
    return time.perf_counter() - started


def to_reference(probes: list[float]) -> float:
    """The factor that takes seconds measured alongside ``probes`` to
    seconds at reference speed."""
    return REFERENCE_S / (sum(probes) / len(probes))
