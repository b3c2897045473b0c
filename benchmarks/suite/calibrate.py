"""Fixed CPU kernels that track how fast this machine runs right now.

The benchmark's host may be shared: on the 2-vCPU VM the baseline was
measured on, effective CPU speed moved by up to 2x, over minutes and
within seconds, as other tenants came and went, and CPU time moved with
wall time (the VM reports no steal), so neither can be read as the
program's own cost.  The timed loop therefore takes a calibration sample
after every ``EVERY_SECONDS`` of measured work, and each operation is
reported at the reference speed: its seconds times the kernel's
``REFERENCE_SECONDS`` over the kernel time around it (see
:func:`stats.normalize`).

A noisy neighbour slows different kinds of work by different amounts, so
there are two kernels, and each workload is calibrated with the one that
tracked it best (README.md, "Why times are normalized"):

- ``data``: dict updates over a key space larger than the CPU caches,
  small-object allocation, and NumPy arithmetic with a sort — a little
  code run over a lot of data, like the batched engine's round loop;
- ``code``: a sequence diff, exact-fraction sums and a median from the
  standard library — little data run through many Python functions, like
  the DP selector and scalar assembly, or a cold process importing.

Neither touches the code under test, and both run with the garbage
collector off so that their time does not depend on how many objects the
workload keeps alive.
"""

from __future__ import annotations

import difflib
import gc
import statistics
from fractions import Fraction
from time import perf_counter
from typing import Tuple

import numpy as np

#: Each kernel's time at the reference speed: about its fastest samples
#: on a 2-vCPU Intel Xeon VM at 2.1 GHz.  Fixed scales, never re-measured.
REFERENCE_SECONDS = {"data": 0.0036, "code": 0.0030}

#: Seconds of measured work between calibration samples.
EVERY_SECONDS = 0.25

_ARRAY = np.random.default_rng(0).random(50_000)
_LINES_A = [f"user {i} task {i * 7 % 13} reward {i * 0.37:.2f}" for i in range(60)]
_LINES_B = [f"user {i} task {i * 5 % 13} reward {i * 0.41:.2f}" for i in range(60)]


def _data() -> None:
    table = {}
    for i in range(8000):
        key = (i * 7919) % 200003
        table[key] = table.get(key, 0.0) + i * 0.5
    sorted(table.values())
    rows = [[float(i), str(i)] for i in range(6000)]
    del rows
    for _ in range(3):
        np.sqrt(_ARRAY * _ARRAY + 1.0).sort()


def _code() -> None:
    for _ in range(5):
        difflib.SequenceMatcher(None, _LINES_A, _LINES_B).ratio()
        total = Fraction(0)
        for i in range(1, 120):
            total += Fraction(i, i + 3)
        statistics.median([i * 0.7 % 11 for i in range(2000)])


KERNELS = {"data": _data, "code": _code}


def kernel(kind: str) -> float:
    """Seconds one pass of the ``kind`` kernel takes."""
    work = KERNELS[kind]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        work()
        return perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


def sample(kind: str) -> Tuple[float, float]:
    """One calibration sample of the ``kind`` kernel: (when, seconds).

    The seconds are the fastest of three kernel passes, which drops a pass
    that lost its CPU part-way; ``when`` is the clock at the end.  A
    process's first sample reads up to 2x slow (cold allocator and
    interpreter caches); callers take and drop one before measuring.
    """
    seconds = min(kernel(kind) for _ in range(3))
    return perf_counter(), seconds
