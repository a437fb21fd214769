"""A fixed calibration loop that reads the current speed of the CPU.

The benchmark's reference VM shares its host, and its CPU runs in speed
phases: the same pure-Python work takes up to twice as long in one stretch
of seconds as in another, with CPU time equal to wall time. A run times
this loop between its operations, and ``scale`` turns the run's wall
times into reference seconds, the time the same work takes when this loop
takes ``REF_S``. The phases change within seconds, faster than one long
operation lasts, so the scale uses the loop's mean over the whole run: it
cancels the mix of phases a run fell in, not the jitter of a single
operation, which the means over rounds even out.

A workload's time need not move as far as the loop's with the phases, so
each workload scales by ``(REF_S / loop time) ** sensitivity``, where the
sensitivity is the slope of log round time over log loop time measured
across runs (see README.md).

The loop never calls cyclo4, so a change to cyclo4 moves the scaled times
and not the scale. Its two halves are shaped like cyclo4's inner loops:
shifts and XORs on 700-bit integers (GF(2) polynomials in ``f2`` and the
``lfsr`` echelon), and small NumPy convolutions read back as tuples of
ints (``GaloisRing._mul_coords``).
"""

from __future__ import annotations

import statistics
import time

import numpy

# The loop's time on the reference VM in the slower of its two phases.
REF_S = 0.04

_SMALL = numpy.arange(1, 41, dtype=numpy.int64)
_MASK = (1 << 701) - 1


def kernel() -> int:
    """The fixed work; returns a checksum so that none of it is skipped."""
    acc = 0
    x = _MASK - 12345
    for i in range(60000):
        x ^= (x << 1) & _MASK
        acc += x.bit_length() & i
    for i in range(1200):
        t = numpy.convolve(_SMALL, _SMALL) % 4
        acc += sum(tuple(int(v) for v in t[i % 20 : i % 20 + 20]))
    return acc


def measure() -> float:
    """Wall seconds of one run of the loop."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(seconds: float, loops: list[float], sensitivity: float = 1.0) -> float:
    """``seconds`` of wall time in reference seconds, given the loop's wall
    times measured between the pieces of work that make up ``seconds``.

    The loop's times fall into a fast and a slow cluster, one per phase, so
    their median jumps between the clusters as the mix of phases shifts;
    their mean, with the fastest and slowest tenth left out, follows it.
    """
    loops = sorted(loops)
    cut = len(loops) // 10
    return seconds * (REF_S / statistics.mean(loops[cut : len(loops) - cut])) ** sensitivity
