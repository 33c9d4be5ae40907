"""A fixed reference loop that measures how fast the host runs right now.

On a shared cloud host (2 vCPUs) the speed of a core swings by 20-40 %
for seconds to minutes at a time, with no steal time showing, so raw
times of the same code and input differ by a quarter from run to run.
The benchmark times this loop, which never calls alphaspec, right next
to each timed piece of work (before and after each CLI command; for
set-up, in the parent before the spawn and in the child right after
its import) and scales the measured time by ``REF_S / reference time``:
a time in seconds as the host runs at the speed where the loop takes
``REF_S``.  The loop mixes interpreter work, containers and numpy calls
on tiny arrays, as alphaspec does; the mix tracked the host's speed
better than any one of them alone.  Raw times are kept in the result
file beside the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

# The loop's best time on the host where the baseline was measured
# (Intel Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6), in its fast state.
# Any fixed value works: it sets the unit, and parent and change share it.
REF_S = 0.0074
REPEATS = 3  # the best of three rejects a timer interrupt in one of them


_FLOATS = [((i * 7919) % 10007) / 10007 for i in range(20000)]


def _work() -> float:
    """Interpreter arithmetic, dict, sort and str churn over a list that
    outgrows the L1 cache, and many numpy calls on tiny arrays."""
    total = 0
    for i in range(24000):
        total += (i * i) % 7
    counts: dict[int, int] = {}
    for i in range(6000):
        counts[i & 255] = counts.get(i & 255, 0) + i
    index = {x: i for i, x in enumerate(_FLOATS)}
    ordered = sorted(_FLOATS)
    names = [str(i) for i in range(5000)]
    m = np.arange(64.0).reshape(8, 8)
    for _ in range(300):
        m = m @ m * 1e-3 + 1.0
    a, v = np.ones((6, 6)), np.ones(6)
    for _ in range(400):
        w = a @ v
        v = w / np.linalg.norm(w)
    return total + len(counts) + len(index) + ordered[0] + len(names) + float(m[0, 0] + v[0])


def reference_s() -> float:
    """The best of REPEATS timings of the reference loop, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(seconds: float, ref_s: float) -> float:
    """``seconds`` measured while the reference loop took ``ref_s``, in
    seconds at the reference speed."""
    return seconds * REF_S / ref_s
