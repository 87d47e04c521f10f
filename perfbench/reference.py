"""A fixed reference kernel that measures the host's speed.

The benchmark runs on shared cores whose speed moves by 10-30% over tens
of seconds, which is more than any change to the program should be
judged by.  So the benchmark times this kernel between operations and
reports time as a multiple of it: an operation's seconds divided by the
kernel's seconds around it, times REF_S.  A burst of host load slows the
operation and the kernel alike and drops out of the ratio; a change to
wavetime moves only the operation.

The kernel shares no code with wavetime.  It does the two kinds of work
the workloads spend their time on: row pivots on a small dense numpy
tableau (the shape of the simplex kernel), and longest-path passes over
a dict-of-lists graph in pure Python (the shape of STA and wave
simulation).
"""

import time

import numpy as np

# the kernel's time on the reference host when it is quiet; reported
# seconds are seconds on a host that runs the kernel in REF_S
REF_S = 0.2

_ROWS, _COLS, _PIVOTS = 120, 140, 2000
_NODES, _FANIN, _SWEEPS = 2000, 3, 40


def _pivots():
    tab = np.linspace(0.5, 2.0, _ROWS * _COLS).reshape(_ROWS, _COLS)
    for k in range(_PIVOTS):
        row, col = k % _ROWS, (k * 7) % _COLS
        tab[row] = tab[row] / (abs(tab[row, col]) + 1.0)
        tab -= np.outer(tab[:, col], tab[row]) * 1e-3
        enter = int(np.argmin(tab[row]))
        tab[:, enter] > 0
    return float(tab.sum())


def _longest_paths():
    fanin = {i: [(i * 31 + j) % _NODES for j in range(_FANIN)]
             for i in range(_NODES)}
    total = 0.0
    for _ in range(_SWEEPS):
        arrival = {}
        for i in range(_NODES):
            arrival[i] = max((arrival.get(j, 0.0) for j in fanin[i]
                              if j < i), default=0.0) + 1.0
        total += arrival[_NODES - 1]
    return total


def kernel_seconds():
    """Wall time of one run of the kernel."""
    t0 = time.perf_counter()
    _pivots()
    _longest_paths()
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(" ".join(f"{kernel_seconds():.4f}" for _ in range(10)))
