"""A fixed calibration kernel that tracks how fast the host runs this process.

On a shared host the same work can take 1.5-2x longer for stretches of
seconds to minutes, longer than a run.  The benchmark times this kernel
next to the work it measures and reports times scaled by
`REFERENCE_S / kernel time`: the time the work would take while the kernel
takes REFERENCE_S.  `kernel_runs` runs the kernel once before the runs it
times, so that they find the kernel's data and code in the caches whatever
the library left there.  The kernel mixes what the library spends its time on,
small int64 `einsum` products and interpreted Python, and never calls the
library, so a change to the library cannot change the kernel.  Raw times
are reported next to the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's typical time on the 2-vCPU Xeon VM the benchmark was made on.
REFERENCE_S = 5e-4
# Kernel times in the running median of `smoothed`.
WINDOW = 9

_rng = np.random.default_rng(0)
_A = _rng.integers(0, 4, (8, 20))
_B = _rng.integers(0, 4, (8, 20))
_T = _rng.integers(0, 4, (20, 20, 20))
_PATH = ["einsum_path", (0, 1), (0, 1)]


def _kernel():
    for _ in range(4):
        np.einsum("...i,...j,ijk->...k", _A, _B, _T, optimize=_PATH) % 4
    acc = {}
    for j in range(300):
        acc[j % 17] = acc.get(j % 17, 0) + j


def kernel_runs(n: int) -> list:
    """Seconds taken by each of `n` consecutive runs of the kernel, after
    one untimed run."""
    _kernel()
    times = []
    for _ in range(n):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return times


def smoothed(samples) -> np.ndarray:
    """Running median of kernel times, so one disturbed sample does not
    rescale its trial."""
    x = np.asarray(samples, dtype=float)
    pad = np.pad(x, WINDOW // 2, mode="edge")
    return np.median(np.lib.stride_tricks.sliding_window_view(pad, WINDOW), axis=-1)
