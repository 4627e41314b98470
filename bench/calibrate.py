"""Speed calibration against a fixed reference kernel.

On a shared machine the speed of one core drifts by up to about 1.8x over
seconds to minutes as neighbours come and go, so raw wall times of the same
work differ by 20-40% between runs.  The benchmark therefore times this
fixed kernel (small SVDs, matrix products and Python arithmetic, the same
mix of work as the package) right before and after every item, and scales
the item's wall time by NOMINAL_S / (mean of the two kernel times): the
result is the time the item would take at the kernel's nominal speed.

The kernel uses only numpy, never the package, so no change to the package
can move it.  Its SVD is bound when this module is imported, before the
tracer wraps `numpy.linalg`, so tracing does not slow it down either.
"""

from __future__ import annotations

import time

import numpy as np

_svd = np.linalg.svd
_A = np.array([[2.0, 1.0, 0.5], [0.0, 1.0, 3.0], [1.0, 0.0, 1.0]])
# Kernel time on an idle core of the development machine (2-vCPU x86-64
# VM, numpy 2.4.6); it only fixes the unit of the scaled times.
NOMINAL_S = 0.0045


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    started = time.perf_counter()
    acc = 0.0
    for k in range(150):
        u, s, vt = _svd(_A + k)
        acc += float(_svd(u @ vt, compute_uv=False)[0]) + 0.5 * float(s[0])
    return time.perf_counter() - started
