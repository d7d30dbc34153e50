"""Reference kernel for taking host-speed drift out of job times.

The kernel is fixed work of the same flavour as quakebend's hot paths
(pure-Python float arithmetic plus small numpy operations on 2x2 and
3x3 arrays) and calls nothing in quakebend, so a change to the program
cannot move it.  Run right after each job, its wall time ``ref_ms``
measures how fast the host is at that moment; a job time multiplied by
``REF_MS / ref_ms`` is the time the job would have taken at the
kernel's reference speed.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: kernel wall time, ms, at the reference host speed: its median right
#: after jobs in 30 s runs of the three workloads on the machine the
#: benchmark was tuned on (2 vCPU x86-64, Python 3.11, numpy 2.4)
REF_MS = 2.5

_A = np.array([[1.0, 0.25], [0.0, 1.0]])
_S = np.array([[2.0, 0.1, 0.0], [0.1, 1.0, 0.2], [0.0, 0.2, -1.0]])


def kernel():
    s = 0.0
    for i in range(1, 1200):
        x = i * 1e-3
        s += math.sqrt(x) * math.cosh(x) / (1.0 + x * x)
    m = np.eye(2)
    for _ in range(40):
        m = m @ _A
        m = m / math.sqrt(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
        np.linalg.eigvalsh(_S + s * 1e-9)
        np.allclose(_S, _S.T)
    return s + float(m[0, 1])


def ref_ms():
    """Wall time of one kernel run, in ms."""
    t0 = time.perf_counter()
    kernel()
    return (time.perf_counter() - t0) * 1e3
