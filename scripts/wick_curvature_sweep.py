#!/usr/bin/env python3
"""Curvature sweep of the three local-model rescalings.

Samples the one-geodesic local model over its cosmological-time range
and reports the fitted constant curvature of the Wick / de Sitter /
anti-de Sitter images (targets -1, +1, -1).
"""

import numpy as np

from quakebend import spacetime as sp
from quakebend import curvature as cv


def fitted(kind, T, z=0.35, u=0.2, a0=4.0):
    return cv.constant_curvature_fit(sp.chart_metric(kind, a0), (T, z, u))


def main():
    print(f"{'T':>6} {'wick k':>10} {'dS k':>10} {'AdS k':>10}")
    for T in np.linspace(0.15, 2.85, 10):
        cells = [f"{T:6.2f}"]
        if T > 1.05:
            k, _ = fitted("wick", T)
            cells.append(f"{k:10.6f}")
        else:
            cells.append(" " * 10)
        if T < 0.95:
            k, _ = fitted("ds", T)
            cells.append(f"{k:10.6f}")
        else:
            cells.append(" " * 10)
        k, _ = fitted("ads", T)
        cells.append(f"{k:10.6f}")
        print(" ".join(cells))


if __name__ == "__main__":
    main()
