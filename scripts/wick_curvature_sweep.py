#!/usr/bin/env python3
"""Curvature sweep of the three local-model rescalings.

Samples the one-geodesic local model over its cosmological-time range
and reports the fitted constant curvature of the Wick / de Sitter /
anti-de Sitter images (targets -1, +1, -1).
"""

import numpy as np

from quakebend import spacetime as sp
from quakebend import curvature as cv

# kind -> the open range of T in the sweep where its rescaling is fitted
DOMAINS = {"wick": (1.05, np.inf), "ds": (0.0, 0.95), "ads": (0.0, np.inf)}


def fitted(kind, Ts, z=0.35, u=0.2, a0=4.0):
    """{T: kappa} over the Ts in the domain of `kind`, from one fit call."""
    lo, hi = DOMAINS[kind]
    Ts = [T for T in Ts if lo < T < hi]
    fits = cv.constant_curvature_fits(sp.chart_metric(kind, a0),
                                      [(T, z, u) for T in Ts])
    return {T: k for T, (k, _) in zip(Ts, fits)}


def main():
    Ts = np.linspace(0.15, 2.85, 10)
    columns = [fitted(kind, Ts) for kind in DOMAINS]
    print(f"{'T':>6} {'wick k':>10} {'dS k':>10} {'AdS k':>10}")
    for T in Ts:
        cells = [f"{T:6.2f}"]
        for kappas in columns:
            cells.append(f"{kappas[T]:10.6f}" if T in kappas else " " * 10)
        print(" ".join(cells))


if __name__ == "__main__":
    main()
