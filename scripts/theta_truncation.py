"""Lattice truncation radius of the adaptive theta sum.

Shows how many sup-norm shells the series needs as a function of the
target tolerance and of the size of Im(Omega): flat period matrices decay
slowly and push the radius up.  The last column verifies the stop rule by
comparing against a recompute two shells further out.
"""

import argparse

import numpy as np

from verlinde.thetacst import (
    PeriodMatrix,
    ThetaCharacteristic,
    theta_char,
    truncation_radius,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--level", type=int, default=2)
    ap.add_argument("--scales", type=float, nargs="+", default=[0.3, 0.6, 1.0, 2.0])
    ap.add_argument("--tols", type=float, nargs="+", default=[1e-6, 1e-9, 1e-12])
    args = ap.parse_args()
    if args.level < 2:
        ap.error("--level must be at least 2: the characteristic is (1, 0)")

    char = ThetaCharacteristic(args.level, (1, 0))
    z = np.array([0.15 + 0.1j, -0.2 + 0.05j])
    base = np.array([[1.0, 0.3], [0.3, 1.2]])

    print(f"{'Im scale':>9} {'tol':>9} {'radius':>7} {'tail gap':>10}")
    for scale in args.scales:
        om = PeriodMatrix(0.2 * np.ones((2, 2)) + 1j * scale * base)
        for tol in args.tols:
            r = truncation_radius(char, om, z, tol)
            a = theta_char(char, om, z, radius=r)
            b = theta_char(char, om, z, radius=r + 2)
            print(f"{scale:>9.2f} {tol:>9.0e} {r:>7} {abs(a - b):>10.2e}")


if __name__ == "__main__":
    main()
