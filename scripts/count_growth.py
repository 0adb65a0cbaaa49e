"""Growth of the admissible weight count against the moment polytope volume.

For each genus the count grows like C k^(3g-3); the fitted leading
coefficient is compared with 2^g times the exact polytope volume (the 2^g
is the density of the parity sublattice).  Counts along the way are
cross-checked against the character-sum and closed-form routes.
"""

import argparse

from verlinde import fusion
from verlinde.weights import bs_asymptotics


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--genus", type=int, default=2)
    ap.add_argument("--kmax", type=int, default=10)
    args = ap.parse_args()
    if args.genus < 2:
        ap.error("--genus must be at least 2")
    if args.kmax < 1:
        ap.error("--kmax must be at least 1")

    print(f"genus {args.genus}, levels 1..{args.kmax}")
    print(f"{'k':>4} {'count':>10} {'characters':>12} {'closed':>10} {'count/k^(3g-3)':>16}")
    degree = 3 * args.genus - 3
    rep = bs_asymptotics(args.genus, range(1, args.kmax + 1))
    for k, n in zip(rep.ks, rep.counts):
        chars = fusion.verlinde(args.genus, k, via="characters")
        closed = fusion.verlinde(args.genus, k, via="closed")
        print(f"{k:>4} {n:>10} {chars:>12} {closed:>10} {n / k**degree:>16.6f}")
    print()
    print(f"polynomial degree      : {rep.degree}")
    print(f"leading coefficient    : {rep.leading_coefficient}")
    print(f"2^g * polytope volume  : {rep.density_times_volume}")
    print(f"consistent             : {rep.consistent}")
    if rep.fit_warning:
        print(f"warning                : {rep.note}")


if __name__ == "__main__":
    main()
