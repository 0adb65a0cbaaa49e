"""Genus-1 Heegaard invariants of twist words across levels.

Evaluates the vacuum-to-vacuum element of S T^n S for n = 0..nmax (the
lens-space family; n = 0 collapses to S^2 x S^1 up to the S^2 = id
relation) next to the bare S and identity words.  Values are only
anomaly-phase classes of invariants, so the magnitude column is the
stable part; the argument column is reduced to the phase lattice.
"""

import argparse

from verlinde.modular import heegaard_invariant, phase_class


def fmt(value, k):
    mag, arg = phase_class(value, k)
    if mag < 1e-12:
        # the argument of a vanishing invariant is numerical noise
        return f"{0.0:8.5f} @ {'-':>8}"
    return f"{mag:8.5f} @ {arg:8.5f}"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kmax", type=int, default=6)
    ap.add_argument("--nmax", type=int, default=4)
    args = ap.parse_args()
    if args.kmax < 1:
        ap.error("--kmax must be at least 1")
    if args.nmax < 0:
        ap.error("--nmax must be at least 0")

    words = [("empty", ""), ("S", "S")]
    for n in range(args.nmax + 1):
        words.append((f"S T^{n} S", " ".join(["S"] + ["T"] * n + ["S"])))

    name_w = max(len(name) for name, _ in words)
    print(f"{'word':<{name_w}} " + " ".join(f"{'k=' + str(k):>20}" for k in range(1, args.kmax + 1)))
    for name, text in words:
        row = " ".join(fmt(heegaard_invariant(text, k), k) for k in range(1, args.kmax + 1))
        print(f"{name:<{name_w}} {row}")


if __name__ == "__main__":
    main()
