"""Sweep the modular-data consistency relations across levels.

Prints one row per level with the worst residual of each implemented
relation; relations without a solved closed form at that level show a
dash.  Everything here should sit at rounding scale (1e-15 or so); a
residual near 1e-9 would already signal a convention drift.
"""

import argparse

from verlinde.modular import MAX_REPORT_LEVEL, residual_report

COLUMNS = (
    "orthogonality",
    "symmetry",
    "pentagon",
    "yang_baxter",
    "braid_inverse",
    "braid_phase_relation",
    "s_unitarity",
    "modular_relation",
    "t_unimodularity",
    "switching",
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kmax", type=int, default=6)
    args = ap.parse_args()
    if not 1 <= args.kmax <= MAX_REPORT_LEVEL:
        ap.error(f"--kmax must be at least 1 and at most {MAX_REPORT_LEVEL}")

    header = " ".join(f"{c[:12]:>12}" for c in COLUMNS)
    print(f"{'k':>3} {header}")
    for k in range(1, args.kmax + 1):
        rep = residual_report(k)
        cells = " ".join(
            f"{'-':>12}" if rep[c] is None else f"{rep[c]:>12.2e}" for c in COLUMNS
        )
        print(f"{k:>3} {cells}")


if __name__ == "__main__":
    main()
