"""Wells shrinking onto the boundary: the threshold escapes to infinity.

Scale the indicator well to width 2/n and height n and slide its center to
x(n) = 1/n on the Dirichlet half-line.  The threshold then grows linearly,
beta_cr(n) = pi^2 n / 16 exactly, which both solver routes reproduce; the
admissibility bookkeeping drops any scale whose support would poke out of
the domain.

Run:  PYTHONPATH=src python3 demos/03_shrinking_wells.py
"""

import math

from betacrit import CenterPath, Profile, ScaledPotentialFamily, scaling_study_1d


def main():
    family = ScaledPotentialFamily(Profile.indicator(0.0, 1.0),
                                   CenterPath(1.0, 1.0), 1)
    study = scaling_study_1d(family, [4, 8, 16, 32, 64], m=400)
    print("    n    kernel route    direct route    pi^2 n/16     rel gap")
    for row in study.rows:
        exact = math.pi ** 2 * row["n"] / 16.0
        gap = abs(row["beta_cr_kernel"] - exact) / exact
        print(f"  {row['n']:5.0f}  {row['beta_cr_kernel']:12.6f}  "
              f"{row['beta_cr_direct']:13.6f}  {exact:11.6f}   {gap:.2e}")
    print(f"monotone increasing: {study.meta['monotone_increasing']}")

    # a path that dips outside the domain for small n gets truncated
    slow = ScaledPotentialFamily(Profile.indicator(0.0, 1.0),
                                 CenterPath(0.5, 0.5), 1)
    study = scaling_study_1d(slow, [2, 4, 8], m=300)
    print("\nslow center path x(n) = 0.5/sqrt(n):")
    for note in study.notices:
        print(f"  notice: {note}")
    for row in study.rows:
        print(f"  n = {row['n']:4.0f}  beta_cr = {row['beta_cr_kernel']:.6f} (kernel), "
              f"{row['beta_cr_direct']:.6f} (direct)")


if __name__ == "__main__":
    main()
