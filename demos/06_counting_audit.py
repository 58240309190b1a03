"""Auditing the eigenvalue counter against the d=3 counting bound.

The number of negative eigenvalues is bounded by
C * beta^{3/2} * integral V^{3/2} in three dimensions, so a violation can
only mean a solver bug.  The audit sweeps couplings from just above the
threshold into the deep-well regime, where the count grows like beta^{3/2}.

Run:  PYTHONPATH=src python3 demos/06_counting_audit.py
"""

import numpy as np

from betacrit import Potential, ProblemSpec, Profile, clr_audit, count_negative


def main():
    problem = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0)
    pot = Potential(Profile.indicator(1.5, 2.5))

    study = clr_audit(problem, pot, [1.3, 2.0, 3.5, 8.0, 20.0, 80.0])
    print("   beta    count      bound   violated")
    for row in study.rows:
        print(f"  {row['beta']:6.1f}  {row['count']:6d}  {row['bound']:9.1f}   "
              f"{row['violated']}")
    print(f"violations: {study.meta['violations']}")

    betas = [5.0, 15.0, 50.0, 160.0, 500.0]
    counts = [count_negative(problem, pot, b) for b in betas]
    slope = np.polyfit(np.log(betas), np.log(counts), 1)[0]
    print("\ndeep-well growth:")
    for b, c in zip(betas, counts):
        print(f"  beta = {b:6.1f} -> {c:6d} eigenvalues")
    print(f"log-log slope = {slope:.3f} (3/2 is the bulk scaling)")


if __name__ == "__main__":
    main()
