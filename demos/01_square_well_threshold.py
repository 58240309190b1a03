"""Three routes to the same coupling threshold.

The Dirichlet half-line with an indicator well on [1, 2] has a closed-form
threshold: the zero-energy matching condition k + arctan(k) = pi/2 gives
beta_cr = k^2.  The kernel route (largest eigenvalue of the sandwiched
resolvent at zero energy) and the direct route (the coupling at which the
zero-energy Pruefer angle reaches its target, where the negative-eigenvalue
count first rises) must land on the same number.

Run:  PYTHONPATH=src python3 demos/01_square_well_threshold.py
"""

import math

from scipy.optimize import brentq

from betacrit import (ProblemSpec, Potential, Profile, beta_critical,
                      beta_critical_direct, count_negative,
                      crosscheck_birman_schwinger, eigenfunction,
                      ground_state)


def main():
    problem = ProblemSpec(1, "half_line", "dirichlet")
    well = Potential(Profile.indicator(1.0, 2.0))

    k = brentq(lambda k: k + math.atan(k) - math.pi / 2, 0.1, 2.0)
    exact = k * k
    print(f"closed form          beta_cr = {exact:.8f}   (k = {k:.6f})")

    kernel = beta_critical(problem, well, method="limit-kernel", m=400)
    print(f"kernel eigenvalue    beta_cr = {kernel:.8f}   "
          f"(rel err {abs(kernel - exact) / exact:.1e})")

    direct = beta_critical_direct(problem, well)
    print(f"zero-energy angle    beta_cr = {direct:.8f}   "
          f"(rel err {abs(direct - exact) / exact:.1e})")

    print("\ncounts around the threshold:")
    for factor in (0.9, 1.1):
        n = count_negative(problem, well, factor * exact)
        print(f"  beta = {factor:.1f} * beta_cr -> {n} negative eigenvalue(s)")
    print(f"  beta = 100          -> {count_negative(problem, well, 100.0)} "
          "negative eigenvalues (4 threshold crossings)")

    print("\neigenvalue / kernel-eigenvalue correspondence:")
    print("  beta    lambda0       beta*mu0(lambda0)-1")
    for row in crosscheck_birman_schwinger(problem, well, [1.0, 2.0, 4.0]):
        print(f"  {row['beta']:4.1f}  {row['lambda0']:+.8f}   {row['residual']:.2e}")

    lam0 = ground_state(problem, well, 4.0)
    mesh, u = eigenfunction(problem, well, 4.0, lam0)
    print(f"\nground state at beta = 4: lambda0 = {lam0:.8f}, "
          f"profile peak at r = {mesh[u.argmax()]:.3f}")


if __name__ == "__main__":
    main()
