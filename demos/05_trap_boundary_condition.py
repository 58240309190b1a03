"""The constant-trace / zero-mean-flux boundary pair.

This condition (a limit of diffusions with a strong drift trap inside the
obstacle) fixes an unknown constant boundary value and kills the average
flux.  With the uniform measure it decouples into a Neumann condition on the
radial sector and Dirichlet conditions above, so solutions assemble as
u = alpha v + w with alpha = -gamma/gamma1.  The sign conventions make
gamma1 positive below the well, and gamma1(0-) = 1 for the free unit ball
in three dimensions (v = 1/r).  The coupling threshold is positive exactly
when the dimension is at least three.

Run:  PYTHONPATH=src python3 demos/05_trap_boundary_condition.py
"""

import numpy as np

from betacrit import (Potential, ProblemSpec, Profile, beta_critical_fkw,
                      fkw_norm_limit, gamma1, solve_fkw, solve_v)


def main():
    pot = Potential(Profile.indicator(1.5, 2.5))
    ball3 = ProblemSpec(3, "exterior_ball", "fkw", radius=1.0)
    ball2 = ProblemSpec(2, "exterior_ball", "fkw", radius=1.0)

    v = solve_v(ball3, 0.0, pot, 0.0)
    r = np.linspace(1.0, 6.0, 6)
    print("free d=3 exterior solution with unit trace (expect 1/r):")
    for ri, vi in zip(r, v(r)):
        print(f"  v({ri:.1f}) = {vi:.8f}")
    print(f"gamma1(0-) = {gamma1(ball3, 0.0, pot, 0.0):.8f}")

    print("\ngamma1 along the energy axis (beta = 1):")
    for lam in (-20.0, -10.0, -4.5, -1.0, -1e-2, -1e-4):
        print(f"  lambda = {lam:9.4f}   gamma1 = {gamma1(ball3, 1.0, pot, lam):+.6f}")

    print("\nplanar case: gamma1 decays to zero at threshold:")
    for lam in (-1e-2, -1e-4, -1e-6, -1e-8):
        print(f"  lambda = {lam:9.1e}   gamma1 = {gamma1(ball2, 0.0, pot, lam):.6f}")

    f0 = lambda rr: np.exp(-((rr - 2.0) / 0.5) ** 2)
    sol = solve_fkw(ball3, 0.5, pot, -1.0, {0: f0})
    print(f"\nsource problem at beta = 0.5, lambda = -1: alpha = {sol.alpha:.6f}, "
          f"flux balance alpha*gamma1 + gamma = "
          f"{sol.alpha * sol.gamma1 + sol.gamma:.2e}")

    for name, prob in (("d=3", ball3), ("d=2", ball2)):
        limit = fkw_norm_limit(prob, pot, m=240, sector_max=2)
        beta = beta_critical_fkw(prob, pot, m=240, sector_max=2)
        print(f"\n{name}: norm limit {limit['verdict']}, beta_cr = {beta}")
        for l, cls in limit["sectors"].items():
            tag = cls.verdict + (" log" if cls.log_divergence else "")
            print(f"  sector {l}: {tag}, last mu0 = {cls.mu_last:.4f}")


if __name__ == "__main__":
    main()
