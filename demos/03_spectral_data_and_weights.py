"""Norming constants, weight matrices and eigenvalue classification.

For each beam eigenvalue lambda_n the eigenfunction normalised by
int_0^1 y^2 dx = 1 yields the pair (gamma_n, xi_n) of end values at x = 0
and the number beta_n = -gamma_n^2.  The free-clamped beam is the classic
example where |gamma_n| = 2 for every n.  gamma_n and xi_n come from the bridge
identities Delta_32(lambda_n) = Delta_22'(lambda_n) gamma_n^2 and
Delta_42(lambda_n) = Delta_22'(lambda_n) xi_n gamma_n, read from the wedges
the searched zero carries; beta_residual, |beta_n + gamma_n xi_n / m43|,
checks them against the m43 of the zero's C(1).

The same beta_n shows up as a residue: the Weyl matrix M(lambda) has a
simple pole at lambda_n and the (3,2) entry of its residue equals beta_n.
The weight matrix N(lambda_n) = M_<0>^{-1} M_<-1> built from the Laurent
coefficients always lands in one of five sparsity patterns; here every
eigenvalue is case (I), the generic one with only the (3,2) slot filled.
"""

import numpy as np

from quartspec import (
    beam_problem,
    classify_on_problem,
    find_first_zeros,
    verify_weight_structure,
    weight_matrix,
    weight_numbers,
)

problem = beam_problem()
zeros = find_first_zeros(problem, (2, 2), 4)
points = weight_numbers(problem, zeros)

print("n   gamma_n        xi_n           beta_n      beta_residual  case")
for n, pt in enumerate(points, 1):
    tag = classify_on_problem(problem, pt)
    print(f"{n}  {pt.gamma.real:+.8f}  {pt.xi.real:+.8f}  {pt.beta.real:+.6f}"
          f"   {pt.beta_residual:.1e}        ({tag})")

print("\nweight matrix at lambda_1 (real parts):")
w = weight_matrix(problem, zeros[0].lam, nearby_zeros=[z.lam for z in zeros])
with np.printoptions(precision=4, suppress=True):
    print(w.n.real)

report = verify_weight_structure(w, points[0])
print("\nstructural residuals for case (%s):" % report["case"])
for name, res in report["checks"].items():
    print(f"  {name}: {res:.3e}")
