"""The Weyl matrix of a problem with variable coefficients.

Builds M(lambda) for a problem with smooth p, q and nonzero boundary
parameters, then exercises the structural identities that hold for every
lambda away from poles:

  * M is unit lower triangular,
  * m_21 = m_43,
  * m_31 - m_21 m_32 + m_42 = 0,
  * M(lambda)^{-1} agrees with the direct inverse formula.

For the beam these entries have closed forms; the last block compares
m_43 against -rho (cosh rho + cos rho) / (sinh rho + sin rho).
"""

import cmath

import numpy as np

from quartspec import (
    BoundaryParams,
    CoefficientField,
    ProblemSpec,
    beam_problem,
    validate_problem,
    weyl_inverse,
    weyl_matrix,
)

xs = np.linspace(0.0, 1.0, 9)
p = CoefficientField.from_samples(0.6 * np.sin(np.pi * xs))
q = CoefficientField.from_samples(1.0 - xs**2)
problem = validate_problem(
    ProblemSpec(p=p, q=q, boundary=BoundaryParams(0.3, -0.2, 0.1)))

print("identity residuals on a lambda grid")
print("lambda    |m21-m43|     |m31-m21*m32+m42|   |M Minv - I|")
for lam in [-40.0, -5.0, 3.0, 17.0, 120.0]:
    sample = weyl_matrix(problem, lam)
    m = sample.m
    r1 = abs(m[1, 0] - m[3, 2])
    r2 = abs(m[2, 0] - m[1, 0] * m[2, 1] + m[3, 1])
    minv = weyl_inverse(sample)
    r3 = np.max(np.abs(m @ minv - np.eye(4)))
    print(f"{lam:8.1f}  {r1:.3e}     {r2:.3e}           {r3:.3e}")

print("\nbeam m_43 against its closed form")
beam = beam_problem()
for lam in [5.0, 60.0, 300.0]:
    rho = lam**0.25
    ref = -rho * (cmath.cosh(rho) + cmath.cos(rho)) / (cmath.sinh(rho) + cmath.sin(rho))
    got = weyl_matrix(beam, lam).m[3, 2]
    print(f"lambda = {lam:6.1f}: m_43 = {got.real:+.10f}, closed form {ref.real:+.10f}")
