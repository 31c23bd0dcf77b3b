"""Rebuilding Weyl data from spectral data, and comparing two problems.

Two reconstruction routes are shown on the beam:

  * m_32(lambda) as a partial-fraction sum over (lambda_n, beta_n), with
    an explicit truncation-tail estimate;
  * Delta_22(lambda) as a truncated Hadamard product over its zeros,
    anchored at lambda = 0, with a relative truncation bound.

Both come with honest error estimates, so every printed error can be read
against its printed bound.  The last block runs the twin comparison: the
beam against itself (all distances zero) and against a perturbed problem
with a localized bump in q (distances clearly nonzero).
"""

import numpy as np

from quartspec import (
    BoundaryParams,
    CoefficientField,
    ProblemSpec,
    beam_problem,
    characteristic_delta,
    find_first_zeros,
    reconstruct_delta_hadamard,
    reconstruct_m32,
    twin_comparison,
    validate_problem,
    weight_numbers,
    weyl_matrix,
)

problem = beam_problem()
zeros = find_first_zeros(problem, (2, 2), 8)
points = weight_numbers(problem, zeros)
data = [(pt.lam, pt.beta) for pt in points]

print("m_32 from weight numbers (lambda = -3):")
val, tail = reconstruct_m32(data, -3.0)
ref = weyl_matrix(problem, -3.0).m[2, 1]
print(f"  partial sum  {val.real:+.8f}  (tail estimate {tail:.2e})")
print(f"  direct value {ref.real:+.8f}  (error {abs(val - ref):.2e})")

print("\nDelta_22 as an anchored Hadamard product:")
lam_zeros = [z.lam for z in zeros]
anchor = characteristic_delta(problem, 0.0, (2, 2)).value
for lam in [-10.0, 5.0, 40.0]:
    val, bound = reconstruct_delta_hadamard(lam_zeros, anchor, lam)
    ref = characteristic_delta(problem, lam, (2, 2)).value
    rel = abs(val - ref) / abs(ref)
    print(f"  lambda = {lam:6.1f}: rel error {rel:.2e}  vs bound {bound:.2e}")

print("\ntwin comparison, beam vs itself:")
rep = twin_comparison(problem, beam_problem(), data_kind="mclaughlin", count=3)
print(f"  max distance {max(rep['distances']):.2e}")

bump_q = CoefficientField([(0.0, 0.35, [0.0]), (0.35, 0.65, [0.8]), (0.65, 1.0, [0.0])])
bumped = validate_problem(ProblemSpec(p=CoefficientField.zero(), q=bump_q,
                                      boundary=BoundaryParams()))
rep = twin_comparison(problem, bumped, data_kind="mclaughlin", count=3)
print("beam vs bumped-q problem:")
print(f"  max distance {max(rep['distances']):.2e}")
