"""Time-domain closed forms and their removable singularities.

The rational expressions are 0/0 at nine points; the library returns the
analytic limit at each and stays accurate arbitrarily close to them.
"""

import numpy as np

from meyerwave import phi, psi, psi1, psi2, singular_points

print(f"phi(0)   = {phi(0.0):.12f}   (2/3 + 4/(3pi) = "
      f"{2 / 3 + 4 / (3 * np.pi):.12f})")
print(f"psi(1/2) = {psi(0.5):.12f}   (4/pi = {4 / np.pi:.12f})")
print()

print("removable singularities (point -> limit):")
for name, (pts, lims) in singular_points().items():
    for t0, lim in zip(pts, lims):
        print(f"  {name:4}  t = {t0:+.3f}  ->  {lim:+.12f}")

print()
print("approach to the phi root at t = 3/4 (no precision loss):")
for eps in (1e-2, 1e-4, 1e-6, 1e-8, 0.0):
    print(f"  phi(0.75 + {eps:8.0e}) = {phi(0.75 + eps):.15f}")

print()
fns = {"phi": phi, "psi1": psi1, "psi2": psi2, "psi": psi}
u = np.linspace(0.0, 6.0, 2001)
print("symmetries: phi even about 0, the wavelet parts even about 1/2")
print(f"  max |phi(u) - phi(-u)|          = "
      f"{np.max(np.abs(phi(u) - phi(-u))):.3e}")
print(f"  max |psi(1/2+u) - psi(1/2-u)|   = "
      f"{np.max(np.abs(psi(0.5 + u) - psi(0.5 - u))):.3e}")
