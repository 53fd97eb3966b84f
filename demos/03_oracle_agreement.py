"""Closed forms vs direct numerical inversion of the spectra.

The inverse-Fourier integrals are split at the spectral branch points and
evaluated with one fixed Gauss-Legendre rule per branch (|x| >= 20 is
integrated by parts); the closed forms should agree to round-off everywhere,
including at the removable singularities.
"""

import numpy as np

from meyerwave import phi, psi, phi_oracle, psi_oracle, singular_points

t = np.concatenate([np.linspace(-8.0, 8.0, 801),
                    [p for pts, _ in singular_points().values() for p in pts]])
phi_err = np.abs(phi(t) - phi_oracle(t))
psi_err = np.abs(psi(t) - psi_oracle(t))

print(f"grid: {len(t)} points on [-8, 8] plus the 9 singular points")
print(f"max |phi - phi_oracle| = {np.max(phi_err):.3e}")
print(f"max |psi - psi_oracle| = {np.max(psi_err):.3e}")
print()
print("spot checks:")
for v in (0.0, 0.75, 2.0):
    print(f"  phi({v}) = {phi(v):+.12f}   oracle {phi_oracle(v):+.12f}")
for v in (0.5, 1.0, 3.25):
    print(f"  psi({v}) = {psi(v):+.12f}   oracle {psi_oracle(v):+.12f}")
