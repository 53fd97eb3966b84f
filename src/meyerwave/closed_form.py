"""Closed-form time-domain Meyer scaling function and wavelet.

Each waveform is a ratio

    [ p*y*cos(q*y) + r*sin(s*y) ] / [ d1*y + d3*y**3 ],   y = t - center,

whose cubic denominator vanishes at y = 0 and y = +/- root_offset.  All
three roots are removable: the numerator vanishes there too and the ratio
has a finite limit.  Direct floating-point evaluation loses roughly half
the mantissa within ~1e-8 of a root, so inside a guard radius the ratio is
evaluated from the Taylor expansions of numerator and denominator about
the root, with the common factor of h = y - root cancelled analytically.

Far out, where d3*y**3 overflows (|y| above ~5.6e102), the ratio is
evaluated divided through by y**3,

    [ (p*cos(q*y) + r*sin(s*y)/y) / y / y ] / [ d1/y/y + d3 ],

in which nothing overflows; it can only underflow towards 0, where the
true value lies.  Every q and s is a multiple of 2pi/3, so cos(q*y) and
sin(s*y) have period 3 in y; their phases are taken from fmod(y, 3), which
is exact, rather than from q*y, which overflows near the top of the float
range.

Limits at the roots follow from L'Hopital's rule and are computed here as
N'(root)/D'(root) rather than frozen as decimals:

  phi : t in {-3/4, 0, 3/4} -> 2/(3pi), 2/3 + 4/(3pi), 2/(3pi)
  psi1: t in {-1/4, 1/2, 5/4} -> -1/3, 4/(3pi) - 4/3, -1/3
  psi2: t in {1/8, 1/2, 7/8} -> 4/(3pi), 8/(3pi) + 4/3, 4/(3pi)
"""

from dataclasses import dataclass
from math import factorial

import numpy as np

# Within this distance of a denominator root the series path is used.  At
# the guard boundary both paths agree to ~1e-12 absolute; see the
# continuity checks in the verification suite.
GUARD_RADIUS = 1e-4
TAYLOR_ORDER = 4
_PHASE_PERIOD = 3.0      # common period in y of every cos(q*y), sin(s*y)

__all__ = [
    "GUARD_RADIUS", "TAYLOR_ORDER",
    "phi", "psi1", "psi2", "psi",
    "SingularPointTable", "singular_points",
]


class _RationalForm:
    """One trigonometric-over-cubic form with precomputed root expansions."""

    def __init__(self, center, p, q, r, s, d1, d3, root_offset):
        self.center = center
        self.p, self.q, self.r, self.s = p, q, r, s
        self.d1, self.d3 = d1, d3
        self.roots = (-root_offset, 0.0, root_offset)
        # Taylor coefficients of numerator (orders 1..TAYLOR_ORDER+1) and
        # denominator (orders 1..3) about each root, constant terms dropped:
        # both vanish identically there.
        self._series = {}
        for y0 in self.roots:
            num = tuple(self._num_deriv(y0, n) / factorial(n)
                        for n in range(1, TAYLOR_ORDER + 2))
            den = (d1 + 3.0 * d3 * y0 * y0, 3.0 * d3 * y0, d3)
            self._series[y0] = (num, den)

    def _num_deriv(self, y, n):
        """n-th derivative of p*y*cos(q*y) + r*sin(s*y) at y."""
        p, q, r, s = self.p, self.q, self.r, self.s
        half_pi = 0.5 * np.pi
        poly = p * (y * q**n * np.cos(q * y + n * half_pi)
                    + n * q ** (n - 1) * np.cos(q * y + (n - 1) * half_pi))
        return poly + r * s**n * np.sin(s * y + n * half_pi)

    def limit_at(self, y0):
        num, den = self._series[y0]
        return num[0] / den[0]

    def _series_eval(self, h, y0):
        num, den = self._series[y0]
        n_val = sum(c * h**k for k, c in enumerate(num))
        d_val = den[0] + den[1] * h + den[2] * h * h
        return n_val / d_val

    def _far_eval(self, y):
        """The ratio divided through by y**3, for |y| where y**3 overflows."""
        phase = np.fmod(y, _PHASE_PERIOD)
        num = (self.p * np.cos(self.q * phase)
               + self.r * np.sin(self.s * phase) / y) / y / y
        return num / (self.d1 / y / y + self.d3)

    def __call__(self, t):
        y = np.asarray(t, dtype=float) - self.center
        if not np.all(np.isfinite(y)):
            raise ValueError("t must be finite")
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            num = self.p * y * np.cos(self.q * y) + self.r * np.sin(self.s * y)
            den = self.d1 * y + self.d3 * y**3
            out = np.atleast_1d(num / den)
        flat_y = np.atleast_1d(y)
        if not np.all(np.isfinite(den)):
            far = ~np.isfinite(np.atleast_1d(den))
            out[far] = self._far_eval(flat_y[far])
        for y0 in self.roots:
            mask = np.abs(flat_y - y0) < GUARD_RADIUS
            if mask.any():
                out[mask] = self._series_eval(flat_y[mask] - y0, y0)
        return out.item() if np.ndim(t) == 0 else out.reshape(np.shape(t))


_PHI = _RationalForm(center=0.0, p=4.0 / 3.0, q=4.0 * np.pi / 3.0,
                     r=1.0, s=2.0 * np.pi / 3.0,
                     d1=np.pi, d3=-16.0 * np.pi / 9.0, root_offset=0.75)
_PSI1 = _RationalForm(center=0.5, p=4.0 / (3.0 * np.pi), q=2.0 * np.pi / 3.0,
                      r=-1.0 / np.pi, s=4.0 * np.pi / 3.0,
                      d1=1.0, d3=-16.0 / 9.0, root_offset=0.75)
_PSI2 = _RationalForm(center=0.5, p=8.0 / (3.0 * np.pi), q=8.0 * np.pi / 3.0,
                      r=1.0 / np.pi, s=4.0 * np.pi / 3.0,
                      d1=1.0, d3=-64.0 / 9.0, root_offset=0.375)


def phi(t):
    """Meyer scaling function.  Even, peaks at t = 0 with value 2/3 + 4/(3pi)."""
    return _PHI(t)


def psi1(t):
    """Lower-band part of the wavelet; even about t = 1/2."""
    return _PSI1(t)


def psi2(t):
    """Upper-band part of the wavelet; even about t = 1/2."""
    return _PSI2(t)


def psi(t):
    """Meyer wavelet psi1 + psi2; even about t = 1/2, psi(1/2) = 4/pi."""
    return _PSI1(t) + _PSI2(t)


@dataclass(frozen=True)
class SingularPointTable:
    """Removable singularities of the rational forms and their limits."""

    phi_singularities: tuple
    phi_limits: tuple
    psi1_singularities: tuple
    psi1_limits: tuple
    psi2_singularities: tuple
    psi2_limits: tuple

    def all_points(self):
        return (self.phi_singularities + self.psi1_singularities
                + self.psi2_singularities)


def singular_points():
    """Denominator roots (as abscissas t) with the analytic limit at each."""
    def row(form):
        points = tuple(form.center + y0 for y0 in form.roots)
        limits = tuple(form.limit_at(y0) for y0 in form.roots)
        return points, limits

    phi_pts, phi_lims = row(_PHI)
    psi1_pts, psi1_lims = row(_PSI1)
    psi2_pts, psi2_lims = row(_PSI2)
    return SingularPointTable(phi_pts, phi_lims, psi1_pts, psi1_lims,
                              psi2_pts, psi2_lims)
