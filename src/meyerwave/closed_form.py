"""Closed-form time-domain Meyer scaling function and wavelet.

Each waveform is a ratio

    [ p*y*cos(q*y) + r*sin(s*y) ] / [ d1*y + d3*y**3 ],   y = t - center,

whose cubic denominator vanishes at y = 0 and y = +/- root_offset.  All
three roots are removable: the numerator vanishes there too and the ratio
has a finite limit.  Direct floating-point evaluation at a distance h from
a root loses ~1e-16/h absolute to cancellation (3e-13 at h = 1e-4), so
inside a guard radius of 3e-2 the ratio is evaluated from the Taylor
expansions of numerator and denominator about the root, to order
TAYLOR_ORDER, with the common factor of h cancelled analytically.  Against
50-digit references the result is within 1.3e-15 absolute at every h from
1e-7 to 3, on both sides of the guard boundary.

Everywhere else the ratio is evaluated divided through by y, with its
phases reduced,

    [ p*cos(q*ph) + r*sin(s*ph)/y ] / [ d1 + d3*y*y ],   ph = fmod(y, 3).

Every q and s is a multiple of 2pi/3, so cos(q*y) and sin(s*y) have period
3 in y, and fmod(y, 3) is exact.  The phases therefore carry round-off of
~1e-16 at any |y|; taken from q*y they would carry ~1e-16*|y|, and q*y
overflows near the top of the float range.  Nothing else can overflow:
|ph| < 3, |y| >= GUARD_RADIUS, and y*y overflowing to inf gives 0, the
true limit.

Each value depends only on its own t, so spectral._pointwise evaluates t
in blocks of spectral._BLOCK points written into one output: the
temporaries stay the size of one block at any length of t, and the bits
do not depend on it.

psi = psi1 + psi2 is evaluated in one pass: y, ph and one pre-filter of
the points near a root are computed once per block for both forms (which
share the center 1/2), and only those points are tested against each
root's guard.  The two forms also share s = 4pi/3 and have r1 = -r2
exactly, so the sine term |r|*sin(s*ph)/y is computed once and psi1 takes
its exact negation; psi is still psi1 + psi2 bit for bit.  phi, psi1 and
psi2 take the same path with one form.

Limits at the roots follow from L'Hopital's rule and are computed here as
N'(root)/D'(root) rather than frozen as decimals.  singular_points()
returns them as {name: (points, limits)}, keyed by function name:

  phi : t in {-3/4, 0, 3/4} -> 2/(3pi), 2/3 + 4/(3pi), 2/(3pi)
  psi1: t in {-1/4, 1/2, 5/4} -> -1/3, 4/(3pi) - 4/3, -1/3
  psi2: t in {1/8, 1/2, 7/8} -> 4/(3pi), 8/(3pi) + 4/3, 4/(3pi)
"""

from math import factorial

import numpy as np

from .spectral import _pointwise

# Within this distance of a denominator root the series path is used.  At
# the guard boundary the ratio's cancellation and the series' truncation
# are both below ~1.3e-15 absolute.
GUARD_RADIUS = 3e-2
TAYLOR_ORDER = 10
_PHASE_PERIOD = 3.0      # common period in y of every cos(q*y), sin(s*y)

__all__ = [
    "GUARD_RADIUS", "TAYLOR_ORDER",
    "phi", "psi1", "psi2", "psi", "singular_points",
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
        n_val = num[-1]
        for c in num[-2::-1]:           # Horner
            n_val = n_val * h + c
        d_val = den[0] + den[1] * h + den[2] * h * h
        return n_val / d_val

    def _values(self, y, phase, near, term):
        """The form at a 1-D y; near indexes every y close to a root.

        term is |r|*sin(s*phase)/y, computed once for all forms of a call,
        which share |r| and s.  This form's r*sin(s*phase)/y is term or its
        exact negation, and c - term is -term + c bit for bit."""
        out = self.p * np.cos(self.q * phase)
        if self.r < 0.0:
            out -= term
        else:
            out += term
        den = self.d3 * y      # d1 + d3*y*y, in one temporary
        den *= y
        den += self.d1
        out /= den
        for y0 in self.roots:
            h = y[near] - y0
            guarded = np.abs(h) < GUARD_RADIUS
            if guarded.any():
                out[near[guarded]] = self._series_eval(h[guarded], y0)
        return out


def _evaluate(t, forms):
    """Sum of forms that share one center, at t: a float for a 0-d t and
    an array of t's shape otherwise.  Evaluated block by block; y, its
    phase, the indices near the roots and the shared sine term are
    computed once per block for all forms."""
    # twice the guard radius, so that rounding cannot drop a guarded point
    reach = max(form.roots[-1] for form in forms) + 2.0 * GUARD_RADIUS

    def kernel(part):
        y = part - forms[0].center
        near = np.flatnonzero(np.abs(y) < reach)
        phase = np.fmod(y, _PHASE_PERIOD)
        # the forms share |r| and s (asserted below), so one term serves all
        term = abs(forms[0].r) * np.sin(forms[0].s * phase) / y
        out = forms[0]._values(y, phase, near, term)
        for form in forms[1:]:
            out += form._values(y, phase, near, term)
        return out

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _pointwise(kernel, t, "t")


_PHI = _RationalForm(center=0.0, p=4.0 / 3.0, q=4.0 * np.pi / 3.0,
                     r=1.0, s=2.0 * np.pi / 3.0,
                     d1=np.pi, d3=-16.0 * np.pi / 9.0, root_offset=0.75)
_PSI1 = _RationalForm(center=0.5, p=4.0 / (3.0 * np.pi), q=2.0 * np.pi / 3.0,
                      r=-1.0 / np.pi, s=4.0 * np.pi / 3.0,
                      d1=1.0, d3=-16.0 / 9.0, root_offset=0.75)
_PSI2 = _RationalForm(center=0.5, p=8.0 / (3.0 * np.pi), q=8.0 * np.pi / 3.0,
                      r=1.0 / np.pi, s=4.0 * np.pi / 3.0,
                      d1=1.0, d3=-64.0 / 9.0, root_offset=0.375)
# psi evaluates one sine term for both of its forms
assert _PSI1.s == _PSI2.s and _PSI1.r == -_PSI2.r


def phi(t):
    """Meyer scaling function.  Even, peaks at t = 0 with value 2/3 + 4/(3pi)."""
    return _evaluate(t, (_PHI,))


def psi1(t):
    """Lower-band part of the wavelet; even about t = 1/2."""
    return _evaluate(t, (_PSI1,))


def psi2(t):
    """Upper-band part of the wavelet; even about t = 1/2."""
    return _evaluate(t, (_PSI2,))


def psi(t):
    """Meyer wavelet psi1 + psi2; even about t = 1/2, psi(1/2) = 4/pi."""
    return _evaluate(t, (_PSI1, _PSI2))


def singular_points():
    """{name: (denominator roots as abscissas t, analytic limit at each)}."""
    return {name: (tuple(form.center + y0 for y0 in form.roots),
                   tuple(form.limit_at(y0) for y0 in form.roots))
            for name, form in (("phi", _PHI), ("psi1", _PSI1),
                               ("psi2", _PSI2))}
