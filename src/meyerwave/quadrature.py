"""Inverse-Fourier quadrature oracle for the time-domain waveforms.

The closed forms in :mod:`meyerwave.closed_form` are cross-checked against
direct numerical inversion of the compactly supported spectra:

    phi(t) = 2/sqrt(2*pi) * integral_0^{4pi/3} Phi(w) cos(w t) dw
    psi(t) = 2 * integral_{2pi/3}^{8pi/3} Phi(w/2) Phi(w - 2pi)
                 cos(w (t - 1/2)) dw

Both integrands are piecewise-smooth; each integral is split at the row
edges of the spectral branch tables, Phi's for phi and |Psi|'s plus 2pi for
psi, so that every rule sees a smooth function and every branch is 2pi/3
wide.  Two independent rule families share the work, chosen per point by
x = t (phi) or x = t - 1/2 (psi).  Both do fixed work per point, so there
is no tolerance, budget or convergence failure.

|x| < FILON_FROM: one _GL_NODES-node Gauss-Legendre rule per branch
[c - h, c + h], summed as cos(outer(x, w)) @ (f(w) h weights) over its
nodes w.  The cosine turns through at most |x| h < 21 radians either side
of c, which 32 nodes integrate to round-off: the rule agrees with the
closed forms to ~3e-15 there, while 16 nodes would be off by ~4e-5 near
|x| = 20.

|x| >= FILON_FROM: Filon-Legendre (Filon 1928; Iserles & Norsett 2005).
Each branch [c - h, c + h] is sampled once per call at _FILON_NODES
Gauss-Legendre nodes and projected onto Legendre coefficients a_k; that
polynomial is integrated against e^{iwx} exactly,

    integral f(w) cos(w x) dw = Re[h e^{i|x|c} sum_k a_k 2 i^k j_k(|x| h)],

where |x| may stand for x because the cosine integral is even in x, and
the spherical Bessel functions j_k come from upward recurrence.  The work
per point does not depend on x.  The recurrence amplifies round-off once
the degree exceeds |x| h: with 16 nodes the rule still agrees with the
closed forms to ~1e-15 down to |x| = 1, but is off by ~1e-11 at |x| = 0.5
and by ~1e3 below it.  On 1 <= |x| < FILON_FROM both families are
accurate, which the verification suite uses to measure their error.

Each rule's nodes, weights and Legendre projection are built once per
node count and shared, read-only, by every later call.  Both families
only sample scale_spectrum, never the closed forms.
"""

from functools import cache

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from .spectral import _PHI_ROWS, _PSI_ROWS, SQRT_2PI, scale_spectrum

__all__ = ["FILON_FROM", "phi_oracle", "psi_oracle"]

# Most elements of one cos(x w) block, so a batch costs little memory; also
# the most points in one block of the Filon rule.
_COS_BLOCK = 1 << 15

# Oracle points with |x| at or above this use the Filon rule, the rest
# Gauss-Legendre.
FILON_FROM = 20.0

# Nodes per branch of the Gauss-Legendre rule.
_GL_NODES = 32

# Nodes per branch of the Filon rule.  The spectra's Legendre coefficients
# fall to round-off by degree ~13, and each further one only adds noise.
_FILON_NODES = 16

# Branch points of the integrands: spectral row edges, and 2pi for psi.
_PHI_BRANCHES = tuple(sorted({b for row in _PHI_ROWS for b in row[:2]}))
_PSI_BRANCHES = tuple(sorted({2.0 * np.pi, *(b for row in _PSI_ROWS for b in row[:2])}))


@cache
def _legendre_rule(n):
    """Read-only nodes u, weights and projection of the n-node rule on
    [-1, 1]: project @ f(u) is the Legendre coefficients of f's fit."""
    u, weights = leggauss(n)
    project = (np.arange(n) + 0.5)[:, None] * (legvander(u, n - 1).T * weights)
    for a in (u, weights, project):
        a.flags.writeable = False
    return u, weights, project


def _cos_sums(x, w, sw):
    """cos(outer(x, w)) @ sw, in blocks of at most _COS_BLOCK elements."""
    out = np.empty(x.size)
    rows = max(1, _COS_BLOCK // w.size)
    for i in range(0, x.size, rows):
        block = np.multiply.outer(x[i:i + rows], w)
        out[i:i + rows] = np.cos(block, out=block) @ sw
    return out


def _gauss_legendre_integrals(spectrum, branches, x):
    """Sum over branches of integral spectrum(w) cos(w x) dw for a 1-D x,
    by one _GL_NODES-node Gauss-Legendre rule per branch."""
    u, weights, _ = _legendre_rule(_GL_NODES)
    out = np.zeros(x.size)
    for lo, hi in zip(branches, branches[1:]):
        c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        w = c + h * u
        out += _cos_sums(x, w, spectrum(w) * (h * weights))
    return out


def _bessel_sums(z, coef):
    """sum_k coef[k] i^k j_k(z) for z > 0 as (real, imaginary) parts, with
    j_k by upward recurrence, which is stable while k stays below z."""
    signed = coef * np.array([1.0, 1.0, -1.0, -1.0])[np.arange(coef.size) % 4]
    sin, cos = np.sin(z), np.cos(z)
    prev = sin / z                      # j_0
    cur = (prev - cos) / z              # j_1, without squaring a large z
    parts = [signed[0] * prev, signed[1] * cur]
    for k in range(1, coef.size - 1):
        prev, cur = cur, (2 * k + 1) / z * cur - prev
        parts[(k + 1) % 2] += signed[k + 1] * cur
    return parts


def _filon_integrals(spectrum, branches, x):
    """Sum over branches of integral spectrum(w) cos(w x) dw for a 1-D x,
    by the Filon-Legendre rule, in blocks of at most _COS_BLOCK points."""
    ax = np.abs(x)
    limit = np.finfo(float).max / branches[-1]     # so that c |x| is finite
    if ax.max() > limit:
        raise ValueError(f"t must be below {limit:.3g} in magnitude")
    u, _, project = _legendre_rule(_FILON_NODES)
    out = np.zeros(x.size)
    for lo, hi in zip(branches, branches[1:]):
        c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        coef = project @ spectrum(c + h * u)
        for i in range(0, x.size, _COS_BLOCK):
            xb = ax[i:i + _COS_BLOCK]
            re, im = _bessel_sums(h * xb, coef)
            out[i:i + _COS_BLOCK] += 2.0 * h * (np.cos(c * xb) * re
                                                - np.sin(c * xb) * im)
    return out


def _branch_integrals(spectrum, branches, x):
    """Sum over branches of integral spectrum(w) cos(w x) dw for every x:
    Filon-Legendre where |x| >= FILON_FROM, Gauss-Legendre elsewhere.

    Returns a float for a 0-d x and an array of x's shape otherwise.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("t must be finite")
    flat = arr.ravel()
    out = np.zeros(flat.size)
    far = np.abs(flat) >= FILON_FROM
    if far.any():
        out[far] = _filon_integrals(spectrum, branches, flat[far])
    if not far.all():
        out[~far] = _gauss_legendre_integrals(spectrum, branches, flat[~far])
    out = out.reshape(arr.shape)
    return out.item() if arr.ndim == 0 else out


# The oracles look scale_spectrum up in this module's globals on each call,
# so that a replaced module attribute takes effect.
def _wavelet_integrand(w):
    return scale_spectrum(0.5 * w) * scale_spectrum(w - 2.0 * np.pi)


def phi_oracle(t):
    """Scaling function by quadrature; split at the spectral branch point.

    t may be a scalar, which returns a float, or an array of any shape.
    """
    return 2.0 / SQRT_2PI * _branch_integrals(scale_spectrum, _PHI_BRANCHES, t)


def psi_oracle(t):
    """Wavelet by quadrature of the spectral product form.

    The integrand 2*Phi(w/2)*Phi(w - 2pi) equals 2/sqrt(2pi)*|Psi(w)| on
    the support band; the kernel cos(w (t - 1/2)) carries the half-sample
    phase of the wavelet spectrum.  t may be a scalar, which returns a
    float, or an array of any shape.
    """
    x = np.asarray(t, dtype=float) - 0.5
    return 2.0 * _branch_integrals(_wavelet_integrand, _PSI_BRANCHES, x)
