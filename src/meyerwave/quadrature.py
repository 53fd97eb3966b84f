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

|x| < FAR_FROM: one _GL_NODES-node Gauss-Legendre rule per branch
[c - h, c + h], summed as cos(outer(x, w)) @ (f(w) h weights) over its
nodes w.  The cosine turns through at most |x| h < 21 radians either side
of c, which 32 nodes integrate to round-off: the rule agrees with the
closed forms to ~3e-15 there, while 16 nodes would be off by ~4e-5 near
|x| = 20.

|x| >= FAR_FROM: integration by parts (Lighthill 1958, ch. 4).  Each
branch is sampled once per call at _FAR_NODES Gauss-Legendre nodes and
fitted by a Legendre polynomial p; integrating p e^{iwx} by parts until
it terminates, and summing over branches, leaves only the jumps J_k(b) =
p_left^(k)(b) - p_right^(k)(b) of p's derivatives at the branch points b,

    integral f(w) cos(wx) dw = -Re sum_b e^{ibx} sum_{k>=1} J_k(b) (i/x)^(k+1)

The k = 0 terms are dropped: the spectra are continuous, and the one
nonzero end value, at w = 0, contributes an imaginary term.  Every b is a
multiple of 2pi/3, so e^{ibx} takes x modulo 3 and stays accurate, and
finite, at any finite x; the error is relative to the t^-2 tail.  The
work per point does not depend on x.  The sum cancels once the degree
exceeds |x| h: with 16 nodes the rule still agrees with the closed forms
to ~3e-15 down to |x| = 1, but not below.  On 1 <= |x| < FAR_FROM both
families are accurate, which the verification suite uses to measure
their error.

Each rule's nodes, weights, Legendre projection and end derivatives are
built once per node count and shared, read-only, by every later call.
Both families only sample scale_spectrum, never the closed forms.

Like the closed forms, the oracles evaluate t through spectral._pointwise,
and each value has the same bits in any batch.
"""

from functools import cache

import numpy as np
from numpy.polynomial.legendre import leggauss, legder, legval, legvander

from .spectral import (_BLOCK, _PHI_ROWS, _PSI_ROWS, SQRT_2PI, _pointwise,
                       scale_spectrum)

__all__ = ["FAR_FROM", "phi_oracle", "psi_oracle"]

# Oracle points with |x| at or above this are integrated by parts, the rest
# by Gauss-Legendre.
FAR_FROM = 20.0

# Nodes per branch of the Gauss-Legendre rule.
_GL_NODES = 32

# Nodes per branch of the far rule's fit.  The spectra's Legendre
# coefficients reach round-off by degree ~13: 8 nodes leave a fit error,
# and 20 or more cancel on 1 <= |x| < 2, where the degree exceeds |x| h.
_FAR_NODES = 16

# Branch points of the integrands: spectral row edges, and 2pi for psi.
_PHI_BRANCHES = tuple(sorted({b for row in _PHI_ROWS for b in row[:2]}))
_PSI_BRANCHES = tuple(sorted({2.0 * np.pi, *(b for row in _PSI_ROWS for b in row[:2])}))


@cache
def _legendre_rule(n):
    """Read-only nodes u, weights, projection and ends of the n-node rule on
    [-1, 1]: project @ f(u) is the Legendre coefficients of f's fit, and
    ends[0] and ends[1] map those to the fit's derivatives 0..n-1 at u = -1
    and u = +1."""
    u, weights = leggauss(n)
    project = (np.arange(n) + 0.5)[:, None] * (legvander(u, n - 1).T * weights)
    ends = np.array([[legval(s, legder(np.eye(n), k)) for k in range(n)]
                     for s in (-1.0, 1.0)])
    for a in (u, weights, project, ends):
        a.flags.writeable = False
    return u, weights, project, ends


def _cos_sums(x, w, sw):
    """cos(outer(x, w)) @ sw, in blocks of at most _BLOCK elements, each row
    summed alone so that its bits do not depend on the batch."""
    out = np.empty(x.size)
    rows = max(1, _BLOCK // w.size)
    for i in range(0, x.size, rows):
        block = np.multiply.outer(x[i:i + rows], w)
        out[i:i + rows] = np.einsum("ij,j->i", np.cos(block, out=block), sw)
    return out


def _gauss_legendre_integrals(spectrum, branches, x):
    """Sum over branches of integral spectrum(w) cos(w x) dw for a 1-D x,
    by one _GL_NODES-node Gauss-Legendre rule per branch."""
    u, weights, _, _ = _legendre_rule(_GL_NODES)
    out = np.zeros(x.size)
    for lo, hi in zip(branches, branches[1:]):
        c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        w = c + h * u
        out += _cos_sums(x, w, spectrum(w) * (h * weights))
    return out


def _parts_integrals(spectrum, branches, x):
    """Sum over branches of integral spectrum(w) cos(w x) dw for a 1-D x,
    by parts from the jumps of each branch's _FAR_NODES-node fit."""
    u, _, project, ends = _legendre_rule(_FAR_NODES)
    jumps = np.zeros((len(branches), _FAR_NODES))
    for j, (lo, hi) in enumerate(zip(branches, branches[1:])):
        c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        # project first: folding ends @ project into one matrix loses digits
        coef = project @ spectrum(c + h * u)
        at = ends @ coef / h ** np.arange(_FAR_NODES)
        jumps[j] -= at[0]
        jumps[j + 1] += at[1]
    z = 1j / x
    phase = np.fmod(x, 3.0)
    out = np.zeros(x.size)
    for b, jump in zip(branches, jumps):
        term = np.exp(1j * b * phase) * np.polyval(jump[:0:-1], z)
        out -= (term * z**2).real
    return out


def _branch_integrals(spectrum, branches, x):
    """Sum over branches of integral spectrum(w) cos(w x) dw for a 1-D x:
    by parts where |x| >= FAR_FROM, Gauss-Legendre elsewhere."""
    out = np.empty(x.size)
    far = np.abs(x) >= FAR_FROM
    if far.any():
        out[far] = _parts_integrals(spectrum, branches, x[far])
    if not far.all():
        out[~far] = _gauss_legendre_integrals(spectrum, branches, x[~far])
    return out


# The oracles look scale_spectrum up in this module's globals on each call,
# so that a replaced module attribute takes effect.
def _wavelet_integrand(w):
    return scale_spectrum(0.5 * w) * scale_spectrum(w - 2.0 * np.pi)


def phi_oracle(t):
    """Scaling function by quadrature; split at the spectral branch point.

    t may be a scalar, which returns a float, or an array of any shape.
    """
    return _pointwise(lambda part: 2.0 / SQRT_2PI * _branch_integrals(
        scale_spectrum, _PHI_BRANCHES, part), t, "t")


def psi_oracle(t):
    """Wavelet by quadrature of the spectral product form.

    The integrand 2*Phi(w/2)*Phi(w - 2pi) equals 2/sqrt(2pi)*|Psi(w)| on
    the support band; the kernel cos(w (t - 1/2)) carries the half-sample
    phase of the wavelet spectrum.  t may be a scalar, which returns a
    float, or an array of any shape.
    """
    return _pointwise(lambda part: 2.0 * _branch_integrals(
        _wavelet_integrand, _PSI_BRANCHES, part - 0.5), t, "t")
