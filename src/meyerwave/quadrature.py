"""Inverse-Fourier quadrature oracle for the time-domain waveforms.

The closed forms in :mod:`meyerwave.closed_form` are cross-checked against
direct numerical inversion of the compactly supported spectra:

    phi(t) = 2/sqrt(2*pi) * integral_0^{4pi/3} Phi(w) cos(w t) dw
    psi(t) = 2 * integral_{2pi/3}^{8pi/3} Phi(w/2) Phi(w - 2pi)
                 cos(w (t - 1/2)) dw

Both integrands are piecewise-smooth; each integral is split at the branch
points of its integrand so that every rule sees a smooth function.  Two
independent rule families share the work, chosen per point by
x = t (phi) or x = t - 1/2 (psi):

|x| < FILON_FROM: composite Gauss-Legendre with a fixed node count per
panel and panel-count doubling until two successive refinements agree.
Points are grouped by their initial panel count ceil(|x|), which resolves
the cos(w x) oscillations.  Within a group each branch at each panel count
has one node set w, so the spectrum times the weights, sw, is computed once
per (branch, panel count) and each value is cos(x w) @ sw.  Every point
keeps its own convergence: it leaves the active set at the first doubling
that changes it by less than the tolerance, the same panel count it would
reach on its own.  Work is bounded by NODE_BUDGET nodes per panel
evaluation (one branch at one panel count).  A point whose initial panel
count already exceeds it is rejected with NodeBudgetExceeded, a
ValueError; a doubling that would exceed it raises NoConvergence.  Both
are raised before anything is allocated.

|x| >= FILON_FROM: Filon-Legendre (Filon 1928; Iserles & Norsett 2005).
Each branch [c - h, c + h] is sampled once per call at _FILON_NODES
Gauss-Legendre nodes and projected onto Legendre coefficients a_k; that
polynomial is integrated against e^{iwx} exactly,

    integral f(w) cos(w x) dw = Re[h e^{i|x|c} sum_k a_k 2 i^k j_k(|x| h)],

where |x| may stand for x because the cosine integral is even in x, and
the spherical Bessel functions j_k come from upward recurrence.  The work
per point does not depend on x, so no budget applies.  The recurrence
amplifies round-off once the degree exceeds |x| h: with 16 nodes the rule
still agrees with the closed forms to ~1e-15 down to |x| = 1, but is off
by ~1e-11 at |x| = 0.5 and by ~1e3 below it.  The crossover at 20 keeps a
wide margin, and above it the error (~1e-15) is below any configurable
tolerance, so the configuration does not change the rule's values.

Both families only sample scale_spectrum, never the closed forms.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from .spectral import SQRT_2PI, W_LO, W_MID, W_HI, scale_spectrum

__all__ = ["QuadratureConfig", "NoConvergence", "NodeBudgetExceeded",
           "NODE_BUDGET", "FILON_FROM", "integrate", "phi_oracle",
           "psi_oracle"]

# Most quadrature nodes in one panel evaluation: 32 MiB per node array.
# A Gauss-Legendre oracle point starts at no more than 20 panels of 12
# nodes, so only a doubling that fails to converge can reach it.
NODE_BUDGET = 1 << 22

# Most elements of one cos(x w) block, so a batch costs little memory; also
# the most points in one block of the Filon rule.
_COS_BLOCK = 1 << 15

# Oracle points with |x| at or above this use the Filon rule, the rest
# Gauss-Legendre.
FILON_FROM = 20.0

# Nodes per branch of the Filon rule.  The spectra's Legendre coefficients
# fall to round-off by degree ~13, and each further one only adds noise.
_FILON_NODES = 16


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tolerance: float = 1e-10
    panel_nodes: int = 12

    def __post_init__(self):
        if not self.abs_tolerance >= 1e-14:
            raise ValueError("abs_tolerance below 1e-14 is not resolvable "
                             "in double precision")
        if self.panel_nodes < 1:
            raise ValueError("panel_nodes must be positive")


class NoConvergence(RuntimeError):
    """Panel doubling reached NODE_BUDGET before the tolerance was met."""

    def __init__(self, estimate, achieved_error):
        self.estimate = estimate
        self.achieved_error = achieved_error
        super().__init__(
            f"quadrature did not converge: last estimate {estimate!r}, "
            f"last refinement change {achieved_error:.3e}")


class NodeBudgetExceeded(ValueError):
    """The initial panel count alone needs more than NODE_BUDGET nodes."""


def _panel_nodes(a, b, n_panels, nodes):
    """Nodes (n_panels, len(nodes)) of the composite rule on [a, b], and
    the half-width of its panels."""
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    mids = 0.5 * (edges[:-1] + edges[1:])
    return mids[:, None] + half * nodes[None, :], half


def _panel_sum(f, a, b, n_panels, nodes, weights):
    pts, half = _panel_nodes(a, b, n_panels, nodes)
    vals = np.broadcast_to(np.asarray(f(pts), dtype=float), pts.shape)
    return half * float(np.sum(vals * weights[None, :]))


def _refine(estimate, n, panels, cfg):
    """Converge n estimates by panel doubling, each one on its own.

    estimate(active, panels) returns the estimates of the points indexed
    by `active` at that panel count.  A point is done at the first
    doubling that changes it by less than cfg.abs_tolerance; if any point
    is left when a further doubling would exceed NODE_BUDGET, NoConvergence
    carries the latest estimate and change of the worst of them.
    """
    out = np.empty(n)
    active = np.arange(n)
    prev = estimate(active, panels)
    change = np.full(n, math.inf)
    while 2 * panels * cfg.panel_nodes <= NODE_BUDGET:
        panels *= 2
        cur = estimate(active, panels)
        change = np.abs(cur - prev)
        done = change < cfg.abs_tolerance
        out[active[done]] = cur[done]
        keep = ~done
        active, prev, change = active[keep], cur[keep], change[keep]
        if not active.size:
            return out
    worst = int(np.argmax(change))
    raise NoConvergence(float(prev[worst]), float(change[worst]))


def _check_budget(panels, cfg):
    if panels * cfg.panel_nodes > NODE_BUDGET:
        raise NodeBudgetExceeded(
            f"quadrature needs {panels} panels of {cfg.panel_nodes} nodes, "
            f"more than the budget of {NODE_BUDGET} nodes")


def integrate(f, a, b, cfg=None, initial_panels=1):
    """Integrate f over [a, b] to the configured absolute tolerance.

    f must accept ndarray arguments.  Convergence is declared when two
    successive panel-count doublings change the estimate by less than
    cfg.abs_tolerance; otherwise NoConvergence is raised carrying the last
    estimate and the achieved refinement change.
    """
    cfg = cfg or QuadratureConfig()
    if a > b:
        raise ValueError("integration bounds must satisfy a <= b")
    if a == b:
        return 0.0
    panels = max(1, int(initial_panels))
    _check_budget(panels, cfg)
    nodes, weights = leggauss(cfg.panel_nodes)
    return float(_refine(
        lambda _, n: np.array([_panel_sum(f, a, b, n, nodes, weights)]),
        1, panels, cfg)[0])


def _cos_sums(x, w, sw):
    """cos(outer(x, w)) @ sw, in blocks of at most _COS_BLOCK elements."""
    out = np.empty(x.size)
    rows = max(1, _COS_BLOCK // w.size)
    for i in range(0, x.size, rows):
        block = np.multiply.outer(x[i:i + rows], w)
        out[i:i + rows] = np.cos(block, out=block) @ sw
    return out


def _gauss_legendre_integrals(spectrum, branches, x, cfg):
    """Sum over branch panels of integral spectrum(w) cos(w x) dw for a
    1-D x, each point starting from ceil(|x|) panels to resolve the
    oscillations."""
    base = np.maximum(1.0, np.ceil(np.abs(x)))
    _check_budget(int(base.max()), cfg)
    nodes, weights = leggauss(cfg.panel_nodes)
    out = np.zeros(x.size)
    order = np.argsort(base, kind="stable")
    cuts = np.flatnonzero(np.diff(base[order])) + 1
    for group in np.split(order, cuts):
        xg = x[group]
        for lo, hi in zip(branches, branches[1:]):
            def estimate(active, panels):
                pts, half = _panel_nodes(lo, hi, panels, nodes)
                sw = (spectrum(pts) * (half * weights)).ravel()
                return _cos_sums(xg[active], pts.ravel(), sw)
            out[group] += _refine(estimate, xg.size, int(base[group[0]]),
                                  cfg)
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
    u, weights = leggauss(_FILON_NODES)
    project = (np.arange(_FILON_NODES) + 0.5)[:, None] * (
        legvander(u, _FILON_NODES - 1).T * weights)
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


def _branch_integrals(spectrum, branches, x, cfg):
    """Sum over branches of integral spectrum(w) cos(w x) dw for every x:
    Filon-Legendre where |x| >= FILON_FROM, Gauss-Legendre elsewhere.

    Returns a float for a 0-d x and an array of x's shape otherwise.
    """
    cfg = cfg or QuadratureConfig()
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("t must be finite")
    flat = arr.ravel()
    out = np.zeros(flat.size)
    far = np.abs(flat) >= FILON_FROM
    if far.any():
        out[far] = _filon_integrals(spectrum, branches, flat[far])
    if not far.all():
        out[~far] = _gauss_legendre_integrals(spectrum, branches, flat[~far],
                                              cfg)
    out = out.reshape(arr.shape)
    return out.item() if arr.ndim == 0 else out


# The oracles look scale_spectrum up in this module's globals on each call,
# so that a replaced module attribute takes effect.
def _wavelet_integrand(w):
    return scale_spectrum(0.5 * w) * scale_spectrum(w - 2.0 * np.pi)


def phi_oracle(t, cfg=None):
    """Scaling function by quadrature; split at the spectral branch point.

    t may be a scalar, which returns a float, or an array of any shape.
    """
    return 2.0 / SQRT_2PI * _branch_integrals(
        scale_spectrum, (0.0, W_LO, W_MID), t, cfg)


def psi_oracle(t, cfg=None):
    """Wavelet by quadrature of the spectral product form.

    The integrand 2*Phi(w/2)*Phi(w - 2pi) equals 2/sqrt(2pi)*|Psi(w)| on
    the support band; the kernel cos(w (t - 1/2)) carries the half-sample
    phase of the wavelet spectrum.  t may be a scalar, which returns a
    float, or an array of any shape.
    """
    x = np.asarray(t, dtype=float) - 0.5
    return 2.0 * _branch_integrals(
        _wavelet_integrand, (W_LO, W_MID, 2.0 * np.pi, W_HI), x, cfg)
