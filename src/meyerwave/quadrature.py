"""Inverse-Fourier quadrature oracle for the time-domain waveforms.

The closed forms in :mod:`meyerwave.closed_form` are cross-checked against
direct numerical inversion of the compactly supported spectra:

    phi(t) = 2/sqrt(2*pi) * integral_0^{4pi/3} Phi(w) cos(w t) dw
    psi(t) = 2 * integral_{2pi/3}^{8pi/3} Phi(w/2) Phi(w - 2pi)
                 cos(w (t - 1/2)) dw

Both integrands are piecewise-smooth; each integral is split at the branch
points of its integrand so that every quadrature panel sees a smooth
function.  The scheme is composite Gauss-Legendre with a fixed node count
per panel and panel-count doubling until two successive refinements agree.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .spectral import SQRT_2PI, W_LO, W_MID, W_HI, scale_spectrum

__all__ = ["QuadratureConfig", "NoConvergence", "integrate",
           "phi_oracle", "psi_oracle"]


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tolerance: float = 1e-10
    max_panel_doublings: int = 20
    panel_nodes: int = 12

    def __post_init__(self):
        if not self.abs_tolerance >= 1e-14:
            raise ValueError("abs_tolerance below 1e-14 is not resolvable "
                             "in double precision")
        if not 1 <= self.max_panel_doublings <= 30:
            raise ValueError("max_panel_doublings must be in [1, 30]")
        if self.panel_nodes < 1:
            raise ValueError("panel_nodes must be positive")


class NoConvergence(RuntimeError):
    """Panel doubling budget exhausted before the tolerance was met."""

    def __init__(self, estimate, achieved_error):
        self.estimate = estimate
        self.achieved_error = achieved_error
        super().__init__(
            f"quadrature did not converge: last estimate {estimate!r}, "
            f"last refinement change {achieved_error:.3e}")


def _panel_sum(f, a, b, n_panels, nodes, weights):
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    mids = 0.5 * (edges[:-1] + edges[1:])
    pts = mids[:, None] + half * nodes[None, :]
    vals = np.broadcast_to(np.asarray(f(pts), dtype=float), pts.shape)
    return half * float(np.sum(vals * weights[None, :]))


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
    nodes, weights = leggauss(cfg.panel_nodes)
    panels = max(1, int(initial_panels))
    prev = _panel_sum(f, a, b, panels, nodes, weights)
    change = math.inf
    for _ in range(cfg.max_panel_doublings):
        panels *= 2
        cur = _panel_sum(f, a, b, panels, nodes, weights)
        change = abs(cur - prev)
        if change < cfg.abs_tolerance:
            return cur
        prev = cur
    raise NoConvergence(prev, change)


def _branch_integral(f, branches, x, cfg):
    """Sum of the integrals of f between consecutive branch points, each
    starting from enough panels to resolve the cos(w x) oscillations."""
    base = max(1, math.ceil(abs(x)))
    return sum(integrate(f, lo, hi, cfg, base)
               for lo, hi in zip(branches, branches[1:]))


def phi_oracle(t, cfg=None):
    """Scaling function by quadrature; split at the spectral branch point."""
    t = float(t)

    def f(w):
        return scale_spectrum(w) * np.cos(w * t)

    return 2.0 / SQRT_2PI * _branch_integral(f, (0.0, W_LO, W_MID), t, cfg)


def psi_oracle(t, cfg=None):
    """Wavelet by quadrature of the spectral product form.

    The integrand 2*Phi(w/2)*Phi(w - 2pi) equals 2/sqrt(2pi)*|Psi(w)| on
    the support band; the kernel cos(w (t - 1/2)) carries the half-sample
    phase of the wavelet spectrum.
    """
    x = float(t) - 0.5

    def f(w):
        return scale_spectrum(0.5 * w) * scale_spectrum(w - 2.0 * np.pi) \
            * np.cos(w * x)

    return 2.0 * _branch_integral(f, (W_LO, W_MID, 2.0 * np.pi, W_HI), x, cfg)
