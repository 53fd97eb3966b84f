"""Frequency-domain definitions of the Meyer scaling function and wavelet.

The scaling function spectrum is flat up to 2pi/3, rolls off with a cosine
taper driven by the linear ramp ``nu`` up to 4pi/3, and vanishes beyond.
The wavelet spectrum occupies the band [2pi/3, 8pi/3] with a sine taper on
the lower transition and a cosine taper on the upper one, multiplied by the
half-sample phase factor exp(j*w/2).

Each spectrum is one branch table over |w| (_PHI_ROWS, _PSI_ROWS) of rows
(lo, hi, shape): the first row holding |w| wins, and outside every row the
spectrum is 0.  The quadrature oracle splits at the row edges, and the
check branch_continuity compares neighbouring rows at their shared edge.

Transform convention: the spectra are (1/sqrt(2pi)) integral f(t) e^{+jwt}
dt, so f(t) = (1/sqrt(2pi)) integral F(w) e^{-jwt} dw.  Under this forward
kernel the wavelet, even about t = 1/2, has the phase exp(+j*w/2).  numpy's
DFT uses the kernel e^{-jwt}, so a scaled DFT of sampled psi gives the
conjugate of wavelet_spectrum.

All band edges and amplitudes are derived from the runtime value of pi so
that the spectral identities (partition of unity, two-scale tiling, the
product identity) hold to machine precision.
"""

import numpy as np

SQRT_2PI = float(np.sqrt(2.0 * np.pi))  # a float, as scalar results are

# Band edges of the piecewise-trigonometric spectra.
W_LO = 2.0 * np.pi / 3.0   # end of the flat scale band / start of wavelet support
W_MID = 4.0 * np.pi / 3.0  # scale support edge / wavelet band split
W_HI = 8.0 * np.pi / 3.0   # wavelet support edge

__all__ = [
    "SQRT_2PI", "W_LO", "W_MID", "W_HI",
    "nu", "scale_spectrum", "wavelet_spectrum", "wavelet_spectrum_magnitude",
]


def _check_finite(x, name):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return arr


def _maybe_item(out, x):
    return out.item() if np.ndim(x) == 0 else out


def nu(x):
    """Linear transition ramp: 0 below 0, identity on [0, 1], 1 above.

    Satisfies the complementarity nu(x) + nu(1 - x) = 1 on [0, 1], which is
    what makes the tapered bands below tile frequency.
    """
    arr = _check_finite(x, "x")
    return _maybe_item(np.clip(arr, 0.0, 1.0), x)


def _angle(aw, width):
    """Taper angle pi/2 * nu(3|w|/width - 1), with nu inlined as a clip."""
    return 0.5 * np.pi * np.clip(3.0 * aw / width - 1.0, 0.0, 1.0)


# Branch tables over |w|; at 4pi/3 both wavelet rows give 1/sqrt(2pi).
_PHI_ROWS = (
    (0.0, W_LO, lambda aw: 1.0 / SQRT_2PI),
    (W_LO, W_MID, lambda aw: np.cos(_angle(aw, 2.0 * np.pi)) / SQRT_2PI),
)
_PSI_ROWS = (
    (W_LO, W_MID, lambda aw: np.sin(_angle(aw, 2.0 * np.pi)) / SQRT_2PI),
    (W_MID, W_HI, lambda aw: np.cos(_angle(aw, 4.0 * np.pi)) / SQRT_2PI),
)


def _evaluate(rows, w):
    """The spectrum of a branch table at w, even in w."""
    aw = np.abs(_check_finite(w, "w"))
    out = 0.0
    with np.errstate(over="ignore"):  # 3|w| past ~6e307, where out is 0
        for lo, hi, shape in reversed(rows):
            out = np.where((aw >= lo) & (aw <= hi), shape(aw), out)
    return _maybe_item(out, w)


def scale_spectrum(w):
    """Scaling-function spectrum, extended evenly to negative frequencies.

    Returns 1/sqrt(2*pi) for |w| <= 2pi/3, the cosine roll-off
    cos(pi/2 * nu(3|w|/(2pi) - 1)) / sqrt(2*pi) on the transition band,
    and 0 for |w| > 4pi/3.
    """
    return _evaluate(_PHI_ROWS, w)


def wavelet_spectrum_magnitude(w):
    """Magnitude of the wavelet spectrum; even in w, supported on [2pi/3, 8pi/3]."""
    return _evaluate(_PSI_ROWS, w)


def wavelet_spectrum(w):
    """Complex wavelet spectrum: magnitude times the phase factor exp(j*w/2).

    This is the transform of psi under the forward kernel e^{+jwt}; a DFT
    with numpy's kernel e^{-jwt} gives its conjugate.  The phase uses the
    signed frequency, so negative-frequency values are the conjugates of
    their positive counterparts (real time-domain wavelet).
    """
    arr = _check_finite(w, "w")
    out = wavelet_spectrum_magnitude(arr) * np.exp(0.5j * arr)
    return _maybe_item(np.asarray(out), w)
