"""Frequency-domain definitions of the Meyer scaling function and wavelet.

The scaling function spectrum is flat up to 2pi/3, rolls off with a cosine
taper driven by the linear ramp ``nu`` up to 4pi/3, and vanishes beyond.
The wavelet spectrum occupies the band [2pi/3, 8pi/3] with a sine taper on
the lower transition and a cosine taper on the upper one, multiplied by the
half-sample phase factor exp(j*w/2).

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


def scale_spectrum(w):
    """Scaling-function spectrum, extended evenly to negative frequencies.

    Returns 1/sqrt(2*pi) for |w| <= 2pi/3, the cosine roll-off
    cos(pi/2 * nu(3|w|/(2pi) - 1)) / sqrt(2*pi) on the transition band,
    and 0 for |w| > 4pi/3.
    """
    arr = _check_finite(w, "w")
    aw = np.abs(arr)
    with np.errstate(over="ignore"):  # 3|w| past ~6e307, where out is 0
        taper = np.cos(0.5 * np.pi * np.clip(3.0 * aw / (2.0 * np.pi) - 1.0, 0.0, 1.0))
    out = np.where(aw <= W_MID, taper / SQRT_2PI, 0.0)
    return _maybe_item(out, w)


def wavelet_spectrum_magnitude(w):
    """Magnitude of the wavelet spectrum; even in w, supported on [2pi/3, 8pi/3]."""
    arr = _check_finite(w, "w")
    aw = np.abs(arr)
    with np.errstate(over="ignore"):  # 3|w| past ~6e307, where out is 0
        lower = np.sin(0.5 * np.pi * np.clip(3.0 * aw / (2.0 * np.pi) - 1.0, 0.0, 1.0))
        upper = np.cos(0.5 * np.pi * np.clip(3.0 * aw / (4.0 * np.pi) - 1.0, 0.0, 1.0))
    # First matching band wins; at the shared edge 4pi/3 both give 1/sqrt(2pi).
    out = np.where(
        (aw >= W_LO) & (aw <= W_MID), lower / SQRT_2PI,
        np.where((aw > W_MID) & (aw <= W_HI), upper / SQRT_2PI, 0.0),
    )
    return _maybe_item(out, w)


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
