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
Every function of t or w in the library (nu, the spectra, the closed
forms and the oracles) takes its input through _pointwise, which rejects
it unless finite and evaluates it in blocks of _BLOCK points into one
output, so temporaries stay the size of one block at any input length.

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


# Points per pointwise block and elements per oracle cos(x w) block: 256 KiB
# per float64 temporary, so temporaries stay near 2 MB at any input length.
_BLOCK = 1 << 15


def _require_finite(part, x, name):
    """Raise unless part, a piece of the input x, is finite."""
    if not np.all(np.isfinite(part)):
        raise ValueError(f"{name} must be finite, got {x!r}")


def _pointwise(kernel, x, name):
    """kernel, a pointwise map of 1-D float arrays, applied to x block by
    block, each block rejected unless finite (x is called name), into one
    output of the kernel's dtype: a scalar for a 0-d x and an array of x's
    shape otherwise.  Each value depends only on its own point, so the
    blocks give the same bits as one call on the whole input."""
    arr = np.asarray(x, dtype=float)
    flat = arr.ravel()

    def block(start):
        part = flat[start:start + _BLOCK]
        _require_finite(part, x, name)
        return kernel(part)

    out = block(0)
    if flat.size > _BLOCK:      # more than one block: one output for all
        first, out = out, np.empty(flat.size, dtype=out.dtype)
        out[:_BLOCK] = first
        for start in range(_BLOCK, flat.size, _BLOCK):
            out[start:start + _BLOCK] = block(start)
    return out.item() if arr.ndim == 0 else out.reshape(arr.shape)


def _ramp(x):
    """nu on a 1-D float array: the one ramp of nu and of every taper."""
    return np.clip(x, 0.0, 1.0)


def nu(x):
    """Linear transition ramp: 0 below 0, identity on [0, 1], 1 above.

    Satisfies the complementarity nu(x) + nu(1 - x) = 1 on [0, 1], which is
    what makes the tapered bands below tile frequency.
    """
    return _pointwise(_ramp, x, "x")


def _angle(aw, width):
    """Taper angle pi/2 * nu(3|w|/width - 1), by nu's own _ramp."""
    return 0.5 * np.pi * _ramp(3.0 * aw / width - 1.0)


# Branch tables over |w|; at 4pi/3 both wavelet rows give 1/sqrt(2pi).
_PHI_ROWS = (
    (0.0, W_LO, lambda aw: 1.0 / SQRT_2PI),
    (W_LO, W_MID, lambda aw: np.cos(_angle(aw, 2.0 * np.pi)) / SQRT_2PI),
)
_PSI_ROWS = (
    (W_LO, W_MID, lambda aw: np.sin(_angle(aw, 2.0 * np.pi)) / SQRT_2PI),
    (W_MID, W_HI, lambda aw: np.cos(_angle(aw, 4.0 * np.pi)) / SQRT_2PI),
)


def _magnitude(rows, w):
    """The spectrum of a branch table at a 1-D w, even in w."""
    aw = np.abs(w)
    out = 0.0
    with np.errstate(over="ignore"):  # 3|w| past ~6e307, where out is 0
        for lo, hi, shape in reversed(rows):
            out = np.where((aw >= lo) & (aw <= hi), shape(aw), out)
    return out


def scale_spectrum(w):
    """Scaling-function spectrum, extended evenly to negative frequencies.

    Returns 1/sqrt(2*pi) for |w| <= 2pi/3, the cosine roll-off
    cos(pi/2 * nu(3|w|/(2pi) - 1)) / sqrt(2*pi) on the transition band,
    and 0 for |w| > 4pi/3.
    """
    return _pointwise(lambda part: _magnitude(_PHI_ROWS, part), w, "w")


def wavelet_spectrum_magnitude(w):
    """Magnitude of the wavelet spectrum; even in w, supported on [2pi/3, 8pi/3]."""
    return _pointwise(lambda part: _magnitude(_PSI_ROWS, part), w, "w")


def wavelet_spectrum(w):
    """Complex wavelet spectrum: magnitude times the phase factor exp(j*w/2).

    This is the transform of psi under the forward kernel e^{+jwt}; a DFT
    with numpy's kernel e^{-jwt} gives its conjugate.  The phase uses the
    signed frequency, so negative-frequency values are the conjugates of
    their positive counterparts (real time-domain wavelet).
    """
    return _pointwise(lambda part: _magnitude(_PSI_ROWS, part)
                      * np.exp(0.5j * part), w, "w")
