"""Discrete-grid machinery: DFT, ideal filtering, synchronous detection.

The wavelet is a band-pass waveform centred on the carrier w0 = 2pi.
Mixing it with cos(2pi t) and sin(2pi t) and low-pass filtering yields the
in-phase and quadrature baseband components s_c, s_s, from which the
wavelet is reconstructed at unit gain:

    psi(t) = s_c(t) cos(2pi t) + s_s(t) sin(2pi t)

The low-pass mask is real and even in frequency, so it maps the real and
imaginary parts of a complex input separately, and both components come
from one complex baseband, one fft/ifft pair:

    s_c(t) - j s_s(t) = LP[2 psi(t) exp(-j 2pi t)]

The Hilbert-transform variant of the same idea recovers the scaling
function directly:

    phi(t) = psi(t) cos(2pi t) + H[psi](t) sin(2pi t)

Filtering and the Hilbert transform are realised as ideal (brick-wall)
multipliers on DFT bins, so results are periodic-convolution accurate:
grids should span the waveform until its tails are negligible.  dft(s)
returns plain arrays, (bin_frequencies, coefficients), and
idft(s, coefficients) puts coefficients back on the grid of s.

A SampledSignal holds a read-only copy of its samples and cannot be
reassigned, so its Hilbert transform is computed at most once and cached
on it: scale_from_wavelet and envelope of one signal share one pair of
transforms.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

CARRIER = 2.0 * np.pi            # synchronous-detection carrier w0
# Fixed decomposition low-pass: the mixed baseband [-4pi/3, 2pi/3] and its
# image [-14pi/3, -8pi/3] separate at any cutoff in [4pi/3, 8pi/3); 2pi is
# the midpoint.
CUTOFF = 2.0 * np.pi
MAX_GRID_DT = 3.0 / 8.0          # Nyquist must exceed the 8pi/3 band edge
INTERIOR_FRACTION = 0.8          # window used when quoting interior errors
# The Hilbert multiplier -j sign(w) on the DC, positive and negative bins,
# with the bits that -1j * np.sign(freqs) gives them (the DC one is 0 - 0j)
_DC, _MINUS_J, _PLUS_J = -1j * np.array([0.0, 1.0, -1.0])

__all__ = [
    "CARRIER", "CUTOFF", "MAX_GRID_DT", "INTERIOR_FRACTION",
    "InvalidGrid", "SampledSignal", "sample", "require_fine_grid",
    "dft", "idft", "hilbert",
    "decompose_quadrature", "reconstruct_quadrature",
    "scale_from_wavelet", "envelope", "interior_slice",
]


class InvalidGrid(ValueError):
    pass


@dataclass(frozen=True)
class SampledSignal:
    """Uniformly sampled real waveform; sample k sits at t0 + k*dt.

    The samples are a read-only copy of the array passed in, so a cached
    Hilbert transform always belongs to them.
    """

    t0: float
    dt: float
    samples: np.ndarray

    def __post_init__(self):
        samples = np.array(self.samples, dtype=float)
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        if not np.isfinite(self.t0):
            raise InvalidGrid(f"t0 must be finite, got {self.t0}")
        if not 0.0 < self.dt < np.inf:
            raise InvalidGrid(f"dt must be positive and finite, got {self.dt}")
        if self.samples.ndim != 1 or self.samples.size < 2:
            raise InvalidGrid("need at least two samples")
        if not np.all(np.isfinite(self.samples)):
            raise InvalidGrid("samples must be finite")

    @property
    def times(self):
        return _grid(self.t0, self.dt, self.samples.size)

    def same_grid(self, other):
        return (self.t0 == other.t0 and self.dt == other.dt
                and self.samples.size == other.samples.size)

    def replace_samples(self, samples):
        return SampledSignal(self.t0, self.dt, samples)

    @cached_property
    def _hilbert(self):
        """hilbert(self), computed on first use."""
        _require_finite_bins(self)
        # fft, multiplier and ifft all run in one complex buffer: measured
        # at n = 524,289, this and decompose_quadrature's one buffer cut
        # perfbench's decompose peak RSS from 144.8-152.6 to 131.5-131.7 MiB.
        n = self.samples.size
        c = self.samples.astype(complex)
        np.fft.fft(c, out=c)
        c[0] *= _DC
        c[1:(n + 1) // 2] *= _MINUS_J
        c[(n + 1) // 2:] *= _PLUS_J
        np.fft.ifft(c, out=c)
        return self.replace_samples(c.real)


def _grid(t0, dt, stop, start=0):
    """t0 + dt * np.arange(start, stop), bit for bit, with no full-length
    temporary: points start .. stop - 1 of the grid, the same bits in any
    block."""
    t = np.arange(start, stop, dtype=float)
    t *= dt
    t += t0
    return t


def sample(f, t0, dt, n):
    """Sample a function of time on a uniform grid of n points."""
    return SampledSignal(t0, dt, f(_grid(t0, dt, n)))


def _require_finite_bins(s):
    """Raise InvalidGrid unless every DFT bin frequency of s is finite."""
    # A step so small that 1/(n*dt) overflows gives infinite bins and a NaN
    # DC bin (0 * inf); no filter or multiplier means anything on them.
    # The top bin, n//2 steps of 1/(n*dt) rounded as fftfreq rounds it, is
    # the largest, so it is finite exactly when every bin is.
    n = s.samples.size
    if not math.isfinite(2.0 * np.pi * (n // 2 * (1.0 / (n * float(s.dt))))):
        raise InvalidGrid(f"dt={s.dt} is too small: the DFT bin "
                          f"frequencies are not finite")


def _bin_frequencies(s):
    """Signed angular frequencies of the DFT bins of s, rad/unit time."""
    _require_finite_bins(s)
    return 2.0 * np.pi * np.fft.fftfreq(s.samples.size, s.dt)


def dft(s):
    """(bin_frequencies, coefficients) of s; frequencies in rad/unit time."""
    return _bin_frequencies(s), np.fft.fft(s.samples)


def idft(s, coefficients):
    """The signal on the grid of s whose DFT is coefficients."""
    # Inputs in this library are conjugate-symmetric; the imaginary residue
    # is FFT round-off and is dropped.
    return s.replace_samples(np.fft.ifft(coefficients).real)


def hilbert(s):
    """Discrete Hilbert transform via the +/-90 degree DFT multiplier.

    Positive-frequency bins are rotated by -j, negative by +j, and the DC
    bin is zeroed.  For even lengths the Nyquist bin, which fftfreq counts
    as negative, becomes purely imaginary; only the real part of the
    inverse transform is kept, so it drops out.  The fft, the multiplier
    and the ifft run in place on one complex copy of the samples.  The
    result is cached on s: a second call on the same signal returns it
    without a transform.
    """
    return s._hilbert


def require_fine_grid(s):
    """Raise InvalidGrid unless s resolves the wavelet's 8pi/3 band edge."""
    if s.dt >= MAX_GRID_DT:
        raise InvalidGrid(
            f"dt={s.dt} cannot represent the 8pi/3 band edge; need dt < 3/8")


def decompose_quadrature(psi_s):
    """Split the band-pass wavelet into baseband in-phase/quadrature parts.

    The mixer halves the baseband amplitude, so the product is doubled
    before filtering; reconstruct_quadrature is then unit-gain.  Both
    components come from one low-passed complex baseband,
    s_c - j s_s = LP[2 psi exp(-j w0 t)], at the true grid abscissas,
    where LP cuts at CUTOFF.
    """
    require_fine_grid(psi_s)
    beyond = np.abs(_bin_frequencies(psi_s)) > CUTOFF
    # The angle is formed in place, and fft, mask and ifft all run in mixed.
    # Measured at n = 524,289, this and hilbert's one buffer cut perfbench's
    # decompose peak RSS from 144.8-152.6 to 131.5-131.7 MiB.
    angle = psi_s.times
    angle *= CARRIER
    mixed = np.empty(angle.size, dtype=complex)
    mixed.real = np.cos(angle)
    mixed.imag = -np.sin(angle)
    mixed *= 2.0 * psi_s.samples
    np.fft.fft(mixed, out=mixed)
    mixed[beyond] = 0.0
    np.fft.ifft(mixed, out=mixed)
    return (psi_s.replace_samples(mixed.real),
            psi_s.replace_samples(-mixed.imag))


def reconstruct_quadrature(s_c, s_s):
    """Remodulate baseband components back onto the carrier."""
    if not s_c.same_grid(s_s):
        raise InvalidGrid("s_c and s_s must share the sampling grid")
    t = s_c.times
    out = s_c.samples * np.cos(CARRIER * t) + s_s.samples * np.sin(CARRIER * t)
    return s_c.replace_samples(out)


def scale_from_wavelet(psi_s):
    """Recover the scaling function from the wavelet and its Hilbert pair."""
    require_fine_grid(psi_s)
    return reconstruct_quadrature(psi_s, hilbert(psi_s))


def envelope(s):
    """Instantaneous amplitude sqrt(s^2 + H[s]^2) of the analytic signal."""
    h = hilbert(s).samples
    return s.replace_samples(np.sqrt(s.samples**2 + h**2))


def interior_slice(n):
    """Index slice excluding the DFT wrap-around margins at both ends."""
    margin = int(round(0.5 * (1.0 - INTERIOR_FRACTION) * n))
    return slice(margin, n - margin)
