"""Discrete-grid machinery: ideal filtering, synchronous detection.

The wavelet is a band-pass waveform centred on the carrier w0 = 2pi.
Mixing it with cos(2pi t) and sin(2pi t) and low-pass filtering yields the
in-phase and quadrature baseband components

    s_c(t) = LP[2 psi(t) cos(2pi t)],    s_s(t) = LP[2 psi(t) sin(2pi t)],

from which the wavelet is reconstructed at unit gain:

    psi(t) = s_c(t) cos(2pi t) + s_s(t) sin(2pi t)

The Hilbert-transform variant of the same idea recovers the scaling
function directly:

    phi(t) = psi(t) cos(2pi t) + H[psi](t) sin(2pi t)

Filtering and the Hilbert transform are ideal (brick-wall) multipliers on
the DFT bins, so results are periodic-convolution accurate: grids should
span the waveform until its tails are negligible.  Every transform here is
a circular convolution with a multiplier's closed-form impulse response,
a Dirichlet kernel for the low-pass and a cotangent kernel for the
Hilbert transform.  The circular convolution of n points is a linear one
zero-padded to a length m >= 2n - 1 (Stockham, AFIPS 1966), and m is the
smallest with no prime factor above 5, so only fast real FFTs run.  The
grids here have odd lengths 2 span/dt + 1, often with a large prime factor
(2,049 = 3 * 683); a transform of such a length n would run by Bluestein's
algorithm, itself two transforms of a length of at least 2n - 1.

A SampledSignal holds a read-only copy of its samples and cannot be
reassigned, so its Hilbert transform is computed at most once and cached
on it: scale_from_wavelet and envelope of one signal share one
convolution.  A copy of 128 KiB or more lies in an anonymous memory map
of its own, off the C heap: there, long-lived copies split the room that
the transforms' 8 MiB buffers reuse, and peak memory moved by 5 MiB from
run to run.
"""

import math
import mmap
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
# samples this large get a map of their own (module docstring); Linux only
_OWN_MAP_BYTES = 1 << 17 if hasattr(mmap, "MAP_POPULATE") else math.inf

__all__ = [
    "CARRIER", "CUTOFF", "MAX_GRID_DT", "INTERIOR_FRACTION",
    "InvalidGrid", "SampledSignal", "sample", "require_fine_grid",
    "hilbert",
    "decompose_quadrature", "reconstruct_quadrature",
    "scale_from_wavelet", "envelope", "interior_slice",
]


class InvalidGrid(ValueError):
    pass


def _own_map(nbytes):
    """nbytes in a private anonymous map, its pages faulted in at once."""
    return mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
                     | mmap.MAP_POPULATE)


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
        given = np.asarray(self.samples, dtype=float)
        samples = np.ndarray(given.shape, buffer=_own_map(given.nbytes)
                             if given.nbytes >= _OWN_MAP_BYTES else None)
        samples[...] = given
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
        # The kernel is odd, so its gain is imaginary: the real gain is its
        # imaginary part, and the spectrum is turned by 1j in place.  The
        # gain is freed before the inverse transform and the spectrum before
        # replace_samples copies the result, so at most two full-length
        # complex arrays are held at once.
        n = self.samples.size
        m = _fast_size(2 * n - 1)
        gain = np.fft.rfft(_wrapped(_hilbert_kernel(n), m)).imag.copy()
        spectrum = np.fft.rfft(self.samples, m)
        spectrum *= gain
        del gain
        spectrum *= 1j
        out = np.fft.irfft(spectrum, m)
        del spectrum
        return self.replace_samples(out[:n])


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


def _cutoff_bin(s):
    """The last nonnegative DFT bin of s at or below CUTOFF.

    The low-pass keeps it, the bins below it and their mirrors: the mask is
    monotone in |bin|, and an even n's Nyquist bin lies beyond CUTOFF on a
    fine grid.  Each frequency is rounded as fftfreq rounds it.
    """
    n = s.samples.size
    freqs = 2.0 * np.pi * (np.arange((n + 1) // 2) * (1.0 / (n * s.dt)))
    return np.count_nonzero(freqs <= CUTOFF) - 1


def _fast_size(size):
    """The smallest 2^a 3^b 5^c that is at least size."""
    best = 1 << (size - 1).bit_length()
    p35 = 1
    while p35 < best:
        p = p35
        while p < best:
            best = min(best, p << (-(-size // p) - 1).bit_length())
            p *= 3
        p35 *= 5
    return best


def _hilbert_kernel(n):
    """Impulse response of hilbert's DFT multiplier on n points, the
    Nyquist bin of an even n dropped:

        odd n:  h[k] = cot(pi k / 2n) / n (odd k), -tan(pi k / 2n) / n (even k)
        even n: h[k] = 2 cot(pi k / n) / n (odd k), 0 (even k)

    h[0] = 0 and h[n - k] = -h[k]; only k < n/2 are evaluated.
    """
    h = np.zeros(n)
    k = np.arange(1, (n + 1) // 2)
    odd = k % 2 == 1
    if n % 2:
        tan = np.tan(np.pi / (2 * n) * k)
        half = np.where(odd, 1.0 / tan, -tan)
    else:
        half = np.where(odd, 2.0 / np.tan(np.pi / n * k), 0.0)
    half /= n
    h[k] = half
    h[n - k] = -half
    return h


def _lowpass_kernel(n, top):
    """Impulse response of the mask that keeps bins -top..top of n: the
    Dirichlet kernel sin(pi (2 top + 1) k / n) / (n sin(pi k / n)), even in
    k.  Only k <= n/2 are evaluated, and the numerator's angle is reduced
    exactly to [-pi/2, pi/2], so no sine is taken near pi."""
    d = np.empty(n)
    k = np.arange(1, n // 2 + 1)
    r = (2 * top + 1) * k % (2 * n)
    r = np.where(r > n, r - 2 * n, r)
    r = np.where(np.abs(r) > n / 2, np.sign(r) * n - r, r)
    d[0] = (2 * top + 1) / n
    d[k] = np.sin(np.pi / n * r) / (n * np.sin(np.pi / n * k))
    d[n - k] = d[k]
    return d


def _wrapped(h, m):
    """h wrapped into m >= 2n - 1 points: its circular convolution with a
    zero-padded x is, on the first n points, h's circular convolution with
    x."""
    g = np.zeros(m)
    g[:h.size] = h
    g[m - h.size + 1:] = h[1:]
    return g


def _lowpass(x, gain, m):
    """x convolved with the kernel whose rfft over m points is gain."""
    spectrum = np.fft.rfft(x, m)
    spectrum *= gain
    return np.fft.irfft(spectrum, m)[:x.size]


def hilbert(s):
    """Discrete Hilbert transform via the +/-90 degree DFT multiplier.

    Positive-frequency bins are rotated by -j, negative by +j, and the DC
    bin is zeroed.  For even lengths the Nyquist bin, which fftfreq counts
    as negative, would become purely imaginary and drop out of the real
    result, so the kernel leaves it out.  The multiplier is applied as a
    zero-padded convolution with its impulse response.  The result is
    cached on s: a second call on the same signal returns it without a
    transform.
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
    before filtering; reconstruct_quadrature is then unit-gain.  The
    components are two real low-passes, s_c = LP[2 psi cos w0 t] and
    s_s = LP[2 psi sin w0 t], at the true grid abscissas, where LP keeps
    the DFT bins at or below CUTOFF.  They share one kernel and its gain.
    """
    require_fine_grid(psi_s)
    _require_finite_bins(psi_s)
    n = psi_s.samples.size
    # The kernel is even, so its gain is real.  The angle becomes the sine
    # mixer in place, and each spectrum is freed before replace_samples
    # copies its result, so at most 3.5 full-length complex arrays are held
    # at once.
    m = _fast_size(2 * n - 1)
    top = _cutoff_bin(psi_s)
    gain = np.fft.rfft(_wrapped(_lowpass_kernel(n, top), m)).real.copy()
    angle = psi_s.times
    angle *= CARRIER
    mixed = np.cos(angle)
    mixed *= psi_s.samples
    mixed *= 2.0
    s_c = psi_s.replace_samples(_lowpass(mixed, gain, m))
    del mixed
    mixed = np.sin(angle, out=angle)
    mixed *= psi_s.samples
    mixed *= 2.0
    return s_c, psi_s.replace_samples(_lowpass(mixed, gain, m))


def reconstruct_quadrature(s_c, s_s):
    """Remodulate baseband components back onto the carrier."""
    if not s_c.same_grid(s_s):
        raise InvalidGrid("s_c and s_s must share the sampling grid")
    angle = CARRIER * s_c.times
    out = s_c.samples * np.cos(angle) + s_s.samples * np.sin(angle)
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
