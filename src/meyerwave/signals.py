"""Discrete-grid machinery: ideal filtering, synchronous detection.

The wavelet is a band-pass waveform centred on the carrier w0 = 2pi.
Mixing it with cos(2pi t) and sin(2pi t) and low-pass filtering yields the
in-phase and quadrature baseband components

    s_c(t) = LP[2 psi(t) cos(2pi t)],    s_s(t) = LP[2 psi(t) sin(2pi t)],

from which the wavelet is reconstructed at unit gain:

    psi(t) = s_c(t) cos(2pi t) + s_s(t) sin(2pi t)

The Hilbert-transform variant of the same idea, scale_from_wavelet,
remodulates the wavelet with its Hilbert pair:

    psi(t) cos(2pi t) + H[psi](t) sin(2pi t)

The paper equates this with the scaling function phi(t).  The identity is
one of its known deviations: verify's scale_identity_closure measures
2.09 against a tolerance of 1e-3 (README, "Known measured deviations").

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

decompose_quadrature low-passes both mixed products in one transform of
psi: it convolves psi with the Dirichlet kernel modulated by the carrier,
whose even and odd parts take their gains from one kernel transform, and
demodulates the two results at the grid.  The carrier, cos and sin of
2pi t on a grid, is built by angle addition from tables of block starts
and offsets (_carrier).

A SampledSignal holds a read-only copy of its samples and cannot be
reassigned, so its Hilbert transform is computed at most once and cached
on it: scale_from_wavelet and envelope of one signal share one
convolution.  Arrays made here are handed to their results without a
second copy.

Each transform allocates one workspace first and keeps its spectrum-sized
intermediates in it through out=, so glibc's malloc no longer trims the
heap and faults it back in between transforms (mallopt(3)): a warm
span-4096 decompose request took 8,174 minor faults, against 40,243, at
the same output bits.  Expect no gain, and no loss, on other allocators.
"""

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
_CARRIER_BLOCK = 1024            # carrier points that share one block start

__all__ = [
    "CARRIER", "CUTOFF", "MAX_GRID_DT", "INTERIOR_FRACTION",
    "InvalidGrid", "SampledSignal", "sample", "require_fine_grid",
    "hilbert",
    "decompose_quadrature", "reconstruct_quadrature",
    "scale_from_wavelet", "envelope", "interior_slice",
]


class InvalidGrid(ValueError):
    pass


@dataclass(frozen=True)
class SampledSignal:
    """Uniformly sampled real waveform; sample k sits at t0 + k*dt.

    The samples are a read-only copy of the array passed in, so a cached
    Hilbert transform always belongs to them.  The transforms here hand
    the arrays they make to their results uncopied, read-only too.
    """

    t0: float
    dt: float
    samples: np.ndarray

    def __post_init__(self):
        self._hold(np.array(self.samples, dtype=float))

    def _hold(self, samples):
        """Take samples, a float array that nothing else writes, as this
        signal's read-only samples, and validate the signal."""
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

    def _adopt(self, samples):
        """replace_samples without the copy, for a new float array that this
        module has just made and keeps no other reference to."""
        out = object.__new__(SampledSignal)
        object.__setattr__(out, "t0", self.t0)
        object.__setattr__(out, "dt", self.dt)
        out._hold(samples)
        return out

    @cached_property
    def _hilbert(self):
        """hilbert(self), computed on first use."""
        # One workspace of m doubles, allocated before any other full-length
        # array (module docstring), holds in turn the wrapped kernel, the
        # gain and the inverse transform.  The kernel is odd, so its gain is
        # imaginary: the real gain is its imaginary part, and the spectrum
        # is turned by 1j in place.
        n = self.samples.size
        m = _fast_size(2 * n - 1)
        work = np.empty(m)
        _wrap(work, 0.0, _hilbert_kernel(n))
        gain = work[:m // 2 + 1]
        np.copyto(gain, np.fft.rfft(work).imag)
        spectrum = np.fft.rfft(self.samples, m)
        spectrum *= gain
        spectrum *= 1j
        out = np.fft.irfft(spectrum, m, out=work)
        del spectrum
        return self.replace_samples(out[:n])


def _grid(t0, dt, stop, start=0, step=1):
    """t0 + dt * np.arange(start, stop, step), bit for bit, with no
    full-length temporary: points start, start + step, .. below stop of the
    grid, the same bits in any block."""
    t = np.arange(start, stop, step, dtype=float)
    t *= dt
    t += t0
    return t


def sample(f, t0, dt, n):
    """Sample a function of time on a uniform grid of n points."""
    return SampledSignal(t0, dt, f(_grid(t0, dt, n)))


def _cutoff_bin(s):
    """The last nonnegative DFT bin of s at or below CUTOFF.

    The low-pass keeps it, the bins below it and their mirrors: the mask is
    monotone in |bin|, and an even n's Nyquist bin lies beyond CUTOFF on a
    fine grid.  DC is always kept, so a step whose 1/(n*dt) overflows keeps
    DC alone.  Each frequency is rounded as fftfreq rounds it.
    """
    n = s.samples.size
    with np.errstate(over="ignore"):
        freqs = 2.0 * np.pi * (np.arange(1, (n + 1) // 2)
                               * (1.0 / (n * float(s.dt))))
    return np.count_nonzero(freqs <= CUTOFF)


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
    half = h[1:(n + 1) // 2]
    odd = half[::2]
    if n % 2:
        np.multiply(np.pi / (2 * n), np.arange(1, (n + 1) // 2), out=half)
        np.tan(half, out=half)
        np.divide(1.0, odd, out=odd)
        np.negative(half[1::2], out=half[1::2])
    else:
        np.multiply(np.pi / n, np.arange(1, (n + 1) // 2, 2), out=odd)
        np.tan(odd, out=odd)
        np.divide(2.0, odd, out=odd)
    half /= n
    np.negative(half[::-1], out=h[n - half.size:])
    return h


def _lowpass_kernel(d, top):
    """Fill d with the impulse response of the mask that keeps bins
    -top..top of n = d.size: the Dirichlet kernel
    sin(pi (2 top + 1) k / n) / (n sin(pi k / n)), even in k.  Only k <= n/2
    are evaluated, and the numerator's angle is reduced exactly to
    [-pi/2, pi/2], so no sine is taken near pi."""
    n = d.size
    d[0] = (2 * top + 1) / n
    half = d[1:n // 2 + 1]
    k = np.arange(1, n // 2 + 1)
    np.multiply(np.pi / n, k, out=half)
    np.sin(half, out=half)
    half *= n
    # r = (2 top + 1) k mod 2n, folded into [-n/2, n/2]: 2r is taken
    # mod 4n into [-n, 3n), and n - |n - 2r| reflects it below n
    k *= 2 * (2 * top + 1)
    k += n
    k %= 4 * n
    np.subtract(2 * n, k, out=k)
    np.abs(k, out=k)
    np.subtract(n, k, out=k)
    k //= 2
    np.divide(np.sin(np.pi / n * k), half, out=half)
    d[n - half.size:] = half[::-1]
    return d


def _wrap(g, even, odd):
    """Write into g the kernel with even part even and odd part odd, each
    given at lags 0 .. n - 1, wrapped into m = g.size >= 2n - 1 points: lag
    r holds even[r] + odd[r] and lag -r holds even[r] - odd[r].  Its circular
    convolution with a zero-padded x is, on the first n points, the
    kernel's linear convolution with x.  The rfft of the even part is real
    and that of the odd part imaginary, so one transform gives both gains.
    odd is overwritten."""
    n = odd.size
    np.add(even, odd, out=g[:n])
    g[n:g.size - n + 1] = 0.0
    np.subtract(even, odd, out=odd)
    g[g.size - n + 1:] = odd[:0:-1]


def _carrier(t0, dt, n):
    """cos and sin of CARRIER * t at the n grid points t = t0 + k*dt, as two
    new arrays.

    Point k = b*B + j, with B = _CARRIER_BLOCK, is the block start
    t0 + b*B*dt, at the grid's own bits, plus the offset j*dt.  Each is
    reduced by fmod, which is exact, to less than one turn, so only
    n/B + B cosines and sines are taken, and the rest follow by angle
    addition.  Where the grid rounds t0 + k*dt, the angle follows the block
    start plus the offset, which may differ from the grid point by that
    rounding.
    """
    def turn(t):
        np.fmod(t, 1.0, out=t)
        t *= CARRIER
        return np.cos(t), np.sin(t)

    cos_b, sin_b = turn(_grid(t0, dt, n, step=_CARRIER_BLOCK))
    cos_j, sin_j = turn(_grid(0.0, dt, min(n, _CARRIER_BLOCK)))
    cos = np.multiply.outer(cos_b, cos_j)
    sin = np.multiply.outer(sin_b, cos_j)
    product = np.multiply.outer(sin_b, sin_j)
    cos -= product
    np.multiply.outer(cos_b, sin_j, out=product)
    sin += product
    return cos.reshape(-1)[:n], sin.reshape(-1)[:n]


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

    The mixer halves the baseband amplitude, so the low-pass gain is
    doubled (exactly); reconstruct_quadrature is then unit-gain.  The
    components are s_c = LP[2 psi cos w0 t] and s_s = LP[2 psi sin w0 t]
    at the true grid abscissas, where LP keeps the DFT bins at or below
    CUTOFF: s_c - j s_s = LP[2 psi e^{-j w0 t}].  LP is a convolution with
    the Dirichlet kernel d, and t_k - t_j = (k - j) dt, so at t_k that is
    2 e^{-j w0 t_k} sum_j d[|k - j|] e^{j w0 (k - j) dt} psi[j].  With u
    and v the convolutions of psi with the even part d[|r|] cos(w0 r dt)
    and the odd part d[|r|] sin(w0 r dt) of that modulated kernel,

        s_c = 2 (u cos w0 t + v sin w0 t),  s_s = 2 (u sin w0 t - v cos w0 t),

    so psi is transformed once, and no mixed product is formed.
    """
    require_fine_grid(psi_s)
    n = psi_s.samples.size
    m = _fast_size(2 * n - 1)
    # One workspace of two spectrum rows, allocated before any other
    # full-length array (module docstring).  Row 0, as doubles, holds in
    # turn the Dirichlet kernel, the wrapped modulated kernel, the even
    # part's spectrum and v; row 1 the gains, then u.  The even gain is the
    # real part of the kernel's rfft and the odd gain its imaginary part,
    # which turns the spectrum by 1j.  The kernel is built before its
    # carrier, so their temporaries are never held together.  Row 1's tail
    # past u is the demodulation scratch, and s_c and s_s are written into
    # the carrier, so each result holds its own samples only.
    work = np.empty((2, m // 2 + 1), complex)
    row0, row1 = work.view(float)
    kernel = _lowpass_kernel(row0[:n], _cutoff_bin(psi_s))
    kernel *= 2.0
    even, odd = _carrier(0.0, psi_s.dt, n)
    even *= kernel
    odd *= kernel
    _wrap(row0[:m], even, odd)
    del even, odd
    gain = np.fft.rfft(row0[:m], out=work[1])
    spectrum = np.fft.rfft(psi_s.samples, m)
    even_part = np.multiply(spectrum, gain.real, out=work[0])
    spectrum *= gain.imag
    spectrum *= 1j
    u = np.fft.irfft(even_part, m, out=row1[:m])[:n]
    v = np.fft.irfft(spectrum, m, out=row0[:m])[:n]
    del spectrum
    cos, sin = _carrier(psi_s.t0, psi_s.dt, n)
    cos_u = np.multiply(cos, u, out=row1[n:2 * n])
    u *= sin
    cos *= v
    s_s = np.subtract(u, cos, out=cos)
    sin *= v
    s_c = np.add(cos_u, sin, out=sin)
    return psi_s._adopt(s_c), psi_s._adopt(s_s)


def reconstruct_quadrature(s_c, s_s):
    """Remodulate baseband components back onto the carrier."""
    if not s_c.same_grid(s_s):
        raise InvalidGrid("s_c and s_s must share the sampling grid")
    out, sin = _carrier(s_c.t0, s_c.dt, s_c.samples.size)
    out *= s_c.samples
    sin *= s_s.samples
    out += sin
    return s_c._adopt(out)


def scale_from_wavelet(psi_s):
    """psi cos 2pi t + H[psi] sin 2pi t from the wavelet's samples.  The
    paper equates it with the scaling function; verify's
    scale_identity_closure measures that identity false."""
    require_fine_grid(psi_s)
    return reconstruct_quadrature(psi_s, hilbert(psi_s))


def envelope(s):
    """Instantaneous amplitude sqrt(s^2 + H[s]^2) of the analytic signal."""
    out = np.square(s.samples)
    out += np.square(hilbert(s).samples)
    return s._adopt(np.sqrt(out, out=out))


def interior_slice(n):
    """Index slice excluding the DFT wrap-around margins at both ends."""
    margin = int(round(0.5 * (1.0 - INTERIOR_FRACTION) * n))
    return slice(margin, n - margin)
