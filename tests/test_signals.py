import mmap
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from meyerwave import closed_form, signals
from meyerwave.signals import (InvalidGrid, SampledSignal,
                               decompose_quadrature, envelope, hilbert,
                               interior_slice, reconstruct_quadrature,
                               sample, scale_from_wavelet)
from meyerwave.signals import CARRIER, CUTOFF, MAX_GRID_DT


def make_tone(freq_cycles, n=256, dt=1.0 / 32.0, kind="cos"):
    # integer number of periods across the grid for exact DFT bins
    k = np.arange(n)
    angle = 2.0 * np.pi * freq_cycles * k / n
    data = np.cos(angle) if kind == "cos" else np.sin(angle)
    return SampledSignal(0.0, dt, data)


class TestSampledSignal:
    def test_times(self):
        s = SampledSignal(-1.0, 0.5, np.zeros(5))
        assert s.times == pytest.approx([-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_rejects_bad_grid(self):
        with pytest.raises(InvalidGrid):
            SampledSignal(0.0, 1.0, np.zeros(1))
        with pytest.raises(InvalidGrid):
            SampledSignal(0.0, 1.0, np.array([1.0, np.nan]))

    @pytest.mark.parametrize("t0, dt, field", [
        (np.nan, 1.0, "t0"), (np.inf, 1.0, "t0"), (-np.inf, 1.0, "t0"),
        (0.0, np.nan, "dt"), (0.0, np.inf, "dt"), (0.0, 0.0, "dt"),
        (0.0, -1.0, "dt")])
    def test_rejects_bad_t0_or_dt(self, t0, dt, field):
        with pytest.raises(InvalidGrid, match=f"^{field} "):
            SampledSignal(t0, dt, np.zeros(4))

    @pytest.mark.skipif(not hasattr(mmap, "MAP_POPULATE"),
                        reason="the map is Linux only")
    def test_large_copy_has_a_map_of_its_own(self):
        # 2**14 doubles are 128 KiB: in the C heap such copies split the
        # room that the transforms' buffers reuse (module docstring)
        data = np.arange(2.0**14)
        big = SampledSignal(0.0, 1.0, data)
        small = SampledSignal(0.0, 1.0, data[1:])
        data[:] = 0.0
        assert isinstance(big.samples.base, mmap.mmap)
        assert not isinstance(small.samples.base, mmap.mmap)
        assert np.array_equal(big.samples, np.arange(2.0**14))
        assert np.array_equal(small.samples, np.arange(1.0, 2.0**14))
        with pytest.raises(ValueError):
            big.samples[0] = 1.0


class TestSample:
    def test_zero_function(self):
        s = sample(lambda t: np.zeros_like(t), 0.0, 0.5, 4)
        assert s.samples == pytest.approx([0, 0, 0, 0])

    def test_identity_function(self):
        s = sample(lambda t: t, -1.0, 1.0, 3)
        assert s.samples == pytest.approx([-1.0, 0.0, 1.0])

    def test_rejects_single_point(self):
        with pytest.raises(InvalidGrid):
            sample(closed_form.phi, 0.0, 1.0, 1)


class TestGrid:
    @pytest.mark.parametrize("t0, dt", [(-0.0, 1e-4), (0.0, 1e-4),
                                        (-50.0, 1.0 / 8000.0),
                                        (-37.3, 2.5e-4), (1e300, 3e294)])
    def test_bits_equal_the_formula(self, t0, dt):
        n = 1_000_001
        want = t0 + dt * np.arange(n)
        got = signals._grid(t0, dt, n)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def spectrum(s):
    """(angular bin frequencies, DFT coefficients) of s."""
    return (2.0 * np.pi * np.fft.fftfreq(s.samples.size, s.dt),
            np.fft.fft(s.samples))


class TestHilbert:
    def test_cos_to_sin(self):
        c = make_tone(8, kind="cos")
        s = make_tone(8, kind="sin")
        assert np.max(np.abs(hilbert(c).samples - s.samples)) < 1e-10

    def test_involution(self):
        x = make_tone(3, kind="sin")
        twice = hilbert(hilbert(x))
        assert np.max(np.abs(twice.samples + x.samples)) < 1e-10

    @pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
    @settings(max_examples=100, deadline=None)
    @given(x=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=257))
    def test_involution_removes_dc_and_nyquist(self, parity, x):
        # H[H[x]] = -(x - DC - Nyquist component); Marple, IEEE TSP 47(9),
        # 1999.  Only an even length has a Nyquist bin.
        x = np.array(x[:len(x) - (len(x) - parity) % 2])
        n = x.size
        expected = x - x.mean()
        if n % 2 == 0:
            alternating = (-1.0) ** np.arange(n)
            expected -= np.mean(x * alternating) * alternating
        twice = hilbert(hilbert(SampledSignal(0.0, 0.25, x))).samples
        assert np.max(np.abs(twice + expected)) <= 1e-12

    def test_annihilates_dc(self):
        s = SampledSignal(0.0, 1.0, np.full(16, 2.5))
        assert np.max(np.abs(hilbert(s).samples)) < 1e-12

    @pytest.mark.parametrize("dt", [1e-312, 5e-324, 1e-308])
    def test_rejects_step_with_non_finite_bins(self, dt):
        # as decompose_quadrature does, although the multiplier needs only
        # each bin's sign
        with np.errstate(all="raise"):
            with pytest.raises(InvalidGrid, match="not finite"):
                hilbert(SampledSignal(0.0, dt, np.ones(101)))

    @pytest.mark.parametrize("n", [2, 16, 256])
    def test_annihilates_nyquist(self, n):
        # all of (-1)^k sits in the Nyquist bin, which the multiplier turns
        # imaginary and the real result drops
        s = SampledSignal(0.0, 0.25, (-1.0) ** np.arange(n))
        assert np.max(np.abs(hilbert(s).samples)) <= 1e-15


def reference_decompose(psi_s, dtype=float):
    """Decomposition by two real low-passes, one per carrier phase, whose
    transforms run in dtype (numpy >= 2.0 transforms long-double input in
    long double)."""
    doubled = 2.0 * psi_s.samples
    t = psi_s.times
    beyond = np.abs(2.0 * np.pi * np.fft.fftfreq(t.size, psi_s.dt)) > CUTOFF

    def lowpass(x):
        coefficients = np.fft.fft(x.astype(dtype))
        coefficients[beyond] = 0.0
        return np.fft.ifft(coefficients).real

    return (lowpass(doubled * np.cos(CARRIER * t)),
            lowpass(doubled * np.sin(CARRIER * t)))


class TestDecomposeMatchesTwoLowpasses:
    dt = 1.0 / 64.0

    # t0 is a quarter carrier period plus a fraction of dt off the grid
    # k*dt, so a mixer that ignored t0 would be off by O(1); only an even
    # n has a Nyquist bin, which CUTOFF masks
    @pytest.mark.parametrize("n", [2049, 2048], ids=["odd", "even"])
    def test_within_1e_15(self, n):
        sig = sample(closed_form.psi, -15.75 + 0.37 * self.dt, self.dt, n)
        s_c, s_s = decompose_quadrature(sig)
        ref_c, ref_s = reference_decompose(sig, np.longdouble)
        assert np.max(np.abs(s_c.samples - ref_c)) <= 1e-15
        assert np.max(np.abs(s_s.samples - ref_s)) <= 1e-15
        for out in (s_c, s_s):
            assert (out.t0, out.dt) == (sig.t0, sig.dt)


def reference_hilbert(s, dtype=float):
    """The Hilbert transform out of place, a new array at each step, with
    its transforms in dtype."""
    freqs = 2.0 * np.pi * np.fft.fftfreq(s.samples.size, s.dt)
    coefficients = np.fft.fft(s.samples.astype(dtype)) * (-1j * np.sign(freqs))
    return np.fft.ifft(coefficients).real


def reference_baseband(psi_s):
    """(s_c, s_s) from one complex baseband, transformed out of place."""
    t = psi_s.times
    beyond = np.abs(2.0 * np.pi * np.fft.fftfreq(t.size, psi_s.dt)) > CUTOFF
    mixed = np.empty(t.size, dtype=complex)
    mixed.real = np.cos(CARRIER * t)
    mixed.imag = -np.sin(CARRIER * t)
    mixed *= 2.0 * psi_s.samples
    coefficients = np.fft.fft(mixed)
    coefficients[beyond] = 0.0
    baseband = np.fft.ifft(coefficients)
    return baseband.real, -baseband.imag


# Higham, Accuracy and Stability of Numerical Algorithms (2nd ed. 2002),
# Thm 24.2: an FFT of length m (stated for radix 2) has normwise relative
# error at most log2(m) eta / (1 - log2(m) eta), eta = mu + gamma_4
# (sqrt 2 + mu), with twiddle factors accurate to mu = u.  The convolution runs three transforms
# (the kernel's, the forward and the inverse), so the bound below allows
# three such errors, each on the scale of the largest input sample.
U = np.finfo(float).eps / 2


def fft_error_bound(n, x_inf):
    log2m = np.log2(signals._fast_size(2 * n - 1))
    eta = U + 4 * U / (1 - 4 * U) * (np.sqrt(2.0) + U)
    return 3 * log2m * eta / (1 - log2m * eta) * x_inf


class TestTransformsInPlace:
    dt = 1.0 / 64.0

    # t0 is off the grid k*dt; 2,049 = 3 * 683 is a length numpy transforms
    # by Bluestein's algorithm, 1,001 = 7 * 11 * 13 one it does not, and only
    # an even n has a Nyquist bin
    @pytest.mark.parametrize("n", [2049, 2048, 1001],
                             ids=["odd", "even", "odd-composite"])
    def test_within_fft_error_bound(self, n):
        sig = sample(closed_form.psi, -15.75 + 0.37 * self.dt, self.dt, n)
        t = sig.times
        x_inf = np.max(np.abs(sig.samples))
        # the products, sum, squares and root formed after the transform
        # add a few roundings, far inside the three transforms' allowance
        bound = fft_error_bound(n, x_inf)
        h = reference_hilbert(sig, np.longdouble)
        ex_c, ex_s = reference_decompose(sig, np.longdouble)
        # the mixer doubles the samples, so its products reach 2 x_inf
        mixed_bound = fft_error_bound(n, 2.0 * x_inf)

        def scale(h):
            return sig.samples * np.cos(CARRIER * t) + h * np.sin(CARRIER * t)

        def env(h):
            return np.sqrt(sig.samples**2 + h**2)

        s_c, s_s = decompose_quadrature(sig)
        ref_h = reference_hilbert(sig)
        ref_c, ref_s = reference_baseband(sig)
        for got, want, tol in [
                (hilbert(sig).samples, h, bound),
                (s_c.samples, ex_c, mixed_bound),
                (s_s.samples, ex_s, mixed_bound),
                (scale_from_wavelet(sig).samples, scale(h), bound),
                (envelope(sig).samples, env(h), bound),
                # the replaced out-of-place transforms meet the same bounds
                (ref_h, h, bound),
                (ref_c, ex_c, mixed_bound),
                (ref_s, ex_s, mixed_bound),
                (scale(ref_h), scale(h), bound),
                (env(ref_h), env(h), bound)]:
            assert np.max(np.abs(got - want)) <= tol

    # tracemalloc sees numpy's data buffers, not pocketfft's workspace.
    # Out of place, hilbert peaked at 3.1 and decompose_quadrature at 5.1
    # full-length complex arrays (16n bytes each) above the start; the
    # padded real convolution holds 2.0 and 3.5.
    @pytest.mark.parametrize("transform, arrays", [
        (hilbert, 2.5), (decompose_quadrature, 4.0)],
        ids=["hilbert", "decompose_quadrature"])
    def test_numpy_allocation_peak(self, transform, arrays):
        n = 65_537
        # numpy's first transform in a process allocates one-time state
        transform(SampledSignal(0.0, self.dt, np.ones(n)))
        sig = sample(closed_form.psi, -512.0 + 0.37 * self.dt, self.dt, n)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            transform(sig)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= arrays * 16 * n


class TestLowpassEdge:
    # n * dt = 32 puts the carrier on bin 32, and with it the cutoff: fftfreq
    # gives bin 32 exactly 1.0 cycles per unit, 2pi * 1.0 == CUTOFF, so the
    # mask keeps it.  The odd grid's step 32/2049 is rounded, so its bins
    # and mixer sit off the exact tones by round-off only.
    @pytest.mark.parametrize("n, dt, top", [(2048, 1.0 / 64.0, 32),
                                            (2049, 32.0 / 2049.0, 32)],
                             ids=["even", "odd"])
    def test_last_kept_bin_passes_and_the_next_is_removed(self, n, dt, top):
        freqs = 2.0 * np.pi * np.fft.fftfreq(n, dt)
        assert freqs[top] <= CUTOFF < freqs[top + 1]
        k = np.arange(n)
        # a mixer phase error of a few u * CARRIER * n * dt per sample, on
        # products up to 2, beside the transforms' own round-off
        tol = fft_error_bound(n, 2.0) + 8.0 * U * CARRIER * n * dt
        for b, kept in [(top, True), (top + 1, False)]:
            # 2 psi exp(-j CARRIER t) holds bin b, kept or not, and bin
            # -(b + 64), beyond the cutoff
            psi = SampledSignal(0.0, dt, np.cos(2.0 * np.pi * (32 + b) * k / n))
            s_c, s_s = decompose_quadrature(psi)
            angle = 2.0 * np.pi * b * k / n
            assert np.max(np.abs(s_c.samples - kept * np.cos(angle))) <= tol
            assert np.max(np.abs(s_s.samples + kept * np.sin(angle))) <= tol


def fine_grids():
    """(n, dt) with dt < 3/8.  Half have n * dt = k, a whole number, which
    puts bin k on 1 cycle per unit, and so on CUTOFF, up to rounding."""
    def on_bin(n):
        return st.integers(1, (3 * n - 1) // 8).map(lambda k: (n, k / n))

    anywhere = st.tuples(st.integers(2, 100_000),
                         st.floats(1e-300, MAX_GRID_DT, exclude_max=True))
    return st.one_of(anywhere, st.integers(3, 100_000).flatmap(on_bin))


class TestCutoffBin:
    # the low-pass must keep exactly the bins that the fftfreq mask of the
    # reference transforms keeps
    @settings(max_examples=200, deadline=None)
    @given(grid=fine_grids())
    @example(grid=(2048, 1.0 / 64.0))
    @example(grid=(2049, 32.0 / 2049.0))
    def test_equals_fftfreqs_mask(self, grid):
        n, dt = grid
        freqs = 2.0 * np.pi * np.fft.fftfreq(n, dt)
        want = np.count_nonzero(~(np.abs(freqs) > CUTOFF)[:(n + 1) // 2]) - 1
        got = signals._cutoff_bin(SampledSignal(0.0, dt, np.zeros(n)))
        assert got == want


class TestKernels:
    # the inverse DFT of each multiplier in long double; each float kernel
    # entry takes a few roundings of relative size u, and |entry| is at most
    # twice the envelope 1/(n sin(pi k/n)), so 16u of the envelope bounds it.
    # A sine taken near pi at n - k = 1 errs by about u*n of it instead.
    @pytest.mark.parametrize("n, dt", [(3, 0.25), (4, 0.25), (5, 0.125),
                                       (6, 0.125), (1001, 1.0 / 64.0),
                                       (2048, 1.0 / 64.0), (2049, 1.0 / 64.0),
                                       (16384, 1.0 / 64.0),
                                       (16385, 1.0 / 64.0)])
    def test_match_the_inverse_dft_of_the_multipliers(self, n, dt):
        freqs = 2.0 * np.pi * np.fft.fftfreq(n, dt)
        envelope = np.ones(n)
        envelope[1:] = 1.0 / (n * np.sin(np.pi * np.arange(1, n) / n))
        hilbert_ref = np.fft.ifft(
            (-1j * np.sign(freqs)).astype(np.clongdouble)).real
        kept = ~(np.abs(freqs) > CUTOFF)
        top = np.flatnonzero(kept[:(n + 1) // 2]).max()
        lowpass_ref = np.fft.ifft(kept.astype(np.clongdouble)).real
        for got, want in [(signals._hilbert_kernel(n), hilbert_ref),
                          (signals._lowpass_kernel(n, top), lowpass_ref)]:
            assert np.all(np.abs(got - want) <= 16.0 * U * envelope)

    def test_fast_size(self):
        # every 2^a 3^b 5^c up to 2,000 divides this, and nothing else does
        smooth = [k for k in range(1, 2001)
                  if 2 ** 11 * 3 ** 7 * 5 ** 5 % k == 0]
        for size in range(1, 1001):
            assert signals._fast_size(size) == min(k for k in smooth
                                                   if k >= size)
        assert signals._fast_size(2 * 524_289 - 1) == 1_049_760


class TestHilbertCache:
    def wavelet_signal(self):
        return sample(closed_form.psi, -8.0, 1.0 / 64.0, 1025)

    def test_samples_are_read_only(self):
        sig = self.wavelet_signal()
        with pytest.raises(ValueError):
            sig.samples[0] = 1.0

    def test_samples_are_a_copy(self):
        data = closed_form.psi(-8.0 + np.arange(1025) / 64.0)
        sig = SampledSignal(-8.0, 1.0 / 64.0, data)
        original = data.copy()
        first = hilbert(sig).samples.copy()
        data[:] = 0.0
        assert np.array_equal(sig.samples, original)
        assert np.array_equal(hilbert(sig).samples, first)
        assert np.array_equal(
            first, hilbert(SampledSignal(-8.0, 1.0 / 64.0, original)).samples)

    def test_cached_result_is_bit_identical_to_uncached(self):
        sig = self.wavelet_signal()
        first, second = hilbert(sig), hilbert(sig)
        assert first.samples.tobytes() == second.samples.tobytes()
        fresh = hilbert(sig.replace_samples(sig.samples))
        assert first.samples.tobytes() == fresh.samples.tobytes()
        bound = fft_error_bound(sig.samples.size, np.max(np.abs(sig.samples)))
        assert np.max(np.abs(first.samples - reference_hilbert(sig))) \
            <= 2 * bound

    # one Hilbert computation takes two rffts, its kernel's and the
    # samples'; decompose_quadrature takes three, one kernel for both mixers
    def test_scale_and_envelope_share_one_forward_transform(self,
                                                            monkeypatch):
        sig = self.wavelet_signal()
        calls = []
        rfft = np.fft.rfft

        def counting_rfft(*args, **kwargs):
            calls.append(1)
            return rfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counting_rfft)
        scale_from_wavelet(sig)
        envelope(sig)
        assert len(calls) == 2
        decompose_quadrature(sig)
        assert len(calls) == 5


class TestDecomposition:
    dt = 1.0 / 64.0
    span = 16.0

    def wavelet_signal(self):
        n = 2 * round(self.span / self.dt) + 1
        return sample(closed_form.psi, -self.span, self.dt, n)

    def test_round_trip_closure(self):
        sig = self.wavelet_signal()
        s_c, s_s = decompose_quadrature(sig)
        rebuilt = reconstruct_quadrature(s_c, s_s)
        inner = interior_slice(sig.samples.size)
        err = np.abs(rebuilt.samples - sig.samples)[inner]
        assert np.max(err) <= 1e-3

    def test_zero_in_zero_out(self):
        zero = SampledSignal(0.0, self.dt, np.zeros(128))
        s_c, s_s = decompose_quadrature(zero)
        assert np.max(np.abs(s_c.samples)) < 1e-14
        assert np.max(np.abs(s_s.samples)) < 1e-14
        assert np.max(np.abs(reconstruct_quadrature(s_c, s_s).samples)) < 1e-14

    def test_components_band_limited(self):
        sig = self.wavelet_signal()
        s_c, _ = decompose_quadrature(sig)
        freqs, coefficients = spectrum(s_c)
        high = np.abs(coefficients[np.abs(freqs) > CUTOFF])
        assert np.max(high, initial=0.0) <= 1e-9 * np.max(np.abs(coefficients))

    def test_single_branch_reconstruction(self):
        s_c = SampledSignal(0.0, 0.1, np.arange(1.0, 9.0))
        zero = SampledSignal(0.0, 0.1, np.zeros(8))
        out = reconstruct_quadrature(s_c, zero)
        assert out.samples == pytest.approx(
            s_c.samples * np.cos(2.0 * np.pi * s_c.times))

    def test_coarse_grid_rejected(self):
        coarse = SampledSignal(0.0, 0.5, np.zeros(64))
        with pytest.raises(InvalidGrid, match="8pi/3 band edge"):
            decompose_quadrature(coarse)

    @pytest.mark.parametrize("dt", [1e-312, 5e-324, 1e-308])
    def test_rejects_step_with_non_finite_bins(self, dt):
        # 1/(n*dt) or the largest bin overflows
        with np.errstate(all="raise"):
            with pytest.raises(InvalidGrid, match="not finite"):
                decompose_quadrature(SampledSignal(0.0, dt, np.ones(101)))

    def test_grid_mismatch_rejected(self):
        a = SampledSignal(0.0, 0.1, np.zeros(8))
        b = SampledSignal(1.0, 0.1, np.zeros(8))
        with pytest.raises(InvalidGrid, match="share the sampling grid"):
            reconstruct_quadrature(a, b)


class TestScaleFromWavelet:
    def test_zero_in_zero_out(self):
        zero = SampledSignal(0.0, 1.0 / 64.0, np.zeros(128))
        assert np.max(np.abs(scale_from_wavelet(zero).samples)) < 1e-14

    def test_coarse_grid_rejected(self):
        with pytest.raises(InvalidGrid, match="8pi/3 band edge"):
            scale_from_wavelet(SampledSignal(0.0, 0.5, np.zeros(64)))

    def test_output_is_baseband(self):
        # the remodulation shifts the band-pass wavelet down to baseband;
        # residual high-band content is grid-truncation leakage only
        sig = sample(closed_form.psi, -16.0, 1.0 / 64.0, 2049)
        out = scale_from_wavelet(sig)
        freqs, coefficients = spectrum(out)
        band = np.abs(freqs) > 4.0 * np.pi / 3.0 + 1e-9
        assert np.max(np.abs(coefficients[band])) <= \
            1e-2 * np.max(np.abs(coefficients))


class TestEnvelope:
    def test_unit_tone(self):
        s = make_tone(8, kind="cos")
        env = envelope(s)
        assert np.max(np.abs(env.samples - 1.0)) < 1e-10

    def test_zero(self):
        s = SampledSignal(0.0, 1.0, np.zeros(16))
        assert np.max(np.abs(envelope(s).samples)) == 0.0

    def test_non_negative(self):
        sig = sample(closed_form.psi, -16.0, 1.0 / 64.0, 2049)
        assert np.min(envelope(sig).samples) >= 0.0

    def test_peak_value_is_wavelet_centre(self):
        sig = sample(closed_form.psi, -16.0, 1.0 / 64.0, 2049)
        env = envelope(sig).samples
        k = np.argmax(env)
        assert sig.times[k] == pytest.approx(0.5, abs=sig.dt)
        assert env[k] == pytest.approx(4.0 / np.pi, abs=1e-3)
