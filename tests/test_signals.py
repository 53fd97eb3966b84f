import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meyerwave import closed_form
from meyerwave.signals import (GridMismatch, GridTooCoarse, InvalidGrid,
                               SampledSignal, decompose_quadrature, dft,
                               envelope, hilbert, idft, interior_slice,
                               reconstruct_quadrature, sample,
                               scale_from_wavelet, symmetric_grid)
from meyerwave.signals import CARRIER, CUTOFF, MAX_GRID_POINTS


def tone_grid(n=256, dt=1.0 / 32.0, t0=0.0):
    """Grid whose length is an integer number of unit periods."""
    return t0, dt, n


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


class TestSymmetricGrid:
    @pytest.mark.parametrize("span, dt, n", [(16.0, 1.0 / 64.0, 2049),
                                             (1.0, 0.3, 7), (1.0, 0.4, 5)])
    def test_rounds_half_width_to_whole_steps(self, span, dt, n):
        assert symmetric_grid(span, dt) == n == 2 * round(span / dt) + 1

    def test_largest_grid_within_budget(self):
        assert symmetric_grid(0.5 * (MAX_GRID_POINTS - 2), 1.0) \
            == MAX_GRID_POINTS - 1

    @pytest.mark.parametrize("span, dt", [
        (16.0, 0.0), (16.0, -0.5), (16.0, np.nan), (16.0, np.inf),
        (0.0, 1.0), (np.nan, 1.0), (np.inf, 1.0),
        (0.1, 1.0),                           # one point
        (0.5 * MAX_GRID_POINTS, 1.0),         # one point over the budget
        (16.0, 1e-9), (1e300, 1e-300)])
    def test_rejects(self, span, dt):
        with pytest.raises(InvalidGrid):
            symmetric_grid(span, dt)


class TestDftIdft:
    def test_round_trip(self):
        s = sample(closed_form.psi, -8.0, 1.0 / 32.0, 512)
        back = idft(s, dft(s)[1])
        assert np.max(np.abs(back.samples - s.samples)) < 1e-12
        assert back.t0 == s.t0 and back.dt == s.dt

    def test_constant_concentrates_at_dc(self):
        s = SampledSignal(0.0, 1.0, np.ones(8))
        _, coefficients = dft(s)
        assert coefficients[0] == pytest.approx(8.0)
        assert np.max(np.abs(coefficients[1:])) < 1e-12

    def test_impulse_is_flat(self):
        data = np.zeros(16)
        data[0] = 1.0
        _, coefficients = dft(SampledSignal(0.0, 1.0, data))
        assert np.abs(coefficients) == pytest.approx(np.ones(16), abs=1e-12)

    def test_parseval(self):
        rng = np.random.default_rng(7)
        s = SampledSignal(0.0, 0.25, rng.standard_normal(128))
        _, coefficients = dft(s)
        lhs = np.sum(np.abs(coefficients)**2) / 128
        rhs = np.sum(s.samples**2)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("dt", [1e-312, 5e-324, 1e-308])
    def test_rejects_step_with_non_finite_bins(self, dt):
        # 1/(n*dt) or the largest bin overflows
        with np.errstate(all="raise"):
            with pytest.raises(InvalidGrid, match="not finite"):
                dft(SampledSignal(0.0, dt, np.ones(101)))

    def test_bin_layout(self):
        s = SampledSignal(0.0, 0.5, np.zeros(8))
        freqs, _ = dft(s)
        assert freqs == pytest.approx(
            2.0 * np.pi * np.fft.fftfreq(8, 0.5))


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

    @pytest.mark.parametrize("n", [2, 16, 256])
    def test_annihilates_nyquist(self, n):
        # all of (-1)^k sits in the Nyquist bin, which the multiplier turns
        # imaginary and idft's real part drops
        s = SampledSignal(0.0, 0.25, (-1.0) ** np.arange(n))
        assert np.max(np.abs(hilbert(s).samples)) <= 1e-15


def reference_decompose(psi_s):
    """Decomposition by two real low-passes, one per carrier phase."""
    doubled = 2.0 * psi_s.samples
    t = psi_s.times
    beyond = np.abs(2.0 * np.pi * np.fft.fftfreq(t.size, psi_s.dt)) > CUTOFF

    def lowpass(x):
        coefficients = np.fft.fft(x)
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
        ref_c, ref_s = reference_decompose(sig)
        assert np.max(np.abs(s_c.samples - ref_c)) <= 1e-15
        assert np.max(np.abs(s_s.samples - ref_s)) <= 1e-15
        for out in (s_c, s_s):
            assert (out.t0, out.dt) == (sig.t0, sig.dt)


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
        assert np.array_equal(first.samples, second.samples)
        fresh = hilbert(sig.replace_samples(sig.samples))
        assert np.array_equal(first.samples, fresh.samples)
        freqs, coefficients = dft(sig)
        rotated = idft(sig, coefficients * (-1j * np.sign(freqs)))
        assert np.array_equal(first.samples, rotated.samples)

    def test_scale_and_envelope_share_one_forward_transform(self,
                                                            monkeypatch):
        sig = self.wavelet_signal()
        calls = []
        fft = np.fft.fft

        def counting_fft(*args, **kwargs):
            calls.append(1)
            return fft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", counting_fft)
        scale_from_wavelet(sig)
        envelope(sig)
        assert len(calls) == 1
        decompose_quadrature(sig)
        assert len(calls) == 2


class TestDecomposition:
    dt = 1.0 / 64.0
    span = 16.0

    def wavelet_signal(self):
        n = symmetric_grid(self.span, self.dt)
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
        freqs, coefficients = dft(s_c)
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
        with pytest.raises(GridTooCoarse):
            decompose_quadrature(coarse)

    def test_grid_mismatch_rejected(self):
        a = SampledSignal(0.0, 0.1, np.zeros(8))
        b = SampledSignal(1.0, 0.1, np.zeros(8))
        with pytest.raises(GridMismatch):
            reconstruct_quadrature(a, b)


class TestScaleFromWavelet:
    def test_zero_in_zero_out(self):
        zero = SampledSignal(0.0, 1.0 / 64.0, np.zeros(128))
        assert np.max(np.abs(scale_from_wavelet(zero).samples)) < 1e-14

    def test_coarse_grid_rejected(self):
        with pytest.raises(GridTooCoarse):
            scale_from_wavelet(SampledSignal(0.0, 0.5, np.zeros(64)))

    def test_output_is_baseband(self):
        # the remodulation shifts the band-pass wavelet down to baseband;
        # residual high-band content is grid-truncation leakage only
        sig = sample(closed_form.psi, -16.0, 1.0 / 64.0, 2049)
        out = scale_from_wavelet(sig)
        freqs, coefficients = dft(out)
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
