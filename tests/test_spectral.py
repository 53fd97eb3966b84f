import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from meyerwave import closed_form, quadrature
from meyerwave.spectral import (SQRT_2PI, W_LO, W_MID, W_HI, nu,
                                scale_spectrum, wavelet_spectrum,
                                wavelet_spectrum_magnitude)


class TestNu:
    def test_below_zero(self):
        assert nu(-1.0) == 0.0

    def test_identity_branch(self):
        assert nu(0.5) == 0.5

    def test_saturates(self):
        assert nu(2.0) == 1.0

    @given(st.floats(0.0, 1.0))
    def test_complementarity(self, x):
        assert nu(x) + nu(1.0 - x) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            nu(float("nan"))


class TestScaleSpectrum:
    def test_flat_value(self):
        assert scale_spectrum(0.0) == pytest.approx(1.0 / SQRT_2PI, rel=1e-15)

    def test_support_edge(self):
        assert scale_spectrum(W_MID) == pytest.approx(0.0, abs=1e-15)

    def test_midband_value(self):
        # ramp argument 1/2, cos(pi/4) taper
        assert scale_spectrum(np.pi) == pytest.approx(1.0 / (2.0 * np.sqrt(np.pi)),
                                                      rel=1e-15)

    def test_zero_outside_support(self):
        assert scale_spectrum(W_MID + 1e-9) == 0.0
        assert scale_spectrum(100.0) == 0.0

    @given(st.floats(-10.0, 10.0))
    def test_even(self, w):
        assert scale_spectrum(-w) == scale_spectrum(w)

    @given(st.floats(-10.0, 10.0))
    def test_range(self, w):
        v = scale_spectrum(w)
        assert 0.0 <= v <= 1.0 / SQRT_2PI

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            scale_spectrum(np.inf)


class TestWaveletSpectrum:
    def test_zero_at_dc(self):
        assert wavelet_spectrum(0.0) == 0.0

    def test_magnitude_at_2pi(self):
        # upper band, ramp argument 1/2
        assert abs(wavelet_spectrum(2.0 * np.pi)) == pytest.approx(
            1.0 / (2.0 * np.sqrt(np.pi)), rel=1e-14)

    def test_branch_consistency_point(self):
        # both band formulas give full amplitude at 4pi/3
        assert abs(wavelet_spectrum(W_MID)) == pytest.approx(1.0 / SQRT_2PI,
                                                             rel=1e-14)

    def test_lower_band_magnitude(self):
        assert wavelet_spectrum_magnitude(np.pi) == pytest.approx(
            np.sin(np.pi / 4.0) / SQRT_2PI, rel=1e-14)

    def test_outside_support(self):
        assert wavelet_spectrum_magnitude(3.0 * np.pi) == 0.0
        assert wavelet_spectrum_magnitude(W_LO - 1e-9) == 0.0

    @given(st.floats(-12.0, 12.0))
    def test_magnitude_even(self, w):
        assert wavelet_spectrum_magnitude(-w) == wavelet_spectrum_magnitude(w)

    def test_phase_factor(self):
        w = 2.0 * np.pi
        z = wavelet_spectrum(w)
        assert np.angle(z) == pytest.approx(np.angle(np.exp(0.5j * w)), abs=1e-12)

    def test_conjugate_symmetry(self):
        w = 1.9 * np.pi
        assert wavelet_spectrum(-w) == pytest.approx(
            np.conj(wavelet_spectrum(w)), abs=1e-15)

    def test_magnitude_matches_complex(self):
        w = np.linspace(-10.0, 10.0, 501)
        assert np.abs(wavelet_spectrum(w)) == pytest.approx(
            wavelet_spectrum_magnitude(w), abs=1e-15)

    def test_phase_convention_against_sampled_psi(self):
        # wavelet_spectrum is (1/sqrt(2pi)) integral psi(t) e^{+jwt} dt;
        # numpy's DFT has the kernel e^{-jwt}, so it gives the conjugate.
        # psi is band-limited far below the Nyquist frequency, so the
        # scaled DFT differs from the transform only by the samples beyond
        # |t| = T, which sum to at most 2 C / (T sqrt(2pi)) in magnitude,
        # C = sup_{|t| >= T} |t^2 psi(t)|.
        T, dt = 512.0, 1.0 / 64.0
        n = 2 * round(T / dt) + 1
        t = -T + dt * np.arange(n)
        w = 2.0 * np.pi * np.fft.fftfreq(n, dt)
        dft = (dt / SQRT_2PI * np.exp(-1j * w * t[0])
               * np.fft.fft(closed_form.psi(t)))
        band = (np.abs(w) > 2.5) & (np.abs(w) < 8.0)
        # |y^2 N/D| <= (|p| + |r|/Y) / (|d3| - |d1|/Y^2) on each rational
        # form for |y| >= Y, and t^2 <= y^2 (1 + 1/(2Y))^2 with y = t - 1/2
        Y = T - 0.5
        C = (1.0 + 0.5 / Y)**2 * sum(
            (abs(f.p) + abs(f.r) / Y) / (abs(f.d3) - abs(f.d1) / Y**2)
            for f in (closed_form._PSI1, closed_form._PSI2))
        bound = 2.0 * C / (T * math.sqrt(2.0 * math.pi))
        spectrum = wavelet_spectrum(w[band])
        assert np.max(np.abs(dft[band] - np.conj(spectrum))) <= bound
        assert np.max(np.abs(dft[band] - spectrum)) > 100.0 * bound


class TestSpectralIdentities:
    w = np.linspace(W_LO, W_MID, 4001)

    def test_partition_of_unity_scale(self):
        total = scale_spectrum(self.w)**2 + scale_spectrum(2.0 * np.pi - self.w)**2
        assert np.max(np.abs(total - 1.0 / (2.0 * np.pi))) < 1e-12

    def test_partition_of_unity_scale_wavelet(self):
        total = scale_spectrum(self.w)**2 + wavelet_spectrum_magnitude(self.w)**2
        assert np.max(np.abs(total - 1.0 / (2.0 * np.pi))) < 1e-12

    def test_two_scale_tiling(self):
        total = (wavelet_spectrum_magnitude(self.w)**2
                 + wavelet_spectrum_magnitude(2.0 * self.w)**2)
        assert np.max(np.abs(total - 1.0 / (2.0 * np.pi))) < 1e-12

    def test_product_identity(self):
        w = np.linspace(W_LO, W_HI, 10_000)
        lhs = SQRT_2PI * scale_spectrum(w / 2.0) * scale_spectrum(w - 2.0 * np.pi)
        assert np.max(np.abs(lhs - wavelet_spectrum_magnitude(w))) <= 1e-12

    def test_branch_continuity(self):
        for w0 in (W_LO, W_MID, W_HI):
            for f in (scale_spectrum, wavelet_spectrum_magnitude):
                left, mid, right = f(w0 - 1e-9), f(w0), f(w0 + 1e-9)
                assert abs(left - mid) < 1e-8
                assert abs(right - mid) < 1e-8


def frozen_scale_spectrum(w):
    """scale_spectrum as written before its branch table, one expression."""
    aw = np.abs(w)
    with np.errstate(over="ignore"):
        taper = np.cos(0.5 * np.pi * np.clip(3.0 * aw / (2.0 * np.pi) - 1.0, 0.0, 1.0))
    return np.where(aw <= W_MID, taper / SQRT_2PI, 0.0)


def frozen_wavelet_spectrum_magnitude(w):
    """wavelet_spectrum_magnitude as written before its branch table."""
    aw = np.abs(w)
    with np.errstate(over="ignore"):
        lower = np.sin(0.5 * np.pi * np.clip(3.0 * aw / (2.0 * np.pi) - 1.0, 0.0, 1.0))
        upper = np.cos(0.5 * np.pi * np.clip(3.0 * aw / (4.0 * np.pi) - 1.0, 0.0, 1.0))
    return np.where(
        (aw >= W_LO) & (aw <= W_MID), lower / SQRT_2PI,
        np.where((aw > W_MID) & (aw <= W_HI), upper / SQRT_2PI, 0.0),
    )


class TestBranchTables:
    """The branch tables give the bits of the band formulas they replaced."""

    edges = np.array([0.0, W_LO, W_MID, W_HI])
    magnitudes = np.append(np.logspace(-300.0, 308.0, 20_001),
                           np.finfo(float).max)

    @pytest.mark.parametrize("w", [
        np.linspace(-20.0, 20.0, 400_001),
        np.concatenate([np.nextafter(edges, -np.inf), edges,
                        np.nextafter(edges, np.inf)]),
        np.concatenate([-magnitudes, magnitudes]),
    ], ids=["linspace", "edges", "log-uniform"])
    @pytest.mark.parametrize("f, frozen", [
        (scale_spectrum, frozen_scale_spectrum),
        (wavelet_spectrum_magnitude, frozen_wavelet_spectrum_magnitude),
    ], ids=["phi", "psi"])
    def test_bit_identical(self, w, f, frozen):
        assert np.array_equal(f(w), frozen(w))

    def test_oracle_branch_points(self):
        assert quadrature._PHI_BRANCHES == (0.0, W_LO, W_MID)
        assert quadrature._PSI_BRANCHES == (W_LO, W_MID, 2.0 * np.pi, W_HI)
