"""The pointwise evaluators work block by block: each value depends only on
its own point, whatever the grid length, the point's position in it, or
the block it falls in."""

import tracemalloc

import numpy as np
import pytest

from meyerwave import closed_form, spectral
from meyerwave.closed_form import GUARD_RADIUS, phi, psi, psi1, psi2
from meyerwave.quadrature import FAR_FROM, phi_oracle, psi_oracle
from meyerwave.spectral import (W_HI, W_LO, W_MID, nu, scale_spectrum,
                                wavelet_spectrum, wavelet_spectrum_magnitude)

EVALUATORS = [phi, psi, psi1, psi2, nu, scale_spectrum,
              wavelet_spectrum_magnitude, wavelet_spectrum]
NAMES = [f.__name__ for f in EVALUATORS]
BLOCK = spectral._BLOCK


def special_points():
    """Every removable root of the closed forms, the points GUARD_RADIUS
    either side of each, and the spectra's band edges, each with its two
    float neighbours."""
    roots = [t for points, _ in closed_form.singular_points().values()
             for t in points]
    centers = ([t + d for t in roots for d in (-GUARD_RADIUS, 0.0,
                                               GUARD_RADIUS)]
               + [sgn * w for w in (0.0, W_LO, W_MID, 2.0 * np.pi, W_HI)
                  for sgn in (-1.0, 1.0)])
    centers = np.array(centers)
    return np.concatenate([np.nextafter(centers, -np.inf), centers,
                           np.nextafter(centers, np.inf)])


def straddling_grid():
    """3 blocks + 7 points on [-10, 10], and the indices of the special
    points, which are written at the start, across each block edge and
    at the end."""
    t = np.linspace(-10.0, 10.0, 3 * BLOCK + 7)
    special = special_points()
    half = special.size // 2
    at = []
    for edge in (0, BLOCK, 2 * BLOCK, 3 * BLOCK, t.size):
        start = min(max(edge - half, 0), t.size - special.size)
        t[start:start + special.size] = special
        at.extend(range(start, start + special.size))
    return t, np.array(at)


def bits(x):
    """The bit patterns of x: one per real value, a pair per complex one."""
    x = np.asarray(x)
    return x.view((np.uint64, 2) if x.dtype == complex else np.uint64)


class TestPositionIndependence:
    t, special_at = straddling_grid()

    @pytest.mark.parametrize("f", EVALUATORS, ids=NAMES)
    def test_whole_grid_equals_slices(self, f):
        pieces = [f(self.t[i:i + 1000]) for i in range(0, self.t.size, 1000)]
        assert np.array_equal(bits(f(self.t)), bits(np.concatenate(pieces)))

    @pytest.mark.parametrize("f", EVALUATORS, ids=NAMES)
    def test_scalar_is_a_float_with_the_same_bits(self, f):
        whole = bits(f(self.t))
        for i in self.special_at:
            got = f(self.t[i])
            assert type(got) is (complex if f is wavelet_spectrum else float)
            assert np.array_equal(bits(got), whole[i]), self.t[i]
            assert np.array_equal(bits(f(np.array(self.t[i]))), whole[i])

    @pytest.mark.parametrize("f", EVALUATORS, ids=NAMES)
    def test_two_dimensional_keeps_its_shape(self, f):
        t = self.t[:self.t.size - 1].reshape(-1, 2)
        for grid in (t, t.T):   # contiguous and strided
            got = f(grid)
            assert got.shape == grid.shape
            assert np.array_equal(bits(got),
                                  bits(f(grid.ravel()).reshape(grid.shape)))

    def test_non_finite_in_a_late_block_is_rejected(self):
        t = self.t.copy()
        t[-1] = np.nan
        for f, name in ((phi, "t"), (psi, "t"), (nu, "x"),
                        (scale_spectrum, "w"),
                        (wavelet_spectrum_magnitude, "w"),
                        (wavelet_spectrum, "w"), (phi_oracle, "t"),
                        (psi_oracle, "t")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                f(t)


class TestMemoryBound:
    """The temporaries stay the size of one block: the peak traced
    allocation is the output plus a fixed amount, at any grid length."""

    @pytest.mark.parametrize("f", EVALUATORS, ids=NAMES)
    def test_peak_is_output_plus_4_mb(self, f):
        t = np.linspace(-50.0, 50.0, 1_000_001)
        tracemalloc.start()
        try:
            out = f(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 4_000_000


class TestOracles:
    """The oracles take t through the same blocks, and each value keeps its
    bits whatever rule its neighbours in the batch take."""

    ORACLES = [phi_oracle, psi_oracle]
    IDS = ["phi_oracle", "psi_oracle"]

    @pytest.mark.parametrize("f", ORACLES, ids=IDS)
    def test_scalar_is_a_float(self, f):
        for t in (1.3, 35.0):
            assert type(f(t)) is float
            assert type(f(np.array(t))) is float

    @pytest.mark.parametrize("f", ORACLES, ids=IDS)
    def test_two_dimensional_keeps_its_shape(self, f):
        t = np.linspace(-30.0, 30.0, 2001)[:2000].reshape(-1, 2)
        for grid in (t, t.T):   # contiguous and strided
            got = f(grid)
            assert got.shape == grid.shape
            assert np.array_equal(got, f(grid.ravel()).reshape(grid.shape))

    # every |t - 1/2| and |t| below FAR_FROM, or every one above it
    @pytest.mark.parametrize("lo, hi", [(-19.0, 19.0), (FAR_FROM + 1.0, 1e4)],
                             ids=["gauss_legendre", "parts"])
    @pytest.mark.parametrize("f", ORACLES, ids=IDS)
    def test_one_family_grid_equals_its_blocks(self, f, lo, hi):
        t = np.linspace(lo, hi, 2 * BLOCK + 5)
        pieces = [f(t[i:i + BLOCK]) for i in range(0, t.size, BLOCK)]
        assert np.array_equal(bits(f(t)), bits(np.concatenate(pieces)))


class TestWaveletSpectrumFinite:
    def test_one_finiteness_pass(self, monkeypatch):
        calls = []
        original = spectral._require_finite

        def counted(part, x, name):
            calls.append(name)
            original(part, x, name)

        monkeypatch.setattr(spectral, "_require_finite", counted)
        wavelet_spectrum(np.linspace(-10.0, 10.0, 101))
        assert calls == ["w"]

    @pytest.mark.parametrize("w", [np.nan, np.inf, [1.0, -np.inf]])
    def test_rejects_non_finite(self, w):
        with pytest.raises(ValueError, match="w must be finite"):
            wavelet_spectrum(w)
