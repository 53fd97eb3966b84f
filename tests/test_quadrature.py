import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss

from meyerwave import closed_form, quadrature, spectral
from meyerwave.quadrature import phi_oracle, psi_oracle
from meyerwave.spectral import SQRT_2PI, W_HI, W_LO, W_MID, scale_spectrum
from meyerwave.verify import ORACLE_COMPARE_TOL

SINGULAR_POINTS = [t for points, _ in closed_form.singular_points().values()
                   for t in points]
ORACLES = [(phi_oracle, closed_form.phi), (psi_oracle, closed_form.psi)]


def integrate(f, a, b, x=0.0):
    """integral_a^b f(w) cos(w x) dw by the oracle's Gauss-Legendre rule,
    one branch."""
    return quadrature._gauss_legendre_integrals(f, (a, b), np.array([x]))[0]


class TestIntegrate:
    # the fixed Gauss-Legendre rule of the oracles, on one branch
    def test_constant(self):
        assert integrate(lambda x: np.ones_like(x), 0.0, 1.0) == pytest.approx(
            1.0, abs=1e-15)

    def test_sine(self):
        assert integrate(np.sin, 0.0, np.pi) == pytest.approx(2.0, abs=1e-14)

    def test_odd_cubic(self):
        assert integrate(lambda x: x**3, -1.0, 1.0) == pytest.approx(0.0,
                                                                     abs=1e-15)

    def test_empty_interval(self):
        assert integrate(np.sin, 2.0, 2.0) == 0.0

    def test_oscillatory_with_enough_panels(self):
        # one branch of 32 nodes resolves cos(40 w) over a unit interval,
        # 20 radians of phase either side of its midpoint: the widest an
        # oracle branch sees below FAR_FROM
        val = integrate(lambda x: np.ones_like(x), 0.0, 1.0, x=40.0)
        assert val == pytest.approx(np.sin(40.0) / 40.0, abs=1e-15)


class TestOracles:
    def test_phi_oracle_centre(self):
        assert phi_oracle(0.0) == pytest.approx(2.0 / 3.0 + 4.0 / (3.0 * np.pi),
                                                abs=1e-10)

    def test_phi_oracle_at_root(self):
        assert phi_oracle(0.75) == pytest.approx(2.0 / (3.0 * np.pi), abs=1e-10)

    def test_phi_oracle_even(self):
        for t in (0.3, 1.2, 4.8):
            assert phi_oracle(-t) == pytest.approx(phi_oracle(t), abs=1e-12)

    def test_psi_oracle_centre(self):
        assert psi_oracle(0.5) == pytest.approx(4.0 / np.pi, abs=1e-10)

    def test_psi_oracle_symmetric_about_half(self):
        for u in (0.2, 1.4, 3.3):
            assert psi_oracle(0.5 + u) == pytest.approx(psi_oracle(0.5 - u),
                                                        abs=1e-12)

    def test_tails_decay(self):
        assert abs(phi_oracle(30.0)) < 1e-3
        assert abs(psi_oracle(30.0)) < 1e-3


# A time: anywhere up to |t| = 1e3, or within 1e-4 of a singularity.
times = st.one_of(
    st.floats(-1e3, 1e3),
    st.builds(lambda s, h: s + h, st.sampled_from(SINGULAR_POINTS),
              st.floats(-1e-4, 1e-4)))


def scalar_oracle(name, t):
    """Reference: a 32-node Gauss-Legendre sum per branch of one point."""
    if name == "phi":
        x, scale, branches = t, 2.0 / SQRT_2PI, (0.0, W_LO, W_MID)
        spectrum = scale_spectrum
    else:
        x, scale = t - 0.5, 2.0
        branches = (W_LO, W_MID, 2.0 * np.pi, W_HI)
        def spectrum(w):
            return scale_spectrum(0.5 * w) * scale_spectrum(w - 2.0 * np.pi)
    u, weights = leggauss(32)
    total = 0.0
    for lo, hi in zip(branches, branches[1:]):
        c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        w = c + h * u
        total += h * math.fsum(spectrum(w) * weights * np.cos(w * x))
    return scale * total


class TestBatchedOracles:
    def test_batch_matches_scalar_reference(self, monkeypatch):
        # the batch sums the same terms in another order; every point takes
        # the Gauss-Legendre path, as the reference does
        monkeypatch.setattr(quadrature, "FAR_FROM", math.inf)
        t = np.concatenate([np.linspace(-8.0, 8.0, 33), SINGULAR_POINTS,
                            [30.0, -117.3, 1000.0]])
        for name, oracle in (("phi", phi_oracle), ("psi", psi_oracle)):
            batch = oracle(t)
            for i, tv in enumerate(t):
                assert abs(batch[i] - scalar_oracle(name, tv)) <= 1e-15, \
                    (name, tv)

    @given(st.lists(times, min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_closed_forms(self, ts):
        t = np.array(ts)
        for oracle, closed in ORACLES:
            err = np.max(np.abs(oracle(t) - closed(t)))
            assert err <= ORACLE_COMPARE_TOL, (oracle.__name__, ts)

    def test_batch_element_equals_one_point_call(self, monkeypatch):
        # exactly, for both rules in one batch and across block boundaries
        t = np.concatenate([np.linspace(-8.0, 8.0, 41), SINGULAR_POINTS,
                            [30.0, -117.3, 1000.0],
                            far_points(20.0, 1e9, 30, seed=8)])
        for block in (spectral._BLOCK, 7):
            monkeypatch.setattr(spectral, "_BLOCK", block)
            for oracle, _ in ORACLES:
                batch = oracle(t)
                for i, tv in enumerate(t):
                    assert batch[i] == oracle(tv), (oracle.__name__, block, tv)

    @pytest.mark.parametrize("oracle", [phi_oracle, psi_oracle])
    @pytest.mark.parametrize("t", [np.array(0.7), np.linspace(-2, 2, 5),
                                   np.linspace(-2, 2, 6).reshape(2, 3),
                                   np.zeros(0), np.zeros((0, 3))],
                             ids=["0d", "1d", "2d", "empty", "empty_2d"])
    def test_shape_is_preserved(self, oracle, t):
        assert np.shape(oracle(t)) == t.shape

    def test_scalar_returns_float(self):
        for oracle, closed in ORACLES:
            value = oracle(1.3)
            assert type(value) is float     # not a numpy scalar
            assert value == pytest.approx(closed(1.3), abs=1e-12)

    def test_rejects_non_finite(self):
        for oracle, _ in ORACLES:
            with pytest.raises(ValueError):
                oracle(np.array([0.0, np.nan]))
            with pytest.raises(ValueError):
                oracle(np.inf)



def far_points(lo, hi, n, seed):
    """n values of |x| in [lo, hi], log-uniform, with both signs."""
    rng = np.random.default_rng(seed)
    x = np.exp(rng.uniform(math.log(lo), math.log(hi), n))
    return np.concatenate([[lo, hi], x, -x, [-lo, -hi]])


class TestFarRule:
    # x = t for phi and t - 1/2 for psi; |x| >= FAR_FROM takes the rule
    SHIFTS = [(phi_oracle, closed_form.phi, 0.0),
              (psi_oracle, closed_form.psi, 0.5)]

    @pytest.fixture
    def spectrum_sizes(self, monkeypatch):
        """Sizes of the arrays the oracles pass to scale_spectrum."""
        sizes = []
        def counting(w):
            sizes.append(np.size(w))
            return scale_spectrum(w)
        monkeypatch.setattr(quadrature, "scale_spectrum", counting)
        return sizes

    def test_crossover_at_twenty(self, spectrum_sizes):
        # both rules sample every branch once: the far rule at 16 nodes,
        # Gauss-Legendre at 32
        for oracle, _, shift in self.SHIFTS:
            for x, far in ((20.0 - 1e-9, False), (20.0, True),
                           (-20.0 + 1e-9, False), (-20.0, True)):
                spectrum_sizes.clear()
                oracle(x + shift)
                assert set(spectrum_sizes) == {16 if far else 32}

    @pytest.mark.parametrize("lo, hi", [(20.0, 1e3), (1e3, 1e9)])
    def test_matches_closed_forms(self, lo, hi):
        x = far_points(lo, hi, 2000, seed=6)
        for oracle, closed, shift in self.SHIFTS:
            err = np.max(np.abs(oracle(x + shift) - closed(x + shift)))
            assert err <= 1e-14, (oracle.__name__, err)

    def test_matches_gauss_legendre_on_overlap(self, monkeypatch):
        # on 1 <= |x| < 20 both rules are accurate
        x = far_points(1.0, 19.99, 200, seed=7)
        gauss = [oracle(x + shift) for oracle, _, shift in self.SHIFTS]
        monkeypatch.setattr(quadrature, "FAR_FROM", 1.0)
        for (oracle, _, shift), value in zip(self.SHIFTS, gauss):
            err = np.max(np.abs(value - oracle(x + shift)))
            assert err <= 1e-12, (oracle.__name__, err)

    def test_work_does_not_depend_on_t(self, spectrum_sizes):
        for oracle, _, shift in self.SHIFTS:
            counts = []
            for t in (25.0 + shift, 1e3, np.linspace(1e6, 1e9, 1000)):
                spectrum_sizes.clear()
                oracle(t)
                counts.append(sum(spectrum_sizes))
            assert counts[0] == counts[1] == counts[2] > 0, counts

    def test_tail_is_accurate_relative_to_t_squared(self):
        # the error is relative to the t^-2 tail, from 1e4 to 1e150
        x = far_points(1e4, 1e150, 2000, seed=9)
        for oracle, closed, shift in self.SHIFTS:
            err = np.max(np.abs(oracle(x + shift) - closed(x + shift)) * x**2)
            assert err <= 1e-11, (oracle.__name__, err)

    def test_largest_floats_match_closed_forms(self):
        # every finite t has a value; pyproject.toml makes a numpy
        # RuntimeWarning an error
        big = np.finfo(float).max
        for (oracle, closed, _), top in zip(self.SHIFTS, (1.7e308, big)):
            t = np.array([top, -top])
            value = oracle(t)
            assert np.all(np.isfinite(value))
            assert np.array_equal(value, closed(t)), oracle.__name__


class TestRuleCache:
    @pytest.mark.parametrize("n", [quadrature._FAR_NODES,
                                   quadrature._GL_NODES])
    def test_rule_is_leggauss_and_read_only(self, n):
        u, weights, project, ends = quadrature._legendre_rule(n)
        ref_u, ref_weights = leggauss(n)
        assert np.array_equal(u, ref_u)
        assert np.array_equal(weights, ref_weights)
        assert project.shape == (n, n)
        assert ends.shape == (2, n, n)
        for a in (u, weights, project, ends):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        assert quadrature._legendre_rule(n) is quadrature._legendre_rule(n)

    def test_projection_recovers_legendre_coefficients(self):
        # project @ f(u) is exact for a polynomial of degree below n
        n = quadrature._FAR_NODES
        u, _, project, _ = quadrature._legendre_rule(n)
        coef = np.arange(1.0, n + 1.0)
        values = np.polynomial.legendre.legval(u, coef)
        assert np.allclose(project @ values, coef, rtol=0, atol=1e-12)

    def test_ends_give_the_derivatives_at_both_ends(self):
        # ends @ (project @ P(u)) is P, P', ..., P^(n-1) at u = -1 and +1,
        # for P of degree n - 1
        n = quadrature._FAR_NODES
        u, _, project, ends = quadrature._legendre_rule(n)
        poly = np.polynomial.Polynomial(np.linspace(-1.0, 1.0, n))
        expected = [[poly.deriv(k)(s) for k in range(n)] for s in (-1.0, 1.0)]
        got = ends @ (project @ poly(u))
        assert np.allclose(got, expected, rtol=1e-10, atol=1e-10)

    def test_repeated_calls_are_equal(self):
        # the shared rule is not altered by a call: both families, twice
        t = np.concatenate([np.linspace(-30.0, 30.0, 241), SINGULAR_POINTS])
        for oracle, _ in ORACLES:
            assert np.array_equal(oracle(t), oracle(t))
