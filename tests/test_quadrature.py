import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss

import meyerwave
from meyerwave import closed_form, quadrature, spectral
from meyerwave.quadrature import phi_oracle, psi_oracle
from meyerwave.spectral import SQRT_2PI, scale_spectrum
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

    def test_odd_rule_counts_its_centre_node_once(self, monkeypatch):
        # an odd rule's centre node is in both halves of the pairs, at half
        # its weight; 5 nodes integrate cos over a unit interval to ~4e-13
        monkeypatch.setattr(quadrature, "_GL_NODES", 5)
        for x, exact in ((0.0, 1.0), (1.0, np.sin(1.0))):
            val = integrate(lambda w: np.ones_like(w), 0.0, 1.0, x=x)
            assert val == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("name", ["phi", "psi"])
    def test_angle_addition_matches_direct_cosines(self, name):
        # The rule takes cos(x w) at the nodes w = c + h u as
        # cos(x c) cos(x h u) - sin(x c) sin(x h u); the direct rule takes
        # it at the same nodes as one cosine.  Both are exact but for
        # rounding, with eps = 2**-52, and |cos a - cos b| <= |a - b|:
        # - the angles: fl(x fl(c + h u)) errs by at most eps |x| |w|, and
        #   fl(x c) + fl(x h u) by eps/2 |x| (|c| + h |u|), so the two
        #   differ by at most 3/2 eps |x| (|c| + h |u|);
        # - five sines and cosines, each within 4 ulps, 2 eps, of a value
        #   at most 1: 10 eps;
        # - the weights f h W: a product in the direct rule, a sum or
        #   difference and a product in angle addition: 3 eps/2;
        # - the sums: the direct rule adds 32 terms per branch and 3
        #   branches, 35 eps/2; angle addition 16 pairs, each two terms of
        #   at most |f(c + h u)| + |f(c - h u)| times h W, with 2 products,
        #   a difference and 3 branches, 2 * 22 eps/2.
        # So a node adds |f(w) h W| (3/2 eps |x| (|c| + h |u|) + 51 eps).
        _, _, spectrum, branches = oracle_rule(name)
        x = np.concatenate([far_points(1e-3, quadrature.FAR_FROM * (1 - 1e-12),
                                       400, seed=3), [0.0]])
        u, weights = leggauss(quadrature._GL_NODES)
        h = 0.5 * (branches[1] - branches[0])
        direct = np.zeros_like(x)
        bound = np.zeros_like(x)
        eps = np.finfo(float).eps
        for lo, hi in zip(branches, branches[1:]):
            c = 0.5 * (lo + hi)
            w = c + h * u
            g = spectrum(w) * (h * weights)
            direct += np.cos(np.multiply.outer(x, w)) @ g
            bound += eps * (1.5 * np.abs(x)[:, None] * (abs(c) + np.abs(h * u))
                            + 51) @ np.abs(g)
        rule = quadrature._gauss_legendre_integrals(spectrum, branches, x)
        assert np.all(np.abs(rule - direct) <= bound)


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


def oracle_rule(name):
    """x's shift, scale, integrand and branches of one oracle."""
    if name == "phi":
        return 0.0, 2.0 / SQRT_2PI, scale_spectrum, quadrature._PHI_BRANCHES
    return 0.5, 2.0, quadrature._wavelet_integrand, quadrature._PSI_BRANCHES


def scalar_oracle(name, t):
    """Reference: the oracle's rule at one point, its terms summed exactly.
    Every branch [c - h, c + h] is taken at the first branch's half-width
    h, which the others equal but for the rounding of their ends, and each
    pair of the 32 nodes c +/- h u, u > 0, adds the terms
    cos(x c) cos(x h u) (f(c + h u) + f(c - h u)) h W
    - sin(x c) sin(x h u) (f(c + h u) - f(c - h u)) h W."""
    shift, scale, spectrum, branches = oracle_rule(name)
    x = t - shift
    u, weights = leggauss(32)
    h = 0.5 * (branches[1] - branches[0])
    hu, hw = h * u[16:], h * weights[16:]
    terms = []
    for lo, hi in zip(branches, branches[1:]):
        c = 0.5 * (lo + hi)
        f_plus, f_minus = spectrum(c + hu), spectrum(c - hu)
        terms += list(np.cos(x * c) * np.cos(x * hu) * (f_plus + f_minus) * hw)
        terms += list(-np.sin(x * c) * np.sin(x * hu) * (f_plus - f_minus) * hw)
    return scale * math.fsum(terms)


class TestBatchedOracles:
    def test_batch_matches_scalar_reference(self, monkeypatch):
        # the batch sums the same terms, rounded, in another order; every
        # point takes the Gauss-Legendre path, as the reference does
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

    def test_import_leaves_numpy_polynomial_unloaded(self):
        # the rules are built on first use, and numpy.polynomial with them:
        # a fresh interpreter shows it absent after `import meyerwave` and
        # present after an oracle call
        root = os.path.dirname(os.path.dirname(
            os.path.abspath(meyerwave.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [root, os.environ.get("PYTHONPATH")])))
        code = ("import sys, meyerwave\n"
                "print('numpy.polynomial' in sys.modules)\n"
                "meyerwave.phi_oracle(0.0)\n"
                "print('numpy.polynomial' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "True"], out.stderr
