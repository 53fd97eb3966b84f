import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meyerwave import closed_form
from meyerwave.closed_form import (GUARD_RADIUS, phi, psi, psi1, psi2,
                                   singular_points)
from meyerwave.quadrature import phi_oracle, psi_oracle

# Frozen references, computed with 40-digit arithmetic from the rational
# forms and confirmed against the quadrature oracle before freezing.
PHI_AT_1 = -0.081588673185045741939
PHI_AT_2 = 0.057279078760032293466
PSI1_AT_1P5 = -0.081588673185045741939
PSI_AT_1 = -0.77359749470876836715
PSI_AT_2 = 0.08488263631567751241


class TestAnchors:
    def test_phi_at_zero_exact(self):
        assert phi(0.0) == 2.0 / 3.0 + 4.0 / (3.0 * np.pi)

    def test_phi_at_root(self):
        assert phi(0.75) == pytest.approx(2.0 / (3.0 * np.pi), abs=1e-14)
        assert phi(0.75) == pytest.approx(phi_oracle(0.75), abs=1e-10)

    def test_phi_regular_points(self):
        assert phi(1.0) == pytest.approx(PHI_AT_1, abs=1e-15)
        assert phi(2.0) == pytest.approx(PHI_AT_2, abs=1e-15)

    def test_psi1_centre_limit(self):
        assert psi1(0.5) == pytest.approx(4.0 / (3.0 * np.pi) - 4.0 / 3.0,
                                          abs=1e-14)

    def test_psi1_regular_point(self):
        assert psi1(1.5) == pytest.approx(PSI1_AT_1P5, abs=1e-15)

    def test_psi2_centre_limit(self):
        assert psi2(0.5) == pytest.approx(8.0 / (3.0 * np.pi) + 4.0 / 3.0,
                                          abs=1e-14)

    def test_psi2_outer_root_limit(self):
        assert psi2(0.875) == pytest.approx(4.0 / (3.0 * np.pi), abs=1e-14)

    def test_psi_centre(self):
        assert psi(0.5) == pytest.approx(4.0 / np.pi, abs=1e-14)
        assert psi(0.5) == pytest.approx(psi_oracle(0.5), abs=1e-10)

    def test_psi_regular_points(self):
        assert psi(1.0) == pytest.approx(PSI_AT_1, abs=1e-14)
        assert psi(2.0) == pytest.approx(PSI_AT_2, abs=1e-14)


class TestSingularPoints:
    def test_tables(self):
        table = singular_points()
        assert table.phi_singularities == (-0.75, 0.0, 0.75)
        assert table.psi1_singularities == (-0.25, 0.5, 1.25)
        assert table.psi2_singularities == (0.125, 0.5, 0.875)

    def test_limits_match_analytic_values(self):
        table = singular_points()
        assert table.phi_limits == pytest.approx(
            (2.0 / (3.0 * np.pi), 2.0 / 3.0 + 4.0 / (3.0 * np.pi),
             2.0 / (3.0 * np.pi)), abs=1e-14)
        assert table.psi1_limits == pytest.approx(
            (-1.0 / 3.0, 4.0 / (3.0 * np.pi) - 4.0 / 3.0, -1.0 / 3.0),
            abs=1e-14)
        assert table.psi2_limits == pytest.approx(
            (4.0 / (3.0 * np.pi), 8.0 / (3.0 * np.pi) + 4.0 / 3.0,
             4.0 / (3.0 * np.pi)), abs=1e-14)

    def test_phi_zero_limit_is_exact_everywhere(self):
        # the series path at the t = 0 root is the only source of phi(0)
        exact = 2.0 / 3.0 + 4.0 / (3.0 * np.pi)
        assert singular_points().phi_limits[1] == exact
        assert phi(-0.0) == exact
        assert np.all(phi(np.zeros((2, 3))) == exact)

    def test_limits_match_oracle(self):
        table = singular_points()
        for t, ref in zip(table.phi_singularities, table.phi_limits):
            assert phi_oracle(t) == pytest.approx(ref, abs=1e-10)
        # psi1/psi2 share the centre root; only their sum has an oracle
        assert psi_oracle(0.5) == pytest.approx(
            table.psi1_limits[1] + table.psi2_limits[1], abs=1e-10)

    def test_functions_return_limits_at_roots(self):
        table = singular_points()
        for fn, pts, lims in (
                (phi, table.phi_singularities, table.phi_limits),
                (psi1, table.psi1_singularities, table.psi1_limits),
                (psi2, table.psi2_singularities, table.psi2_limits)):
            for t, ref in zip(pts, lims):
                assert fn(t) == pytest.approx(ref, rel=1e-13)


class TestContinuity:
    @pytest.mark.parametrize("h", [1e-5, 1e-6, 1e-7])
    def test_no_jump_at_any_root(self, h):
        table = singular_points()
        for fn, pts in ((phi, table.phi_singularities),
                        (psi1, table.psi1_singularities),
                        (psi2, table.psi2_singularities)):
            for s in pts:
                for sgn in (1.0, -1.0):
                    assert abs(fn(s) - fn(s + sgn * h)) <= 50.0 * h

    def test_guard_seam_is_smooth(self):
        # series path just inside the guard radius vs direct just outside
        for fn, s in ((phi, 0.75), (psi1, 1.25), (psi2, 0.875)):
            inside = fn(s + 0.999 * GUARD_RADIUS)
            outside = fn(s + 1.001 * GUARD_RADIUS)
            # the points sit 2e-7 apart and local slopes reach ~6
            assert inside == pytest.approx(outside, abs=1e-5)

    def test_series_matches_oracle_near_root(self):
        for off in (1e-9, 1e-7, 1e-5):
            assert phi(0.75 + off) == pytest.approx(phi_oracle(0.75 + off),
                                                    abs=1e-10)


class TestSymmetry:
    @given(st.floats(-20.0, 20.0))
    @settings(max_examples=50)
    def test_phi_even(self, t):
        assert phi(t) == pytest.approx(phi(-t), abs=1e-12)

    @given(st.floats(0.0, 20.0))
    @settings(max_examples=50)
    def test_psi_even_about_half(self, u):
        assert psi(0.5 + u) == pytest.approx(psi(0.5 - u), abs=1e-12)

    @given(st.floats(0.0, 20.0))
    @settings(max_examples=50)
    def test_psi1_psi2_even_about_half(self, u):
        assert psi1(0.5 + u) == pytest.approx(psi1(0.5 - u), abs=1e-12)
        assert psi2(0.5 + u) == pytest.approx(psi2(0.5 - u), abs=1e-12)


class TestEvaluation:
    def test_vectorized_matches_scalar(self):
        t = np.array([-0.75, -0.1, 0.0, 0.5, 0.75, 0.875, 3.2])
        assert phi(t) == pytest.approx([phi(v) for v in t], abs=0)
        assert psi(t) == pytest.approx([psi(v) for v in t], abs=0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            phi(np.nan)
        with pytest.raises(ValueError):
            psi(np.inf)

    def test_far_tail_is_small_and_finite(self):
        for t in (1e3, 1e6, 1e8, 2e8):
            v = psi(t)
            assert np.isfinite(v)
            assert abs(v) < 1.0 / t  # far below the near-field scale

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("f", [phi, psi, psi1, psi2],
                             ids=["phi", "psi", "psi1", "psi2"])
    def test_finite_and_bounded_up_to_float_max(self, f):
        # y**3, p*y and q*y overflow on the way up to the largest float
        rng = np.random.default_rng(11)
        mag = 10.0 ** rng.uniform(2.0, np.log10(1.79e308), 4000)
        t = np.concatenate([mag * rng.choice([-1.0, 1.0], mag.size),
                            [1.79e308, -1.79e308, np.finfo(float).max]])
        v = f(t)
        assert np.all(np.isfinite(v))
        assert np.all(np.abs(v) <= 1.0 / np.abs(t))

    @pytest.mark.parametrize("form", [closed_form._PHI, closed_form._PSI1,
                                      closed_form._PSI2],
                             ids=["phi", "psi1", "psi2"])
    def test_far_form_is_the_same_ratio(self, form):
        # _far_eval only runs beyond |y| ~ 5.6e102; where both forms are
        # accurate they agree to the phase round-off of q*y
        y = np.geomspace(20.0, 1e3, 500)
        y = np.concatenate([y, -y])
        near = ((form.p * y * np.cos(form.q * y) + form.r * np.sin(form.s * y))
                / (form.d1 * y + form.d3 * y**3))
        assert np.max(np.abs(form._far_eval(y) - near) * y * y) <= 1e-10

    def test_unchanged_where_the_cube_is_finite(self):
        rng = np.random.default_rng(12)
        t = 10.0 ** rng.uniform(-3.0, 102.3, 4000) * rng.choice([-1.0, 1.0],
                                                               4000)
        for form in (closed_form._PHI, closed_form._PSI1, closed_form._PSI2):
            y = t - form.center
            expected = ((form.p * y * np.cos(form.q * y)
                         + form.r * np.sin(form.s * y))
                        / (form.d1 * y + form.d3 * y**3))
            far_from_roots = np.all([np.abs(y - y0) >= GUARD_RADIUS
                                     for y0 in form.roots], axis=0)
            assert np.array_equal(form(t)[far_from_roots],
                                  expected[far_from_roots])

    def test_tail_bound_at_20(self):
        # tail envelope bound with the empirically fitted constant; the
        # leading tail term decays as t^-2
        assert abs(psi(20.0)) <= 1.0 / 20.0**2
