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
        assert list(table) == ["phi", "psi1", "psi2"]
        assert table["phi"][0] == (-0.75, 0.0, 0.75)
        assert table["psi1"][0] == (-0.25, 0.5, 1.25)
        assert table["psi2"][0] == (0.125, 0.5, 0.875)

    def test_limits_match_analytic_values(self):
        table = singular_points()
        assert table["phi"][1] == pytest.approx(
            (2.0 / (3.0 * np.pi), 2.0 / 3.0 + 4.0 / (3.0 * np.pi),
             2.0 / (3.0 * np.pi)), abs=1e-14)
        assert table["psi1"][1] == pytest.approx(
            (-1.0 / 3.0, 4.0 / (3.0 * np.pi) - 4.0 / 3.0, -1.0 / 3.0),
            abs=1e-14)
        assert table["psi2"][1] == pytest.approx(
            (4.0 / (3.0 * np.pi), 8.0 / (3.0 * np.pi) + 4.0 / 3.0,
             4.0 / (3.0 * np.pi)), abs=1e-14)

    def test_phi_zero_limit_is_exact_everywhere(self):
        # the series path at the t = 0 root is the only source of phi(0)
        exact = 2.0 / 3.0 + 4.0 / (3.0 * np.pi)
        assert singular_points()["phi"][1][1] == exact
        assert phi(-0.0) == exact
        assert np.all(phi(np.zeros((2, 3))) == exact)

    def test_limits_match_oracle(self):
        table = singular_points()
        for t, ref in zip(*table["phi"]):
            assert phi_oracle(t) == pytest.approx(ref, abs=1e-10)
        # psi1/psi2 share the centre root; only their sum has an oracle
        assert psi_oracle(0.5) == pytest.approx(
            table["psi1"][1][1] + table["psi2"][1][1], abs=1e-10)

    def test_functions_return_limits_at_roots(self):
        for name, (pts, lims) in singular_points().items():
            fn = getattr(closed_form, name)
            for t, ref in zip(pts, lims):
                assert fn(t) == pytest.approx(ref, rel=1e-13)


class TestContinuity:
    @pytest.mark.parametrize("h", [1e-5, 1e-6, 1e-7])
    def test_no_jump_at_any_root(self, h):
        for name, (pts, _) in singular_points().items():
            fn = getattr(closed_form, name)
            for s in pts:
                for sgn in (1.0, -1.0):
                    assert abs(fn(s) - fn(s + sgn * h)) <= 50.0 * h

    def test_guard_seam_is_smooth(self):
        # series path just inside the guard radius vs direct just outside
        for fn, s in ((phi, 0.75), (psi1, 1.25), (psi2, 0.875)):
            inside = fn(s + GUARD_RADIUS - 1e-7)
            outside = fn(s + GUARD_RADIUS + 1e-7)
            # the points sit 2e-7 apart and local slopes reach ~6
            assert inside == pytest.approx(outside, abs=1e-5)

    # phi, psi1 and psi2 beside each denominator root, at NEAR_OFFSETS
    # above and then below it: 1e-4 to 1e-3, where the ratio used to lose
    # ~3e-13 to cancellation, and 0.5 to 2 guard radii.  From the forms with
    # exact constants at the float y = t - center in 50-digit arithmetic
    # (mpmath), then frozen.
    NEAR_OFFSETS = np.array([1.01e-4, 3e-4, 1e-3, 1.5e-2, 2.99e-2, 3.01e-2,
                             6e-2])
    NEAR_REFERENCES = {
        ('phi', -0.75): (
            0.21235523258028739, 0.21264815433203632, 0.21367909299362619,
            0.23447676157052538, 0.25696688808694296, 0.25727112963726563,
            0.30339569690290452, 0.21205796721522632, 0.21176518796992884,
            0.21073587440057194, 0.19033813340787069, 0.16904132374676076,
            0.16875847124483641, 0.1274219921057773),
        ('phi', 0.0): (
            1.0910798250779771, 1.0910796438497174, 1.0910775771871333,
            1.0905689364941422, 1.0890507078157827, 1.0890234877826756,
            1.082923627435108, 1.0910798250779771, 1.0910796438497174,
            1.0910775771871333, 1.0905689364941422, 1.0890507078157827,
            1.0890234877826756, 1.082923627435108),
        ('phi', 0.75): (
            0.21205796721522632, 0.21176518796992884, 0.21073587440057194,
            0.19033813340787069, 0.16904132374676076, 0.16875847124483641,
            0.1274219921057773, 0.21235523258028739, 0.21264815433203632,
            0.21367909299362619, 0.23447676157052538, 0.25696688808694296,
            0.25727112963726563, 0.30339569690290452),
        ('psi1', -0.25): (
            -0.33344555779957416, -0.33366668644926214, -0.33444466364009341,
            -0.35004655674546312, -0.36672875777710345, -0.36695314380223617,
            -0.40060034488674283, -0.33322111335692744, -0.33300001982970746,
            -0.33222244316275627, -0.3167191119766139, -0.30033094233564253,
            -0.30011182570529717, -0.26764347239088109),
        ('psi1', 0.5): (
            -0.90892013795908633, -0.90892003003871203, -0.90891879935296394,
            -0.90861589538465145, -0.90771163053844508, -0.90769541630624556,
            -0.90406025674266168, -0.90892013795908633, -0.90892003003871203,
            -0.90891879935296394, -0.90861589538465145, -0.90771163053844508,
            -0.90769541630624556, -0.90406025674266168),
        ('psi1', 1.25): (
            -0.33322111335692756, -0.33300001982970746, -0.33222244316275639,
            -0.31671911197661402, -0.30033094233564253, -0.30011182570529717,
            -0.26764347239088109, -0.33344555779957404, -0.33366668644926214,
            -0.33444466364009329, -0.35004655674546299, -0.36672875777710345,
            -0.36695314380223617, -0.40060034488674283),
        ('psi2', 0.125): (
            0.42500778515925471, 0.42617975673138496, 0.43030674477013252,
            0.51423800255010792, 0.60616645471568277, 0.60741643134073974,
            0.79799052067622384, 0.42381872373452489, 0.42264789221364385,
            0.41853390486781011, 0.33779977465308909, 0.25538399484223234,
            0.25430415436451304, 0.10148877542547471),
        ('psi2', 0.5): (
            2.1821595111534952, 2.1821580613277079, 2.1821415280630679,
            2.1780742408562969, 2.1659555644694544, 2.1657385871169225,
            2.1173779148262503, 2.1821595111534952, 2.1821580613277079,
            2.1821415280630679, 2.1780742408562969, 2.1659555644694545,
            2.1657385871169225, 2.1173779148262504),
        ('psi2', 0.875): (
            0.42381872373452489, 0.42264789221364385, 0.41853390486781011,
            0.33779977465308909, 0.25538399484223204, 0.25430415436451304,
            0.10148877542547444, 0.42500778515925471, 0.42617975673138496,
            0.43030674477013252, 0.51423800255010792, 0.60616645471568277,
            0.60741643134073974, 0.7979905206762242),
    }

    @pytest.mark.parametrize("name, root", list(NEAR_REFERENCES),
                             ids=lambda v: f"{v:g}" if isinstance(v, float)
                             else v)
    def test_near_roots_match_high_precision(self, name, root):
        t = np.concatenate([root + self.NEAR_OFFSETS,
                            root - self.NEAR_OFFSETS])
        err = np.abs(getattr(closed_form, name)(t)
                     - np.array(self.NEAR_REFERENCES[name, root]))
        assert np.max(err) <= 1e-14, (t[np.argmax(err)], np.max(err))

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
        # the phase-reduced ratio against the ratio as written, where both
        # are accurate: in the tail they differ by the phase round-off of
        # q*y; next to a root each loses up to ~5e-13 to cancellation, so
        # the two may differ by twice that
        tail = np.geomspace(20.0, 1e3, 500)
        tail = np.concatenate([tail, -tail])
        rng = np.random.default_rng(12)
        h = np.geomspace(GUARD_RADIUS, 1.0, 200)
        near = np.concatenate(
            [10.0 ** rng.uniform(-4.0, 3.0, 4000) * rng.choice([-1.0, 1.0],
                                                              4000)]
            + [y0 + sgn * h for y0 in form.roots for sgn in (-1.0, 1.0)])
        near = near[np.all([np.abs(near - y0) >= GUARD_RADIUS
                            for y0 in form.roots], axis=0)]
        for y, bound in ((tail, 1e-10 / tail**2), (near, 1e-12)):
            written = ((form.p * y * np.cos(form.q * y)
                        + form.r * np.sin(form.s * y))
                       / (form.d1 * y + form.d3 * y**3))
            assert np.all(np.abs(form(y + form.center) - written) <= bound)

    # phi, psi1 and psi2 at float t, from the forms with exact multiples of
    # 2pi/3 evaluated at the float y = t - center in 400-digit arithmetic
    # (mpmath), then frozen
    FAR_REFERENCES = {
        1e6: (1.1936605225773680785e-13, -1.1936617162380105951e-13,
              5.9683124577246458307e-14),
        -1e6: (1.1936605225773680785e-13, 2.3873217590574170172e-13,
               -1.1936608795282049334e-13),
        1e10: (1.1936620730341537664e-21, -1.1936620731535199737e-21,
               5.9683103661552529983e-22),
        -1e10: (1.1936620730341537664e-21, 2.3873241461396976219e-21,
                -1.193662073069848811e-21),
        1e15: (1.1936620731892134677e-31, -1.1936620731892146613e-31,
               5.9683103659460771831e-32),
        -1e15: (1.1936620731892134677e-31, 2.3873241463784276492e-31,
                -1.1936620731892138246e-31),
        1e50: (1.1936620731892148361e-101, 1.1936620731892148361e-101,
               5.9683103659460741806e-102),
        -1e50: (1.1936620731892148361e-101, 1.1936620731892148361e-101,
                5.9683103659460741806e-102),
        1e99: (-2.3873241463784301925e-199, -2.3873241463784301925e-199,
               -1.1936620731892150962e-199),
        -1e99: (-2.3873241463784301925e-199, -2.3873241463784301925e-199,
                -1.1936620731892150962e-199),
        1e120: (-2.387324146378430132e-241, -2.387324146378430132e-241,
                -1.193662073189215066e-241),
        -1e120: (-2.387324146378430132e-241, -2.387324146378430132e-241,
                 -1.193662073189215066e-241),
    }

    @pytest.mark.parametrize("t", sorted(FAR_REFERENCES), ids="{:g}".format)
    def test_far_tail_matches_high_precision(self, t):
        refs = np.array(self.FAR_REFERENCES[t])
        got = np.array([phi(t), psi1(t), psi2(t)])
        assert np.all(np.abs(got - refs) <= 1e-14 * np.abs(refs))

    def test_tail_bound_at_20(self):
        # tail envelope bound with the empirically fitted constant; the
        # leading tail term decays as t^-2
        assert abs(psi(20.0)) <= 1.0 / 20.0**2
