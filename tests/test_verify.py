import json
import math

import numpy as np
import pytest

from meyerwave import (closed_form, export, quadrature, signals, spectral,
                       verify)
from meyerwave.cli import main

EXPECTED_CHECKS = [
    "nu_complementarity",
    "branch_continuity",
    "partition_of_unity_scale",
    "partition_of_unity_scale_wavelet",
    "littlewood_paley_two_scale",
    "spectral_product_identity",
    "spectral_energy",
    "singularity_continuity",
    "phi_oracle_agreement",
    "psi_oracle_agreement",
    "phi_even_symmetry",
    "psi_center_symmetry",
    "phi_unit_integral",
    "psi_zero_mean",
    "phi_unit_energy",
    "psi_unit_energy",
    "shift_orthogonality",
    "decay_slope_offset_from_minus_3",
    "quadrature_scheme_independence",
    "oracle_integrand_consistency",
    "oracle_tail_decay",
    "decompose_tone",
    "hilbert_energy",
    "hilbert_tone",
    "quadrature_reconstruction_closure",
    "scale_identity_closure",
    "envelope_dominance",
    "csv_round_trip",
]


@pytest.fixture(scope="module")
def report():
    return verify.run_verification()


class TestReport:
    def test_every_check_appears_exactly_once(self, report):
        names = [c.name for c in report.checks]
        assert names == EXPECTED_CHECKS

    def test_nan_value_fails(self, report):
        # a NaN deviation is no measurement: it must read FAIL, which a
        # verdict written as `not value > tolerance` would miss
        nan = verify.Check("nan_check", math.nan, 1.0)
        assert nan.passed is False
        bad = verify.VerificationReport(
            report.checks + (nan,), report.grid_description,
            report.timestamp)
        assert bad.render_table().splitlines()[-2].endswith("FAIL")
        assert bad.overall_pass is False
        assert json.loads(bad.to_json())["checks"][-1]["passed"] is False

    def test_core_identities_hold(self, report):
        by_name = {c.name: c for c in report.checks}
        for name in ("partition_of_unity_scale", "spectral_product_identity",
                     "phi_oracle_agreement", "psi_oracle_agreement",
                     "quadrature_reconstruction_closure", "csv_round_trip"):
            assert by_name[name].passed, f"{name}: {by_name[name]}"

    def test_scheme_independence_measures_a_difference(self, report):
        # the two rules agree closely but not bit for bit
        check = {c.name: c for c in report.checks}[
            "quadrature_scheme_independence"]
        assert 0.0 < check.value <= check.tolerance

    def test_values_are_floats(self, report):
        for c in report.checks:
            assert type(c.value) is float, c.name

    def test_json_round_trips(self, report):
        payload = json.loads(report.to_json())
        assert payload["overall_pass"] == report.overall_pass
        assert len(payload["checks"]) == len(report.checks)

    def test_table_mentions_every_check(self, report):
        table = report.render_table()
        for name in EXPECTED_CHECKS:
            assert name in table


def scalar_continuity():
    """Reference: singularity_continuity as one scalar call per point."""
    worst = 0.0
    for name, (points, _) in closed_form.singular_points().items():
        fn = getattr(closed_form, name)
        for s in points:
            for h in (1e-5, 1e-6, 1e-7):
                for sgn in (1.0, -1.0):
                    worst = max(worst, abs(fn(s) - fn(s + sgn * h)) / h)
    return worst


class TestSingularityContinuity:
    def test_equals_the_scalar_loop(self, report):
        check = {c.name: c for c in report.checks}["singularity_continuity"]
        assert check.value == scalar_continuity()

    def test_equals_the_scalar_loop_under_a_step(self, monkeypatch):
        # a nonzero step beside one root, so the two are compared away
        # from the default's own maximum too
        original = closed_form.psi2
        monkeypatch.setattr(closed_form, "psi2", lambda t: original(t)
                            + 3e-4 * (np.asarray(t) == 0.875 - 1e-6))
        check = TestChecksCanFail.verdict("singularity_continuity")
        assert check.value == scalar_continuity() > 100.0


class TestGridDescription:
    def test_default_grid_ends_at_its_span(self, report):
        assert report.grid_description.startswith(
            "signal grid t in [-16.0, 16.0], dt=0.015625, ")


class TestDecaySlope:
    def test_fit_grid_is_the_arange_grid(self, monkeypatch):
        # the fit's abscissas are np.arange(5, 50, 1/512) bit for bit, so
        # decay_slope_offset_from_minus_3 keeps its bytes
        seen = []
        original = closed_form.psi
        monkeypatch.setattr(closed_form, "psi",
                            lambda t: seen.append(t) or original(t))
        verify.decay_slope()
        assert seen[0].tobytes() == np.arange(5.0, 50.0, 1.0 / 512).tobytes()


class TestCliVerify:
    def test_exit_status_contract(self, tmp_path, capsys, report):
        out = tmp_path / "report.json"
        code = main(["verify", "--output", str(out)])
        payload = json.loads(out.read_text())
        assert (code == 0) == payload["overall_pass"]
        assert code in (0, 1)

    def test_deterministic_apart_from_timestamp(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            main(["verify", "--output", str(p)])
        payloads = []
        for p in paths:
            d = json.loads(p.read_text())
            d.pop("timestamp")
            payloads.append(json.dumps(d, sort_keys=True))
        assert payloads[0] == payloads[1]


# (module, attribute, corruption of the original, the check it fails),
# each commented with the check's value under the corruption
CORRUPTIONS = [
    # ~1e-12
    (spectral, "nu", lambda f: lambda x: f(x) * (1.0 + 1e-12),
     "nu_complementarity"),
    # ~1.6e-7
    (spectral, "scale_spectrum",
     lambda f: lambda w: f(w) * math.sqrt(1.0 + 1e-6),
     "partition_of_unity_scale"),
    # ~1.6e-9
    (closed_form, "phi", lambda f: lambda t: f(t) + 1e-10 * np.asarray(t),
     "phi_even_symmetry"),
    # ~1.6e-9
    (closed_form, "psi",
     lambda f: lambda t: f(t) + 1e-10 * (np.asarray(t) - 0.5),
     "psi_center_symmetry"),
    # ~9.7e-3
    (quadrature, "phi_oracle",
     lambda f: lambda t: f(t) + 1e-2 * (np.asarray(t) == 30.0),
     "oracle_tail_decay"),
    # ~3.2e-10: the check reads the oracle's own integrand
    (quadrature, "_wavelet_integrand",
     lambda f: lambda w: f(w) * (1.0 + 1e-9),
     "oracle_integrand_consistency"),
    # ~2.10: the tone comes back untransformed
    (signals, "hilbert", lambda f: lambda s: s, "hilbert_tone"),
    # ~2e-9: the signal is sampled inside run_verification, after patching,
    # so its cached transform uses the scaled kernel
    (signals, "_hilbert_kernel", lambda f: lambda n: f(n) * (1.0 + 1e-9),
     "hilbert_energy"),
]


class TestChecksCanFail:
    """A targeted corruption flips the named check to FAIL."""

    @staticmethod
    def verdict(name):
        return {c.name: c for c in verify.run_verification().checks}[name]

    def test_scheme_independence_sees_a_16_node_rule(self, monkeypatch):
        # ~4e-5 off at |x| near 20
        monkeypatch.setattr(quadrature, "_GL_NODES", 16)
        assert not self.verdict("quadrature_scheme_independence").passed

    def test_scheme_independence_sees_an_8_node_fit(self, monkeypatch):
        # ~2.7e-8: the far rule's fit misses the spectra
        monkeypatch.setattr(quadrature, "_FAR_NODES", 8)
        assert not self.verdict("quadrature_scheme_independence").passed

    def test_spectral_energy_sees_a_scaled_density(self, monkeypatch):
        original = spectral.scale_spectrum
        factor = math.sqrt(1.0 + 1e-6)
        monkeypatch.setattr(spectral, "scale_spectrum",
                            lambda w: factor * original(w))
        assert not self.verdict("spectral_energy").passed

    def test_csv_round_trip_sees_16_digits(self, monkeypatch):
        monkeypatch.setattr(export, "_format_rows", lambda pairs: "".join(
            f"{a:.16g},{v:.16g}\n" for a, v in pairs.tolist()))
        check = self.verdict("csv_round_trip")
        assert not check.passed and check.value > 0.0

    @pytest.mark.parametrize("name", list(closed_form.singular_points()))
    def test_singularity_continuity_sees_a_step_beside_a_root(
            self, monkeypatch, name):
        original = getattr(closed_form, name)
        root = closed_form.singular_points()[name][0][0]

        def stepped(t):
            y = np.asarray(t) - root
            return original(t) + 1e-4 * ((y > 0.0) & (y < 1e-5))

        monkeypatch.setattr(closed_form, name, stepped)
        assert not self.verdict("singularity_continuity").passed

    # Neither point lies on the check's linspace(-8, 8, 4001) grid: only
    # the singular points appended to it reach them.
    @pytest.mark.parametrize("oracle, root", [("phi_oracle", 0.75),
                                              ("psi_oracle", 1.25)])
    def test_oracle_agreement_sees_a_singular_point(self, monkeypatch,
                                                    oracle, root):
        original = getattr(quadrature, oracle)
        monkeypatch.setattr(quadrature, oracle, lambda t: original(t)
                            + 1e-6 * (np.asarray(t) == root))
        check = oracle.replace("oracle", "oracle_agreement")
        assert not self.verdict(check).passed

    def test_hilbert_tone_sees_a_swapped_sign(self, monkeypatch):
        # ~2.96: the tone's transform comes back negated.  The tone is built
        # after patching, so no cached transform is read.
        original = signals._hilbert_kernel
        monkeypatch.setattr(signals, "_hilbert_kernel",
                            lambda n: -original(n))
        assert not self.verdict("hilbert_tone").passed

    def test_decompose_tone_sees_a_negated_s_s(self, monkeypatch):
        # ~1.0: the quadrature tone, of amplitude 0.5, comes back negated
        original = signals.decompose_quadrature

        def negated(psi_s):
            s_c, s_s = original(psi_s)
            return s_c, s_s.replace_samples(-s_s.samples)

        monkeypatch.setattr(signals, "decompose_quadrature", negated)
        assert not self.verdict("decompose_tone").passed

    def test_branch_continuity_sees_a_scaled_table_row(self, monkeypatch):
        # ~4e-10 off at 2pi/3, where the flat row meets the taper
        flat, (lo, hi, taper) = spectral._PHI_ROWS
        before = spectral.scale_spectrum(3.0)
        monkeypatch.setattr(spectral, "_PHI_ROWS", (
            flat, (lo, hi, lambda aw: taper(aw) * (1.0 + 1e-9))))
        assert spectral.scale_spectrum(3.0) != before
        assert not self.verdict("branch_continuity").passed

    def test_ramp_reaches_nu_and_the_tapers(self, monkeypatch):
        # ~1e-9 and ~2.5e-10 off: nu and the spectra's tapers share _ramp
        original = spectral._ramp
        monkeypatch.setattr(spectral, "_ramp",
                            lambda x: original(x) * (1.0 + 1e-9))
        checks = {c.name: c for c in verify.run_verification().checks}
        assert not checks["nu_complementarity"].passed
        assert not checks["partition_of_unity_scale"].passed

    @pytest.mark.parametrize("name", ["partition_of_unity_scale_wavelet",
                                      "spectral_product_identity",
                                      "littlewood_paley_two_scale",
                                      "oracle_integrand_consistency"])
    def test_wavelet_identities_see_a_scaled_magnitude(self, monkeypatch,
                                                       name):
        # ~3e-10, ~4e-10, ~3e-10 and ~3e-10 off
        original = spectral.wavelet_spectrum_magnitude
        monkeypatch.setattr(spectral, "wavelet_spectrum_magnitude",
                            lambda w: original(w) * (1.0 + 1e-9))
        assert not self.verdict(name).passed

    @pytest.mark.parametrize("name, check", [
        ("phi", "phi_unit_integral"), ("phi", "phi_unit_energy"),
        ("psi", "psi_unit_energy")])
    def test_normalization_sees_a_scaled_function(self, monkeypatch, name,
                                                  check):
        # ~1e-5, ~2e-5 and ~2e-5 off
        original = getattr(closed_form, name)
        monkeypatch.setattr(closed_form, name,
                            lambda t: original(t) * (1.0 + 1e-5))
        assert not self.verdict(check).passed

    def test_shift_orthogonality_sees_a_shifted_copy(self, monkeypatch):
        # <psi(t - 1), psi(t)> becomes ~1e-4
        original = closed_form.psi
        monkeypatch.setattr(closed_form, "psi", lambda t: original(t)
                            + 1e-4 * original(np.asarray(t) - 1.0))
        assert not self.verdict("shift_orthogonality").passed

    def test_reconstruction_closure_sees_a_scaled_remodulation(
            self, monkeypatch):
        # ~1e-2 off
        original = signals.reconstruct_quadrature

        def scaled(s_c, s_s):
            out = original(s_c, s_s)
            return out.replace_samples(out.samples * (1.0 + 1e-2))

        monkeypatch.setattr(signals, "reconstruct_quadrature", scaled)
        assert not self.verdict("quadrature_reconstruction_closure").passed

    @pytest.mark.parametrize("module, attr, corrupt, check", CORRUPTIONS,
                             ids=[case[-1] for case in CORRUPTIONS])
    def test_corruption_fails_its_check(self, monkeypatch, module, attr,
                                        corrupt, check):
        monkeypatch.setattr(module, attr, corrupt(getattr(module, attr)))
        assert not self.verdict(check).passed
