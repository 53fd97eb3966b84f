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
    "dft_roundtrip",
    "parseval",
    "hilbert_involution",
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

    def test_overall_is_conjunction(self, report):
        assert report.overall_pass == all(c.passed for c in report.checks)

    def test_pass_flag_matches_value_and_tolerance(self, report):
        for c in report.checks:
            assert c.passed == (c.value <= c.tolerance)

    def test_core_identities_hold(self, report):
        by_name = {c.name: c for c in report.checks}
        for name in ("partition_of_unity_scale", "spectral_product_identity",
                     "phi_oracle_agreement", "psi_oracle_agreement",
                     "quadrature_reconstruction_closure", "csv_round_trip"):
            assert by_name[name].passed, f"{name}: {by_name[name]}"

    def test_scheme_independence_measures_a_difference(self, report):
        # Filon and Gauss-Legendre agree closely but not bit for bit
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


SECTIONS = ("_spectral_checks", "_closed_form_checks", "_oracle_checks",
            "_signal_checks", "_export_checks")


class TestCoarseGrid:
    def test_coarse_grid_raises_before_any_check(self):
        with pytest.raises(signals.GridTooCoarse):
            verify.run_verification(grid_dt=0.5)

    def test_step_too_fine_for_the_dft_raises_before_any_check(
            self, monkeypatch):
        # at span = dt = 5e-324 the grid has 3 points, but 1/(n*dt)
        # overflows and the DFT bin frequencies are not finite
        ran = []
        for name in SECTIONS:
            monkeypatch.setattr(verify, name,
                                lambda *_, name=name: ran.append(name) or ())
        with pytest.raises(signals.InvalidGrid, match="not finite"):
            verify.run_verification(grid_dt=5e-324, grid_span=5e-324)
        assert ran == []


class TestGridDescription:
    def test_default_grid_ends_at_its_span(self, report):
        assert report.grid_description.startswith(
            "signal grid t in [-16.0, 16.0], dt=0.015625, ")

    def test_states_the_last_sample(self):
        # 10.3 / 0.03 rounds to 343 steps a side: the last sample is
        # -10.3 + 686 * 0.03, about 10.28, not 10.3
        end = -10.3 + 686 * 0.03
        assert end == pytest.approx(10.28, abs=1e-12)
        report = verify.run_verification(grid_span=10.3, grid_dt=0.03)
        assert report.grid_description.startswith(
            f"signal grid t in [-10.3, {end}], dt=0.03, ")


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

    def test_decay_and_eq8_claims_are_reported(self, report):
        # the two claims that do not hold at their stated tolerances are
        # still measured and reported rather than silently dropped
        by_name = {c.name: c for c in report.checks}
        assert "decay_slope_offset_from_minus_3" in by_name
        assert "scale_identity_closure" in by_name


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
    (verify, "phi_oracle",
     lambda f: lambda t: f(t) + 1e-2 * (np.asarray(t) == 30.0),
     "oracle_tail_decay"),
    # ~2.96: H[H[x]] + x becomes 2x
    (signals, "hilbert", lambda f: lambda s: s, "hilbert_involution"),
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
        original = getattr(verify, oracle)
        monkeypatch.setattr(verify, oracle, lambda t: original(t)
                            + 1e-6 * (np.asarray(t) == root))
        check = oracle.replace("oracle", "oracle_agreement")
        assert not self.verdict(check).passed

    def test_dft_roundtrip_sees_a_scaled_inverse(self, monkeypatch):
        original = signals.idft

        def scaled(s, coefficients):
            out = original(s, coefficients)
            return out.replace_samples(out.samples * (1.0 + 1e-9))

        monkeypatch.setattr(signals, "idft", scaled)
        assert not self.verdict("dft_roundtrip").passed

    def test_parseval_sees_scaled_coefficients(self, monkeypatch):
        original = signals.dft

        def scaled(s):
            freqs, coefficients = original(s)
            return freqs, coefficients * (1.0 + 1e-9)

        monkeypatch.setattr(signals, "dft", scaled)
        assert not self.verdict("parseval").passed

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
