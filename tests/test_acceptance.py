"""Acceptance gate: one test per stated criterion, each printing a
PASS/FAIL line with the measured value and its threshold.  A value that
`meyerwave verify` measures is read from its report; thresholds stay here.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import io
import json

import numpy as np
import pytest

from meyerwave import closed_form, export, spectral, verify
from meyerwave.cli import main
from meyerwave.quadrature import phi_oracle, psi_oracle
from meyerwave.spectral import W_LO, W_MID, W_HI


def report_line(name, value, tol, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} "
          f"(value {value:.6e}, tolerance {tol:.6e})")


def gate(name, value, tol):
    ok = value <= tol
    report_line(name, value, tol, ok)
    assert ok, f"{name}: {value} > {tol}"


@pytest.fixture(scope="module")
def measured():
    """Every value `meyerwave verify` measures at its default grid, by name."""
    return {c.name: c.value for c in verify.run_verification().checks}


class TestCriterion1OracleAgreement:
    def test_closed_forms_match_quadrature(self, measured):
        gate("1a_phi_vs_oracle", measured["phi_oracle_agreement"], 1e-8)
        gate("1b_psi_vs_oracle", measured["psi_oracle_agreement"], 1e-8)


class TestCriterion2Anchors:
    def test_phi_zero_special_case_exact(self):
        ok = closed_form.phi(0.0) == 2.0 / 3.0 + 4.0 / (3.0 * np.pi)
        report_line("2a_phi_at_zero_exact", closed_form.phi(0.0), 0.0, ok)
        assert ok

    def test_phi_root_limit_vs_oracle(self):
        gate("2b_phi_at_three_quarters",
             abs(closed_form.phi(0.75) - phi_oracle(0.75)), 1e-10)
        assert closed_form.phi(0.75) == pytest.approx(2.0 / (3.0 * np.pi),
                                                      abs=1e-13)

    def test_psi_centre_vs_oracle(self):
        gate("2c_psi_at_half",
             abs(closed_form.psi(0.5) - psi_oracle(0.5)), 1e-10)
        assert closed_form.psi(0.5) == pytest.approx(4.0 / np.pi, abs=1e-13)


class TestCriterion3SpectralIdentities:
    def test_partition_and_continuity_and_product(self, measured):
        gate("3a_partition_of_unity",
             measured["partition_of_unity_scale_wavelet"], 1e-12)
        joins = []
        for w0 in (W_LO, W_MID, W_HI):
            for f in (spectral.scale_spectrum,
                      spectral.wavelet_spectrum_magnitude):
                joins.append(abs(f(np.nextafter(w0, -np.inf)) - f(w0)))
                joins.append(abs(f(np.nextafter(w0, np.inf)) - f(w0)))
        gate("3b_branch_continuity", float(np.max(joins)), 1e-12)
        gate("3c_product_identity", measured["spectral_product_identity"],
             1e-12)


class TestCriterion4Normalization:
    def test_phi_unit_integral(self, measured):
        gate("4a_phi_unit_integral", measured["phi_unit_integral"], 1e-6)

    def test_psi_zero_mean(self, measured):
        # Known to fail: the wavelet tail decays as t^-2, so truncating the
        # grid at [-40, 41] leaves ~4e-6 of signed tail mass.
        gate("4b_psi_zero_mean", measured["psi_zero_mean"], 1e-6)

    def test_unit_energy(self, measured):
        gate("4c_phi_unit_energy", measured["phi_unit_energy"], 1e-6)
        gate("4d_psi_unit_energy", measured["psi_unit_energy"], 1e-6)

    def test_integer_shift_orthogonality(self, measured):
        gate("4e_shift_orthogonality", measured["shift_orthogonality"], 1e-5)


class TestCriterion5Closures:
    def test_quadrature_reconstruction(self, measured):
        gate("5a_quadrature_reconstruction",
             measured["quadrature_reconstruction_closure"], 1e-3)

    def test_scale_identity(self, measured):
        # Known to fail: the remodulation identity does not hold exactly
        # (at t = 1/2 it would force phi(1/2) = -psi(1/2) = -4/pi).
        gate("5b_scale_identity", measured["scale_identity_closure"], 1e-3)

    def test_envelope_dominance(self, measured):
        # Known to fail for the same reason: the wavelet envelope is not
        # the scale function's envelope (peaks 4/pi vs 2/3 + 4/(3pi)).
        gate("5c_envelope_dominance", measured["envelope_dominance"], 1e-3)


class TestCriterion6Decay:
    def test_envelope_decay_slope(self, measured):
        # Known to fail: the linear transition ramp gives spectra with
        # derivative kinks, hence t^-2 tails; measured slope is ~ -2.1.
        gate("6_decay_slope_offset_from_minus_3",
             measured["decay_slope_offset_from_minus_3"], 0.3)


class TestCriterion7Contracts:
    def test_verify_exit_status_and_determinism(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        codes = [main(["verify", "--output", str(p)]) for p in paths]
        payloads = [json.loads(p.read_text()) for p in paths]
        ok = all((c == 0) == d["overall_pass"] and c in (0, 1)
                 for c, d in zip(codes, payloads))
        for d in payloads:
            d.pop("timestamp")
        ok = ok and (json.dumps(payloads[0]) == json.dumps(payloads[1]))
        with capsys.disabled():
            report_line("7a_exit_status_and_determinism",
                        float(codes[0]), 1.0, ok)
        assert ok

    def test_csv_round_trip_exact(self):
        req = export.ExportRequest("phi", -8.0, 8.0, 0.01)
        label, axis, values = export.evaluate_series(req)
        buf = io.StringIO()
        export.write_csv(buf, "phi", label, axis, values)
        _, axis2, values2 = export.parse_csv(buf.getvalue())
        exact = np.array_equal(axis, axis2) and np.array_equal(values, values2)
        report_line("7b_csv_round_trip", 0.0 if exact else 1.0, 0.0, exact)
        assert exact


class TestFigureFeatures:
    def test_scale_spectrum_support(self):
        _, w, v = map(np.asarray, export.evaluate_series(
            export.ExportRequest("phi_spectrum", 0.0, W_MID + 1.0, 0.005)))
        ok = bool(np.all(v[w > W_MID + 1e-9] == 0.0))
        report_line("fig1_support_bound", 0.0 if ok else 1.0, 0.0, ok)
        assert ok

    def test_wavelet_spectrum_band_centre(self):
        _, w, v = map(np.asarray, export.evaluate_series(
            export.ExportRequest("psi_spectrum_magnitude", 0.0, 10.0, 0.001)))
        support = w[v > 0.0]
        centre = 0.5 * (support[0] + support[-1])
        gate("fig2_band_centre", abs(centre - 5.0 * np.pi / 3.0), 0.01)
        ok = bool(np.all(v[(w < W_LO - 1e-9) | (w > W_HI + 1e-9)] == 0.0))
        assert ok
