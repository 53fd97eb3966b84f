"""Verification suite: every library invariant as a named, tolerated check.

The suite re-derives each property on a concrete grid and reports the
measured deviation next to its threshold, so a failed check always shows
both numbers.  Checks are independent and pure; the report is a plain
value object that serializes to JSON deterministically (apart from the
timestamp field).
"""

import io
import json
import time
from dataclasses import dataclass, replace

import numpy as np

from . import closed_form, export, signals, spectral
from .quadrature import QuadratureConfig, integrate, phi_oracle, psi_oracle
from .spectral import SQRT_2PI, W_LO, W_MID, W_HI

# Comparison tolerance for closed form vs oracle keeps two orders of slack
# over the quadrature tolerance, separating integrator error from
# closed-form error.
DEFAULT_QUAD_TOL = 1e-10
ORACLE_COMPARE_TOL = 1e-8

# Fixed normalization grid: symmetric about the wavelet centre t = 1/2,
# with both endpoints on zeros of the tail oscillation terms.
NORM_T_START, NORM_T_END, NORM_DT = -40.0, 41.0, 1.0 / 256.0

# Bound on |f(s) - f(s +/- h)| / h near removable singularities.
CONTINUITY_SLOPE_BOUND = 50.0

DECAY_FIT_RANGE = (5.0, 50.0)

__all__ = ["Check", "VerificationReport", "run_verification", "decay_slope",
           "DEFAULT_QUAD_TOL", "ORACLE_COMPARE_TOL"]


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple
    grid_description: str
    overall_pass: bool
    timestamp: str

    def to_dict(self):
        return {
            "timestamp": self.timestamp,
            "grid_description": self.grid_description,
            "overall_pass": self.overall_pass,
            "checks": [{"name": c.name, "value": c.value,
                        "tolerance": c.tolerance, "passed": c.passed}
                       for c in self.checks],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def render_table(self):
        width = max(len(c.name) for c in self.checks)
        lines = [f"{'check'.ljust(width)}  {'value':>12}  {'tolerance':>12}  result"]
        for c in self.checks:
            lines.append(f"{c.name.ljust(width)}  {c.value:12.4e}  "
                         f"{c.tolerance:12.4e}  {'PASS' if c.passed else 'FAIL'}")
        lines.append(f"overall: {'PASS' if self.overall_pass else 'FAIL'}")
        return "\n".join(lines)


def decay_slope(t_range=DECAY_FIT_RANGE, samples_per_unit=512,
                block_width=1.5):
    """Log-log slope of the wavelet's local envelope over the far tail.

    The local envelope is taken as block maxima of |psi| over windows one
    oscillation period wide.
    """
    t = np.arange(t_range[0], t_range[1], 1.0 / samples_per_unit)
    mag = np.abs(closed_form.psi(t))
    w = int(round(block_width * samples_per_unit))
    n_blocks = mag.size // w
    centers = t[:n_blocks * w].reshape(n_blocks, w).mean(axis=1)
    maxima = mag[:n_blocks * w].reshape(n_blocks, w).max(axis=1)
    slope = np.polyfit(np.log(centers), np.log(maxima), 1)[0]
    return float(slope)


def _trapezoid(y, dx):
    return float(np.trapezoid(y, dx=dx))


def _spectral_checks(quad_cfg):
    w_trans = np.linspace(W_LO, W_MID, 10_000)
    w_full = np.linspace(W_LO, W_HI, 10_000)
    inv_2pi = 1.0 / (2.0 * np.pi)
    phi_w = spectral.scale_spectrum(w_trans)
    psi_mag_t = spectral.wavelet_spectrum_magnitude(w_trans)

    x = np.linspace(0.0, 1.0, 2001)
    yield ("nu_complementarity",
           float(np.max(np.abs(spectral.nu(x) + spectral.nu(1.0 - x) - 1.0))),
           1e-15)

    # adjoining branch formulas evaluated explicitly at each junction
    flat = 1.0 / SQRT_2PI
    scale_taper = lambda w: np.cos(0.5 * np.pi * (3.0 * w / (2.0 * np.pi) - 1.0)) / SQRT_2PI
    wav_lower = lambda w: np.sin(0.5 * np.pi * (3.0 * w / (2.0 * np.pi) - 1.0)) / SQRT_2PI
    wav_upper = lambda w: np.cos(0.5 * np.pi * (3.0 * w / (4.0 * np.pi) - 1.0)) / SQRT_2PI
    mismatches = [
        flat - scale_taper(W_LO),
        scale_taper(W_MID) - 0.0,
        0.0 - wav_lower(W_LO),
        wav_lower(W_MID) - wav_upper(W_MID),
        wav_upper(W_HI) - 0.0,
    ]
    yield ("branch_continuity", float(np.max(np.abs(mismatches))), 1e-12)

    yield ("partition_of_unity_scale",
           float(np.max(np.abs(phi_w**2
                               + spectral.scale_spectrum(2.0 * np.pi - w_trans)**2
                               - inv_2pi))),
           1e-12)
    yield ("partition_of_unity_scale_wavelet",
           float(np.max(np.abs(phi_w**2 + psi_mag_t**2 - inv_2pi))),
           1e-12)
    yield ("littlewood_paley_two_scale",
           float(np.max(np.abs(psi_mag_t**2
                               + spectral.wavelet_spectrum_magnitude(2.0 * w_trans)**2
                               - inv_2pi))),
           1e-12)
    yield ("spectral_product_identity",
           float(np.max(np.abs(SQRT_2PI * spectral.scale_spectrum(w_full / 2.0)
                               * spectral.scale_spectrum(w_full - 2.0 * np.pi)
                               - spectral.wavelet_spectrum_magnitude(w_full)))),
           1e-12)

    density = lambda w: spectral.scale_spectrum(w)**2
    energy = sum(integrate(density, a, b, quad_cfg)
                 for a, b in ((-W_MID, -W_LO), (-W_LO, W_LO), (W_LO, W_MID)))
    yield ("spectral_energy", abs(energy - 1.0), 1e-8)


def _closed_form_checks(quad_cfg):
    table = closed_form.singular_points()

    worst = 0.0
    for fn, points in ((closed_form.phi, table.phi_singularities),
                       (closed_form.psi1, table.psi1_singularities),
                       (closed_form.psi2, table.psi2_singularities)):
        for s in points:
            for h in (1e-5, 1e-6, 1e-7):
                for sgn in (1.0, -1.0):
                    worst = max(worst, abs(fn(s) - fn(s + sgn * h)) / h)
    yield ("singularity_continuity", worst, CONTINUITY_SLOPE_BOUND)

    t = np.concatenate([np.linspace(-8.0, 8.0, 4001),
                        np.array(table.all_points())])
    phi_err = np.abs(closed_form.phi(t) - phi_oracle(t, quad_cfg))
    psi_err = np.abs(closed_form.psi(t) - psi_oracle(t, quad_cfg))
    yield ("phi_oracle_agreement", float(np.max(phi_err)), ORACLE_COMPARE_TOL)
    yield ("psi_oracle_agreement", float(np.max(psi_err)), ORACLE_COMPARE_TOL)

    u = np.linspace(0.0, 8.0, 2001)
    yield ("phi_even_symmetry",
           float(np.max(np.abs(closed_form.phi(u) - closed_form.phi(-u)))),
           1e-12)
    yield ("psi_center_symmetry",
           float(np.max(np.abs(closed_form.psi(0.5 + u)
                               - closed_form.psi(0.5 - u)))),
           1e-12)

    grid = export.grid_points(NORM_T_START, NORM_T_END, NORM_DT)
    ph = closed_form.phi(grid)
    ps = closed_form.psi(grid)
    yield ("phi_unit_integral", abs(_trapezoid(ph, NORM_DT) - 1.0), 1e-6)
    yield ("psi_zero_mean", abs(_trapezoid(ps, NORM_DT)), 1e-6)
    yield ("phi_unit_energy", abs(_trapezoid(ph * ph, NORM_DT) - 1.0), 1e-6)
    yield ("psi_unit_energy", abs(_trapezoid(ps * ps, NORM_DT) - 1.0), 1e-6)

    shift = int(round(1.0 / NORM_DT))
    worst = 0.0
    for n in range(-3, 4):
        k = abs(n) * shift
        a, b = (slice(k, None), slice(None, ph.size - k)) if k else (slice(None),) * 2
        if n < 0:
            a, b = b, a
        target = 1.0 if n == 0 else 0.0
        worst = max(worst,
                    abs(float(np.dot(ph[a], ph[b])) * NORM_DT - target),
                    abs(float(np.dot(ps[a], ps[b])) * NORM_DT - target),
                    abs(float(np.dot(ph[a], ps[b])) * NORM_DT))
    yield ("shift_orthogonality", worst, 1e-5)

    yield ("decay_slope_offset_from_minus_3", abs(decay_slope() + 3.0), 0.3)


def _oracle_checks(quad_cfg):
    # A rule with 16 nodes per panel integrates on other nodes than the
    # configured one, so the difference measures the quadrature error.
    other = replace(quad_cfg, panel_nodes=16)
    t = np.linspace(-8.0, 8.0, 401)
    diff = max(float(np.max(np.abs(oracle(t, quad_cfg) - oracle(t, other))))
               for oracle in (phi_oracle, psi_oracle))
    yield ("quadrature_scheme_independence", diff, quad_cfg.abs_tolerance)

    w = np.linspace(W_LO, W_HI, 10_000)
    lhs = 2.0 * spectral.scale_spectrum(w / 2.0) * spectral.scale_spectrum(w - 2.0 * np.pi)
    rhs = (2.0 / SQRT_2PI) * spectral.wavelet_spectrum_magnitude(w)
    yield ("oracle_integrand_consistency", float(np.max(np.abs(lhs - rhs))), 1e-12)

    yield ("oracle_tail_decay",
           max(abs(phi_oracle(30.0, quad_cfg)), abs(psi_oracle(30.0, quad_cfg))),
           1e-3)


def _signal_checks(n, grid_dt, grid_span, cutoff):
    sig = signals.sample(closed_form.psi, -grid_span, grid_dt, n)
    t = sig.times
    inner = signals.interior_slice(n)

    round_trip = signals.idft(signals.dft(sig))
    yield ("dft_roundtrip",
           float(np.max(np.abs(round_trip.samples - sig.samples))), 1e-12)

    coeffs = signals.dft(sig).coefficients
    time_energy = float(np.sum(sig.samples**2))
    freq_energy = float(np.sum(np.abs(coeffs)**2)) / n
    yield ("parseval", abs(freq_energy - time_energy) / time_energy, 1e-10)

    k = np.arange(n)
    tone = signals.SampledSignal(
        sig.t0, grid_dt,
        np.sin(2.0 * np.pi * 3.0 * k / n) + 0.5 * np.cos(2.0 * np.pi * 7.0 * k / n))
    twice = signals.hilbert(signals.hilbert(tone))
    yield ("hilbert_involution",
           float(np.max(np.abs(twice.samples + tone.samples))), 1e-10)

    s_c, s_s = signals.decompose_quadrature(sig, cutoff)
    rebuilt = signals.reconstruct_quadrature(s_c, s_s)
    yield ("quadrature_reconstruction_closure",
           float(np.max(np.abs(rebuilt.samples - sig.samples)[inner])), 1e-3)

    phi_ref = closed_form.phi(t)
    recovered = signals.scale_from_wavelet(sig)
    yield ("scale_identity_closure",
           float(np.max(np.abs(recovered.samples - phi_ref)[inner])), 1e-3)

    env = signals.envelope(sig)
    yield ("envelope_dominance",
           float(np.max((np.abs(phi_ref) - env.samples)[inner])), 1e-3)


def _export_checks():
    req = export.ExportRequest("phi", -2.0, 2.0, 0.125, "csv")
    label, axis, values = export.evaluate_series(req)
    buf = io.StringIO()
    export.write_csv(buf, "phi", label, axis, values)
    _, axis2, values2 = export.parse_csv(buf.getvalue())
    diff = max(float(np.max(np.abs(axis2 - axis))),
               float(np.max(np.abs(values2 - values))))
    yield ("csv_round_trip", diff, 0.0)


def run_verification(grid_dt=1.0 / 64.0, grid_span=16.0,
                     cutoff=signals.DEFAULT_CUTOFF, tolerance_scale=1.0,
                     quad_tol=DEFAULT_QUAD_TOL):
    """Run every library invariant and assemble a VerificationReport.

    grid_dt/grid_span/cutoff configure the discrete signal checks only;
    spectral and closed-form checks use their own canonical grids.  An
    invalid grid raises signals.InvalidGrid, and a cutoff that is not
    positive and finite raises ValueError, before any check runs; a grid
    too coarse for the signal checks fails as a grid_precondition check.
    """
    n = signals.symmetric_grid(grid_span, grid_dt)
    signals.require_cutoff(cutoff)
    quad_cfg = QuadratureConfig(abs_tolerance=quad_tol)
    sections = [
        lambda: _spectral_checks(quad_cfg),
        lambda: _closed_form_checks(quad_cfg),
        lambda: _oracle_checks(quad_cfg),
        lambda: _signal_checks(n, grid_dt, grid_span, cutoff),
        _export_checks,
    ]
    checks = []
    for section in sections:
        try:
            produced = list(section())
        except signals.GridTooCoarse as exc:
            checks.append(Check(f"grid_precondition({exc})",
                                float("inf"), 0.0, False))
            continue
        for name, value, tol in produced:
            tol_eff = tol * tolerance_scale
            checks.append(Check(name, value, tol_eff,
                                bool(value <= tol_eff)))
    description = (f"signal grid t in [{-grid_span}, {grid_span}], "
                   f"dt={grid_dt}, cutoff={cutoff}; normalization grid "
                   f"t in [{NORM_T_START}, {NORM_T_END}], dt={NORM_DT}; "
                   f"quadrature tolerance {quad_tol}")
    return VerificationReport(
        checks=tuple(checks),
        grid_description=description,
        overall_pass=all(c.passed for c in checks),
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    )
