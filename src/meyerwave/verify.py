"""Verification suite: every library invariant as a named, tolerated check.

The suite re-derives each property on a concrete grid and reports the
measured deviation next to its threshold, so a failed check always shows
both numbers.  Checks are independent and pure, and each verdict is
derived from its value and tolerance; the report is a plain value object
that serializes to JSON deterministically (apart from the timestamp).
"""

import io
import json
import time
from dataclasses import dataclass

import numpy as np

from . import closed_form, export, quadrature, signals, spectral
from .spectral import SQRT_2PI, W_LO, W_MID, W_HI

# Closed form vs oracle: two orders above the 1e-10 bound on the oracle's
# own error (quadrature_scheme_independence), separating integrator error
# from closed-form error.
ORACLE_COMPARE_TOL = 1e-8

# Fixed normalization grid: symmetric about the wavelet centre t = 1/2,
# with both endpoints on zeros of the tail oscillation terms.
NORM_T_START, NORM_T_END, NORM_DT = -40.0, 41.0, 1.0 / 256.0

# Signal grid of run_verification and the decompose command: 2,049
# samples, t = -16 to 16.
SIGNAL_DT, SIGNAL_SPAN = 1.0 / 64.0, 16.0
SIGNAL_POINTS = 2 * round(SIGNAL_SPAN / SIGNAL_DT) + 1

# Bound on |f(s) - f(s +/- h)| / h near removable singularities.
CONTINUITY_SLOPE_BOUND = 50.0

# decay_slope's fit: samples per unit of t, and a block of one period.
DECAY_FIT_RANGE = (5.0, 50.0)
DECAY_SAMPLES_PER_UNIT = 512
DECAY_BLOCK_WIDTH = 1.5

__all__ = ["Check", "VerificationReport", "run_verification", "decay_slope",
           "ORACLE_COMPARE_TOL", "SIGNAL_DT", "SIGNAL_SPAN", "SIGNAL_POINTS"]


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    tolerance: float

    @property
    def passed(self):
        return bool(self.value <= self.tolerance)


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple
    grid_description: str
    timestamp: str

    @property
    def overall_pass(self):
        return all(c.passed for c in self.checks)

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


def decay_slope():
    """Log-log slope of the wavelet's local envelope over the far tail.

    The local envelope is taken as block maxima of |psi| over windows one
    oscillation period wide.
    """
    start, stop = DECAY_FIT_RANGE
    t = signals._grid(start, 1.0 / DECAY_SAMPLES_PER_UNIT,
                      int(round((stop - start) * DECAY_SAMPLES_PER_UNIT)))
    mag = np.abs(closed_form.psi(t))
    w = int(round(DECAY_BLOCK_WIDTH * DECAY_SAMPLES_PER_UNIT))
    n_blocks = mag.size // w
    centers = t[:n_blocks * w].reshape(n_blocks, w).mean(axis=1)
    maxima = mag[:n_blocks * w].reshape(n_blocks, w).max(axis=1)
    slope = np.polyfit(np.log(centers), np.log(maxima), 1)[0]
    return float(slope)


def _trapezoid(y, dx):
    return float(np.trapezoid(y, dx=dx))


def _spectral_checks():
    w_trans = np.linspace(W_LO, W_MID, 10_000)
    w_full = np.linspace(W_LO, W_HI, 10_000)
    inv_2pi = 1.0 / (2.0 * np.pi)
    phi_w = spectral.scale_spectrum(w_trans)
    psi_mag_t = spectral.wavelet_spectrum_magnitude(w_trans)

    x = np.linspace(0.0, 1.0, 2001)
    yield ("nu_complementarity",
           float(np.max(np.abs(spectral.nu(x) + spectral.nu(1.0 - x) - 1.0))),
           1e-15)

    # each table row against its neighbour, or the zero outside the end
    # rows, at their shared edge; w = 0 is Phi's centre, not an edge
    zero = lambda aw: 0.0
    mismatches = []
    for rows in (spectral._PHI_ROWS, spectral._PSI_ROWS):
        padded = ((0.0, rows[0][0], zero), *rows, (rows[-1][1], np.inf, zero))
        mismatches += [left(edge) - right(edge)
                       for (_, edge, left), (_, _, right)
                       in zip(padded, padded[1:]) if edge > 0.0]
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

    # the oracle's Gauss-Legendre rule at x = 0 integrates the density
    energy = quadrature._gauss_legendre_integrals(
        lambda w: spectral.scale_spectrum(w)**2,
        (-W_MID, -W_LO, W_LO, W_MID), np.zeros(1))[0]
    yield ("spectral_energy", abs(float(energy) - 1.0), 1e-8)


def _closed_form_checks():
    table = closed_form.singular_points()

    # one call per function, at each root (column 0) and +/- h beside it
    steps = np.array([0.0, 1e-5, 1e-6, 1e-7, -1e-5, -1e-6, -1e-7])
    slopes = []
    for name, (points, _) in table.items():
        values = getattr(closed_form, name)(np.array(points)[:, None] + steps)
        slopes.append(np.abs(values[:, :1] - values[:, 1:])
                      / np.abs(steps[1:]))
    worst = float(np.max(slopes))
    yield ("singularity_continuity", worst, CONTINUITY_SLOPE_BOUND)

    t = np.concatenate([np.linspace(-8.0, 8.0, 4001),
                        [p for points, _ in table.values() for p in points]])
    phi_err = np.abs(closed_form.phi(t) - quadrature.phi_oracle(t))
    psi_err = np.abs(closed_form.psi(t) - quadrature.psi_oracle(t))
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
        a, b = slice(k, None), slice(None, ph.size - k)
        if n < 0:
            a, b = b, a
        target = 1.0 if n == 0 else 0.0
        worst = max(worst,
                    abs(float(np.dot(ph[a], ph[b])) * NORM_DT - target),
                    abs(float(np.dot(ps[a], ps[b])) * NORM_DT - target),
                    abs(float(np.dot(ph[a], ps[b])) * NORM_DT))
    yield ("shift_orthogonality", worst, 1e-5)

    yield ("decay_slope_offset_from_minus_3", abs(decay_slope() + 3.0), 0.3)


def _oracle_checks():
    # Both rule families are accurate on 1 <= |x| < FAR_FROM, where the
    # oracles use Gauss-Legendre alone, so their difference there measures
    # the quadrature error.
    x = np.linspace(1.0, quadrature.FAR_FROM, 381, endpoint=False)
    x = np.concatenate([-x, x])
    diff = max(scale * float(np.max(np.abs(
                   quadrature._parts_integrals(f, branches, x)
                   - quadrature._gauss_legendre_integrals(f, branches, x))))
               for scale, f, branches in (
                   (2.0 / SQRT_2PI, spectral.scale_spectrum,
                    quadrature._PHI_BRANCHES),
                   (2.0, quadrature._wavelet_integrand,
                    quadrature._PSI_BRANCHES)))
    yield ("quadrature_scheme_independence", diff, 1e-10)

    w = np.linspace(W_LO, W_HI, 10_000)
    lhs = 2.0 * quadrature._wavelet_integrand(w)
    rhs = (2.0 / SQRT_2PI) * spectral.wavelet_spectrum_magnitude(w)
    yield ("oracle_integrand_consistency", float(np.max(np.abs(lhs - rhs))), 1e-12)

    yield ("oracle_tail_decay",
           max(abs(quadrature.phi_oracle(30.0)),
               abs(quadrature.psi_oracle(30.0))),
           1e-3)


def _signal_checks(sig):
    n = sig.samples.size
    t = sig.times
    inner = signals.interior_slice(n)

    # Round-off: an m-point transform errs by at most t eta in the 2-norm,
    # relative, with t = 13 >= log2 m and eta < 6.7u (Higham, Accuracy and
    # Stability of Numerical Algorithms, 2nd ed., 2002, Thm 24.2).
    # decompose_quadrature convolves x = 2 psi with the even and odd parts
    # g_e, g_o of the modulated kernel, whose gains are the real and
    # imaginary parts of one transform of g = g_e + g_o, so each convolution
    # errs by at most ((2 t eta + 8u) |g_e or g_o|_1 + t eta sqrt(m) |g|_2)
    # |x|_2, and s_c and s_s, each a sum of two carrier products, by the sum
    # of both.  On-bin tones on the signal grid less its last point, where
    # the carrier is a bin too, come back exactly, to 6.1e-11 (|g_e|_1 =
    # 3.2, |g_o|_1 = 3.7, sqrt(m) |g|_2 = 16.0, |x|_2 <= 3 sqrt(n)) plus
    # 1.5e-12 from the tones' carrier angles 32 pi u off.
    tone_n = SIGNAL_POINTS - 1
    k = np.arange(tone_n)
    a = np.cos(2.0 * np.pi * 3.0 * k / tone_n)
    b = 0.5 * np.sin(2.0 * np.pi * 7.0 * k / tone_n)
    carrier = signals.CARRIER * signals._grid(-SIGNAL_SPAN, SIGNAL_DT, tone_n)
    s_c, s_s = signals.decompose_quadrature(signals.SampledSignal(
        -SIGNAL_SPAN, SIGNAL_DT, a * np.cos(carrier) + b * np.sin(carrier)))
    yield ("decompose_tone",
           float(np.max(np.abs([s_c.samples - a, s_s.samples - b]))), 1e-10)

    # |H| = 1 on every bin but DC, and an odd n has no Nyquist bin, so
    # sum H[x]^2 = sum x^2 - (sum x)^2 / n; relative to sum x^2, twice
    # 1.1e-12 (|g|_1 = 10.8, sqrt(m) |g|_2 = 92.9) and the sums': 2.3e-12
    energy = float(np.sum(sig.samples**2))
    h_energy = float(np.sum(signals.hilbert(sig).samples**2))
    dc_energy = float(np.sum(sig.samples))**2 / n
    yield ("hilbert_energy",
           abs(h_energy - (energy - dc_energy)) / energy, 1e-11)

    # on-bin tones, whose transform is exact: H[sin] = -cos, H[cos] = sin
    k = np.arange(n)
    a = 2.0 * np.pi * 3.0 * k / n
    b = 2.0 * np.pi * 7.0 * k / n
    tone = signals.SampledSignal(sig.t0, sig.dt, np.sin(a) + 0.5 * np.cos(b))
    exact = -np.cos(a) + 0.5 * np.sin(b)
    yield ("hilbert_tone",
           float(np.max(np.abs(signals.hilbert(tone).samples - exact))),
           1e-10)

    s_c, s_s = signals.decompose_quadrature(sig)
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
    req = export.ExportRequest("phi", -2.0, 2.0, 0.125)
    label, axis, values = export.evaluate_series(req)
    buf = io.StringIO()
    export.write_csv(buf, "phi", label, axis, values)
    _, axis2, values2 = export.parse_csv(buf.getvalue())
    diff = max(float(np.max(np.abs(axis2 - axis))),
               float(np.max(np.abs(values2 - values))))
    yield ("csv_round_trip", diff, 0.0)


def _sampled_psi():
    """psi on the signal grid, as the signal checks and decompose take it."""
    return signals.sample(closed_form.psi, -SIGNAL_SPAN, SIGNAL_DT,
                          SIGNAL_POINTS)


def run_verification():
    """Run every library invariant and assemble a VerificationReport.

    The discrete signal checks run on psi sampled on the fixed signal
    grid; spectral and closed-form checks use their own canonical grids.
    Every check keeps its nominal tolerance.
    """
    checks = [Check(*check)
              for section in (_spectral_checks(), _closed_form_checks(),
                              _oracle_checks(), _signal_checks(_sampled_psi()),
                              _export_checks())
              for check in section]
    description = (f"signal grid t in [{-SIGNAL_SPAN}, {SIGNAL_SPAN}], "
                   f"dt={SIGNAL_DT}, cutoff={signals.CUTOFF}; normalization "
                   f"grid t in [{NORM_T_START}, {NORM_T_END}], dt={NORM_DT}")
    return VerificationReport(
        checks=tuple(checks),
        grid_description=description,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    )
