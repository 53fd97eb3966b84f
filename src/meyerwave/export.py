"""Waveform/spectrum series evaluation and CSV/JSON serialization.

CSV files carry a header row and one ``abscissa,value`` record per line,
printed with 17 significant digits so that re-parsing reproduces the
binary doubles exactly.  JSON output is an object with ``grid`` metadata
and parallel ``t``/``value`` arrays.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import closed_form, quadrature, signals, spectral

__all__ = ["InvalidRequest", "ExportRequest", "SERIES", "FUNCTIONS",
           "SPECTRUM_FUNCTIONS", "grid_points", "evaluate_series",
           "write_csv", "write_json", "parse_csv"]


class InvalidRequest(ValueError):
    pass


@dataclass(frozen=True)
class ExportRequest:
    function: str
    t_start: float
    t_end: float
    step: float
    format: str = "csv"

    def __post_init__(self):
        if self.function not in FUNCTIONS:
            raise InvalidRequest(f"unknown function {self.function!r}")
        if not (self.t_start < self.t_end):
            raise InvalidRequest("start must be below end")
        if not self.step > 0:
            raise InvalidRequest("step must be positive")
        if (self.t_end - self.t_start) / self.step > signals.MAX_GRID_POINTS:
            raise InvalidRequest("export would exceed the point budget")
        if self.format not in ("csv", "json"):
            raise InvalidRequest(f"unknown format {self.format!r}")


def grid_points(t_start, t_end, step):
    n = int(math.floor((t_end - t_start) / step * (1.0 + 1e-12))) + 1
    return t_start + step * np.arange(n)


def _psi_signal(t, step):
    """psi sampled on the export grid, which is also the DFT grid."""
    sig = signals.SampledSignal(t[0], step, closed_form.psi(t))
    signals.require_fine_grid(sig)
    return sig


# name -> (axis label, evaluator(t, step, cutoff, quad_cfg)), in the CLI's
# choices order.  Evaluators look library functions up through their
# module on each call, so that a replaced module attribute takes effect.
SERIES = {
    "phi": ("t", lambda t, *_: closed_form.phi(t)),
    "psi": ("t", lambda t, *_: closed_form.psi(t)),
    "psi1": ("t", lambda t, *_: closed_form.psi1(t)),
    "psi2": ("t", lambda t, *_: closed_form.psi2(t)),
    "phi_spectrum": ("w", lambda t, *_: spectral.scale_spectrum(t)),
    "psi_spectrum_magnitude":
        ("w", lambda t, *_: spectral.wavelet_spectrum_magnitude(t)),
    "envelope": ("t", lambda t, step, *_:
                 signals.envelope(_psi_signal(t, step)).samples),
    "s_c": ("t", lambda t, step, cutoff, _: signals.decompose_quadrature(
        _psi_signal(t, step), cutoff)[0].samples),
    "s_s": ("t", lambda t, step, cutoff, _: signals.decompose_quadrature(
        _psi_signal(t, step), cutoff)[1].samples),
    "phi_oracle": ("t", lambda t, step, cutoff, quad_cfg:
                   quadrature.phi_oracle(t, quad_cfg)),
    "psi_oracle": ("t", lambda t, step, cutoff, quad_cfg:
                   quadrature.psi_oracle(t, quad_cfg)),
}
FUNCTIONS = tuple(SERIES)
# functions evaluated against an angular-frequency axis
SPECTRUM_FUNCTIONS = tuple(name for name, (label, _) in SERIES.items()
                           if label == "w")


def evaluate_series(req, cutoff=signals.DEFAULT_CUTOFF, quad_cfg=None):
    """Evaluate the requested series; returns (axis_label, axis, values)."""
    t = grid_points(req.t_start, req.t_end, req.step)
    label, evaluate = SERIES[req.function]
    return label, t, evaluate(t, req.step, cutoff, quad_cfg)


def write_csv(stream, name, axis_label, axis, values):
    stream.write(f"{axis_label},{name}\n")
    for a, v in zip(axis, values):
        stream.write(f"{a:.17g},{v:.17g}\n")


def write_json(stream, name, axis_label, axis, values):
    payload = {
        "function": name,
        "grid": {"axis": axis_label, "start": axis[0], "stop": axis[-1],
                 "step": float(axis[1] - axis[0]), "count": len(axis)},
        "t": list(map(float, axis)),
        "value": list(map(float, values)),
    }
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def parse_csv(text):
    """Inverse of write_csv; returns (header, axis array, value array)."""
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0]
    rows = [ln.split(",") for ln in lines[1:]]
    axis = np.array([float(r[0]) for r in rows])
    values = np.array([float(r[1]) for r in rows])
    return header, axis, values
