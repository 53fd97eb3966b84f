"""Waveform/spectrum series evaluation and CSV/JSON serialization.

CSV files carry a header row and one ``abscissa,value`` record per line,
printed with 17 significant digits so that re-parsing reproduces the
binary doubles exactly.  JSON output is an object with ``grid`` metadata
and parallel ``t``/``value`` arrays, laid out as ``json.dump(...,
indent=2)`` lays them out; ``grid.step`` is ``null`` for a one-point axis,
which has no spacing.

Both writers format ``_ROWS`` rows at a time and write each chunk with one
call, so the per-row cost is the float-to-text conversion alone and a
file is never held whole in memory.  The bytes are those a per-row loop
(CSV) or ``json.dump(payload, stream, indent=2)`` (JSON) would write.
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
        if not 0 < self.step < math.inf:
            raise InvalidRequest(f"step must be positive and finite, got "
                                 f"{self.step!r}")
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


# name -> (axis label, evaluator(t, step, cutoff)), in the CLI's
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
    "s_c": ("t", lambda t, step, cutoff: signals.decompose_quadrature(
        _psi_signal(t, step), cutoff)[0].samples),
    "s_s": ("t", lambda t, step, cutoff: signals.decompose_quadrature(
        _psi_signal(t, step), cutoff)[1].samples),
    "phi_oracle": ("t", lambda t, *_: quadrature.phi_oracle(t)),
    "psi_oracle": ("t", lambda t, *_: quadrature.psi_oracle(t)),
}
FUNCTIONS = tuple(SERIES)
# functions evaluated against an angular-frequency axis
SPECTRUM_FUNCTIONS = tuple(name for name, (label, _) in SERIES.items()
                           if label == "w")


def evaluate_series(req, cutoff=signals.DEFAULT_CUTOFF):
    """Evaluate the requested series; returns (axis_label, axis, values)."""
    t = grid_points(req.t_start, req.t_end, req.step)
    label, evaluate = SERIES[req.function]
    return label, t, evaluate(t, req.step, cutoff)


_ROWS = 1 << 15      # rows per formatted chunk and per stream.write
_CSV_ROW = "%.17g,%.17g\n"


def write_csv(stream, name, axis_label, axis, values):
    stream.write(f"{axis_label},{name}\n")
    n = min(len(axis), len(values))     # zip's length, as rows were paired
    pairs = np.empty((min(n, _ROWS), 2))
    for i in range(0, n, _ROWS):
        k = min(_ROWS, n - i)
        pairs[:k, 0] = axis[i:i + k]
        pairs[:k, 1] = values[i:i + k]
        # one C-level %-format for the whole chunk
        stream.write(_CSV_ROW * k % tuple(pairs[:k].ravel().tolist()))


def write_json(stream, name, axis_label, axis, values):
    step = float(axis[1] - axis[0]) if len(axis) > 1 else None
    header = json.dumps({
        "function": name,
        "grid": {"axis": axis_label, "start": axis[0], "stop": axis[-1],
                 "step": step, "count": len(axis)},
    }, indent=2)
    stream.write(header[:-2])           # reopen the object: drop "\n}"
    for key, data in (("t", axis), ("value", values)):
        stream.write(f',\n  "{key}": [')
        # json.dump(indent=2) runs the pure-Python encoder; the C encoder
        # (indent=None) separates items by ", ", which no float, NaN or
        # Infinity contains, so replacing it gives the indented layout
        sep = "\n    "
        for i in range(0, len(data), _ROWS):
            chunk = np.asarray(data[i:i + _ROWS], dtype=float).tolist()
            stream.write(sep + json.dumps(chunk)[1:-1].replace(
                ", ", ",\n    "))
            sep = ",\n    "
        stream.write("\n  ]" if len(data) else "]")
    stream.write("\n}\n")


def parse_csv(text):
    """Inverse of write_csv; returns (header, axis array, value array)."""
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0]
    rows = [ln.split(",") for ln in lines[1:]]
    axis = np.array([float(r[0]) for r in rows])
    values = np.array([float(r[1]) for r in rows])
    return header, axis, values
