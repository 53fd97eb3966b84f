"""Waveform/spectrum series evaluation and CSV/JSON serialization.

CSV files carry a header row and one ``abscissa,value`` record per line,
printed as ``%.17g`` prints them, so that re-parsing reproduces the
binary doubles exactly.  JSON output is an object with ``grid`` metadata
and parallel ``t``/``value`` arrays, laid out as ``json.dump(...,
indent=2)`` lays them out; ``grid.step`` is ``null`` for a one-point axis,
which has no spacing.

Both writers format ``_ROWS`` rows at a time and write each chunk with one
call, so a file is never held whole in memory.  The bytes are those a
per-row loop (CSV) or ``json.dump(payload, stream, indent=2)`` (JSON)
would write.

The CSV digits are computed in numpy, a chunk at a time, with integer
arithmetic only.  A double is exactly M * 2**E with a 53-bit M.  For
10**-11 <= |x| < 10**17 the decimal exponent k of its leading digit is
at least -11 and at most 16, so ``%.17g`` prints the integer
D = round(M * 2**E * 10**(16 - k)), rounded half to even, with
0 <= 16 - k <= 27.  5**27 fits in 64 bits, so the product
M * 5**(16 - k) is formed exactly in 128 bits from 32-bit halves,
shifted by E + 16 - k, and rounded on the exact remainder (Gay,
"Correctly rounded binary-decimal and decimal-binary conversions",
1990).  k starts from ``np.log10`` and is corrected by one wherever D,
truncated instead of rounded, leaves [1e16, 1e17).  The 17 digits then
follow ``%g``'s layout: trailing zeros are dropped but integer digits
are kept, -4 <= k < 0 gets a ``0.000`` prefix and k < -4 an ``e-XX``
exponent.  Each value is laid out in three uint64 lanes (24 bytes)
padded with NUL bytes, which one ``bytes.translate`` removes.  Zeros
are formatted the same way.  NaN, infinities, subnormals, and
|x| <= 1e-11 or |x| >= 1e17 are formatted by CPython's own ``%.17g``
(the double 1e-11 lies below 10**-11).
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

    def __post_init__(self):
        if self.function not in FUNCTIONS:
            raise InvalidRequest(f"unknown function {self.function!r}")
        if not (self.t_start < self.t_end):
            raise InvalidRequest("start must be below end")
        if not 0 < self.step < math.inf:
            raise InvalidRequest(f"step must be positive and finite, got "
                                 f"{self.step!r}")
        if _grid_size(self.t_start, self.t_end, self.step) \
                > signals.MAX_GRID_POINTS:
            raise InvalidRequest("export would exceed the point budget")


def _grid_size(t_start, t_end, step):
    """The number of points grid_points returns; inf when the range over
    the step overflows."""
    ratio = (t_end - t_start) / step * (1.0 + 1e-12)
    return math.floor(ratio) + 1 if ratio < math.inf else math.inf


def grid_points(t_start, t_end, step):
    return t_start + step * np.arange(_grid_size(t_start, t_end, step))


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


_ROWS = 1 << 13      # rows per formatted chunk and per stream.write

_POW5 = np.array([5 ** q for q in range(28)], dtype=np.uint64)
_LOW32 = 0xFFFFFFFF
_ALL = np.uint64(0xFFFFFFFFFFFFFFFF)
# ASCII '0' on every digit byte; byte 0 of lane 0 is the sign's
_ASCII = np.array([[0x3030303030303000], [0x3030303030303030],
                   [0x3030303030303030]], dtype=np.uint64)
_SEPARATORS = np.array([ord(","), ord("\n")], dtype=np.uint64) << 56
_ZERO, _OTHER = 28, 29      # layout slots after those of k = -11 .. 16


def _scaled(m, e, k):
    """floor(m * 2**e * 10**(16 - k)) for 0 <= 16 - k <= 27, and whether
    rounding it half to even goes up, from the exact 128-bit product."""
    q = 16 - k
    f = _POW5[q]
    m0, m1 = m & _LOW32, m >> 32
    f0, f1 = f & _LOW32, f >> 32
    p00 = m0 * f0
    mid = m0 * f1 + m1 * f0 + (p00 >> 32)
    lo = mid << 32 | p00 & _LOW32
    hi = m1 * f1 + (mid >> 32)
    r = -(e + q)                # a negative shift is an exact left shift
    right = np.clip(r, 0, 63).astype(np.uint64)
    left = np.clip(-r, 0, 63).astype(np.uint64)
    d = (hi << 1 << (63 - right) | lo >> right) << left
    rem = lo & ((1 << right) - 1)
    half = 1 << (np.maximum(right, 1) - 1)
    return d, rem + (d & 1) > half


def _digits8(v):
    """The 8 decimal digits of each v < 1e8 as bytes of a uint64, most
    significant first (byte 0 is the low byte), digit values not ASCII."""
    x = v // 10000
    x |= (v - x * 10000) << 32
    q = x * 5243 >> 19 & 0x0000007F0000007F     # x // 100 per 32-bit half
    x = q | (x - q * 100) << 16
    q = x * 103 >> 10 & 0x000F000F000F000F      # x // 10 per 16-bit quarter
    return q | (x - q * 10) << 8


def _filled(x):
    """0xFF on every byte of x up to its last nonzero byte (digits <= 9)."""
    nz = (x + 0x7F7F7F7F7F7F7F7F) & 0x8080808080808080
    nz |= nz >> 8
    nz |= nz >> 16
    nz |= nz >> 32
    return (nz >> 7) * 0xFF


def _layout_tables():
    """Where %g puts the 17 digits, per slot: k + 11 for k = -11 .. 16,
    then _ZERO and _OTHER.

    A value's text is a 24-byte field, three uint64 lanes: the sign at
    byte 0, the digits d0..d16 at bytes 1..17 and the separator at byte
    23.  Per slot there are four 3-lane tables and one shift: the bytes
    that stay where they are; the point, shown only when the digit after
    it is kept; fixed text; integer digits, kept even when zero; and how
    many bits the bytes that do not stay move up.
    """
    def lanes(text):
        return np.frombuffer(text.ljust(24, b"\0"), dtype="<u8")

    none = lanes(b"")
    rows, shifts = [], []
    for k in range(-11, 17):
        if k >= 0:          # d0..dk.d(k+1)..
            rows.append((lanes(b"\xff" * (k + 2)),
                         lanes(b"\0" * (k + 2) + b"."), none,
                         lanes(b"\0" + b"\xff" * (k + 1))))
            shifts.append(8)
        elif k >= -4:       # 0.000d0..
            rows.append((none, none, lanes(b"\0" + b"0." + b"0" * (-k - 1)),
                         none))
            shifts.append(40)
        else:               # d0.d1..e-XX
            rows.append((lanes(b"\xff" * 2), lanes(b"\0\0."),
                         lanes(b"\0" * 19 + b"e-%02d" % -k), none))
            shifts.append(8)
    for text in (b"\0" + b"0", b"\0" + b"\1"):    # _ZERO, _OTHER
        rows.append((none, none, lanes(text), none))
        shifts.append(8)
    return (np.array(rows, dtype=np.uint64).transpose(1, 2, 0).copy(),
            np.array(shifts, dtype=np.uint64))


_LAYOUT, _SHIFT = _layout_tables()


def _format_rows(pairs):
    """The rows '%.17g,%.17g\\n' % (a, v) for each (a, v) in pairs."""
    x = pairs.ravel()
    a = np.abs(x)
    # exactly 10**-11 <= |x| < 10**17: the double 1e-11 is below 10**-11
    covered = (a > 1e-11) & (a < 1e17)
    y = np.where(covered, a, 1.0)
    bits = y.view(np.uint64)
    e = (bits >> 52).astype(np.int64) - 1075
    m = bits & 0xFFFFFFFFFFFFF | 1 << 52
    k = np.clip(np.floor(np.log10(y)), -11, 16).astype(np.int64)
    d, up = _scaled(m, e, k)
    # np.log10 can put k one off near a power of ten
    step = (d >= 10 ** 17).astype(np.int64) - (d < 10 ** 16)
    redo = np.flatnonzero(step)
    if redo.size:
        k[redo] += step[redo]
        d[redo], up[redo] = _scaled(m[redo], e[redo], k[redo])
    # no double in range rounds up to 1e17 here: the nearest one below
    # each power of ten from 1e-10 to 1e17 is >= 4.5e-17 away in relative
    # terms, and rounding to 17 digits carries only within 5e-18
    d += up
    slot = k + 11
    slot[~covered] = _OTHER
    slot[a == 0] = _ZERO
    d[slot >= _ZERO] = 0

    # three lanes of digit values: a zero for the sign, d0..d6; d7..d14;
    # d15 d16
    h = d // 10 ** 10
    d -= h * 10 ** 10
    t = d // 100
    digits = _digits8(np.stack([h, t, d - t * 100]))
    digits[2] >>= 48
    # trailing zeros are dropped: keep every byte up to the last nonzero
    # digit, and the integer digits
    keep = _filled(digits)
    keep[1] |= (keep[2] != 0) * _ALL
    keep[0] |= (keep[1] != 0) * _ALL
    stay, point, text, integer = _LAYOUT.take(slot, axis=2)
    keep |= integer
    chars = (digits | _ASCII) & keep
    moved = chars & ~stay
    shift = _SHIFT.take(slot)
    out = chars & stay | keep & point | text | moved << shift
    out[1:] |= moved[:-1] >> (64 - shift)
    out[0] |= (x.view(np.uint64) >> 63) * (slot != _OTHER) * ord("-")
    out[2].reshape(-1, 2)[:] |= _SEPARATORS
    rows = out.T.astype("<u8", copy=False).tobytes().translate(None, b"\0")
    rows = rows.decode("ascii")
    other = x[slot == _OTHER]
    if other.size:      # each such value left one \1 in its place
        pieces = rows.split("\1")
        rows = pieces[0] + "".join("%.17g" % v + piece for v, piece
                                   in zip(other.tolist(), pieces[1:]))
    return rows


def write_csv(stream, name, axis_label, axis, values):
    stream.write(f"{axis_label},{name}\n")
    n = min(len(axis), len(values))     # zip's length, as rows were paired
    rows = _ROWS
    pairs = np.empty((min(n, rows), 2))
    for i in range(0, n, rows):
        k = min(rows, n - i)
        pairs[:k, 0] = axis[i:i + k]
        pairs[:k, 1] = values[i:i + k]
        stream.write(_format_rows(pairs[:k]))


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
