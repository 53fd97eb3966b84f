"""Waveform/spectrum series evaluation and CSV/JSON serialization.

CSV files carry a header row and one ``abscissa,value`` record per line,
printed as ``%.17g`` prints them, so that re-parsing reproduces the
binary doubles exactly.  JSON output is an object with ``grid`` metadata
and parallel ``t``/``value`` arrays, laid out as ``json.dump(...,
indent=2)`` lays them out; ``grid.step`` is ``null`` for a one-point axis,
which has no spacing.

Both writers format ``_ROWS`` rows at a time and write each chunk with one
call, so a file is never held whole in memory; the bytes are those a
per-row loop would write.  ``evaluate_series`` returns the grid and the
values of a pointwise series (the closed forms, spectra and oracles) as
columns that are computed ``_BLOCK`` points at a time as the writers read
them, so no full-length grid or value array exists either: a ``sample``
of any length runs in the same memory.  The psi-sampled series
(``envelope``, ``s_c``, ``s_s``) convolve psi as ``signals.sample``
samples it on the whole window, and are one array; their grid is a column.

Both writers compute their digits in numpy, a chunk at a time, with
integer arithmetic only.  A double is exactly M * 2**E with a 53-bit M.
For 10**-11 <= |x| < 10**17 the decimal exponent k of its leading digit
is at least -11 and at most 16, and D = floor(M * 2**E * 10**(16 - k))
holds its first 17 digits, with 0 <= 16 - k <= 27.  5**27 fits in 64
bits, so the product M * 5**(16 - k) is formed exactly in 128 bits from
32-bit halves, shifted by E + 16 - k, and rounded on the exact remainder
(Gay, "Correctly rounded binary-decimal and decimal-binary conversions",
1990).  k starts from ``np.log10`` and is corrected by one wherever D
leaves [1e16, 1e17).

``%.17g`` (CSV) prints D rounded half to even.  ``repr`` (JSON) prints
the fewest digits that read back as x, nearest x (Steele and White, "How
to print floating-point numbers accurately", 1990; Adams, "Ryu", 2018).
Every decimal between the midpoints to the two neighbouring doubles
reads back as x, and so do the midpoints themselves when M is even,
since reading rounds ties to even.  The midpoints are (2M -+ 1) *
2**(E - 1), but at M = 2**52 the lower gap halves and the lower one is
(4M - 1) * 2**(E - 2); both are scaled as D is, every shift staying
within 63 bits, and cut to the integers [lower, upper] between them.
That interval is less than 10**17 / 2**52 < 23 units wide, so the digits
are those of the multiple of 100 in it, if there is one, else of the
multiple of 10 in it nearest x, else D rounded; a tie at the shortest
length goes to the even digit, and a result of 10**17 moves k up by one.

The text of D comes four digits at a time from one table of the 10,000
groups, which also marks each group's bytes up to its last nonzero digit.
One layout routine then places the digits as per-slot tables say: one
slot per k, one for zero and one for the fallback.  ``%g``'s tables drop
trailing zeros but keep integer digits, give -4 <= k < 0 a ``0.000``
prefix and k < -4 an ``e-XX`` exponent; ``repr``'s also keep a point and
one digit after it on integral values (``100.0``), use an exponent from
k = 16 on (``1e+16``) and write zero as ``0.0``.  Each value fills three
uint64 lanes (24 bytes), its separator ends them (``,`` or a newline in
CSV, and ``,\\n    `` in JSON, which takes a fourth lane), and one
``bytes.translate`` removes the NUL padding.  NaN, infinities,
subnormals, and |x| <= 1e-11 or |x| >= 1e17 are formatted by CPython's
own ``%.17g`` or ``repr`` (the double 1e-11 lies below 10**-11), and in
JSON NaN and infinities by ``json.dumps``.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import closed_form, quadrature, signals, spectral

__all__ = ["MAX_GRID_POINTS", "ExportRequest", "SERIES", "FUNCTIONS",
           "SPECTRUM_FUNCTIONS", "grid_points", "evaluate_series",
           "write_csv", "write_json", "parse_csv"]

MAX_GRID_POINTS = 10_000_000     # budget for any export grid


@dataclass(frozen=True)
class ExportRequest:
    function: str
    t_start: float
    t_end: float
    step: float

    def __post_init__(self):
        if self.function not in FUNCTIONS:
            raise signals.InvalidGrid(f"unknown function {self.function!r}")
        for value in (self.t_start, self.t_end):
            if not math.isfinite(value):
                raise signals.InvalidGrid(f"start and end must be finite, "
                                          f"got {value!r}")
        if not (self.t_start < self.t_end):
            raise signals.InvalidGrid("start must be below end")
        if not 0 < self.step < math.inf:
            raise signals.InvalidGrid(f"step must be positive and finite, "
                                      f"got {self.step!r}")
        n = _grid_size(self.t_start, self.t_end, self.step)
        if n > MAX_GRID_POINTS:
            raise signals.InvalidGrid("export would exceed the point budget")
        # the last grid point is the largest, and computed as the grid
        # computes it
        last = (n - 1) * self.step + self.t_start
        if not math.isfinite(last):
            raise signals.InvalidGrid(f"the last grid point overflows: "
                                      f"{n} points of step {self.step!r} "
                                      f"from {self.t_start!r}")
        # a step below the spacing of doubles at the larger end, or equal
        # to it from a start off its multiples, rounds two points to one
        spacing = math.ulp(max(abs(self.t_start), abs(last)))
        if self.step < spacing or (self.step == spacing
                                   and math.fmod(self.t_start, spacing)):
            raise signals.InvalidGrid(f"step {self.step!r} would repeat a "
                                      f"grid point: doubles from "
                                      f"{self.t_start!r} to {last!r} are up "
                                      f"to {spacing!r} apart")


def _grid_size(t_start, t_end, step):
    """The number of points grid_points returns; inf when the range over
    the step overflows."""
    ratio = (t_end - t_start) / step * (1.0 + 1e-12)
    return math.floor(ratio) + 1 if ratio < math.inf else math.inf


def grid_points(t_start, t_end, step):
    return signals._grid(t_start, step, _grid_size(t_start, t_end, step))


# name -> (axis label, evaluator, pointwise), in the CLI's choices order.
# A pointwise evaluator maps abscissas t to values, each value from its
# own t alone, so it is evaluated a block at a time; the others take psi
# sampled on the whole window, a signals.SampledSignal.  Evaluators look
# library functions up through their module on each call, so that a
# replaced module attribute takes effect.
SERIES = {
    "phi": ("t", lambda t: closed_form.phi(t), True),
    "psi": ("t", lambda t: closed_form.psi(t), True),
    "psi1": ("t", lambda t: closed_form.psi1(t), True),
    "psi2": ("t", lambda t: closed_form.psi2(t), True),
    "phi_spectrum": ("w", lambda t: spectral.scale_spectrum(t), True),
    "psi_spectrum_magnitude":
        ("w", lambda t: spectral.wavelet_spectrum_magnitude(t), True),
    "envelope": ("t", lambda sig: signals.envelope(sig).samples, False),
    "s_c": ("t", lambda sig: signals.decompose_quadrature(sig)[0].samples,
            False),
    "s_s": ("t", lambda sig: signals.decompose_quadrature(sig)[1].samples,
            False),
    "phi_oracle": ("t", lambda t: quadrature.phi_oracle(t), True),
    "psi_oracle": ("t", lambda t: quadrature.psi_oracle(t), True),
}
FUNCTIONS = tuple(SERIES)
# functions evaluated against an angular-frequency axis
SPECTRUM_FUNCTIONS = tuple(name for name, (label, *_) in SERIES.items()
                           if label == "w")

_ROWS = 1 << 12      # rows per formatted chunk and per stream.write
# Points per evaluation block, 2 MiB per float64 column.  A block spans
# many chunks: glibc keeps the heap that formatting a chunk takes only
# while that is at most twice the largest block freed.  With one 8,192-
# point block per chunk it trimmed and faulted the heap back in for every
# chunk: an 800,001-row psi CSV took 130,000 minor faults, against 4,600
# at this size.
_BLOCK = 1 << 18


class _Column:
    """n values that evaluate(lo, hi) computes a block at a time as they
    are read, for the writers to read a slice at a time.  Only the last
    block is kept: a slice outside it evaluates the block that starts
    where the slice does, _BLOCK points or the slice, whichever is
    longer.  An index gives a numpy scalar, and np.asarray a copy of the
    whole column."""

    def __init__(self, n, evaluate):
        self._n = n
        self._evaluate = evaluate
        self._lo = 0
        self._block = np.empty(0)

    def __len__(self):
        return self._n

    def __getitem__(self, key):
        rows = range(self._n)[key]
        if isinstance(rows, int):
            return self[rows:rows + 1][0]
        if rows.step != 1:
            raise IndexError("a column is read in unit steps")
        lo, hi = rows.start, max(rows.start, rows.stop)
        if lo < self._lo or hi > self._lo + self._block.size:
            # drop the last block first: the two are never held at once
            self._lo, self._block = lo, np.empty(0)
            self._block = self._evaluate(
                lo, max(hi, min(lo + _BLOCK, self._n)))
        return self._block[lo - self._lo:hi - self._lo]

    def __array__(self, dtype=None, copy=None):
        return np.array(self[:], dtype=dtype)


def evaluate_series(req):
    """The requested series as (axis_label, axis, values).  The axis is a
    column of grid points, and so are the values of a pointwise series;
    the psi-sampled series are evaluated here, on the whole window."""
    n = _grid_size(req.t_start, req.t_end, req.step)
    axis = _Column(n, lambda lo, hi: signals._grid(req.t_start, req.step,
                                                   hi, lo))
    label, evaluate, pointwise = SERIES[req.function]
    if pointwise:
        return label, axis, _Column(n, lambda lo, hi: evaluate(axis[lo:hi]))
    sig = signals.sample(closed_form.psi, req.t_start, req.step, n)
    signals.require_fine_grid(sig)
    return label, axis, evaluate(sig)


_POW5 = np.array([5 ** q for q in range(28)], dtype=np.uint64)
_POW10 = np.array([1, 10, 100], dtype=np.uint64)
_LOW32 = 0xFFFFFFFF
_HIGH32 = np.uint64(0xFFFFFFFF00000000)
_ZERO, _OTHER = 28, 29      # layout slots after those of k = -11 .. 16


def _scaled(m, e, k):
    """floor(m * 2**e * 10**(16 - k)) for 0 <= 16 - k <= 27, whether
    rounding it half to even goes up, and whether it is exact, from the
    exact 128-bit product."""
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
    return d, rem + (d & 1) > half, rem == 0


def _decimal(x):
    """Each x as |x| = m * 2**e, exactly, with a 53-bit m; the decimal
    exponent k of its leading digit; its 17 digits D = floor(|x| *
    10**(16 - k)) with whether rounding D goes up and whether D is exact;
    and its layout slot, k + 11 or _ZERO or _OTHER."""
    a = np.abs(x)
    # exactly 10**-11 <= |x| < 10**17: the double 1e-11 is below 10**-11
    covered = (a > 1e-11) & (a < 1e17)
    y = np.where(covered, a, 1.0)
    bits = y.view(np.uint64)
    e = (bits >> 52).astype(np.int64) - 1075
    m = bits & 0xFFFFFFFFFFFFF | 1 << 52
    k = np.clip(np.floor(np.log10(y)), -11, 16).astype(np.int64)
    d, up, exact = _scaled(m, e, k)
    # np.log10 can put k one off near a power of ten
    step = (d >= 10 ** 17).astype(np.int64) - (d < 10 ** 16)
    redo = np.flatnonzero(step)
    if redo.size:
        k[redo] += step[redo]
        d[redo], up[redo], exact[redo] = _scaled(m[redo], e[redo], k[redo])
    slot = k + 11
    slot[~covered] = _OTHER
    slot[a == 0] = _ZERO
    return m, e, k, d, up, exact, slot


def _shortest(m, e, k, d, up, exact):
    """The shortest digits that read back as m * 2**e, from _decimal's D
    and flags: the 17-digit integer they begin, and where they are those
    of 10**(k + 1), which moves k up by one.

    Every decimal between the midpoints to the two neighbouring doubles
    reads back as x, and so do the midpoints themselves when m is even,
    since reading rounds ties to even.  Scaled as D is, the integers in
    that interval are [lower, upper]; D rounded is among them.  The
    digits are those of the multiple of 10**j in it nearest x, ties to
    even, for the largest j that has one (Steele and White, "How to
    print floating-point numbers accurately", 1990).
    """
    # the midpoints are (2m -+ 1) * 2**(e - 1), but the double below
    # 2**52 * 2**e is 2**(e - 1) away, so the lower one is (4m - 1) *
    # 2**(e - 2) there; the shifts stay within 63 bits for |x| > 1e-11
    edge = m == 1 << 52
    upper, _, upper_exact = _scaled(2 * m + 1, e - 1, k)
    lower, _, lower_exact = _scaled(np.where(edge, 4 * m - 1, 2 * m - 1),
                                    e - 1 - edge, k)
    even = (m & 1) == 0
    upper -= upper_exact & ~even
    lower += ~(lower_exact & even)      # floor to ceiling, or past an end
    # the interval is less than 10**17 / 2**52 < 23 units wide, so for
    # j >= 2 a multiple of 10**j in it is the one multiple of 100 there,
    # and the one nearest x: j = 2 gives the digits of any larger j
    p = _POW10.take(sum(upper // q * q >= lower for q in (10, 100)))
    c = d // p
    r = d - c * p
    half = p >> 1
    # D plus its fraction passes c * p + half unless it is an exact tie
    # with c even; at j = 0 that is _scaled's own flag
    tie = (r == half) & exact & ((c & 1) == 0)
    up = np.where(p > 1, (r > half) | (r == half) & ~tie, up)
    v = (c + up) * p
    # the interval is symmetric about x but at m = 2**52, where it is
    # narrower below: there the nearest multiple can fall below it
    v += (v < lower) * p
    carry = v == 10 ** 17
    v[carry] = 10 ** 16
    return v, carry


def _digit_groups():
    """For each group v < 10**4 of four digits, one uint64: in the low
    half the text of its digits, most significant in the low byte, and in
    the high half 0xFF on every byte up to its last nonzero digit."""
    v = np.arange(10_000, dtype=np.uint64)
    table = np.zeros_like(v)
    for byte, place in enumerate((1000, 100, 10, 1)):
        table |= (v // place % 10 + ord("0")) << 8 * byte
        # a byte is kept when it or a later digit is nonzero
        table |= (v % (10 * place) != 0) * np.uint64(0xFF << 8 * byte + 32)
    return table


_DIGIT_GROUPS = _digit_groups()


def _lanes(text, n=3):
    """text as n little-endian uint64 lanes, padded with NUL bytes."""
    return np.frombuffer(text.ljust(8 * n, b"\0"), dtype="<u8")


def _layout_tables(shortest):
    """Where the 17 digits go, per slot: k + 11 for k = -11 .. 16, then
    _ZERO and _OTHER.  The layout is %g's, or float.__repr__'s when
    shortest is true: that always shows a point and a digit after it in
    fixed notation, uses exponent notation from k = 16 on, and writes
    zero as 0.0.

    A value's text is a 24-byte field, three uint64 lanes: the sign at
    byte 0, the digits d0..d16 at bytes 1..17 and the separator from
    byte 23 on.  Per slot there are four 3-lane tables and one shift: the
    bytes that stay where they are; the point, shown only when the digit
    after it is kept; fixed text; integer digits, kept even when zero;
    and how many bits the bytes that do not stay move up.
    """
    none = _lanes(b"")
    rows, shifts = [], []
    for k in range(-11, 17):
        if k < -4 or shortest and k == 16:      # d0.d1..e-XX
            rows.append((_lanes(b"\xff" * 2), _lanes(b"\0\0."),
                         _lanes(b"\0" * 19 + b"e%+03d" % k), none))
            shifts.append(8)
        elif k >= 0:        # d0..dk.d(k+1)..
            rows.append((_lanes(b"\xff" * (k + 2)),
                         _lanes(b"\0" * (k + 2) + b"."), none,
                         _lanes(b"\0" + b"\xff" * (k + 1 + shortest))))
            shifts.append(8)
        else:               # 0.000d0..
            rows.append((none, none,
                         _lanes(b"\0" + b"0." + b"0" * (-k - 1)), none))
            shifts.append(40)
    for text in (b"\0" + (b"0.0" if shortest else b"0"),    # _ZERO
                 b"\0" + b"\1"):                            # _OTHER
        rows.append((none, none, _lanes(text), none))
        shifts.append(8)
    return (np.array(rows, dtype=np.uint64).transpose(1, 2, 0).copy(),
            np.array(shifts, dtype=np.uint64))


_LAYOUT, _SHIFT = _layout_tables(shortest=False)
_REPR_LAYOUT, _REPR_SHIFT = _layout_tables(shortest=True)
# what follows each value: ',' and '\n' by turns (the two columns of a
# CSV row), or the ',\n    ' between the items of an indented JSON array
_CSV_SEPARATORS = np.array([_lanes(b"\0" * 23 + b","),
                            _lanes(b"\0" * 23 + b"\n")])
_JSON_SEPARATORS = np.array([_lanes(b"\0" * 23 + b",\n    ", 4)])


def _digit_lanes(d):
    """The text of each 17-digit d after a zero byte for the sign, in three
    uint64 lanes, and 0xFF on every byte up to its last nonzero digit."""
    # six groups of four digits, the last four of d // 10**14, d // 10**10,
    # d // 10**6, d // 100, 100 d and 0: the sign's zero and d0..d2, d3..d6,
    # d7..d10, d11..d14, d15 d16 and two zeros, and none
    g = np.stack([d // 10 ** 14, d // 10 ** 10, d // 10 ** 6, d // 100,
                  d * 100, 0 * d])
    g[1:5] -= g[:4] * 10 ** 4
    g = _DIGIT_GROUPS.take(g.view(np.int64))    # signed: a faster take
    # trailing zeros are dropped: every byte up to the last nonzero digit is
    # kept, so a group before a kept one is kept whole
    for i in (3, 2, 1, 0):
        g[i] |= (g[i + 1] > _LOW32) * _HIGH32
    lo, hi = g[0::2], g[1::2]       # three lanes of two groups each
    digits = lo & _LOW32 | hi << 32
    digits[0] -= ord("0")           # the sign's byte
    return digits, lo >> 32 | hi >> 32 << 32


def _lay_out(x, d, slot, layout, shifts, separators, fallback):
    """The text of each x from its digits, the 17-digit integer d, laid
    out by the tables of its slot and followed by its separator, the
    rows of separators taken in turn; fallback formats the x of slot
    _OTHER."""
    digits, keep = _digit_lanes(np.where(slot < _ZERO, d, 0))
    stay, point, text, integer = layout.take(slot, axis=2)
    keep |= integer
    chars = digits & keep
    moved = chars & ~stay
    shift = shifts.take(slot)
    out = chars & stay | keep & point | text | moved << shift
    out[1:] |= moved[:-1] >> (64 - shift)
    out[0] |= (x.view(np.uint64) >> 63) * (slot != _OTHER) * ord("-")
    fields = np.tile(separators, (x.size // len(separators), 1))
    fields[:, :3] |= out.T
    rows = fields.tobytes().translate(None, b"\0").decode("ascii")
    other = x[slot == _OTHER]
    if other.size:      # each such value left one \1 in its place
        pieces = rows.split("\1")
        rows = pieces[0] + "".join(fallback(v) + piece for v, piece
                                   in zip(other.tolist(), pieces[1:]))
    return rows


def _format_rows(pairs):
    """The rows '%.17g,%.17g\\n' % (a, v) for each (a, v) in pairs."""
    x = pairs.ravel()
    *_, d, up, _, slot = _decimal(x)
    # no double in range rounds up to 1e17 here: the nearest one below
    # each power of ten from 1e-10 to 1e17 is >= 4.5e-17 away in relative
    # terms, and rounding to 17 digits carries only within 5e-18
    return _lay_out(x, d + up, slot, _LAYOUT, _SHIFT, _CSV_SEPARATORS,
                    "%.17g".__mod__)


def _json_items(x):
    """json.dumps(float(v)) for each v in x, each followed by ',\\n    '."""
    m, e, k, d, up, exact, slot = _decimal(x)
    d, carry = _shortest(m, e, k, d, up, exact)
    return _lay_out(x, d, slot + carry, _REPR_LAYOUT, _REPR_SHIFT,
                    _JSON_SEPARATORS, _json_number)


def _json_number(v):
    """json.dumps(v) for a float v: its repr where it is finite."""
    return float.__repr__(v) if math.isfinite(v) else json.dumps(v)


def _row_count(axis, values):
    """The number of rows, one per point: axis and values pair up."""
    if len(axis) != len(values):
        raise ValueError(f"{len(axis)} axis points but {len(values)} "
                         "values")
    return len(axis)


def write_csv(stream, name, axis_label, axis, values):
    n = _row_count(axis, values)
    stream.write(f"{axis_label},{name}\n")
    rows = _ROWS
    pairs = np.empty((min(n, rows), 2))
    for i in range(0, n, rows):
        k = min(rows, n - i)
        pairs[:k, 0] = axis[i:i + k]
        pairs[:k, 1] = values[i:i + k]
        stream.write(_format_rows(pairs[:k]))


def write_json(stream, name, axis_label, axis, values):
    _row_count(axis, values)
    step = float(axis[1] - axis[0]) if len(axis) > 1 else None
    header = json.dumps({
        "function": name,
        "grid": {"axis": axis_label, "start": axis[0], "stop": axis[-1],
                 "step": step, "count": len(axis)},
    }, indent=2)
    stream.write(header[:-2])           # reopen the object: drop "\n}"
    for key, data in (("t", axis), ("value", values)):
        n = len(data)
        stream.write(f',\n  "{key}": [' + ("\n    " if n else ""))
        for i in range(0, n, _ROWS):
            items = _json_items(np.asarray(data[i:i + _ROWS], dtype=float))
            # the last item is followed by the closing bracket instead
            stream.write(items if i + _ROWS < n
                         else items.removesuffix(",\n    ") + "\n  ")
        stream.write("]")
    stream.write("\n}\n")


def parse_csv(text):
    """Inverse of write_csv; returns (header, axis array, value array)."""
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0]
    rows = [ln.split(",") for ln in lines[1:]]
    axis = np.array([float(r[0]) for r in rows])
    values = np.array([float(r[1]) for r in rows])
    return header, axis, values
