import io
import json
import math
import re
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from meyerwave import closed_form, export, quadrature, signals, verify
from meyerwave.cli import entry_point, main
from meyerwave.export import ExportRequest, evaluate_series
from meyerwave.signals import InvalidGrid
from meyerwave.verify import ORACLE_COMPARE_TOL


class TestExportRequest:
    def test_valid(self):
        ExportRequest("phi", -1.0, 1.0, 0.5)

    def test_rejects_bad_range(self):
        with pytest.raises(InvalidGrid):
            ExportRequest("phi", 1.0, -1.0, 0.5)

    def test_rejects_bad_step(self):
        with pytest.raises(InvalidGrid):
            ExportRequest("phi", 0.0, 1.0, 0.0)

    @pytest.mark.parametrize("step", [math.inf, math.nan])
    def test_rejects_non_finite_step(self, step):
        with pytest.raises(InvalidGrid, match="step"):
            ExportRequest("phi", 0.0, 1.0, step)

    def test_rejects_unknown_function(self):
        with pytest.raises(InvalidGrid):
            ExportRequest("nonesuch", 0.0, 1.0, 0.5)

    def test_rejects_runaway_export(self):
        with pytest.raises(InvalidGrid):
            ExportRequest("phi", 0.0, 1e6, 1e-6)

    # rounding t_start + i * step to doubles would give two rows one
    # abscissa: a step below the spacing at the larger end (1e16 is twice,
    # 1.0000000000000004e16 three times), or equal to it from a start off
    # its multiples (2**53 - 1 + 2i ties, and ties go to even); USAGE_ERRORS
    # holds the requests, which exit 2
    @pytest.mark.parametrize("start, end, step", [
        (1e16, 1.000000000000001e16, 1.0),
        (-1.000000000000001e16, -1e16, 1.0),
        (2.0 ** 53 - 1, 2.0 ** 53 + 9, 2.0)],
        ids=["below", "below_negative", "equal_off_multiples"])
    def test_rounded_grid_repeats_a_point(self, start, end, step):
        grid = signals._grid(start, step, export._grid_size(start, end, step))
        assert np.any(np.diff(grid) == 0)

    # on the spacing's multiples every point is a double: nothing rounds
    @pytest.mark.parametrize("start, end, step", [
        (1e16, 1.00000000000001e16, 2.0), (-5e-324, 5e-324, 5e-324),
        (0.0, 1e-310, 1e-312)])
    def test_grid_on_multiples_of_the_spacing_is_exact(self, start, end,
                                                       step):
        ExportRequest("phi", start, end, step)
        assert np.all(np.diff(export.grid_points(start, end, step)) == step)

    def test_point_budget_counts_both_ends(self):
        # validates requests only: no grid of 1e7 points is allocated
        budget = export.MAX_GRID_POINTS
        ExportRequest("phi", 0.0, budget - 1.0, 1.0)
        assert export._grid_size(0.0, budget - 1.0, 1.0) == budget
        with pytest.raises(InvalidGrid, match="point budget"):
            ExportRequest("phi", 0.0, float(budget), 1.0)


class TestSeries:
    def test_function_names_and_order(self):
        # the order of FUNCTIONS is the order of the CLI's choices
        assert export.FUNCTIONS == (
            "phi", "psi", "psi1", "psi2",
            "phi_spectrum", "psi_spectrum_magnitude",
            "envelope", "s_c", "s_s", "phi_oracle", "psi_oracle")
        assert export.SPECTRUM_FUNCTIONS == ("phi_spectrum",
                                             "psi_spectrum_magnitude")

    @pytest.mark.parametrize("name", export.FUNCTIONS)
    def test_every_function_evaluates_with_its_axis_label(self, name):
        label, axis, values = evaluate_series(
            ExportRequest(name, -1.0, 1.0, 0.25))
        assert label == export.SERIES[name][0]
        assert label == ("w" if name in export.SPECTRUM_FUNCTIONS else "t")
        assert np.shape(axis) == np.shape(values) == (9,)
        assert np.all(np.isfinite(values))

    # the writers read a column in unit-step slices; no other reader exists
    @pytest.mark.parametrize("column", [1, 2], ids=["axis", "values"])
    def test_column_rejects_a_stepped_slice(self, column):
        series = evaluate_series(ExportRequest("psi", -1.0, 1.0, 0.25))
        with pytest.raises(IndexError, match="read in unit steps"):
            series[column][::2]

    def test_csv_round_trip_exact(self):
        req = ExportRequest("psi", -3.0, 3.0, 0.07)
        label, axis, values = evaluate_series(req)
        buf = io.StringIO()
        export.write_csv(buf, "psi", label, axis, values)
        header, axis2, values2 = export.parse_csv(buf.getvalue())
        assert header == "t,psi"
        assert np.array_equal(axis, axis2)
        assert np.array_equal(values, values2)


def reference_write_csv(stream, name, axis_label, axis, values):
    """The per-row writer that export.write_csv must match byte for byte."""
    stream.write(f"{axis_label},{name}\n")
    for a, v in zip(axis, values):
        stream.write(f"{a:.17g},{v:.17g}\n")


def reference_write_json(stream, name, axis_label, axis, values):
    """json.dump(indent=2) of the payload export.write_json lays out."""
    step = float(axis[1] - axis[0]) if len(axis) > 1 else None
    payload = {
        "function": name,
        "grid": {"axis": axis_label, "start": axis[0], "stop": axis[-1],
                 "step": step, "count": len(axis)},
        "t": list(map(float, axis)),
        "value": list(map(float, values)),
    }
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def written(writer, axis, values, name="psi", label="t"):
    buf = io.StringIO()
    with np.errstate(invalid="ignore", over="ignore"):
        writer(buf, name, label, axis, values)
    return buf.getvalue()


def assert_same_text(got, want):
    if got != want:     # pytest's own diff of multi-megabyte strings is slow
        first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                     min(len(got), len(want)))
        pytest.fail(f"first difference at character {first}: "
                    f"{got[first:first + 40]!r} != {want[first:first + 40]!r}")


def assert_same_bytes(writer, reference, axis, values):
    assert_same_text(written(writer, axis, values),
                     written(reference, axis, values))


EXTREMES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
            1.7976931348623157e308, -1.7976931348623157e308]
finite_or_extreme = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                              st.sampled_from(EXTREMES))


# row counts a row either side of a chunk boundary eight chunks in
SPAN = 8 * export._ROWS


class TestWritersMatchReference:
    @pytest.mark.parametrize("n", [0, 1, 2, SPAN - 1, SPAN, SPAN + 1,
                                   2 * SPAN + 1])
    def test_csv_bytes(self, n):
        t = export.grid_points(-20.0, 20.0, 40.0 / max(n, 1))[:n]
        v = closed_form.psi(t)
        assert_same_bytes(export.write_csv, reference_write_csv, t, v)

    @pytest.mark.parametrize("n", [1, 2, SPAN - 1, SPAN, SPAN + 1,
                                   2 * SPAN + 1])
    def test_json_bytes(self, n):
        t = export.grid_points(-20.0, 20.0, 40.0 / max(n - 1, 1))[:n]
        v = closed_form.psi(t)
        assert_same_bytes(export.write_json, reference_write_json, t, v)

    # a row pairs a point with its value: unequal columns write nothing
    def test_rejects_unequal_columns(self):
        for writer in (export.write_csv, export.write_json):
            buf = io.StringIO()
            with pytest.raises(ValueError, match="5 axis points but 3 values"):
                writer(buf, "psi", "t", np.arange(5.0), np.arange(3.0))
            assert buf.getvalue() == ""

    @settings(max_examples=200, deadline=None)
    @given(data=st.lists(st.tuples(finite_or_extreme, finite_or_extreme),
                         min_size=1, max_size=40),
           rows=st.integers(1, 8))
    def test_extreme_floats_any_chunking(self, data, rows):
        t, v = (np.array(column) for column in zip(*data))
        with mock.patch.object(export, "_ROWS", rows):
            for writer, reference in ((export.write_csv, reference_write_csv),
                                      (export.write_json,
                                       reference_write_json)):
                assert_same_bytes(writer, reference, t, v)


def sample_to(out, function, fmt, start, step, n):
    """Run `sample` for n grid points from start into out; returns the
    range's end."""
    stop = start + step * (n - 1)
    assert main(["sample", "--function", function, "--format", fmt,
                 f"--from={start!r}", f"--to={stop!r}", f"--step={step!r}",
                 "--output", str(out)]) == 0
    return stop


def sampled(tmp_path, function, fmt, start, step, n):
    """The text that `sample` writes for n grid points from start, and
    the grid."""
    out = tmp_path / f"{function}.{fmt}"
    grid = export.grid_points(start, sample_to(out, function, fmt, start,
                                               step, n), step)
    assert len(grid) == n
    return out.read_text(), grid


class TestStreamedSample:
    """sample evaluates and writes a pointwise series a block at a time,
    and a psi-sampled one on the whole window: the bytes are those of the
    per-row references on the whole grid."""

    STEP = 1.0 / 64.0
    REFERENCES = {"csv": reference_write_csv, "json": reference_write_json}
    DIRECT = {"psi": closed_form.psi, "psi_oracle": quadrature.psi_oracle,
              "envelope": lambda t: signals.envelope(signals.SampledSignal(
                  t[0], TestStreamedSample.STEP, closed_form.psi(t))).samples}

    def assert_streamed_bytes(self, tmp_path, function, fmt, n):
        got, grid = sampled(tmp_path, function, fmt, -3.0, self.STEP, n)
        assert_same_text(got, written(self.REFERENCES[fmt], grid,
                                      self.DIRECT[function](grid),
                                      name=function))

    # a chunk of 8 rows divides the block, one of 7 straddles its edges
    @pytest.mark.parametrize("rows", [8, 7])
    @pytest.mark.parametrize("n", [31, 32, 33])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("function", ["psi", "psi_oracle", "envelope"])
    def test_bytes_at_block_edges(self, tmp_path, function, fmt, n, rows):
        with mock.patch.object(export, "_BLOCK", 32), \
                mock.patch.object(export, "_ROWS", rows):
            self.assert_streamed_bytes(tmp_path, function, fmt, n)

    # psi comes from signals.sample, so the grid of a psi-sampled series
    # is read a block at a time, as any other series' grid is
    @pytest.mark.parametrize("function", ["envelope", "s_c", "s_s"])
    def test_psi_sampled_grid_holds_one_block(self, tmp_path, function):
        held = []

        class Column(export._Column):
            def __init__(self, n, evaluate):
                super().__init__(n, lambda lo, hi: held.append(hi - lo)
                                 or evaluate(lo, hi))

        with mock.patch.object(export, "_BLOCK", 32), \
                mock.patch.object(export, "_ROWS", 8), \
                mock.patch.object(export, "_Column", Column):
            text, _ = sampled(tmp_path, function, "csv", -3.0, self.STEP, 100)
        assert len(text.splitlines()) == 101
        assert held and max(held) <= 32

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bytes_one_past_a_block(self, tmp_path, fmt):
        self.assert_streamed_bytes(tmp_path, "psi", fmt, export._BLOCK + 1)

    # A 1,000,001-point grid and its values alone take 16 MB.  sample
    # holds one block of each (2 x 2 MiB), the evaluation's temporaries
    # and one formatted chunk at a time: 7.2 MB for psi and 6.0 MB for
    # the phi JSON, measured with numpy 2.4.
    PEAK_BYTES = 10_000_000

    @pytest.mark.parametrize("function, fmt, n", [("psi", "csv", 1_000_001),
                                                  ("phi", "json", 300_001)])
    def test_memory_does_not_grow_with_the_grid(self, tmp_path, function,
                                                fmt, n):
        out = tmp_path / f"{function}.{fmt}"
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            stop = sample_to(out, function, fmt, -50.0, 1e-4, n)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= self.PEAK_BYTES
        assert len(out.read_text().splitlines()) > n
        assert len(export.grid_points(-50.0, stop, 1e-4)) == n


class TestDigitGroups:
    def test_every_group_of_four_digits(self):
        # each entry: the group's text, then 0xFF on every byte up to its
        # last nonzero digit, as 8 little-endian bytes
        table = export._DIGIT_GROUPS.astype("<u8").tobytes()
        for v in range(10_000):
            text = b"%04d" % v
            kept = len(text.rstrip(b"0"))
            assert table[8 * v:8 * v + 8] == (
                text + b"\xff" * kept + b"\0" * (4 - kept)), v


class TestCsvDigits:
    """The vectorized %.17g digits against the per-row reference writer."""

    @staticmethod
    def assert_csv_bytes(x):
        x = np.asarray(x, dtype=float)
        assert_same_bytes(export.write_csv, reference_write_csv,
                          x[0::2], x[1::2])

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20261018)
        bits = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64)
        self.assert_csv_bytes(bits.view(np.float64))

    def test_exact_ties(self):
        # odd n / 4 for n in [2**52, 2**53) has 16 integer digits and ends
        # in .25 or .75: the 17th digit is followed by exactly half a unit
        rng = np.random.default_rng(7)
        n = rng.integers(2 ** 52, 2 ** 53, 20_000) | 1
        ties = n.astype(np.float64) / 4.0
        assert np.all(ties * 4.0 == n)
        self.assert_csv_bytes(np.concatenate([ties, -ties]))

    def test_powers_of_ten_and_neighbours(self):
        # %g's switches between fixed and exponent notation (below 1e-4
        # and at 1e17) and the ends of the vectorized range, 1e-11 and 1e17
        p = np.array([float(f"1e{e}") for e in range(-12, 19)])
        near = np.concatenate([p, np.nextafter(p, 0.0),
                               np.nextafter(p, np.inf)])
        self.assert_csv_bytes(np.concatenate([near, -near]))

    def test_specials_in_one_chunk(self):
        tiny = np.finfo(float).tiny
        specials = [0.0, -0.0, 5e-324, -5e-324, tiny / 2, -tiny / 3,
                    tiny, np.finfo(float).max, -np.finfo(float).max,
                    math.nan, math.inf, -math.inf]
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4 * len(specials))
        x[1::4] = specials
        x[2::4] = -np.array(specials)
        self.assert_csv_bytes(x)

    @pytest.mark.parametrize("rows", [1, 2, 3, 7])
    def test_chunks_mixing_vectorized_and_fallback(self, rows):
        # values CPython formats (|x| < 1e-11, |x| >= 1e17, NaN, inf, a
        # subnormal) at the start, the end and the middle of chunks
        x = np.linspace(-3.0, 5.0, 4 * rows + 6)
        fallback = [1e-12, 1e17, math.nan, -3e300, 9.9e-12, -1.5e17,
                    5e-324, math.inf, 2e-11, 1e16, 0.0]
        x[::3] = np.resize(fallback, x[::3].size)
        with mock.patch.object(export, "_ROWS", rows):
            self.assert_csv_bytes(x)


class TestJsonDigits:
    """The vectorized shortest round-trip digits against json.dump."""

    @staticmethod
    def assert_json_bytes(x):
        x = np.asarray(x, dtype=float)
        assert_same_bytes(export.write_json, reference_write_json,
                          x[0::2], x[1::2])

    @staticmethod
    def items(x):
        """The items of the "t" array that write_json writes for x."""
        x = np.asarray(x, dtype=float)
        text = written(export.write_json, x, np.zeros_like(x))
        return text.split('"t": [\n    ')[1].split("\n  ]")[0].split(
            ",\n    ")

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20261018)
        bits = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64)
        self.assert_json_bytes(bits.view(np.float64))

    def test_exact_ties_at_the_shortest_length(self):
        # n / 8 with n = 2 mod 4 in [2**52, 2**53) ends in .25 or .75, and
        # its rounding interval is +-1/16 wide: both one-decimal neighbours
        # read back, at the same distance, and the even one is written
        rng = np.random.default_rng(11)
        n = rng.integers(2 ** 50, 2 ** 51, 20_000) * 4 + 2
        ties = n.astype(np.float64) / 8.0
        assert np.all(ties * 8.0 == n)
        self.assert_json_bytes(np.concatenate([ties, -ties]))
        assert self.items([867132011677835.75, 867132011677835.25]) == [
            "867132011677835.8", "867132011677835.2"]

    def test_powers_of_two_with_the_narrow_lower_gap(self):
        # at M = 2**52 the double below is half as far as the one above;
        # every such power of two in the vectorized range, 2**-36 .. 2**56,
        # and its neighbours
        p = np.ldexp(1.0, np.arange(-36, 57))
        near = np.concatenate([p, np.nextafter(p, 0.0),
                               np.nextafter(p, np.inf)])
        self.assert_json_bytes(np.concatenate([near, -near]))

    def test_repr_layout_switches(self):
        cases = [(0.0001, "0.0001"), (1e-05, "1e-05"),
                 (0.00012, "0.00012"), (1.2e-05, "1.2e-05"),
                 (1234567890123456.0, "1234567890123456.0"),
                 (1e16, "1e+16"), (1.5e16, "1.5e+16"), (100.0, "100.0"),
                 (0.5, "0.5"), (1e-06, "1e-06"), (-2.5, "-2.5"),
                 (0.0, "0.0"), (-0.0, "-0.0")]
        values, texts = zip(*cases)
        assert self.items(values) == list(texts)
        p = np.array([float(f"1e{e}") for e in range(-12, 19)])
        near = np.concatenate([p, np.nextafter(p, 0.0),
                               np.nextafter(p, np.inf)])
        self.assert_json_bytes(np.concatenate([near, -near, values,
                                               np.negative(values)]))

    def test_zero_and_the_ends_of_the_vectorized_range(self):
        # 1e-11 and 1e17 themselves go to the fallback, their inner
        # neighbours do not
        ends = [1e-11, np.nextafter(1e-11, 1.0), 1e17,
                np.nextafter(1e17, 0.0), 0.0, -0.0]
        self.assert_json_bytes(np.concatenate([ends, np.negative(ends)]))

    @pytest.mark.parametrize("rows", [1, 2, 3, 7])
    def test_fallback_values_in_any_chunk(self, rows):
        tiny = np.finfo(float).tiny
        x = np.linspace(-3.0, 5.0, 4 * rows + 6)
        fallback = [math.nan, math.inf, -math.inf, 5e-324, -tiny / 3,
                    tiny, -1e-300, np.finfo(float).max, 3e17, 0.0]
        x[::3] = np.resize(fallback, x[::3].size)
        with mock.patch.object(export, "_ROWS", rows):
            self.assert_json_bytes(x)


@st.composite
def sample_argv(draw):
    """A `sample` request with |t| <= 20 or <= 1e300 and at most 2,000
    grid points."""
    function = draw(st.sampled_from(export.FUNCTIONS))
    fmt = draw(st.sampled_from(["csv", "json"]))
    bound = draw(st.sampled_from([20.0, 1e300]))
    start = draw(st.floats(-bound, bound, exclude_max=True))
    end = draw(st.floats(start, bound, exclude_min=True))
    # steps from the 2,000-point limit up past the one-point width and
    # the 3/8 limit of the psi-sampled series
    step = draw(st.floats((end - start) / 1999.0,
                          max(50.0, 2.0 * (end - start))))
    return function, fmt, start, end, step


class TestSampleArgvProperty:
    @settings(max_examples=150, deadline=None)
    @given(case=sample_argv())
    @example(case=("envelope", "csv", -1.0, 1.0, 0.375))
    @example(case=("psi_oracle", "json", -20.0, 20.0, 40.0 / 1999.0))
    @example(case=("s_c", "csv", 0.0, 1e-310, 1e-312))
    @example(case=("phi", "csv", 0.0, 1.0, math.inf))
    @example(case=("phi", "csv", 1e300, 2e300, 2.5e299))
    @example(case=("phi", "json", 1e16, 1.000000000000001e16, 1.0))
    # 3|w| overflows past ~6e307, where both spectra are 0
    @example(case=("phi_spectrum", "csv", 1.7958954417205e308,
                   1.7976931348623157e308, 1.7976931348623157e304))
    @example(case=("psi_spectrum_magnitude", "csv", 1.7958954417205e308,
                   1.7976931348623157e308, 1.7976931348623157e304))
    def test_exit_code_and_output(self, tmp_path_factory, case):
        function, fmt, start, end, step = case
        out = tmp_path_factory.mktemp("sample") / f"out.{fmt}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["sample", "--function", function, "--format", fmt,
                         f"--from={start!r}", f"--to={end!r}",
                         f"--step={step!r}", "--output", str(out)])
        assert not [w for w in caught if w.category is RuntimeWarning], \
            [str(w.message) for w in caught]
        assert code in (0, 2)
        if code != 0:
            return
        grid = export.grid_points(start, end, step)
        rows = len(grid)
        assert rows <= 2000
        assert np.all(np.diff(grid) > 0)
        if fmt == "csv":
            header, axis, values = export.parse_csv(out.read_text())
            assert header == f"{export.SERIES[function][0]},{function}"
            assert len(axis) == len(values) == rows
        else:
            payload = json.loads(out.read_text())
            assert payload["grid"]["count"] == rows
            assert len(payload["t"]) == len(payload["value"]) == rows


# Every argv that must exit 2, with a regular expression that the last
# line of its stderr must fully match: one "error: " line for a grid that
# signals.InvalidGrid rejects (export.ExportRequest's included) or an
# output that cannot be written, argparse's usage and error line for an
# unknown or ambiguous option.  Paths are relative to the directory each
# row runs in, which holds one empty file, `file`.  The grid and removed
# options, which no command has, are TestCli's three *_is_usage_error
# tests, through the same usage_error check.
FINITE = r"error: start and end must be finite, got "
STEP = r"error: step must be positive and finite, got "
REPEATS = (r"error: step {} would repeat a grid point: doubles from {} "
           r"are up to 2\.0 apart")
COARSE = r"error: dt={} cannot represent the 8pi/3 band edge; need dt < 3/8"
NOT_A_DIRECTORY = r"error: \[Errno \d+\] Not a directory: 'file/out'"
UNKNOWN = r"meyerwave: error: unrecognized arguments: "
USAGE_ERRORS = [
    # a NaN or infinite bound is named before the range and budget
    # checks, which would misname it
    ("sample --function phi --from=nan --to=1 --step 1", FINITE + "nan"),
    ("sample --function phi --from=-inf --to=1 --step 1", FINITE + "-inf"),
    ("sample --function phi --from=0 --to=nan --step 1", FINITE + "nan"),
    ("sample --function phi --from=0 --to=inf --step 1", FINITE + "inf"),
    ("sample --function phi --from 2 --to 1 --step 0.1",
     r"error: start must be below end"),
    ("sample --function phi --from 0 --to 1 --step -1e-3", STEP + r"-0\.001"),
    ("sample --function phi --from 0 --to 1 --step -1", STEP + r"-1\.0"),
    ("sample --function phi --from 0 --to 1 --step -inf", STEP + "-inf"),
    # both ends are finite, but start + step, the second and last grid
    # point, is past the largest double: no grid is built
    ("sample --function psi --from 1.7876931348623208e+308 "
     "--to 1.7976931348623157e308 --step 1e306 --output ovf.csv",
     r"error: the last grid point overflows: 2 points of step 1e\+306 "
     r"from 1\.7876931348623208e\+308"),
    # the grids of test_rounded_grid_repeats_a_point, in either format
    *((f"sample --function phi --format {fmt} --from={start} --to={end} "
       f"--step={step} --output rep.{fmt}",
       REPEATS.format(re.escape(step), re.escape(doubles)))
      for fmt in ("csv", "json")
      for start, end, step, doubles in (
          ("1e+16", "1.000000000000001e+16", "1.0",
           "1e+16 to 1.000000000000001e+16"),
          ("-1.000000000000001e+16", "-1e+16", "1.0",
           "-1.000000000000001e+16 to -1e+16"),
          ("9007199254740991.0", "9007199254741001.0", "2.0",
           "9007199254740991.0 to 9007199254741000.0"))),
    # every psi-sampled series would alias at dt >= 3/8
    *((f"sample --function {name} --from -8 --to 8 --step {step} "
       "--output x.csv", COARSE.format(dt))
      for name in ("s_c", "s_s", "envelope")
      for step, dt in (("0.5", r"0\.5"), ("1", r"1\.0"))),
    # an --output under a file
    ("sample --function phi --from 0 --to 1 --step 0.5 --output file/out",
     NOT_A_DIRECTORY),
    ("verify --output file/out", NOT_A_DIRECTORY),
    ("decompose --output file/out", NOT_A_DIRECTORY),
    ("sample --function bogus --from 0 --to 1 --step 0.1",
     r"meyerwave sample: error: argument --function: invalid choice: "
     r"'bogus' \(choose from .*\)"),
    # --f could be --function, --from or --format
    ("sample --function phi --f -1e-09 --to 1e-09 --step 1e-10 "
     "--output f.csv",
     r"meyerwave sample: error: ambiguous option: --f=-1e-09 could match "
     r"--function, --from, --format"),
    # an option that holds its value after "=" takes no second one
    ("verify --output=out -x --output out", UNKNOWN + r"-x"),
]


# the console script's path: entry_point ends in sys.exit
@pytest.fixture
def usage_error(tmp_path, monkeypatch, capsys):
    def check(argv, last_line):
        # a usage error exits before the work: neither verify's suite nor
        # decompose's signal is computed
        def must_not_run():
            pytest.fail(f"{argv!r} did the work before its usage error")
        monkeypatch.setattr(verify, "run_verification", must_not_run)
        monkeypatch.setattr(verify, "_sampled_psi", must_not_run)
        (tmp_path / "file").touch()
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "argv", ["meyerwave", *argv.split()])
        with warnings.catch_warnings(record=True) as caught, \
                pytest.raises(SystemExit) as exc_info:
            warnings.simplefilter("always")
            entry_point()
        assert exc_info.value.code == 2
        assert not caught, [str(w.message) for w in caught]
        captured = capsys.readouterr()
        assert captured.out == ""
        *usage, last = captured.err.splitlines()
        assert re.fullmatch(last_line, last), last
        if last.startswith("error: "):
            assert usage == []
        else:   # the usage of the parser that failed, wrapped to the terminal
            prog = last.split(": error: ")[0]
            assert usage[0].startswith(f"usage: {prog} [-h]")
            assert all(line.startswith(" ") for line in usage[1:])
        assert {p.name: p.stat().st_size for p in tmp_path.iterdir()} == {
            "file": 0}
    return check


@pytest.mark.parametrize("argv, last_line", USAGE_ERRORS,
                         ids=[argv for argv, _ in USAGE_ERRORS])
def test_usage_error(usage_error, argv, last_line):
    usage_error(argv, last_line)


class TestCli:
    def test_sample_csv(self, tmp_path):
        out = tmp_path / "phi.csv"
        code = main(["sample", "--function", "phi", "--from", "-8",
                     "--to", "8", "--step", "0.01", "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,phi"
        assert len(lines) == 1602

    def test_sample_json(self, tmp_path):
        out = tmp_path / "psi.json"
        code = main(["sample", "--function", "psi", "--from", "0",
                     "--to", "1", "--step", "0.25", "--format", "json",
                     "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["grid"]["count"] == 5
        assert payload["t"] == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
        assert payload["value"][2] == pytest.approx(4.0 / np.pi)

    def test_sample_oracle(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        code = main(["sample", "--function", "phi_oracle", "--from", "-30",
                     "--to", "30", "--step", "0.5", "--output", str(out)])
        assert code == 0
        assert capsys.readouterr() == ("", "")
        header, axis, values = export.parse_csv(out.read_text())
        assert header == "t,phi_oracle"
        assert np.array_equal(axis, export.grid_points(-30.0, 30.0, 0.5))
        assert np.max(np.abs(values - closed_form.phi(axis))) \
            <= ORACLE_COMPARE_TOL

    def test_sample_json_one_point(self, tmp_path):
        out = tmp_path / "one.json"
        code = main(["sample", "--function", "phi", "--from", "0",
                     "--to", "0.5", "--step", "1", "--format", "json",
                     "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["grid"]["step"] is None
        assert payload["grid"]["count"] == 1
        assert payload["t"] == [0.0]
        assert payload["value"] == [closed_form.phi(0.0)]

    # argparse takes a token that starts with "-" for an option unless it
    # reads like -2 or -.5; main joins such a value to its option, or to an
    # abbreviation that names one option, with "="
    @pytest.mark.parametrize("start, end, step", [
        (-1e-09, 1e-09, 1e-10), (-5e-324, 5e-324, 5e-324),
        (-1.7976931348623157e+308, -1e-09, 1e308), (-1e308, -1e307, 1e307)])
    @pytest.mark.parametrize("spelling", ["spaced", "equals", "abbreviated"])
    def test_negative_bounds_with_exponents(self, tmp_path, capsys, start,
                                            end, step, spelling):
        out = tmp_path / "neg.csv"
        argv = ["sample", "--function", "phi", "--output", str(out)]
        for option, abbreviation, value in (("--from", "--fro", start),
                                            ("--to", "--t", end),
                                            ("--step", "--st", step)):
            argv += {"spaced": [option, repr(value)],
                     "equals": [f"{option}={value!r}"],
                     "abbreviated": [abbreviation, repr(value)]}[spelling]
        assert main(argv) == 0
        assert capsys.readouterr() == ("", "")
        _, axis, _ = export.parse_csv(out.read_text())
        assert np.array_equal(axis, export.grid_points(start, end, step))

    # every long option takes a spaced value that starts with "-", under
    # its full name and any abbreviation argparse resolves, as it takes the
    # "=" form: the same exit code, output and files, and an output path
    # that starts with "-" gets the files that a plain one does
    @pytest.mark.parametrize("command, option, abbreviation, value, code", [
        ("sample", "--function", "--fu", "-phi", 2),
        ("sample", "--from", "--fr", "-1e-9", 0),
        ("sample", "--to", "--t", "-1e-9", 0),
        ("sample", "--step", "--st", "-1e-3", 2),
        ("sample", "--format", "--fo", "-json", 2),
        ("sample", "--output", "--o", "-x.csv", 0),
        ("verify", "--output", "--o", "-r.json", 1),
        ("decompose", "--output", "--o", "-dec", 0)],
        ids=["function", "from", "to", "step", "format", "sample_output",
             "verify_output", "decompose_output"])
    def test_spaced_dash_value_is_the_equals_form(
            self, tmp_path, monkeypatch, capsys, command, option,
            abbreviation, value, code):
        def run(argv, where):
            where.mkdir()
            monkeypatch.chdir(where)
            try:
                status = main(argv)
            except SystemExit as exc:
                status = exc.code
            files = {str(p.relative_to(where)): re.sub(
                         rb'"timestamp": "[^"]*"', b"", p.read_bytes())
                     for p in where.rglob("*") if p.is_file()}
            return status, capsys.readouterr(), files

        argv = [command]
        if command == "sample":
            argv += ["--function", "phi", "--from=-2e-9", "--to", "2e-9",
                     "--step", "1e-9"]
        for spelling in (option, abbreviation):
            spaced = run(argv + [spelling, value], tmp_path / f"{spelling}_")
            equals = run(argv + [f"{spelling}={value}"],
                         tmp_path / f"{spelling}=")
            assert spaced[0] == code
            assert (spaced[1].err == "") == (code != 2)
            assert spaced == equals
        plain = (run(argv + [option, value[1:]], tmp_path / "plain")[2]
                 if option == "--output" else {})
        assert spaced[2] == {"-" + name: data for name, data in plain.items()}

    # The signal grid of verify and decompose is fixed, so no argv can ask
    # for a grid too coarse or invalid: each grid option is unknown, never
    # a failed check.
    @pytest.mark.parametrize("argv", ["decompose --grid-dt 0.5 --output out",
                                      "verify --grid-dt 0.5 --output c.json"],
                             ids=["decompose", "verify"])
    def test_coarse_grid_is_usage_error(self, usage_error, argv):
        usage_error(argv, UNKNOWN + r"--grid-dt 0\.5")

    @pytest.mark.parametrize("command", ["decompose", "verify"])
    @pytest.mark.parametrize("grid, shown", [
        ("--grid-dt 0", "--grid-dt 0"), ("--grid-dt nan", "--grid-dt nan"),
        ("--grid-span inf", "--grid-span inf"),
        ("--grid-dt -0.5", r"--grid-dt=-0\.5"),
        ("--grid-dt 1e-9", "--grid-dt 1e-9")],
        ids=["dt_zero", "dt_nan", "span_inf", "dt_negative", "over_budget"])
    def test_bad_grid_is_usage_error(self, usage_error, command, grid, shown):
        usage_error(f"{command} {grid} --output out", UNKNOWN + shown)

    # Nor is there a low-pass cutoff, a tolerance scale or a decompose
    # format.  An unknown option takes a value that starts with "-" too: -h
    # is no request for help.
    @pytest.mark.parametrize("argv, shown", [
        ("sample --function s_c --from -4 --to 4 --step 0.0625 --cutoff 6 "
         "--output out", "--cutoff 6"),
        ("verify --cutoff 6 --output out", "--cutoff 6"),
        ("decompose --cutoff 6 --output out", "--cutoff 6"),
        ("verify --tolerance-scale 1e4 --output s.json",
         "--tolerance-scale 1e4"),
        ("verify --grid-span 4 --output out", "--grid-span 4"),
        ("decompose --grid-span 4 --output dec2", "--grid-span 4"),
        ("decompose --format json --output out", "--format json"),
        ("verify --grid-dt -h --output out", "--grid-dt=-h"),
        ("decompose --grid-span -h --output out", "--grid-span=-h")],
        ids=["sample_cutoff", "verify_cutoff", "decompose_cutoff",
             "verify_tolerance_scale", "verify_grid_span",
             "decompose_grid_span", "decompose_format", "verify_grid_dt_h",
             "decompose_grid_span_h"])
    def test_removed_option_is_usage_error(self, usage_error, argv, shown):
        usage_error(argv, UNKNOWN + shown)

    # --help and its abbreviations take no value: "-x" stays an argument
    @pytest.mark.parametrize("spelling", ["--help", "--he"])
    def test_help_takes_no_value(self, capsys, spelling):
        with pytest.raises(SystemExit) as exc_info:
            main(["sample", spelling, "-x"])
        assert exc_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: meyerwave sample")

    @pytest.mark.parametrize("name", ["phi_oracle", "psi_oracle"])
    def test_oracle_at_huge_t_exits_0(self, capsys, name):
        # |t| up to 1e9 is integrated by parts, whose work does not grow
        # with t, so no node budget stops it
        assert main(["sample", "--function", name, "--from", "0",
                     "--to", "1e9", "--step", "1e6"]) == 0
        header, axis, values = export.parse_csv(capsys.readouterr().out)
        assert header == f"t,{name}"
        assert np.array_equal(axis, export.grid_points(0.0, 1e9, 1e6))
        closed = getattr(closed_form, name[:-len("_oracle")])
        assert np.max(np.abs(values - closed(axis))) <= ORACLE_COMPARE_TOL

    @pytest.mark.parametrize("name", ["s_c", "s_s", "envelope"])
    def test_subnormal_step_exits_0(self, capsys, name):
        # 1/(n*dt) overflows, and the low-pass keeps DC alone
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["sample", "--function", name, "--from", "0",
                         "--to", "1e-310", "--step", "1e-312"]) == 0
        assert not caught, [str(w.message) for w in caught]
        captured = capsys.readouterr()
        assert captured.err == ""
        assert len(captured.out.splitlines()) == 102

    def test_decompose_writes_files(self, tmp_path):
        code = main(["decompose", "--output", str(tmp_path)])
        assert code == 0
        sig = verify._sampled_psi()
        assert np.array_equal(sig.times,
                              export.grid_points(-16.0, 16.0, 1.0 / 64.0))
        assert sig.times.size == 2049
        # each file holds the array its name says, byte for byte
        s_c, s_s = signals.decompose_quadrature(sig)
        rebuilt = signals.reconstruct_quadrature(s_c, s_s)
        series = {"s_c": s_c.samples, "s_s": s_s.samples,
                  "reconstruction": rebuilt.samples,
                  "reconstruction_error": rebuilt.samples - sig.samples}
        assert {p.name for p in tmp_path.iterdir()} == {
            f"meyer_{name}.csv" for name in series}
        for name, values in series.items():
            assert_same_text((tmp_path / f"meyer_{name}.csv").read_text(),
                             written(reference_write_csv, sig.times, values,
                                     name=name))
        err = series["reconstruction_error"]
        margin = err.size // 10
        assert np.max(np.abs(err[margin:err.size - margin])) <= 1e-3

    # a crash is neither a usage error (2) nor a failed verification (1)
    @pytest.mark.parametrize("error", [RuntimeError, ValueError])
    def test_crash_exits_3_with_its_traceback(self, monkeypatch, capsys,
                                              error):
        def crash():
            raise error("injected")
        monkeypatch.setattr(verify, "run_verification", crash)
        monkeypatch.setattr(sys, "argv", ["meyerwave", "verify"])
        with pytest.raises(SystemExit) as exc_info:
            entry_point()
        assert exc_info.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines[0] == "Traceback (most recent call last):"
        assert lines[-1] == f"{error.__name__}: injected"

    @pytest.mark.parametrize("error", [SystemExit, KeyboardInterrupt])
    def test_exit_and_interrupt_pass_through(self, monkeypatch, capsys,
                                             error):
        def stop():
            raise error()
        monkeypatch.setattr(verify, "run_verification", stop)
        monkeypatch.setattr(sys, "argv", ["meyerwave", "verify"])
        with pytest.raises(error):
            entry_point()
        assert capsys.readouterr().err == ""
