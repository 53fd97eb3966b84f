import io
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from meyerwave import closed_form, export, quadrature
from meyerwave.cli import main
from meyerwave.export import ExportRequest, InvalidRequest, evaluate_series
from meyerwave.spectral import W_MID
from meyerwave.verify import ORACLE_COMPARE_TOL


class TestExportRequest:
    def test_valid(self):
        req = ExportRequest("phi", -1.0, 1.0, 0.5)
        assert req.format == "csv"

    def test_rejects_bad_range(self):
        with pytest.raises(InvalidRequest):
            ExportRequest("phi", 1.0, -1.0, 0.5)

    def test_rejects_bad_step(self):
        with pytest.raises(InvalidRequest):
            ExportRequest("phi", 0.0, 1.0, 0.0)

    @pytest.mark.parametrize("step", [math.inf, math.nan])
    def test_rejects_non_finite_step(self, step):
        with pytest.raises(InvalidRequest, match="step"):
            ExportRequest("phi", 0.0, 1.0, step)

    def test_rejects_unknown_function(self):
        with pytest.raises(InvalidRequest):
            ExportRequest("nonesuch", 0.0, 1.0, 0.5)

    def test_rejects_runaway_export(self):
        with pytest.raises(InvalidRequest):
            ExportRequest("phi", 0.0, 1e6, 1e-6)


class TestSeries:
    def test_row_count(self):
        _, axis, values = evaluate_series(ExportRequest("phi", -8.0, 8.0, 0.01))
        assert len(axis) == 1601
        assert len(values) == 1601

    def test_spectrum_support(self):
        label, w, v = evaluate_series(
            ExportRequest("phi_spectrum", 0.0, W_MID + 1.0, 0.01))
        assert label == "w"
        assert np.all(v[w > W_MID + 1e-9] == 0.0)

    def test_wavelet_band_centre(self):
        _, w, v = evaluate_series(
            ExportRequest("psi_spectrum_magnitude", 0.0, 10.0, 0.001))
        support = w[v > 0.0]
        centre = 0.5 * (support[0] + support[-1])
        assert centre == pytest.approx(5.0 * np.pi / 3.0, abs=0.01)

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
        assert axis.shape == values.shape == (9,)
        assert np.all(np.isfinite(values))

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


def assert_same_bytes(writer, reference, axis, values):
    got, want = written(writer, axis, values), written(reference, axis, values)
    if got != want:     # pytest's own diff of multi-megabyte strings is slow
        first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                     min(len(got), len(want)))
        pytest.fail(f"first difference at character {first}: "
                    f"{got[first:first + 40]!r} != {want[first:first + 40]!r}")


EXTREMES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
            1.7976931348623157e308, -1.7976931348623157e308]
finite_or_extreme = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                              st.sampled_from(EXTREMES))


class TestWritersMatchReference:
    @pytest.mark.parametrize("n", [0, 1, 2, export._ROWS - 1, export._ROWS,
                                   export._ROWS + 1, 2 * export._ROWS + 1])
    def test_csv_bytes(self, n):
        t = export.grid_points(-20.0, 20.0, 40.0 / max(n, 1))[:n]
        v = closed_form.psi(t)
        assert_same_bytes(export.write_csv, reference_write_csv, t, v)

    @pytest.mark.parametrize("n", [1, 2, export._ROWS - 1, export._ROWS,
                                   export._ROWS + 1, 2 * export._ROWS + 1])
    def test_json_bytes(self, n):
        t = export.grid_points(-20.0, 20.0, 40.0 / max(n - 1, 1))[:n]
        v = closed_form.psi(t)
        assert_same_bytes(export.write_json, reference_write_json, t, v)

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
        assert code in (0, 2, 3)
        if code != 0:
            return
        rows = len(export.grid_points(start, end, step))
        assert rows <= 2000
        if fmt == "csv":
            header, axis, values = export.parse_csv(out.read_text())
            assert header == f"{export.SERIES[function][0]},{function}"
            assert len(axis) == len(values) == rows
        else:
            payload = json.loads(out.read_text())
            assert payload["grid"]["count"] == rows
            assert len(payload["t"]) == len(payload["value"]) == rows


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

    def test_sample_oracle(self, tmp_path):
        out = tmp_path / "o.csv"
        code = main(["sample", "--function", "phi_oracle", "--from", "0",
                     "--to", "1", "--step", "0.5", "--output", str(out)])
        assert code == 0
        _, _, values = export.parse_csv(out.read_text())
        assert values[0] == pytest.approx(2.0 / 3.0 + 4.0 / (3.0 * np.pi),
                                          abs=1e-9)

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

    def test_usage_error_exit_code(self, capsys):
        assert main(["sample", "--function", "phi", "--from", "2",
                     "--to", "1", "--step", "0.1"]) == 2

    def test_unknown_function_is_argparse_error(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["sample", "--function", "bogus", "--from", "0",
                  "--to", "1", "--step", "0.1"])
        assert exc_info.value.code == 2

    def test_coarse_signal_grid_is_usage_error(self, tmp_path):
        # every psi-sampled series would alias above dt = 3/8
        for name in ("s_c", "s_s", "envelope"):
            for step in ("0.5", "1"):
                code = main(["sample", "--function", name, "--from", "-8",
                             "--to", "8", "--step", step,
                             "--output", str(tmp_path / "x.csv")])
                assert code == 2, (name, step)

    @pytest.mark.parametrize("command", ["decompose", "verify"])
    @pytest.mark.parametrize("grid", [
        ["--grid-dt", "0"], ["--grid-dt", "nan"], ["--grid-span", "inf"],
        ["--grid-dt", "-0.5"],
        ["--grid-dt", "1e-9"]],     # rejected before anything is allocated
        ids=["dt_zero", "dt_nan", "span_inf", "dt_negative", "over_budget"])
    def test_bad_grid_is_usage_error(self, tmp_path, capsys, command, grid):
        out = tmp_path / ("out" if command == "decompose" else "r.json")
        assert main([command, "--output", str(out)] + grid) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: grid")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("cutoff", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["decompose", "--grid-dt", "0.0625", "--grid-span", "4"],
        ["verify"],
        ["sample", "--function", "s_c", "--from", "-4", "--to", "4",
         "--step", "0.0625"]], ids=["decompose", "verify", "sample_s_c"])
    def test_bad_cutoff_is_usage_error(self, tmp_path, capsys, argv, cutoff):
        # a NaN cutoff used to disable the filter: exit 0 with unfiltered
        # output, or exit 1 from verify as if a check had failed
        out = tmp_path / "out"
        assert main(argv + ["--output", str(out), f"--cutoff={cutoff}"]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cutoff")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("name", ["phi_oracle", "psi_oracle"])
    def test_oracle_at_huge_t_exits_0(self, capsys, name):
        # |t| up to 1e9 takes the Filon rule, whose work does not grow
        # with t, so no node budget stops it
        assert main(["sample", "--function", name, "--from", "0",
                     "--to", "1e9", "--step", "1e6"]) == 0
        header, axis, values = export.parse_csv(capsys.readouterr().out)
        assert header == f"t,{name}"
        assert np.array_equal(axis, export.grid_points(0.0, 1e9, 1e6))
        closed = getattr(closed_form, name[:-len("_oracle")])
        assert np.max(np.abs(values - closed(axis))) <= ORACLE_COMPARE_TOL

    @pytest.mark.parametrize("name", ["s_c", "s_s"])
    def test_subnormal_step_is_usage_error(self, capsys, name):
        # 1/(n*dt) overflows: the DFT bins would be infinite and NaN
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["sample", "--function", name, "--from", "0",
                         "--to", "1e-310", "--step", "1e-312"]) == 2
        assert not caught, [str(w.message) for w in caught]
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "not finite" in lines[0]

    def test_oracle_doubling_over_node_budget_exits_3(self, capsys,
                                                      monkeypatch):
        monkeypatch.setattr(quadrature, "NODE_BUDGET", 48)
        assert main(["sample", "--function", "phi_oracle", "--from", "0",
                     "--to", "3", "--step", "3"]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["sample", "--function", "phi", "--from", "0", "--to", "1",
         "--step", "0.5", "--output"],
        ["verify", "--output"],
        ["decompose", "--grid-dt", "0.0625", "--grid-span", "4",
         "--output"]], ids=["sample", "verify", "decompose"])
    def test_unwritable_output_is_usage_error(self, tmp_path, capsys, argv):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(argv + [str(blocker / "out")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_decompose_writes_files(self, tmp_path):
        code = main(["decompose", "--output", str(tmp_path),
                     "--grid-dt", "0.03125", "--grid-span", "8"])
        assert code == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"meyer_s_c.csv", "meyer_s_s.csv",
                         "meyer_reconstruction.csv",
                         "meyer_reconstruction_error.csv"}
        _, _, err = export.parse_csv(
            (tmp_path / "meyer_reconstruction_error.csv").read_text())
        n = len(err)
        margin = n // 10
        assert np.max(np.abs(err[margin:n - margin])) <= 1e-3
