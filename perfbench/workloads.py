"""The benchmark's workloads: a fixed request list per seed, each request
with a correctness check and the corruptions that check must catch.

A request has five steps.  In the worker process, ``run`` is the timed
call into meyerwave and ``save`` turns what it returned into an outcome
that can be sent as JSON.  In the checking process, ``load`` turns the
outcome into a result (reading the files the request wrote); ``check``
returns None for a correct result and a reason otherwise; ``corruptions``
yields damaged copies of a correct result, each of which ``check`` must
reject.  Only ``run`` is timed.
"""

import contextlib
import io
import json
import os
import random

import numpy as np

from meyerwave import cli, closed_form, export, signals, spectral, verify

VERIFY_CHECKS = 28
VERIFY_KNOWN_FAILING = frozenset({
    "psi_zero_mean", "scale_identity_closure", "envelope_dominance",
    "decay_slope_offset_from_minus_3"})

DECOMPOSE_DT = 1.0 / 64.0
DECOMPOSE_SPANS = (16, 128, 1024, 4096)
RECONSTRUCTION_TOL = 1e-3


def _call_cli(argv):
    """cli.main with its console output captured; returns (code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:      # argparse usage errors
            code = exc.code
    return code, err.getvalue()


class CliRequest:
    """A request whose outcome is the exit code and the error output."""

    def save(self, outcome):
        return outcome


class VerifyRequest(CliRequest):
    """``meyerwave verify --output PATH`` at the default grid."""

    def __init__(self, workdir):
        self.name = "verify"
        self.path = os.path.join(workdir, "report.json")

    def run(self):
        return _call_cli(["verify", "--output", self.path])

    def load(self, outcome):
        code = outcome[0]
        with open(self.path, encoding="utf-8") as fh:
            return code, json.load(fh)

    def check(self, result):
        code, report = result
        if code != cli.EXIT_VERIFY_FAILED:
            return f"exit code {code}, expected {cli.EXIT_VERIFY_FAILED}"
        checks = report["checks"]
        names = [c["name"] for c in checks]
        if len(set(names)) != VERIFY_CHECKS or len(names) != VERIFY_CHECKS:
            return f"{len(names)} checks, expected {VERIFY_CHECKS} distinct"
        for c in checks:
            if c["passed"] != (c["value"] <= c["tolerance"]):
                return f"check {c['name']} verdict disagrees with its value"
        failing = {c["name"] for c in checks if not c["passed"]}
        if failing != VERIFY_KNOWN_FAILING:
            return f"failing checks {sorted(failing)}"
        if report["overall_pass"]:
            return "overall_pass is true"
        return None

    def corruptions(self, result):
        code, report = result
        fifth = json.loads(json.dumps(report))
        victim = next(c for c in fifth["checks"] if c["passed"])
        victim["passed"] = False
        victim["value"] = 2.0 * victim["tolerance"] + 1.0
        yield "fifth failing check", (code, fifth)
        yield "exit code 0", (cli.EXIT_OK, report)
        short = dict(report, checks=report["checks"][:-1])
        yield "missing check", (code, short)


class SampleRequest(CliRequest):
    """``meyerwave sample`` of one function over one grid into a file."""

    def __init__(self, workdir, function, start, step, count, fmt):
        self.name = f"sample_{function}_{fmt}"
        self.function, self.fmt = function, fmt
        self.start, self.step = start, step
        self.stop = start + step * (count - 1)
        self.path = os.path.join(workdir, f"{function}.{fmt}")

    def run(self):
        return _call_cli(["sample", "--function", self.function,
                          "--from", repr(self.start), "--to", repr(self.stop),
                          "--step", repr(self.step), "--format", self.fmt,
                          "--output", self.path])

    def load(self, outcome):
        code = outcome[0]
        if code != cli.EXIT_OK:
            return code, None, None
        if self.fmt == "csv":
            with open(self.path, encoding="utf-8") as fh:
                header = fh.readline().rstrip("\n")
                table = np.loadtxt(fh, delimiter=",", ndmin=2)
            return code, header, (table[:, 0], table[:, 1])
        with open(self.path, encoding="utf-8") as fh:
            payload = json.load(fh)
        header = f"{payload['grid']['axis']},{payload['function']}"
        return code, header, (np.array(payload["t"]),
                              np.array(payload["value"]))

    def _reference(self, axis):
        """Expected values on axis and the allowed deviation from them."""
        name = self.function
        if name.endswith("_oracle"):
            fn = getattr(closed_form, name[:-len("_oracle")])
            return fn(axis), verify.ORACLE_COMPARE_TOL
        if name == "psi_spectrum_magnitude":
            return spectral.wavelet_spectrum_magnitude(axis), 0.0
        return getattr(closed_form, name)(axis), 0.0

    def check(self, result):
        code, header, series = result
        if code != cli.EXIT_OK:
            return f"exit code {code}, expected {cli.EXIT_OK}"
        label = "w" if self.function in export.SPECTRUM_FUNCTIONS else "t"
        if header != f"{label},{self.function}":
            return f"header {header!r}"
        axis, values = series
        grid = export.grid_points(self.start, self.stop, self.step)
        if axis.size != grid.size or values.size != grid.size:
            return f"{axis.size} rows, expected {grid.size}"
        if not np.array_equal(axis, grid):
            return "abscissas differ from the requested grid"
        expected, tol = self._reference(grid)
        dev = np.abs(values - expected)
        if not np.all(dev <= tol):    # also catches NaN
            return (f"value off by {float(np.nanmax(dev)):.3e} "
                    f"(allowed {tol:g})")
        return None

    def corruptions(self, result):
        code, header, (axis, values) = result
        off = values.copy()
        off[off.size // 2] += 1e-6
        yield "one value off by 1e-6", (code, header, (axis, off))
        yield "missing row", (code, header, (axis[:-1], values[:-1]))


class DecomposeRequest:
    """sample(psi) -> decompose -> reconstruct -> scale_from_wavelet ->
    envelope on one CLI-shaped odd grid."""

    def __init__(self, workdir, span, t0):
        self.name = f"decompose_{span}"
        self.n = 2 * int(round(span / DECOMPOSE_DT)) + 1
        self.t0 = t0
        self.path = os.path.join(workdir, f"{self.name}.npz")

    def run(self):
        sig = signals.sample(closed_form.psi, self.t0, DECOMPOSE_DT, self.n)
        s_c, s_s = signals.decompose_quadrature(sig)
        rebuilt = signals.reconstruct_quadrature(s_c, s_s)
        scale = signals.scale_from_wavelet(sig)
        env = signals.envelope(sig)
        return sig.samples, rebuilt.samples, scale.samples, env.samples

    def save(self, outcome):
        np.savez(self.path, *outcome)
        return self.path

    def load(self, outcome):
        with np.load(outcome) as arrays:
            return tuple(arrays[f"arr_{i}"] for i in range(4))

    def check(self, result):
        original, rebuilt, scale, env = result
        for name, arr in (("reconstruction", rebuilt), ("scale", scale),
                          ("envelope", env)):
            if arr.shape != (self.n,):
                return f"{name} has shape {arr.shape}, expected ({self.n},)"
            if not np.all(np.isfinite(arr)):
                return f"{name} is not finite"
        inner = signals.interior_slice(self.n)
        err = float(np.max(np.abs(rebuilt - original)[inner]))
        if not err <= RECONSTRUCTION_TOL:
            return f"interior reconstruction error {err:.3e}"
        return None

    def corruptions(self, result):
        original, rebuilt, scale, env = result
        off = rebuilt.copy()
        off[self.n // 2] += 2.0 * RECONSTRUCTION_TOL
        yield "reconstruction off by 2e-3", (original, off, scale, env)
        yield "missing sample", (original, rebuilt, scale, env[:-1])


def verify_requests(seed, workdir):
    # verify has no inputs: the seed changes nothing.
    return [VerifyRequest(workdir)]


def export_requests(seed, workdir):
    rng = random.Random(seed)
    return [
        SampleRequest(workdir, "psi", -50.0 + rng.random(), 1.0 / 8000.0,
                      800_001, "csv"),
        SampleRequest(workdir, "phi", -37.5 + rng.random(), 1.0 / 4000.0,
                      300_001, "json"),
        SampleRequest(workdir, "psi_spectrum_magnitude", 0.01 * rng.random(),
                      2e-5, 450_001, "csv"),
        SampleRequest(workdir, "psi_oracle", 100.0 + 5.0 * rng.random(), 5.0,
                      200, "csv"),
        SampleRequest(workdir, "phi_oracle", -1100.0 + 5.0 * rng.random(),
                      5.0, 200, "csv"),
    ]


def decompose_requests(seed, workdir):
    rng = random.Random(seed)
    return [DecomposeRequest(workdir, span,
                             -span + rng.random() * DECOMPOSE_DT)
            for span in DECOMPOSE_SPANS]


WORKLOADS = {"verify": verify_requests, "export": export_requests,
             "decompose": decompose_requests}
