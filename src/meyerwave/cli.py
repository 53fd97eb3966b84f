"""Command-line front end: sample/export waveforms, verify, decompose.

Exit codes: 0 success (and verification pass), 1 verification failure,
2 usage error (including an unknown option, an output that cannot be
written and a step too small for the DFT bins to be finite).  There is no
--cutoff or --tolerance-scale: the decomposition's low-pass cutoff is
fixed and every verify tolerance is nominal.  The oracles do fixed work
per point, so an oracle point at any |t| up to ~2e307 is sampled.
"""

import argparse
import os
import sys

import numpy as np

from . import closed_form, export, signals, verify
from .verify import DEFAULT_GRID_DT, DEFAULT_GRID_SPAN

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="meyerwave",
        description="Meyer wavelet closed forms: sampling, verification, "
                    "quadrature decomposition")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="export one waveform or spectrum")
    p_sample.add_argument("--function", required=True, choices=export.FUNCTIONS)
    p_sample.add_argument("--from", dest="t_start", type=float, required=True)
    p_sample.add_argument("--to", dest="t_end", type=float, required=True)
    p_sample.add_argument("--step", type=float, required=True)
    p_sample.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sample.add_argument("--output", default=None,
                          help="output path (default stdout)")

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--grid-dt", type=float, default=DEFAULT_GRID_DT)
    p_verify.add_argument("--grid-span", type=float, default=DEFAULT_GRID_SPAN)
    p_verify.add_argument("--output", default=None,
                          help="write the JSON report here")

    p_dec = sub.add_parser("decompose",
                           help="export in-phase/quadrature components and "
                                "the reconstruction error")
    p_dec.add_argument("--output", default=".",
                       help="output directory for the exported files")
    p_dec.add_argument("--format", choices=("csv", "json"), default="csv")
    p_dec.add_argument("--grid-dt", type=float, default=DEFAULT_GRID_DT)
    p_dec.add_argument("--grid-span", type=float, default=DEFAULT_GRID_SPAN)
    return parser


def _write_series(path, fmt, name, label, axis, values):
    writer = export.write_csv if fmt == "csv" else export.write_json
    if path is None:
        writer(sys.stdout, name, label, axis, values)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            writer(fh, name, label, axis, values)


def _cmd_sample(args):
    req = export.ExportRequest(args.function, args.t_start, args.t_end,
                               args.step)
    label, axis, values = export.evaluate_series(req)
    _write_series(args.output, args.format, args.function, label, axis, values)
    return EXIT_OK


def _cmd_verify(args):
    report = verify.run_verification(grid_dt=args.grid_dt,
                                     grid_span=args.grid_span)
    print(report.render_table())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    return EXIT_OK if report.overall_pass else EXIT_VERIFY_FAILED


def _cmd_decompose(args):
    n = signals.symmetric_grid(args.grid_span, args.grid_dt)
    sig = signals.sample(closed_form.psi, -args.grid_span, args.grid_dt, n)
    s_c, s_s = signals.decompose_quadrature(sig)
    rebuilt = signals.reconstruct_quadrature(s_c, s_s)
    error = rebuilt.samples - sig.samples
    t = sig.times

    os.makedirs(args.output, exist_ok=True)
    series = [("s_c", s_c.samples), ("s_s", s_s.samples),
              ("reconstruction", rebuilt.samples),
              ("reconstruction_error", error)]
    for name, values in series:
        path = os.path.join(args.output, f"meyer_{name}.{args.format}")
        _write_series(path, args.format, name, "t", t, values)
    interior = signals.interior_slice(n)
    print(f"wrote {len(series)} files to {args.output}; interior max "
          f"reconstruction error {float(np.max(np.abs(error[interior]))):.3e}")
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"sample": _cmd_sample, "verify": _cmd_verify,
                "decompose": _cmd_decompose}
    try:
        return handlers[args.command](args)
    # every library usage error subclasses ValueError; an OSError is an
    # output path that cannot be written
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
