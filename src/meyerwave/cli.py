"""Command-line front end: sample/export waveforms, verify, decompose.

Exit codes: 0 success (and verification pass), 1 verification failure,
2 usage error (an unknown option, a grid that signals.InvalidGrid
rejects, export.ExportRequest's included, or an output that cannot be
written), 3 internal error (any other exception, after its traceback).
verify and decompose take only --output: the signal grid
(verify.SIGNAL_DT/SPAN) and the low-pass cutoff are fixed, decompose
writes CSV and every verify tolerance is nominal.  The oracles do fixed
work per point, so an oracle point at any finite t is sampled.  Every
long option but --help takes a spaced value that starts with "-".
"""

import argparse
import os
import sys
import traceback

import numpy as np

from . import export, signals, verify

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL_ERROR = 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="meyerwave",
        description="Meyer wavelet closed forms: sampling, verification, "
                    "quadrature decomposition")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="export one waveform or spectrum")
    add = p_sample.add_argument
    add("--function", required=True, choices=export.FUNCTIONS)
    add("--from", dest="t_start", type=float, required=True)
    add("--to", dest="t_end", type=float, required=True)
    add("--step", type=float, required=True)
    add("--format", choices=("csv", "json"), default="csv")
    add("--output", default=None, help="output path (default stdout)")

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--output", default=None,
                          help="write the JSON report here")

    p_dec = sub.add_parser("decompose",
                           help="export in-phase/quadrature components and "
                                "the reconstruction error")
    p_dec.add_argument("--output", default=".",
                       help="output directory for the exported files")
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
    report = verify.run_verification()
    # the report first: an output that cannot be written prints no verdict
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    print(report.render_table())
    return EXIT_OK if report.overall_pass else EXIT_VERIFY_FAILED


def _cmd_decompose(args):
    sig = verify._sampled_psi()
    s_c, s_s = signals.decompose_quadrature(sig)
    rebuilt = signals.reconstruct_quadrature(s_c, s_s)
    error = rebuilt.samples - sig.samples
    t = sig.times

    os.makedirs(args.output, exist_ok=True)
    series = [("s_c", s_c.samples), ("s_s", s_s.samples),
              ("reconstruction", rebuilt.samples),
              ("reconstruction_error", error)]
    for name, values in series:
        path = os.path.join(args.output, f"meyer_{name}.csv")
        _write_series(path, "csv", name, "t", t, values)
    interior = signals.interior_slice(t.size)
    print(f"wrote {len(series)} files to {args.output}; interior max "
          f"reconstruction error {float(np.max(np.abs(error[interior]))):.3e}")
    return EXIT_OK


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a "-" token for a value only if it reads like -2 or
    # -.5, so one after a long option joins it with "=", and argparse
    # resolves the option and its abbreviations; --help and -- take none
    for i in reversed(range(1, len(argv))):
        prev = argv[i - 1]
        if (argv[i][:1] == "-" and argv[i][:2] != "--" and prev[:2] == "--"
                and "=" not in prev and not "--help".startswith(prev)):
            argv[i - 1:i + 1] = [prev + "=" + argv[i]]
    args = build_parser().parse_args(argv)
    handlers = {"sample": _cmd_sample, "verify": _cmd_verify,
                "decompose": _cmd_decompose}
    try:
        return handlers[args.command](args)
    # a rejected grid raises InvalidGrid, and an output path that cannot be
    # written an OSError; anything else is a bug, left to entry_point
    except (signals.InvalidGrid, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry_point():
    try:
        code = main()
    # a bug is neither a usage error nor a failed check; SystemExit and
    # KeyboardInterrupt are no Exception and pass through
    except Exception:
        traceback.print_exc()
        code = EXIT_INTERNAL_ERROR
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
