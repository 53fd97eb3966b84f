"""Spans and work counts at meyerwave's layer boundaries, taken from outside.

Every public function of the layer modules is replaced, in every meyerwave
module that refers to it, by a wrapper that records one span per call:
name, start, end, parent span and request id.  Calls one module makes into
another (the oracle integrands' calls to ``spectral.scale_spectrum``, say)
go through the same wrappers, so they are spans too.  Spans stay in memory;
``write_spans`` writes them out at the end of the run.  Nothing inside the
library changes, and with tracing off no wrapper is installed.
"""

import importlib
import statistics
import sys
import types
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("spectral", "closed_form", "quadrature", "signals", "export",
          "verify", "cli")
ORACLES = ("quadrature.phi_oracle", "quadrature.psi_oracle")
WRITERS = ("export.write_csv", "export.write_json")
FFTS = ("signals.dft", "signals.idft")
SIGNAL_STAGES = ("decompose_quadrature", "reconstruct_quadrature",
                 "scale_from_wavelet", "envelope")

# Counts that must repeat exactly between passes of the same code.
EXACT_COUNTS = ("quadrature.oracle_points", "quadrature.nodes_evaluated",
                "spectral.calls", "signals.fft_points", "export.rows",
                "export.bytes")

# Span fields; a span is a list so the wrapper can fill in its end.
NAME, LAYER, START, END, PARENT, REQUEST, UNITS, EXTRA = range(8)


def _size(x):
    """Points in an argument: an array, a scalar or a sampled signal."""
    samples = getattr(x, "samples", None)
    if samples is None:
        samples = getattr(x, "coefficients", x)
    return int(np.size(samples))


def _tell(stream):
    try:
        return stream.tell()
    except (AttributeError, OSError, ValueError):
        return None


def _enter(name):
    """Work-count hook run as a call starts: (span, args) -> None."""
    layer, _, func = name.partition(".")
    if name in ORACLES:
        def point(span, args):
            span[UNITS] = 1
        return point
    if name in WRITERS:
        def rows(span, args):
            span[UNITS] = len(args[3])
            span[EXTRA] = _tell(args[0])
        return rows
    if name == "signals.sample":
        def grid(span, args):
            span[UNITS] = int(args[3])
        return grid
    if layer in ("spectral", "closed_form", "signals") \
            and func not in ("singular_points", "interior_slice"):
        def points(span, args):
            span[UNITS] = _size(args[0])
        return points
    return None


def _leave(name):
    """Hook run after a call returns: (span, args, result) -> None."""
    if name in WRITERS:
        def written(span, args, result):
            start, end = span[EXTRA], _tell(args[0])
            span[EXTRA] = end - start if None not in (start, end) else 0
        return written
    if name == "verify.run_verification":
        def report(span, args, result):
            span[UNITS] = len(result.checks)
            span[EXTRA] = sum(not c.passed for c in result.checks)
        return report
    return None


class Tracer:
    """Installs the wrappers and keeps the spans of every traced pass."""

    def __init__(self):
        self.passes = []       # one list of spans per traced pass
        self.spans = None
        self.stack = []
        self.request = ""
        self.enabled = False

    def install(self):
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"meyerwave.{layer}")
            # cli has no __all__; its public entry is main
            for attr in getattr(module, "__all__", ("main",)):
                fn = getattr(module, attr)
                if isinstance(fn, types.FunctionType):
                    name = f"{layer}.{attr}"
                    originals[id(fn)] = self._wrap(name, fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.partition(".")[0] != "meyerwave":
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def begin_pass(self):
        self.spans = []
        self.passes.append(self.spans)

    def call(self, name, request, fn):
        """Run fn as request `request` inside a root span `name`."""
        self.request = request
        return self._wrap(name, fn)()

    def _wrap(self, name, fn):
        layer = name.partition(".")[0]
        enter, leave = _enter(name), _leave(name)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            spans, stack = self.spans, self.stack
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1,
                    self.request, 0, 0]
            if enter:
                enter(span, args)
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[EXTRA] = 0    # a failed call counts no output
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if leave:
                leave(span, args, result)
            return result

        return traced


def pass_metrics(spans, pass_s):
    """Per-layer metrics of one traced pass from its spans."""
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    covered = [0.0] * n
    in_oracle = [False] * n
    outer = [True] * n
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            covered[p] += dur[i]
            in_oracle[i] = in_oracle[p] or spans[p][NAME] in ORACLES
            outer[i] = spans[p][LAYER] != s[LAYER]

    self_s = defaultdict(float)
    inclusive = defaultdict(float)   # time in a layer entered from outside
    calls = defaultdict(int)
    units = defaultdict(int)
    by_name = defaultdict(float)
    count = defaultdict(int)
    name_units = defaultdict(int)
    extra = defaultdict(int)
    nodes = 0
    for i, s in enumerate(spans):
        name, layer = s[NAME], s[LAYER]
        self_s[layer] += dur[i] - covered[i]
        by_name[name] += dur[i]
        count[name] += 1
        name_units[name] += s[UNITS]
        extra[name] += s[EXTRA]
        if outer[i]:
            inclusive[layer] += dur[i]
            calls[layer] += 1
            units[layer] += s[UNITS]
        if in_oracle[i] and name == "spectral.scale_spectrum":
            nodes += s[UNITS]

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    oracle_points = sum(count[o] for o in ORACLES)
    oracle_s = sum(by_name[o] for o in ORACLES)
    rows = sum(name_units[w] for w in WRITERS)
    write_s = sum(by_name[w] for w in WRITERS)
    m = {
        "quadrature.oracle_points": oracle_points,
        "quadrature.integrate_calls": count["quadrature.integrate"],
        "quadrature.nodes_evaluated": nodes,
        "quadrature.us_per_point": ratio(oracle_s, oracle_points, 1e6),
        "spectral.calls": calls["spectral"],
        "spectral.points": units["spectral"],
        "spectral.us_per_call": ratio(inclusive["spectral"],
                                      calls["spectral"], 1e6),
        "closed_form.calls": calls["closed_form"],
        "closed_form.points": units["closed_form"],
        "closed_form.ns_per_point": ratio(inclusive["closed_form"],
                                          units["closed_form"], 1e9),
        "export.rows": rows,
        "export.bytes": sum(extra[w] for w in WRITERS),
        "export.ns_per_row": ratio(write_s, rows, 1e9),
        "export.write_s": write_s,
        "export.evaluate_self_s": sum(
            dur[i] - covered[i] for i, s in enumerate(spans)
            if s[NAME] == "export.evaluate_series"),
        "signals.fft_calls": sum(count[f] for f in FFTS),
        "signals.fft_points": sum(name_units[f] for f in FFTS),
        "signals.ns_per_sample": ratio(inclusive["signals"],
                                       units["signals"], 1e9),
        "verify.checks": name_units["verify.run_verification"],
        "verify.checks_failed": extra["verify.run_verification"],
        "cli.requests": count["cli.main"],
    }
    for stage in SIGNAL_STAGES:
        m[f"signals.{stage}_s"] = by_name[f"signals.{stage}"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    m["trace.pass_s"] = pass_s
    m["trace.unaccounted_s"] = pass_s - sum(self_s[layer] for layer in LAYERS)
    return m


def summarize(tracer, pass_seconds):
    """Median of each per-layer metric over the traced passes.

    Returns (metrics, mismatched) where mismatched names the exact counts
    that differ between passes.
    """
    per_pass = [pass_metrics(spans, s)
                for spans, s in zip(tracer.passes, pass_seconds)]
    metrics = {k: statistics.median(p[k] for p in per_pass)
               for k in per_pass[0]}
    mismatched = [k for k in EXACT_COUNTS
                  if len({p[k] for p in per_pass}) > 1]
    return metrics, mismatched


def write_spans(tracer, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass,span,parent,request,name,start,end,units,extra\n")
        for k, spans in enumerate(tracer.passes):
            for i, s in enumerate(spans):
                fh.write(f"{k},{i},{s[PARENT]},{s[REQUEST]},{s[NAME]},"
                         f"{s[START]!r},{s[END]!r},{s[UNITS]},{s[EXTRA]}\n")
