"""meyerwave benchmark: one workload per process, closed loop, one client.

Run from the root of a meyerwave checkout:

    python3 perfbench/run.py --workload {verify,export,decompose} \
        --seed N --seconds S --trace {0,1}

The library is imported from ``src/`` of the checkout.  The run measures
set-up time (fresh interpreters importing meyerwave), then starts a
worker process (worker.py) that runs the requests while this process
checks what they wrote.  The worker makes one untimed warm-up pass over
the workload's request list, whose results also show that every check
rejects corrupted copies of them.  With --trace 0 it then makes timed
passes for S seconds, and at least three, and the metrics are the
end-to-end ones.  With --trace 1 the first half of the time makes
untraced passes and the second half traced ones (at least two, so exact
counts can be compared), and the metrics are per layer.  Every request
of every pass is checked; a request that raises, exits with an
unexpected code or fails its check is a failed request.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}};
the line before it is the full report, with the environment, every metric
and its sample count.  Reports and spans are also written to .bench_out/.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

SETUP_STARTS = 9
# Passes vary by about 10% within a run on a shared host; the median of
# three is the fewest that a single slow pass does not move.
MIN_PASSES = 3
OUT_DIR = ".bench_out"

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MiB"}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    for suffix, unit in (("us_per_point", "us"), ("us_per_call", "us"),
                         ("ns_per_point", "ns"), ("ns_per_row", "ns"),
                         ("ns_per_sample", "ns"), ("bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify", "export", "decompose"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(root, src):
    """Wall seconds from starting a fresh interpreter to meyerwave imported.

    One untimed start first, so compiled bytecode exists as it would for
    any user after their first run.
    """
    env = dict(os.environ, PYTHONPATH=src, PYTHONSAFEPATH="1")
    argv = [sys.executable, "-c", "import meyerwave"]
    times = []
    for k in range(SETUP_STARTS + 1):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=root, env=env, check=True,
                       stdin=subprocess.DEVNULL)
        if k:
            times.append(time.perf_counter() - t0)
    return times


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def environment(args):
    env = {"python": platform.python_version(),
           "numpy": sys.modules["numpy"].__version__,
           "nproc": os.cpu_count(), "cpu": None, "l2": None, "l3": None,
           "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace}
    try:
        env["cpu"] = next((ln.split(":", 1)[1].strip()
                           for ln in _read("/proc/cpuinfo").splitlines()
                           if ln.startswith("model name")), None)
        cache = "/sys/devices/system/cpu/cpu0/cache"
        for index in os.listdir(cache):
            if index.startswith("index"):
                level = _read(f"{cache}/{index}/level").strip()
                if level in ("2", "3"):
                    env["l" + level] = _read(f"{cache}/{index}/size").strip()
    except OSError:
        pass
    return env


class Runner:
    """Drives the worker, checks every outcome it reports, keeps score."""

    def __init__(self, worker, requests):
        self.worker = worker
        self.requests = requests
        self.attempted = 0
        self.failures = []
        self.uncaught = []     # corruptions a check accepted
        self.request_times = {r.name: [] for r in requests}

    def send(self, command):
        self.worker.stdin.write(command + "\n")
        self.worker.stdin.flush()
        line = self.worker.stdout.readline()
        if not line:
            raise RuntimeError(f"worker ended with code {self.worker.wait()}")
        return json.loads(line)

    def one_pass(self, command, label, warmup=False):
        """Run every request once; return the pass's timed seconds.

        The warm-up pass also runs the self-test of every check.
        """
        reply = self.send(f"{command} {label}")
        for req, seconds, outcome in zip(self.requests, reply["seconds"],
                                         reply["outcomes"]):
            self.attempted += 1
            if not warmup:
                self.request_times[req.name].append(seconds)
            if isinstance(outcome, dict):
                problem = f"raised {outcome['raised']}"
            else:
                try:
                    result = req.load(outcome)
                    problem = req.check(result)
                    if problem is None and warmup:
                        self.self_test(req, result)
                except Exception as exc:   # unreadable output fails it
                    problem = f"check raised {exc!r}"
            if problem is not None:
                self.failures.append(f"{label} {req.name}: {problem}")
        return sum(reply["seconds"])

    def self_test(self, req, result):
        for what, damaged in req.corruptions(result):
            try:
                caught = req.check(damaged) is not None
            except Exception:
                caught = True
            if not caught:
                self.uncaught.append(f"{req.name}: check accepted {what}")

    def timed_passes(self, command, seconds, minimum):
        times = []
        t_end = time.perf_counter() + seconds
        while len(times) < minimum or time.perf_counter() < t_end:
            times.append(self.one_pass(command, f"{command}{len(times)}"))
        return times


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "meyerwave", "__init__.py")):
        print(f"error: no meyerwave sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    setup = measure_setup(root, src)

    import meyerwave
    if os.path.dirname(os.path.abspath(meyerwave.__file__)) \
            != os.path.join(src, "meyerwave"):
        print(f"error: imported meyerwave from {meyerwave.__file__}",
              file=sys.stderr)
        return 2
    import workloads

    here = os.path.dirname(os.path.abspath(__file__))
    out_dir = os.path.join(root, OUT_DIR)
    workdir = os.path.join(out_dir, f"{args.workload}-{os.getpid()}")
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    os.makedirs(workdir, exist_ok=True)
    requests = workloads.WORKLOADS[args.workload](args.seed, workdir)
    argv = [sys.executable, os.path.join(here, "worker.py"), args.workload,
            str(args.seed), workdir, stem + "-spans.csv"]
    try:
        with subprocess.Popen(argv, cwd=root, env=dict(os.environ,
                                                       PYTHONPATH=src),
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              text=True) as worker:
            try:
                runner = Runner(worker, requests)
                runner.one_pass("pass", "warmup", warmup=True)
                if args.trace:
                    plain = runner.timed_passes("pass", args.seconds / 2, 1)
                    traced = runner.timed_passes("trace", args.seconds / 2, 2)
                else:
                    plain = runner.timed_passes("pass", args.seconds,
                                        MIN_PASSES)
                done = runner.send("finish")
            finally:
                if worker.poll() is None:
                    worker.kill()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = done["layers"]
        metrics["trace.overhead_s"] = (statistics.median(traced)
                                       - statistics.median(plain))
        metrics["trace.count_mismatches"] = len(done["mismatched"])
        for name in done["mismatched"]:
            print(f"warning: {name} differs between traced passes",
                  file=sys.stderr)
        units = {k: layer_unit(k) for k in metrics}
        samples = {k: len(traced) for k in metrics}
        samples["trace.overhead_s"] = len(traced) + len(plain)
    else:
        metrics = {"setup_s": statistics.median(setup),
                   "pass_s": statistics.median(plain),
                   "peak_rss_mb": done["peak_rss_mib"]}
        units = dict(END_TO_END_UNITS)
        samples = {"setup_s": len(setup), "pass_s": len(plain),
                   "peak_rss_mb": 1}

    failed = len(runner.failures)
    report = {
        "environment": environment(args),
        "metrics": {k: {"value": v, "unit": units[k], "samples": samples[k]}
                    for k, v in metrics.items()},
        "error_rate": {"value": failed / runner.attempted, "unit": "ratio",
                       "samples": runner.attempted},
        "pass_s_each": plain,
        "request_median_s": {k: statistics.median(v)
                             for k, v in runner.request_times.items() if v},
        "failures": runner.failures,
        "self_test_uncaught": runner.uncaught,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    for problem in runner.failures:
        print(f"failed: {problem}", file=sys.stderr)
    for problem in runner.uncaught:
        print(f"self-test: {problem}", file=sys.stderr)

    correct = failed == 0 and not runner.uncaught
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
