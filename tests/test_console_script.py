"""The `meyerwave` command across the process boundary.

Each row of CASES is one command line, the exit code it must end with and
what it must leave behind.  The runner starts each in a fresh directory as
`python -m meyerwave.cli`, which calls `cli.entry_point` as the installed
console script does, with the directory holding the package these tests
import first on the child's PYTHONPATH.  The other test modules compare
values; these rows check only what a command alone can show: its exit
code, the files it writes and their line counts, its stderr and its peak
memory.
"""

import os
import signal
import subprocess
import sys
from typing import NamedTuple, Optional

import pytest

import meyerwave

PACKAGE_ROOT = os.path.dirname(os.path.dirname(
    os.path.abspath(meyerwave.__file__)))
# a command still running after this long is killed, and its row fails
TIMEOUT_S = 300.0
# a file larger than this is removed once counted: pytest keeps the last
# three sessions' tmp_path, and the 9,999,001-row psi CSV is ~400 MB
KEEP_BYTES = 1 << 20
# Linux counts in a process's ru_maxrss the address space that its exec
# replaced, which for a child of this pytest process is pytest's own (73 MiB
# in a whole tier-1 run).  So a bare interpreter of about 10 MiB starts the
# command, takes the command's own rusage from os.wait4 (RUSAGE_CHILDREN
# would give the largest peak of every child waited for) and writes its exit
# code, ru_maxrss (KiB on Linux) and wall seconds to the descriptor given.
SPAWN = """\
import os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ)
_, status, usage = os.wait4(pid, 0)
report = (os.waitstatus_to_exitcode(status), usage.ru_maxrss,
          time.perf_counter() - start)
os.write(int(sys.argv[1]), " ".join(map(repr, report)).encode())
"""


class Case(NamedTuple):
    argv: str                   # split on whitespace
    code: int
    # every entry the command leaves, with the line count of a file or the
    # number of entries of a directory; a row with none writes nothing
    made: dict
    stderr_lines: int
    # the child's peak RSS, where memory must not grow with the grid
    max_rss_mib: Optional[float] = None


def decomposed(directory):
    # four CSVs, each a header and the 2,049 rows of the signal grid
    names = ("s_c", "s_s", "reconstruction", "reconstruction_error")
    return {directory: 4,
            **{f"{directory}/meyer_{name}.csv": 2050 for name in names}}


# an unknown option is argparse's two stderr lines, usage and error; a grid
# that signals.InvalidGrid or export.ExportRequest rejects is one
CASES = [
    # the four documented deviations fail: exit 1, a report of 28 checks,
    # six lines each
    Case("verify --output r.json", 1, {"r.json": 175}, 0),
    # the signal grid is fixed, so --grid-dt is a removed option
    Case("verify --grid-dt 0.5 --output c.json", 2, {}, 2),
    # the low-pass cutoff is fixed and every tolerance nominal
    Case("verify --tolerance-scale 1e4 --output s.json", 2, {}, 2),
    # decompose takes only --output
    Case("decompose --grid-span 4 --output dec2", 2, {}, 2),
    # after a removed option, -h is its value, not a request for help
    Case("verify --grid-dt -h", 2, {}, 2),
    # a step of 3/8 or more cannot represent the 8pi/3 band edge
    Case("sample --function envelope --from 0 --to 1 --step 0.5 "
         "--output e.csv", 2, {}, 1),
    # a range whose last grid point overflows is rejected before any grid
    # is built
    Case("sample --function psi --from 1.7876931348623208e+308 "
         "--to 1.7976931348623157e308 --step 1e306 --output ovf.csv",
         2, {}, 1),
    # a step below the spacing of doubles at 1e16 (2) would repeat
    # abscissas
    Case("sample --function phi --from 1e16 --to 1.000000000000001e16 "
         "--step 1 --output rep.csv", 2, {}, 1),
    Case("decompose --output dec", 0, decomposed("dec"), 0),
    # an abbreviation of any command's option takes a value that starts
    # with "-"
    Case("decompose --o -dec", 0, decomposed("-dec"), 0),
    Case("sample --function phi_oracle --from -30 --to 30 --step 0.5 "
         "--output o.csv", 0, {"o.csv": 122}, 0),
    # a negative bound with an exponent is a value, not an option: a header
    # and 21 rows
    Case("sample --function phi --from -1e-9 --to 1e-9 --step 1e-10 "
         "--output neg.csv", 0, {"neg.csv": 22}, 0),
    # so is one after an abbreviation that names one option
    Case("sample --function phi --fro -1e-9 --t 1e-9 --st 1e-10 "
         "--output abbr.csv", 0, {"abbr.csv": 22}, 0),
    # and an output path that starts with "-": a header and 3 rows
    Case("sample --function phi --from 0 --to 1 --step 0.5 "
         "--output -dash.csv", 0, {"-dash.csv": 4}, 0),
    # a subnormal step leaves the low-pass DC alone: a header and 101 rows
    Case("sample --function s_c --from 0 --to 1e-310 --step 1e-312 "
         "--output sub.csv", 0, {"sub.csv": 102}, 0),
    # 2,049 = 3 * 683 points: the zero-padded convolution on a length numpy
    # would transform by Bluestein's algorithm
    Case("sample --function s_c --from -16 --to 16 --step 0.015625 "
         "--output sc.csv", 0, {"sc.csv": 2050}, 0),
    # 1,048,577 points, twice perfbench's longest grid, held whole:
    # 119.6 MiB (s_c) and 123.5 MiB (envelope) on a 2-vCPU VM with
    # numpy 2.4.6, since each transform allocates its workspace before its
    # other full-length arrays
    Case("sample --function s_c --from -8192 --to 8192 --step 0.015625 "
         "--output sc_long.csv", 0, {"sc_long.csv": 1_048_578}, 0, 140.0),
    Case("sample --function envelope --from -8192 --to 8192 "
         "--step 0.015625 --output env_long.csv",
         0, {"env_long.csv": 1_048_578}, 0, 140.0),
    # sample evaluates and writes a block of rows at a time, so a
    # 9,999,001-row psi CSV (about 190 MiB as whole arrays) runs in the
    # memory of a short one
    Case("sample --function psi --from -4999.5 --to 4999.5 --step 1e-3 "
         "--output big.csv", 0, {"big.csv": 9_999_002}, 0, 100.0),
]


def run(argv, cwd):
    """Exit code, stdout, stderr, wall seconds and peak RSS in MiB of the
    command in cwd."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "meyerwave.cli", *argv]
    report, writer = os.pipe()
    with open(report, "rb") as fh, subprocess.Popen(
            [sys.executable, "-c", SPAWN, str(writer), *command], cwd=cwd,
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            pass_fds=[writer], start_new_session=True) as spawner:
        os.close(writer)
        try:
            out, err = spawner.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(spawner.pid, signal.SIGKILL)  # the command too
            raise
        code, kib, seconds = fh.read().split()
    return int(code), out, err, float(seconds), int(kib) / 1024


def count(path):
    """A directory's number of entries or a file's number of lines; a file
    larger than KEEP_BYTES is removed once counted."""
    if path.is_dir():
        return len(os.listdir(path))
    with open(path, "rb") as fh:
        lines = sum(chunk.count(b"\n")
                    for chunk in iter(lambda: fh.read(1 << 20), b""))
    if path.stat().st_size > KEEP_BYTES:
        path.unlink()
    return lines


@pytest.mark.parametrize("case", CASES, ids=[case.argv for case in CASES])
def test_console_script(case, tmp_path, record_property):
    code, out, err, seconds, peak_mib = run(case.argv.split(), tmp_path)
    record_property("exit_code", code)
    record_property("wall_s", round(seconds, 3))
    record_property("peak_rss_mib", round(peak_mib, 1))
    shown = (out + err).decode(errors="replace")
    assert code == case.code, shown
    assert err.count(b"\n") == case.stderr_lines, shown
    assert (sorted(os.listdir(tmp_path))
            == sorted({name.split("/")[0] for name in case.made}))
    assert {name: count(tmp_path / name) for name in case.made} == case.made
    if case.max_rss_mib is not None:
        assert peak_mib <= case.max_rss_mib
