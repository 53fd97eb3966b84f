"""The `meyerwave` command across the process boundary.

Each row of CASES is one command line, the exit code it must end with and
what it must leave behind.  The runner starts each in a fresh directory as
`python -m meyerwave.cli`, which calls `cli.entry_point` as the installed
console script does, with the directory holding the package these tests
import first on the child's PYTHONPATH.  Only the rows that need a process
are here: one per exit path (1, 0, and 2 through argparse and through
signals.InvalidGrid), a grid with no in-process twin, and the long
samples, whose peak memory is the child's own.  Every other argv that
exits 2 is a row of test_export_cli.USAGE_ERRORS, run in this process
through `cli.entry_point`.
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


# an unknown option is argparse's two stderr lines, usage and error; a grid
# that signals.InvalidGrid or export.ExportRequest rejects is one
CASES = [
    # the four documented deviations fail: exit 1, a report of 28 checks,
    # six lines each
    Case("verify --output r.json", 1, {"r.json": 175}, 0),
    # after a removed option, -h is its value, not a request for help
    Case("verify --grid-dt -h", 2, {}, 2),
    # a step of 3/8 or more cannot represent the 8pi/3 band edge
    Case("sample --function envelope --from 0 --to 1 --step 0.5 "
         "--output e.csv", 2, {}, 1),
    # four CSVs, each a header and the 2,049 rows of the signal grid
    Case("decompose --output dec", 0, {"dec": 4, **{
        f"dec/meyer_{name}.csv": 2050 for name in (
            "s_c", "s_s", "reconstruction", "reconstruction_error")}}, 0),
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
