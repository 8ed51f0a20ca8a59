"""The experiment scripts run end to end and print the sweep's split."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)


# every anchor but the inconsistent theory is under-determined, with the
# first pair of rank functions in enumeration order that shares its row
SCAN_OUTPUT = """\
bot                       row determines iterated revision
!p & !q                   under-determined: ranks (0, 0, 0, 0) vs (0, 1, 1, 1) agree on the row, diverge after psi=false, phi=(!p & !q) | (!p & q)
!p & q                    under-determined: ranks (0, 0, 0, 0) vs (0, 1, 0, 0) agree on the row, diverge after psi=false, phi=(!p & !q) | (!p & q)
(!p & !q) | (!p & q)      under-determined: ranks (0, 0, 0, 0) vs (0, 0, 1, 1) agree on the row, diverge after psi=false, phi=(!p & !q) | (p & !q)
p & !q                    under-determined: ranks (0, 0, 0, 0) vs (0, 0, 1, 0) agree on the row, diverge after psi=false, phi=(!p & !q) | (p & !q)
(!p & !q) | (p & !q)      under-determined: ranks (0, 0, 0, 0) vs (0, 0, 1, 0) agree on the row, diverge after psi=false, phi=(!p & !q) | (p & !q)
(!p & q) | (p & !q)       under-determined: ranks (0, 0, 0, 0) vs (0, 0, 1, 0) agree on the row, diverge after psi=false, phi=(!p & !q) | (p & !q)
(!p & !q) | (!p & q) | (p & !q) under-determined: ranks (0, 0, 0, 0) vs (0, 0, 0, 1) agree on the row, diverge after psi=false, phi=(!p & !q) | (p & q)
p & q                     under-determined: ranks (0, 0, 0, 0) vs (0, 0, 0, 1) agree on the row, diverge after psi=false, phi=(!p & !q) | (p & q)
(!p & !q) | (p & q)       under-determined: ranks (0, 0, 0, 0) vs (0, 0, 0, 1) agree on the row, diverge after psi=false, phi=(!p & !q) | (p & q)
(!p & q) | (p & q)        under-determined: ranks (0, 0, 0, 0) vs (0, 0, 0, 1) agree on the row, diverge after psi=false, phi=(!p & !q) | (p & q)
(!p & !q) | (!p & q) | (p & q) under-determined: ranks (0, 0, 0, 0) vs (0, 0, 0, 1) agree on the row, diverge after psi=false, phi=(!p & !q) | (p & q)
(p & !q) | (p & q)        under-determined: ranks (0, 0, 0, 0) vs (0, 0, 0, 1) agree on the row, diverge after psi=false, phi=(!p & !q) | (p & q)
(!p & !q) | (p & !q) | (p & q) under-determined: ranks (0, 0, 0, 0) vs (0, 0, 0, 1) agree on the row, diverge after psi=false, phi=(!p & !q) | (p & q)
(!p & q) | (p & !q) | (p & q) under-determined: ranks (0, 0, 0, 0) vs (0, 0, 0, 1) agree on the row, diverge after psi=false, phi=(!p & !q) | (p & q)
true                      under-determined: ranks (0, 0, 0, 0) vs (0, 0, 0, 1) agree on the row, diverge after psi=false, phi=(!p & !q) | (p & q)
"""


@pytest.mark.parametrize("name", ["sample_iterated_laws.py", "scan_underdetermination.py"])
def test_script_exits_zero(name):
    done = run_script(name)
    assert done.returncode == 0, done.stderr
    assert done.stdout
    if name == "sample_iterated_laws.py":
        # its clauses hold on every ranked revision, so the summary line,
        # minus the elapsed time, is fixed; the drawn bindings are pinned
        # by the sampled-mode tests in test_postulates.py
        assert [line.rsplit(" (", 1)[0] for line in done.stdout.splitlines()] == [
            "500 rank functions, 120 samples per clause, base seed 20260810: 0 failures",
        ]
    else:
        assert done.stdout == SCAN_OUTPUT


def test_sampled_laws_at_four_atoms():
    done = run_script("sample_iterated_laws.py", "--atoms", "p,q,r,s", "--functions", "16")
    assert done.returncode == 0, done.stderr
    assert [line.rsplit(" (", 1)[0] for line in done.stdout.splitlines()] == [
        "16 rank functions, 120 samples per clause, base seed 20260810: 0 failures",
    ]


def test_sampled_laws_at_five_atoms():
    # severe cells come from the level masks, so no table over 2**32
    # formula classes stops the run
    done = run_script("sample_iterated_laws.py", "--atoms", "p,q,r,s,t", "--functions", "16")
    assert done.returncode == 0, done.stderr
    assert [line.rsplit(" (", 1)[0] for line in done.stdout.splitlines()] == [
        "16 rank functions, 120 samples per clause, base seed 20260810: 0 failures",
    ]


def test_sweep_reports_the_three_failing_clauses():
    done = run_script("sweep_postulates.py")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("75 rank functions over atoms p,q")
    failing = {line.split()[0] for line in lines[1:] if "75/75 violations" in line}
    assert failing == {"U8", "U8_1", "C2"}
    assert sum("0/75 violations  holds everywhere" in line for line in lines) == 22
    assert "checked on 8 orbit representatives" in lines[0]


def test_sweep_at_one_atom():
    done = run_script("sweep_postulates.py", "--atoms", "p")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("3 rank functions over atoms p, checked on 2 orbit representatives")
    assert {line.split()[0] for line in lines[1:] if "3/3 violations" in line} == {
        "U8", "U8_1", "C2"}
    assert sum("0/3 violations  holds everywhere" in line for line in lines) == 22


@pytest.mark.parametrize("name, args, message", [
    ("sweep_postulates.py", ("--atoms", "p,q,r,s"), "at most 3 atoms"),
    ("sweep_postulates.py", ("--atoms", "p,p"), "duplicate atom names"),
    ("sample_iterated_laws.py", ("--samples", "0"), "at least one sample"),
    ("sample_iterated_laws.py", ("--functions", "0"), "--functions must be at least 1"),
])
def test_typed_errors_exit_two(name, args, message):
    # exit 1 means a clause was violated; a run that cannot start exits 2
    done = run_script(name, *args)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert "error: " in done.stderr and message in done.stderr
    assert "failures" not in done.stdout



@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("name, args", [
    ("sweep_postulates.py", ()),
    ("scan_underdetermination.py", ()),
    ("sample_iterated_laws.py", ("--functions", "1")),
])
def test_closed_pipe_exits_141_quietly(name, args, unbuffered):
    # exit 1 means a clause was violated. The reader closes the pipe before
    # the script writes: each script's output fits a pipe's buffer, so a
    # reader that read a line first could close after the last write.
    # Buffered, the first write is the flush at the end of the run.
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED=unbuffered)
    try:
        done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                              stdout=write, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, "")
