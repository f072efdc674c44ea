"""Smoke runs of the scripts in tools/, each in a fresh interpreter.

Every byte-identity claim rests on output_digests.py and every step-time
claim on step_times.py; these runs check that both still run and print
what their readers parse. Digest values are not pinned: they depend on
the numpy and BLAS builds.
"""

import re
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def run(script, *args):
    return subprocess.run([sys.executable, str(TOOLS / script), *args],
                          capture_output=True, text=True, timeout=600)


def test_output_digests_prints_one_digest_per_named_output():
    done = run("output_digests.py")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines and all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    names = [line.split("  ", 1)[1] for line in lines]
    assert len(set(names)) == len(names)


def test_step_times_prints_a_row_per_case():
    done = run("step_times.py", "--rounds", "1", "--steps", "4")
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines() if line.startswith("this ")]
    assert [row[1] for row in rows] == ["dsm", "iw_dsm", "tiw_dsm", "disc", "heun_256",
                                        "heun_2000", "ed_4000"]
    assert all(float(value) > 0 for row in rows for value in row[2:])


def test_step_times_refuses_fewer_than_two_sampler_steps():
    # a Heun run takes --steps // 2 steps, and the sampler needs at least 2
    done = run("step_times.py", "--rounds", "1", "--steps", "2")
    assert done.returncode == 2
    assert "--steps an even number >= 4" in done.stderr
    assert "Traceback" not in done.stderr
