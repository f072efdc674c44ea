import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, Checks, derive_seeds, run_cli

ROOT = Path(__file__).resolve().parents[2]


def _config_text(tmp_path, name, seed):
    wl = WORKLOADS[name](ROOT, tmp_path / f"{name}-{seed}", seed)
    wl.work.mkdir(parents=True)
    wl.write_config(wl.config_path, "out")
    return wl.config_path.read_text()


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    assert derive_seeds(7) == derive_seeds(7)
    assert len(set(derive_seeds(7).values())) == 5
    for name in WORKLOADS:
        a = _config_text(tmp_path / "a", name, 7)
        assert a == _config_text(tmp_path / "b", name, 7)
        assert a != _config_text(tmp_path / "c", name, 8)
    assert derive_seeds(7) != derive_seeds(8)


def test_refuses_to_run_without_tiwlab_sources(tmp_path):
    bench = tmp_path / "tiwbench"
    bench.mkdir()
    for p in (ROOT / "tiwbench").glob("*.py"):
        (bench / p.name).write_text(p.read_text())
    done = subprocess.run([sys.executable, "tiwbench/run.py", "--workload", "sample-eval",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


def test_a_command_that_exits_counts_as_one_failed_operation():
    checks = Checks()
    assert not run_cli(checks, ["no-such-command"])
    assert checks.attempted == 1 and len(checks.failures) == 1
