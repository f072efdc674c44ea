"""The traced benchmark's probes install on this tree and come out cleanly.

The probes wrap tiwlab attributes by name, so a renamed or removed
function fails here, in the tier-1 suite, and not only in a traced
benchmark run.
"""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "tiwbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_tiwbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probes_install_and_restore_every_patched_attribute():
    probes, tracer = _load("probes"), _load("tracer")
    tr = tracer.Tracer()
    try:
        probes.install(tr)
        patched = list(tr._patched)
    finally:
        tr.restore()
    assert patched
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, f"{owner!r}.{attr} left wrapped"
        assert not hasattr(original, "__wrapped__"), f"{owner!r}.{attr} restored to a wrapper"
