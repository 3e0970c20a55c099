"""The benchmark's contract with the package.

``bench/spans.py`` traces package functions by name and ``bench/run.py``
counts a run's failed checks into ``pass_rate``, so a package change that
drops a traced name or breaks a workload check would only show when the
benchmark runs.  These tests run the benchmark's own modules, unchanged.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from cliffordt.arith import ArithInstance

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")


def _package_attributes():
    """Every attribute of every loaded cliffordt module, and of
    ``ArithInstance``, keyed by owner and name."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "cliffordt" or name.startswith("cliffordt."):
            out.update(((name, attr), value) for attr, value in vars(mod).items())
    out.update((("ArithInstance", attr), value)
               for attr, value in vars(ArithInstance).items())
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_passes_every_check_and_untraces_cleanly(name):
    before = _package_attributes()
    tracer = spans.Tracer()
    try:
        tracer.install()  # AttributeError on a traced name that is gone
        for mod, attr in spans.TARGETS:
            assert (getattr(sys.modules[f"cliffordt.{mod}"], attr)
                    is not before[f"cliffordt.{mod}", attr]), (mod, attr)
        out = workloads.WORKLOADS[name](1).run_pass(
            lambda label, fn, *args: fn(*args), True)
    finally:
        tracer.uninstall()
    after = _package_attributes()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    assert len(tracer.name) > 0  # the pass ran through the wrappers
    assert [check for check, ok in out["checks"] if not ok] == []
