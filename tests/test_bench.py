"""The benchmark's contract with the package.

``bench/spans.py`` traces package functions by name, and ``bench/run.py``
counts a run's failed checks into ``pass_rate`` and sums the cost counts of
the workloads' circuits, so a package change that drops a traced name,
breaks a workload check or its command-line counterpart, or moves a cost
count would only show when the benchmark runs.  These tests run the
benchmark's own modules, unchanged: every check a run counts, and the five
cost counts of each workload at seed 1, pinned.
"""

import hashlib
import sys
import types
from pathlib import Path

import pytest

from cliffordt import circuit
from cliffordt.arith import ArithInstance

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    """``bench/<name>.py`` run as a module, with no bytecode cache written
    under ``bench/``."""
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_bytes(), path, "exec"), vars(module))
    return module


run = _load("run")
spans = _load("spans")
workloads = _load("workloads")

# The five cost counts of each workload at seed 1, as bench/run.py sums them
# over ``cost_reports``: t_count, t_depth, depth, qubit_cost and
# clifford_t_gates.  BENCHMARK.json lets none of them grow by more than
# 0.01%, so a change that moves one says so and updates it here.
PINNED_COSTS = {"verify": (5670, 2665, 4175, 155, 13972),
                "compile": (57771, 33201, 56720, 1671, 144188)}


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


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_run_passes_every_check_it_counts_at_the_pinned_costs(
        name, tmp_path, monkeypatch):
    """The checks of one ``bench/run.py`` run, in its order: the work counts
    of its passes agree, the checked pass's checks, then the command-line
    counterpart's, run by the harness's own ``CliRunner`` with its files
    under ``tmp_path``."""
    monkeypatch.setattr(run, "OUT", tmp_path)
    bench_files = sorted(BENCH.rglob("*"))
    workload = workloads.WORKLOADS[name](1)
    passes = [run.timed_pass(workload) for _ in range(2)]
    out = workload.run_pass(lambda label, fn, *args: fn(*args), True)
    checks = [("work-identical-across-passes",
               all(p["work"] == out["work"] for p in passes))]
    checks += out["checks"]
    checks += workload.cli(out, run.CliRunner(1))
    assert [check for check, ok in checks if not ok] == []
    reports = workload.cost_reports(out)
    assert (sum(r.t_count for r in reports), sum(r.t_depth for r in reports),
            sum(r.depth for r in reports), sum(r.qubit_cost for r in reports),
            sum(sum(r.gate_histogram.values()) for r in reports)
            ) == PINNED_COSTS[name]
    assert sorted(BENCH.rglob("*")) == bench_files


# sha256 of simulate(lowered, j).amps.tobytes() over the verify workload's
# lowered adder n=6 and mul n=3 inputs at seeds 1 and 2, in its order; a
# lowered circuit never leaves the sparse evaluator at 13 qubits
DENSE_GOLDEN = {
    (1, "adder6"): "7f7a614081ee23385fdbc3c8b5701ebb6c55344177acde4d80218308669de096",
    (1, "mul3"): "84ae7a9f284d6b8f57f91be7e1ae142c4097a8efd0e5390485e19f36b3249582",
    (2, "adder6"): "01261acca490441013a0d149b7aa6852a2eea81dedf4239422ca204168feb657",
    (2, "mul3"): "09e14dc08d7a655dce4fff5e87de9dc34d820ead0edbf5ce9a8c90ba62adefbc",
}


@pytest.mark.parametrize("seed", [1, 2])
def test_verify_workload_simulations_golden_digest(seed):
    for label, kind, n, inst, lowered, inputs in workloads.Verify(seed).dense:
        digest = hashlib.sha256()
        for v in inputs:
            index = workloads.pack(lowered.layout, v)
            digest.update(circuit.simulate(lowered, index).amps.tobytes())
        assert digest.hexdigest() == DENSE_GOLDEN[seed, label]
