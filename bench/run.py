"""Benchmark harness for cliffordt.

    python3 bench/run.py --workload verify|compile --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One run:

1. times ``SETUP_PROBES`` fresh interpreters from start to "inputs ready"
   (numpy and cliffordt import, then the workload's set-up) and reports
   their median as ``setup_s``;
2. repeats passes of the workload in this process, one operation after the
   next, until the next pass would end after ``--seconds``, timing each
   operation.  Successive passes run on each usable CPU in turn.  With
   ``--trace 1`` untraced and traced passes alternate, so the tracing
   overhead is measured within the run;
3. runs one more pass, untimed, that checks its outputs against
   references outside the package, and runs the workload's CLI
   counterpart twice in a subprocess;
4. writes a run record (and, traced, every span) under ``bench/out/`` and
   prints each metric, then the result as one JSON line.

End-to-end metrics are listed in ``BENCHMARK.json`` at the repository
root: ``wall_s`` is the sum over the pass's operations of each one's
fastest time over the passes, ``work_per_s`` the workload's first rate in
``RATES`` (see ``workloads.py``): a work count divided by the same sum
over the operations that do that work.  The cost counts are summed over
the workload's circuits.  ``--trace 1`` prints the per-layer metrics instead, taken from
the traced pass of median wall time.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 5
SUBPROCESS_TIMEOUT_S = 120
# One client, no threads: keep numpy's BLAS from starting a thread pool.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
         "workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4])); print('ready', flush=True)")


def child_env(seed: int) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC), CLIFFORDT_SEED=str(seed), **THREAD_ENV)


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its inputs being ready."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE, str(SRC), str(BENCH), workload,
                           str(seed)], stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          env=child_env(seed)) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=SUBPROCESS_TIMEOUT_S)
        except BaseException:
            proc.kill()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def calibrate() -> float:
    """A fixed pure-Python loop; recorded beside each run, scales nothing."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i & 7
    return time.perf_counter() - t0


class CliRunner:
    """Runs ``python -m cliffordt.cli`` and keeps each command's wall time."""

    def __init__(self, seed: int):
        self.seed = seed
        self.times: dict[str, list[float]] = defaultdict(list)

    def path(self, name: str) -> Path:
        return OUT / name

    def __call__(self, command: str, argv: list[str]) -> tuple[int, str]:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "cliffordt.cli", *argv], cwd=ROOT,
                              env=child_env(self.seed), capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
        self.times[command].append(time.perf_counter() - t0)
        return proc.returncode, proc.stdout


def timed_pass(workload):
    """One pass, unchecked: its wall time, work counts and the time of each
    operation by label.

    Garbage is collected before the pass, outside the timing, so every
    pass starts from the same collector state.
    """
    ops: dict[str, float] = {}

    def timed(label, fn, *args):
        if label in ops:
            raise ValueError(f"operation label {label!r} used twice in one pass")
        t0 = time.perf_counter()
        result = fn(*args)
        ops[label] = time.perf_counter() - t0
        return result

    gc.collect()
    t0 = time.perf_counter()
    out = workload.run_pass(timed, False)
    wall = time.perf_counter() - t0
    return {"wall": wall, "work": out["work"], "ops": ops}


def run_passes(workload, seconds: float, tracer):
    """Closed loop of passes until the next one would end after ``seconds``.

    A first warm-up pass, whose time is returned but enters no statistic,
    lets the allocator and caches settle.  Returns the warm-up time and the
    untraced and traced pass timings; one pass's output is alive at a
    time, so peak memory is that of one pass.  With a tracer, passes
    alternate untraced / traced, and at least one of each runs.

    Successive passes of each kind run pinned to each CPU this process may
    use in turn: on a shared host one CPU can run 1.5x slower than the
    other for minutes, and a run held on it would report that CPU's state.
    """
    cpus = sorted(os.sched_getaffinity(0))
    untraced, traced = [], []
    start = time.perf_counter()
    timed_pass(workload)
    warmup_s = time.perf_counter() - start
    try:
        while True:
            trace_this = tracer is not None and len(traced) < len(untraced)
            passes = traced if trace_this else untraced
            os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
            if trace_this:
                tracer.run_id = len(traced)
                tracer.install()
            try:
                timing = timed_pass(workload)
            finally:
                if trace_this:
                    tracer.uninstall()
            timing["cpu"] = cpus[len(passes) % len(cpus)]
            passes.append(timing)
            typical = statistics.median(p["wall"] for p in untraced + traced)
            if time.perf_counter() - start + typical > seconds and (tracer is None or traced):
                return warmup_s, untraced, traced
    finally:
        os.sched_setaffinity(0, cpus)


def op_stat(passes, stat) -> dict[str, float]:
    """``stat`` of each operation's times over the passes."""
    return {label: stat([p["ops"][label] for p in passes]) for label in passes[0]["ops"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "compile"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cliffordt" / "__init__.py").is_file():
        print(f"error: no cliffordt sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    os.environ.update(THREAD_ENV)
    sys.path[:0] = [str(SRC), str(BENCH)]
    OUT.mkdir(exist_ok=True)

    setup_samples = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    import cliffordt
    import numpy
    import workloads
    from spans import Tracer
    if Path(cliffordt.__file__).resolve().parent != SRC / "cliffordt":
        print(f"error: imported cliffordt from {cliffordt.__file__}", file=sys.stderr)
        return 2

    calibration = [calibrate()]
    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    warmup_s, untraced, traced = run_passes(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibration.append(calibrate())

    out = workload.run_pass(lambda label, fn, *fn_args: fn(*fn_args), True)
    checks = [("work-identical-across-passes",
               all(p["work"] == out["work"] for p in untraced + traced))]
    checks += out["checks"]
    cli = CliRunner(args.seed)
    checks += workload.cli(out, cli)
    failed = [name for name, ok in checks if not ok]
    attempted = len(checks)

    reports = workload.cost_reports(out)
    medians = op_stat(untraced, statistics.median)
    best = op_stat(untraced, min)
    wall_s = sum(best.values())
    rates = {name: out["work"][key] / sum(t for label, t in best.items()
                                          if label.startswith(prefix))
             for name, prefix, key in workload.RATES}
    work_per_s = rates[workload.RATES[0][0]]
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": wall_s,
        "work_per_s": work_per_s,
        "peak_rss_mb": peak_rss_mb,
        "pass_rate": (attempted - len(failed)) / attempted,
        "t_count": sum(r.t_count for r in reports),
        "t_depth": sum(r.t_depth for r in reports),
        "depth": sum(r.depth for r in reports),
        "qubit_cost": sum(r.qubit_cost for r in reports),
        "clifford_t_gates": sum(sum(r.gate_histogram.values()) for r in reports),
    }
    named = {"error_rate": len(failed) / attempted, **rates,
             "pass_median_s": sum(medians.values())}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        walls = [p["wall"] for p in traced]
        wall = sorted(walls)[(len(walls) - 1) // 2]
        run_id = walls.index(wall)
        summary = tracer.summarize(run_id, wall)
        inputs = summary.get("verify.exhaustive_check.inputs", 0)
        summary["verify.amp_updates_per_input"] = (
            summary.get("verify.exhaustive_check>circuit.simulate.gate_amps", 0) / inputs
            if inputs else 0.0)
        summary["bench.traced_wall_s"] = wall
        untraced_wall = statistics.median(p["wall"] for p in untraced)
        summary["bench.untraced_wall_s"] = untraced_wall
        summary["bench.tracing_overhead_s"] = wall - untraced_wall
        summary["bench.spans"] = sum(1 for r in tracer.run if r == run_id)
        for command, times in cli.times.items():
            summary[f"cli.{command}.s"] = statistics.median(times)
        tracer.save(OUT / f"spans-{tag}.tsv")
        metric_specs = spec["per_layer"]
        values = {m["name"]: float(summary.get(m["name"], 0.0)) for m in metric_specs}
    else:
        metric_specs = spec["end_to_end"]

    record = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "work_unit": workload.work_unit,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV,
        "calibration_s": calibration,
        "setup_probe_s": setup_samples,
        "warmup_pass_s": warmup_s,
        "op_median_s": medians,
        "op_min_s": best,
        "untraced_passes": untraced,
        "traced_passes": traced,
        "cli_s": dict(cli.times),
        "attempted": attempted,
        "failed_checks": failed,
        "named_metrics": named,
        "metrics": values,
    }
    (OUT / f"record-{tag}.json").write_text(json.dumps(record, indent=1) + "\n",
                                            encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes, {attempted} checks, {len(failed)} failed")
    for name in failed:
        print(f"  FAILED {name}")
    for name, value in named.items():
        print(f"  {name:36s} {value:.6g}")
    units = {m["name"]: m["unit"] for m in metric_specs}
    result = {"correct": not failed, "attempted": attempted, "failed": len(failed),
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}
    for name in units:
        print(f"  {name:36s} {values[name]:.6g} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
