"""The two benchmark workloads: verify and compile.

Each workload is a closed loop with one client: ``run_pass(timed, check)``
performs the workload's operations one after the next, in one process.
Each operation goes through ``timed(label, fn, *args)``, which the harness
supplies to time it; labels are unique within a pass.  A pass returns its
work counts under ``work`` and, when ``check`` is true, the results of
comparing its outputs against references that do not use the code under
test under ``checks``.  ``RATES`` names the workload's throughputs: a work
count divided by the time of the operations whose labels start with a
prefix; the first is the workload's ``work_per_s``.

The constructor is the set-up (inputs drawn from the seed, circuits built
where building is not what the workload measures); ``cli`` runs the
workload's command-line counterpart.  Package functions are always
reached through their module (``circuit.simulate``), so the wrappers of
``spans.py`` see the calls.
"""

from __future__ import annotations

import json
import random

from cliffordt import arith, circuit, gates, state, uncompute, verify
from cliffordt.arith import ArithInstance

RB_LENGTHS = (1, 5, 10, 20, 40, 70, 100)


# -- references independent of the package ---------------------------------

def pack(layout, values) -> int:
    """Basis index of named register values (absent registers are 0)."""
    return sum(values.get(r.name, 0) << r.start for r in layout.registers)


def expected_registers(kind: str, n: int, v: dict[str, int]) -> dict[str, int]:
    """Every register after the circuit runs, from integer arithmetic."""
    mask = (1 << n) - 1
    if kind == "adder":
        return {"b": (v["a"] + v["b"]) & mask, "a": v["a"], "z": (v["a"] + v["b"]) >> n}
    if kind == "sub":
        return {"b": (v["b"] - v["a"]) & mask, "a": v["a"]}
    if kind == "ctrladd":
        s = v["a"] + v["b"] if v["ctrl"] else v["b"]
        return {"ctrl": v["ctrl"], "b": s & mask, "a": v["a"],
                "z": s >> n if v["ctrl"] else 0, "g": 0}
    if kind == "mul":
        return {"b": v["b"], "a": v["a"], "p": v["a"] * v["b"]}
    if kind == "taylor":
        d = v["x"] - v["c"]
        out = {name: v.get(name, 0) for name in ("c", "x", "fc", "fp", "fpp")}
        out.update(xc=0, y1=0, y2=0, y4=(v["fc"] + v["fp"] * d + v["fpp"] * d * d) & mask)
        return out
    raise ValueError(kind)


def classical_eval(ops, index: int) -> int:
    """Basis output of an X/CNOT/Toffoli gate list, bit by bit."""
    bits = index
    for g in ops:
        *controls, target = g.qubits
        if all((bits >> c) & 1 for c in controls):
            bits ^= 1 << target
    return bits


def dumps(payload) -> str:
    """The CLI's ``--format json`` rendering of a payload."""
    return json.dumps(payload, sort_keys=True) + "\n"


# -- workloads ---------------------------------------------------------------

ORACLE = {"adder": "oracle_adder", "sub": "oracle_subtractor",
          "ctrladd": "oracle_ctrl_add", "mul": "oracle_multiplier",
          "taylor": "oracle_taylor"}
BUILD = {"adder": "build_adder", "sub": "build_subtractor",
         "ctrladd": "build_ctrl_add", "mul": "build_multiplier"}


class Verify:
    """``cliffordt verify``, ``sim`` and ``rb``: every evaluator.

    Exhaustive oracle checks on the dense statevector and the classical
    permutation paths (throughput: basis inputs checked), then dense
    simulation of lowered circuits, sampling, tomography and RB.
    """

    name = "verify"
    work_unit = "basis inputs checked"
    RATES = (("verify_inputs_per_s", "check.", "inputs"),
             ("sim_gate_amps_per_s", "dense.", "gate_amps"),
             ("rb_cliffords_per_s", "rb", "rb_cliffords"))

    DENSE = (("adder", 4), ("sub", 4), ("ctrladd", 3), ("mul", 3))
    SHOTS = 10 ** 6
    TOMO_SHOTS = 10_000
    RB_SEQUENCES = 400
    RB_SHOTS = 100
    # each sequence applies m random Cliffords plus the closing inverse
    RB_CLIFFORDS = RB_SEQUENCES * sum(m + 1 for m in RB_LENGTHS)
    DEPOLARIZING = 0.02

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.cases = []  # (label, kind, n, instance, must_pass)
        for kind, n in self.DENSE:
            inst = getattr(arith, BUILD[kind])(n)
            self.cases.append((f"{kind}{n}", kind, n, inst, True))
        base = arith.build_adder(3)
        ops = base.circuit.ops
        for drop in range(len(ops)):
            mutant = circuit.Circuit(base.circuit.n_qubits, ops[:drop] + ops[drop + 1:],
                                     base.circuit.layout)
            self.cases.append((f"adder3-drop{drop}", "adder", 3,
                               ArithInstance(3, mutant, base.input_names), False))
        consts = [rng.randrange(1 << 10) for _ in range(4)]
        self.cases.append(("taylor10", "taylor", 10, arith.build_taylor(10, *consts), True))

        self.dense = []  # (label, kind, n, unlowered instance, lowered circuit, inputs)
        for label, kind, n, count in (("adder6", "adder", 6, 4), ("mul3", "mul", 3, 8)):
            inst = getattr(arith, BUILD[kind])(n)
            lowered = circuit.lower_to_clifford_t(inst.circuit)
            pairs = rng.sample(range(1 << (2 * n)), count)
            inputs = [{"a": p >> n, "b": p & ((1 << n) - 1)} for p in pairs]
            self.dense.append((label, kind, n, inst, lowered, inputs))
        # uniform superposition over a, added into a seeded b: 16 outcomes
        adder4 = arith.build_adder(4)
        hadamards = tuple(gates.h(q) for q in adder4.circuit.layout.register("a").qubits())
        self.sample_circuit = circuit.Circuit(
            adder4.circuit.n_qubits,
            hadamards + circuit.lower_to_clifford_t(adder4.circuit).ops,
            adder4.circuit.layout)
        self.sample_b = rng.randrange(16)
        self.sample_seed = rng.randrange(1 << 31)
        self.tomography = [
            (circuit.Circuit(1), (0.0, 0.0, 1.0), rng.randrange(1 << 31)),
            (circuit.Circuit(1, (gates.x(0),)), (0.0, 0.0, -1.0), rng.randrange(1 << 31)),
            (circuit.Circuit(1, (gates.h(0),)), (1.0, 0.0, 0.0), rng.randrange(1 << 31)),
        ]
        self.rb_seed = rng.randrange(1 << 31)

    @staticmethod
    def _exhaustive(kind: str, n: int, inst):
        return verify.exhaustive_check(inst, getattr(verify, ORACLE[kind])(n))

    def run_pass(self, timed, check: bool):
        reports = [timed(f"check.{label}", self._exhaustive, kind, n, inst)
                   for label, kind, n, inst, _ in self.cases]
        states = []
        gate_amps = 0
        for label, kind, n, inst, lowered, inputs in self.dense:
            for i, v in enumerate(inputs):
                states.append(timed(f"dense.{label}.in{i}", circuit.simulate, lowered,
                                    pack(lowered.layout, v)))
                gate_amps += len(lowered.ops) << lowered.n_qubits
        psi = timed("sample.simulate", circuit.simulate, self.sample_circuit, self.sample_b)
        counts = timed("sample", state.sample, psi, self.SHOTS, self.sample_seed)
        tomo = [timed(f"tomography{i}", verify.tomography_1q, prep, self.TOMO_SHOTS, s)
                for i, (prep, _, s) in enumerate(self.tomography)]
        rb = timed("rb", verify.run_rb, verify.NoiseModel(self.DEPOLARIZING), RB_LENGTHS,
                   self.RB_SEQUENCES, self.RB_SHOTS, self.rb_seed)
        out = {"counts": counts, "rb": rb,
               "work": {"inputs": sum(r.total_inputs for r in reports),
                        "gate_amps": gate_amps, "rb_cliffords": self.RB_CLIFFORDS}}
        if check:
            out["checks"] = (self._check_exhaustive(reports)
                             + self._check_simulation(states, out, tomo))
        return out

    def cost_reports(self, out):
        return ([circuit.resources(inst.circuit) for _, _, _, inst, must_pass in self.cases
                 if must_pass]
                + [circuit.resources(lowered) for _, _, _, _, lowered, _ in self.dense])

    def _check_exhaustive(self, reports):
        results = []
        for (label, kind, n, inst, must_pass), rep in zip(self.cases, reports):
            layout = inst.circuit.layout
            free = sum(layout.register(r).size for r in inst.input_names)
            results.append((f"{label}.verdict", rep.passed == must_pass))
            results.append((f"{label}.inputs", rep.total_inputs == 1 << free))
            if must_pass:
                results.append((f"{label}.no-mismatch", not rep.mismatches))
                continue
            # every reported mismatch is real, and none is missing
            want = []
            for a in range(1 << n):
                for b in range(1 << n):
                    index = pack(layout, {"a": a, "b": b})
                    exp = pack(layout, expected_registers(kind, n, {"a": a, "b": b}))
                    got = classical_eval(inst.circuit.ops, index)
                    if got != exp:
                        want.append((index, exp, got))
            results.append((f"{label}.mismatches", sorted(rep.mismatches) == sorted(want)))
        return results

    def _check_simulation(self, states, out, tomo):
        results = []
        states = iter(states)
        for label, kind, n, inst, lowered, inputs in self.dense:
            for i, v in enumerate(inputs):
                psi = next(states)
                index = pack(lowered.layout, v)
                want = pack(lowered.layout, expected_registers(kind, n, v))
                perm = circuit.permutation_output(inst.circuit, index)
                results.append((f"{label}.in{i}.permutation", perm == want))
                results.append((f"{label}.in{i}.amplitude", abs(abs(psi.amps[want]) - 1.0) < 1e-9))
        layout = self.sample_circuit.layout
        outcomes = {pack(layout, expected_registers("adder", 4, {"a": a, "b": self.sample_b}))
                    for a in range(16)}
        counts = out["counts"]
        sigma = (self.SHOTS * (1 / 16) * (15 / 16)) ** 0.5
        results.append(("sample.support", set(counts.counts) == outcomes))
        results.append(("sample.total", sum(counts.counts.values()) == self.SHOTS))
        results.append(("sample.uniform", all(abs(c - self.SHOTS / 16) < 6 * sigma
                                              for c in counts.counts.values())))
        for (prep, exact, _), est in zip(self.tomography, tomo):
            results.append((f"tomography.{exact}",
                            all(abs(e - x) < 0.05 for e, x in zip(est, exact))))
        target = 1 - 4 * self.DEPOLARIZING / 3
        results.append(("rb.fit_p", abs(out["rb"].fit_p - target) / target < 0.10))
        return results

    def cli(self, out, run_cli):
        ref = dumps(verify.exhaustive_check(arith.build_adder(4), verify.oracle_adder(4)).to_dict())
        runs = [run_cli("verify", ["verify", "adder", "4", "--format", "json"]) for _ in range(2)]
        path = run_cli.path("verify-sample.qc")
        path.write_text(circuit.serialize(self.sample_circuit), encoding="utf-8")
        sims = [run_cli("sim", ["sim", str(path), "--input", str(self.sample_b),
                                "--shots", str(self.SHOTS), "--seed", str(self.sample_seed),
                                "--format", "json"]) for _ in range(2)]
        counts = dict(sorted(out["counts"].counts.items()))
        sim_ref = dumps({"shots": out["counts"].shots,
                         "counts": {str(k): v for k, v in counts.items()}})
        rbs = [run_cli("rb", ["rb", "--d", str(self.DEPOLARIZING),
                              "--lengths", ",".join(map(str, RB_LENGTHS)),
                              "--sequences", str(self.RB_SEQUENCES),
                              "--shots", str(self.RB_SHOTS), "--seed", str(self.rb_seed),
                              "--format", "json"]) for _ in range(2)]
        return [("cli.verify.identical", runs[0] == runs[1]),
                ("cli.verify.matches-library", runs[0] == (0, ref)),
                ("cli.sim.identical", sims[0] == sims[1]),
                ("cli.sim.matches-library", sims[0] == (0, sim_ref)),
                ("cli.rb.identical", rbs[0] == rbs[1]),
                ("cli.rb.matches-library", rbs[0] == (0, dumps(out["rb"].to_dict())))]


class Compile:
    """``cliffordt gen`` plus ``metrics`` at widths too wide to simulate.

    A pass holds one circuit at a time, as ``gen`` and ``metrics`` do, and
    keeps only its resource report; holding every circuit of the pass would
    make each collection of the garbage collector walk all of them.
    """

    name = "compile"
    work_unit = "Clifford+T gates produced"
    RATES = (("compile_gates_per_s", "", "gates"),)

    FREE_INPUTS = {"adder": ("a", "b"), "sub": ("a", "b"), "mul": ("a", "b"),
                   "ctrladd": ("a", "b"), "taylor": ("x",)}
    SPECS = (("taylor24", "taylor", 24), ("mul24", "mul", 24),
             ("adder256", "adder", 256), ("sub256", "sub", 256),
             ("ctrladd128", "ctrladd", 128))
    BENNETT_N = 12

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.taylor_consts = [rng.randrange(1 << 24) for _ in range(4)]
        # seeded basis inputs for the permutation check, three per circuit
        self.samples = {}
        for label, kind, n in self.SPECS:
            draws = []
            for _ in range(3):
                v = {name: rng.randrange(1 << n) for name in self.FREE_INPUTS[kind]}
                if kind == "ctrladd":
                    v["ctrl"] = rng.randrange(2)
                if kind == "taylor":
                    v.update(zip(("fc", "fp", "fpp", "c"), self.taylor_consts))
                draws.append(v)
            self.samples[label] = draws
        self.bennett_sample = [{"a": rng.randrange(1 << self.BENNETT_N),
                                "b": rng.randrange(1 << self.BENNETT_N)} for _ in range(3)]

    def _build(self, kind: str, n: int):
        if kind == "taylor":
            return arith.build_taylor(n, *self.taylor_consts)
        return getattr(arith, BUILD[kind])(n)

    def run_pass(self, timed, check: bool):
        reports, checks = [], []
        gates_out = 0
        for label, kind, n in self.SPECS:
            inst = timed(f"{label}.build", self._build, kind, n)
            report = timed(f"{label}.resources", circuit.resources, inst.circuit)
            lowered = timed(f"{label}.lower", circuit.lower_to_clifford_t, inst.circuit)
            text = timed(f"{label}.serialize", circuit.serialize, lowered)
            parsed = timed(f"{label}.parse", circuit.parse, text)
            reports.append(report)
            gates_out += len(lowered.ops)
            if check:
                checks += self._check_circuit(label, kind, n, inst, report, lowered, parsed)
        inner = timed("bennett.build", arith.build_multiplier, self.BENNETT_N).circuit
        wires = tuple(inner.layout.register("p").qubits())
        wrapped = timed("bennett.wrap", uncompute.bennett_wrap,
                        uncompute.BennettSpec(inner, wires))
        wrapped_report = timed("bennett.resources", circuit.resources, wrapped)
        reports.append(wrapped_report)
        out = {"reports": reports,
               "work": {"gates": gates_out + sum(wrapped_report.gate_histogram.values())}}
        if check:
            out["checks"] = checks + self._check_bennett(inner, wrapped, wrapped_report)
        return out

    def cost_reports(self, out):
        return out["reports"]

    def _check_circuit(self, label, kind, n, inst, report, lowered, parsed):
        results = [(f"{label}.round-trip", parsed == lowered),
                   (f"{label}.parsed-resources", circuit.resources(parsed) == report),
                   (f"{label}.lowered-count",
                    len(lowered.ops) == sum(report.gate_histogram.values())),
                   (f"{label}.garbage", report.garbage_count == 0)]
        layout = inst.circuit.layout
        for i, v in enumerate(self.samples[label]):
            got = circuit.permutation_output(inst.circuit, pack(layout, v))
            want = pack(layout, expected_registers(kind, n, v))
            results.append((f"{label}.oracle{i}", got == want))
        return results

    def _check_bennett(self, inner, wrapped, rep):
        results = [("bennett.garbage", rep.garbage_count == 0)]
        copies = inner.layout.register("p").size
        results.append(("bennett.gates", len(wrapped.ops) == 2 * len(inner.ops) + copies))
        results.append(("bennett.t-count",
                        rep.t_count == 2 * circuit.resources(inner).t_count))
        for i, v in enumerate(self.bennett_sample):
            got = circuit.permutation_output(wrapped, pack(inner.layout, v))
            want = pack(inner.layout, v) | (v["a"] * v["b"]) << inner.n_qubits
            results.append((f"bennett.oracle{i}", got == want))
        return results

    def cli(self, out, run_cli):
        label, kind, n = self.SPECS[-1]
        inst = self._build(kind, n)
        report = out["reports"][len(self.SPECS) - 1]
        files, metrics = [], []
        for i in range(2):
            path = run_cli.path(f"compile-{label}-{i}.qc")
            code, _ = run_cli("gen", ["gen", kind, str(n), str(path)])
            files.append((code, path.read_text(encoding="utf-8") if code == 0 else None))
            metrics.append(run_cli("metrics", ["metrics", str(path), "--format", "json"]))
        return [("cli.gen.identical", files[0] == files[1]),
                ("cli.gen.matches-library", files[0] == (0, circuit.serialize(inst.circuit))),
                ("cli.metrics.identical", metrics[0] == metrics[1]),
                ("cli.metrics.matches-library", metrics[0] == (0, dumps(report.to_dict())))]


WORKLOADS = {w.name: w for w in (Verify, Compile)}
