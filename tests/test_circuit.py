"""Circuit IR: inversion, lowering, scheduling, metrics, text format."""

import copy
import hashlib
import itertools
import json
import pickle
import random
import shutil
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliffordt import circuit as circuit_module
from cliffordt.arith import (BUILDERS, ArithInstance, build_adder,
                             build_ctrl_add, build_multiplier,
                             build_subtractor, build_taylor)
from cliffordt.circuit import (MAX_DIGITS, OFFSETS, ROLES, SPELLINGS,
                               TEMPLATES, Circuit, Register,
                               RegisterLayout, ResourceReport,
                               default_layout,
                               inverse_circuit,
                               is_permutation_circuit, lift,
                               lower_to_clifford_t,
                               parse, permutation_output, resources,
                               run_columns, schedule_layers, serialize,
                               simulate, sparse_evaluate)
from cliffordt.circuit import _offsets, _place, _run_sparse, _spill_support
from cliffordt.errors import DomainError, ParseError, ResourceError
from cliffordt.gates import (GATE_ARITY, PERMUTATION_KINDS, Gate, ccx, cnot,
                             compose_matrices, cswap, decompose_fredkin,
                             decompose_swap, decompose_toffoli, h, swap, t,
                             tdg, x)
from cliffordt.state import new_basis_state
from cliffordt.uncompute import BennettSpec, bennett_wrap
from cliffordt.verify import _pack, _unpack, exhaustive_check, oracle_adder
from helpers import run_child

SQ2 = 1 / np.sqrt(2)

# the kinds that lowering leaves as they are: each is its own single step
CLIFFORD_T_KINDS = frozenset(
    kind for kind, template in TEMPLATES.items()
    if template == ((kind, tuple(range(GATE_ARITY[kind]))),))


def bell_circuit():
    return Circuit(2, (h(0), cnot(0, 1)))


def corpus():
    """Generated circuits used by the round-trip and metric invariants."""
    instances = [build_adder(n) for n in (1, 2, 3, 4)]
    instances += [build_subtractor(n) for n in (1, 2, 3, 4)]
    instances += [build_ctrl_add(n) for n in (1, 2, 3, 4)]
    instances += [build_multiplier(n) for n in (1, 2, 3)]
    instances += [build_taylor(2, 1, 2, 3, 0), build_taylor(1, 1, 1, 1, 1)]
    circuits = [i.circuit for i in instances]
    circuits += [bell_circuit(), Circuit(1, (h(0),)),
                 Circuit(3, (ccx(0, 1, 2), swap(0, 2), cswap(2, 1, 0)))]
    return circuits


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

def test_compose_adder_with_inverse_is_identity():
    c = build_adder(4).circuit
    cc = Circuit(c.n_qubits, c.ops + inverse_circuit(c).ops)
    for j in range(1 << c.n_qubits):
        assert permutation_output(cc, j) == j


def test_inverse_circuit_reverses_and_inverts():
    c = Circuit(1, (h(0), t(0)))
    assert inverse_circuit(c).ops == (tdg(0), h(0))
    assert inverse_circuit(Circuit(1)).ops == ()


def test_inverse_circuit_cancels_multiplier():
    c = build_multiplier(2).circuit
    cc = Circuit(c.n_qubits, c.ops + inverse_circuit(c).ops)
    for j in range(1 << c.n_qubits):
        assert permutation_output(cc, j) == j


# ---------------------------------------------------------------------------
# lowering
# ---------------------------------------------------------------------------

def test_lowering_single_toffoli():
    low = lower_to_clifford_t(Circuit(3, (ccx(0, 1, 2),)))
    assert all(g.kind in CLIFFORD_T_KINDS for g in low.ops)
    assert resources(low).t_count == 7


def test_lowering_is_fixpoint_on_clifford_t():
    c = Circuit(2, (h(0), t(1), cnot(0, 1), tdg(0)))
    assert lower_to_clifford_t(c).ops == c.ops


def test_lowering_single_fredkin():
    low = lower_to_clifford_t(Circuit(3, (cswap(0, 1, 2),)))
    assert all(g.kind in CLIFFORD_T_KINDS for g in low.ops)
    assert resources(low).t_count == 7


@pytest.mark.parametrize("make", [
    lambda: build_adder(2).circuit,
    lambda: build_subtractor(2).circuit,
    lambda: build_ctrl_add(2).circuit,
    lambda: build_multiplier(2).circuit,
    lambda: build_taylor(1, 1, 1, 1, 1).circuit,
    lambda: Circuit(3, (h(0), ccx(0, 1, 2), swap(1, 2), t(2), cswap(2, 0, 1))),
])
def test_lowering_preserves_semantics_exhaustively(make):
    c = make()
    assert c.n_qubits <= 12
    low = lower_to_clifford_t(c)
    assert all(g.kind in CLIFFORD_T_KINDS for g in low.ops)
    for j in range(1 << c.n_qubits):
        assert sparse_evaluate(low, j) == sparse_evaluate(c, j)


# Each permutation kind's output on a basis input, on operands (0, 1, 2).
GATE_OUTPUT = {
    "x": lambda j: j ^ 1,
    "cnot": lambda j: j ^ 2 if j & 1 else j,
    "ccx": lambda j: j ^ 4 if j & 3 == 3 else j,
    "swap": lambda j: j ^ 3 if (j ^ j >> 1) & 1 else j,
    "cswap": lambda j: j ^ 6 if j & 1 and (j >> 1 ^ j >> 2) & 1 else j,
}


@pytest.mark.parametrize("kind", sorted(TEMPLATES))
def test_templates_are_exact(kind):
    # the exact lowering checks rest on this: a template has its gate's
    # unitary itself, with no global phase
    arity = GATE_ARITY[kind]
    template = Circuit(arity, tuple(Gate(*step) for step in TEMPLATES[kind]))
    if kind not in PERMUTATION_KINDS:
        assert TEMPLATES[kind] == ((kind, tuple(range(arity))),)
        return
    for j in range(1 << arity):
        assert sparse_evaluate(template, j) == ({GATE_OUTPUT[kind](j): (1, 0, 0, 0)}, 0)


# Child code that drops the first T of the Toffoli template (and so of the
# Fredkin one) from a copy of the package on the child's path, then imports
# it, printing the one line of the error it raises.
PLANTED_TEMPLATE = (
    "import sys\n"
    "try:\n"
    "    import cliffordt.circuit\n"
    "except Exception as exc:\n"
    "    sys.exit(f'{type(exc).__module__}.{type(exc).__name__}: {exc}')\n")


def test_a_wrong_template_fails_at_import(tmp_path):
    package = Path(__file__).resolve().parents[1] / "src" / "cliffordt"
    shutil.copytree(package, tmp_path / "cliffordt",
                    ignore=shutil.ignore_patterns("__pycache__"))
    gates_py = tmp_path / "cliffordt" / "gates.py"
    text = gates_py.read_text(encoding="utf-8")
    assert text.count("        t(a), t(b), t(c),\n") == 1
    gates_py.write_text(text.replace("        t(a), t(b), t(c),\n",
                                     "        t(b), t(c),\n"), encoding="utf-8")
    child = run_child(code=PLANTED_TEMPLATE, env={"PYTHONPATH": str(tmp_path)})
    assert (child.returncode, child.stdout) == (1, "")
    assert child.stderr == ("cliffordt.errors.CliffordTError: the ccx template "
                            "differs from its gate on basis input 1\n")


def test_lift_folds_each_lowered_gate_back():
    for g in (swap(2, 0), ccx(1, 3, 0), cswap(3, 0, 2)):
        lowered = lower_to_clifford_t(Circuit(4, (g,)))
        assert lift(lowered.ops) == (g,)
        assert lift(inverse_circuit(lowered).ops) == (g,)
    assert lift(()) == ()


# each kind's template steps as inverse_circuit of its lowering writes them
INVERSE_SPELLINGS = {
    kind: tuple((g.kind, g.qubits) for g in inverse_circuit(Circuit(
        GATE_ARITY[kind], tuple(Gate(*step) for step in TEMPLATES[kind]))).ops)
    for kind in ("swap", "ccx", "cswap")}


def test_no_spelling_begins_another():
    # lift reads at most one spelling at a position: were one spelling's
    # kinds to begin another's, lift would stay exact but could miss a window
    spellings = {(kind, spelling) for kind, inverse in INVERSE_SPELLINGS.items()
                 for spelling in (TEMPLATES[kind], inverse)}
    assert len(spellings) == 5  # SWAP's inverse spelling is its template
    assert {(kind, tuple((g.kind, g.qubits) for g in steps))
            for kind, steps, *_ in SPELLINGS.values()} == spellings
    kinds = [tuple(step for step, _ in spelling) for _, spelling in spellings]
    for a, b in itertools.permutations(kinds, 2):
        assert b[:len(a)] != a


def test_lift_of_a_lowering_need_not_give_the_circuit_back():
    # the invariant is lower(lift(L)) == L; lift(lower(c)) == c fails here
    ops = (cnot(0, 1), cnot(1, 0), cnot(0, 1))
    assert lift(lower_to_clifford_t(Circuit(2, ops)).ops) == (swap(0, 1),)


def test_lift_passes_over_a_window_one_step_off():
    steps = lower_to_clifford_t(Circuit(3, (ccx(0, 1, 2),))).ops
    moved = steps[:4] + (cnot(2, 1),) + steps[5:]  # cnot(b, a) on (c, b)
    assert lift(moved) == moved
    swapped = steps[:1] + (tdg(0),) + steps[2:]  # t(a) as tdg(a)
    assert lift(swapped) == swapped


@pytest.mark.parametrize("kind, n", [(kind, n) for kind in sorted(BUILDERS)
                                     for n in (1, 2, 3)]
                         + [("taylor", 24), ("mul", 24), ("adder", 256),
                            ("sub", 256), ("ctrladd", 128)])
def test_lift_of_a_builders_lowering_is_its_own_gate_list(kind, n):
    args = (5, 3, 1, 2) if kind == "taylor" else ()
    c = BUILDERS[kind](n, *(v % (1 << n) for v in args)).circuit
    lowered = lower_to_clifford_t(c)
    assert lift(lowered.ops) == c.ops
    assert lift(inverse_circuit(lowered).ops) == inverse_circuit(c).ops


@pytest.mark.parametrize("kind, n", [(kind, n) for kind in sorted(BUILDERS)
                                     for n in (1, 2, 3)])
def test_lift_of_a_wrapped_lowering_is_the_wrap_of_its_circuit(kind, n):
    args = (5, 3, 1, 2) if kind == "taylor" else ()
    c = BUILDERS[kind](n, *(v % (1 << n) for v in args)).circuit
    wires = tuple(range(c.n_qubits))
    wrap = bennett_wrap(BennettSpec(lower_to_clifford_t(c), wires))
    assert lift(wrap.ops) == bennett_wrap(BennettSpec(c, wires)).ops


CLIFFORD_T_1Q = ("h", "t", "tdg", "s", "sdg", "x")


@st.composite
def lowered_gate_lists(draw, n=4, inverse=False):
    """Clifford+T gate lists on ``n`` qubits: single gates, lowered SWAP,
    Toffoli and Fredkin windows, and such windows with one qubit or one
    step's kind altered or bound to repeated qubits.  A step whose operands
    collide takes another qubit for its last one.  With ``inverse``, each
    window may take its inverse spelling in place of its template."""
    ops = []
    for _ in range(draw(st.integers(0, 6))):
        part = draw(st.sampled_from(("gate", "window", "qubit", "kind",
                                     "repeat")))
        if part == "gate":
            kind = draw(st.sampled_from(CLIFFORD_T_1Q + ("cnot",)))
            qubits = draw(st.permutations(range(n)))[:GATE_ARITY[kind]]
            ops.append(Gate(kind, qubits))
            continue
        kind = draw(st.sampled_from(("swap", "ccx", "cswap")))
        arity = GATE_ARITY[kind]
        bound = (draw(st.lists(st.integers(0, n - 1), min_size=arity,
                               max_size=arity)) if part == "repeat"
                 else draw(st.permutations(range(n)))[:arity])
        spelling = TEMPLATES[kind]
        if inverse and draw(st.booleans()):
            spelling = INVERSE_SPELLINGS[kind]
        steps = [[step, [bound[p] for p in where]] for step, where in spelling]
        if part == "qubit":
            qubits = draw(st.sampled_from(steps))[1]
            qubits[draw(st.integers(0, len(qubits) - 1))] = draw(
                st.integers(0, n - 1))
        elif part == "kind":  # a one-qubit kind on the step's first qubit
            step = draw(st.sampled_from(steps))
            step[:] = draw(st.sampled_from(CLIFFORD_T_1Q)), step[1][:1]
        for step, qubits in steps:
            if len(set(qubits)) < len(qubits):
                qubits[-1] = min(set(range(n)) - set(qubits))
            ops.append(Gate(step, qubits))
    return tuple(ops)


@settings(max_examples=300, deadline=None)
@given(lowered_gate_lists())
def test_lowering_a_lift_gives_the_gate_list_back(ops):
    lifted = Circuit(4, lift(ops))
    assert lower_to_clifford_t(lifted).ops == ops
    for j in range(16):
        assert sparse_evaluate(lifted, j) == sparse_evaluate(Circuit(4, ops), j)


@settings(max_examples=300, deadline=None)
@given(lowered_gate_lists(inverse=True))
@example(tuple(Gate(step, tuple(3 - q for q in where)) for step, where
               in INVERSE_SPELLINGS["ccx"] + INVERSE_SPELLINGS["cswap"]))
def test_lift_keeps_the_map_of_either_spelling(ops):
    # lower(lift(L)) == L fails for an inverse spelling, which lowers to
    # the template, so the map is what lift keeps
    lifted = Circuit(4, lift(ops))
    for j in range(16):
        assert sparse_evaluate(lifted, j) == sparse_evaluate(Circuit(4, ops), j)


def test_simulate_runs_a_lowering_as_the_circuit_it_lowers():
    # 5 qubits: the first H spills to the dense kernel, which then runs
    # the lifted Toffoli gates, the very gates of the unlowered circuit
    inst = build_adder(2)
    front = tuple(h(q) for q in inst.circuit.layout.register("a").qubits())
    c = Circuit(inst.circuit.n_qubits, front + inst.circuit.ops,
                inst.circuit.layout)
    lowered = lower_to_clifford_t(c)
    for j in range(1 << c.n_qubits):
        assert simulate(lowered, j).amps.tobytes() == simulate(c, j).amps.tobytes()


def _wraps(c, register):
    """The Bennett wraps of ``c``'s lowering and of ``c`` itself, each
    copying the qubits of ``register``."""
    wires = tuple(c.layout.register(register).qubits())
    return (bennett_wrap(BennettSpec(lower_to_clifford_t(c), wires)),
            bennett_wrap(BennettSpec(c, wires)))


def test_simulate_runs_a_wrapped_lowering_as_the_wrap_of_its_circuit():
    # both halves lift, the inverse one from its inverse spelling: on basis
    # inputs of mul n=2 the run stays sparse, and with H gates on adder
    # n=2's a the first H spills to the dense kernel, which then runs the
    # very gates of the unlowered wrap
    inst = build_multiplier(2)
    lowered, plain = _wraps(inst.circuit, "p")
    for a, b in itertools.product(range(4), repeat=2):
        j = inst.encode({"a": a, "b": b})
        assert simulate(lowered, j).amps.tobytes() == simulate(plain, j).amps.tobytes()
    inst = build_adder(2)
    front = tuple(h(q) for q in inst.circuit.layout.register("a").qubits())
    c = Circuit(inst.circuit.n_qubits, front + inst.circuit.ops,
                inst.circuit.layout)
    lowered, plain = _wraps(c, "b")
    for j in range(1 << c.n_qubits):
        assert simulate(lowered, j).amps.tobytes() == simulate(plain, j).amps.tobytes()


# ---------------------------------------------------------------------------
# the lift kept on each circuit
# ---------------------------------------------------------------------------

@pytest.fixture
def lift_calls(monkeypatch):
    """The gate count of each ``circuit.lift`` call made from now on."""
    calls = []

    def counted(ops):
        calls.append(len(ops))
        return lift(ops)
    monkeypatch.setattr(circuit_module, "lift", counted)
    return calls


def _mul_inputs(inst, count):
    return [inst.encode({"a": a, "b": b})
            for a, b in itertools.islice(
                itertools.product(range(1 << inst.n_bits), repeat=2), count)]


def test_simulate_lifts_a_circuit_once(lift_calls):
    inst = build_multiplier(3)
    lowered = lower_to_clifford_t(inst.circuit)
    for j in _mul_inputs(inst, 12):
        simulate(lowered, j)
    assert lift_calls == [len(lowered.ops)]


def test_a_proof_and_a_simulation_share_one_lift(lift_calls):
    inst = build_adder(2)
    lowered = lower_to_clifford_t(inst.circuit)
    report = exhaustive_check(ArithInstance(2, lowered, inst.input_names),
                              oracle_adder(2))
    assert report.passed and report.method == "lifted"
    assert lift_calls == [len(lowered.ops)]
    simulate(lowered, 3)
    assert lift_calls == [len(lowered.ops)]
    # a permutation circuit runs bit-sliced as it is, never lifted
    assert exhaustive_check(inst, oracle_adder(2)).method == "bitsliced"
    assert lift_calls == [len(lowered.ops)]
    assert "_lifted" not in vars(inst.circuit)


def _spilled_adder():
    """Adder n=2 with H on each qubit of a: its lowering spills on its
    first H (see ``test_simulate_runs_a_lowering_as_the_circuit_it_lowers``)."""
    inst = build_adder(2)
    front = tuple(h(q) for q in inst.circuit.layout.register("a").qubits())
    return Circuit(inst.circuit.n_qubits, front + inst.circuit.ops,
                   inst.circuit.layout)


@pytest.mark.parametrize("make, inputs", [
    (lambda: lower_to_clifford_t(build_multiplier(2).circuit),
     _mul_inputs(build_multiplier(2), 16)),
    (lambda: lower_to_clifford_t(_spilled_adder()), range(32)),
    (lambda: _wraps(build_multiplier(2).circuit, "p")[0],
     _mul_inputs(build_multiplier(2), 16)),
], ids=["basis", "spilled", "wrapped"])
def test_simulate_of_a_kept_lift_is_byte_identical(make, inputs):
    c = make()
    first = [simulate(c, j).amps.tobytes() for j in inputs]
    assert "_lifted" in vars(c)
    assert [simulate(c, j).amps.tobytes() for j in inputs] == first
    fresh = Circuit(c.n_qubits, c.ops, c.layout)
    assert "_lifted" not in vars(fresh)
    assert [simulate(fresh, j).amps.tobytes() for j in inputs] == first


@pytest.mark.parametrize("make", [
    lambda c: Circuit(c.n_qubits, c.ops, c.layout),
    lower_to_clifford_t,
    lambda c: inverse_circuit(lower_to_clifford_t(c)),
    lambda c: parse(serialize(lower_to_clifford_t(c))),
], ids=["Circuit", "lower_to_clifford_t", "inverse_circuit", "parse"])
def test_each_circuit_keeps_its_lift(make):
    c = make(build_multiplier(2).circuit)
    assert "_lifted" not in vars(c)
    kept = c._lifted
    assert kept == lift(c.ops)
    assert c._lifted is kept


def test_a_kept_lift_leaves_equality_hash_and_copies_alone():
    lowered = lower_to_clifford_t(build_adder(2).circuit)
    twin = Circuit(lowered.n_qubits, lowered.ops, lowered.layout)
    kept = lowered._lifted
    assert "_lifted" not in vars(twin)
    assert lowered == twin and twin == lowered
    assert hash(lowered) == hash(twin) and repr(lowered) == repr(twin)
    expected = [simulate(twin, j).amps.tobytes() for j in range(32)]
    for copied in (pickle.loads(pickle.dumps(lowered)), copy.deepcopy(lowered)):
        assert vars(copied)["_lifted"] == kept
        assert copied == lowered and hash(copied) == hash(lowered)
        assert [simulate(copied, j).amps.tobytes() for j in range(32)] == expected


def test_concurrent_first_calls_match_a_sequential_run():
    # 4 threads, switching often, race on the shared circuit's first lift
    inst = build_multiplier(3)
    inputs = _mul_inputs(inst, 8)
    sequential = lower_to_clifford_t(inst.circuit)
    expected = [simulate(sequential, j).amps.tobytes() for j in inputs]
    shared = lower_to_clifford_t(inst.circuit)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(simulate, shared, j) for j in inputs]
            got = [f.result(timeout=60).amps.tobytes() for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == expected
    assert shared._lifted == sequential._lifted


# ---------------------------------------------------------------------------
# scheduling
# ---------------------------------------------------------------------------

def _layer_index_oracle(ops):
    """Longest-path depth per gate, computed independently of the scheduler."""
    last = {}
    out = []
    for g in ops:
        at = max((last.get(q, -1) for q in g.qubits), default=-1) + 1
        out.append(at)
        for q in g.qubits:
            last[q] = at
    return out


def test_schedule_examples():
    assert len(schedule_layers(Circuit(2, (h(0), h(1))))) == 1
    assert len(schedule_layers(Circuit(1, (h(0), t(0))))) == 2
    c = Circuit(2, (t(0), t(1), cnot(0, 1), t(0)))
    layers = schedule_layers(c)
    assert len(layers) == 3
    t_depth = sum(1 for layer in layers
                  if any(g.kind in ("t", "tdg") for g in layer))
    assert t_depth == 2


def test_schedule_validity_properties():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = 5
        ops = []
        for _ in range(40):
            r = rng.integers(3)
            qs = rng.choice(n, size=r + 1, replace=False)
            if r == 0:
                ops.append(t(int(qs[0])))
            elif r == 1:
                ops.append(cnot(int(qs[0]), int(qs[1])))
            else:
                ops.append(ccx(int(qs[0]), int(qs[1]), int(qs[2])))
        c = Circuit(n, tuple(ops))
        layers = schedule_layers(c)
        # within-layer disjointness
        for layer in layers:
            seen = set()
            for g in layer:
                assert not (seen & set(g.qubits))
                seen |= set(g.qubits)
        # flattening the layers preserves each qubit's gate order
        flat = [g for layer in layers for g in layer]
        for q in range(n):
            original = [g for g in ops if q in g.qubits]
            flattened = [g for g in flat if q in g.qubits]
            assert original == flattened
        # depth matches the independent longest-path computation, and the
        # schedule is ASAP: anything past layer 0 is blocked by a qubit
        # conflict in the layer right before it
        expected = _layer_index_oracle(ops)
        assert len(layers) == max(expected) + 1
        for i in range(1, len(layers)):
            prev_qubits = {q for g in layers[i - 1] for q in g.qubits}
            for g in layers[i]:
                assert set(g.qubits) & prev_qubits


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_resources_single_toffoli():
    rep = resources(Circuit(3, (ccx(0, 1, 2),)))
    assert rep.t_count == 7
    assert rep.qubit_cost == 3
    assert rep.gate_histogram["t"] + rep.gate_histogram["tdg"] == 7


def test_resources_all_clifford():
    rep = resources(Circuit(2, (h(0), cnot(0, 1))))
    assert rep.t_count == 0
    assert rep.t_depth == 0
    assert rep.depth == 2


def test_resources_adder_t_count_is_seven_per_toffoli():
    inst = build_adder(4)
    toffolis = sum(1 for g in inst.circuit.ops if g.kind == "ccx")
    rep = resources(inst.circuit)
    assert rep.t_count == 7 * toffolis == 49
    assert rep.ancilla_count == 1
    assert rep.garbage_count == 0


@pytest.mark.parametrize("c", corpus())
def test_resource_invariants(c):
    rep = resources(c)
    assert rep.t_depth <= rep.t_count
    assert rep.depth >= rep.t_depth
    assert rep.qubit_cost == c.n_qubits
    assert rep.t_count == rep.gate_histogram.get("t", 0) + \
        rep.gate_histogram.get("tdg", 0)


@pytest.mark.parametrize("c", corpus())
def test_resources_invariant_under_round_trip(c):
    assert resources(parse(serialize(c))) == resources(c)


# sha256 of serialize(lower_to_clifford_t(c)) and of the sorted JSON of
# resources(c), pinned so that a change to lowering or costing is shown to
# produce byte-identical lowered circuits and identical reports.  Taylor
# constants are register contents, so both constant sets share a pair.
GOLDEN_LOWERED_AND_RESOURCES = {
    ("adder", 1): (
        "cfbefbe63049b4b9c54e62c8edce449473c95afed976479f8cecb3b810c3937d",
        "1d4399da0b9ca1035b1672d3a552485f4aaaed1c36bf441b1522cf0d8e819721"),
    ("adder", 2): (
        "ebc6a22c3e5dee1702a28677e6b4ed142a55ac2375a4085237396492e9eda772",
        "7a7ec2e891f4c0a654376c107e55cf11725d0cb244eae8579cee0ccfbb9893ef"),
    ("adder", 3): (
        "344eca09d22af568e16c61d340d5e94d079cc8771307dd476dedc5da137479c5",
        "49b6e36f5ef618016aecd7f99b1e772f3d985641c35f33d31ac6eccf74e5ac2a"),
    ("adder", 4): (
        "6a0375cd1c6d30b04d875fd102c39c9c0df9a5078afb5d0dd58baa6b597f43c1",
        "76009d99765a18091bcab390680280371b87047b521dbb400b1330d86f3aaa27"),
    ("adder", 5): (
        "13e2165f545f25d9952794ae37423b34ef66ddb30dd3a3fdbe83909a3d15370c",
        "0626a643d00d466cc56439f04c4c7d96ab41d7cc984adbdd9c82334092859eb3"),
    ("adder", 6): (
        "7db97cc9ab10476a3c18b77b96ab3d95436757b33377b0b4c028f6fd46392746",
        "5d9614f201b4c70b17c7b0f90ba0abec012fc2eb69dc8f560049b0f21efb62b4"),
    ("adder", 7): (
        "62a6c2f056eb9ad53017f2c43c11a83ce5387049e9f6ba72c668dedac1a770c5",
        "35c20ff14b9b4dcd953a4bb62bfba57a2c46c437a489e08bd6cc875400fab707"),
    ("adder", 8): (
        "508fa1b3c2ac6eaeb693b0cec78304cfd50b6277f5bac0346d0c0266568dff21",
        "4441f7da85602d9974fe4f22563a12e55a12cd93a342069f1b7830bed9dff9c8"),
    ("sub", 1): (
        "2610227a84d8fc2f74ab5b80abeb2d09bd5bda97beb1bb51c520bc06df10a8ea",
        "92a3494ee12a4ea990172101d2afdfd50940a9c9981c713cac1a0be6fd28de0b"),
    ("sub", 2): (
        "9253493fcdd09dcfd37e874191f336ca766f9c87dc9b04b7e4db82b61c280f04",
        "b97656ac8b2bcec3307a136161bc9cfad8c640e82eba1fd756c204aa7044867a"),
    ("sub", 3): (
        "af6a532cb34de06be899d00eefd50d130668c7e0832bb4e88ac1778fadfc1220",
        "b326e707104a6571b32c4b2b9c7d06c8ef0037b8c6d2e6b396419a2468507fb5"),
    ("sub", 4): (
        "a3fba02fe94ab364d64497c63d11f319ce3ca032ae5339f0879388a61adcdec8",
        "d7fbdc8d435460428d901b7d45389e59f645588ece622cf90527b0627bbe7772"),
    ("sub", 5): (
        "938ca1c6c2966d206c05dbd543bb4320c46c0774cf0714f33a6b35cc16361c43",
        "e8bbff42f526d708b45134feacbfc9a24623043faf8ac187031f528d4762017a"),
    ("sub", 6): (
        "83a4c71ba1251a43851732ffd901cd30137dc66673f3757d8e19f2d60ebab545",
        "2fc41ab44eb74aa97b4f1671c3fb0ad87335d2e653dc311c1b1639ddcb350dc1"),
    ("sub", 7): (
        "2492b91b80fb787045203500c2c884463ffbc92221689f2f26772e1e1b5de130",
        "234fc17a0368c7a574933a54fca482a6a5b5ff26f77af7761a11f1d46b9628d8"),
    ("sub", 8): (
        "620e2e7671052044bd31097ab2a481a81ae23b76f47d035fdaa8c712fa344fda",
        "a9c51f58e37f6fc1b5f49df80dfee837183aab79cfe6923a512fb31356a9f44e"),
    ("ctrladd", 1): (
        "54c5be8d6bf29aa3a0e1765d0d13aa4fbbee6b49a56d8ae30f9604b47e8c523f",
        "9a23da2b7d96c522d6a97a2eab6c7e4e87cc23ce35104a78b4d95b3cf32ba484"),
    ("ctrladd", 2): (
        "e20a171ef99ef88676430d72a720a6d96d31e017fe47ef0d9c710c6f093bc633",
        "628ee004bb55c3e5106f2ebeecdc84265c04d858b890614289ca53f963a0095c"),
    ("ctrladd", 3): (
        "2367231bd673e10f6bfcefce3ee16b7bacfd63f5417a9f91b152dfe069158a5c",
        "a911eb6decdf39c0d9ddb816485a38764c028a6750b55a3cbe864b4c60badfb0"),
    ("ctrladd", 4): (
        "7f58633bd27bdc5141b917bf4675b6042c50eecac9a2a211b194d63c4d18b838",
        "451efca5fdeb3c92b582b2640430ba089d37cac977f71946b2629d8e30429b42"),
    ("ctrladd", 5): (
        "45d51efcc5077ae3fabc14ec93970c32fe4f1ada5b5f607511819bd6d9cb3999",
        "bc3d09c17cd4473e26fd63fdcdd77ef247192951c183ab1cb295c65253e3364a"),
    ("ctrladd", 6): (
        "a37c11ab564433f1b72dac781a8e1ce0e19af87ed73f04eb886de7bb3a8de3d9",
        "dca5c6973eb0b33067a8b8fb5404a2339322e5e294a98bf8a53a5678f544273a"),
    ("ctrladd", 7): (
        "2026072fa73917be5d91e83b76b62542885e055d8ceae1c37a5d7a9b293f353f",
        "ceae69977a8e82f440a3215505e7f5d1d2ff225c88415fe920b883d8706c16ae"),
    ("ctrladd", 8): (
        "3bf96fda742368865f601e8e76034f4b6a5aefd11c13fe288150163729f9ae61",
        "a76c740c8b09b0a23f720321cf116eb0398cc5a5f620d039d8494fb7ecbe8a65"),
    ("mul", 1): (
        "c7437bf6d82fa0ff39ddd1a4ebb901d93daf6bde256e8d2205ae746121574aed",
        "30b632d9a2292414c68d2c842e83d62085dc5884d7aa13910a33934d997fa019"),
    ("mul", 2): (
        "9aee2ae4d7b7de516c8cf6940efb0ce8ec47470e231b43cad95e38102ef48fde",
        "9ef7a008307d20f7ccebfa5da7c7658cccc9dbad236d6460d081b32dfc717f3e"),
    ("mul", 3): (
        "e352cf5f72ecb3fef0772dc379a2b76bc98ec4fd02891e624daea6ab5db8947c",
        "9cc8f81d418412e765b95ae4a3889098db30a11f9149b9d5915f24de4c7321f0"),
    ("mul", 4): (
        "29f2cbe80db7a51f9d249680679f021e569959f0e432551ba34020f399b697a5",
        "6954971af999d1bbe1b7f6530abc2e524f988f523e3696fb73a82cfedf49c5f5"),
    ("mul", 5): (
        "b82971b294693645b922c3bf8015eb45a5f5605dcdbbd9823c0bcd565e0b1545",
        "2bbd23f92a242eb6bb735c5940ea4c4c99043445b1a24a75531962db37f9d221"),
    ("mul", 6): (
        "caf173958c4d0874330636027b4583619c7c05dbb210284ff1f1fb2600b12b39",
        "22868de173a163f62a8cf77fe4567fe1fe965dc444685e3a3e42ae9fcb2af7ba"),
    ("mul", 7): (
        "a9ce45f8b021870df1244214d744a6aa787ac7ea40fd8c0237df89b317326cc5",
        "7c82dc7893a39ee31bcab772a5b282f302af47b5d4856a1da19742df9db49647"),
    ("mul", 8): (
        "3b2cd2ebb5913724e6c610e1473b528d4c6cce08a9c1558c0d4ac6ef3cd5b9f8",
        "1cedf4b6c9f3b0f9a56c00da67aa76dd3db3d11b5a30d20324ea18e6b65cacf0"),
    ("taylor", 1): (
        "680d3b4344550bf3a98e4a91294f9afc595c7af5b2bd48683bb0ad27ba6c8b81",
        "b50583d3f224379fcab7b3d01b780cb41f8666be73e0a1ec58c9367ffd97fca7"),
    ("taylor", 2): (
        "34ba57935287217e5ded75e3182255ab8ae7b974b5c48e8198aed8f3d31e0743",
        "6264deedead5e40d5aa95791e0f4b6624982ae5116008b6c1fe7d844437e09d4"),
    ("taylor", 3): (
        "a4911b4241ea4ac21be9089253104c04edbda5dcea09c389403592c59bbd2a76",
        "77694e9f19e8949d77a8d02f4d9e908b8d8353a932912e4f14cd45a115f015b2"),
    ("taylor", 4): (
        "419fe70a6b06f153d00827a1e9929691f5c43f35ac3de4795e97d5976a1f1cda",
        "a4e24d1d7a73b8d36cd422bfbde5b0b7aa8ca4dd54806bb57d4502995e1ae32a"),
    ("taylor", 5): (
        "8e52b369bf749aeabb8736e290c5ed979098f7e0baa1249de04b677a27858a4c",
        "f939634d7f2171f9a2bd881699767c16640ff2d59d6f8ce9d762f93779f3c03b"),
    ("taylor", 6): (
        "60eb195f5d572735ac699031662964bc0179e870837ee33de66e3dd3e969748f",
        "f421dd0d4e6a09ef8aff1765cef52e3bc0eb7720c32505f8ac310dd3e549d01d"),
    ("taylor", 7): (
        "7b404c9fea80056544f71098cfbd8aa28d4a18c8c373280f3b0717322ffe95c4",
        "3ce232cc826bc45c3b813e984c233b6a682da9678f414200227eea76e5c1cc1c"),
    ("taylor", 8): (
        "264d382e9ce2d27e3738f7e958948d4299ac65a386c410c46cee2cc0c6828ae2",
        "6412c86b97de95cb3ff216dcc0c92d0eaebbccd15ba822d434245bd2ae481c54"),
    ("bennett", 1): (
        "565c40126e75c9a92c9fbc4dbb27301c52107110473f9a730a2936feb3f40850",
        "66a77f678a06666257a7431004aeb576e102755123b4e8790250356bdcb5930c"),
    ("bennett", 2): (
        "a980f959309dadd17cb0cf47accf28f1e3a1aa9c257d78556894cfcde1b9549d",
        "91b807307a4e9af4d7524665abfb16244c4098431982637eaa529f2b06c3427a"),
    ("bennett", 3): (
        "eecf7600812af6a0d97c620254a224367aabfa332479e815b017e28707779c1f",
        "f2ea9fad1b408db84a96cd0cedf5c2b6cfef4a567f9dfb11277b3952482cb167"),
    ("bennett", 4): (
        "0987a652d71269a2e83d34beec489ca2e234809f94e93c4f7c2252897a38288a",
        "d9f9611d7e83ec3146cd09748a5dca8b7ca0ec2d2122579058e4af84a7456458"),
}


def _golden_circuit(kind, n, consts):
    if kind == "bennett":
        inner = build_multiplier(n).circuit
        wires = tuple(inner.layout.register("p").qubits())
        return bennett_wrap(BennettSpec(inner, wires))
    if kind == "taylor":
        m = 1 << n
        return build_taylor(n, *((1 % m, 1 % m, 1 % m, 0) if consts == "ones"
                                 else (m - 1, (m - 1) // 2, 1 % m, m - 1))).circuit
    return BUILDERS[kind](n).circuit


@pytest.mark.parametrize("kind,n,consts", [
    (kind, n, consts) for kind, n in sorted(GOLDEN_LOWERED_AND_RESOURCES)
    for consts in (("ones", "top") if kind == "taylor" else (None,))])
def test_golden_lowering_and_resources_digests(kind, n, consts):
    c = _golden_circuit(kind, n, consts)
    lowered = serialize(lower_to_clifford_t(c))
    report = json.dumps(resources(c).to_dict(), sort_keys=True)
    assert (hashlib.sha256(lowered.encode()).hexdigest(),
            hashlib.sha256(report.encode()).hexdigest()) == \
        GOLDEN_LOWERED_AND_RESOURCES[kind, n]


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def test_serialize_single_h():
    text = serialize(Circuit(1, (h(0),)))
    assert text == "qubits 1\nregister q 0..0 input\nh 0\n"


@pytest.mark.parametrize("c", corpus())
def test_round_trip_structural_identity(c):
    assert parse(serialize(c)) == c


def test_parse_accepts_comments_and_blanks():
    c = parse("# adder fragment\nqubits 2\n\ncnot 0 1  # mix\n")
    assert c.ops == (cnot(0, 1),)
    assert c.layout == default_layout(2)


def test_parse_duplicate_qubit():
    with pytest.raises(ParseError, match="duplicate qubit"):
        parse("qubits 2\ncnot 0 0\n")


def test_parse_unknown_mnemonic():
    with pytest.raises(ParseError, match="unknown gate"):
        parse("qubits 1\nfoo 0\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse("qubits 2\nh 0\ncnot 0 2\n")
    assert err.value.lineno == 3


def test_parse_missing_header():
    with pytest.raises(ParseError, match="header"):
        parse("h 0\n")
    with pytest.raises(ParseError, match="header"):
        parse("")


def test_parse_duplicate_header():
    with pytest.raises(ParseError, match="duplicate"):
        parse("qubits 1\nqubits 1\n")


def test_parse_register_errors():
    with pytest.raises(ParseError, match="role"):
        parse("qubits 2\nregister a 0..1 junk\n")
    with pytest.raises(ParseError, match="out of bounds"):
        parse("qubits 2\nregister a 0..2 input\n")
    with pytest.raises(ParseError, match="cover|partition"):
        parse("qubits 3\nregister a 0..1 input\n")
    with pytest.raises(ParseError, match="arity|indices"):
        parse("qubits 2\ncnot 0\n")


@pytest.mark.parametrize("line, message", [
    ("register a 0..1", "expected 'register name lo..hi role'"),
    ("register a 0..1 input extra", "expected 'register name lo..hi role'"),
    ("register a 0-1 input", "malformed register range '0-1'"),
    ("register a 0..1..1 input", "malformed register range '0..1..1'"),
])
def test_parse_register_line_shape_errors(line, message):
    with pytest.raises(ParseError) as err:
        parse(f"qubits 2\nh 0\n{line}\n")
    assert str(err.value) == f"line 3: {message}"


@pytest.mark.parametrize("bad,match", [("cnot 0 2", "out of range"),
                                       ("cnot 1 1", "duplicate qubit")])
def test_parse_repeated_bad_line_fails_at_first_occurrence(bad, match):
    with pytest.raises(ParseError, match=match) as err:
        parse(f"qubits 2\nh 0\n{bad}\nh 0\n{bad}\n")
    assert err.value.lineno == 3


@pytest.mark.parametrize("token", ["1_2", "\u0663", "+1"],
                         ids=["underscore", "arabic-indic-three", "plus"])
def test_parse_operands_must_be_ascii_decimal(token):
    # int() accepts each of these; the format admits [0-9]+ only
    texts = [f"qubits {token}\n",
             f"qubits 20\nregister q {token}..19 input\n",
             f"qubits 20\nregister q 0..{token} input\n",
             f"qubits 20\nh 0\ncnot 0 {token}\n"]
    for text in texts:
        with pytest.raises(ParseError, match="not an integer") as err:
            parse(text)
        assert err.value.lineno == text.count("\n")


@pytest.mark.parametrize("token, message", [
    ("+1", "line 3: qubit index is not an integer: '+1'"),
    ("1_0", "line 3: qubit index is not an integer: '1_0'"),
    ("\u0661", "line 3: qubit index is not an integer: '\u0661'"),
    ("\u00b2", "line 3: qubit index is not an integer: '\u00b2'"),
    ("1.5", "line 3: qubit index is not an integer: '1.5'"),
    ("-0", "line 3: qubit index is not an integer: '-0'")])
def test_gate_line_names_its_first_bad_operand(token, message):
    for line in (f"cnot 0 {token}", f"ccx {token} 1_1 2"):
        with pytest.raises(ParseError) as err:
            parse(f"qubits 12\nh 0\n{line}\nh 1\n")
        assert str(err.value) == message
        assert err.value.lineno == 3


@pytest.mark.parametrize("text, message", [
    ("qubits " + "1" * 5000 + "\n",
     "line 1: qubit count has more than 640 digits"),
    ("qubits 2\nh " + "1" * 5000 + "\n",
     "line 2: qubit index has more than 640 digits"),
    ("qubits 2\nh 0\ncnot 0 " + "0" * 640 + "1\n",
     "line 3: qubit index has more than 640 digits"),
    ("qubits 2\nregister a 0.." + "1" * 5000 + " input\n",
     "line 2: register high index has more than 640 digits")],
    ids=["header", "operand", "zero-padded-operand", "register-bound"])
def test_parse_refuses_a_number_past_max_digits(text, message):
    # int() would raise a bare ValueError past its 4,300-digit limit
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


def test_parse_reads_max_digits_under_the_lowest_int_limit():
    # MAX_DIGITS is the least value sys.set_int_max_str_digits takes, so
    # int() never refuses a token that passed
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int digit limit")
    wide = "9" * MAX_DIGITS
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(MAX_DIGITS)
    try:
        c = parse(f"qubits {wide}\ncnot {'0' * MAX_DIGITS} 1\n")
    finally:
        sys.set_int_max_str_digits(saved)
    assert c.n_qubits == int(wide)
    assert c.ops == (cnot(0, 1),)


def test_parse_same_gate_in_any_spelling_is_one_gate():
    c = parse("qubits 3\nccx 0 1 2\n  ccx   0  1\t2  \nccx 0 1 2 # again\n"
              "ccx 0 1 2\nccx 0 1 2\n")
    assert c.ops == (ccx(0, 1, 2),) * 5


_LINES = st.sampled_from([
    "qubits 3", "qubits 0", "qubits x", "register a 0..2 input",
    "register a 0..1 input", "register b 2..2 ancilla", "register c 1..0 input",
    "register d 0-2 output", "h 0", "h 3", "h -1", "cnot 0 1", "cnot 1 1",
    "cnot 0", "ccx 0 1 2", "cswap 2 1 0", "swap 0 1 2", "t 1 # c", "x 1.5",
    "bogus 0", "", "# only a comment"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_LINES, st.text()), max_size=8))
def test_parse_raises_only_parse_error(lines):
    try:
        c = parse("\n".join(lines))
    except ParseError:
        return
    assert parse(serialize(c)) == c


def _reference_parse_int(token, lineno, what):
    if not (token.isascii() and token.isdigit()):
        raise ParseError(lineno, f"{what} is not an integer: {token!r}")
    return int(token)


def _reference_parse(text):
    """``parse`` as it was before its token memo: every distinct gate
    line is checked by ``Gate`` and against the width."""
    n_qubits = None
    registers = []
    first_register_line = 0
    ops = []
    gates = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        gate = gates.get(raw)
        if gate is not None:
            ops.append(gate)
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n_qubits is None:
            if tokens[0] != "qubits" or len(tokens) != 2:
                raise ParseError(lineno, "expected 'qubits N' header")
            n_qubits = _reference_parse_int(tokens[1], lineno, "qubit count")
            if n_qubits < 1:
                raise ParseError(lineno, "qubit count must be positive")
            continue
        if tokens[0] == "qubits":
            raise ParseError(lineno, "duplicate 'qubits' header")
        try:
            if tokens[0] == "register":
                if len(tokens) != 4:
                    raise ParseError(lineno,
                                     "expected 'register name lo..hi role'")
                _, name, span, role = tokens
                lo_hi = span.split("..")
                if len(lo_hi) != 2:
                    raise ParseError(lineno,
                                     f"malformed register range {span!r}")
                lo = _reference_parse_int(lo_hi[0], lineno,
                                          "register low index")
                hi = _reference_parse_int(lo_hi[1], lineno,
                                          "register high index")
                if not 0 <= lo <= hi < n_qubits:
                    raise ParseError(lineno,
                                     f"register range {span} out of bounds")
                if not registers:
                    first_register_line = lineno
                registers.append(Register(name, lo, hi - lo + 1, role))
                continue
            operands = tokens[1:]
            digits = "".join(operands)
            if digits.isascii() and digits.isdigit():
                qubits = tuple(map(int, operands))
            else:
                qubits = tuple(_reference_parse_int(tok, lineno, "qubit index")
                               for tok in operands)
            gate = Gate(tokens[0], qubits)
        except DomainError as exc:
            raise ParseError(lineno, str(exc)) from None
        if max(qubits) >= n_qubits:
            raise ParseError(lineno, f"qubit index out of range in {line!r}")
        gates[raw] = gate
        ops.append(gate)
    if n_qubits is None:
        raise ParseError(0, "missing 'qubits' header")
    layout = (RegisterLayout(tuple(registers)) if registers
              else default_layout(n_qubits))
    try:
        layout.validate(n_qubits)
    except DomainError as exc:
        raise ParseError(first_register_line, str(exc)) from None
    return Circuit(n_qubits, tuple(ops), layout)


# Operand tokens for a 12-qubit header: canonical, leading zeros, out of
# range, signed, with "_", non-ASCII digits and no number at all.
_TOKENS = st.one_of(
    st.sampled_from(["0", "1", "2", "11"]),
    st.sampled_from(["00", "01", "002", "011", "12", "012", "13", "100",
                     "99999999999999999999"]),
    st.sampled_from(["+1", "-1", "-0", "1_0", "\u0663", "\u00b2",
                     "\u0661\u0662", "\uff11", "1.5", "a", "x1", "0x1"]))
_KINDS = st.sampled_from(sorted(GATE_ARITY) + [
    "foo", "H", "CNOT", "qubits", "register", "#h"])
_SPACE = st.sampled_from([" ", "  ", "\t", " \t ", "\x0b", "\u00a0",
                          "\u3000"])


@st.composite
def _gate_line(draw):
    words = [draw(_KINDS)] + draw(st.lists(_TOKENS, max_size=4))
    line = words[0]
    for word in words[1:]:
        line += draw(_SPACE) + word
    lead = draw(st.sampled_from(["", " ", "\t", "\u2003"]))
    tail = draw(st.sampled_from(["", " ", "\t", " # note", "# 1 2", "#"]))
    return lead + line + tail


@st.composite
def _gate_texts(draw):
    pool = draw(st.lists(_gate_line(), min_size=1, max_size=6))
    lines = draw(st.lists(st.sampled_from(pool + ["", "# c", "h 0"]),
                          max_size=12))
    return "qubits 12\n" + "\n".join(lines) + "\n"


def _outcome(parser, text):
    try:
        return parser(text)
    except ParseError as exc:
        return exc.lineno, exc.message


@settings(max_examples=600, deadline=None)
@given(_gate_texts())
@example("qubits 12\nccx 1 2 01\n")
@example("qubits 12\nh 0\ncnot 0 12\n")
@example("qubits 12\nswap 11 011\nx 011\n")
def test_parse_agrees_with_the_reference_parser(text):
    assert _outcome(parse, text) == _outcome(_reference_parse, text)


def test_parse_memo_keeps_each_spelling_of_a_qubit():
    c = parse("qubits 3\ncnot 1 2\ncnot 01 2\ncnot 1 002\nccx 2 01 0\n")
    assert c.ops == (cnot(1, 2),) * 3 + (ccx(2, 1, 0),)
    assert all(type(q) is int for g in c.ops for q in g.qubits)
    with pytest.raises(ParseError) as err:
        parse("qubits 3\ncnot 1 2\ncnot 01 1\n")
    assert str(err.value) == "line 3: duplicate qubit in cnot (1, 1)"


def test_circuit_names_the_first_gate_past_its_width():
    with pytest.raises(DomainError, match=r"cnot \(0, 3\) exceeds 2 qubits"):
        Circuit(2, (h(0), cnot(0, 1), cnot(0, 3), x(5)))


@pytest.mark.parametrize("name", [
    "", " ", "a b", "a\tb", "a\nb", "x#y", "#", "a\x1cb", "a\x85b",
    "a\u2028b", " a", "a "])
def test_register_names_the_text_format_cannot_carry(name):
    with pytest.raises(DomainError, match="register name"):
        Register(name, 0, 1, "input")


@pytest.mark.parametrize("name", [None, 1, b"a"])
def test_register_name_that_is_no_string_is_refused(name):
    with pytest.raises(DomainError, match="register name"):
        Register(name, 0, 1, "input")


@pytest.mark.parametrize("start, size", [(0, 0), (-1, 2), (3, -1)])
def test_register_extent_is_a_start_and_a_positive_size(start, size):
    with pytest.raises(DomainError, match="bad register extent a"):
        Register("a", start, size, "input")


@pytest.mark.parametrize("width", [2.5, 2.0, "2", None])
def test_float_widths_raise_domain_error(width):
    with pytest.raises(DomainError, match="qubit count .* is not an integer"):
        Circuit(width)
    with pytest.raises(DomainError, match="register a start .* not an integ"):
        Register("a", width, 1, "input")
    with pytest.raises(DomainError, match="register a size .* not an integer"):
        Register("a", 0, width, "input")


def test_numpy_widths_are_stored_as_python_ints():
    r = Register("a", np.int64(1), np.uint8(2), "input")
    c = Circuit(np.int64(3), (h(0),),
                RegisterLayout((Register("z", 0, 1, "ancilla"), r)))
    assert (type(c.n_qubits), type(r.start), type(r.size)) == (int,) * 3
    assert c == Circuit(3, (h(0),), RegisterLayout((
        Register("z", 0, 1, "ancilla"), Register("a", 1, 2, "input"))))


def test_circuit_needs_a_qubit():
    with pytest.raises(DomainError, match="qubit count must be at least 1"):
        Circuit(0)


def test_layout_with_a_gap_does_not_partition():
    layout = RegisterLayout((Register("a", 0, 1, "input"),
                             Register("b", 2, 1, "input")))
    with pytest.raises(DomainError,
                       match="do not partition the qubit range at 2"):
        Circuit(3, (), layout)


def test_layout_has_no_register_of_an_unknown_name():
    with pytest.raises(DomainError, match="no register named 'zz'"):
        default_layout(2).register("zz")


@pytest.mark.parametrize("tail", [(), (x(0),)], ids=["last-gate", "more"])
def test_sparse_evaluate_refuses_support_past_its_limit(tail):
    # 17 H gates spread one basis state over 2^17 > MAX_SPARSE_SUPPORT,
    # whether or not gates follow the one that passes the limit
    c = Circuit(17, tuple(h(q) for q in range(17)) + tail)
    with pytest.raises(ResourceError,
                       match=r"more than 65536 basis states .* after gate 16"):
        sparse_evaluate(c, 0)


def test_layout_validation():
    with pytest.raises(DomainError):
        Circuit(2, (), RegisterLayout((Register("a", 0, 1, "input"),)))
    with pytest.raises(DomainError):
        RegisterLayout((Register("a", 0, 1, "bogus"),))
    with pytest.raises(DomainError):
        Circuit(2, (), RegisterLayout((Register("a", 0, 1, "input"),
                                       Register("a", 1, 1, "input"))))


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def test_simulate_bell_prep():
    st = simulate(bell_circuit(), 0)
    assert np.allclose(st.amps, [SQ2, 0, 0, SQ2], atol=1e-12)


def test_simulate_empty_circuit_passes_basis_through():
    st = simulate(Circuit(3), 5)
    assert np.argmax(np.abs(st.amps)) == 5


def test_simulate_adder_example():
    inst = build_adder(4)
    st = simulate(inst.circuit, inst.encode({"a": 3, "b": 5}))
    out = inst.decode(int(np.argmax(np.abs(st.amps))))
    assert out == {"b": 8, "a": 3, "z": 0}


def test_simulate_rejects_wide_circuits():
    with pytest.raises(ResourceError):
        simulate(Circuit(25), 0)


def test_simulate_validates_input_index():
    with pytest.raises(DomainError):
        simulate(Circuit(2), 4)


def test_simulate_checks_the_index_before_the_width():
    # an index out of range reads as such past the statevector ceiling too
    with pytest.raises(DomainError, match="out of range"):
        simulate(Circuit(25), -1)
    with pytest.raises(ResourceError, match="statevector ceiling"):
        simulate(Circuit(25), 0)


# ---------------------------------------------------------------------------
# classical permutation path
# ---------------------------------------------------------------------------

def test_permutation_path_agrees_with_statevector():
    c = build_multiplier(2).circuit
    for j in range(0, 1 << c.n_qubits, 7):
        st = simulate(c, j)
        assert abs(st.amps[permutation_output(c, j)] - 1) < 1e-9


def test_permutation_path_handles_swap_and_fredkin():
    c = Circuit(3, (x(0), swap(0, 2), cswap(2, 0, 1)))
    for j in range(8):
        st = simulate(c, j)
        assert abs(st.amps[permutation_output(c, j)] - 1) < 1e-12


def test_permutation_path_scales_past_statevector_ceiling():
    n = 40
    c = Circuit(n, tuple(cnot(i, i + 1) for i in range(n - 1)))
    assert is_permutation_circuit(c)
    assert permutation_output(c, 1) == (1 << n) - 1


def test_permutation_path_rejects_superposition_gates():
    c = Circuit(1, (h(0),))
    assert not is_permutation_circuit(c)
    with pytest.raises(DomainError):
        permutation_output(c, 0)
    with pytest.raises(DomainError, match="not a basis permutation gate"):
        run_columns(c, [0], 1)


@pytest.mark.parametrize("cols, message", [
    ([0], "1 columns for 2 qubits"),
    ([1.5, 0], "column 0 1.5 is not an integer"),
    ([0, None], "column 1 None is not an integer"),
    ([-1, 0], r"column 0 is outside \[0, 2\^2\)"),
    ([0, 4], r"column 1 is outside \[0, 2\^2\)"),
])
def test_run_columns_checks_its_columns_before_any_gate(cols, message):
    given = list(cols)
    with pytest.raises(DomainError, match=message):
        run_columns(Circuit(2, (x(0), x(1))), cols, 2)
    assert cols == given  # no gate ran


def test_run_columns_takes_integer_columns_as_python_ints():
    cols = [np.int64(1), True, 2]
    run_columns(Circuit(2, (cnot(0, 1),)), cols, 2)
    assert cols == [1, 0, 2] and all(type(c) is int for c in cols)


def test_permutation_path_validates_input_index():
    c = Circuit(3, (x(0),))
    for bad in (-1, 8):
        with pytest.raises(DomainError):
            permutation_output(c, bad)


def test_basis_index_must_be_an_integer():
    c = Circuit(2, (x(0),))
    for run in (sparse_evaluate, simulate, permutation_output,
                lambda c, j: new_basis_state(c.n_qubits, j)):
        with pytest.raises(DomainError, match="basis index 1.0 is not an integer"):
            run(c, 1.0)


def test_layout_decode_refuses_an_index_past_its_width():
    assert default_layout(3).decode(7) == {"q": 7}
    for index in (8, 1 << 40):
        with pytest.raises(DomainError,
                           match=f"basis index {index} out of range for 3"):
            default_layout(3).decode(index)


def test_permutation_output_runs_at_any_width():
    # 10^11 qubits with every gate on the low ones: the sparse evaluator
    # holds one index and decode shifts instead of masking, so nothing
    # grows with the width.  The child runs under a 1 GiB address-space
    # limit, so a regression that allocated a 10^11-bit integer would
    # fail at once instead of eating the machine's memory
    code = ("from cliffordt.circuit import parse, permutation_output\n"
            "c = parse('qubits 100000000000\\nx 0\\ncnot 0 2\\n"
            "ccx 0 2 5\\nswap 5 1\\ncswap 1 3 4\\n')\n"
            "for j in (0, 16):\n"
            "    out = permutation_output(c, j)\n"
            "    print(out, c.layout.decode(out))\n")
    proc = run_child(code=code, limit=1 << 30)
    assert proc.stderr == ""
    assert proc.stdout == "7 {'q': 7}\n15 {'q': 15}\n"


def gates_on(n, kinds):
    """Gates of the given kinds that fit on n qubits, on random wires."""
    kinds = sorted(k for k in kinds if GATE_ARITY[k] <= n)
    return st.sampled_from(kinds).flatmap(
        lambda k: st.permutations(range(n)).map(
            lambda order: Gate(k, tuple(order[:GATE_ARITY[k]]))))


@st.composite
def permutation_circuits(draw):
    """A random circuit over every permutation gate kind, n <= 10, plus a
    batch of basis inputs."""
    n = draw(st.integers(1, 10))
    ops = draw(st.lists(gates_on(n, PERMUTATION_KINDS), max_size=30))
    inputs = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8))
    return Circuit(n, tuple(ops)), inputs


@settings(max_examples=60, deadline=None)
@given(permutation_circuits(), st.data())
def test_bitsliced_evaluator_agrees_with_statevector(case, data):
    c, inputs = case
    dense = []
    for j in inputs:
        amps = simulate(c, j).amps
        out = int(np.argmax(np.abs(amps)))
        assert amps[out] == 1.0
        dense.append(out)
    assert [permutation_output(c, j) for j in inputs] == dense

    def columns(indices):  # one n-bit register q
        return _pack("q", c.n_qubits, np.array(indices, dtype=np.uint64),
                     len(inputs))
    cols = columns(inputs)
    run_columns(c, cols, len(inputs))
    assert cols == columns(dense)
    # the rows of a drawn mask, read back out of the columns in ascending order
    mask = data.draw(st.integers(0, (1 << len(inputs)) - 1))
    rows = [r for r in range(len(inputs)) if mask >> r & 1]
    assert _unpack(columns(inputs), len(inputs), mask) == [inputs[r] for r in rows]
    assert _unpack(cols, len(inputs), mask) == [dense[r] for r in rows]


@st.composite
def random_circuits(draw):
    """A random circuit over all ten gate kinds, n <= 6."""
    n = draw(st.integers(1, 6))
    return Circuit(n, tuple(draw(st.lists(gates_on(n, GATE_ARITY), max_size=20))))


@st.composite
def clifford_t_circuits(draw, min_qubits=1):
    """A random circuit over h/t/tdg/s/sdg/x/cnot, n <= 8."""
    n = draw(st.integers(min_qubits, 8))
    return Circuit(n, tuple(draw(st.lists(gates_on(n, CLIFFORD_T_KINDS),
                                          max_size=24))))


def sparse_column(c, j):
    """The exact sparse state of ``c`` on input j as a dense vector."""
    amps, k = sparse_evaluate(c, j)
    w = np.exp(1j * np.pi / 4)
    col = np.zeros(1 << c.n_qubits, dtype=complex)
    for index, (a, b, cc, d) in amps.items():
        col[index] = (a + b * w + cc * w ** 2 + d * w ** 3) / np.sqrt(2) ** k
    return col


@settings(max_examples=80, deadline=None)
@given(st.one_of(clifford_t_circuits(), random_circuits()))
def test_sparse_evaluator_matches_matrix_columns(c):
    # random_circuits() adds ccx, swap and cswap acting on a superposition:
    # below 8 qubits simulate spills at the first H, so its own matrix
    # check never runs them on the sparse evaluator
    u = compose_matrices(c.ops, c.n_qubits)
    for j in range(1 << c.n_qubits):
        amps, k = sparse_evaluate(c, j)
        assert all(any(v) for v in amps.values())  # no stored zeros
        assert np.max(np.abs(sparse_column(c, j) - u[:, j])) < 1e-12


@settings(max_examples=25, deadline=None)
@given(clifford_t_circuits(min_qubits=2))
def test_simulate_past_spill_matches_matrix_columns(c):
    # H on every qubit first: the whole basis is in superposition, past
    # the spill support at every width, so the dense kernel finishes
    n = c.n_qubits
    spread = Circuit(n, tuple(h(q) for q in range(n)) + c.ops)
    assert 1 << n > _spill_support(n)
    u = compose_matrices(spread.ops, n)
    for j in range(0, 1 << n, 5):
        assert np.max(np.abs(simulate(spread, j).amps - u[:, j])) < 1e-12


def test_sparse_form_is_canonical():
    # (H S)^3 = w I on qubit 0, and tdg on qubit 1 takes the w back off:
    # three H gates, yet amplitude exactly 1 with exponent 0
    c = Circuit(2, (h(0), Gate("s", (0,))) * 3 + (tdg(1),))
    assert sparse_evaluate(c, 2) == ({2: (1, 0, 0, 0)}, 0)
    assert sparse_evaluate(Circuit(1, (h(0), h(0))), 1) == ({1: (1, 0, 0, 0)}, 0)


def seeded_circuits(seed, count=200, max_qubits=8, max_gates=40):
    """``count`` circuits over all ten gate kinds, each with three basis
    inputs, drawn by ``random.Random(seed)`` so that the draw does not
    depend on the hypothesis version."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_qubits)
        kinds = sorted(k for k in GATE_ARITY if GATE_ARITY[k] <= n)
        ops = []
        for _ in range(rng.randint(0, max_gates)):
            kind = rng.choice(kinds)
            ops.append(Gate(kind, tuple(rng.sample(range(n), GATE_ARITY[kind]))))
        out.append((Circuit(n, tuple(ops)), [rng.randrange(1 << n) for _ in range(3)]))
    return out


# sha256 of the JSON of the sparse evaluator's exact output on
# seeded_circuits(seed), in the order returned: [list(amps.items()), k] of
# sparse_evaluate, and (items, k, applied) of _run_sparse stopped at a
# support limit, so that the entry order and a run cut short are pinned.
# In these draws no H takes a support past 2 to exactly 3, so limits 2
# and 3 stop the same runs.
SPARSE_GOLDEN = {
    1: "561427db8a34e72aeac1333b0b56a60685e3b72d8d0ddf0a1bb3112c7bb55dac",
    2: "8d2649c7df7e96ef7ade0a7dcc369392ab3fe1f9561120c2a468e4ca5b1a2224",
    3: "c2a1bfd4b5aac061f697feac94b90ff42d0bdcc43f5b9fc372320af5a9f9b4a9",
}
RUN_SPARSE_GOLDEN = {
    (1, 1): "a343edb6dc4e960de09933bd1f55f50454a6272e32e989cfaabe731490208ae1",
    (1, 2): "86f22e6edf12e44309451b1dcdc57297dd7c0a51df6a1ebe273db3a0ca0ad3a1",
    (1, 3): "86f22e6edf12e44309451b1dcdc57297dd7c0a51df6a1ebe273db3a0ca0ad3a1",
    (2, 1): "9130a62167996f014401d064355ace6315708c2da9d15abf66bb6125e947652b",
    (2, 2): "604730a791c78a0752ffa0960023761fb2f85c61b5591a3c4d8b7c126e7a6a0c",
    (2, 3): "604730a791c78a0752ffa0960023761fb2f85c61b5591a3c4d8b7c126e7a6a0c",
}


@pytest.mark.parametrize("seed", sorted(SPARSE_GOLDEN))
def test_sparse_evaluate_golden_digest(seed):
    results = []
    for c, inputs in seeded_circuits(seed):
        for j in inputs:
            amps, k = sparse_evaluate(c, j)
            results.append([list(amps.items()), k])
    payload = json.dumps(results).encode()
    assert hashlib.sha256(payload).hexdigest() == SPARSE_GOLDEN[seed]


@pytest.mark.parametrize("seed, limit", sorted(RUN_SPARSE_GOLDEN))
def test_run_sparse_stopped_at_a_limit_golden_digest(seed, limit):
    results = []
    for c, inputs in seeded_circuits(seed):
        for j in inputs:
            amps, k, applied = _run_sparse(c.ops, j, limit)
            results.append((list(amps.items()), k, applied))
    payload = json.dumps(results).encode()
    assert hashlib.sha256(payload).hexdigest() == RUN_SPARSE_GOLDEN[seed, limit]


# sha256 of simulate(c, j).amps.tobytes() over seeded_circuits(seed) of up
# to 12 qubits: below 8 qubits the first H spills to the dense kernel, and
# from 8 qubits on a run spills after an H that leaves more than
# 2^n / 128 basis states, so sparse H output is scattered mid-run
SIMULATE_GOLDEN = {
    1: "cfe4f38c3c0c279f9835cd969a114324f2f152f8fc809933f2038f84f75d7a3c",
    2: "f3f5b818acb9d62180573fdcc3efdc6412eeee9ec45642237ade2afd1d4f3983",
}


@pytest.mark.parametrize("seed", sorted(SIMULATE_GOLDEN))
def test_simulate_golden_digest(seed):
    digest = hashlib.sha256()
    for c, inputs in seeded_circuits(seed, count=60, max_qubits=12, max_gates=60):
        for j in inputs:
            digest.update(simulate(c, j).amps.tobytes())
    assert digest.hexdigest() == SIMULATE_GOLDEN[seed]


def test_lowered_circuits_stay_exact_on_the_sparse_path():
    # a Toffoli template holds 2 basis states, under the spill support
    # from 8 qubits on, so simulate never leaves the exact evaluator
    inst = build_adder(4)
    lowered = lower_to_clifford_t(inst.circuit)
    assert _spill_support(lowered.n_qubits) >= 2
    for j in range(0, 1 << lowered.n_qubits, 37):
        amps = simulate(lowered, j).amps
        out = permutation_output(inst.circuit, j)
        assert amps[out] == 1.0
        assert np.count_nonzero(amps) == 1


def test_sparse_evaluator_validates_input_index():
    for bad in (-1, 8):
        with pytest.raises(DomainError):
            sparse_evaluate(Circuit(3, (h(0),)), bad)


def test_sparse_evaluator_checks_index_without_building_two_to_the_n():
    # 2^35 qubits: a range check through 1 << n_qubits would build a 4 GiB
    # integer; the child runs under a 1 GiB address-space limit, so it
    # would fail at once instead of eating the machine's memory
    code = ("from cliffordt.circuit import parse, sparse_evaluate\n"
            "c = parse('qubits 34359738368\\nh 0\\n')\n"
            "print(sparse_evaluate(c, 0))\n")
    proc = run_child(code=code, limit=1 << 30)
    assert proc.stderr == ""
    assert proc.stdout == "({0: (1, 0, 0, 0), 1: (1, 0, 0, 0)}, 1)\n"


def test_sparse_evaluate_takes_a_numpy_integer_input():
    # shifting a numpy input by 80 bits overflowed a C long
    c = Circuit(100, (x(80),))
    assert sparse_evaluate(c, np.int64(1)) == ({1 | 1 << 80: (1, 0, 0, 0)}, 0)


def test_permutation_output_takes_a_numpy_integer_input():
    c = Circuit(100, (x(80),))
    assert permutation_output(c, np.int64(1)) == 1 | 1 << 80


@settings(max_examples=50, deadline=None)
@given(random_circuits())
def test_simulate_matches_matrix_columns(c):
    u = compose_matrices(c.ops, c.n_qubits)
    for j in range(1 << c.n_qubits):
        assert np.max(np.abs(simulate(c, j).amps - u[:, j])) < 1e-12


@settings(max_examples=50, deadline=None)
@given(random_circuits(), st.data())
def test_lowering_preserves_random_circuits_up_to_phase(c, data):
    # the phase is exact too: the sparse maps are equal, not just aligned
    lowered = lower_to_clifford_t(c)
    inputs = data.draw(st.lists(st.integers(0, (1 << c.n_qubits) - 1),
                                min_size=1, max_size=4))
    for j in inputs:
        assert sparse_evaluate(lowered, j) == sparse_evaluate(c, j)


def reference_resources(c):
    """resources() as defined: counted and scheduled on the built lowering."""
    lowered = lower_to_clifford_t(c)
    hist = Counter(g.kind for g in lowered.ops)
    layers = schedule_layers(lowered)
    return ResourceReport(
        t_count=hist["t"] + hist["tdg"],
        t_depth=sum(1 for layer in layers
                    if any(g.kind in ("t", "tdg") for g in layer)),
        depth=len(layers),
        qubit_cost=c.n_qubits,
        ancilla_count=sum(r.size for r in c.layout.registers
                          if r.role == "ancilla"),
        garbage_count=sum(r.size for r in c.layout.registers
                          if r.role == "garbage"),
        gate_histogram=dict(hist))


def decompose_each(ops):
    out = []
    for g in ops:
        if g.kind == "ccx":
            out += decompose_toffoli(*g.qubits)
        elif g.kind == "cswap":
            out += decompose_fredkin(*g.qubits)
        elif g.kind == "swap":
            out += decompose_swap(*g.qubits)
        else:
            out.append(g)
    return tuple(out)


@settings(max_examples=100, deadline=None)
@given(random_circuits())
def test_templates_match_lowering_gate_by_gate(c):
    assert lower_to_clifford_t(c).ops == decompose_each(c.ops)
    assert resources(c) == reference_resources(c)


#: Entry layers for the offset-table check: -1 (an untouched qubit), a
#: few close layers, and one far enough ahead to dominate every row.
ENTRY_LAYERS = (-1, 0, 1, 2, 3, 20)


@pytest.mark.parametrize("kind", sorted(OFFSETS))
def test_offset_rows_place_every_step_as_place_does(kind):
    """Each kind's table, read the way resources reads it, gives the T
    layers and exit layers of placing its template's steps with _place."""
    arity = GATE_ARITY[kind]
    rows, shift = OFFSETS[kind]
    for entry in itertools.product(ENTRY_LAYERS, repeat=arity):
        frontier = dict(enumerate(entry))
        placed = [(step, _place(frontier, where))
                  for step, where in TEMPLATES[kind]]
        t_layers = {at for step, at in placed if step in ("t", "tdg")}
        top = max(entry)
        assert {(entry + (top,))[i] + d for i, d in rows} == t_layers
        assert set(frontier.values()) == {top + shift}


def test_every_kind_but_fredkin_has_an_offset_table():
    # a template edit that leaves Toffoli without a table fails here
    assert OFFSETS.keys() == GATE_ARITY.keys() - {"cswap"}


def test_offsets_refuses_a_template_of_another_shape():
    # Fredkin's own steps follow two operands at different distances
    assert _offsets(TEMPLATES["cswap"], 3) is None
    # a CNOT on two of three operands leaves the third behind
    assert _offsets((("cnot", (0, 1)),), 3) is None


def test_resources_match_scheduled_lowering_on_fredkin_dense_circuits():
    # the kinds of a mixed circuit, half of its gates Fredkin, so the
    # placed and the tabled rules interleave on shared qubits
    kinds = ["cswap"] * 5 + ["ccx", "swap", "cnot", "h", "t"]
    for seed in range(20):
        rng = random.Random(seed)
        ops = []
        for _ in range(300):
            kind = rng.choice(kinds)
            ops.append(Gate(kind, rng.sample(range(12), GATE_ARITY[kind])))
        c = Circuit(12, tuple(ops))
        assert resources(c) == reference_resources(c), seed


TAYLOR_CONSTS = (0x9c41f2, 0x3e07a5, 0x51d3c8, 0xa2b96e)


def compile_width_circuits():
    """The circuits of the compile benchmark, at its widths."""
    yield "taylor24", build_taylor(24, *TAYLOR_CONSTS).circuit
    yield "mul24", build_multiplier(24).circuit
    yield "adder256", build_adder(256).circuit
    yield "sub256", build_subtractor(256).circuit
    yield "ctrladd128", build_ctrl_add(128).circuit
    inner = build_multiplier(12).circuit
    wires = tuple(inner.layout.register("p").qubits())
    yield "bennett-mul12", bennett_wrap(BennettSpec(inner, wires))


def test_resources_match_scheduled_lowering_at_benchmark_widths():
    for label, c in compile_width_circuits():
        assert resources(c) == reference_resources(c), label


def test_lowering_builds_each_distinct_gate_once():
    ops = lower_to_clifford_t(build_taylor(4, 3, 5, 7, 11).circuit).ops
    assert len({id(g) for g in ops}) == len(set(ops)) < len(ops)
    assert not hasattr(ops[0], "__dict__")


#: Register names the text format carries: one token, no comment sign.
register_names = st.text(min_size=1, max_size=6).filter(
    lambda name: name.split() == [name] and "#" not in name)


@st.composite
def named_layouts(draw, n):
    """A partition of n qubits into registers with drawn names and roles,
    listed in a drawn order."""
    cuts = sorted(draw(st.sets(st.integers(1, n))) | {0, n})
    names = draw(st.lists(register_names, min_size=len(cuts) - 1,
                          max_size=len(cuts) - 1, unique=True))
    registers = [Register(name, lo, hi - lo, draw(st.sampled_from(ROLES)))
                 for name, lo, hi in zip(names, cuts, cuts[1:])]
    return RegisterLayout(tuple(draw(st.permutations(registers))))


@settings(max_examples=100, deadline=None)
@given(random_circuits(), st.data())
def test_round_trip_on_random_circuits(c, data):
    c = Circuit(c.n_qubits, c.ops, data.draw(named_layouts(c.n_qubits)))
    back = parse(serialize(c))
    assert back == c
    assert resources(back) == resources(c)


@settings(max_examples=100, deadline=None)
@given(random_circuits(), st.data())
def test_derived_gates_and_circuits_pass_the_public_checks(c, data):
    # lowering, inversion and parse skip the checks of Gate and Circuit;
    # what they make must be what the checked constructors make
    c = Circuit(c.n_qubits, c.ops, data.draw(named_layouts(c.n_qubits)))
    for out in (lower_to_clifford_t(c), inverse_circuit(c),
                parse(serialize(c))):
        for g in out.ops:
            assert Gate(g.kind, g.qubits) == g
        assert Circuit(out.n_qubits, out.ops, out.layout) == out


@settings(max_examples=60, deadline=None)
@given(permutation_circuits(), st.data())
def test_bennett_wrap_restores_inner_wires_and_copies_outputs(case, data):
    c, inputs = case
    wires = data.draw(st.lists(st.integers(0, c.n_qubits - 1), min_size=1,
                               unique=True))
    wrapped = bennett_wrap(BennettSpec(c, tuple(wires)))
    assert wrapped.n_qubits == c.n_qubits + len(wires)
    for j in inputs:
        out = permutation_output(c, j)
        copies = sum(((out >> w) & 1) << (c.n_qubits + i)
                     for i, w in enumerate(wires))
        assert permutation_output(wrapped, j) == j | copies
