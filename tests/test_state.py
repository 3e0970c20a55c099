"""Statevector kernel: construction, gates, sampling."""

import numpy as np
import pytest

from cliffordt.errors import DomainError, ResourceError
from cliffordt.gates import GATE_ARITY, Gate, ccx, cnot, h, s, swap, t, tdg, x
from cliffordt.state import (MAX_SIM_QUBITS, StateVector, apply_gate,
                             make_rng, new_basis_state, probabilities, sample)

SQ2 = 1 / np.sqrt(2)


def bell_state():
    st = new_basis_state(2, 0)
    st = apply_gate(st, h(0))
    return apply_gate(st, cnot(0, 1))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_basis_state_examples():
    st = new_basis_state(1, 0)
    assert np.allclose(st.amps, [1, 0])
    st = new_basis_state(2, 3)
    assert np.allclose(st.amps, [0, 0, 0, 1])


def test_basis_state_bounds():
    with pytest.raises(DomainError):
        new_basis_state(3, 8)
    with pytest.raises(DomainError):
        new_basis_state(3, -1)
    with pytest.raises(DomainError):
        new_basis_state(0, 0)


@pytest.mark.parametrize("width", [2.0, 1.5, "2", None])
def test_width_must_be_an_integer(width):
    with pytest.raises(DomainError, match="qubit count .* is not an integer"):
        new_basis_state(width, 0)
    with pytest.raises(DomainError, match="qubit count .* is not an integer"):
        StateVector(width, np.zeros(4, dtype=complex))


def test_width_is_stored_as_a_python_int():
    st = StateVector(True, np.array([1, 0], dtype=complex))
    assert st.n_qubits == 1 and type(st.n_qubits) is int
    st = new_basis_state(np.int64(2), np.int64(3))
    assert st.n_qubits == 2 and type(st.n_qubits) is int
    assert st.amps.tolist() == [0, 0, 0, 1]


def test_simulation_ceiling():
    with pytest.raises(ResourceError):
        new_basis_state(MAX_SIM_QUBITS + 1, 0)


def test_one_ceiling_message():
    message = "^25 qubits exceeds the 24-qubit statevector ceiling$"
    with pytest.raises(ResourceError, match=message):
        new_basis_state(25, 0)
    with pytest.raises(ResourceError, match=message):
        StateVector(25, np.zeros(2, dtype=complex))


def test_statevector_rejects_nonfinite():
    with pytest.raises(DomainError):
        StateVector(1, np.array([np.nan, 0], dtype=complex))


def test_statevector_is_immutable():
    st = new_basis_state(1, 0)
    with pytest.raises(ValueError):
        st.amps[0] = 0


# ---------------------------------------------------------------------------
# gate application
# ---------------------------------------------------------------------------

def test_hadamard_on_zero():
    st = apply_gate(new_basis_state(1, 0), h(0))
    assert np.allclose(st.amps, [SQ2, SQ2])


def test_x_flips():
    st = apply_gate(new_basis_state(1, 0), x(0))
    assert np.allclose(st.amps, [0, 1])


def test_t_then_tdg_is_identity():
    st = apply_gate(new_basis_state(1, 0), h(0))
    back = apply_gate(apply_gate(st, t(0)), tdg(0))
    assert np.allclose(back.amps, st.amps, atol=1e-12)


def test_apply_gate_rejects_out_of_range():
    with pytest.raises(DomainError):
        apply_gate(new_basis_state(2, 0), h(2))


def test_apply_gate_respects_qubit_zero_is_lsb():
    # X on qubit 0 of |00> gives index 1, on qubit 1 gives index 2
    st = apply_gate(new_basis_state(2, 0), x(0))
    assert np.argmax(np.abs(st.amps)) == 1
    st = apply_gate(new_basis_state(2, 0), x(1))
    assert np.argmax(np.abs(st.amps)) == 2


@pytest.mark.parametrize("kind", sorted(GATE_ARITY))
def test_apply_gate_leaves_input_unchanged(kind):
    rng = np.random.default_rng(5)
    raw = rng.normal(size=8) + 1j * rng.normal(size=8)
    st = StateVector(3, raw / np.linalg.norm(raw))
    before = st.amps.copy()
    out = apply_gate(st, Gate(kind, (2, 0, 1)[:GATE_ARITY[kind]]))
    assert np.array_equal(st.amps, before)
    assert not np.shares_memory(out.amps, st.amps)


def test_norm_preserved_over_random_sequences():
    rng = np.random.default_rng(42)
    kinds = [h, t, tdg, s, x]
    for trial in range(5):
        n = 4
        raw = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        raw /= np.linalg.norm(raw)
        st = StateVector(n, raw)
        for _ in range(100):
            pick = rng.integers(0, len(kinds) + 2)
            if pick < len(kinds):
                st = apply_gate(st, kinds[pick](int(rng.integers(n))))
            else:
                q1, q2 = rng.choice(n, size=2, replace=False)
                gate = cnot(int(q1), int(q2)) if pick == len(kinds) \
                    else swap(int(q1), int(q2))
                st = apply_gate(st, gate)
        assert abs(np.linalg.norm(st.amps) - 1) < 1e-9


def test_linearity_of_apply_gate():
    rng = np.random.default_rng(7)
    for gate in (h(1), cnot(0, 2), ccx(2, 0, 1), t(2)):
        a = rng.normal(size=8) + 1j * rng.normal(size=8)
        b = rng.normal(size=8) + 1j * rng.normal(size=8)
        alpha, beta = 0.3 - 0.4j, 1.1 + 0.2j
        combo = apply_gate(StateVector(3, alpha * a + beta * b), gate)
        parts = (alpha * apply_gate(StateVector(3, a), gate).amps
                 + beta * apply_gate(StateVector(3, b), gate).amps)
        assert np.max(np.abs(combo.amps - parts)) < 1e-10


# ---------------------------------------------------------------------------
# probabilities and sampling
# ---------------------------------------------------------------------------

def test_probabilities_examples():
    assert np.allclose(probabilities(new_basis_state(1, 0)), [1, 0])
    p = probabilities(bell_state())
    assert np.allclose(p, [0.5, 0, 0, 0.5], atol=1e-10)
    p = probabilities(apply_gate(new_basis_state(1, 0), h(0)))
    assert np.allclose(p, [0.5, 0.5], atol=1e-10)


def test_probabilities_sum_to_one_on_reachable_states():
    rng = np.random.default_rng(3)
    st = new_basis_state(3, 5)
    for _ in range(60):
        st = apply_gate(st, h(int(rng.integers(3))))
        st = apply_gate(st, t(int(rng.integers(3))))
    assert abs(probabilities(st).sum() - 1) < 1e-10


def test_sample_deterministic_outcome():
    st = new_basis_state(1, 1)
    counts = sample(st, 100, seed=5)
    assert counts.counts == {1: 100}
    assert counts.shots == 100


def test_sample_bell_statistics():
    counts = sample(bell_state(), 10000, seed=123).counts
    assert set(counts) <= {0, 3}
    assert counts[0] + counts[3] == 10000
    # 3 sigma of a fair binomial with 10^4 draws
    assert abs(counts[0] - 5000) <= 150


def test_sample_seed_reproducible():
    st = apply_gate(new_basis_state(1, 0), h(0))
    assert sample(st, 1, seed=9).counts == sample(st, 1, seed=9).counts
    assert sample(st, 500, seed=17).counts == sample(st, 500, seed=17).counts


def test_sample_validates_shots():
    with pytest.raises(DomainError):
        sample(new_basis_state(1, 0), 0, seed=1)


@pytest.mark.parametrize("amps, norm", [([0, 0], "0.0"), ([1e200, 0], "inf")])
def test_sample_refuses_a_state_with_no_distribution(amps, norm):
    # numpy's multinomial would raise ValueError on the NaN weights
    with np.errstate(over="ignore"):
        with pytest.raises(DomainError, match=f"squared norm {norm}"):
            sample(StateVector(1, amps), 10, seed=1)


@pytest.mark.parametrize("shots", [2.5, 2.0, "3", None])
def test_sample_takes_whole_shot_counts_only(shots):
    with pytest.raises(DomainError, match=r"shots .* is not an integer"):
        sample(bell_state(), shots, seed=3)


def test_sample_takes_a_numpy_shot_count_as_an_int():
    counts = sample(bell_state(), np.int64(1000), seed=3)
    assert counts == sample(bell_state(), 1000, seed=3)
    assert type(counts.shots) is int
    assert sum(counts.counts.values()) == counts.shots == 1000


def test_sample_refuses_counts_past_int64():
    with pytest.raises(DomainError, match=r"at most 2\^63 - 1"):
        sample(new_basis_state(1, 0), 1 << 63, seed=1)


def test_sample_takes_the_largest_int64_count():
    shots = (1 << 63) - 1
    counts = sample(bell_state(), shots, seed=1)
    assert sum(counts.counts.values()) == counts.shots == shots


@pytest.mark.parametrize("seed, message", [
    (1.5, "seed 1.5 is not an integer"), (1.0, "seed 1.0 is not an integer"),
    ("1", "seed '1' is not an integer"), (None, "seed None is not an integer"),
    (-1, "seed must be non-negative, got -1")])
def test_seeds_are_natural_numbers(seed, message):
    with pytest.raises(DomainError, match=message):
        make_rng(seed)
    with pytest.raises(DomainError, match=message):
        sample(new_basis_state(1, 0), 10, seed)


def test_a_numpy_integer_seed_is_the_int_it_holds():
    want = make_rng(7).integers(0, 1 << 62, size=4).tolist()
    for seed in (np.int64(7), np.uint8(7)):
        assert make_rng(seed).integers(0, 1 << 62, size=4).tolist() == want
    assert make_rng(True).random() == make_rng(1).random()
