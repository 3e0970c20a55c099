"""Clifford+T reversible arithmetic toolkit.

Synthesis of garbage-free quantum arithmetic circuits over the Clifford+T
gate set, fault-tolerance resource metrics (T-count, T-depth, qubit cost),
Bennett-style uncomputation, and exhaustive verification against
classical oracles, plus a small simulated device-benchmarking suite
(tomography, randomized benchmarking).
"""

from .arith import (ArithInstance, build_adder, build_ctrl_add,
                    build_multiplier, build_subtractor, build_taylor)
from .circuit import (Circuit, Register, RegisterLayout, ResourceReport,
                      default_layout, inverse_circuit, is_permutation_circuit,
                      lower_to_clifford_t, parse, permutation_output,
                      resources, run_columns, schedule_layers, serialize,
                      simulate, sparse_evaluate)
from .errors import (CliffordTError, DomainError, FitError, ParseError,
                     ResourceError)
from .gates import (Gate, ccx, cnot, cswap, decompose_fredkin,
                    decompose_swap, decompose_toffoli, h, inverse, matrix, s,
                    sdg, swap, t, tdg, x)
from .state import (MAX_SIM_QUBITS, MeasurementCounts, StateVector,
                    apply_gate, make_rng, new_basis_state, probabilities,
                    sample)
from .uncompute import BennettSpec, bennett_wrap
from .verify import (EquivalenceReport, NoiseModel, RBResult,
                     exhaustive_check, fit_exponential_decay, run_rb,
                     tomography_1q)

__version__ = "0.1.0"
