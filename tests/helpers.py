"""Helpers shared by the test modules."""

import numpy as np


def phase_aligned_distance(actual: np.ndarray, reference: np.ndarray) -> float:
    """Max entrywise deviation after removing one global phase.

    The phase is extracted from the largest-magnitude entry of the
    reference, which keeps the alignment robust against near-zero entries.
    """
    assert actual.shape == reference.shape
    idx = np.unravel_index(np.argmax(np.abs(reference)), reference.shape)
    ref_entry = reference[idx]
    act_entry = actual[idx]
    if abs(act_entry) < 1e-14:
        return float(np.max(np.abs(actual - reference)))
    phase = act_entry / abs(act_entry) * abs(ref_entry) / ref_entry
    return float(np.max(np.abs(actual / phase - reference)))
