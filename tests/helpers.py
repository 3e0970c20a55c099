"""Helpers shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import cliffordt

#: Child code that runs the command line on the child's argv, as the
#: ``cliffordt`` console script (``[project.scripts]``) does.
CLI_MAIN = ("import sys\n"
            "from cliffordt.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")


def run_child(*argv, code=CLI_MAIN, limit=None, cwd=None, env=None,
              timeout=60):
    """Run ``code`` on ``argv`` in a fresh interpreter that imports this
    checkout's ``cliffordt``; by default the command line.  ``limit`` caps
    the child's address space in bytes, so that a regression that
    allocates too much fails at once instead of eating the machine's
    memory, and a child still running after ``timeout`` seconds fails the
    test.  ``env`` adds to the environment."""
    if limit is not None:
        code = ("import resource\n"
                f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
                + code)
    src = str(Path(cliffordt.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout,
                          env={**os.environ, "PYTHONPATH": src, **(env or {})})


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
