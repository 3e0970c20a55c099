"""Command-line behavior: every subcommand, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cliffordt
from cliffordt import cli
from cliffordt.circuit import parse
from cliffordt.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_adder_header(tmp_path, capsys):
    out = tmp_path / "out.qc"
    code, _, _ = run_cli(capsys, "gen", "adder", "4", str(out))
    assert code == 0
    text = out.read_text()
    assert text.startswith("qubits 9\n")
    parse(text)


def test_gen_multiplier_sizing(tmp_path, capsys):
    out = tmp_path / "mul.qc"
    code, _, _ = run_cli(capsys, "gen", "mul", "2", str(out))
    assert code == 0
    assert out.read_text().startswith("qubits 9\n")


def test_gen_taylor_round_trips(tmp_path, capsys):
    out = tmp_path / "taylor.qc"
    code, _, _ = run_cli(capsys, "gen", "taylor", "4", "--f", "5", "--fp", "3",
                         "--fpp", "1", "--c", "2", str(out))
    assert code == 0
    circ = parse(out.read_text())
    assert circ.n_qubits == 36


def test_gen_taylor_requires_constants(tmp_path, capsys):
    code, _, err = run_cli(capsys, "gen", "taylor", "4",
                           str(tmp_path / "x.qc"))
    assert code == 1
    assert "--f" in err


def test_gen_bad_width(tmp_path, capsys):
    code, _, err = run_cli(capsys, "gen", "adder", "0", str(tmp_path / "x.qc"))
    assert code == 1
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_metrics_single_toffoli(tmp_path, capsys):
    path = tmp_path / "ccx.qc"
    path.write_text("qubits 3\nccx 0 1 2\n")
    code, out, _ = run_cli(capsys, "metrics", str(path))
    assert code == 0
    assert "t_count: 7" in out


def test_metrics_empty_circuit(tmp_path, capsys):
    path = tmp_path / "empty.qc"
    path.write_text("qubits 1\n")
    code, out, _ = run_cli(capsys, "metrics", str(path))
    assert code == 0
    assert "t_count: 0" in out and "depth: 0" in out


def test_metrics_json(tmp_path, capsys):
    path = tmp_path / "ccx.qc"
    path.write_text("qubits 3\nccx 0 1 2\n")
    code, out, _ = run_cli(capsys, "metrics", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["t_count"] == 7
    assert payload["qubit_cost"] == 3


def test_metrics_parse_error_has_line(tmp_path, capsys):
    path = tmp_path / "bad.qc"
    path.write_text("qubits 2\ncnot 0 0\n")
    code, _, err = run_cli(capsys, "metrics", str(path))
    assert code == 1
    assert "line 2" in err


# ---------------------------------------------------------------------------
# sim
# ---------------------------------------------------------------------------

def test_sim_adder_decodes_registers(tmp_path, capsys):
    out = tmp_path / "adder.qc"
    run_cli(capsys, "gen", "adder", "4", str(out))
    # a=3 occupies qubits 4..7, b=5 occupies 0..3
    code, text, _ = run_cli(capsys, "sim", str(out), "--input",
                            str(5 | (3 << 4)))
    assert code == 0
    assert "b: 8" in text and "a: 3" in text and "z: 0" in text


@pytest.mark.parametrize("kind,index,text,payload", [
    ("adder", 5 | (3 << 3), "b: 0\na: 3\nz: 1\n",
     {"basis_index": 88, "registers": {"b": 0, "a": 3, "z": 1}}),
    ("ctrladd", 1 | (6 << 1) | (3 << 4), "ctrl: 1\nb: 1\na: 3\nz: 1\ng: 0\n",
     {"basis_index": 179,
      "registers": {"ctrl": 1, "b": 1, "a": 3, "z": 1, "g": 0}}),
], ids=["adder", "ctrladd"])
def test_sim_permutation_register_lines(tmp_path, capsys, kind, index, text,
                                        payload):
    # one line per register, in layout order, with the exact values
    path = tmp_path / "circ.qc"
    run_cli(capsys, "gen", kind, "3", str(path))
    code, out, _ = run_cli(capsys, "sim", str(path), "--input", str(index))
    assert code == 0
    assert out == text
    code, out, _ = run_cli(capsys, "sim", str(path), "--input", str(index),
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == payload


@pytest.mark.parametrize("index,message", [
    (0, "statevector ceiling"), (1 << 40, "statevector ceiling"),
    (-1, "out of range"),
])
def test_sim_huge_width_range_check(tmp_path, capsys, index, message):
    # the range check reads the input's bit length instead of building
    # 2^n; in-range inputs then meet the statevector ceiling
    path = tmp_path / "huge.qc"
    path.write_text("qubits 99999999999\nh 0\n")
    code, out, err = run_cli(capsys, "sim", str(path), "--input", str(index))
    assert code == 1
    assert out == "" and message in err


def test_sim_huge_permutation_reports_out_of_memory(tmp_path):
    # the bit-sliced evaluator refuses 10^11 qubit columns before it
    # allocates them; the child runs under a 2 GiB address-space limit, so
    # an allocation that slipped past the check would fail instead of
    # eating the machine's memory
    path = tmp_path / "huge.qc"
    path.write_text("qubits 99999999999\nx 0\n")
    limit = 1 << 31
    code = ("import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
            "from cliffordt.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    src = str(Path(cliffordt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code, "sim", str(path), "--input", "0"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == ("error: 99999999999 qubits x 1 rows exceeds the "
                           "16777216-bit limit of the bit-sliced evaluator\n")


def test_memory_error_reported_without_traceback(tmp_path, capsys, monkeypatch):
    def exhausted(circ):
        raise MemoryError
    monkeypatch.setattr(cli, "resources", exhausted)
    path = tmp_path / "x.qc"
    path.write_text("qubits 1\nx 0\n")
    assert run_cli(capsys, "metrics", str(path)) == (1, "", "error: out of memory\n")


def test_sim_bell_counts_only_00_and_11(tmp_path, capsys):
    path = tmp_path / "bell.qc"
    path.write_text("qubits 2\nh 0\ncnot 0 1\n")
    code, out, _ = run_cli(capsys, "sim", str(path), "--input", "0",
                           "--shots", "1000", "--seed", "5")
    assert code == 0
    observed = {int(line.split(":")[0]) for line in out.strip().splitlines()}
    assert observed <= {0, 3}


def test_sim_input_out_of_range(tmp_path, capsys):
    path = tmp_path / "bell.qc"
    path.write_text("qubits 2\nh 0\ncnot 0 1\n")
    code, _, err = run_cli(capsys, "sim", str(path), "--input", "4")
    assert code == 1
    assert "out of range" in err


def test_sim_superposition_prints_probabilities(tmp_path, capsys):
    path = tmp_path / "plus.qc"
    path.write_text("qubits 1\nh 0\n")
    code, out, _ = run_cli(capsys, "sim", str(path), "--input", "0")
    assert code == 0
    assert "0: 0.5" in out and "1: 0.5" in out


def test_sim_probabilities_exact_output(tmp_path, capsys):
    # four outcomes with two distinct weights, in ascending basis order
    path = tmp_path / "mix.qc"
    path.write_text("qubits 3\nh 0\nt 0\nh 0\nh 2\ncnot 0 1\n")
    code, out, _ = run_cli(capsys, "sim", str(path), "--input", "0")
    assert code == 0
    assert out == ("0: 0.4267766953\n3: 0.0732233047\n"
                   "4: 0.4267766953\n7: 0.0732233047\n")
    code, out, _ = run_cli(capsys, "sim", str(path), "--input", "0",
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == {"probabilities": {
        "0": 0.42677669529663675, "3": 0.07322330470336304,
        "4": 0.42677669529663675, "7": 0.07322330470336304}}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_sim_shots_permutation_matches_dense_path(tmp_path, capsys,
                                                  monkeypatch, fmt):
    out = tmp_path / "adder.qc"
    run_cli(capsys, "gen", "adder", "4", str(out))
    argv = ["sim", str(out), "--input", str(5 | (3 << 4)), "--shots", "500",
            "--seed", "7", "--format", fmt]
    code, served, _ = run_cli(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(cli, "is_permutation_circuit", lambda c: False)
    code, dense, _ = run_cli(capsys, *argv)
    assert code == 0
    assert served == dense


def test_sim_shots_past_statevector_ceiling(tmp_path, capsys):
    path = tmp_path / "chain.qc"
    n = 30
    path.write_text(f"qubits {n}\n"
                    + "".join(f"cnot {i} {i + 1}\n" for i in range(n - 1)))
    code, out, _ = run_cli(capsys, "sim", str(path), "--input", "1",
                           "--shots", "1000")
    assert code == 0
    assert out == f"{(1 << n) - 1}: 1000\n"
    code, _, err = run_cli(capsys, "sim", str(path), "--input", "1",
                           "--shots", "0")
    assert code == 1
    assert "shots" in err


HUGE_SHOTS = str(1 << 63)


def assert_one_error_line(result):
    code, out, err = result
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_sim_permutation_shots_past_int64_is_the_same_error(tmp_path, capsys,
                                                           monkeypatch):
    path = tmp_path / "chain.qc"
    path.write_text("qubits 2\ncnot 0 1\n")
    argv = ["sim", str(path), "--input", "1", "--shots", HUGE_SHOTS]
    served = run_cli(capsys, *argv)
    assert_one_error_line(served)
    monkeypatch.setattr(cli, "is_permutation_circuit", lambda c: False)
    assert run_cli(capsys, *argv) == served


@pytest.mark.parametrize("argv", [
    ["metrics", "{tmp}/missing.qc"],
    ["sim", "{tmp}/missing.qc", "--input", "0"],
    ["uncompute", "{tmp}/x.qc", "--wires", "0,,1", "--out", "{tmp}/y.qc"],
    ["rb", "--d", "0.1", "--lengths", "1,x"],
    ["sim", "{tmp}/bell.qc", "--input", "0", "--shots", HUGE_SHOTS],
    ["rb", "--d", "0.02", "--lengths", "1,5,10", "--shots", HUGE_SHOTS],
])
def test_bad_input_is_one_error_line(tmp_path, capsys, argv):
    (tmp_path / "x.qc").write_text("qubits 2\ncnot 0 1\n")
    (tmp_path / "bell.qc").write_text("qubits 2\nh 0\ncnot 0 1\n")
    assert_one_error_line(run_cli(capsys, *[a.format(tmp=tmp_path)
                                            for a in argv]))
    assert not (tmp_path / "y.qc").exists()


# ---------------------------------------------------------------------------
# uncompute
# ---------------------------------------------------------------------------

def test_uncompute_verb(tmp_path, capsys):
    src = tmp_path / "inner.qc"
    src.write_text("qubits 3\nccx 0 1 2\n")
    dst = tmp_path / "wrapped.qc"
    code, _, _ = run_cli(capsys, "uncompute", str(src), "--wires", "2",
                         "--out", str(dst))
    assert code == 0
    wrapped = parse(dst.read_text())
    assert wrapped.n_qubits == 4
    assert len(wrapped.ops) == 3


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_adder(capsys):
    code, out, _ = run_cli(capsys, "verify", "adder", "4")
    assert code == 0
    assert "passed: true" in out
    assert "method: bitsliced" in out
    assert "total_inputs: 256" in out


def test_verify_multiplier_n3(capsys):
    code, out, _ = run_cli(capsys, "verify", "mul", "3")
    assert code == 0
    assert "total_inputs: 64" in out


def test_verify_refuses_huge_input_space(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "mul", "40")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "2^80 inputs" in err
    assert time.perf_counter() - start < 5.0


def test_verify_taylor(capsys):
    code, out, _ = run_cli(capsys, "verify", "taylor", "3", "--f", "5",
                           "--fp", "3", "--fpp", "1", "--c", "2")
    assert code == 0
    assert "passed: true" in out


# ---------------------------------------------------------------------------
# rb
# ---------------------------------------------------------------------------

def test_rb_noiseless(capsys):
    code, out, _ = run_cli(capsys, "rb", "--d", "0", "--lengths", "1,4,8",
                           "--sequences", "10", "--shots", "20", "--seed", "3")
    assert code == 0
    assert "fit_p: 1.000000" in out


def test_rb_json_schema(capsys):
    code, out, _ = run_cli(capsys, "rb", "--d", "0.05", "--lengths", "1,5,9",
                           "--sequences", "10", "--shots", "20", "--seed", "3",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"lengths", "mean_fidelity", "fit_A", "fit_B",
                            "fit_p", "error_per_gate"}


def test_rb_too_few_lengths_is_an_error(capsys):
    code, out, err = run_cli(capsys, "rb", "--d", "0.1", "--lengths", "1,5")
    assert code == 1
    assert out == ""
    assert "at least 3 sequence lengths" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_identical_invocations_are_byte_identical(capsys):
    argv = ["rb", "--d", "0.02", "--lengths", "1,5,10", "--sequences", "15",
            "--shots", "30", "--seed", "21"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CLIFFORDT_SEED", "99")
    code, out1, _ = run_cli(capsys, "rb", "--d", "0.1", "--lengths", "1,3,5",
                            "--sequences", "5", "--shots", "10")
    code2, out2, _ = run_cli(capsys, "rb", "--d", "0.1", "--lengths", "1,3,5",
                             "--sequences", "5", "--shots", "10", "--seed",
                             "99")
    assert code == code2 == 0
    assert out1 == out2


#: One valid invocation of every subcommand.
EVERY_SUBCOMMAND = [
    ["gen", "adder", "2", "{tmp}/x.qc"],
    ["metrics", "{tmp}/x.qc"],
    ["sim", "{tmp}/x.qc", "--input", "0"],
    ["uncompute", "{tmp}/x.qc", "--wires", "0", "--out", "{tmp}/y.qc"],
    ["verify", "adder", "2"],
    ["rb", "--d", "0", "--lengths", "1,2,3", "--seed", "1"],
]


def assert_usage_error(capsys, argv, *needles):
    """argparse's exit 2: usage and the needles on stderr, nothing on
    stdout, no traceback."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ")
    assert all(needle in captured.err for needle in needles)
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", EVERY_SUBCOMMAND)
def test_malformed_seed_env_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                             argv):
    monkeypatch.setenv("CLIFFORDT_SEED", "abc")
    assert_usage_error(capsys, [a.format(tmp=tmp_path) for a in argv],
                       "CLIFFORDT_SEED", "'abc'")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", EVERY_SUBCOMMAND)
def test_negative_seed_env_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                            argv):
    monkeypatch.setenv("CLIFFORDT_SEED", "-3")
    assert_usage_error(capsys, [a.format(tmp=tmp_path) for a in argv],
                       "CLIFFORDT_SEED must be a non-negative integer", "'-3'")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["rb", "--d", "0.1", "--lengths", "1,2,3", "--seed", "-5"],
    ["sim", "{tmp}/bell.qc", "--input", "0", "--shots", "10", "--seed", "-1"],
    ["sim", "{tmp}/bell.qc", "--input", "0", "--seed", "-1"],
    ["sim", "{tmp}/x.qc", "--input", "0", "--shots", "10", "--seed", "-1"],
    ["sim", "{tmp}/x.qc", "--input", "0", "--seed", "-1"],
])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, argv):
    (tmp_path / "x.qc").write_text("qubits 2\ncnot 0 1\n")
    (tmp_path / "bell.qc").write_text("qubits 2\nh 0\ncnot 0 1\n")
    assert_usage_error(capsys, [a.format(tmp=tmp_path) for a in argv],
                       "--seed must be non-negative")


@pytest.mark.parametrize("argv, bad", [
    (argv, bad) for argv in EVERY_SUBCOMMAND
    for bad in (["--bogus"], ["--format", "yaml"], ["--seed", "x"])
] + [
    (["gen", "adder", "two", "{tmp}/x.qc"], []),
    (["gen", "divider", "2", "{tmp}/x.qc"], []),
    (["metrics"], []),
    (["sim", "{tmp}/x.qc", "--input", "x"], []),
    (["sim", "{tmp}/x.qc", "--input", "0", "--shots", "1.5"], []),
    (["uncompute", "{tmp}/x.qc", "--out", "{tmp}/y.qc"], []),
    (["verify", "adder"], []),
    (["rb", "--d", "high", "--lengths", "1,2,3"], []),
    (["rb", "--lengths", "1,2,3"], []),
    ([], []),
])
def test_bad_flag_is_a_usage_error(tmp_path, capsys, argv, bad):
    (tmp_path / "x.qc").write_text("qubits 2\ncnot 0 1\n")
    assert_usage_error(capsys, [a.format(tmp=tmp_path) for a in argv + bad])
    assert [p.name for p in tmp_path.iterdir()] == ["x.qc"]


BAD_CIRCUITS = {
    "unknown gate": b"qubits 2\nfrobnicate 0\n",
    "operand out of range": b"qubits 2\ncnot 0 5\n",
    "repeated operand": b"qubits 2\ncnot 1 1\n",
    "no header": b"cnot 0 1\n",
    "not utf-8": b"qubits 2\n\xff\xfe\n",
    "missing": None,
}


@pytest.mark.parametrize("argv", [
    ["metrics", "{tmp}/bad.qc"],
    ["metrics", "{tmp}/bad.qc", "--format", "json"],
    ["sim", "{tmp}/bad.qc", "--input", "0"],
    ["sim", "{tmp}/bad.qc", "--input", "0", "--shots", "5"],
    ["uncompute", "{tmp}/bad.qc", "--wires", "0", "--out", "{tmp}/y.qc"],
])
@pytest.mark.parametrize("text", list(BAD_CIRCUITS.values()),
                         ids=list(BAD_CIRCUITS))
def test_bad_circuit_file_is_one_error_line(tmp_path, capsys, argv, text):
    if text is not None:
        (tmp_path / "bad.qc").write_bytes(text)
    assert_one_error_line(run_cli(capsys, *[a.format(tmp=tmp_path)
                                            for a in argv]))
    assert not (tmp_path / "y.qc").exists()


def test_unwritable_circuit_file_is_one_error_line(tmp_path, capsys):
    # gen and uncompute write a circuit file; a directory cannot take it
    (tmp_path / "x.qc").write_text("qubits 2\ncnot 0 1\n")
    assert_one_error_line(run_cli(capsys, "gen", "adder", "2", str(tmp_path)))
    assert_one_error_line(run_cli(capsys, "uncompute", str(tmp_path / "x.qc"),
                                  "--wires", "0", "--out", str(tmp_path)))
