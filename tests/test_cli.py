"""Command-line behavior: every subcommand, exit codes, determinism."""

import json
import time
from itertools import takewhile
from pathlib import Path

import pytest

from cliffordt import cli
from cliffordt.circuit import parse
from cliffordt.cli import main
from helpers import CLI_MAIN, run_child


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


@pytest.mark.parametrize("argv", [
    ["gen", "adder", "1" + "0" * 30, "{tmp}/o.qc"],
    ["verify", "adder", "1" + "0" * 30],
])
def test_a_width_no_list_can_index_is_one_error_line(tmp_path, capsys, argv):
    assert_one_error_line(run_cli(capsys, *[a.format(tmp=tmp_path)
                                            for a in argv]))
    assert not (tmp_path / "o.qc").exists()


@pytest.mark.parametrize("argv, flags", [
    (["gen", "adder", "2", "{tmp}/o.qc", "--f", "3"], "--f"),
    (["verify", "adder", "2", "--c", "1"], "--c"),
])
def test_taylor_constants_on_another_kind_are_one_error_line(tmp_path, capsys,
                                                             argv, flags):
    result = run_cli(capsys, *[a.format(tmp=tmp_path) for a in argv])
    assert_one_error_line(result)
    assert result[2] == f"error: adder takes no {flags}\n"
    assert not (tmp_path / "o.qc").exists()


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


@pytest.mark.parametrize("text, message", [
    ("qubits 2\nh " + "1" * 5000 + "\n",
     "line 2: qubit index has more than 640 digits"),
    ("qubits " + "1" * 5000 + "\n",
     "line 1: qubit count has more than 640 digits")])
def test_metrics_refuses_a_number_past_max_digits(tmp_path, capsys, text,
                                                  message):
    path = tmp_path / "long.qc"
    path.write_text(text)
    assert run_cli(capsys, "metrics", str(path)) == (1, "", f"error: {message}\n")


def test_metrics_of_a_huge_ancilla_register_sums_register_sizes(tmp_path):
    # the ancilla count is a sum of register sizes, so a file of 10^30
    # qubits costs at once; a child that listed the qubits would run out
    # of its 2 GiB address space or its 10 s time limit, and fail here
    # instead of hanging or eating the machine's memory
    n = 10**30
    path = tmp_path / "wide.qc"
    path.write_text(f"qubits {n}\nregister a 0..{n - 1} ancilla\n")
    proc = run_child("metrics", str(path), "--format", "json", limit=1 << 31,
                     timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    payload = json.loads(proc.stdout)
    assert payload["ancilla_count"] == payload["qubit_cost"] == n
    assert payload["garbage_count"] == payload["t_count"] == 0


def test_metrics_text_lines_are_the_json_fields(tmp_path, capsys):
    # one "name: value" line per JSON field, each histogram entry read as
    # gate.<kind>, with none missing and none extra
    path = tmp_path / "c.qc"
    run_cli(capsys, "gen", "ctrladd", "16", str(path))
    code, text, _ = run_cli(capsys, "metrics", str(path))
    fields = json.loads(run_cli(capsys, "metrics", str(path), "--format",
                                "json")[1])
    fields.update((f"gate.{kind}", count)
                  for kind, count in fields.pop("gate_histogram").items())
    lines = text.splitlines()
    got = dict(line.split(": ", 1) for line in lines)
    assert code == 0 and len(got) == len(lines)
    assert got == {name: str(value) for name, value in fields.items()}


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
    # a permutation file of 10^11 qubits runs on the sparse evaluator and
    # decodes its one register in memory that follows the input index, not
    # the width; the child runs under a 2 GiB address-space limit, so an
    # allocation as wide as the circuit would fail ("error: out of memory")
    # instead of eating the machine's memory
    path = tmp_path / "huge.qc"
    path.write_text("qubits 99999999999\nx 0\n")
    proc = run_child("sim", str(path), "--input", "0", limit=1 << 31)
    assert proc.returncode == 0
    assert proc.stdout == "q: 1\n"
    assert proc.stderr == ""


# Runs the CLI in a fresh interpreter where ``import numpy`` fails.
NO_NUMPY = "import sys\nsys.modules['numpy'] = None\n" + CLI_MAIN

#: Commands that compute no amplitude, each with the files it writes.
NO_AMPLITUDE_COMMANDS = [
    (["gen", "adder", "4", "a.qc"], ["a.qc"]),
    (["metrics", "a.qc"], []),
    (["metrics", "a.qc", "--format", "json"], []),
    (["uncompute", "a.qc", "--wires", "0,1,2,3", "--out", "w.qc"], ["w.qc"]),
    (["sim", "a.qc", "--input", "53"], []),
    (["sim", "a.qc", "--input", "53", "--shots", "7", "--format", "json"], []),
]


def test_commands_that_compute_no_amplitude_run_without_numpy(tmp_path,
                                                              capsys,
                                                              monkeypatch):
    blocked, free = tmp_path / "blocked", tmp_path / "free"
    blocked.mkdir()
    free.mkdir()
    for argv, written in NO_AMPLITUDE_COMMANDS:
        proc = run_child(*argv, code=NO_NUMPY, cwd=blocked)
        monkeypatch.chdir(free)
        assert (proc.returncode, proc.stdout) == run_cli(capsys, *argv)[:2]
        assert proc.stderr == ""
        for name in written:
            assert (blocked / name).read_bytes() == (free / name).read_bytes()
    # the block holds: a command that needs amplitudes cannot run
    proc = run_child("verify", "adder", "2", code=NO_NUMPY, cwd=blocked)
    assert proc.returncode != 0 and "numpy" in proc.stderr


def test_the_console_script_is_cli_main():
    # pip's cliffordt script is a generated wrapper around this entry
    # point, so the children above, which call cliffordt.cli.main, run
    # what the installed script runs.  Read by line: 3.10 has no tomllib
    lines = (Path(__file__).resolve().parents[1]
             / "pyproject.toml").read_text().splitlines()
    section = takewhile(lambda line: not line.startswith("["),
                        lines[lines.index("[project.scripts]") + 1:])
    assert [line for line in section if line] == [
        'cliffordt = "cliffordt.cli:main"']


def test_memory_error_reported_without_traceback(tmp_path, capsys, monkeypatch):
    def exhausted(circ):
        raise MemoryError
    monkeypatch.setattr(cli, "resources", exhausted)
    path = tmp_path / "x.qc"
    path.write_text("qubits 1\nx 0\n")
    assert run_cli(capsys, "metrics", str(path)) == (1, "", "error: out of memory\n")



def test_a_failed_write_leaves_the_target_as_it_was(tmp_path, capsys,
                                                    monkeypatch):
    def exhausted(circ):
        raise MemoryError
    monkeypatch.setattr(cli, "serialize", exhausted)
    src = tmp_path / "inner.qc"
    src.write_text("qubits 3\nccx 0 1 2\n")
    keep = tmp_path / "keep.qc"
    keep.write_bytes(b"qubits 1\nx 0\n")
    for out in (keep, tmp_path / "new.qc"):
        for argv in (["gen", "adder", "2", str(out)],
                     ["uncompute", str(src), "--wires", "2", "--out", str(out)]):
            assert run_cli(capsys, *argv) == (1, "", "error: out of memory\n")
    assert keep.read_bytes() == b"qubits 1\nx 0\n"
    assert not (tmp_path / "new.qc").exists()

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


def test_sim_permutation_checks_the_input_before_the_shots(tmp_path, capsys):
    path = tmp_path / "chain.qc"
    path.write_text("qubits 2\ncnot 0 1\n")
    result = run_cli(capsys, "sim", str(path), "--input", "99", "--shots", "0")
    assert_one_error_line(result)
    assert "basis index 99" in result[2] and "shots" not in result[2]


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


def test_verify_lowered_checks_the_lowering(capsys):
    code, out, err = run_cli(capsys, "verify", "adder", "2", "--lowered")
    assert (code, err) == (0, "")
    assert out == ("passed: true\nmethod: lifted\ntotal_inputs: 16\n"
                   "mismatch_count: 0\n")


def test_verify_lowered_json_has_the_report_schema(capsys):
    taylor = ("verify", "taylor", "3", "--f", "5", "--fp", "3", "--fpp", "1",
              "--c", "2", "--format", "json")
    _, plain, _ = run_cli(capsys, *taylor)
    code, out, _ = run_cli(capsys, *taylor, "--lowered")
    assert code == 0
    assert json.loads(out) == {**json.loads(plain), "method": "lifted"}


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


def test_rb_sequences_numpy_cannot_size_are_one_error_line(capsys):
    result = run_cli(capsys, "rb", "--d", "0.1", "--lengths", "1,2,3",
                     "--sequences", str(2**62))
    assert_one_error_line(result)
    assert "n_sequences 4611686018427387904 exceeds" in result[2]
    assert "array is too big" not in result[2]


@pytest.mark.parametrize("argv, message", [
    (["gen", "taylor", "1000000", "t.qc", "--f", "-1", "--fp", "0", "--fpp",
      "0", "--c", "0"], "value -1 does not fit register fc (1000000 bits)"),
    (["rb", "--d", "0", "--lengths", "1,2,1000000000000", "--sequences", "1"],
     "1000000000006 Clifford slots exceed the RB limit of 4294967296"),
    (["rb", "--d", "0", "--lengths", "1,2,1" + "0" * 21, "--sequences", "1"],
     "1000000000000000000006 Clifford slots exceed the RB limit"),
], ids=["taylor", "rb-10^12", "rb-10^21"])
def test_work_no_run_could_finish_is_one_error_line_at_once(tmp_path, argv,
                                                            message):
    # taylor at 10^6 bits would build about 10^12 gates, and rb of 10^12
    # steps would run for hours; at 10^21 steps rb's block starts alone
    # would not fit in memory.  Each is refused before the work starts, in
    # a child under a 1 GiB address-space limit and a 10 s timeout
    proc = run_child(*argv, limit=1 << 30, cwd=tmp_path, timeout=10)
    assert_one_error_line((proc.returncode, proc.stdout, proc.stderr))
    assert message in proc.stderr
    assert not list(tmp_path.iterdir())


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


@pytest.mark.parametrize("d, sequences, seed", [(0.02, 400, 7), (0.1, 50, 27)])
def test_rb_prints_the_same_bytes_in_any_process(d, sequences, seed):
    # two interpreters with different hash seeds print the same JSON, and
    # its fit_p lies within 10% of the depolarizing prediction 1 - 4d/3
    # (a fit that stops short of the optimum reads seed 27's as 0.99997)
    argv = ["rb", "--d", str(d), "--lengths", "1,5,10,20,40,70,100",
            "--sequences", str(sequences), "--shots", "100", "--seed",
            str(seed), "--format", "json"]
    first, second = (run_child(*argv, env={"PYTHONHASHSEED": hash_seed})
                     for hash_seed in ("1", "2"))
    assert (first.returncode, first.stderr) == (0, "")
    assert (second.returncode, second.stdout, second.stderr) == (
        0, first.stdout, "")
    want = 1 - 4 * d / 3
    assert abs(json.loads(first.stdout)["fit_p"] - want) / want < 0.10


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
    "5,000-digit operand": b"qubits 2\nh " + b"1" * 5000 + b"\n",
    "5,000-digit header": b"qubits " + b"1" * 5000 + b"\n",
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


# ---------------------------------------------------------------------------
# integers: the circuit text format's ASCII digits, after an optional '-'
# ---------------------------------------------------------------------------

# "_" separators, non-ASCII digits, a '+' sign and spaces, which int()
# takes and the text format does not
NOT_DIGITS = ["1_0", "٣", "+1", " 2", "2 ", "１", "1" * 5000]


@pytest.mark.parametrize("token", NOT_DIGITS)
@pytest.mark.parametrize("argv", [
    ["gen", "adder", "{v}", "{tmp}/g.qc"],
    ["gen", "taylor", "2", "--f", "{v}", "--fp", "1", "--fpp", "1",
     "--c", "1", "{tmp}/g.qc"],
    ["verify", "adder", "{v}"],
    ["sim", "{tmp}/x.qc", "--input", "{v}"],
    ["sim", "{tmp}/x.qc", "--input", "0", "--shots", "{v}"],
    ["sim", "{tmp}/x.qc", "--input", "0", "--seed", "{v}"],
    ["rb", "--d", "0", "--lengths", "1,2,3", "--sequences", "{v}"],
])
def test_an_integer_flag_takes_only_ascii_digits(tmp_path, capsys, argv,
                                                 token):
    (tmp_path / "x.qc").write_text("qubits 2\ncnot 0 1\n")
    assert_usage_error(capsys, [a.format(tmp=tmp_path, v=token)
                                for a in argv], "invalid int value")
    assert [p.name for p in tmp_path.iterdir()] == ["x.qc"]


# no ASCII decimal literals, though float() takes all but the last three
NOT_DECIMALS = ["0_0", "٠.٥", " 0.5 ", "0.5\n", "+0.5", "１", "nan", "inf",
                "1e", ".", "0x1p-3"]


@pytest.mark.parametrize("token", NOT_DECIMALS)
def test_the_d_flag_takes_only_an_ascii_decimal_literal(capsys, token):
    assert_usage_error(capsys, ["rb", "--d", token, "--lengths", "1,2,3"],
                       "invalid float value")


@pytest.mark.parametrize("token", ["0.02", ".5", "1", "1e-3", "2.5E-1"])
def test_the_d_flag_reads_a_decimal_literal_as_float_does(capsys, token):
    argv = ["--lengths", "1,2,3", "--sequences", "4", "--shots", "5",
            "--format", "json"]
    code, out, _ = run_cli(capsys, "rb", "--d", token, *argv)
    assert code == 0
    assert out == run_cli(capsys, "rb", "--d", repr(float(token)), *argv)[1]


@pytest.mark.parametrize("token", NOT_DIGITS)
@pytest.mark.parametrize("argv", [
    ["uncompute", "{tmp}/x.qc", "--wires", "{v}", "--out", "{tmp}/y.qc"],
    ["uncompute", "{tmp}/x.qc", "--wires", "0,{v}", "--out", "{tmp}/y.qc"],
    ["rb", "--d", "0.1", "--lengths", "1,{v}"],
    ["rb", "--d", "0.1", "--lengths", "1, 2,{v}"],
])
def test_a_list_item_takes_only_ascii_digits(tmp_path, capsys, argv, token):
    (tmp_path / "x.qc").write_text("qubits 12\ncnot 0 1\n")
    result = run_cli(capsys, *[a.format(tmp=tmp_path, v=token) for a in argv])
    assert_one_error_line(result)
    assert "invalid int value" in result[2]
    assert not (tmp_path / "y.qc").exists()


@pytest.mark.parametrize("token", NOT_DIGITS)
def test_seed_env_takes_only_ascii_digits(capsys, monkeypatch, token):
    monkeypatch.setenv("CLIFFORDT_SEED", token)
    assert_usage_error(capsys, ["verify", "adder", "2"],
                       "CLIFFORDT_SEED must be a non-negative integer")


def test_a_minus_sign_keeps_its_messages(tmp_path, capsys):
    (tmp_path / "x.qc").write_text("qubits 2\ncnot 0 1\n")
    result = run_cli(capsys, "sim", str(tmp_path / "x.qc"), "--input", "-1")
    assert_one_error_line(result)
    assert "out of range" in result[2]
    assert_usage_error(capsys, ["sim", str(tmp_path / "x.qc"), "--input", "0",
                                "--seed", "-1"], "--seed must be non-negative")
    code, out, _ = run_cli(capsys, "sim", str(tmp_path / "x.qc"),
                           "--input", "01", "--seed", "-0")
    assert (code, out) == (0, "q: 3\n")
