"""Span tracing of cliffordt from the outside.

``Tracer.install()`` replaces the package's public functions with wrappers
that record one span per call: name, start, end, parent span and run id.
A function is replaced under every module attribute that holds it, so
calls made inside the package through re-bound names (``verify.simulate``,
``circuit.apply_gate``, ``state.matrix``) are traced too.  Nothing under
``src/`` changes; ``uninstall()`` puts the original objects back.

Spans live in flat in-memory arrays and are written out once, at the end
of a run, by ``save``.  Work counters (gates, bytes, shots, amplitudes)
are summed per run id at the same call boundaries, and once more under
each enclosing span, as ``<enclosing>><name>.<counter>``.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

#: Layers are the package modules; a span's layer is its name's prefix.
LAYERS = ("arith", "gates", "circuit", "state", "uncompute", "verify")


def _built_gates(args, kwargs, result):
    return {"gates": len(result.circuit.ops)}


def _gate_amps(args, kwargs, result):
    c = args[0]
    return {"gate_amps": len(c.ops) << c.n_qubits}


def _rb_cliffords(args, kwargs, result):
    # each sequence applies m random Cliffords plus the closing inverse
    lengths, n_sequences = args[1], args[2]
    return {"cliffords": n_sequences * sum(int(m) + 1 for m in lengths)}


#: (module, attribute) -> (span name, work counter or None).
TARGETS = {
    ("arith", "build_adder"): ("arith.build", _built_gates),
    ("arith", "build_subtractor"): ("arith.build", _built_gates),
    ("arith", "build_ctrl_add"): ("arith.build", _built_gates),
    ("arith", "build_multiplier"): ("arith.build", _built_gates),
    ("arith", "build_taylor"): ("arith.build", _built_gates),
    ("gates", "matrix"): ("gates.matrix", None),
    ("gates", "decompose_toffoli"): ("gates.decompose", None),
    ("gates", "decompose_fredkin"): ("gates.decompose", None),
    ("gates", "decompose_swap"): ("gates.decompose", None),
    ("circuit", "simulate"): ("circuit.simulate", _gate_amps),
    ("circuit", "permutation_output"): ("circuit.permutation_output",
                                        lambda a, k, r: {"gates": len(a[0].ops)}),
    ("circuit", "lower_to_clifford_t"): ("circuit.lower", lambda a, k, r: {"gates_out": len(r.ops)}),
    ("circuit", "schedule_layers"): ("circuit.schedule_layers", lambda a, k, r: {"layers": len(r)}),
    ("circuit", "resources"): ("circuit.resources", None),
    ("circuit", "serialize"): ("circuit.serialize", lambda a, k, r: {"bytes": len(r)}),
    ("circuit", "parse"): ("circuit.parse", lambda a, k, r: {"bytes": len(a[0])}),
    ("state", "apply_gate"): ("state.apply_gate", None),
    ("state", "new_basis_state"): ("state.new_basis_state", None),
    ("state", "sample"): ("state.sample", lambda a, k, r: {"shots": r.shots}),
    ("uncompute", "bennett_wrap"): ("uncompute.bennett_wrap", lambda a, k, r: {"gates": len(r.ops)}),
    ("verify", "exhaustive_check"): ("verify.exhaustive_check",
                                     lambda a, k, r: {"inputs": r.total_inputs,
                                                      "mismatches": len(r.mismatches)}),
    ("verify", "run_rb"): ("verify.run_rb", _rb_cliffords),
    ("verify", "fit_exponential_decay"): ("verify.fit_exponential_decay", None),
    ("verify", "tomography_1q"): ("verify.tomography_1q", None),
}

#: Oracle factories; the closures they return are traced as verify.oracle.
ORACLE_FACTORIES = ("oracle_adder", "oracle_subtractor", "oracle_ctrl_add",
                    "oracle_multiplier", "oracle_taylor")


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self.work: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(time.perf_counter())
        return i

    def _exit(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._open.pop()

    def _add_work(self, name: str, counts: dict[str, int]) -> None:
        work = self.work[self.run_id]
        enclosing = {self.names[self.name[i]] for i in self._open}
        for key, value in counts.items():
            work[f"{name}.{key}"] += value
            for outer in enclosing:
                work[f"{outer}>{name}.{key}"] += value

    def wrap(self, name: str, fn, counter=None):
        nid = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(i)
            if counter is not None:
                self._add_work(name, counter(args, kwargs, result))
            return result
        return traced

    def wrap_generator(self, name: str, fn):
        nid = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                i = self._enter(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(i)
                yield item
        return traced

    def wrap_factory(self, name: str, factory):
        @functools.wraps(factory)
        def traced(*args, **kwargs):
            return self.wrap(name, factory(*args, **kwargs))
        return traced

    # -- installation ------------------------------------------------------
    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cliffordt" or mod_name.startswith("cliffordt.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        import cliffordt.arith as arith
        mods = {name: sys.modules[f"cliffordt.{name}"] for name in LAYERS}
        for (mod, attr), (name, counter) in TARGETS.items():
            original = getattr(mods[mod], attr)
            self._replace_everywhere(original, self.wrap(name, original, counter))
        for attr in ORACLE_FACTORIES:
            original = getattr(mods["verify"], attr)
            self._replace_everywhere(original, self.wrap_factory("verify.oracle", original))
        # input_space is a generator: one span per item it yields
        cls = arith.ArithInstance
        self._patched.append((cls, "encode", cls.encode))
        cls.encode = self.wrap("arith.encode", cls.encode)
        self._patched.append((cls, "input_space", cls.input_space))
        cls.input_space = self.wrap_generator("arith.input_space", cls.input_space)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------
    def summarize(self, run_id: int, wall_s: float) -> dict[str, float]:
        """Per-function inclusive time and calls, per-layer self time, and
        the unattributed remainder for one run id.

        Self time is a span's duration minus that of its direct children,
        so the layer self times plus ``bench.unattributed_s`` equal
        ``wall_s`` up to rounding.
        """
        out: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        roots = 0.0
        for i in range(len(self.name)):
            if self.run[i] != run_id:
                continue
            dur = self.end[i] - self.start[i]
            name = self.names[self.name[i]]
            out[f"{name}.s"] += dur
            out[f"{name}.calls"] += 1
            self_s[name.split(".", 1)[0]] += dur
            p = self.parent[i]
            if p < 0:
                roots += dur
            else:
                self_s[self.names[self.name[p]].split(".", 1)[0]] -= dur
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        out["bench.unattributed_s"] = wall_s - roots
        out.update(self.work[run_id])
        return out

    def save(self, path) -> int:
        """Write every span as tab-separated text; returns the span count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\trun\n")
            for i in range(len(self.name)):
                fh.write(f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.run[i]}\n")
        return len(self.name)
