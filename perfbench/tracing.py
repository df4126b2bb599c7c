"""Per-layer spans recorded from outside the program.

`Tracer.install()` replaces each target function with a wrapper that
records a span {name, start, end, parent}; `Tracer.restore()` puts every
original back.  A function is patched in every `pmdkit`
module namespace that binds it, because `from .x import y` copies the
binding (`cli.measure_pmd_epsilon`, `aqec.auth_unitary`, ...) and
patching only the defining module would miss those calls.  Methods are
patched on their class; a target naming a class wraps its constructor.

Per-element operators (`FieldElement` arithmetic, `PauliOperator.mul`,
`f2.parity`/`dot`) are deliberately not wrapped: a wrapper would cost
more than the call, and their time lands in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from statistics import median

# The span around each whole CLI invocation.
ENVELOPE = "cli.run"

# Spans recorded in a traced pass, as "<module>.<function>",
# "<module>.<Class>.<method>" or "<module>.<Class>" (constructor).
TARGETS = (
    ENVELOPE,
    "f2.rref", "f2.solve", "f2.kernel_basis",
    "galois.compute_dual_basis",
    "galois.DualBasisPair.alpha_coords", "galois.DualBasisPair.beta_coords",
    "symplectic.parse_code", "symplectic.StabilizerCode",
    "symplectic.StabilizerCode.stabilizer_group", "symplectic.syndrome",
    "symplectic.CliffordCircuit.conjugate_pauli",
    "densesim.apply_on_qubits", "densesim.apply_circuit", "densesim.apply_pauli",
    "densesim.maximally_entangled_overlap", "densesim.codespace_isometry",
    "densesim.circuit_unitary",
    "ptc.build_bcgst_family", "ptc.measure_strong_ptc_error",
    "ptc.measure_pairwise_detectability",
    "pmd.build_pmd", "pmd.measure_pmd_epsilon", "pmd.auth_unitary",
    "qlde.erasure_list_decode",
    "aqec.compose", "aqec.ErasureAdversary", "aqec.random_adversary",
    "aqec.erasure_harness", "aqec.entangled_code_state", "aqec.apply_adversary",
    "aqec.algorithm1_decode", "aqec.CorrectionCascade",
    "aqec.CorrectionCascade.apply",
    "auth.nm_search", "auth.nm_verify", "auth.nm_decompose",
    "auth.systematic_parity_nm", "auth.Auth13Protocol",
    "auth.auth13_attack_harness", "auth.twise_pad", "auth.auth1_encode",
    "auth.auth1_decode", "auth.auth1_block_reject_probability",
    "auth.auth1_block_codeword_density", "auth.stabilizer_mass",
    "auth.twirl_channel", "auth.Auth1Protocol.encoder_isometry",
)

# Span name for the benchmark's own bookkeeping inside a traced call.
# It is a child span, so its time is excluded from the caller's self time.
OBSERVE = "trace.observe"


def _nm_table_key(code, f):
    """Canonical decode table of one tampering: the whole input of its LP."""
    dists = code.tampered_distributions(f)
    return code.k, tuple(tuple(sorted(((-1 if o is None else o), p)
                                      for o, p in d.items())) for d in dists)


# Input properties counted per call, so caching changes can cite the
# share of calls that repeat an earlier input.
KEYS = {
    "auth.nm_decompose": _nm_table_key,
    # PmdCode hashes by identity; holding the objects keeps ids unique.
    "pmd.auth_unitary": lambda pmd: pmd,
}

# Work done per call, for the rate metrics.
WORK = {
    "pmd.measure_pmd_epsilon":
        lambda pmd, samples=None, seed=None: 4 ** pmd.total if samples is None else samples,
    "ptc.measure_strong_ptc_error":
        lambda family, samples=None, seed=None, chunk=None:
            4 ** family.n - 1 if samples is None else samples,
    "auth.nm_decompose": lambda code, f: 1,
}

RATES = {
    "pmd.paulis_per_s": "pmd.measure_pmd_epsilon",
    "ptc.errors_per_s": "ptc.measure_strong_ptc_error",
    "auth.lp_per_s": "auth.nm_decompose",
}


def _pmdkit_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "pmdkit" or name.startswith("pmdkit."))]


class Tracer:
    """Spans of one traced pass, kept in flat arrays until the pass ends."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.keys: dict[str, list] = {}
        self.work: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str):
        name_id = self.name_id(name)
        observe_id = self.name_id(OBSERVE)
        key_of = KEYS.get(name)
        work_of = WORK.get(name)
        clock = time.perf_counter_ns
        stack, name_of, parent = self.stack, self.name_of, self.parent
        start, end = self.start, self.end

        def observe(args, kwargs):
            idx = len(name_of)
            name_of.append(observe_id)
            parent.append(stack[-1] if stack else -1)
            start.append(clock())
            end.append(0)
            stack.append(idx)
            try:
                if key_of is not None:
                    self.keys.setdefault(name, []).append(key_of(*args, **kwargs))
                if work_of is not None:
                    self.work[name] = self.work.get(name, 0) + work_of(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key_of is not None or work_of is not None:
                observe(args, kwargs)
            idx = len(name_of)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            start.append(clock())
            end.append(0)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        wrapper.__perfbench_span__ = name
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, targets=TARGETS) -> None:
        modules = _pmdkit_modules()
        for target in targets:
            mod_name, _, qual = target.partition(".")
            mod = importlib.import_module(f"pmdkit.{mod_name}")
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self.wrap(cls.__dict__[meth], target))
                continue
            obj = getattr(mod, qual)
            if isinstance(obj, type):
                self._patch(obj, "__init__", self.wrap(obj.__init__, target))
                continue
            wrapper = self.wrap(obj, target)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is obj:
                        self._patch(module, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls, inclusive s, self s; plus keys and work."""
        n = len(self.name_of)
        child = [0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        stats = {name: [0, 0, 0] for name in self.names}
        # Time inside a span below `cli.run`; the envelope's own self time
        # (parsing, rendering, anything unwrapped) is not attributed.
        envelope = self._name_ids.get(ENVELOPE, -1)
        attributed = 0
        for i in range(n):
            dur = end[i] - start[i]
            row = stats[self.names[self.name_of[i]]]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
            p = parent[i]
            if p >= 0 and self.name_of[p] == envelope:
                attributed += dur
            elif p < 0 and self.name_of[i] != envelope:
                attributed += dur
        spans = {name: {"calls": c, "s": s / 1e9, "self_s": ss / 1e9}
                 for name, (c, s, ss) in stats.items()}
        distinct = {name: len(set(keys)) for name, keys in self.keys.items()}
        return {"spans": spans, "attributed_s": attributed / 1e9,
                "distinct": distinct, "work": dict(self.work)}

    def write_jsonl(self, path, pass_index: int, t0_ns: int) -> None:
        """Append this pass's spans, times in s from the pass's first call."""
        names, name_of, parent = self.names, self.name_of, self.parent
        with open(path, "a", encoding="utf-8") as out:
            for i in range(len(name_of)):
                p = parent[i]
                out.write(json.dumps({
                    "pass": pass_index, "id": i, "name": names[name_of[i]],
                    "start": (self.start[i] - t0_ns) / 1e9,
                    "end": (self.end[i] - t0_ns) / 1e9,
                    "parent": p if p >= 0 else None}) + "\n")


def leftover_wrappers() -> list[str]:
    """Bindings in pmdkit that still hold a benchmark wrapper."""
    found = []
    for module in _pmdkit_modules():
        for attr, value in vars(module).items():
            if hasattr(value, "__perfbench_span__"):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for meth, member in vars(value).items():
                    if hasattr(member, "__perfbench_span__"):
                        found.append(f"{module.__name__}.{attr}.{meth}")
    return found


def layer_metrics(names, traced: list[dict], traced_run_s: list[float],
                  overhead_s: float) -> dict:
    """Per-layer metric values: medians over the traced passes.

    `traced_run_s` are the traced passes' wall times; `overhead_s` is
    the traced minus the untraced `run_s`, on the end-to-end estimator.
    """

    def one(agg, run_s, name):
        if name in RATES:
            span = agg["spans"].get(RATES[name])
            work = agg["work"].get(RATES[name], 0)
            return work / span["self_s"] if span and span["self_s"] > 0 else 0.0
        if name == "trace.unattributed_share":
            return max(0.0, 1.0 - agg["attributed_s"] / run_s)
        span_name, _, stat = name.rpartition(".")
        if stat == "distinct_share":
            calls = agg["spans"].get(span_name, {}).get("calls", 0)
            return agg["distinct"].get(span_name, 0) / calls if calls else 0.0
        return agg["spans"].get(span_name, {}).get(stat, 0)

    out = {}
    for name in names:
        if name == "trace.overhead_s":
            out[name] = overhead_s
            continue
        values = [one(agg, run_s, name) for agg, run_s in zip(traced, traced_run_s)]
        out[name] = values[0] if isinstance(values[0], int) else median(values)
    return out
