"""Binary Pauli group and stabilizer-code machinery.

A Pauli on n qubits is stored as a pair of n-bit masks (x, z) plus a
phase exponent p mod 4, representing the matrix i^p * X^x Z^z.  Bit j of
a mask refers to qubit j.  Dense simulation downstream uses the same
little-endian convention (qubit j = bit j of a basis-state index).

Stabilizer generators always carry phase +1; sign conventions never
enter the detection norms measured elsewhere (they are unitarily
invariant).  Paulis are deduplicated modulo global phase wherever the
underlying set is phase-insensitive (normalizers, correction lists);
full mod-4 phases are tracked through group multiplication and Clifford
conjugation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from . import f2

_SYMBOLS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_PHASE_PREFIX = {0: "", 1: "i*", 2: "-", 3: "-i*"}


@dataclass(frozen=True)
class PauliOperator:
    """n-qubit Pauli as i^phase * X^x Z^z with bit-packed exponents."""

    n: int
    x: int
    z: int
    phase: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("qubit count must be nonnegative")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError(f"exponent bits beyond qubit {self.n - 1}")
        object.__setattr__(self, "phase", self.phase % 4)

    @classmethod
    def identity(cls, n: int) -> "PauliOperator":
        return cls(n, 0, 0, 0)

    @classmethod
    def from_label(cls, label: str) -> "PauliOperator":
        """Parse a symbol string like 'XZIY'.

        Character j names qubit j.  The phase is fixed so the dense
        matrix equals the literal tensor product of I/X/Y/Z factors
        (each Y contributes i to the X^x Z^z normal form).
        """
        x = z = 0
        ys = 0
        for j, ch in enumerate(label.strip().upper()):
            if ch == "I":
                continue
            elif ch == "X":
                x |= 1 << j
            elif ch == "Z":
                z |= 1 << j
            elif ch == "Y":
                x |= 1 << j
                z |= 1 << j
                ys += 1
            else:
                raise ValueError(f"unknown Pauli symbol {ch!r} at position {j}")
        return cls(len(label.strip()), x, z, ys % 4)

    def label(self, with_phase: bool = False) -> str:
        body = "".join(_SYMBOLS[((self.x >> j) & 1, (self.z >> j) & 1)]
                       for j in range(self.n))
        if not with_phase:
            return body
        ys = (self.x & self.z).bit_count()
        return _PHASE_PREFIX[(self.phase - ys) % 4] + body

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    @property
    def support(self) -> tuple[int, ...]:
        mask = self.x | self.z
        return tuple(j for j in range(self.n) if (mask >> j) & 1)

    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def symplectic_vector(self) -> int:
        """(x | z) packed into 2n bits, x half first."""
        return self.x | (self.z << self.n)

    @classmethod
    def from_symplectic_vector(cls, n: int, vec: int) -> "PauliOperator":
        mask = (1 << n) - 1
        return cls(n, vec & mask, (vec >> n) & mask)

    def mul(self, other: "PauliOperator") -> "PauliOperator":
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n} qubits")
        # X^x1 Z^z1 X^x2 Z^z2 = (-1)^<z1,x2> X^(x1+x2) Z^(z1+z2)
        sign = 2 * f2.dot(self.z, other.x)
        return PauliOperator(self.n, self.x ^ other.x, self.z ^ other.z,
                             self.phase + other.phase + sign)

    def inverse(self) -> "PauliOperator":
        # (i^p X^x Z^z)^-1 = i^-p Z^z X^x = i^-p (-1)^<x,z> X^x Z^z
        return PauliOperator(self.n, self.x, self.z,
                             -self.phase + 2 * f2.dot(self.x, self.z))

    def hermitian_form(self) -> "PauliOperator":
        """The +1-signed Hermitian operator with these exponents.

        Phase i^{#Y} makes the matrix the literal I/X/Y/Z tensor product.
        """
        return PauliOperator(self.n, self.x, self.z, (self.x & self.z).bit_count())

    def __repr__(self) -> str:
        return f"Pauli({self.label(with_phase=True)})"


def symplectic_product(p: PauliOperator, q: PauliOperator) -> int:
    """0 if p and q commute, 1 if they anticommute."""
    if p.n != q.n:
        raise ValueError(f"size mismatch: {p.n} vs {q.n} qubits")
    return f2.dot(p.x, q.z) ^ f2.dot(q.x, p.z)


def pauli_span(n: int, gens, up_to_phase: bool = True) -> list[PauliOperator]:
    """All 2^len(gens) products of a generator subset (mod phase if requested).

    The list doubles once per generator, so element i is the product of
    the generators whose bits are set in i, multiplied in index order.
    """
    elements = f2.span(gens, PauliOperator.identity(n), PauliOperator.mul)
    if up_to_phase:
        elements = [PauliOperator(n, e.x, e.z, 0) for e in elements]
    return elements


# ---------------------------------------------------------------------------
# Clifford circuits as gate lists (used for deterministic encoders)
# ---------------------------------------------------------------------------

_GATE_ARITY = {"h": 1, "s": 1, "x": 1, "z": 1, "cnot": 2, "cz": 2}
# Gates that are exact permutations or sign flips and their own inverse,
# so two identical ones in a row cancel with no rounding in any state.
_EXACT_INVOLUTIONS = ("x", "z", "cnot", "cz")


@dataclass(frozen=True)
class CliffordCircuit:
    """A sequence of (gate, qubits) pairs over {h, s, x, z, cnot, cz}.

    Gates apply in list order; `conjugate_pauli` returns C P C^dagger
    for the full circuit C.
    """

    n: int
    gates: tuple[tuple[str, tuple[int, ...]], ...] = ()

    def __post_init__(self):
        for name, qubits in self.gates:
            if name not in _GATE_ARITY:
                raise ValueError(f"unknown gate {name!r}")
            if len(qubits) != _GATE_ARITY[name]:
                raise ValueError(f"gate {name} takes {_GATE_ARITY[name]} qubits")
            if len(set(qubits)) != len(qubits):
                raise ValueError(f"gate {name} has repeated qubits {qubits}")
            if any(not 0 <= q < self.n for q in qubits):
                raise ValueError(f"gate {name} addresses qubit outside [0, {self.n})")

    def __len__(self) -> int:
        return len(self.gates)

    def inverse(self) -> "CliffordCircuit":
        """C^-1 in the same gate set: the gates in reverse order, each its
        own inverse except S.  S^-1 = S^3, so a run of m S gates on one
        qubit becomes (-m mod 4) of them, and inverting twice restores
        every circuit whose S runs are shorter than four."""
        inv = []
        for gate, run in itertools.groupby(reversed(self.gates)):
            count = len(list(run))
            inv.extend([gate] * (-count % 4 if gate[0] == "s" else count))
        return CliffordCircuit(self.n, tuple(inv))

    def conjugate_pauli(self, p: PauliOperator) -> PauliOperator:
        if p.n != self.n:
            raise ValueError("operator width mismatch")
        x, z, phase = self.conjugate_masks(p.x, p.z)
        return PauliOperator(self.n, x, z, p.phase + phase)

    def conjugate_masks(self, x, z):
        """C X^x Z^z C^dagger = i^phase X^x' Z^z' as (x', z', phase).

        x and z are exponent masks: ints, or integer numpy arrays that
        broadcast against each other, conjugated elementwise by the same
        shifts, ands and xors.  The inputs are never modified; phase is
        not reduced mod 4.
        """
        phase = 0
        for name, qubits in self.gates:
            if name == "h":
                (q,) = qubits
                bx, bz = (x >> q) & 1, (z >> q) & 1
                phase = phase + 2 * (bx & bz)
                x = x ^ ((bx ^ bz) << q)
                z = z ^ ((bx ^ bz) << q)
            elif name == "s":
                (q,) = qubits
                bx = (x >> q) & 1
                phase = phase + bx
                z = z ^ (bx << q)
            elif name == "x":
                (q,) = qubits
                phase = phase + 2 * ((z >> q) & 1)
            elif name == "z":
                (q,) = qubits
                phase = phase + 2 * ((x >> q) & 1)
            elif name == "cnot":
                c, t = qubits
                x = x ^ (((x >> c) & 1) << t)
                z = z ^ (((z >> t) & 1) << c)
            elif name == "cz":
                c, t = qubits
                phase = phase + 2 * ((x >> c) & (x >> t) & 1)
                z = z ^ (((x >> c) & 1) << t) ^ (((x >> t) & 1) << c)
        return x, z, phase


def _swap_gates(a: int, b: int) -> list[tuple[str, tuple[int, ...]]]:
    return [("cnot", (a, b)), ("cnot", (b, a)), ("cnot", (a, b))]


# ---------------------------------------------------------------------------
# Stabilizer codes
# ---------------------------------------------------------------------------

class StabilizerCode:
    """An [[n, n-r]] stabilizer code.

    Generators must commute pairwise and be independent; all carry
    phase +1.  Construction only validates them: the normalizer basis
    and the deterministic encoder circuit are derived on first use of
    `normalizer` and `encoder`, so families that never read them pay
    nothing for them.
    Instances are immutable afterwards, so all queries are safe to share.
    """

    def __init__(self, n: int, gens: list[PauliOperator], name: str = "",
                 encoder_pivot: str = "low"):
        self.n = n
        self.name = name
        gens = [g.hermitian_form() for g in gens]
        for i, g in enumerate(gens):
            if g.n != n:
                raise ValueError(f"generator {i + 1} acts on {g.n} qubits, code has {n}")
            if g.is_identity():
                raise ValueError(f"generator {i + 1} is the identity")
        for i, j in itertools.combinations(range(len(gens)), 2):
            if symplectic_product(gens[i], gens[j]):
                raise ValueError(f"generators {i + 1} and {j + 1} anticommute")
        self._gen_pivots, self._gen_rref = f2.rref((g.symplectic_vector() for g in gens),
                                                   2 * n)
        if len(self._gen_pivots) != len(gens):
            raise ValueError("generators are dependent")
        self.gens = tuple(gens)
        self.r = len(gens)
        self.k = n - self.r
        _check_pivot(encoder_pivot)
        self._encoder_pivot = encoder_pivot

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"StabilizerCode([[{self.n}, {self.k}]]{tag})"

    @cached_property
    def encoder(self) -> CliffordCircuit:
        """`standard_form_encoder` of this code, built once on first use."""
        return standard_form_encoder(self, pivot=self._encoder_pivot)

    @cached_property
    def normalizer(self) -> tuple[PauliOperator, ...]:
        """`normalizer_basis` of this code, derived on first use."""
        return tuple(normalizer_basis(self))

    def stabilizer_group(self, up_to_phase: bool = True):
        """All 2^r stabilizer elements (mod phase if requested)."""
        return pauli_span(self.n, self.gens, up_to_phase)

    def contains_in_stabilizer(self, p: PauliOperator) -> bool:
        """Membership of p in S(Q) up to phase."""
        return f2.span_contains(self._gen_pivots, self._gen_rref, p.symplectic_vector())


def syndrome(code: StabilizerCode, e: PauliOperator) -> tuple[int, ...]:
    """Bit i is 1 iff e anticommutes with generator i."""
    if e.n != code.n:
        raise ValueError(f"size mismatch: error on {e.n} qubits, code on {code.n}")
    return tuple(symplectic_product(g, e) for g in code.gens)


def _twisted(vec: int, n: int) -> int:
    """Swap the x and z halves; turns commutation into a plain dot product."""
    mask = (1 << n) - 1
    return ((vec & mask) << n) | (vec >> n)


def normalizer_basis(code: StabilizerCode) -> list[PauliOperator]:
    """2n - r independent Paulis spanning N(Q) modulo phase.

    Computed as the kernel of the symplectic form against the generator
    rows: P commutes with g iff <twisted(g), vec(P)> = 0.
    """
    rows = [_twisted(g.symplectic_vector(), code.n) for g in code.gens]
    kernel = f2.kernel_basis(rows, 2 * code.n)
    return [PauliOperator.from_symplectic_vector(code.n, v) for v in kernel]


def is_logically_equivalent(code: StabilizerCode, p: PauliOperator, q: PauliOperator) -> bool:
    """True iff p * q^-1 is in S(Q) up to phase."""
    if p.n != code.n or q.n != code.n:
        raise ValueError("operator width does not match the code")
    return code.contains_in_stabilizer(p.mul(q.inverse()))


def css_from_classical(h1, h2, name: str = "") -> StabilizerCode:
    """CSS code from parity-check matrices of two classical codes.

    h1 and h2 are 0/1 matrices (rows = checks).  Requires that the dual
    of code 2 is contained in code 1, i.e. h1 @ h2.T = 0.  X-type
    generators come from a row basis of h2, Z-type from a row basis of
    h1; the result has k = k1 + k2 - n.
    """
    h1 = [list(map(int, row)) for row in h1]
    h2 = [list(map(int, row)) for row in h2]
    widths = {len(row) for row in h1} | {len(row) for row in h2}
    if len(widths) != 1:
        raise ValueError("parity-check matrices must fix one common block length")
    n = widths.pop()
    if n == 0:
        raise ValueError("block length must be positive")
    rows1 = [f2.bits_to_int(row) for row in h1]
    rows2 = [f2.bits_to_int(row) for row in h2]
    for i, a in enumerate(rows1):
        for j, b in enumerate(rows2):
            if f2.dot(a, b):
                raise ValueError(
                    f"containment violated: h1 row {i + 1} and h2 row {j + 1} "
                    "have odd overlap (dual of code 2 is not inside code 1)")
    _, basis_x = f2.rref(rows2, n)
    _, basis_z = f2.rref(rows1, n)
    gens = [PauliOperator(n, v, 0) for v in basis_x]
    gens += [PauliOperator(n, 0, v) for v in basis_z]
    return StabilizerCode(n, gens, name=name)


def _check_pivot(pivot: str) -> None:
    if pivot not in ("low", "high"):
        raise ValueError(f"pivot must be 'low' or 'high', got {pivot!r}")


def standard_form_encoder(code: StabilizerCode, pivot: str = "low") -> CliffordCircuit:
    """Deterministic encoder circuit for the code.

    Builds a reduction R (by symplectic Gaussian elimination) with
    R g_i R^dagger = +Z_{k+i} times Z on the earlier slots k + j whose Z
    the row operations cleared from g_i, and returns U = R^-1, so that
    U (|m> tensor |0^r>) spans the code space.  `pivot` selects the
    lowest- or highest-index support qubit at each step; both are
    deterministic, and byte-identical circuits result from identical
    inputs.  The reduction's gates collect in one list, where a gate from
    `_EXACT_INVOLUTIONS` that repeats the gate just before it cancels it
    (a pivot fold followed by a swap emits such CNOT pairs).
    """
    _check_pivot(pivot)
    n, k = code.n, code.k
    reduction: list[tuple[str, tuple[int, ...]]] = []
    work = list(code.gens)

    def emit(new_gates):
        nonlocal work
        step = CliffordCircuit(n, tuple(new_gates))
        work = [step.conjugate_pauli(p) for p in work]
        for gate in step.gates:
            if reduction and reduction[-1] == gate and gate[0] in _EXACT_INVOLUTIONS:
                reduction.pop()
            else:
                reduction.append(gate)

    for i in range(code.r):
        target = k + i
        # Clear Z components at already-fixed pivots by row operations
        # (multiplying by the fixed generator changes nothing mod S).
        for j in range(i):
            if (work[i].z >> (k + j)) & 1:
                work[i] = work[i].mul(work[j])
            assert not (work[i].x >> (k + j)) & 1, "commutation bookkeeping broke"
        p = work[i]
        step: list[tuple[str, tuple[int, ...]]] = []
        # Normalize every support qubit to a pure X (Y -> X via S, Z -> X via H).
        for q in range(n):
            bx, bz = (p.x >> q) & 1, (p.z >> q) & 1
            if bx and bz:
                step.append(("s", (q,)))
            elif bz:
                step.append(("h", (q,)))
        emit(step)
        p = work[i]
        assert p.z == 0 and p.x != 0
        support = [q for q in range(n) if (p.x >> q) & 1]
        piv = support[0] if pivot == "low" else support[-1]
        # Fold the remaining X's into the pivot.
        emit([("cnot", (piv, q)) for q in support if q != piv])
        # Move the pivot to its ancilla slot and turn X into Z.
        if piv != target:
            emit(_swap_gates(piv, target))
        emit([("h", (target,))])
        assert work[i].x == 0 and work[i].z == 1 << target, "reduction failed"
    # Fix signs: a generator reduced to -Z gets an X at its slot.
    sign_fixes = [("x", (k + i,)) for i in range(code.r) if work[i].phase]
    emit(sign_fixes)
    for i in range(code.r):
        assert work[i] == PauliOperator(n, 0, 1 << (k + i), 0)
    return CliffordCircuit(n, tuple(reduction)).inverse()


# ---------------------------------------------------------------------------
# Text format: header line `n=<int> k=<int>`, one generator label per line
# ---------------------------------------------------------------------------

def format_code(code: StabilizerCode) -> str:
    lines = [f"n={code.n} k={code.k}"]
    lines += [g.label() for g in code.gens]
    return "\n".join(lines) + "\n"


def parse_code(text: str) -> StabilizerCode:
    lines = [ln.strip() for ln in text.splitlines()]
    numbered = [(i + 1, ln) for i, ln in enumerate(lines)
                if ln and not ln.startswith("#")]
    if not numbered:
        raise ValueError("empty code description")
    header_no, header = numbered[0]
    try:
        fields = dict(part.split("=", 1) for part in header.split())
        n, k = int(fields["n"]), int(fields["k"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"line {header_no}: header must be 'n=<int> k=<int>'") from exc
    gens = []
    for lineno, label in numbered[1:]:
        try:
            g = PauliOperator.from_label(label)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        if g.n != n:
            raise ValueError(f"line {lineno}: generator has {g.n} qubits, header says {n}")
        gens.append((lineno, g))
    for (li, gi), (lj, gj) in itertools.combinations(gens, 2):
        if symplectic_product(gi, gj):
            raise ValueError(f"lines {li} and {lj}: generators anticommute")
    vecs = [g.symplectic_vector() for _, g in gens]
    if f2.rank(vecs, 2 * n) != len(gens):
        for idx in range(len(gens)):
            if f2.rank(vecs[: idx + 1], 2 * n) != idx + 1:
                raise ValueError(f"line {gens[idx][0]}: generator depends on earlier ones")
    if len(gens) != n - k:
        raise ValueError(f"header says k={k} but {len(gens)} generators imply k={n - len(gens)}")
    return StabilizerCode(n, [g for _, g in gens])
