"""Exact dense linear algebra for small-qubit verification.

Statevectors and operators are complex128 numpy arrays.  Basis-state
index bit j holds qubit j (little-endian), matching the bit-packed
Pauli convention in `symplectic`.

This module has no mixed-state type of its own; mixed states live with
their users.  The authentication harnesses in `auth` keep small
density matrices: built from the padded vectors of many keys at once
(`pauli_gather_stack`) or padded by all Paulis of one X mask at once
(`dm_conjugate_z_stack`), unpadded by `dm_conjugate_pauli`, and sent
through a wire as its superoperator by `apply_on_qubits` on vec(rho)
(`dm_apply_single_qubit_kraus` is the per-Kraus form), and the erasure
harness in `aqec` scores each adversary from 2^|E| x 2^|E| Gram matrices
over the erased environment (`aqec.ErasedState`).  Every Kraus map is
checked by `check_trace_preserving` and serialized by `kraus_to_record`.
"""

from __future__ import annotations

import numpy as np

from .limits import SizeGuardError, check_qubits
from .symplectic import CliffordCircuit, PauliOperator, StabilizerCode

ATOL = 1e-10

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.diag([1, 1j]).astype(complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.diag([1, -1]).astype(complex)

GATE_MATRICES = {"h": _H, "s": _S, "x": _X, "z": _Z}


def _qubit_count(dim: int, what: str = "vector") -> int:
    n = dim.bit_length() - 1
    if 1 << n != dim:
        raise ValueError(f"{what} dimension {dim} is not a power of two")
    return n


# ---------------------------------------------------------------------------
# Pauli and gate application
# ---------------------------------------------------------------------------

def pauli_matrix(p: PauliOperator) -> np.ndarray:
    """Dense 2^n x 2^n matrix of i^phase * X^x Z^z."""
    check_qubits(p.n, "pauli_matrix")
    dim = 1 << p.n
    cols = np.arange(dim)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[cols ^ p.x, cols] = _pauli_signs(cols, p.z, p.phase)
    return mat


def _pauli_signs(rows, z, phase) -> np.ndarray:
    """i^phase * (-1)^(r . z) per index r: P|r> = that * |r ^ x> for
    P = i^phase X^x Z^z.  Rows, Z masks and phases broadcast together."""
    return (1j ** phase) * (1 - 2.0 * f2_parity_array(rows & z))


def f2_parity_array(values: np.ndarray) -> np.ndarray:
    """Bitwise parity of each entry of a nonnegative integer array."""
    v = np.asarray(values).astype(np.uint64)
    return (np.bitwise_count(v) & 1).astype(np.int64)


def pauli_gather(array: np.ndarray, p: PauliOperator,
                 control: tuple[int, int] | None = None) -> np.ndarray:
    """P on the rows of `array` as one gather and one multiply.

    Row index bit j is qubit j and the row count fixes the width, so P
    acts on the low p.n qubits of a register that may be wider; columns
    (if any) are untouched.  With control = (qubit, value), P acts only
    on rows whose control bit equals value, and must not touch that qubit.
    """
    rows = np.arange(array.shape[0])
    active = True if control is None else ((rows >> control[0]) & 1) == control[1]
    rows ^= active * p.x
    # (P v)[r] = i^phase (-1)^{(r ^ x) . z} v[r ^ x]
    signs = _pauli_signs(rows, p.z, p.phase)
    if control is not None:
        signs[~active] = 1
    return array[rows] * (signs if array.ndim == 1 else signs[:, None])


def apply_pauli(p: PauliOperator, array: np.ndarray) -> np.ndarray:
    """`pauli_gather` on an array whose rows span exactly p.n qubits."""
    dim = 1 << p.n
    if array.shape[0] != dim:
        raise ValueError(f"array has {array.shape[0]} rows, expected {dim}")
    return pauli_gather(array, p)


def pauli_gather_stack(vec: np.ndarray, x, z) -> np.ndarray:
    """X^x[j] Z^z[j] vec for many Z masks and X masks at once.

    x and z are equal-shape integer arrays; the result has their shape
    plus vec's, entry j being `pauli_gather` of vec by X^x[j] Z^z[j],
    from one gather and one multiply.
    """
    rows = np.arange(vec.shape[0]) ^ np.expand_dims(x, -1)
    signs = _pauli_signs(rows, np.expand_dims(z, -1), 0)  # before the gather: lower peak
    out = vec[rows]
    out *= signs
    return out


def apply_on_qubits(u: np.ndarray, qubits: tuple[int, ...], array: np.ndarray,
                    n: int) -> np.ndarray:
    """Apply a small unitary/matrix on the listed qubits of an n-qubit array.

    The small matrix's index bit i corresponds to qubits[i].  `array`
    may be a vector or a matrix whose rows form the qubit register.
    """
    m = len(qubits)
    u = np.asarray(u, dtype=complex)
    if u.shape != (1 << m, 1 << m):
        raise ValueError(f"operator shape {u.shape} does not match {m} qubits")
    if len(set(qubits)) != m or any(not 0 <= q < n for q in qubits):
        raise ValueError(f"bad qubit list {qubits}")
    has_cols = array.ndim > 1
    extra = [array.shape[1]] if has_cols else []
    # order='F' makes axis j of the reshape correspond to index bit j,
    # i.e. qubit j, so axes can be addressed by qubit label.
    work = np.asarray(array, dtype=complex).reshape([2] * n + extra, order="F")
    op = u.reshape([2] * (2 * m), order="F")
    result = np.tensordot(op, work, axes=(list(range(m, 2 * m)), list(qubits)))
    # tensordot leaves the op's output axes first, then the untouched
    # axes in their original order; permute qubits back into place.
    remaining = [q for q in range(n) if q not in qubits] + ([n] if has_cols else [])
    src_of_pos = {q: i for i, q in enumerate(qubits)}
    src_of_pos.update({q: m + j for j, q in enumerate(remaining)})
    perm = [src_of_pos[pos] for pos in range(n + (1 if has_cols else 0))]
    return result.transpose(perm).reshape(array.shape, order="F")


def dm_conjugate_pauli(p: PauliOperator, rho: np.ndarray) -> np.ndarray:
    """P rho P^dagger, P acting on the low p.n qubits of rho's register."""
    return dm_conjugate_z_stack(rho, p.x, p.z, p.phase)


def dm_conjugate_z_stack(rho: np.ndarray, x: int, z, phase) -> np.ndarray:
    """P rho P^dagger for the Paulis P = i^phase X^x Z^z of one X mask x.

    z and phase may be integer arrays: the result stacks one conjugated
    rho per entry along their shape, all from one gather of rho.
    """
    rows = np.arange(rho.shape[0]) ^ x
    signs = _pauli_signs(rows, np.expand_dims(z, -1), np.expand_dims(phase, -1))
    return rho[np.ix_(rows, rows)] * (signs[..., :, None] * signs.conj()[..., None, :])


def dm_apply_single_qubit_kraus(kraus, qubit: int, rho: np.ndarray,
                                n: int) -> np.ndarray:
    """sum_K K rho K^dagger with each K acting on one qubit of n."""
    out = np.zeros_like(rho)
    for k in kraus:
        k = np.asarray(k, dtype=complex)
        left = apply_on_qubits(k, (qubit,), rho, n)
        # K rho K^dag == (K (K rho)^dag)^dag, row-applying K both times.
        out += apply_on_qubits(k, (qubit,), left.conj().T, n).conj().T
    return out


def apply_circuit(circ: CliffordCircuit, array: np.ndarray) -> np.ndarray:
    """Apply a Clifford circuit to a statevector or to each column of a
    matrix, one view operation per gate on a C-ordered copy.

    The rows index a register of at least circ.n qubits; the circuit acts
    on its lowest circ.n qubits and any higher ones ride along.  A
    one-qubit gate acts on the middle axis of the (-1, 2, 2^q * cols)
    view, which is qubit q: S and Z multiply its |1> half by i or -1, X
    swaps its halves, and only H contracts it in a matrix product.  Each
    gives the gate matrix's result exactly, except that an exact zero
    may come out with the other sign (-1 * +0 is -0, where the 2 x 2
    product adds a +0).  CNOT
    and CZ act on the (-1, 2, 2^(hi-lo-1), 2, 2^lo * cols) view of their
    two qubits: CZ negates the |11> slice, CNOT swaps the target's halves
    where the control is 1.
    """
    if _qubit_count(array.shape[0], "row") < circ.n:
        raise ValueError(f"array has {array.shape[0]} rows, fewer than 2^{circ.n}")
    out = np.array(array, dtype=complex, order="C")
    cols = out.size // out.shape[0]
    for name, qubits in circ.gates:
        if name in ("s", "z", "x"):
            view = out.reshape(-1, 2, (1 << qubits[0]) * cols)
            if name == "s":
                view[:, 1] *= 1j
            elif name == "z":
                view[:, 1] *= -1
            else:
                view[...] = view[:, ::-1]
        elif name in ("cnot", "cz"):
            lo, hi = sorted(qubits)
            view = out.reshape(-1, 2, 1 << (hi - lo - 1), 2, (1 << lo) * cols)
            if name == "cz":
                view[:, 1, :, 1] *= -1
            elif qubits[0] == hi:
                half = view[:, 1]
                half[...] = half[:, :, ::-1]
            else:
                half = view[:, :, :, 1]
                half[...] = half[:, ::-1]
        else:
            (q,) = qubits
            low = (1 << q) * cols
            # H: one np.dot on the qubit-major copy, as apply_on_qubits's
            # tensordot does, so the rounding is the same.
            moved = np.dot(_H, out.reshape(-1, 2, low)
                           .transpose(1, 0, 2).reshape(2, -1))
            out = moved.reshape(2, -1, low).transpose(1, 0, 2).reshape(out.shape)
    return out


def circuit_unitary(circ: CliffordCircuit) -> np.ndarray:
    check_qubits(circ.n, "circuit_unitary")
    return apply_circuit(circ, np.eye(1 << circ.n, dtype=complex))


# ---------------------------------------------------------------------------
# Code-space isometries and projectors
# ---------------------------------------------------------------------------

def codespace_isometry(code: StabilizerCode) -> np.ndarray:
    """2^n x 2^k isometry from the deterministic encoder circuit.

    Column m is the encoding of basis state |m> (ancillas |0^r>).
    """
    check_qubits(code.n, "codespace_isometry")
    basis = np.zeros((1 << code.n, 1 << code.k), dtype=complex)
    basis[np.arange(1 << code.k), np.arange(1 << code.k)] = 1.0
    return apply_circuit(code.encoder, basis)


def codespace_projector(code: StabilizerCode) -> np.ndarray:
    """Stabilizer-group average 2^-r * sum of signed group elements."""
    check_qubits(code.n, "codespace_projector")
    dim = 1 << code.n
    acc = np.zeros((dim, dim), dtype=complex)
    elements = code.stabilizer_group(up_to_phase=False)
    for e in elements:
        acc += pauli_matrix(e)
    return acc / len(elements)


# ---------------------------------------------------------------------------
# Operator norm
# ---------------------------------------------------------------------------

def operator_norm(m: np.ndarray) -> float:
    """Largest singular value, from a full SVD, up to dimension 4096."""
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    if max(m.shape) > 4096:
        raise SizeGuardError(f"operator_norm limited to dimension 4096, got {m.shape}")
    return float(np.linalg.svd(m, compute_uv=False)[0])


# ---------------------------------------------------------------------------
# Kraus maps
# ---------------------------------------------------------------------------

def check_trace_preserving(grams, dim: int, what: str) -> None:
    """Raise unless the terms K^dagger K of a Kraus map sum to the
    identity on `dim` dimensions, every entry to within ATOL; a NaN or an
    infinity, also one that a lazily made term overflows to, fails quietly."""
    with np.errstate(invalid="ignore", over="ignore"):
        total = sum(grams, np.zeros((dim, dim), dtype=complex))
        if not np.abs(total - np.eye(dim)).max() <= ATOL:
            raise ValueError(f"{what}: Kraus operators are not trace preserving "
                             "(the CPTP condition fails)")


def kraus_to_record(kraus) -> list:
    """JSON form of Kraus matrices: each entry an [re, im] pair."""
    return [[[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(k)]
            for k in kraus]


def kraus_from_record(record) -> tuple[np.ndarray, ...]:
    """Inverse of `kraus_to_record`."""
    return tuple(np.array([[complex(re, im) for re, im in row] for row in k])
                 for k in record)


# ---------------------------------------------------------------------------
# Fidelity measures
# ---------------------------------------------------------------------------

def qubit_rows(vec: np.ndarray, rows) -> np.ndarray:
    """vec as a matrix whose row index bit i is qubit rows[i]; the columns
    index the other qubits, the lowest one as bit 0."""
    n = _qubit_count(vec.shape[0])
    rest = [q for q in range(n) if q not in rows]
    return vec.reshape([2] * n, order="F").transpose(list(rows) + rest).reshape(
        1 << len(rows), -1, order="F")


def phi_amplitudes(vec: np.ndarray, msg_qubits: tuple[int, ...],
                   ref_qubits: tuple[int, ...], rows: tuple[int, ...] = ()) -> np.ndarray:
    """(<Phi| (x) I) vec, with the `rows` qubits as row index (as in
    `qubit_rows`) and every other qubit outside Phi's as column index.

    Phi is the maximally entangled state pairing msg_qubits[i] with
    ref_qubits[i].
    """
    k = len(msg_qubits)
    if len(ref_qubits) != k:
        raise ValueError("message and reference registers differ in size")
    work = qubit_rows(vec, tuple(msg_qubits) + tuple(ref_qubits) + tuple(rows))
    work = work.reshape(1 << (2 * k), -1, order="F")
    # Phi as a row vector over (msg, ref): nonzero where msg == ref.
    idx = np.arange(1 << k)
    amp = work[idx | (idx << k)].sum(axis=0) / np.sqrt(1 << k)
    return amp.reshape(1 << len(rows), -1, order="F")


def maximally_entangled_overlap(branches: list[tuple[float, np.ndarray]],
                                msg_qubits: tuple[int, ...],
                                ref_qubits: tuple[int, ...]) -> float:
    """<Phi| rho_{msg,ref} |Phi> for rho = sum of weight |vec><vec| over
    the (weight, vec) branches; every qubit outside Phi's is traced out."""
    total = 0.0
    for weight, vec in branches:
        amp = phi_amplitudes(vec, msg_qubits, ref_qubits)
        total += weight * float(np.vdot(amp, amp).real)
    return total
