"""Key-superposed Pauli-detection codes built from purity-testing families.

The encoder maps a message state into a uniform superposition over
keys, with each branch holding the corresponding keyed stabilizer
encoding:

    B |m> = |K|^(-1/2) sum_k  Enc_k(|m>|0^lam>) (x) |k>

Register layout (little-endian qubits): message on qubits
[0, n-lam), per-key ancilla on [n-lam, n), key register on [n, n+lam).
Key basis states are field elements in polynomial-basis bit order.

The detection figure of merit is the worst operator norm of the
code-space-compressed error, max over nonidentity Paulis E of
|B^dag E B|, measured exhaustively (or by seeded sampling above the
work guard).  Both paths rest on the frame of the per-key Clifford
encoders, where each key's part of B^dag E B is a signed row gather
from a table U_{k^a}^dag B_k, so the sum over keys of the norms of
the gathered slabs is a frame bound on the block, rigorous by the
triangle inequality.  Each slab norm is exactly sqrt(|T| / 2^lam) or 0,
read off the encoders' tableaux (`_clifford_frames`).  The sampled path
keeps a running maximum, builds a key shift's tables only when one of
its draws' frame bounds reaches floor = maximum * (1 - 1e-9), and then
builds blocks by descending frame bound while they reach the floor.  A
built block whose Cholesky factor of floor^2 I - M^dag M exists is
certified below it (the test's rounding is of order n^2 u for n
columns, at most about 1e-10, inside the margin), and only the other
blocks get an SVD.
The exhaustive sweep handles all Z parts of one X part with a Walsh
transform factored over the key and code registers.  It multiplies
only the code Z rows whose frame bound can still reach the running
maximum, skips the X parts that have no such row, and runs an SVD
only on the blocks whose cheap norm bounds can too.
At the first X part, before any SVD, the floor is the largest column
norm of its blocks, a lower bound on the largest block norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .densesim import (apply_circuit, codespace_isometry, circuit_unitary,
                       f2_parity_array, pauli_gather)
from .limits import SWEEP_GUARD, SizeGuardError, check_qubits
from .ptc import PtcFamily
from .symplectic import PauliOperator, pauli_span


def check_pmd_size(n: int, lam: int) -> None:
    """SizeGuardError when the (n, lam) code exceeds its qubit guard;
    callers can check this before they build the family."""
    check_qubits(n + lam, "build_pmd", limit=12)


class PmdCode:
    """A key-superposed detection code derived from a keyed family."""

    def __init__(self, family: PtcFamily):
        check_pmd_size(family.n, family.lam)
        self.family = family
        self.key_qubits = family.lam
        self.code_qubits = family.n
        self.message_qubits = family.n - family.lam
        self.total = family.n + family.lam
        self.encoder = self._build_encoder()

    def _build_encoder(self) -> np.ndarray:
        dim_msg = 1 << self.message_qubits
        dim_total = 1 << self.total
        scale = 1.0 / np.sqrt(self.family.num_keys)
        enc = np.zeros((dim_total, dim_msg), dtype=complex)
        for key_bits in range(self.family.num_keys):
            code = self.family.codes[key_bits]
            b_k = codespace_isometry(code)  # 2^n x 2^(n-lam)
            offset = key_bits << self.code_qubits
            enc[offset:offset + (1 << self.code_qubits), :] += scale * b_k
        return enc

    @cached_property
    def encoder_dagger(self) -> np.ndarray:
        """B^dagger, conjugated once per code."""
        return self.encoder.conj().T

    @cached_property
    def projector(self) -> np.ndarray:
        return self.encoder @ self.encoder_dagger

    @cached_property
    def encoder_unitary(self) -> np.ndarray:
        """Unitary extension of the encoder on all n+lam qubits.

        Applies a Hadamard layer on the key register, then the per-key
        Clifford encoders controlled on the key.  Restricted to
        |m>|0^(lam+lam)> it reproduces the encoder isometry.
        """
        dim_code = 1 << self.code_qubits
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        h_layer = np.eye(1, dtype=complex)
        for _ in range(self.key_qubits):
            h_layer = np.kron(h, h_layer)
        u = np.kron(h_layer, np.eye(dim_code))
        blocks = np.zeros((1 << self.total, 1 << self.total), dtype=complex)
        for key_bits in range(self.family.num_keys):
            enc_k = circuit_unitary(self.family.codes[key_bits].encoder)
            sl = slice(key_bits * dim_code, (key_bits + 1) * dim_code)
            blocks[sl, sl] = enc_k
        return blocks @ u

    def __repr__(self) -> str:
        return (f"PmdCode(n={self.code_qubits}, lam={self.key_qubits}, "
                f"message={self.message_qubits})")


def build_pmd(family: PtcFamily) -> PmdCode:
    return PmdCode(family)


@dataclass(frozen=True)
class EpsilonReport:
    value: float
    argmax: PauliOperator
    exhaustive: bool


def _walsh_matrix(n_qubits: int) -> np.ndarray:
    dim = 1 << n_qubits
    idx = np.arange(dim, dtype=np.uint64)
    par = f2_parity_array(idx[:, None] & idx[None, :])
    return (1.0 - 2.0 * par).astype(float)


def _norm_bounds(m: np.ndarray) -> np.ndarray:
    """Upper bounds on the spectral norm of each matrix in a stack.

    The smaller of the Frobenius norm and the Schur/Hoelder bound
    sqrt(|M|_1 |M|_inf) (largest column and row absolute sums).
    """
    a = np.abs(m)
    holder = np.sqrt(a.sum(axis=1).max(axis=1) * a.sum(axis=2).max(axis=1))
    return np.minimum(holder, np.sqrt(np.einsum("ijk,ijk->i", a, a)))


def measure_pmd_epsilon(pmd: PmdCode, samples: int | None = None,
                        seed: int = 0) -> EpsilonReport:
    """max over E != I (mod phase) of |B^dag E B|, with the argmax.

    Exhaustive over all 4^total - 1 exponent pairs while the sweep's
    4^total * 4^(n-lam) block entries stay within `SWEEP_GUARD`
    (SizeGuardError before any work otherwise); pass `samples` for a
    uniform sample drawn from a Philox generator seeded with `seed`.
    Sampling refuses, before drawing, more than `SWEEP_GUARD` block
    entries (samples * 4^(n-lam)) and more samples than the 4^total - 1
    nonidentity Paulis, where the exhaustive sweep is exact and allowed.
    The argmax is the first drawn Pauli with the largest `frame_norms`
    norm, found by `_sampled_argmax` with few blocks built and fewer
    SVDs.  The reported value is `compressed_error_norm` at the argmax,
    so it is exactly the dense norm there.

    Phases of E drop out of singular values, so only the (x, z)
    exponents matter.  For each x mask the rows of B are permuted by
    X^x, and T[i, (j, l)] = conj(B[i, j]) (X^x B)[i, l] turns every Z
    sign pattern into one Walsh transform: the block of W T at row z is
    B^dag X^x Z^z B up to phase.  Rows are indexed key << n | c, so
    W = W_key (x) W_code is applied factor by factor, on the real view
    of T.

    Before the transform, `_row_bounds` bounds each code Z part z_c of
    the x mask over all 2^lam key Z parts at once, and only the rows
    W_code[z_c] whose bound reaches the floor, the running maximum less
    a relative 1e-9, are multiplied; the sweep steps straight from one
    x mask to the next whose largest row bound reaches it.  Singular
    values are then computed only for blocks whose norm bounds
    (`_norm_bounds` of the block, then the square root of the same
    bounds on its Gram matrix) reach that floor too.  At x mask 0 there
    is no maximum yet, so the floor is the largest column norm of its
    nonidentity blocks (|M e_j| <= |M|), less the same 1e-9.  No
    rounding error can cross the 1e-9 margin, so a skipped mask, row or
    block can neither exceed the maximum nor tie it, and the argmax is
    the first maximiser in (x, z) order.  Without a message qubit the
    row bound is not built (at the final maximum it keeps nearly every
    row there), and every x mask and row is visited.
    """
    total = pmd.total
    if samples is None:
        n, lam = pmd.code_qubits, pmd.key_qubits
        dim, k_dim = pmd.encoder.shape
        work = (1 << (2 * total)) * k_dim * k_dim
        if work > SWEEP_GUARD:
            raise SizeGuardError(
                f"exhaustive detection sweep would compute {work:.2e} block "
                f"entries, above the guard of {SWEEP_GUARD:.0e}; re-run with "
                "samples=<count> and a seed for sampling mode")
        walsh_code, walsh_key = _walsh_matrix(n), _walsh_matrix(lam)
        rows = np.arange(dim)
        conj = pmd.encoder.conj()
        z_c, walsh_rows = np.arange(1 << n), walsh_code
        if k_dim > 1:
            row_bounds = _row_bounds(pmd)
            mask_bounds = row_bounds.max(axis=2).reshape(-1)
        else:
            mask_bounds = np.full(1 << total, np.inf)
        best, best_xz, floor = -1.0, (0, 0), -1.0
        x_mask = 0
        while x_mask < 1 << total:
            if k_dim > 1:
                # x_mask 0 keeps every row: the floor is still negative.
                z_c = np.flatnonzero(row_bounds[x_mask >> n, x_mask & ((1 << n) - 1)] >= floor)
                walsh_rows = walsh_code[z_c]
            t = conj[:, :, None] * pmd.encoder[rows ^ x_mask][:, None, :]
            t = np.matmul(walsh_rows, t.view(float).reshape(1 << lam, 1 << n, -1))
            blocks = (walsh_key @ t.reshape(1 << lam, -1)).view(complex)
            blocks = blocks.reshape(-1, k_dim, k_dim)
            bound = _norm_bounds(blocks)
            if x_mask == 0:
                bound[0] = -np.inf  # exclude the identity
                # |M e_j| <= |M|: the largest column norm is a certified floor.
                floor = np.linalg.norm(blocks[1:], axis=1).max() * (1.0 - 1e-9)
            cand = np.flatnonzero(bound >= floor)
            m = blocks[cand]
            keep = np.sqrt(_norm_bounds(m.conj().transpose(0, 2, 1) @ m)) >= floor
            if keep.any():
                cand = cand[keep]
                norms = np.linalg.svd(m[keep], compute_uv=False)[:, 0]
                i = int(np.argmax(norms))
                if norms[i] > best:
                    best = float(norms[i])
                    # Blocks run over b, then over the kept z_c, so z ascends.
                    b, j = divmod(int(cand[i]), z_c.size)
                    best_xz = (x_mask, b << n | int(z_c[j]))
            floor = best * (1.0 - 1e-9)
            # Step to the next x mask with a row that can reach the floor.
            x_mask += 1
            if x_mask < 1 << total and mask_bounds[x_mask] < floor:
                later = np.flatnonzero(mask_bounds[x_mask:] >= floor)
                x_mask += int(later[0]) if later.size else 1 << total
        x, z = best_xz
        return EpsilonReport(best, PauliOperator(total, x, z, 0), exhaustive=True)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    k_dim = pmd.encoder.shape[1]
    work, paulis = samples * k_dim * k_dim, (1 << (2 * total)) - 1
    if work > SWEEP_GUARD:
        raise SizeGuardError(
            f"sampled detection sweep would compute {work:.2e} block entries, "
            f"above the guard of {SWEEP_GUARD:.0e}; draw fewer samples")
    if samples > paulis:
        raise SizeGuardError(
            f"{samples} samples exceed the {paulis} nonidentity Paulis; "
            "the exhaustive sweep (without samples) is exact here")
    rng = np.random.default_rng(np.random.Philox(seed))
    drawn = []
    for _ in range(samples):
        code = int(rng.integers(1, (1 << (2 * total))))
        drawn.append((code & ((1 << total) - 1), code >> total))
    x, z = drawn[_sampled_argmax(pmd, drawn)]
    argmax = PauliOperator(total, x, z, 0)
    return EpsilonReport(compressed_error_norm(pmd, argmax), argmax, exhaustive=False)


def _clifford_frames(pmd: PmdCode, x: np.ndarray, z: np.ndarray):
    """(frames, sizes): frames[j] stacks x', z' and phase mod 4 of
    U_j^dag X^x Z^z U_j for the code-register masks x, z, and the integer
    sizes[j, k, c] = 2^lam |S|^2 for slab c, S, of G_{j,k} = U_j^dag B_k.

    With C = U_j^dag U_k and |c><c| = 2^-lam sum_t (-1)^(c.t) Z^t on the
    ancillas, S^dag S = 2^-lam sum_t (-1)^(c.t) (I (x) <0|) C^dag Z^t C (I (x) |0>).
    C^dag Z^t C = U_k^dag (U_j Z^t U_j^dag) U_k = i^phi X^x' Z^z' compresses
    to 0 unless x' has no ancilla bit: t in T, a group whose compressions
    are commuting signed message Paulis.  So the sum is |T| times a
    stabilizer projector, or 0 if some t in T0 (no message part either)
    compresses to (-1)^(c.t) i^phi = -1: sizes is |T| where the Walsh
    transform of i^phi over T0 is nonzero, else 0.  U_j Z^t U_j^dag is a
    product of lam int conjugations and rides on each U_k^dag array call.
    """
    n, num_keys, shift, m = pmd.code_qubits, pmd.family.num_keys, pmd.message_qubits, len(x)
    encoders = [pmd.family.codes[k].encoder for k in range(num_keys)]
    z_gens = [PauliOperator(n, 0, 1 << a) for a in range(shift, n)]
    # q[:, j * K + t] = U_j Z^t U_j^dag, the span of the ancilla Z's images.
    q = np.array([(p.x, p.z, p.phase) for u in encoders for p in pauli_span(
        n, [u.conjugate_pauli(g) for g in z_gens], up_to_phase=False)]).T
    walsh_key = _walsh_matrix(pmd.key_qubits).astype(np.int64)  # integer sums, exact
    frames, sizes = [], []
    for u in encoders:
        px, pz, phase = np.broadcast_arrays(*u.inverse().conjugate_masks(
            np.concatenate([x, q[0]]), np.concatenate([z, q[1]])))
        frames.append((px[:m], pz[:m], phase[:m] % 4))
        # [j, t]: Z^t through U_j, then through this U_k^dag.
        px, pz, phi = (v.reshape(num_keys, -1) for v in (px[m:], pz[m:], phase[m:] + q[2]))
        in_t = px >> shift == 0  # no X on the ancillas
        in_t0 = in_t & ((px | pz) & ((1 << shift) - 1) == 0)  # nor a message part
        walsh = np.where(in_t0, 1 - phi % 4, 0) @ walsh_key
        sizes.append(np.where(walsh > 0, in_t.sum(axis=1)[:, None], 0))
    return np.array(frames), np.stack(sizes, axis=1)


def _row_bounds(pmd: PmdCode) -> np.ndarray:
    """r[a, x_c, z_c] >= |B^dag X^x Z^z B| for x = a << n | x_c, every
    z = b << n | z_c and every key Z part b.

    By `_frame_blocks`' identity, key k's term of B^dag E B is a signed
    row permutation of the slab of 2^-lam G_{k^a,k} at the ancilla bits
    (the high lam bits of the code register) of P'_k's X part, so the sum
    over k of these slab norms bounds the block, whatever the signs
    (-1)^(b.k) of the key Z part.  The norms are exact, sqrt(|T| / 2^lam)
    or 0 from `_clifford_frames`, with no table built; the slab index is
    the xor of the X parts of U^dag X^x_c U and of U^dag Z^z_c U.
    """
    dim_code, num_keys = 1 << pmd.code_qubits, pmd.family.num_keys
    keys, masks = np.arange(num_keys), np.arange(dim_code)
    # x, z: X^x_c for every x_c, then Z^z_c for every z_c.
    frames, sizes = _clifford_frames(pmd, *np.kron(np.eye(2, dtype=np.int64), masks))
    # slab[j, x_c, z_c]: ancilla bits of the X part of U_j^dag X^x_c Z^z_c U_j.
    ancilla = frames[:, 0] >> pmd.message_qubits
    slab = ancilla[:, :dim_code, None] ^ ancilla[:, None, dim_code:]
    norms = np.sqrt(sizes / num_keys) / num_keys
    j = keys[:, None] ^ keys  # j[a, k] = k ^ a
    return norms[j[..., None, None], keys[:, None, None], slab[j]].sum(axis=1)


def _frame_blocks(pmd: PmdCode, paulis: list[tuple[int, int]], floor):
    """Yield (i, B^dag X^x Z^z B) in the Clifford frame for the Paulis
    (x, z) = paulis[i] whose frame bound reaches floor(), by key shift
    a = x >> n in ascending order.

    With U_k the key-k encoder circuit and B_k = U_k (I (x) |0^lam>) the
    key-k rows of the encoder, write E = E_c (x) X^a Z^b on the code and
    key registers and P'_k = U_{k^a}^dag E_c U_{k^a} = i^phi X^x' Z^z'
    (`CliffordCircuit.conjugate_masks`).  Then

        B^dag E B = 2^-lam sum_k (-1)^(b.k) (I (x) <0^lam|) P'_k G_{k^a,k}

    with G_{k^a,k} = U_{k^a}^dag B_k, so each key's term is the signed
    gather i^phi (-1)^(z'.(r^x')) G_{k^a,k}[r ^ x'] over the message rows
    r: a signed row permutation of the slab of G_{k^a,k} at the ancilla
    bits of x'.  By the triangle inequality the frame bound 2^-lam sum_k
    of those slab norms (exact, from `_clifford_frames`, before any
    table) is at least |B^dag E B|.  A shift whose largest bound is below
    floor() is skipped without its 2^lam tables of 2^n x 2^(n-lam); in a
    shift the Paulis come by descending bound, ties in draw order, and
    those below floor(), read before each block, are skipped.  One
    shift's tables live in one reused array, and every block in one
    reused buffer, so a caller must be done with it before the next.
    """
    n, num_keys = pmd.code_qubits, pmd.family.num_keys
    dim_code, dim_msg = 1 << n, 1 << pmd.message_qubits
    inverses = [pmd.family.codes[k].encoder.inverse() for k in range(num_keys)]
    # Key k's encoder rows are 2^(-lam/2) B_k; the other 2^(-lam/2) is here.
    scale = 1.0 / np.sqrt(num_keys)
    rows = pmd.encoder.reshape(num_keys, dim_code, dim_msg)
    msg, keys = np.arange(dim_msg), np.arange(num_keys)[:, None]
    exps = np.array(paulis, dtype=np.int64).reshape(-1, 2)
    frames, sizes = _clifford_frames(pmd, *(exps.T & (dim_code - 1)))
    # bounds[i] = 2^-lam sum_k |slab of G_{k^a,k} at the x' of U_{k^a}|.
    j = keys ^ (exps[:, 0] >> n)
    slabs = sizes[j, keys, frames[j, 0, np.arange(len(paulis))] >> pmd.message_qubits]
    bounds = (np.sqrt(slabs / num_keys) / num_keys).sum(axis=0).tolist()
    # frames[j][i] = (x', z', phi) of U_j^dag E_c U_j for Pauli i.
    frames = [list(zip(*frame.tolist())) for frame in frames]
    tables = np.empty((num_keys, dim_code, dim_msg), dtype=complex)
    block, term = np.empty((2, dim_msg, dim_msg), dtype=complex)
    built = None  # the shift whose tables are in `tables`
    # By shift, then by descending bound; sorted is stable, so ties keep draw order.
    for i in sorted(range(len(paulis)), key=lambda d: (paulis[d][0] >> n, -bounds[d])):
        if bounds[i] < floor():
            continue
        a, b = (v >> n for v in paulis[i])
        if a != built:
            built = a
            for k in range(num_keys):
                tables[k] = apply_circuit(inverses[k ^ a], rows[k])
        block.fill(0)
        for k, table in enumerate(tables):
            px, pz, phase = frames[k ^ a][i]
            src = msg ^ px
            sign = scale * (1j ** phase) * (-1) ** (b & k).bit_count()
            np.take(table, src, axis=0, out=term)
            term *= (sign * (1 - 2.0 * f2_parity_array(src & pz)))[:, None]
            block += term
        yield i, block


def frame_norms(pmd: PmdCode, paulis: list[tuple[int, int]]) -> np.ndarray:
    """|B^dag X^x Z^z B| for each (x, z) exponent pair: one SVD per block of
    `_frame_blocks` with no floor, so every shift's tables are built.  It is
    the oracle of `_sampled_argmax`, which skips the shifts whose exact
    frame bounds (sqrt(|T| / 2^lam) per slab) are below its floor."""
    norms = np.empty(len(paulis))
    for i, block in _frame_blocks(pmd, paulis, lambda: -np.inf):
        norms[i] = np.linalg.svd(block, compute_uv=False)[0]
    return norms


def _certified_below(m: np.ndarray, floor: float) -> bool:
    """True if a Cholesky factor of floor^2 I - M^dag M exists, which
    certifies |M| < floor to within a relative error of order n^2 u
    (n columns, u the unit roundoff): the factorization's backward error
    plus the Gram's rounding, about 5e-13 at n = 64 and 1e-10 at the
    widest block that `build_pmd` allows (n = 1024)."""
    gram = m.conj().T @ m
    gram *= -1
    gram.flat[::gram.shape[0] + 1] += floor * floor
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def _sampled_argmax(pmd: PmdCode, paulis: list[tuple[int, int]]) -> int:
    """np.argmax(frame_norms(pmd, paulis)), building only the blocks whose
    frame bound reaches the running maximum, with an SVD only on the
    built blocks that `_certified_below` cannot put under it.

    The floor is best * (1 - 1e-9), carried from shift to shift.  A Pauli
    or shift that `_frame_blocks` skips has bounds, so norms, below it.
    The certificate's rounding stays inside the same margin, so a
    certified block's SVD norm could neither exceed nor tie best.  Every
    other block gets `frame_norms`' SVD on the same bits.  Blocks arrive
    out of draw order, so an exact tie goes to the smaller draw index,
    as in np.argmax.
    """
    best, best_i = -1.0, len(paulis)

    def floor():
        return best * (1.0 - 1e-9)

    for i, block in _frame_blocks(pmd, paulis, floor):
        if best > 0 and _certified_below(block, floor()):
            continue
        norm = np.linalg.svd(block, compute_uv=False)[0]
        if norm > best or (norm == best and i < best_i):
            best, best_i = norm, i
    return best_i


def compressed_error_norm(pmd: PmdCode, e: PauliOperator) -> float:
    """|B^dag E B| for one specific error, with E B as
    `densesim.apply_pauli` computes it."""
    if e.n != pmd.total:
        raise ValueError(f"error acts on {e.n} qubits, code has {pmd.total}")
    eb = pauli_gather(pmd.encoder, e)
    return float(np.linalg.svd(pmd.encoder_dagger @ eb, compute_uv=False)[0])


def auth_unitary(pmd: PmdCode) -> np.ndarray:
    """Detection unitary on total+1 qubits (flag qubit on top).

    First reflects through the code space while flipping the flag
    (projector branch gets X on the flag, complement gets Z), then
    un-encodes controlled on the flag being 1.  Uncorrupted encodings
    map exactly to |message>|0...0>|1>_flag.
    """
    check_qubits(pmd.total + 1, "auth_unitary", limit=13)
    dim = 1 << pmd.total
    proj = pmd.projector
    comp = np.eye(dim) - proj
    u_meas = np.zeros((2 * dim, 2 * dim), dtype=complex)
    u_meas[:dim, :dim] = comp
    u_meas[:dim, dim:] = proj
    u_meas[dim:, :dim] = proj
    u_meas[dim:, dim:] = -comp
    controlled_dec = np.zeros_like(u_meas)
    controlled_dec[:dim, :dim] = np.eye(dim)
    controlled_dec[dim:, dim:] = pmd.encoder_unitary.conj().T
    return controlled_dec @ u_meas
