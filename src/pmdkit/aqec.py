"""Composed approximate erasure codes and their exact decoding pipeline.

Encoding composes the key-superposed detection code with an outer
stabilizer code: the detection encoder's output register becomes the
outer code's message register.

Decoding is exact branch enumeration, never sampling: the adversary
acts (one branch per Kraus operator, tagged with its erased set, each
erased qubit refilled with half of a fresh maximally entangled pair),
the outer code is un-encoded once, its syndrome is read off the
ancillas at every outcome of nonzero probability, and each outcome's
candidate list drives the correction cascade on its ancilla slice.
Qubits (little-endian): [outer code block | reference | environment
pairs], and each slice [PMD register | reference | environment pairs].
`erasure_harness` decodes psi0 once per erased set, without the
cascade's flags, and scores every branch from 2^|E| x 2^|E| Gram matrices
over E's environment; `apply_adversary`, `algorithm1_decode` and the
flagged cascade are the per-branch path, kept as its oracle.  As in
`densesim`, every register width is read off its array's rows: the
adversary acts on the low qubits of whatever state it gets, and the
flagged cascade's flags are the top L qubits of its input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .densesim import (GATE_MATRICES, apply_circuit, apply_on_qubits,
                       check_trace_preserving, codespace_isometry,
                       pauli_gather, phi_amplitudes, qubit_rows)
from .f2 import dot
from .limits import check_qubits, index_bits
from .pmd import PmdCode, auth_unitary
from .qlde import erasure_list_decode
from .symplectic import PauliOperator, StabilizerCode

WEIGHT_TOL = 1e-12
_PHI = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


@dataclass(frozen=True)
class ComposedCode:
    """Detection code nested inside an outer stabilizer code."""

    pmd: PmdCode
    outer: StabilizerCode

    def __post_init__(self):
        if self.outer.k != self.pmd.total:
            raise ValueError(
                f"outer code must encode {self.pmd.total} qubits, has k={self.outer.k}")
        check_qubits(self.outer.n + self.message_qubits, "compose")

    @property
    def n(self) -> int:
        return self.outer.n

    @property
    def message_qubits(self) -> int:
        return self.pmd.message_qubits

    def encoder_isometry(self) -> np.ndarray:
        """The composed isometry, computed once per code and read-only."""
        return self._isometry

    @cached_property
    def _isometry(self) -> np.ndarray:
        iso = codespace_isometry(self.outer) @ self.pmd.encoder
        iso.flags.writeable = False
        return iso

    def erased_state(self, erased: tuple[int, ...]) -> ErasedState:
        """`entangled_code_state` with `erased` moved into the environment,
        decoded at each syndrome, built once per code; a set that raises
        is not kept."""
        if erased not in self._erased:
            self._erased[erased] = ErasedState(self, erased)
        return self._erased[erased]

    @cached_property
    def _erased(self) -> dict:
        return {}  # erased set -> its ErasedState

    @cached_property
    def _rho(self) -> dict:
        return {}  # erased set -> psi0's reduced state on it

    def erased_density(self, erased: tuple[int, ...]) -> np.ndarray:
        """rho_E, psi0's reduced state on `erased`, built once per code."""
        if erased not in self._rho:
            m = qubit_rows(entangled_code_state(self), erased)
            self._rho[erased] = m @ m.conj().T
        return self._rho[erased]


def compose(pmd: PmdCode, outer: StabilizerCode) -> ComposedCode:
    return ComposedCode(pmd, outer)


@dataclass(frozen=True)
class ErasureAdversary:
    """CP map whose Kraus branches each erase their own support.

    `branches` holds (kraus matrix on support, support) pairs; matrices
    act on the support register only.  `max_erased` is the declared
    per-branch erasure budget.
    """

    n: int
    branches: tuple[tuple[np.ndarray, tuple[int, ...]], ...]
    max_erased: int
    mode: str = "adaptive"

    def __post_init__(self):
        if self.mode not in ("adaptive", "nonadaptive"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "nonadaptive" and len(self.branches) != 1:
            raise ValueError("a nonadaptive adversary has exactly one erased set")
        norm_branches = []
        for mat, support in self.branches:
            if len(set(support)) != len(support):
                raise ValueError(f"support {tuple(support)} repeats a qubit")
            support = tuple(sorted(support))
            if len(support) > self.max_erased:
                raise ValueError(
                    f"branch erases {len(support)} qubits, budget is {self.max_erased}")
            if any(not 0 <= q < self.n for q in support):
                raise ValueError(f"support {support} outside the block")
            mat = np.asarray(mat, dtype=complex)
            if mat.shape != (1 << len(support),) * 2:
                raise ValueError("Kraus shape does not match support size")
            norm_branches.append((mat, support))
        # (K (x) I)^dag (K (x) I) = K^dag K (x) I, so the sum is the
        # identity iff its block on the union of the supports is.
        union = sorted({q for _, support in norm_branches for q in support})
        pos, dim = {q: i for i, q in enumerate(union)}, 1 << len(union)
        check_trace_preserving(
            (mat.conj().T @ mat if len(support) == len(union) else
             apply_on_qubits(mat.conj().T @ mat, tuple(pos[q] for q in support),
                             np.eye(dim))
             for mat, support in norm_branches), dim, "adversary branches")
        object.__setattr__(self, "branches", tuple(norm_branches))

    @classmethod
    def nonadaptive(cls, n: int, erased: tuple[int, ...]) -> "ErasureAdversary":
        return cls(n, ((np.eye(1 << len(erased), dtype=complex), tuple(erased)),),
                   max_erased=len(erased), mode="nonadaptive")


@dataclass(frozen=True)
class TaggedBranch:
    """A pure branch with its weight and the erased set the decoder sees."""

    weight: float
    vector: np.ndarray
    erased: tuple[int, ...]


def _erase_qubits(vec: np.ndarray, erased: tuple[int, ...]) -> np.ndarray:
    """Move erased contents to fresh environment qubits and refill each
    position with half of a maximally entangled pair (purified mixing):
    per q in E, append |Phi> on two fresh qubits, swap q with the first.
    vec's qubits plus 2|E| are checked against the size guard first."""
    check_qubits(vec.shape[0].bit_length() - 1 + 2 * len(erased), "erased state")
    out = vec
    for q in erased:
        # Axes: the fresh pair's two qubits, the qubits between, q, those below q.
        out = np.kron(_PHI, out).reshape(2, 2, -1, 2, 1 << q)
        out = out.transpose(0, 3, 2, 1, 4).ravel()
    return out


def apply_adversary(state: np.ndarray, adv: ErasureAdversary) -> list[TaggedBranch]:
    """One tagged branch per Kraus operator; erased qubits purified away.

    `state`'s rows span at least adv.n qubits; the adversary acts on the
    low adv.n qubits (the code block), extra registers ride along.
    """
    branches = []
    for mat, support in adv.branches:
        hit = apply_on_qubits(mat, support, state)
        weight = float(np.vdot(hit, hit).real)
        if weight <= WEIGHT_TOL:
            continue
        hit = _erase_qubits(hit / np.sqrt(weight), support)
        branches.append(TaggedBranch(weight, hit, support))
    return branches


# ---------------------------------------------------------------------------
# Algorithm: coherent correction cascade
# ---------------------------------------------------------------------------

class CorrectionCascade:
    """The coherent correction cascade for a fixed candidate list.

    It runs on the PMD register (K = pmd.total qubits) of an outer
    syndrome's ancilla slice (`_realized_outcomes`), each candidate c
    conjugated to R c R^dag by the outer decoder R: revert candidate 1,
    detect; on failure, switch to the next candidate and detect again.
    The paper's Algorithm 2 records step i (0-based) on flag qubit i:
    success there leaves flags 0^i 1^(L-i), failure everywhere 0^L.  The
    patterns are orthogonal, so `branches` (what is scored) runs it
    without flags.  The flagged forms are its oracle and alone guard K + L
    qubits.  Their flags are the top L qubits of the register: `apply` takes
    them appended and `decode` appends them (both structural, flags in |0>),
    and `dense` is the unitary from `auth_unitary` on exactly K + L qubits.
    """

    def __init__(self, corrections: tuple[PauliOperator, ...], code: ComposedCode):
        if not corrections:
            raise ValueError("cascade needs a nonempty correction list")
        self.code = code
        self.length = len(corrections)
        k, dec = code.pmd.total, code.outer.encoder.inverse()
        # Step i's Pauli in the decoded frame, the revert and then the switches,
        # acts where the ancillas read its X part there (`pattern`, then 0) and
        # takes them to 0: on the PMD register, its low part signed by its Z there.
        paulis = [dec.conjugate_pauli(c.inverse().mul(prev)) for c, prev
                  in zip(corrections, [PauliOperator.identity(code.n), *corrections])]
        self.pattern, low = paulis[0].x >> k, (1 << k) - 1
        if any(p.x >> k for p in paulis[1:]):
            raise ValueError("candidates differ in syndrome: a switch flips an outer ancilla")
        self._steps = [PauliOperator(k, p.x & low, p.z & low,
                                     p.phase + 2 * dot(p.z >> k, p.x >> k)) for p in paulis]

    def decode(self, vec: np.ndarray) -> np.ndarray:
        """`apply` to vec (x) |0...0>, flags above vec's qubits."""
        check_qubits(self.code.pmd.total + self.length, "algorithm2_unitary")  # before widening
        wide = np.zeros((vec.shape[0] << self.length,) + vec.shape[1:], dtype=complex)
        wide[: vec.shape[0]] = vec
        return self.apply(wide)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Run on vec, PMD register lowest, flags the top L qubits, all |0>;
        a register of fewer than K + L qubits raises a ValueError."""
        total = self.code.pmd.total + self.length
        check_qubits(total, "algorithm2_unitary")
        if (n_qubits := index_bits(vec.shape[0], "row")) < total:
            raise ValueError(f"the flagged cascade needs K + L = {total} qubits, "
                             f"vec has {n_qubits}")
        return self._flag_steps(vec, self._detect)

    def dense(self) -> np.ndarray:
        """The unitary on (PMD register, flags)."""
        total = self.code.pmd.total + self.length
        check_qubits(total, "cascade dense matrix", limit=11)
        auth = auth_unitary(self.code.pmd)
        pmd_qubits = tuple(range(self.code.pmd.total))
        # On (PMD, flag, flag below): auth where the flag below is 0; where
        # it is 1, just increment the cascade by flipping the flag.
        flip = np.kron(GATE_MATRICES["x"], np.eye(len(auth) // 2))
        controlled_auth = np.kron(np.diag([1, 0]), auth) + np.kron(np.diag([0, 1]), flip)

        def detect(vec, flag, controlled):
            op, wires = (controlled_auth, (flag, flag - 1)) if controlled else (auth, (flag,))
            return apply_on_qubits(op, pmd_qubits + wires, vec)

        return self._flag_steps(np.eye(1 << total, dtype=complex), detect)

    def branches(self, vec: np.ndarray) -> list[tuple[int, np.ndarray]]:
        """(flag pattern, vector) per branch of `decode`(vec), in pattern
        order, on vec's qubits: step i puts B^dag v on the message qubits
        and passes v - B(B^dag v), switched, to step i + 1 (`_detect`)."""
        dim_p, dim_m = self.code.pmd.encoder.shape
        rest, out = vec, []
        for i, step in enumerate(self._steps):
            v = pauli_gather(rest, step).reshape(-1, dim_p)
            coeffs, hit = v @ self.code.pmd.encoder_dagger.T, np.zeros_like(v)
            hit[:, :dim_m] = coeffs
            out.append((((1 << self.length) - 1) ^ ((1 << i) - 1), hit.reshape(vec.shape)))
            rest = (v - coeffs @ self.code.pmd.encoder.T).reshape(vec.shape)
        return [(0, rest)] + out[::-1]

    def _flag_steps(self, vec, detect):
        """The steps on vec, step i's flag at qubit i of the top L."""
        flag_base = vec.shape[0].bit_length() - 1 - self.length
        out = detect(pauli_gather(vec, self._steps[0]), flag_base, False)
        for flag, switch in enumerate(self._steps[1:], flag_base):
            # The switch acts where the flag is 0, on the qubits below it.
            out = np.ascontiguousarray(out)
            below = out.reshape(-1, 2, 1 << flag, *out.shape[1:])[:, 0].swapaxes(0, 1)
            below[...] = pauli_gather(below, switch)
            out = detect(out, flag + 1, True)
        return out

    def _detect(self, vec: np.ndarray, flag: int, controlled: bool) -> np.ndarray:
        """`auth_unitary` on (PMD qubits, flag) for a flag in |0>.

        On that input it leaves v - B(B^dag v) under flag 0 and puts
        B^dag v on the message qubits under flag 1, v being the PMD
        register (the lowest qubits).  When `controlled`, that happens
        only where the flag below is 0; where it is 1, the flag flips.
        """
        pmd = self.code.pmd
        dim_p, dim_m = pmd.encoder.shape
        states = vec.reshape(vec.shape[0], -1).T  # one state per row
        out = np.zeros(states.shape, dtype=complex)
        below = 2 if controlled else 1
        # Axes: state, qubits above the flag, the flag, the flag below
        # (if controlled), qubits between them and the PMD register, PMD.
        shape = (states.shape[0], -1, 2, below, (1 << flag) // (below * dim_p), dim_p)
        src, dst = states.reshape(shape), out.reshape(shape)
        v = src[:, :, 0, 0].reshape(-1, dim_p)
        coeffs = v @ pmd.encoder_dagger.T
        kept, decoded = dst[:, :, 0, 0], dst[:, :, 1, 0, :, :dim_m]
        kept[...] = (v - coeffs @ pmd.encoder.T).reshape(kept.shape)
        decoded[...] = coeffs.reshape(decoded.shape)
        if controlled:
            dst[:, :, 1, 1] = src[:, :, 0, 1]
        return out.T.reshape(vec.shape)


def _realized_outcomes(vec: np.ndarray, code: ComposedCode, erased: tuple[int, ...]):
    """(cascade, slice, probability) for each outer syndrome s of nonzero
    probability, in outcome order.  The outer decoder R maps g_i to a Z on
    ancilla slots mask_i (`standard_form_encoder`), so R P_s vec is the part
    of R vec whose ancillas (block qubits K..n-1) read the a with parity(a &
    mask_i) = s_i: R runs once, and outcome s is that part, ancillas dropped.
    An empty list, or a revert that does not take a to 0, raises."""
    outer, dec = code.outer, code.outer.encoder.inverse()
    decoded = apply_circuit(dec, vec).reshape(-1, 1 << outer.r, 1 << outer.k)
    masks = [dec.conjugate_pauli(g).z >> outer.k for g in outer.gens]
    slice_of = {sum(dot(a, m) << i for i, m in enumerate(masks)): a for a in range(1 << outer.r)}
    for outcome in range(1 << outer.r):
        s_bits = tuple((outcome >> i) & 1 for i in range(outer.r))
        post = decoded[:, slice_of[outcome]].ravel()
        prob = float(np.vdot(post, post).real)
        if prob <= WEIGHT_TOL:
            continue
        corrections = erasure_list_decode(code.outer, erased, s_bits)
        cascade = corrections and CorrectionCascade(corrections, code)
        if not cascade or cascade.pattern != slice_of[outcome]:
            raise RuntimeError(
                f"syndrome {s_bits} has probability {prob:.3e} but no supported "
                "correction reverts its ancillas; erasure bookkeeping is inconsistent")
        yield cascade, post, prob


def algorithm1_decode(branch: TaggedBranch,
                      code: ComposedCode) -> tuple[list[TaggedBranch], int]:
    """Un-encode, read the outer syndrome exactly, list-decode, run the cascade.

    Returns (decoded branches on K + k + 2|E| + L qubits, max list length).
    """
    max_list, decoded = 0, []
    for cascade, post, prob in _realized_outcomes(branch.vector, code, branch.erased):
        max_list = max(max_list, cascade.length)
        decoded.append(TaggedBranch(branch.weight * prob,
                                    cascade.decode(post / np.sqrt(prob)), branch.erased))
    return decoded, max_list


def _sandwich(kraus: np.ndarray, gram: np.ndarray) -> float:
    """tr(K X K^dag) for a matrix X."""
    return float(((kraus @ gram) * kraus.conj()).sum().real)


class ErasedState:
    """psi0 = `entangled_code_state` with one erased set E moved into its
    environment, un-encoded once, decoded at each outer syndrome.

    The syndrome law does not depend on the adversary.  Write
    P_s = 2^-r sum_c (-1)^(s.c) g^c over the generator combinations c.
    Each refilled qubit of E is half of a fresh maximally entangled pair,
    maximally mixed and independent of everything else, so a g^c that
    acts on E traces to 0 on E's environment; a g^c that acts off E fixes
    psi0 and commutes with the erasure.  With C_E the combinations
    supported off E, the environment Gram of outcome s is therefore
    Q_s = (|C_E| / 2^r) rho_E when s is orthogonal to C_E and 0 otherwise,
    rho_E being psi0's reduced state on E: the m = 2^r / |C_E| outcomes
    that E allows each have Q_s = rho_E / m, for every Kraus operator K
    on E alike.

    With E's environment qubits as the row index (`qubit_rows`), let A_s
    be the Phi amplitudes (`phi_amplitudes`) of D_s R P_s erase_E(psi0),
    R being the outer decoder and D_s outcome s's cascade, on the slice's
    message 0..k-1, reference K..K+k-1 and environment K+k+2i.  The branch
    of K at outcome s has fidelity term tr(K G_s K^dag), G_s = A_s A_s^dag,
    A_s being, up to zero columns, D_s's `branches` amplitudes side by side.
    `cascades` and `grams` hold D_s and G_s for each outcome of nonzero
    probability, in outcome order; the erased vector lives only in
    `__init__`.
    """

    def __init__(self, code: ComposedCode, erased: tuple[int, ...]):
        k, big_k = code.message_qubits, code.pmd.total
        msg, ref = tuple(range(k)), tuple(range(big_k, big_k + k))
        env = tuple(big_k + k + 2 * i for i in range(len(erased)))
        vec = _erase_qubits(entangled_code_state(code), erased)
        self.cascades, grams = [], []
        for cascade, post, _ in _realized_outcomes(vec, code, erased):
            amp = np.concatenate([phi_amplitudes(branch, msg, ref, env)
                                  for _, branch in cascade.branches(post)], axis=1)
            self.cascades.append(cascade)
            grams.append(amp @ amp.conj().T)
        self.grams = np.array(grams)


# ---------------------------------------------------------------------------
# End-to-end harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HarnessReport:
    fidelity: float
    realized_list: int
    bound: float
    branch_count: int


def entangled_code_state(code: ComposedCode) -> np.ndarray:
    """Encoded half of a maximally entangled message-reference pair.

    Code block on qubits [0, n), reference on [n, n + k_msg).
    """
    # Reference basis state m carries column m of the isometry.
    return code.encoder_isometry().T.reshape(-1) / np.sqrt(1 << code.message_qubits)


def erasure_harness(code: ComposedCode, adv: ErasureAdversary,
                    epsilon: float) -> HarnessReport:
    """Entanglement fidelity of decode(adversary(encode)) vs the bound
    1 - 3 * epsilon^(1/2) * L^(3/4) with the realized list length.

    Erasing E swaps qubit E[i] into an environment qubit, which the
    syndrome projection P_s, the outer decoder R and the cascade D_s
    leave alone, so D_s R P_s erase_E((K (x) I) psi0) =
    (K on env_E) D_s R P_s erase_E(psi0).
    A branch's weight is tr(K rho_E K^dag) (`erased_density`), before
    anything is erased; a branch of weight 0 is skipped, as in
    `apply_adversary`.  Every other branch is realized at each outcome
    of E's `ErasedState` (the syndrome is uniform over them) and scores
    tr(K G_s K^dag) there, so E is decoded once per code, with the sum,
    the list lengths and the errors of `algorithm1_decode` over
    `apply_adversary`'s branches.
    """
    if adv.n != code.n:
        raise ValueError("adversary block length does not match the code")
    fidelity, realized, branch_count = 0.0, 1, 0
    for kraus, erased in adv.branches:
        if _sandwich(kraus, code.erased_density(erased)) <= WEIGHT_TOL:
            continue
        state = code.erased_state(erased)
        for cascade, gram in zip(state.cascades, state.grams):
            realized = max(realized, cascade.length)
            fidelity += _sandwich(kraus, gram)
            branch_count += 1
    bound = float(1.0 - 3.0 * np.sqrt(epsilon) * realized ** 0.75)
    return HarnessReport(fidelity, realized, bound, branch_count)


def random_adversary(n: int, budget: int, rng: np.random.Generator) -> ErasureAdversary:
    """A seeded adaptive adversary within the erasure budget.

    Mixes three shapes: unitary corruption of a random support, a
    probabilistic split between two supports, and measure-then-erase.
    """
    def haar(dim):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(m)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    if not 1 <= budget <= n:
        raise ValueError(f"erasure budget must be in 1..{n}, got {budget}")
    shape = int(rng.integers(3))
    size = int(rng.integers(1, budget + 1))
    support = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
    if shape == 0:
        return ErasureAdversary(n, ((haar(1 << size), support),), budget)
    if shape == 1:
        other = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        p = float(rng.uniform(0.1, 0.9))
        return ErasureAdversary(
            n, ((np.sqrt(p) * haar(1 << size), support),
                (np.sqrt(1 - p) * haar(1 << size), other)), budget)
    # measure a qubit in a random basis, then erase it
    q = support[0]
    u = haar(2)
    k0 = u @ np.diag([1, 0]).astype(complex) @ u.conj().T
    k1 = u @ np.diag([0, 1]).astype(complex) @ u.conj().T
    return ErasureAdversary(n, ((k0, (q,)), (k1, (q,))), budget)
