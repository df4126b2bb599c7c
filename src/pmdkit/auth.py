"""Keyless authentication over qubit-wise channels.

Classical side: non-malleable codes against bit-wise tampering, with an
exact LP-based verifier.  For a fixed tampering, the decoder's output
distribution must be close to a message-independent mixture over
{original, reject, unrelated value}; the verifier computes the exact
tampered-decode distribution for every message and solves the best
simulator distribution as a linear program over the simplex, exactly
(`lp.exact_lp`: a float simplex whose optimal basis is certified in
rational arithmetic), so epsilon is a Fraction.

Quantum side: Pauli one-time pads and their twirls, eta-Pauli channel
classification, packing masses of product channels over stabilizer and
normalizer groups, and the code-composition protocols that combine a
classical non-malleable key with a padded detection code, at rate 1/3
(uniform pad) and rate ~1 (pairwise-independent pad over concatenated
blocks).

Everything here is exact branch/key enumeration at toy scale; nothing
is sampled.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import f2
from .aqec import ComposedCode, entangled_code_state
from .densesim import (apply_on_qubits, apply_pauli, check_trace_preserving,
                       codespace_isometry, dm_conjugate_pauli as _dm_conjugate_pauli,
                       pauli_gather_stack, qubit_rows)
from .galois import FieldSpec
from .limits import SizeGuardError, index_bits
from .lp import exact_lp
from .symplectic import PauliOperator, StabilizerCode, pauli_span

PAULI_LABELS = ("I", "X", "Y", "Z")
_P1 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1, -1]).astype(complex),
}

REJECT = None  # decoder sentinel


# ---------------------------------------------------------------------------
# Non-malleable codes and bit-wise tampering
# ---------------------------------------------------------------------------

BIT_TAGS = ("keep", "flip", "set0", "set1")

# Bit tag <-> (and-bit, xor-bit): the tampering is f(w) = (w & a) ^ b.
_TAG_OF_MASK_BITS = {(1, 0): "keep", (1, 1): "flip", (0, 0): "set0", (0, 1): "set1"}
_MASK_BITS_OF_TAG = {tag: bits for bits, tag in _TAG_OF_MASK_BITS.items()}


@dataclass(frozen=True)
class TamperFunction:
    """Deterministic bit-wise tampering, one tag per codeword bit.

    The tags fix an and-mask and a xor-mask, so `apply(w)` is
    `(w & and_mask) ^ xor_mask`, on an int or an integer array.
    """

    tags: tuple[str, ...]
    and_mask: int = field(init=False, repr=False, compare=False)
    xor_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for tag in self.tags:
            if tag not in BIT_TAGS:
                raise ValueError(f"unknown bit tag {tag!r}")
        for j, mask in enumerate(("and_mask", "xor_mask")):
            object.__setattr__(self, mask, sum(_MASK_BITS_OF_TAG[tag][j] << i
                                               for i, tag in enumerate(self.tags)))

    @property
    def n(self) -> int:
        return len(self.tags)

    @classmethod
    def set_to(cls, word: int, n: int) -> "TamperFunction":
        return cls(tuple("set1" if (word >> i) & 1 else "set0" for i in range(n)))

    def apply(self, word):
        return (word & self.and_mask) ^ self.xor_mask


# Most entries an NmCode's tables may hold, 2^(k + rand_bits) + 2^n:
# enough for systematic_parity_nm(20), with 6.3 million.
NM_MAX_ENTRIES = 1 << 23


def _check_table_size(k: int, n: int, rand_bits: int) -> None:
    """Refuse negative sizes, and tables above NM_MAX_ENTRIES before
    building them; the exponents are checked first, so no huge 2^n is
    ever formed."""
    if min(k, n, rand_bits) < 0:
        raise ValueError(f"k, n and rand_bits must be non-negative, "
                         f"got k={k}, n={n}, rand_bits={rand_bits}")
    if (max(k + rand_bits, n) >= NM_MAX_ENTRIES.bit_length()
            or (1 << (k + rand_bits)) + (1 << n) > NM_MAX_ENTRIES):
        raise SizeGuardError(f"non-malleable code tables need 2^{k + rand_bits} + 2^{n} "
                             f"entries, above the guard of {NM_MAX_ENTRIES}")


class NmCode:
    """A randomized code with reject-capable decoding, as integer tables.

    `codewords[s, r]` is the n-bit codeword of the k-bit message s under
    randomness r < 2^rand_bits; `decoded[w]` is the message that the
    n-bit word w decodes to, or -1 for REJECT.  The shapes (2^k,
    2^rand_bits) and (2^n,) fix k, rand_bits and n, so any other shape
    raises; the size guard, ranges and correct decoding of untampered
    codewords are checked on construction.
    """

    def __init__(self, codewords, decoded, name: str = ""):
        codewords, decoded = np.asarray(codewords), np.asarray(decoded)
        if codewords.ndim != 2 or decoded.ndim != 1:
            raise ValueError("tables need a 2-D encode table and a 1-D decode table")
        k, rand_bits = (index_bits(size, "encode table") for size in codewords.shape)
        n = index_bits(decoded.shape[0], "decode table")
        _check_table_size(k, n, rand_bits)
        if (codewords.min() < 0 or codewords.max() >= 1 << n
                or decoded.min() < -1 or decoded.max() >= 1 << k):
            raise ValueError(f"codewords must lie in [0, 2^{n}) and decode values "
                             f"in [0, 2^{k}), or be -1 (reject)")
        self.k = k
        self.n = n
        self.rand_bits = rand_bits
        self.name = name
        # Compact dtypes: systematic_parity_nm(16)'s decode table has 2^18 entries.
        self.codewords = codewords.astype(np.min_scalar_type((1 << n) - 1), copy=False)
        self.decoded = decoded.astype(np.min_scalar_type(-(1 << k)), copy=False)
        messages = np.arange(1 << k, dtype=self.decoded.dtype)[:, None]
        wrong = np.argwhere(self.decoded[self.codewords] != messages)
        if len(wrong):
            s, r = wrong[0].tolist()
            raise ValueError(f"decode(encode({s}, {r})) != {s}")

    def encode(self, s: int, r: int) -> int:
        return int(self.codewords[s, r])

    def decode(self, word: int) -> int | None:
        got = int(self.decoded[word])
        return REJECT if got < 0 else got

    def tampered_distributions(self, f: TamperFunction) -> list[dict]:
        """Exact decode distribution per message under the tampering,
        outcomes in order of first occurrence over r.  Each probability
        is count / 2^rand_bits, a dyadic float and exact, since
        `_check_table_size` keeps rand_bits at most 23."""
        if f.n != self.n:
            raise ValueError("tampering arity does not match the codeword length")
        scale = 1 << self.rand_bits
        return [{(REJECT if o < 0 else o): count / scale
                 for o, count in Counter(row).items()}
                for row in self.decoded[f.apply(self.codewords)].tolist()]

    # Table serialization -------------------------------------------------

    def to_record(self) -> dict:
        encode_table = {f"{s},{r}": w for s, row in enumerate(self.codewords.tolist())
                        for r, w in enumerate(row)}
        decode_table = {str(w): s for w, s in enumerate(self.decoded.tolist())}
        return {"k": self.k, "n": self.n, "rand_bits": self.rand_bits,
                "name": self.name, "encode": encode_table, "decode": decode_table}

    @classmethod
    def from_record(cls, record: dict) -> "NmCode":
        """The code of a record; decode words it omits are rejected."""
        k, n, rand_bits = int(record["k"]), int(record["n"]), int(record["rand_bits"])
        _check_table_size(k, n, rand_bits)
        encode = {tuple(map(int, key.split(","))): w for key, w in record["encode"].items()}
        pairs = list(itertools.product(range(1 << k), range(1 << rand_bits)))
        if sorted(encode) != pairs:
            raise ValueError(f"encode table needs one entry per (s, r) with "
                             f"s < 2^{k}, r < 2^{rand_bits}")
        decode = {int(w): int(s) for w, s in record["decode"].items()}
        if not all(0 <= w < 1 << n and -1 <= s < 1 << k for w, s in decode.items()):
            raise ValueError(f"decode entries need words in [0, 2^{n}) and messages "
                             f"in [0, 2^{k}), or -1 (reject)")
        decoded = np.full(1 << n, -1, dtype=np.int64)
        decoded[list(decode)] = list(decode.values())
        codewords = np.reshape([encode[p] for p in pairs], (1 << k, 1 << rand_bits))
        return cls(codewords, decoded, name=record.get("name", ""))

    def dumps(self) -> str:
        return json.dumps(self.to_record(), sort_keys=True)


def systematic_parity_nm(k: int) -> NmCode:
    """Message || (parity ^ r) || r, rejecting on checksum mismatch.

    A weak but fully explicit code; protocols accept any NmCode table in
    its place.
    """
    _check_table_size(k, k + 2, 1)
    s = np.arange(1 << k, dtype=np.uint32)[:, None]
    r = np.arange(2, dtype=np.uint32)
    codewords = (np.bitwise_count(s) & 1) ^ r  # the check bit; shifted in place
    codewords <<= k
    codewords |= s | (r << (k + 1))
    decoded = np.full(1 << (k + 2), -1, dtype=np.int32)  # other words reject
    decoded[codewords] = s
    return NmCode(codewords, decoded, name=f"parity[{k}]")


@dataclass(frozen=True)
class NmDecomposition:
    """Best simulator distribution for one tampering, plus its distance."""

    epsilon: Fraction
    simulator: dict  # atom -> probability; atoms: int message, REJECT, "same"


def simulator_lp(code: NmCode, f: TamperFunction) -> tuple[np.ndarray, ...]:
    """The simulator LP of one tampering as (c, A_ub, b_ub, A_eq, b_eq):
    minimise c.x subject to A_ub x <= b_ub, A_eq x = b_eq and x >= 0.

    Atoms are the 2^k messages plus reject plus "same"; the objective
    is the worst-message total-variation distance to the exact
    tampered-decode distribution.  Every entry is a dyadic float.
    """
    dists = code.tampered_distributions(f)
    n_msg = 1 << code.k
    atoms = n_msg + 2  # [messages..., reject, same]
    rej_atom, same_atom = n_msg, n_msg + 1
    t_col = atoms

    # Variable layout: [q (atoms), t, slack per (message, tracked outcome)].
    # Only outcomes in the decode support (plus the message itself and
    # reject) need slack variables; simulator mass on any other message
    # value contributes to the distance linearly.
    pairs = [(s, o) for s, dist in enumerate(dists)
             for o in [s] * (s not in dist) + sorted(o for o in dist if o is not REJECT)
             + [REJECT]]
    msg = np.array([s for s, _ in pairs])
    atom = np.array([rej_atom if o is REJECT else o for _, o in pairs])
    d = np.array([dists[s].get(o, 0.0) for s, o in pairs])
    slack = t_col + 1 + np.arange(len(pairs))
    n_vars = t_col + 1 + len(pairs)
    # Rows per message s: p - d <= e and d - p <= e for each tracked
    # outcome in turn, then TV_s <= t.
    up = 2 * np.arange(len(pairs)) + msg
    tv = 2 * np.searchsorted(msg, np.arange(n_msg), side="right") + np.arange(n_msg)
    a_ub = np.zeros((2 * len(pairs) + n_msg, n_vars))
    b_ub = np.zeros(len(a_ub))
    # p(o) = q_o + q_same * [o == s]; p(Rej) = q_Rej.
    same = (atom == msg).astype(float)
    a_ub[up, atom], a_ub[up, same_atom], b_ub[up] = 1.0, same, d
    a_ub[up + 1, atom], a_ub[up + 1, same_atom], b_ub[up + 1] = -1.0, -same, -d
    a_ub[up, slack] = a_ub[up + 1, slack] = -1.0
    # TV_s: half of each slack, and simulator mass on messages outside the
    # tracked set counts whole.
    a_ub[tv[msg], slack] = 0.5
    a_ub[tv, :n_msg] = 0.5
    tracked = atom < n_msg
    a_ub[tv[msg[tracked]], atom[tracked]] = 0.0
    a_ub[tv, t_col] = -1.0
    a_eq = np.zeros((1, n_vars))
    a_eq[0, :atoms] = 1.0
    objective = np.zeros(n_vars)
    objective[t_col] = 1.0
    return objective, a_ub, b_ub, a_eq, np.ones(1)


def nm_decompose(code: NmCode, f: TamperFunction) -> NmDecomposition:
    """Solve the inner simulator LP (`simulator_lp`) for one fixed
    tampering, exactly (`exact_lp`)."""
    epsilon, x = exact_lp(*simulator_lp(code, f))
    labels = [*range(1 << code.k), REJECT, "same"]
    return NmDecomposition(epsilon, {label: float(q) for label, q in zip(labels, x)
                                     if q > 0})


def tamper_masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """And- and xor-masks (a, b) of all 4^n bit-wise tamperings."""
    return np.divmod(np.arange(1 << (2 * n)), 1 << n)


def tamper_from_masks(a: int, b: int, n: int) -> TamperFunction:
    """The tampering w -> (w & a) ^ b as a TamperFunction."""
    return TamperFunction(tuple(_TAG_OF_MASK_BITS[(a >> i) & 1, (b >> i) & 1]
                                for i in range(n)))


# Tampered words that nm_decode_tables holds at once: bounds its memory.
_ENTRY_BUDGET = 1 << 22


def _check_sweep_size(k: int, n: int, rand_bits: int) -> None:
    """Refuse codes too large for the NM sweep (`_nm_sweep`)."""
    if k > 3 or n > 8 or k + rand_bits > 8:
        raise SizeGuardError(f"the NM sweep covers 4^n tamperings of 2^(k + rand_bits) "
                             f"codewords; needs k <= 3, n <= 8, k + rand_bits <= 8, "
                             f"got k={k}, n={n}, rand_bits={rand_bits}")


def nm_decode_tables(code: NmCode) -> tuple[np.ndarray, np.ndarray]:
    """Distinct decode tables over all 4^n tamperings, and one tampering each.

    Returns (tables, masks): tables[t, s] holds the sorted decode outcomes
    (reject as -1) of message s's 2^rand_bits codewords under one
    tampering, and masks[t] is the (a, b) pair of the first tampering in
    `tamper_masks` order that yields table t.  The and-masks are walked in
    that order, `_ENTRY_BUDGET` tampered words at a time, so the first
    chunk that holds a table also holds its first tampering.  Tables are
    deduplicated with two outcomes (-1..7, stored +1) to a byte, the first
    in the high nibble; the packed rows sort like the outcome rows.
    """
    _check_sweep_size(code.k, code.n, code.rand_bits)
    size, n_words = 1 << code.n, code.codewords.size
    codewords, decode = code.codewords.astype(np.uint8), (code.decoded + 1).astype(np.uint8)
    b = np.arange(size, dtype=np.uint8)[:, None, None]
    step = max(1, _ENTRY_BUDGET // (size * n_words))

    def distinct(start: int) -> tuple[np.ndarray, np.ndarray]:
        """The packed distinct tables of the and-masks from `start` on, and
        the index of each one's first tampering."""
        a = np.arange(start, min(start + step, size), dtype=np.uint8)[:, None, None, None]
        outcomes = np.sort(decode[(codewords & a) ^ b], axis=-1).reshape(-1, n_words)
        if n_words % 2:
            outcomes = np.pad(outcomes, ((0, 0), (0, 1)))
        tables, first = np.unique((outcomes[:, ::2] << 4) | outcomes[:, 1::2], axis=0,
                                  return_index=True)
        return tables, first + start * size

    chunks, firsts = zip(*map(distinct, range(0, size, step)))
    merged = np.concatenate(chunks)
    del chunks  # hold one copy of the chunk tables through the merge
    packed, pick = np.unique(merged, axis=0, return_index=True)
    del merged
    masks = np.stack(np.divmod(np.concatenate(firsts)[pick], size), axis=1)
    tables = np.empty((len(packed), 2 * packed.shape[1]), dtype=np.uint8)
    np.right_shift(packed, 4, out=tables[:, ::2])
    np.bitwise_and(packed, 15, out=tables[:, 1::2])
    tables = tables.view(np.int8)[:, :n_words]
    tables -= 1
    return tables.reshape(len(tables), *codewords.shape), masks


def nm_upper_bounds(tables: np.ndarray, k: int) -> np.ndarray:
    """An upper bound on the simulator-LP epsilon of each decode table.

    Every feasible simulator q has max_s TV(D_s, p_s(q)) >= epsilon; this
    takes the least over these candidates: q = "same" (TV = 1 - D_s(s)),
    q = the mean of the D_s, and q = (D_t + D_u) / 2 for each pair of
    messages t <= u (t = u is D_t itself).  The sums are kept in integers
    over the common denominator 4 * 2^k * 2^rand_bits, so the bounds are
    exact dyadic floats.  Tables are counted `_ENTRY_BUDGET` outcomes at a
    time, which bounds the memory of the counts and their temporaries.
    """
    _, n_msg, n_rand = tables.shape
    step = max(1, _ENTRY_BUDGET // (n_msg * n_rand))
    if len(tables) > step:
        return np.concatenate([nm_upper_bounds(tables[i:i + step], k)
                               for i in range(0, len(tables), step)])
    # counts[t, s, o]: decode outcome o - 1 (o = 0 is reject) for message s.
    counts = np.stack([np.count_nonzero(tables == o, axis=2)
                       for o in range(-1, 1 << k)], axis=2).astype(np.int32)
    msg = np.arange(n_msg)
    same = 4 * n_msg * (n_rand - counts[:, msg, msg + 1]).max(axis=1)
    mean = 2 * np.abs(n_msg * counts - counts.sum(axis=1, keepdims=True)).sum(axis=2).max(axis=1)
    best = np.minimum(same, mean)
    for t in range(n_msg):
        for u in range(t, n_msg):
            mid = np.abs(2 * counts - counts[:, t:t + 1] - counts[:, u:u + 1])
            best = np.minimum(best, n_msg * mid.sum(axis=2).max(axis=1))
    return best / (4 * n_msg * n_rand)


@functools.cache
def _uniform_simulators(k: int) -> np.ndarray:
    """Every simulator uniform over 1 to 3 atoms (messages, reject, same),
    as outcome masses times 12 in the `nm_upper_bounds` layout: [candidate,
    message s, outcome o + 1], with o = -1 for reject."""
    n_msg = 1 << k
    per_atom = np.concatenate([  # reject, the messages, then same
        np.repeat(np.eye(n_msg + 1, dtype=np.int64)[:, None], n_msg, axis=1),
        np.eye(n_msg, n_msg + 1, 1, dtype=np.int64)[None]])
    sims = np.stack([per_atom[list(atoms)].sum(axis=0) * (12 // size)
                     for size in (1, 2, 3)
                     for atoms in itertools.combinations(range(n_msg + 2), size)])
    sims.flags.writeable = False  # the cache hands the same array to every caller
    return sims


def _uniform_bound(table: np.ndarray, k: int) -> Fraction:
    """An exact upper bound on the simulator-LP epsilon of one decode table:
    the least worst-message distance of a simulator uniform over 1 to 3
    atoms (`_uniform_simulators`), in integers over 12 * 2^rand_bits."""
    n_rand = table.shape[1]
    counts = (table[:, :, None] == np.arange(-1, 1 << k)).sum(axis=1)
    gaps = np.abs(12 * counts - n_rand * _uniform_simulators(k)).sum(axis=2).max(axis=1)
    return Fraction(int(gaps.min()), 24 * n_rand)


def _nm_sweep(code: NmCode, solved: dict, stop_at: float = np.inf) -> Fraction:
    """Worst simulator gap over all 4^n tamperings, as a bound-pruned maximum.

    The LP of `nm_decompose` reads only k and the per-message decode
    distributions, so the sweep solves at most one LP per distinct decode
    table (`nm_decode_tables`).  Tables are visited in descending order of
    their exact upper bound (`nm_upper_bounds`); once a bound is at most
    the running maximum, no later table can exceed it and the sweep ends.
    A visited table's LP is skipped too when its `_uniform_bound` is at
    most the running maximum, so the maximum is the same exact Fraction.
    `solved` maps (k, rand_bits, table bytes) to the exact epsilon, a key
    that fixes the whole LP, so one dict may serve several codes.  The
    sweep also ends once the running maximum reaches `stop_at`; its return
    value is then only known to be >= `stop_at`.
    """
    tables, masks = nm_decode_tables(code)
    bounds = nm_upper_bounds(tables, code.k)
    worst = Fraction(0)
    for t in np.argsort(-bounds, kind="stable").tolist():
        if bounds[t] <= worst or worst >= stop_at:
            break
        key = (code.k, code.rand_bits, tables[t].tobytes())
        eps = solved.get(key)
        if eps is None:
            if _uniform_bound(tables[t], code.k) <= worst:
                continue
            f = tamper_from_masks(int(masks[t, 0]), int(masks[t, 1]), code.n)
            eps = solved[key] = nm_decompose(code, f).epsilon
        worst = max(worst, eps)
    return worst


def nm_verify(code: NmCode) -> Fraction:
    """max over deterministic bit-wise tamperings of the simulator gap.

    Randomized tamperings are convex mixtures of deterministic ones and
    the definition is convex in the tampering, so this maximum is the
    code's error.
    """
    return _nm_sweep(code, {})


def nm_search(k: int, n: int, trials: int,
              rng: np.random.Generator) -> tuple[NmCode, Fraction]:
    """Best-of-`trials` random injective table codes with one random
    bit, ranked by nm_verify.

    The first trial with the least epsilon wins.  LP results are shared
    by every trial, and a trial's sweep stops as soon as its running
    maximum reaches the best finished trial's epsilon: it can no longer
    win, since only a strictly smaller epsilon replaces the best.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if k + 1 > n:
        raise ValueError("codeword too short for message plus randomness")
    _check_table_size(k, n, 1)
    _check_sweep_size(k, n, 1)
    best_code, best_eps = None, np.inf
    solved: dict = {}  # (k, rand_bits, decode table) -> epsilon
    for trial in range(trials):
        codewords = rng.permutation(1 << n)[:1 << (k + 1)].reshape(1 << k, -1)
        decoded = np.full(1 << n, -1)  # words outside the code reject
        decoded[codewords] = np.arange(1 << k)[:, None]
        code = NmCode(codewords, decoded, name=f"random[{k}->{n}]#{trial}")
        eps = _nm_sweep(code, solved, stop_at=best_eps)
        if eps < best_eps:
            best_code, best_eps = code, eps
    return best_code, best_eps


# ---------------------------------------------------------------------------
# Channel decomposition, twirling, eta classification
# ---------------------------------------------------------------------------

def pauli_decompose_channel(kraus) -> np.ndarray:
    """Coefficients c[mu, sigma] with K_mu = sum_sigma c * sigma."""
    out = np.zeros((len(kraus), 4), dtype=complex)
    for mu, k in enumerate(kraus):
        k = np.asarray(k, dtype=complex)
        if k.shape != (2, 2):
            raise ValueError("expected single-qubit Kraus operators")
        for j, label in enumerate(PAULI_LABELS):
            out[mu, j] = np.trace(_P1[label].conj().T @ k) / 2
    return out


def twirl_channel(kraus) -> np.ndarray:
    """Pauli-channel weights after conjugation by a uniform Pauli pad."""
    coeffs = pauli_decompose_channel(kraus)
    return (np.abs(coeffs) ** 2).sum(axis=0).real


@dataclass(frozen=True)
class EtaPauliReport:
    eta: float
    best_pauli: str


def eta_classify(kraus) -> EtaPauliReport:
    weights = twirl_channel(kraus)
    best = int(np.argmax(weights))
    return EtaPauliReport(float(1.0 - weights[best]), PAULI_LABELS[best])


def channel_choi(kraus) -> np.ndarray:
    """Choi state (Lambda (x) I)(Phi) for a single-qubit channel."""
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)  # |00> + |11>, system qubit low
    rho = np.outer(phi, phi.conj())
    out = np.zeros_like(rho)
    for k in kraus:
        big = np.kron(np.eye(2), np.asarray(k, dtype=complex))
        out += big @ rho @ big.conj().T
    return out


def twirled_choi_by_pad_average(kraus) -> np.ndarray:
    """Explicit average of P^dag Lambda(P . P^dag) P over the four pads."""
    acc = np.zeros((4, 4), dtype=complex)
    for label in PAULI_LABELS:
        p = _P1[label]
        padded = [p.conj().T @ np.asarray(k, dtype=complex) @ p for k in kraus]
        acc += channel_choi(padded)
    return acc / 4


# ---------------------------------------------------------------------------
# Packing masses and pure distance
# ---------------------------------------------------------------------------

def _symbol_index(p: PauliOperator, qubit: int) -> int:
    bx, bz = (p.x >> qubit) & 1, (p.z >> qubit) & 1
    return {(0, 0): 0, (1, 0): 1, (1, 1): 2, (0, 1): 3}[(bx, bz)]


def _pauli_weight(per_qubit_weights, p: PauliOperator):
    """Product of per_qubit_weights[q][p's I/X/Y/Z index on q], left to
    right from 1 over the qubits of p, so Fractions stay exact."""
    term = 1
    for q in range(p.n):
        term = term * per_qubit_weights[q][_symbol_index(p, q)]
    return term


def _normalizer_elements(code: StabilizerCode):
    """All elements of N(Q) mod phase, from the derived basis."""
    if code.n > 8:
        raise SizeGuardError("normalizer enumeration limited to n <= 8")
    return pauli_span(code.n, code.normalizer)


def pure_distance(code: StabilizerCode) -> int:
    """Minimum weight over nonidentity normalizer elements (stabilizers
    included)."""
    weights = [e.weight for e in _normalizer_elements(code) if not e.is_identity()]
    if not weights:
        raise ValueError("trivial code has no nonidentity normalizer elements")
    return min(weights)


def stabilizer_mass(per_qubit_weights, code: StabilizerCode):
    """sum over stabilizer-group members of the product of per-qubit
    twirled weights; exact when the weights are Fractions."""
    if len(per_qubit_weights) != code.n:
        raise ValueError("need one weight vector per qubit")
    total = 0
    for element in code.stabilizer_group():
        total = total + _pauli_weight(per_qubit_weights, element)
    return total


def normalizer_l1_mass(per_qubit_abs_coeffs, code: StabilizerCode):
    """sum_mu (sum_{F in N(Q)} |c_F^mu|)^2 for a product channel.

    `per_qubit_abs_coeffs[q][mu]` is a length-4 vector of |c| values in
    I, X, Y, Z order.  Exact when the values are Fractions.
    """
    if len(per_qubit_abs_coeffs) != code.n:
        raise ValueError("need one coefficient table per qubit")
    elements = _normalizer_elements(code)
    total = 0
    for mu in itertools.product(*(range(len(t)) for t in per_qubit_abs_coeffs)):
        weights = [table[m] for table, m in zip(per_qubit_abs_coeffs, mu)]
        inner = 0
        for element in elements:
            inner = inner + _pauli_weight(weights, element)
        total = total + inner * inner
    return total


# ---------------------------------------------------------------------------
# Pairwise/t-wise independent pads
# ---------------------------------------------------------------------------

def twise_pad(seed: int, t: int, length: int, word_bits: int | None = None) -> int:
    """Evaluate a degree-(t-1) polynomial over GF(2^w) at fixed points.

    The seed packs t coefficient words of w bits each; the output is the
    concatenation of evaluations at the field points 0, 1, 2, ...,
    truncated to `length` bits.  Any t output words are exactly
    independent and uniform over uniform seeds.
    """
    if t < 1:
        raise ValueError("independence order t must be >= 1")
    word_bits = _pad_word_bits(length, word_bits)
    npoints = (length + word_bits - 1) // word_bits
    if npoints > (1 << word_bits):
        raise ValueError(f"word size {word_bits} has too few evaluation points")
    if word_bits > 16:
        raise ValueError("pad word size limited to 16 bits")
    field = FieldSpec.default(word_bits)
    mask = (1 << word_bits) - 1
    coeffs = [(seed >> (i * word_bits)) & mask for i in range(t)]
    out = 0
    for point in range(npoints):
        acc = 0
        for c in reversed(coeffs):
            acc = field.mul(acc, point) ^ c
        out |= acc << (point * word_bits)
    return out & ((1 << length) - 1)


def _pad_word_bits(length: int, word_bits: int | None) -> int:
    """The given word size, or the smallest w whose field has enough
    evaluation points for `length` bits."""
    if word_bits is None:
        word_bits = 1
        while (length + word_bits - 1) // word_bits > (1 << word_bits):
            word_bits += 1
    return word_bits


def twise_pad_seed_bits(t: int, length: int, word_bits: int | None = None) -> int:
    return t * _pad_word_bits(length, word_bits)


def pad_masks(pad, n: int):
    """(x, z) masks of 2n pad bits, qubit i reading bits (2i, 2i+1); on
    an int or elementwise on an integer array."""
    return f2.restrict(pad, range(0, 2 * n, 2)), f2.restrict(pad, range(1, 2 * n, 2))


def pad_to_pauli(pad: int, n: int) -> PauliOperator:
    """2n pad bits -> X^a Z^b in the `pad_masks` layout."""
    return PauliOperator(n, *pad_masks(pad, n), 0)


# ---------------------------------------------------------------------------
# Rate-1/3 protocol
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Auth13Protocol:
    """Rate-1/3 layout: a non-malleable key encapsulation plus a padded
    composed detection code."""

    composed: ComposedCode
    nm: NmCode

    def __post_init__(self):
        if self.nm.k != 2 * self.composed.n:
            raise ValueError(
                f"key needs {2 * self.composed.n} bits, code carries {self.nm.k}")
        if self.composed.n > 5:
            raise SizeGuardError("exhaustive key enumeration needs <= 5 code qubits")

    @property
    def n_quantum(self) -> int:
        return self.composed.n

    @property
    def key_count(self) -> int:
        return 1 << (2 * self.composed.n)


@dataclass(frozen=True)
class AttackReport:
    p_accept: float
    p_accept_wrong: float
    p_reject: float
    fidelity_given_accept: float


def auth13_encode(proto: Auth13Protocol, message: np.ndarray) -> np.ndarray:
    """Explicit mixture over keys of the padded encoding of a message.

    Row s is key s's padded pure quantum state, of weight 1 / key_count;
    its classical codewords, each of weight 2^-rand_bits, are
    `proto.nm.codewords[s]`.  Product-channel analyses can instead use
    the algebraic twirl path (`auth13_key_recovered_branch`) and skip
    this enumeration.
    """
    vec = proto.composed.encoder_isometry() @ message
    return pauli_gather_stack(vec, *pad_masks(np.arange(proto.key_count), proto.n_quantum))


def _maxent_vector(k: int) -> np.ndarray:
    """Phi on k message qubits (low) and k reference qubits."""
    phi = np.zeros(1 << (2 * k), dtype=complex)
    for m in range(1 << k):
        phi[m | (m << k)] = 1.0
    return phi / np.linalg.norm(phi)


def _trace_and_overlap(tau: np.ndarray, k: int) -> tuple[float, float]:
    """(tr tau, <Phi|tau|Phi>) for an operator on message (x) reference."""
    phi = _maxent_vector(k)
    return float(np.trace(tau).real), float(np.vdot(phi, tau @ phi).real)


def auth13_attack_harness(proto: Auth13Protocol, wire_kraus,
                          classical: TamperFunction) -> AttackReport:
    """Exact security experiment: enumerate keys, apply the per-wire
    channels and the classical tampering, decode, and score acceptance
    of anything other than the original entangled message.

    The wire channels are linear, so the padded states of all keys that
    decode to the same classical key s~ are summed, weighted, before the
    channels act; REJECT outcomes only add their weight.  The start state
    |v><v| is pure, so the padded vectors P_s v of the keys of one s~ come
    from one stacked gather (`pauli_gather_stack`), and their mixture is
    one weighted product sum_s w_s |P_s v><P_s v| of those rows.  The
    vec(rho) of every s~ (Fortran order: row bits, then column bits) is
    one column of a stack, and each wire acts once on the whole stack as
    its superoperator sum_K conj(K) (x) K on row bit q and column bit N+q;
    each s~ is then unpadded once.
    """
    n = proto.n_quantum
    k = proto.composed.message_qubits
    if len(wire_kraus) != n:
        raise ValueError(f"need {n} per-wire channels")
    for q, kraus in enumerate(wire_kraus):
        check_trace_preserving((np.conj(k).T @ k for k in kraus), 2, f"wire {q}")
    total_qubits = n + k
    key_weight = 1.0 / proto.key_count

    # Classical side: each key's decode distribution of the tampered
    # codeword; the padded state's weight goes to its decoded key s~.
    p_reject = 0.0
    weights: dict = {}
    keyed: dict = {}  # s~ -> (keys, their weights)
    for s, outcomes in enumerate(proto.nm.tampered_distributions(classical)):
        for s_tilde, cl_weight in outcomes.items():
            w = key_weight * cl_weight
            if s_tilde is REJECT:
                p_reject += w
                continue
            weights[s_tilde] = weights.get(s_tilde, 0.0) + w
            keys, key_ws = keyed.setdefault(s_tilde, ([], []))
            keys.append(s)
            key_ws.append(w)
    # vec: code (x) reference for a maximally entangled message.
    vec = entangled_code_state(proto.composed)
    dim = 1 << total_qubits
    stack = np.empty((dim * dim, len(keyed)), dtype=complex)
    for j, (keys, key_ws) in enumerate(keyed.values()):
        rows = pauli_gather_stack(vec, *pad_masks(np.array(keys), n))
        rho = (rows.T * key_ws) @ rows.conj()
        stack[:, j] = rho.reshape(-1, order="F")
    for q, kraus in enumerate(wire_kraus):
        superop = sum(np.kron(np.conj(op), op) for op in map(np.asarray, kraus))
        stack = apply_on_qubits(superop, (q, total_qubits + q), stack)
    # Accept POVM and decode collapse to contraction with the composed
    # isometry (syndrome-0 and detection projection), reference alongside.
    big_iso = np.kron(np.eye(1 << k), proto.composed.encoder_isometry())
    p_accept = p_wrong = fid_acc = 0.0
    for s_tilde, column in zip(keyed, stack.T):
        unpad = pad_to_pauli(s_tilde, n)
        sigma = _dm_conjugate_pauli(unpad, column.reshape(dim, dim, order="F"))
        tr, overlap = _trace_and_overlap(big_iso.conj().T @ sigma @ big_iso, k)
        p_accept += tr
        p_reject += weights[s_tilde] - tr
        fid_acc += overlap
        p_wrong += tr - overlap
    fidelity = fid_acc / p_accept if p_accept > 1e-15 else 1.0
    return AttackReport(p_accept, p_wrong, p_reject, fidelity)


def auth13_key_recovered_branch(proto: Auth13Protocol, wire_kraus) -> AttackReport:
    """Key-recovered branch via the algebraic per-qubit twirl.

    Valid whenever the attack is a product channel: averaging the pad
    over the full key space turns the attack into a Pauli channel with
    product weights; only normalizer elements survive the syndrome
    check, and the detection code bounds what survives the projection.
    """
    outer = proto.composed.outer
    pmd = proto.composed.pmd
    k = proto.composed.message_qubits
    weights = [twirl_channel(kraus) for kraus in wire_kraus]
    b_pmd = pmd.encoder
    dec_circuit = outer.encoder.inverse()
    phi = _maxent_vector(k)
    p_accept = p_wrong = fid_acc = 0.0
    elements = _normalizer_elements(outer)
    for element in elements:
        prob = float(_pauli_weight(weights, element))
        if prob == 0.0:
            continue
        logical = dec_circuit.conjugate_pauli(element.hermitian_form())
        if logical.x >> pmd.total:
            raise AssertionError("normalizer element has X action on ancillas")
        # Z action on the outer ancillas is trivial on |0>; drop it.
        mask = (1 << pmd.total) - 1
        inner = PauliOperator(pmd.total, logical.x & mask, logical.z & mask, logical.phase)
        amp = pmd.encoder_dagger @ apply_pauli(inner, b_pmd)
        psi = np.kron(np.eye(1 << k), amp) @ phi
        tr, overlap = _trace_and_overlap(np.outer(psi, psi.conj()), k)
        p_accept += prob * tr
        fid_acc += prob * overlap
        p_wrong += prob * (tr - overlap)
    fidelity = fid_acc / p_accept if p_accept > 1e-15 else 1.0
    return AttackReport(p_accept, p_wrong, 1.0 - p_accept, fidelity)


def substitution_attack(proto: Auth13Protocol, fixed_key: int):
    """Every wire replaced by the matching wire of one fixed valid
    encoding of |0...0>, its key encoded with randomness 0.  Returns
    (wire channels, classical tampering, the substituted product state
    marginals)."""
    n = proto.n_quantum
    iso = proto.composed.encoder_isometry()
    codeword = apply_pauli(pad_to_pauli(fixed_key, n), iso[:, 0])
    marginals = []
    wire_channels = []
    for q in range(n):
        work = codeword.reshape([2] * n, order="F")
        mat = np.moveaxis(work, q, 0).reshape(2, -1)
        sigma = mat @ mat.conj().T
        marginals.append(sigma)
        vals, vecs = np.linalg.eigh(sigma)
        kraus = []
        for val, vec in zip(vals, vecs.T):
            if val > 1e-12:
                for basis in np.eye(2):
                    kraus.append(np.sqrt(val) * np.outer(vec, basis))
        wire_channels.append(tuple(kraus))
    classical = TamperFunction.set_to(proto.nm.encode(fixed_key, 0), proto.nm.n)
    return wire_channels, classical, marginals


def substitution_overlap_oracle(proto: Auth13Protocol, marginals,
                                fixed_key: int) -> tuple[float, float]:
    """(accept, wrong-accept) of the substituted product state, computed
    directly from dense density matrices rather than the harness loop."""
    n = proto.n_quantum
    k = proto.composed.message_qubits
    rho = np.eye(1, dtype=complex)
    for sigma in marginals:
        rho = np.kron(sigma, rho)  # later qubits to the left (low bits right)
    pad = pad_to_pauli(fixed_key, n)
    rho = _dm_conjugate_pauli(pad, rho)
    iso = proto.composed.encoder_isometry()
    tau = iso.conj().T @ rho @ iso
    accept = float(np.trace(tau).real)
    # The reference register is maximally mixed and uncorrelated, so the
    # post-decode overlap with the entangled target is 2^-k per unit of
    # accepted message mass, distributed through the identity component.
    _, overlap = _trace_and_overlap(np.kron(np.eye(1 << k) / (1 << k), tau), k)
    return accept, accept - overlap


# ---------------------------------------------------------------------------
# Rate-1 (concatenated, pairwise-independent pad) protocol at toy scale
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Auth1Protocol:
    """Two inner blocks, each a detection code inside an inner stabilizer
    code; an outer code across block messages; a pairwise-independent
    Pauli pad.  Its `seed_bits`-bit seed is the key a non-malleable code
    would carry; the rate-1 functions take the seed itself."""

    outer: StabilizerCode           # [[n_blocks * k_pmd, k_msg]]
    inner: ComposedCode             # per-block composition

    def __post_init__(self):
        if self.outer.n % self.inner.message_qubits:
            raise ValueError("outer block length must split into inner messages")
        if self.total_quantum > 10:
            raise SizeGuardError("toy protocol limited to 10 quantum qubits")

    @property
    def n_blocks(self) -> int:
        return self.outer.n // self.inner.message_qubits

    @property
    def block_qubits(self) -> int:
        return self.inner.n

    @property
    def total_quantum(self) -> int:
        return self.n_blocks * self.block_qubits

    @property
    def pad_bits(self) -> int:
        return 2 * self.total_quantum

    @property
    def word_bits(self) -> int:
        return 2 * self.block_qubits

    @property
    def seed_bits(self) -> int:
        """Seed size of the pad: pairwise independent over one field
        word (two pad bits per qubit) per block."""
        return twise_pad_seed_bits(2, self.pad_bits, word_bits=self.word_bits)

    def pad_for_seed(self, seed: int) -> PauliOperator:
        bits = twise_pad(seed, 2, self.pad_bits, word_bits=self.word_bits)
        return pad_to_pauli(bits, self.total_quantum)

    def block_isometry(self) -> np.ndarray:
        """Inner encoding of every block: block messages (grouped
        low-to-high) to blocks."""
        block_iso = self.inner.encoder_isometry()
        lifted = np.eye(1, dtype=complex)
        for _ in range(self.n_blocks):
            lifted = np.kron(block_iso, lifted)
        return lifted

    def encoder_isometry(self) -> np.ndarray:
        """Blockwise inner encodings composed with the outer encoder."""
        outer_iso = codespace_isometry(self.outer)
        return self.block_isometry() @ outer_iso


def auth1_encode(proto: Auth1Protocol, message: np.ndarray, seed: int) -> np.ndarray:
    """Pure encoded state for one fixed pad seed."""
    vec = proto.encoder_isometry() @ message
    return apply_pauli(proto.pad_for_seed(seed), vec)


@dataclass(frozen=True)
class Auth1DecodeResult:
    """The decode of one branch; `rejected_at` is None when it was accepted."""

    accept_probability: float
    rejected_at: str | None
    message: np.ndarray | None


def auth1_decode(proto: Auth1Protocol, state: np.ndarray, seed: int) -> Auth1DecodeResult:
    """Decode a pure branch with the given recovered seed.

    Reverts the pad, then walks the inner blocks: each block's syndrome
    check and detection projection collapse to its block accept
    projector, applied projectively with early abort (any inner reject
    forces a global reject).  Survivors are un-encoded blockwise and the
    outer code's syndrome is checked the same way.
    """
    vec = apply_pauli(proto.pad_for_seed(seed), state)  # pads self-inverse
    acc_op = auth1_block_accept_operator(proto)
    prob = 1.0
    for j in range(proto.n_blocks):
        block_qubits = tuple(range(j * proto.block_qubits,
                                   (j + 1) * proto.block_qubits))
        projected = apply_on_qubits(acc_op, block_qubits, vec)
        p_block = float(np.vdot(projected, projected).real)
        prob *= p_block
        if p_block <= 1e-12:
            return Auth1DecodeResult(0.0, f"inner block {j}", None)
        vec = projected / np.sqrt(p_block)
    # Un-encode the accepted blocks, then check the outer code.
    block_messages = proto.block_isometry().conj().T @ vec
    outer_iso = codespace_isometry(proto.outer)
    message = outer_iso.conj().T @ block_messages
    p_outer = float(np.vdot(message, message).real)
    prob *= p_outer
    if p_outer <= 1e-12:
        return Auth1DecodeResult(0.0, "outer", None)
    return Auth1DecodeResult(prob, None, message / np.sqrt(p_outer))


def auth1_block_accept_operator(proto: Auth1Protocol) -> np.ndarray:
    """Projector whose trace against a block state is the probability
    that one inner block passes both its syndrome and detection steps."""
    iso = proto.inner.encoder_isometry()
    return iso @ iso.conj().T


def auth1_block_reject_probability(proto: Auth1Protocol, block_channels,
                                   block_rho: np.ndarray) -> float:
    """Exact accept probability of one inner block under a product
    channel, averaged over the (blockwise-uniform) pad.

    The block marginal of the pairwise-independent pad is uniform, so
    the average over seeds is the per-qubit twirl: a product of one-qubit
    Pauli channels T_q (Barnum, Crepeau, Gottesman, Smith and Tapp,
    quant-ph/0205128).  Each wire's T_q acts on vec(rho), row bits then
    column bits, as its 4 x 4 superoperator sum_P w_P conj(P) (x) P, and
    the accept probability is tr(projector . T(rho)).
    """
    b = proto.block_qubits
    if len(block_channels) != b:
        raise ValueError(f"need {b} per-qubit channels")
    for q, kraus in enumerate(block_channels):
        check_trace_preserving((np.conj(k).T @ k for k in kraus), 2,
                               f"block qubit {q}")
    acc_op = auth1_block_accept_operator(proto)
    vec = np.asarray(block_rho, dtype=complex).reshape(-1, order="F")
    for q, kraus in enumerate(block_channels):
        superop = sum(w * np.kron(np.conj(_P1[label]), _P1[label])
                      for label, w in zip(PAULI_LABELS, twirl_channel(kraus)))
        vec = apply_on_qubits(superop, (q, b + q), vec)
    return 1.0 - float(np.vdot(acc_op.reshape(-1, order="F"), vec).real)


def auth1_block_codeword_density(proto: Auth1Protocol, message: np.ndarray,
                                 block: int) -> np.ndarray:
    """Reduced density matrix of one inner block of an encoded message."""
    vec = proto.encoder_isometry() @ message
    b = proto.block_qubits
    mat = qubit_rows(vec, tuple(range(block * b, (block + 1) * b)))
    return mat @ mat.conj().T
