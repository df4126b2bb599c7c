"""Keyed purity-testing stabilizer code families over GF(2^lambda).

The family assigns to each key a in GF(2^lambda) the [[n, n-lambda]]
stabilizer code whose generators come from the polynomial vector
v_a = (1, a, a^2, ..., a^(2r-1)) with r = n/lambda: the X half of each
generator flattens the first r field coordinates through one member of
a dual-basis pair and the Z half flattens the rest through the other,
with the scalar gamma ranging over the polynomial basis.  Keys and
shifts are field elements as `galois` stores them, ints in
[0, 2^lambda), so key k shifted by s is `k ^ s`.

Two exhaustively measured figures of merit:

- strong error: the worst-case probability over a random key that a
  fixed nonidentity Pauli goes undetected (lands in the normalizer);
- pairwise detectability: the worst-case probability over a random key
  k that some nonidentity stabilizer of code k is undetectable to the
  code at the shifted key k+s.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import f2
from .galois import DualBasisPair, FieldSpec, compute_dual_basis
from .limits import SWEEP_GUARD, SizeGuardError
from .symplectic import PauliOperator, StabilizerCode


@dataclass(frozen=True)
class PtcFamily:
    """A keyed set of [[n, n-lambda]] stabilizer codes, keyed by the
    elements of `field`, whose degree is lambda."""

    n: int
    field: FieldSpec
    codes: dict[int, StabilizerCode]  # key: the field element, an int

    @property
    def lam(self) -> int:
        return self.field.m

    @property
    def r(self) -> int:
        return self.n // self.lam

    @property
    def num_keys(self) -> int:
        return 1 << self.lam

    @functools.cached_property
    def _syndrome_tables(self) -> list[tuple[int, np.uint64, np.ndarray]]:
        """Partial syndromes for `_key_syndromes`: (half, shift, table)
        for each byte of ex (half 0) and of ez (half 1).

        Generator (x, z) meets error (ex, ez) in the parity of
        (z & ex) ^ (x & ez), which is linear in the error's bytes; entry
        [b, k] of a 256 x keys table holds key k's syndrome of the error
        whose only nonzero byte is b, at that table's half and shift.
        """
        gx, gz = _generator_masks(self)
        width = gx.shape[1]
        dtype = np.min_scalar_type((1 << width) - 1)
        weights = (1 << np.arange(width)).astype(dtype)
        byte = np.arange(256, dtype=np.uint64)[:, None, None]
        tables = []
        for half, masks in enumerate((gz, gx)):
            for shift in np.uint64(8) * np.arange((self.n + 7) // 8, dtype=np.uint64):
                part = (masks >> shift) & np.uint64(0xFF)
                bits = (np.bitwise_count(byte & part) & 1).astype(dtype)
                tables.append((half, shift, (bits * weights).sum(axis=-1, dtype=dtype)))
        return tables


@dataclass(frozen=True)
class SweepResult:
    """Outcome of an exhaustive or sampled worst-case sweep.

    In sampling mode each sampled error's key fraction is still exact;
    `worst_miss_probability` is the chance that any one fixed error
    (in particular the true argmax) was never drawn, and None marks an
    exhaustive sweep.
    """

    value: Fraction
    worst_miss_probability: float | None = None

    @property
    def exhaustive(self) -> bool:
        return self.worst_miss_probability is None


def build_bcgst_family(n: int, lam: int,
                       basis_pair: DualBasisPair | None = None,
                       encoder_pivot: str = "low",
                       field: FieldSpec | None = None) -> PtcFamily:
    """Construct the polynomial-vector purity-testing family.

    `basis_pair` overrides the dual-basis pair used for flattening
    (default: dual of the polynomial basis).  The detectability figures
    are basis independent; the override exists to test exactly that.
    `encoder_pivot` selects the per-code encoder convention; `field`
    swaps in a non-default irreducible modulus for GF(2^lam).
    """
    if lam < 1:
        raise ValueError(f"key length must be >= 1, got {lam}")
    if n < lam:
        raise ValueError("block length n must be a positive multiple of the key "
                         f"length lambda, got n={n}, lambda={lam}")
    if n % lam != 0:
        raise ValueError(f"key length {lam} must divide block length {n}")
    if field is None:
        field = FieldSpec.default(lam)
    elif field.m != lam:
        raise ValueError(f"field has degree {field.m}, key length is {lam}")
    pair = basis_pair if basis_pair is not None else compute_dual_basis(field)
    r = n // lam
    codes: dict[int, StabilizerCode] = {}
    for key in range(1 << lam):
        v = [field.power(key, j) for j in range(2 * r)]
        a_half, b_half = v[:r], v[r:]
        gens = []
        for gamma in (1 << l for l in range(lam)):
            x = z = 0
            for block, coord in enumerate(a_half):
                x |= pair.alpha_coords(field.mul(gamma, coord)) << (block * lam)
            for block, coord in enumerate(b_half):
                z |= pair.beta_coords(field.mul(gamma, coord)) << (block * lam)
            gens.append(PauliOperator(n, x, z, 0))
        codes[key] = StabilizerCode(n, gens, name=f"Q[{key:#x}]",
                                    encoder_pivot=encoder_pivot)
    return PtcFamily(n, field, codes)


# Entries of one (errors x keys) syndrome chunk: bounds the sweeps' memory.
_ENTRY_BUDGET = 1 << 18


def _check_mask_width(n: int) -> None:
    """Refuse n > 64: the sweeps hold each half of a Pauli as one uint64."""
    if n > 64:
        raise SizeGuardError(f"the ptc sweeps hold each half of a Pauli as one 64-bit "
                             f"word and need n <= 64, got n = {n}")


def _generator_masks(family: PtcFamily) -> tuple[np.ndarray, np.ndarray]:
    """x and z masks of every key's generators, each of shape (keys, lam)."""
    _check_mask_width(family.n)
    gens = [family.codes[k].gens for k in range(family.num_keys)]
    return (np.array([[g.x for g in row] for row in gens], dtype=np.uint64),
            np.array([[g.z for g in row] for row in gens], dtype=np.uint64))


def _key_syndromes(family: PtcFamily, ex: np.ndarray, ez: np.ndarray) -> np.ndarray:
    """Each key's syndrome of each error (ex, ez), shape (errors, keys).

    Bit j of entry [e, k] is the symplectic product of generator j of
    key k with error e, so a zero entry means key k misses error e.  It
    is the XOR of one `PtcFamily._syndrome_tables` row per byte of ex
    and of ez.
    """
    halves = (ex.astype(np.uint64), ez.astype(np.uint64))
    return functools.reduce(np.bitwise_xor, (
        np.take(table, ((halves[half] >> shift) & np.uint64(0xFF)).astype(np.intp), axis=0)
        for half, shift, table in family._syndrome_tables))


def _draw_errors(rng: np.random.Generator, n: int, size: int) -> tuple[np.ndarray, ...]:
    """`size` uniform nonidentity n-qubit errors as (ex, ez) uint64 masks.

    Up to n = 32 each error is one draw of its 2n-bit code, ez above ex;
    above that ex and ez are drawn as two words and any identity is drawn
    again.
    """
    if 2 * n <= 64:
        codes = rng.integers(1, 1 << (2 * n), size=size, dtype=np.uint64)
        return codes & np.uint64((1 << n) - 1), codes >> np.uint64(n)
    ex, ez = rng.integers(0, 1 << n, size=(2, size), dtype=np.uint64)
    while (identity := np.flatnonzero((ex | ez) == 0)).size:
        ex[identity], ez[identity] = rng.integers(0, 1 << n, size=(2, identity.size),
                                                  dtype=np.uint64)
    return ex, ez


def _miss_counts(syn: np.ndarray) -> np.ndarray:
    """How many keys miss each error: the zero entries of each row of a
    `_key_syndromes` array, counted as popcounts of machine words.

    A row's zero flags are one byte per key; up to 8 keys they are viewed
    as one word, above that `np.packbits` packs them 8 keys to the byte
    and the row is viewed as 64-bit words (fewer bits at 16 or 32 keys).
    """
    flags = syn == 0
    if flags.shape[1] > 8:
        flags = np.packbits(flags, axis=1)
    words = flags.view(f"u{min(flags.shape[1], 8)}")
    return np.bitwise_count(words).sum(axis=1)


def measure_strong_ptc_error(family: PtcFamily, samples: int | None = None,
                             seed: int = 0) -> SweepResult:
    """Worst-case fraction of keys that miss a fixed nonidentity Pauli.

    Exhaustive over all 4^n - 1 errors by default, or over `samples`
    uniform draws from a Philox generator seeded with `seed`; either mode
    raises SizeGuardError, before any work, when errors * keys * lambda
    exceeds the iteration guard.  Per-error key fractions are exact in
    both modes, which walk the errors in chunks of `_ENTRY_BUDGET` entries.
    """
    n = family.n
    total_errors = (1 << (2 * n)) - 1
    if samples is None:
        if (total_errors + 1) * family.num_keys * family.lam > SWEEP_GUARD:
            raise SizeGuardError(
                "exhaustive sweep exceeds the iteration guard; "
                "re-run with samples=<count> and a seed for sampling mode")
        count = total_errors
    elif samples < 1:
        raise ValueError("samples must be >= 1")
    else:
        _check_mask_width(n)
        if samples * family.num_keys * family.lam > SWEEP_GUARD:
            raise SizeGuardError("sampled sweep exceeds the iteration guard; draw fewer samples")
        count = samples
        rng = np.random.default_rng(np.random.Philox(seed))
    rows = max(1, _ENTRY_BUDGET // family.num_keys)
    best = 0
    for start in range(0, count, rows):
        stop = min(start + rows, count)
        if samples is None:
            codes = np.arange(start + 1, stop + 1, dtype=np.uint64)
            ex, ez = codes & np.uint64((1 << n) - 1), codes >> np.uint64(n)
        else:
            ex, ez = _draw_errors(rng, n, stop - start)
        syn = _key_syndromes(family, ex, ez)
        best = max(best, int(_miss_counts(syn).max()))
    value = Fraction(best, family.num_keys)
    if samples is None:
        return SweepResult(value)
    return SweepResult(value, float((1.0 - 1.0 / total_errors) ** samples))


def check_pairwise_sweep(keys: int, gens: int) -> None:
    """SizeGuardError when the pairwise sweep of `keys` codes of `gens`
    generators each checks keys^2 * (2^gens - 1) syndromes, above
    `SWEEP_GUARD`; a BCGST family at lambda has 2^lambda keys of lambda
    generators, so callers can check this before they build it."""
    if keys * keys * ((1 << gens) - 1) > SWEEP_GUARD:
        raise SizeGuardError(
            f"the pairwise sweep checks keys^2 * (2^gens - 1) syndromes, above the "
            f"iteration guard at {keys} keys of {gens} generators")


def _shift_miss_matrix(family: PtcFamily) -> np.ndarray:
    """bad[k, j]: some nonidentity stabilizer of code k is missed by code j.

    Each key's stabilizer group is spanned (mod phase) from its
    generators by `f2.span`, as in `pauli_span`, all keys at once on
    columns of masks, and all of them go through `_key_syndromes`, a
    whole number of owning keys per chunk.  `check_pairwise_sweep`
    refuses it before spanning (lambda >= 9 for the BCGST families).
    """
    keys = family.num_keys
    gx, gz = _generator_masks(family)
    gens = gx.shape[1]
    check_pairwise_sweep(keys, gens)
    zero = np.zeros(keys, dtype=np.uint64)
    # Column i - 1 holds each key's stabilizer i; the identity (i = 0) is dropped.
    sx, sz = (np.stack(f2.span(masks.T, zero, operator.xor)[1:], axis=1)
              for masks in (gx, gz))
    per_key = sx.shape[1]
    owners = max(1, _ENTRY_BUDGET // (keys * per_key))
    bad = np.zeros((keys, keys), dtype=bool)
    for k in range(0, keys, owners):
        syn = _key_syndromes(family, sx[k:k + owners].ravel(), sz[k:k + owners].ravel())
        bad[k:k + owners] = (syn == 0).reshape(-1, per_key, keys).any(axis=1)
    return bad


def measure_pairwise_detectability(family: PtcFamily) -> SweepResult:
    """Worst case over shifts s != 0 of P_k[S_k meets N_{k+s} nontrivially].

    Field addition XORs coefficients, so the count for shift s is the
    sum over k of bad[k, k ^ s] in the `_shift_miss_matrix`.
    """
    keys = np.arange(family.num_keys)
    bad = _shift_miss_matrix(family)
    per_shift = bad[keys[:, None], keys[:, None] ^ keys[None, :]].sum(axis=0)
    return SweepResult(Fraction(int(per_shift[1:].max()), family.num_keys))


def pbeta_roots(field: FieldSpec, beta: int, r: int) -> set[int]:
    """Roots of ((a+b)^r - a^r) * (a^(r+1) (a+b)^(r+1) - 1) over the field.

    Keys at which the stabilizer groups of a code and its beta-shift
    commute are contained in this root set.
    """
    if not 0 < beta < field.order:
        raise ValueError(f"shift beta must be a nonzero element of GF(2^{field.m})")
    roots = set()
    for alpha in range(field.order):
        shifted = alpha ^ beta
        first = field.power(shifted, r) ^ field.power(alpha, r)
        second = field.mul(field.power(alpha, r + 1), field.power(shifted, r + 1)) ^ 1
        if not field.mul(first, second):
            roots.add(alpha)
    return roots


def commuting_shift_keys(family: PtcFamily, beta: int) -> set[int]:
    """Keys k whose stabilizer group meets N(Q_{k+beta}) nontrivially."""
    bad = _shift_miss_matrix(family)
    return {key for key in range(family.num_keys) if bad[key, key ^ beta]}
