"""Keyed purity-testing stabilizer code families over GF(2^lambda).

The family assigns to each key a in GF(2^lambda) the [[n, n-lambda]]
stabilizer code whose generators come from the polynomial vector
v_a = (1, a, a^2, ..., a^(2r-1)) with r = n/lambda: the X half of each
generator flattens the first r field coordinates through one member of
a dual-basis pair and the Z half flattens the rest through the other,
with the scalar gamma ranging over the polynomial basis.

Two exhaustively measured figures of merit:

- strong error: the worst-case probability over a random key that a
  fixed nonidentity Pauli goes undetected (lands in the normalizer);
- pairwise detectability: the worst-case probability over a random key
  k that some nonidentity stabilizer of code k is undetectable to the
  code at the shifted key k+s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import f2
from .densesim import f2_parity_array
from .galois import DualBasisPair, FieldElement, FieldSpec, compute_dual_basis
from .limits import SWEEP_GUARD
from .symplectic import PauliOperator, StabilizerCode, symplectic_product, syndrome


@dataclass(frozen=True)
class PtcFamily:
    """A keyed set of [[n, n-lambda]] stabilizer codes."""

    n: int
    lam: int
    field: FieldSpec
    codes: dict[int, StabilizerCode]  # key: coeffs of the field element

    @property
    def r(self) -> int:
        return self.n // self.lam

    @property
    def num_keys(self) -> int:
        return 1 << self.lam

    def code_for(self, key: FieldElement) -> StabilizerCode:
        return self.codes[key.coeffs]

    def keys(self):
        return (self.field.element(c) for c in range(self.num_keys))


@dataclass(frozen=True)
class SweepResult:
    """Outcome of an exhaustive or sampled worst-case sweep.

    In sampling mode each sampled error's key fraction is still exact;
    `worst_miss_probability` is the chance that any one fixed error
    (in particular the true argmax) was never drawn.
    """

    value: Fraction
    exhaustive: bool
    samples: int | None = None
    seed: int | None = None
    worst_miss_probability: float | None = None


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
    if n % lam != 0:
        raise ValueError(f"key length {lam} must divide block length {n}")
    if field is None:
        field = FieldSpec.default(lam)
    elif field.m != lam:
        raise ValueError(f"field has degree {field.m}, key length is {lam}")
    pair = basis_pair if basis_pair is not None else compute_dual_basis(field)
    r = n // lam
    codes: dict[int, StabilizerCode] = {}
    for key_bits in range(1 << lam):
        alpha = field.element(key_bits)
        v = [alpha ** j for j in range(2 * r)]
        a_half, b_half = v[:r], v[r:]
        gens = []
        for gamma in field.polynomial_basis():
            x = z = 0
            for block, coord in enumerate(a_half):
                x |= pair.alpha_coords(gamma * coord) << (block * lam)
            for block, coord in enumerate(b_half):
                z |= pair.beta_coords(gamma * coord) << (block * lam)
            gens.append(PauliOperator(n, x, z, 0).hermitian_form())
        for i, g in enumerate(gens):
            for h in gens[i + 1:]:
                if symplectic_product(g, h):  # pragma: no cover - construction guard
                    raise AssertionError(
                        f"family generators anticommute at key {key_bits:#x}")
        codes[key_bits] = StabilizerCode(n, gens, name=f"Q[{key_bits:#x}]",
                                         encoder_pivot=encoder_pivot)
    return PtcFamily(n, lam, field, codes)


def _stacked_generator_masks(family: PtcFamily) -> tuple[np.ndarray, np.ndarray]:
    """(num_keys*lam) x-mask and z-mask arrays, row-major by key."""
    xs, zs = [], []
    for key in family.keys():
        for g in family.code_for(key).gens:
            xs.append(g.x)
            zs.append(g.z)
    return np.array(xs, dtype=np.uint64), np.array(zs, dtype=np.uint64)


def _undetected_key_counts(family: PtcFamily, ex: np.ndarray, ez: np.ndarray) -> np.ndarray:
    """For each error (ex, ez), the number of keys whose code misses it."""
    gen_x, gen_z = _stacked_generator_masks(family)
    counts = np.zeros(ex.shape[0], dtype=np.int64)
    in_normalizer = np.ones(ex.shape[0], dtype=bool)
    lam = family.lam
    for key_index in range(family.num_keys):
        in_normalizer[:] = True
        for j in range(lam):
            gx = gen_x[key_index * lam + j]
            gz = gen_z[key_index * lam + j]
            bit = f2_parity_array(ex & gz) ^ f2_parity_array(ez & gx)
            in_normalizer &= bit == 0
        counts += in_normalizer
    return counts


def measure_strong_ptc_error(family: PtcFamily, samples: int | None = None,
                             seed: int = 0,
                             chunk: int = 1 << 16) -> SweepResult:
    """Worst-case fraction of keys that miss a fixed nonidentity Pauli.

    Exhaustive over all 4^n - 1 errors by default; pass `samples` for a
    uniform sample drawn from a Philox generator seeded with `seed`
    when the sweep would exceed the iteration guard.  Per-error key
    fractions are exact in both modes.
    """
    n = family.n
    total_errors = (1 << (2 * n)) - 1
    if samples is None:
        if (total_errors + 1) * family.num_keys * family.lam > SWEEP_GUARD:
            raise ValueError(
                "exhaustive sweep exceeds the iteration guard; "
                "re-run with samples=<count> and a seed for sampling mode")
        best = 0
        for start in range(1, total_errors + 1, chunk):
            stop = min(start + chunk, total_errors + 1)
            codes_int = np.arange(start, stop, dtype=np.uint64)
            ex = codes_int & np.uint64((1 << n) - 1)
            ez = codes_int >> np.uint64(n)
            best = max(best, int(_undetected_key_counts(family, ex, ez).max()))
        return SweepResult(Fraction(best, family.num_keys), exhaustive=True)
    rng = np.random.default_rng(np.random.Philox(seed))
    draws = rng.integers(1, total_errors + 1, size=samples, dtype=np.uint64)
    ex = draws & np.uint64((1 << n) - 1)
    ez = draws >> np.uint64(n)
    best = int(_undetected_key_counts(family, ex, ez).max())
    miss = float((1.0 - 1.0 / total_errors) ** samples)
    return SweepResult(Fraction(best, family.num_keys), exhaustive=False,
                       samples=samples, seed=seed, worst_miss_probability=miss)


def measure_pairwise_detectability(family: PtcFamily) -> SweepResult:
    """Worst case over shifts s != 0 of P_k[S_k meets N_{k+s} nontrivially]."""
    groups = _nonidentity_stabilizers(family)
    worst = Fraction(0)
    for shift in family.field.elements():
        if shift:
            bad_keys = len(_commuting_shift_keys(family, shift, groups))
            worst = max(worst, Fraction(bad_keys, family.num_keys))
    return SweepResult(worst, exhaustive=True)


def pbeta_roots(beta: FieldElement, r: int) -> set[FieldElement]:
    """Roots of ((a+b)^r - a^r) * (a^(r+1) (a+b)^(r+1) - 1) over the field.

    Keys at which the stabilizer groups of a code and its beta-shift
    commute are contained in this root set.
    """
    if not beta:
        raise ValueError("shift beta must be nonzero")
    field = beta.field
    one = field.one()
    roots = set()
    for alpha in field.elements():
        first = (alpha + beta) ** r + alpha ** r
        second = (alpha ** (r + 1)) * ((alpha + beta) ** (r + 1)) + one
        if not (first * second):
            roots.add(alpha)
    return roots


def _nonidentity_stabilizers(family: PtcFamily) -> dict[int, list[PauliOperator]]:
    """Each key's stabilizer group (mod phase) without the identity."""
    return {key_bits: [s for s in code.stabilizer_group() if not s.is_identity()]
            for key_bits, code in family.codes.items()}


def commuting_shift_keys(family: PtcFamily, beta: FieldElement) -> set[FieldElement]:
    """Keys k whose stabilizer group meets N(Q_{k+beta}) nontrivially."""
    return _commuting_shift_keys(family, beta, _nonidentity_stabilizers(family))


def _commuting_shift_keys(family: PtcFamily, beta: FieldElement,
                          groups: dict[int, list[PauliOperator]]) -> set[FieldElement]:
    bad = set()
    for key in family.keys():
        code_shifted = family.code_for(key + beta)
        if any(syndrome(code_shifted, sigma).bits == 0 for sigma in groups[key.coeffs]):
            bad.add(key)
    return bad
