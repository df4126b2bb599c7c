"""Erasure list decoding for classical linear codes and stabilizer codes.

Classical: all error vectors supported on an erased coordinate set that
match a given syndrome, enumerated as a particular solution plus the
kernel of the column-restricted parity-check matrix.

Quantum: the candidate-correction list for an erased qubit set and a
measured syndrome.  One supported Pauli with the right syndrome is
found by a linear solve; the full list is its coset under the quotient
of the support-restricted normalizer by the support-restricted
stabilizer subgroup.  Entries are canonicalized to the lexicographically
least element of their stabilizer coset and the list is ordered by
symplectic vector, so downstream decoding is reproducible.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

from . import f2
from .limits import SizeGuardError
from .symplectic import PauliOperator, StabilizerCode, css_from_classical


def _erased_positions(n: int, erased) -> tuple[int, ...]:
    """The erased set as sorted positions, refusing duplicates and
    positions outside [0, n)."""
    erased = tuple(sorted(erased))
    if len(set(erased)) != len(erased):
        raise ValueError("duplicate erased positions")
    if erased and not (0 <= erased[0] and erased[-1] < n):
        raise ValueError(f"erased positions outside [0, {n})")
    return erased


def _lex_key(vec: int, ncols: int):
    return tuple(f2.int_to_bits(vec, ncols))


# ---------------------------------------------------------------------------
# Classical
# ---------------------------------------------------------------------------

def _as_rows(h) -> tuple[list[int], int]:
    rows = [list(map(int, row)) for row in h]
    if not rows:
        raise ValueError("parity-check matrix needs at least one row")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError("ragged parity-check matrix")
    n = widths.pop()
    return [f2.bits_to_int(r) for r in rows], n


def classical_erasure_list_decode(h, erased, s) -> list[np.ndarray]:
    """All e with support inside `erased` and H e = s; [] if inconsistent."""
    rows, n = _as_rows(h)
    cols = _erased_positions(n, erased)
    s = list(map(int, s))
    if len(s) != len(rows):
        raise ValueError("syndrome length does not match check count")
    restricted = [f2.restrict(row, cols) for row in rows]
    particular = f2.solve(restricted, s, len(cols))
    if particular is None:
        return []
    kernel = f2.kernel_basis(restricted, len(cols))
    solutions = [np.array(f2.int_to_bits(f2.embed(v, cols), n), dtype=np.uint8)
                 for v in f2.span(kernel, particular, operator.xor)]
    solutions.sort(key=lambda e: tuple(e))
    return solutions


def _erased_sets(n: int, delta: float):
    """Every erased set of size <= delta * n, the empty set first."""
    if not 0 <= delta <= 1:
        raise ValueError(f"erased fraction delta must be in [0, 1], got {delta}")
    return itertools.chain.from_iterable(
        itertools.combinations(range(n), size) for size in range(int(delta * n) + 1))


def classical_list_profile(h, delta: float) -> int:
    """Worst-case solution count over erased sets of size <= delta * n."""
    rows, n = _as_rows(h)
    worst = 1
    for cols in _erased_sets(n, delta):
        restricted = [f2.restrict(row, cols) for row in rows]
        worst = max(worst, 1 << (len(cols) - f2.rank(restricted, len(cols))))
    return worst


# ---------------------------------------------------------------------------
# Quantum
# ---------------------------------------------------------------------------

def _restricted_commutation_rows(code: StabilizerCode, cols: tuple[int, ...]):
    """Per-generator functionals on (x|z) coordinates over the erased set."""
    return [f2.restrict(g.z, cols) | (f2.restrict(g.x, cols) << len(cols))
            for g in code.gens]


def _embed_restricted(vec: int, cols: tuple[int, ...], n: int) -> PauliOperator:
    """The Pauli on n qubits whose (x|z) bits over cols are vec's."""
    return PauliOperator(n, f2.embed(vec, cols), f2.embed(vec >> len(cols), cols), 0)


def _supported_stabilizer_basis(code: StabilizerCode, cols: tuple[int, ...]) -> list[int]:
    """Symplectic vectors of a basis of the stabilizer subgroup on cols."""
    outside = [q for q in range(code.n) if q not in cols]
    # Constraint rows over generator-coefficient space: the combination
    # sum c_i g_i must have zero x and z bits at every outside qubit.
    rows = []
    for q in outside:
        rows.append(f2.bits_to_int([(g.x >> q) & 1 for g in code.gens]))
        rows.append(f2.bits_to_int([(g.z >> q) & 1 for g in code.gens]))
    vecs = [g.symplectic_vector() for g in code.gens]
    return [f2.combine(vecs, c) for c in f2.kernel_basis(rows, code.r)]


def erasure_list_decode(code: StabilizerCode, erased, s) -> tuple[PauliOperator, ...]:
    """Candidate corrections on the erased set matching the syndrome bits
    s (bit i for generator i).

    Entries pairwise logically distinct, each the lexicographic minimum
    of its stabilizer coset, ordered by symplectic vector.  Empty iff no
    supported Pauli has the requested syndrome.
    """
    cols = _erased_positions(code.n, erased)
    s = list(s)
    if any(b not in (0, 1) for b in s):
        raise ValueError(f"syndrome entries must be 0 or 1, got {s}")
    if len(s) != code.r:
        raise ValueError("syndrome length does not match generator count")
    rows = _restricted_commutation_rows(code, cols)
    particular_vec = f2.solve(rows, s, 2 * len(cols))
    if particular_vec is None:
        return ()
    particular = _embed_restricted(particular_vec, cols, code.n)
    normalizer_vecs = [ _embed_restricted(v, cols, code.n).symplectic_vector()
                        for v in f2.kernel_basis(rows, 2 * len(cols))]
    stab_vecs = _supported_stabilizer_basis(code, cols)
    coset_gens = f2.extend_basis(stab_vecs, normalizer_vecs, 2 * code.n)
    if 1 << len(coset_gens) > 4096:
        raise SizeGuardError(f"correction list would have 2^{len(coset_gens)} entries, "
                              "above 4096")
    stab_pivots, stab_rref = f2.rref(stab_vecs, 2 * code.n)
    # coset_gens are independent modulo the supported stabilizer, so each
    # coset, and each canonical entry, comes up once.
    entries = []
    for v in f2.span(coset_gens, particular.symplectic_vector(), operator.xor):
        canonical = f2.reduce_vector(stab_pivots, stab_rref, v)
        entries.append(PauliOperator.from_symplectic_vector(code.n, canonical)
                       .hermitian_form())
    entries.sort(key=lambda p: _lex_key(p.symplectic_vector(), 2 * code.n))
    return tuple(entries)


def quantum_list_size(code: StabilizerCode, erased) -> int:
    """|N_T / S_T| by symplectic rank arithmetic (no enumeration)."""
    cols = _erased_positions(code.n, erased)
    rows = _restricted_commutation_rows(code, cols)
    dim_normalizer = 2 * len(cols) - f2.rank(rows, 2 * len(cols))
    dim_stabilizer = f2.rank(_supported_stabilizer_basis(code, cols), 2 * code.n)
    return 1 << (dim_normalizer - dim_stabilizer)


def list_size_profile(code: StabilizerCode, delta: float) -> int:
    """Worst |N_T / S_T| over erased sets of size <= delta * n, for n <= 12."""
    if code.n > 12:
        raise SizeGuardError("profile sweep limited to n <= 12")
    return max(quantum_list_size(code, cols) for cols in _erased_sets(code.n, delta))


# ---------------------------------------------------------------------------
# Random CSS sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CssSampleReport:
    code: StabilizerCode
    first_draw_full_rank: bool


def sample_random_css(n: int, k: int, rng: np.random.Generator) -> CssSampleReport:
    """Random CSS code of target dimensions [[n, k]].

    Draws (n+k)/2 uniform vectors as a generator matrix for the first
    classical code; the first (n-k)/2 of them double as the parity
    check of the second, which makes the dual-containment automatic.
    Dependent draws are retried wholesale (up to 100 times); the
    report records whether the first draw was already full rank, which
    is the rate-failure event of interest for unconditioned sampling.
    """
    if (n + k) % 2 != 0:
        raise ValueError("n + k must be even")
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n")
    if n > 64:
        raise SizeGuardError(
            f"CSS sampling draws each vector as one 64-bit word and needs n <= 64, got n = {n}")
    k1 = (n + k) // 2
    k2 = n - k1
    first_full_rank = None
    for _ in range(101):
        gs = [int(v) for v in rng.integers(0, 1 << n, size=k1, dtype=np.uint64)]
        full_rank = f2.rank(gs, n) == k1
        if first_full_rank is None:
            first_full_rank = full_rank
        if full_rank:
            h2 = [f2.int_to_bits(r, n) for r in gs[:k2]]
            h1 = [f2.int_to_bits(r, n) for r in f2.kernel_basis(gs, n)]
            code = css_from_classical(h1, h2, name=f"randcss[{n},{k}]")
            if code.k != k:  # pragma: no cover - guaranteed by rank checks
                raise AssertionError("sampled CSS code has the wrong dimension")
            return CssSampleReport(code, bool(first_full_rank))
    raise RuntimeError("no independent draw after 100 redraws")
