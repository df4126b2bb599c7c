"""Bit-packed linear algebra over F2.

Vectors are Python ints with bit i holding coordinate i; a matrix is a
list of row ints plus an explicit column count.  Arbitrary-precision
ints make a row operation a single XOR, which is what keeps the
exhaustive sweeps elsewhere in the toolkit cheap.

Column 0 (the lowest bit) is the most significant position for pivoting
and for the lexicographic order used to canonicalize coset
representatives.

Four primitives own the subset and subsystem moves of the toolkit:
`span` and `combine` enumerate or pick combinations of a basis, and
`restrict` and `embed` gather bits at listed positions and scatter them.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence


def parity(v: int) -> int:
    return v.bit_count() & 1


def dot(a: int, b: int) -> int:
    """Inner product of two F2 vectors."""
    return (a & b).bit_count() & 1


def rref(rows: Iterable[int], ncols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form.

    Returns (pivot columns, reduced nonzero rows); row i has its pivot at
    bit pivots[i] and that bit is zero in every other row.
    """
    reduced: list[int] = []
    pivots: list[int] = []
    for row in rows:
        for piv, basis in zip(pivots, reduced):
            if (row >> piv) & 1:
                row ^= basis
        if row == 0:
            continue
        piv = (row & -row).bit_length() - 1
        if piv >= ncols:
            raise ValueError(f"row has bits beyond column {ncols}")
        # Back-substitute into the existing rows.
        reduced = [r ^ row if (r >> piv) & 1 else r for r in reduced]
        reduced.append(row)
        pivots.append(piv)
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [pivots[i] for i in order], [reduced[i] for i in order]


def rank(rows: Iterable[int], ncols: int) -> int:
    return len(rref(rows, ncols)[0])


def reduce_vector(pivots: Sequence[int], basis: Sequence[int], v: int) -> int:
    """Reduce v against an RREF basis; clears every pivot bit of v.

    The result is the lexicographically smallest element of the coset
    v + span(basis), with bit 0 most significant.
    """
    for piv, row in zip(pivots, basis):
        if (v >> piv) & 1:
            v ^= row
    return v


def span_contains(pivots: Sequence[int], basis: Sequence[int], v: int) -> bool:
    return reduce_vector(pivots, basis, v) == 0


def solve(rows: Sequence[int], rhs: Sequence[int], ncols: int) -> int | None:
    """One solution x of the system {dot(rows[i], x) = rhs[i]}, or None.

    Solves over the column space: each row is a linear functional on x.
    """
    if len(rows) != len(rhs):
        raise ValueError("rows and rhs length mismatch")
    # Augment each functional with its rhs bit at column ncols.
    aug = [row | (b << ncols) for row, b in zip(rows, rhs)]
    pivots, reduced = rref(aug, ncols + 1)
    x = 0
    for piv, row in zip(pivots, reduced):
        if piv == ncols:
            return None  # 0 = 1 row
        if (row >> ncols) & 1:
            x |= 1 << piv
    # x has pivot coordinates set to the rhs of the reduced system and
    # free coordinates zero; verify (cheap, and guards pivot bookkeeping).
    for row, b in zip(rows, rhs):
        if dot(row, x) != b:  # pragma: no cover
            raise AssertionError("f2.solve produced a non-solution")
    return x


def kernel_basis(rows: Iterable[int], ncols: int) -> list[int]:
    """Basis of {x : dot(row, x) = 0 for every row}."""
    pivots, reduced = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = 1 << free
        for piv, row in zip(pivots, reduced):
            if (row >> free) & 1:
                v |= 1 << piv
        basis.append(v)
    return basis


def extend_basis(base: Iterable[int], candidates: Iterable[int], ncols: int) -> list[int]:
    """Greedily pick candidates that enlarge the span of base."""
    pivots, reduced = rref(base, ncols)
    picked = []
    for cand in candidates:
        residue = reduce_vector(pivots, reduced, cand)
        if residue == 0:
            continue
        picked.append(cand)
        piv = (residue & -residue).bit_length() - 1
        reduced = [r ^ residue if (r >> piv) & 1 else r for r in reduced]
        insert = sum(1 for p in pivots if p < piv)
        pivots.insert(insert, piv)
        reduced.insert(insert, residue)
    return picked


def int_to_bits(v: int, ncols: int) -> list[int]:
    return [(v >> i) & 1 for i in range(ncols)]


def bits_to_int(bits: Iterable[int]) -> int:
    v = 0
    for i, b in enumerate(bits):
        if b & 1:
            v |= 1 << i
    return v


def combine(vectors: Iterable, bits: int):
    """XOR of the vectors whose bits are set in `bits` (vector i at bit i)."""
    out = 0
    for v in vectors:
        if bits & 1:
            out ^= v
        bits >>= 1
    return out


def span(basis: Iterable, start, add: Callable) -> list:
    """Every combination of `basis` on top of `start`, doubling the list
    once per basis vector: element i is `start` combined by `add`, in
    index order, with the vectors whose bits are set in i; with `add` an
    XOR it is start ^ combine(basis, i)."""
    elements = [start]
    for b in basis:
        elements += [add(e, b) for e in elements]
    return elements


def restrict(v, positions: Iterable[int]):
    """The bits of v at `positions`, packed: bit i is bit positions[i] of v.
    On an int, or elementwise on a nonnegative integer array."""
    out = 0
    for i, q in enumerate(positions):
        out |= ((v >> q) & 1) << i
    return out


def embed(v: int, positions: Iterable[int]) -> int:
    """Bit i of v moved to bit positions[i]: `restrict` undone on them."""
    out = 0
    for i, q in enumerate(positions):
        out |= ((v >> i) & 1) << q
    return out
