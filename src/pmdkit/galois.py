"""Arithmetic in GF(2^m).

A field element is a plain int in [0, 2^m): its m-bit coefficient
vector in the polynomial basis (bit i = coefficient of x^i, so x^l is
`1 << l`).  Addition is XOR, written `^` where it is used; `FieldSpec`
owns the rest over a fixed irreducible modulus, whose irreducibility is
verified at construction by trial division.  A field is given by its
modulus alone: m is the modulus's degree.  `mul` and `power` read
discrete log and antilog tables of the field's multiplicative group
(a*b = g^(log a + log b) for a generator g), which `_log_antilog` builds
once per modulus on first use with the carry-less `_poly_mulmod`; `trace`
is built on `mul`.  Elements carry no field of their own, so the caller
keeps them in range.

The dual-basis machinery is what lets field elements be flattened into
Pauli exponent vectors: with bases (alpha, beta) satisfying
tr(alpha_i * beta_j) = delta_ij, coordinate dot products of elements
expressed in alpha and beta coordinates equal the field trace of their
product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

from . import f2

# Lowest-weight irreducible polynomials over F2, one per degree.  Fixed
# for reproducibility of all constructions; overridable via FieldSpec.
DEFAULT_MODULI: dict[int, int] = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}


def _poly_degree(p: int) -> int:
    return p.bit_length() - 1


def _poly_mod(a: int, modulus: int) -> int:
    deg = _poly_degree(modulus)
    while a.bit_length() - 1 >= deg > 0:
        a ^= modulus << (a.bit_length() - 1 - deg)
    return a


def _poly_mulmod(a: int, b: int, modulus: int) -> int:
    """a * b mod modulus: the carry-less product, reduced once."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
    return _poly_mod(result, modulus)


@cache
def _log_antilog(modulus: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Discrete log and antilog tables of GF(2)[x] / modulus.

    The generator g is the least element whose powers, taken with
    `_poly_mulmod`, reach every nonzero element before they return to 1:
    x when the modulus is primitive (every default modulus), a search
    otherwise (x has order 5 under 0x1F, 51 under 0x11B).  antilog[i] is
    g^i over two periods, so a sum of two logs indexes it unreduced;
    log[a] is i with g^i = a, and log[0] is unused.
    """
    order = 1 << _poly_degree(modulus)
    for g in range(1, order):
        powers = [1]
        while (nxt := _poly_mulmod(powers[-1], g, modulus)) != 1:
            powers.append(nxt)
        if len(powers) == order - 1:
            break
    log = [0] * order
    for i, p in enumerate(powers):
        log[p] = i
    return tuple(log), tuple(powers * 2)


def _is_irreducible(p: int) -> bool:
    deg = _poly_degree(p)
    if deg < 1:
        return False
    if deg == 1:
        return True
    if not p & 1:  # divisible by x
        return False
    for d in range(2, (1 << (deg // 2 + 1))):
        if _poly_degree(d) < 1:
            continue
        # Long division of p by d; irreducible iff no divisor of degree
        # in [1, deg/2] leaves remainder zero.
        rem = p
        while _poly_degree(rem) >= _poly_degree(d):
            rem ^= d << (_poly_degree(rem) - _poly_degree(d))
        if rem == 0:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """GF(2^m) over a fixed irreducible modulus of degree m."""

    modulus: int

    def __post_init__(self):
        if self.modulus < 2:  # reducing by a negative int never ends
            raise ValueError(f"modulus {self.modulus:#x} is not a polynomial of degree >= 1")
        if not _is_irreducible(self.modulus):
            raise ValueError(f"modulus 0x{self.modulus:x} is reducible")

    @classmethod
    def default(cls, m: int) -> "FieldSpec":
        if m not in DEFAULT_MODULI:
            raise ValueError(f"no default modulus for m={m}; supply one explicitly")
        return cls(DEFAULT_MODULI[m])

    @property
    def m(self) -> int:
        """The extension degree: the modulus's degree."""
        return _poly_degree(self.modulus)

    @property
    def order(self) -> int:
        return 1 << self.m

    def mul(self, a: int, b: int) -> int:
        """a * b: the antilog of log a + log b (`_log_antilog`)."""
        if not (a and b):
            return 0
        log, antilog = _log_antilog(self.modulus)
        return antilog[log[a] + log[b]]

    def power(self, a: int, exponent: int) -> int:
        """a^exponent: the antilog of exponent * log a, with 0^0 = 1."""
        if exponent < 0:
            raise ValueError("negative exponents are not supported")
        if not a:
            return 0 if exponent else 1
        log, antilog = _log_antilog(self.modulus)
        return antilog[log[a] * exponent % (self.order - 1)]

    def trace(self, a: int) -> int:
        """Trace down to F2: sum of the Frobenius orbit a^(2^i)."""
        acc = 0
        for _ in range(self.m):
            acc ^= a
            a = self.mul(a, a)
        if acc not in (0, 1):  # pragma: no cover
            raise AssertionError("trace landed outside F2")
        return acc


@dataclass(frozen=True)
class DualBasisPair:
    """Bases (alpha, beta) of GF(2^m) with tr(alpha_i * beta_j) = delta_ij."""

    field: FieldSpec
    alpha: tuple[int, ...]
    beta: tuple[int, ...]

    def __post_init__(self):
        field = self.field
        if len(self.alpha) != field.m or len(self.beta) != field.m:
            raise ValueError("bases must have m elements each")
        for i, a in enumerate(self.alpha):
            for j, b in enumerate(self.beta):
                if field.trace(field.mul(a, b)) != (1 if i == j else 0):
                    raise ValueError(f"trace Gram matrix is not identity at ({i}, {j})")

    @cached_property
    def _coord_columns(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Alpha and beta coordinates of each polynomial basis element x^l.

        Coordinates are GF(2)-linear, so these m images per basis fix
        both maps; entry i of an image is tr(x^l * dual_i).
        """
        field = self.field
        return tuple(tuple(f2.bits_to_int(field.trace(field.mul(1 << l, d)) for d in dual)
                           for l in range(field.m))
                     for dual in (self.beta, self.alpha))

    def alpha_coords(self, a: int) -> int:
        """Coordinates of a in the alpha basis: the XOR of the images of
        the polynomial basis elements present in a."""
        return f2.combine(self._coord_columns[0], a)

    def beta_coords(self, a: int) -> int:
        return f2.combine(self._coord_columns[1], a)


def compute_dual_basis(field: FieldSpec, alpha: list[int] | None = None) -> DualBasisPair:
    """Dual basis beta for alpha (default: the polynomial basis).

    Solves the trace Gram system tr(alpha_i * x^l) c_l = delta_ij for
    each j; raises if alpha is not a basis.
    """
    if alpha is None:
        alpha = [1 << l for l in range(field.m)]
    if len(alpha) != field.m:
        raise ValueError(f"alpha must have {field.m} elements")
    if any(not 0 <= a < field.order for a in alpha):
        raise ValueError(f"alpha has an element out of range for m={field.m}")
    if f2.rank(alpha, field.m) != field.m:
        raise ValueError("alpha is singular (not a basis over F2)")
    # Row i is the functional c -> tr(alpha_i * sum_l c_l x^l).
    rows = [f2.bits_to_int(field.trace(field.mul(a, 1 << l)) for l in range(field.m))
            for a in alpha]
    beta = []
    for j in range(field.m):
        rhs = [1 if i == j else 0 for i in range(field.m)]
        c = f2.solve(rows, rhs, field.m)
        if c is None:  # pragma: no cover - trace form is nondegenerate
            raise ValueError("trace system is singular")
        beta.append(c)
    return DualBasisPair(field, tuple(alpha), tuple(beta))
