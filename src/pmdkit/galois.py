"""Arithmetic in GF(2^m).

Field elements are m-bit coefficient vectors in the polynomial basis,
stored as ints (bit i = coefficient of x^i).  Multiplication reduces by
a fixed irreducible modulus; irreducibility is verified at construction
by trial division.

The dual-basis machinery is what lets field elements be flattened into
Pauli exponent vectors: with bases (alpha, beta) satisfying
tr(alpha_i * beta_j) = delta_ij, coordinate dot products of elements
expressed in alpha and beta coordinates equal the field trace of their
product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    """GF(2^m) with a fixed degree-m irreducible modulus."""

    m: int
    modulus: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"extension degree must be >= 1, got {self.m}")
        if _poly_degree(self.modulus) != self.m:
            raise ValueError(
                f"modulus 0x{self.modulus:x} has degree {_poly_degree(self.modulus)}, "
                f"expected {self.m}")
        if not _is_irreducible(self.modulus):
            raise ValueError(f"modulus 0x{self.modulus:x} is reducible")

    @classmethod
    def default(cls, m: int) -> "FieldSpec":
        if m not in DEFAULT_MODULI:
            raise ValueError(f"no default modulus for m={m}; supply one explicitly")
        return cls(m, DEFAULT_MODULI[m])

    @property
    def order(self) -> int:
        return 1 << self.m

    def element(self, coeffs: int) -> "FieldElement":
        return FieldElement(coeffs, self)

    def zero(self) -> "FieldElement":
        return FieldElement(0, self)

    def one(self) -> "FieldElement":
        return FieldElement(1, self)

    def x(self) -> "FieldElement":
        """The polynomial-basis generator x (== 1 for m = 1)."""
        return FieldElement(_poly_mod(0b10, self.modulus), self)

    def elements(self):
        return (FieldElement(c, self) for c in range(self.order))

    def polynomial_basis(self) -> list["FieldElement"]:
        return [FieldElement(_poly_mod(1 << i, self.modulus), self) for i in range(self.m)]


@dataclass(frozen=True)
class FieldElement:
    """An element of GF(2^m) in polynomial-basis coordinates."""

    coeffs: int
    field: FieldSpec

    def __post_init__(self):
        if not 0 <= self.coeffs < self.field.order:
            raise ValueError(f"coefficients 0x{self.coeffs:x} out of range for m={self.field.m}")

    def _check_same_field(self, other: "FieldElement") -> None:
        if self.field != other.field:
            raise ValueError("operands live in different fields")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check_same_field(other)
        return FieldElement(self.coeffs ^ other.coeffs, self.field)

    __sub__ = __add__

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check_same_field(other)
        return FieldElement(_poly_mulmod(self.coeffs, other.coeffs, self.field.modulus),
                            self.field)

    def __pow__(self, exponent: int) -> "FieldElement":
        if exponent < 0:
            raise ValueError("negative exponents are not supported")
        result = self.field.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __bool__(self) -> bool:
        return self.coeffs != 0

    def trace(self) -> int:
        """Trace down to F2: sum of the Frobenius orbit a^(2^i)."""
        acc = self.field.zero()
        power = self
        for _ in range(self.field.m):
            acc = acc + power
            power = power * power
        if acc.coeffs not in (0, 1):  # pragma: no cover
            raise AssertionError("trace landed outside F2")
        return acc.coeffs

    def __repr__(self) -> str:
        return f"gf(2^{self.field.m}):0x{self.coeffs:x}"


@dataclass(frozen=True)
class DualBasisPair:
    """Bases (alpha, beta) of GF(2^m) with tr(alpha_i * beta_j) = delta_ij."""

    alpha: tuple[FieldElement, ...]
    beta: tuple[FieldElement, ...]

    def __post_init__(self):
        m = self.alpha[0].field.m
        if len(self.alpha) != m or len(self.beta) != m:
            raise ValueError("bases must have m elements each")
        for i, a in enumerate(self.alpha):
            for j, b in enumerate(self.beta):
                if (a * b).trace() != (1 if i == j else 0):
                    raise ValueError(f"trace Gram matrix is not identity at ({i}, {j})")

    @cached_property
    def _coord_columns(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Alpha and beta coordinates of each polynomial basis element x^l.

        Coordinates are GF(2)-linear, so these m images per basis fix
        both maps; entry i of an image is tr(x^l * dual_i).
        """
        xs = self.alpha[0].field.polynomial_basis()
        return tuple(tuple(f2.bits_to_int((x * d).trace() for d in dual) for x in xs)
                     for dual in (self.beta, self.alpha))

    def alpha_coords(self, a: FieldElement) -> int:
        """Coordinates of a in the alpha basis: the XOR of the images of
        the polynomial basis elements present in a."""
        return f2.combine(self._coord_columns[0], a.coeffs)

    def beta_coords(self, a: FieldElement) -> int:
        return f2.combine(self._coord_columns[1], a.coeffs)


def compute_dual_basis(field: FieldSpec, alpha: list[FieldElement] | None = None) -> DualBasisPair:
    """Dual basis beta for alpha (default: the polynomial basis).

    Solves the trace Gram system tr(alpha_i * x^l) c_l = delta_ij for
    each j; raises if alpha is not a basis.
    """
    if alpha is None:
        alpha = field.polynomial_basis()
    if len(alpha) != field.m:
        raise ValueError(f"alpha must have {field.m} elements")
    if f2.rank([a.coeffs for a in alpha], field.m) != field.m:
        raise ValueError("alpha is singular (not a basis over F2)")
    xs = field.polynomial_basis()
    # Row i is the functional c -> tr(alpha_i * sum_l c_l x^l).
    rows = [f2.bits_to_int((a * x).trace() for x in xs) for a in alpha]
    beta = []
    for j in range(field.m):
        rhs = [1 if i == j else 0 for i in range(field.m)]
        c = f2.solve(rows, rhs, field.m)
        if c is None:  # pragma: no cover - trace form is nondegenerate
            raise ValueError("trace system is singular")
        beta.append(field.element(c))
    return DualBasisPair(tuple(alpha), tuple(beta))
