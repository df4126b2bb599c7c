import itertools
import random

import pytest

from pmdkit import f2
from pmdkit.galois import (DEFAULT_MODULI, DualBasisPair, FieldSpec, _log_antilog, _poly_mod,
                           _poly_mulmod, compute_dual_basis)


def gf4():
    return FieldSpec.default(2)  # modulus x^2 + x + 1


def test_default_moduli_are_irreducible():
    for m in DEFAULT_MODULI:
        FieldSpec.default(m)  # __post_init__ verifies irreducibility


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError, match="reducible"):
        FieldSpec(0b101)  # x^2 + 1 = (x + 1)^2


def test_field_degree_is_the_modulus_degree():
    assert [FieldSpec(0b111).m, FieldSpec(0b11001).order] == [2, 16]
    for modulus in (0, 1, -7):
        with pytest.raises(ValueError, match="not a polynomial of degree >= 1"):
            FieldSpec(modulus)


def test_mul_identities():
    field = gf4()
    x = 0b10
    assert field.mul(0, x) == 0
    assert field.mul(1, x) == x


def test_mul_reduces_once_like_the_per_step_form():
    """`_poly_mulmod`, which reduces the product once, equals the product
    reduced after every shift, kept here as its oracle, on every pair at
    m <= 8."""
    def per_step_mulmod(a, b, modulus):
        result = 0
        while b:
            if b & 1:
                result ^= a
            b >>= 1
            a = _poly_mod(a << 1, modulus)
        return _poly_mod(result, modulus)

    for m in range(1, 9):
        field = FieldSpec.default(m)
        for a, b in itertools.product(range(field.order), repeat=2):
            assert _poly_mulmod(a, b, field.modulus) == per_step_mulmod(a, b, field.modulus), \
                (m, a, b)


# Irreducible moduli under which x does not generate the multiplicative
# group, so `_log_antilog` must search for a generator: x has order 5
# under x^4+x^3+x^2+x+1, 9 under x^6+x^3+1 and 51 under the AES modulus.
NON_PRIMITIVE = {0x1F: 5, 0x49: 9, 0x11B: 51}

TABLE_MODULI = sorted({DEFAULT_MODULI[m] for m in range(1, 9)} | set(NON_PRIMITIVE))


def _x_order(modulus):
    order, p = 1, 0b10
    while p != 1:
        p, order = _poly_mulmod(p, 0b10, modulus), order + 1
    return order


@pytest.mark.parametrize("modulus", TABLE_MODULI, ids=hex)
def test_table_mul_matches_the_carry_less_product(modulus):
    """`mul` reads log/antilog tables; `_poly_mulmod`, which builds them,
    is the oracle on every pair."""
    field = FieldSpec(modulus)
    for a, b in itertools.product(range(field.order), repeat=2):
        assert field.mul(a, b) == _poly_mulmod(a, b, modulus), (a, b)


@pytest.mark.parametrize("modulus", TABLE_MODULI, ids=hex)
def test_log_antilog_tables_cover_the_multiplicative_group(modulus):
    log, antilog = _log_antilog(modulus)
    q = 1 << (modulus.bit_length() - 1)
    assert len(antilog) == 2 * (q - 1)
    assert sorted(antilog[:q - 1]) == list(range(1, q))
    assert antilog[q - 1:] == antilog[:q - 1]
    assert all(antilog[log[a]] == a for a in range(1, q))
    if modulus in NON_PRIMITIVE:
        assert _x_order(modulus) == NON_PRIMITIVE[modulus]
        assert antilog[1] != 0b10  # the generator came from the search
    elif q > 2:
        assert antilog[1] == 0b10  # every default modulus is primitive


@pytest.mark.parametrize("modulus", [DEFAULT_MODULI[m] for m in (1, 2, 3, 4)]
                         + sorted(NON_PRIMITIVE)[:2], ids=hex)
def test_table_power_matches_repeated_carry_less_products(modulus):
    field = FieldSpec(modulus)
    for a in range(field.order):
        expected = 1
        for e in range(3 * field.order):
            assert field.power(a, e) == expected, (a, e)
            expected = _poly_mulmod(expected, a, modulus)
    assert field.power(0, 0) == 1
    assert field.power(0, 10**6) == 0
    top = field.order - 1  # an element, and the order of the multiplicative group
    assert field.power(top, 10**6) == field.power(top, 10**6 % top)


def test_gf4_omega_squared():
    # In GF(4) with modulus x^2 + x + 1: w * w = w + 1.
    field = gf4()
    w = 0b10
    assert field.mul(w, w) == 0b11


def test_gf4_omega_cubed_is_one():
    field = gf4()
    w = 0b10
    assert field.power(w, 3) == 1
    assert field.power(w, 0) == 1
    assert field.power(w, 1) == w


def test_pow_matches_repeated_mul():
    field = FieldSpec.default(4)
    rng = random.Random(3)
    for _ in range(50):
        a = rng.randrange(16)
        e = rng.randrange(0, 20)
        expected = 1
        for _ in range(e):
            expected = field.mul(expected, a)
        assert field.power(a, e) == expected


def test_negative_power_rejected():
    with pytest.raises(ValueError, match="negative"):
        gf4().power(0b10, -1)


def test_trace_values_gf4():
    field = gf4()
    assert field.trace(0) == 0
    assert field.trace(1) == 0  # 1 + 1 = 0
    assert field.trace(0b10) == 1  # w + w^2 = 1 from the modulus relation


def test_trace_additive_and_frobenius_invariant():
    for m in range(1, 9):
        field = FieldSpec.default(m)
        elems = list(range(field.order))
        sample = elems if m <= 5 else random.Random(m).sample(elems, 32)
        for a in sample:
            assert field.trace(field.mul(a, a)) == field.trace(a)
        for a, b in itertools.product(sample[:16], repeat=2):
            assert field.trace(a ^ b) == (field.trace(a) ^ field.trace(b))


def test_field_axioms_exhaustive_small():
    for m in (1, 2, 3, 4):
        field = FieldSpec.default(m)
        mul = field.mul
        elems = range(field.order)
        for a, b in itertools.product(elems, repeat=2):
            assert mul(a, b) == mul(b, a)
        for a, b, c in itertools.product(elems[: 1 << min(m, 3)], repeat=3):
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, b ^ c) == mul(a, b) ^ mul(a, c)


def test_field_axioms_randomized_m16():
    field = FieldSpec.default(16)
    rng = random.Random(99)
    mul = field.mul
    for _ in range(100):
        a, b, c = (rng.randrange(field.order) for _ in range(3))
        assert mul(a, b) == mul(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, b ^ c) == mul(a, b) ^ mul(a, c)


def test_dual_basis_gf2_trivial():
    field = FieldSpec.default(1)
    pair = compute_dual_basis(field)
    assert pair.alpha == (1,)
    assert pair.beta == (1,)


def test_dual_basis_gf4():
    # alpha = {1, w}; beta must solve the 2x2 trace Gram system.
    field = gf4()
    pair = compute_dual_basis(field, [1, 0b10])
    for i, a in enumerate(pair.alpha):
        for j, b in enumerate(pair.beta):
            assert field.trace(field.mul(a, b)) == (1 if i == j else 0)


def test_dual_basis_defining_property_all_m():
    for m in range(1, 9):
        field = FieldSpec.default(m)
        pair = compute_dual_basis(field)
        assert pair.alpha == tuple(1 << l for l in range(m))
        for i, a in enumerate(pair.alpha):
            for j, b in enumerate(pair.beta):
                assert field.trace(field.mul(a, b)) == (1 if i == j else 0)


def test_dual_basis_singular_alpha_rejected():
    field = gf4()
    with pytest.raises(ValueError, match="singular"):
        compute_dual_basis(field, [1, 1])


@pytest.mark.parametrize("alpha", [[1, 4], [1, 6], [-1, 2]])
def test_dual_basis_out_of_range_alpha_rejected(alpha):
    # The rank check reads only each row's lowest set bit, so 6 = x^2 + x
    # would pass it (and act as 1 in products), and -1 would never end a multiply.
    with pytest.raises(ValueError, match="out of range"):
        compute_dual_basis(gf4(), alpha)


def test_dual_basis_pair_checks_the_trace_gram():
    field = gf4()
    DualBasisPair(field, (1, 0b10), compute_dual_basis(field).beta)
    with pytest.raises(ValueError, match="not identity"):
        DualBasisPair(field, (1, 0b10), (1, 0b10))
    with pytest.raises(ValueError, match="m elements"):
        DualBasisPair(field, (1,), (1,))


def test_coordinate_dot_product_equals_trace_of_product():
    # For a in alpha coordinates and b in beta coordinates,
    # <coords(a), coords(b)> = tr(a*b).  Exhaustive for m <= 4.
    for m in (1, 2, 3, 4):
        field = FieldSpec.default(m)
        pair = compute_dual_basis(field)
        for a in range(field.order):
            for b in range(field.order):
                dot = f2.dot(pair.alpha_coords(a), pair.beta_coords(b))
                assert dot == field.trace(field.mul(a, b))


def test_coords_invert_basis_expansion():
    field = FieldSpec.default(3)
    pair = compute_dual_basis(field)
    for a in range(field.order):
        coords = pair.alpha_coords(a)
        rebuilt = 0
        for i in range(field.m):
            if (coords >> i) & 1:
                rebuilt ^= pair.alpha[i]
        assert rebuilt == a
