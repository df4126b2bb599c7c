import itertools
from fractions import Fraction

import numpy as np
import pytest

from pmdkit.densesim import f2_parity_array
from pmdkit.galois import FieldSpec, compute_dual_basis
from pmdkit.limits import SWEEP_GUARD, SizeGuardError
from pmdkit.ptc import (_ENTRY_BUDGET, PtcFamily, _key_syndromes, build_bcgst_family,
                        commuting_shift_keys, measure_pairwise_detectability,
                        measure_strong_ptc_error, pbeta_roots)
from pmdkit.symplectic import PauliOperator, StabilizerCode, symplectic_product, syndrome


def pauli(label):
    return PauliOperator.from_label(label)


def test_build_n2_lambda1_keys():
    fam = build_bcgst_family(2, 1)
    assert fam.num_keys == 2 and fam.r == 2
    # v_0 = (1, 0, 0, 0): X on qubit 0.  v_1 = (1, 1, 1, 1): Y on both.
    assert [g.label() for g in fam.codes[0].gens] == ["XI"]
    assert [g.label() for g in fam.codes[1].gens] == ["YY"]


def test_build_n4_lambda2_shape():
    fam = build_bcgst_family(4, 2)
    assert fam.num_keys == 4
    for key, code in fam.codes.items():
        assert (code.n, code.k, code.r) == (4, 2, 2)
        for g, h in itertools.combinations(code.gens, 2):
            assert symplectic_product(g, h) == 0


def test_build_rejects_bad_divisibility():
    with pytest.raises(ValueError, match="divide"):
        build_bcgst_family(5, 2)
    with pytest.raises(ValueError, match=">= 1"):
        build_bcgst_family(4, 0)


def single_code_family(code, lam=1):
    return PtcFamily(code.n, lam, FieldSpec.default(lam),
                     {k: code for k in range(1 << lam)})


def test_strong_error_one_for_shared_normalizer_element():
    # Negative control: every key uses the same code, so any normalizer
    # element evades all keys.
    code = StabilizerCode(2, [pauli("XI")])
    fam = single_code_family(code)
    assert measure_strong_ptc_error(fam).value == Fraction(1)


def test_pairwise_detectability_one_for_identical_codes():
    code = StabilizerCode(2, [pauli("XI")])
    fam = single_code_family(code)
    # S cap N contains the stabilizer itself, for every shift.
    assert measure_pairwise_detectability(fam).value == Fraction(1)


# Exhaustive regression constants: the sweep itself is the oracle, and
# every value must sit under the family bounds n/2^lam and 2n/2^lam.
EXPECTED = {
    (2, 1): (Fraction(1), Fraction(0)),
    (4, 2): (Fraction(3, 4), Fraction(1, 2)),
    (6, 2): (Fraction(1), Fraction(1, 2)),
    (6, 3): (Fraction(3, 8), Fraction(1, 4)),
}


@pytest.mark.parametrize("n,lam", sorted(EXPECTED))
def test_measured_values_and_bounds(n, lam):
    fam = build_bcgst_family(n, lam)
    eps = measure_strong_ptc_error(fam)
    delta = measure_pairwise_detectability(fam)
    assert eps.exhaustive and delta.exhaustive
    want_eps, want_delta = EXPECTED[(n, lam)]
    assert eps.value == want_eps
    assert delta.value == want_delta
    assert eps.value <= Fraction(n, 2 ** lam)
    assert delta.value <= Fraction(2 * n, 2 ** lam)


def test_sampling_mode_is_seeded_and_bounded():
    fam = build_bcgst_family(4, 2)
    a = measure_strong_ptc_error(fam, samples=500, seed=42)
    b = measure_strong_ptc_error(fam, samples=500, seed=42)
    assert not a.exhaustive
    assert a.value == b.value
    assert a.value <= measure_strong_ptc_error(fam).value


def test_sampling_mode_without_seed_uses_seed_zero():
    fam = build_bcgst_family(4, 2)
    a = measure_strong_ptc_error(fam, samples=5)
    assert a == measure_strong_ptc_error(fam, samples=5)
    assert a == measure_strong_ptc_error(fam, samples=5, seed=0)


def test_guard_error_mentions_sampling():
    fam = build_bcgst_family(4, 2)
    import pmdkit.ptc as ptc_module
    old = ptc_module.SWEEP_GUARD
    ptc_module.SWEEP_GUARD = 10
    try:
        with pytest.raises(SizeGuardError, match="samples"):
            measure_strong_ptc_error(fam)
    finally:
        ptc_module.SWEEP_GUARD = old


def test_key_group_structure():
    # k -> k + s is a bijection on keys for every shift, and the code
    # table is total over the additive group.
    fam = build_bcgst_family(4, 2)
    keys = list(fam.keys())
    assert sorted(k.coeffs for k in keys) == list(range(4))
    for s in fam.field.elements():
        shifted = {(k + s).coeffs for k in keys}
        assert shifted == set(range(4))
        for k in keys:
            assert (k + s).coeffs in fam.codes


def test_pbeta_rejects_zero_shift():
    field = FieldSpec.default(2)
    with pytest.raises(ValueError, match="nonzero"):
        pbeta_roots(field.zero(), 2)


def test_pbeta_roots_by_direct_evaluation():
    # (lambda=2, r=2, beta=1): evaluate the two factors at all four
    # field points with explicit arithmetic.
    field = FieldSpec.default(2)
    beta = field.one()
    r = 2
    expected = set()
    for alpha in field.elements():
        f1 = (alpha + beta) ** r + alpha ** r
        f2_ = (alpha ** (r + 1)) * ((alpha + beta) ** (r + 1)) + field.one()
        if f1.coeffs == 0 or f2_.coeffs == 0:
            expected.add(alpha)
    assert pbeta_roots(beta, r) == expected


def test_pbeta_zero_point_evaluation():
    # alpha = 0 is a root iff one factor vanishes at 0: first factor is
    # beta^r, second is -1, so it happens exactly when beta^r = 0, i.e.
    # never for beta != 0.
    field = FieldSpec.default(3)
    for coeffs in range(1, 8):
        beta = field.element(coeffs)
        roots = pbeta_roots(beta, 2)
        assert (field.zero() in roots) == (beta ** 2 == field.zero())


@pytest.mark.parametrize("n,lam", [(2, 1), (4, 2), (6, 2), (6, 3), (3, 3)])
def test_pbeta_root_count_bound(n, lam):
    field = FieldSpec.default(lam)
    r = n // lam
    for coeffs in range(1, 1 << lam):
        assert len(pbeta_roots(field.element(coeffs), r)) <= 3 * r + 2


@pytest.mark.parametrize("n,lam", [(2, 1), (4, 2), (6, 2), (6, 3), (3, 3)])
def test_commuting_keys_contained_in_pbeta_roots(n, lam):
    # The checkable containment: keys whose stabilizers are undetected
    # under a beta-shift are roots of the shift polynomial.
    fam = build_bcgst_family(n, lam)
    for coeffs in range(1, 1 << lam):
        beta = fam.field.element(coeffs)
        bad = commuting_shift_keys(fam, beta)
        roots = pbeta_roots(beta, fam.r)
        assert bad <= roots


def test_measurements_basis_independent():
    # Rebuilding the family under a different dual-basis pair must not
    # change either detectability figure (lambda <= 3).
    for n, lam in [(2, 1), (4, 2), (6, 3)]:
        field = FieldSpec.default(lam)
        default_pair = compute_dual_basis(field)
        if lam == 1:
            alt_alpha = [field.one()]
        else:
            # A non-polynomial basis: {1, x+1, x^2, ...}.
            alt_alpha = field.polynomial_basis()
            alt_alpha[1] = alt_alpha[1] + field.one()
        alt_pair = compute_dual_basis(field, alt_alpha)
        fam_default = build_bcgst_family(n, lam, basis_pair=default_pair)
        fam_alt = build_bcgst_family(n, lam, basis_pair=alt_pair)
        assert (measure_strong_ptc_error(fam_default).value
                == measure_strong_ptc_error(fam_alt).value)
        assert (measure_pairwise_detectability(fam_default).value
                == measure_pairwise_detectability(fam_alt).value)


def test_every_built_code_has_commuting_generators():
    for n, lam in [(2, 1), (4, 2), (6, 2), (6, 3), (8, 4)]:
        fam = build_bcgst_family(n, lam)
        for code in fam.codes.values():
            for g, h in itertools.combinations(code.gens, 2):
                assert symplectic_product(g, h) == 0
            assert len(code.gens) == lam


@pytest.mark.parametrize("samples", [0, -3])
def test_sampling_mode_rejects_nonpositive_samples(samples):
    fam = build_bcgst_family(4, 2)
    with pytest.raises(ValueError, match="samples must be >= 1"):
        measure_strong_ptc_error(fam, samples=samples)


# Oracles: the sweeps as written before the byte-table syndrome kernel.

def oracle_pairwise(family):
    """One `syndrome` call per (key, shift, nonidentity stabilizer)."""
    groups = {k: [s for s in code.stabilizer_group() if not s.is_identity()]
              for k, code in family.codes.items()}
    bad_by_shift = {}
    for shift in family.field.elements():
        bad_by_shift[shift.coeffs] = {
            key.coeffs for key in family.keys()
            if any(not any(syndrome(family.codes[(key + shift).coeffs], sigma))
                   for sigma in groups[key.coeffs])}
    worst = max(Fraction(len(bad), family.num_keys)
                for s, bad in bad_by_shift.items() if s)
    return worst, bad_by_shift


def oracle_undetected_counts(family, ex, ez):
    """For each error, the number of keys that miss it: one parity pass
    per (key, generator)."""
    counts = np.zeros(ex.shape[0], dtype=np.int64)
    for key in family.keys():
        missed = np.ones(ex.shape[0], dtype=bool)
        for g in family.codes[key.coeffs].gens:
            bit = f2_parity_array(ex & np.uint64(g.z)) ^ f2_parity_array(ez & np.uint64(g.x))
            missed &= bit == 0
        counts += missed
    return counts


def oracle_strong(family, samples=None, seed=0):
    n = family.n
    total = (1 << (2 * n)) - 1
    if samples is None:
        codes = np.arange(1, total + 1, dtype=np.uint64)
    else:
        rng = np.random.default_rng(np.random.Philox(seed))
        codes = rng.integers(1, total + 1, size=samples, dtype=np.uint64)
    counts = oracle_undetected_counts(family, codes & np.uint64((1 << n) - 1),
                                      codes >> np.uint64(n))
    return Fraction(int(counts.max()), family.num_keys)


def _alt_pair(field):
    alpha = field.polynomial_basis()
    alpha[1] = alpha[1] + field.one()  # {1, x+1, x^2, ...}
    return compute_dual_basis(field, alpha)


ORACLE_FAMILIES = {
    "2-1": lambda: build_bcgst_family(2, 1),
    "4-2": lambda: build_bcgst_family(4, 2),
    "6-2": lambda: build_bcgst_family(6, 2),
    "6-3": lambda: build_bcgst_family(6, 3),
    "8-4": lambda: build_bcgst_family(8, 4),
    "12-4": lambda: build_bcgst_family(12, 4),
    "4-4-x4+x3+1": lambda: build_bcgst_family(4, 4, field=FieldSpec(4, 0b11001)),
    "6-3-alt-basis": lambda: build_bcgst_family(
        6, 3, basis_pair=_alt_pair(FieldSpec.default(3))),
    "4-2-high-pivot": lambda: build_bcgst_family(4, 2, encoder_pivot="high"),
}


@pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES))
def test_pairwise_detectability_matches_syndrome_oracle(name):
    fam = ORACLE_FAMILIES[name]()
    want, bad_by_shift = oracle_pairwise(fam)
    assert measure_pairwise_detectability(fam).value == want
    for shift in fam.field.elements():
        got = commuting_shift_keys(fam, shift)
        assert {k.coeffs for k in got} == bad_by_shift[shift.coeffs]


@pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES))
def test_strong_error_matches_parity_oracle(name):
    fam = ORACLE_FAMILIES[name]()
    if (1 << (2 * fam.n)) * fam.num_keys * fam.lam <= SWEEP_GUARD:
        assert measure_strong_ptc_error(fam).value == oracle_strong(fam)
    # Three sample counts: below one chunk, one chunk plus a ragged tail.
    rows = _ENTRY_BUDGET // fam.num_keys
    for samples, seed in [(37, 0), (rows + 7, 5), (500, 21)]:
        got = measure_strong_ptc_error(fam, samples=samples, seed=seed)
        assert got.value == oracle_strong(fam, samples, seed)
        assert not got.exhaustive


def test_n12_lambda6_pinned_values():
    fam = build_bcgst_family(12, 6)
    assert measure_pairwise_detectability(fam).value == Fraction(1, 32)
    eps = measure_strong_ptc_error(fam, samples=100000, seed=21)
    assert eps.value == Fraction(3, 64)
    assert eps.value == oracle_strong(fam, 100000, 21)


def test_key_syndromes_widen_past_eight_generators():
    # Nine generators per key do not fit a uint8 syndrome.
    code = StabilizerCode(10, [PauliOperator(10, 0, 1 << i, 0) for i in range(9)])
    fam = PtcFamily(10, 9, FieldSpec.default(9), {k: code for k in range(1 << 9)})
    rng = np.random.default_rng(0)
    ex = rng.integers(0, 1 << 10, size=20, dtype=np.uint64)
    ez = rng.integers(0, 1 << 10, size=20, dtype=np.uint64)
    syn = _key_syndromes(fam, ex, ez)
    assert syn.dtype == np.uint16 and syn.shape == (20, 1 << 9)
    for e, (x, z) in enumerate(zip(ex, ez)):
        err = PauliOperator(10, int(x), int(z), 0)
        want = sum(symplectic_product(g, err) << j for j, g in enumerate(code.gens))
        assert (syn[e] == want).all()


def test_wide_blocks_match_oracles():
    # 2n > 64 bits: the x and z halves are looked up separately.
    rng = np.random.default_rng(7)
    codes = {}
    for key in range(4):
        gens = []
        for qubit in rng.choice(40, size=2, replace=False):
            mask = 1 << int(qubit)
            gens.append(PauliOperator(40, mask, 0, 0) if rng.integers(2)
                        else PauliOperator(40, 0, mask, 0))
        codes[key] = StabilizerCode(40, gens)
    fam = PtcFamily(40, 2, FieldSpec.default(2), codes)
    want, bad_by_shift = oracle_pairwise(fam)
    assert measure_pairwise_detectability(fam).value == want
    for shift in fam.field.elements():
        assert {k.coeffs for k in commuting_shift_keys(fam, shift)} == bad_by_shift[shift.coeffs]
    fam32 = PtcFamily(32, 2, FieldSpec.default(2),
                      {k: StabilizerCode(32, [PauliOperator(32, 0, 1 << 31, 0),
                                              PauliOperator(32, 1 << k, 0, 0)])
                       for k in range(4)})
    got = measure_strong_ptc_error(fam32, samples=3000, seed=2)
    assert got.value == oracle_strong(fam32, 3000, 2)


def test_chunks_cover_each_error_once(monkeypatch):
    # A tiny entry budget gives 16-row chunks and a ragged last chunk.
    import pmdkit.ptc as ptc_module
    fam = build_bcgst_family(4, 2)
    seen = []

    def recording(family, ex, ez):
        seen.append((ez << np.uint64(4)) | ex)
        return _key_syndromes(family, ex, ez)

    monkeypatch.setattr(ptc_module, "_ENTRY_BUDGET", 64)
    monkeypatch.setattr(ptc_module, "_key_syndromes", recording)
    assert measure_strong_ptc_error(fam).value == oracle_strong(fam)
    assert np.array_equal(np.concatenate(seen), np.arange(1, 256, dtype=np.uint64))
    seen.clear()
    measure_strong_ptc_error(fam, samples=101, seed=9)
    rng = np.random.default_rng(np.random.Philox(9))
    want = rng.integers(1, 256, size=101, dtype=np.uint64)
    assert np.array_equal(np.concatenate(seen), want)
    assert [len(s) for s in seen] == [16] * 6 + [5]


def _doubling_shift_miss_matrix(family):
    """Oracle for `_shift_miss_matrix`: each key's stabilizer masks
    doubled column block by column block with np.concatenate, one block
    per generator, then every key's syndromes in one call."""
    from pmdkit.ptc import _generator_masks
    keys = family.num_keys
    gx, gz = _generator_masks(family)
    sx = np.zeros((keys, 1), dtype=np.uint64)
    sz = np.zeros((keys, 1), dtype=np.uint64)
    for j in range(gx.shape[1]):
        sx = np.concatenate([sx, sx ^ gx[:, j:j + 1]], axis=1)
        sz = np.concatenate([sz, sz ^ gz[:, j:j + 1]], axis=1)
    sx, sz = sx[:, 1:], sz[:, 1:]  # drop the identity
    syn = _key_syndromes(family, sx.ravel(), sz.ravel())
    return (syn == 0).reshape(keys, -1, keys).any(axis=1)


@pytest.mark.parametrize("n, lam", [(4, 2), (6, 3), (12, 6)])
def test_shift_miss_matrix_matches_the_doubling_loop(n, lam):
    from pmdkit.ptc import _shift_miss_matrix
    family = build_bcgst_family(n, lam)
    assert np.array_equal(_shift_miss_matrix(family), _doubling_shift_miss_matrix(family))
