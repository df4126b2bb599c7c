import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest

from pmdkit.densesim import f2_parity_array
from pmdkit.cli import run
from pmdkit.galois import FieldSpec, _poly_mulmod, compute_dual_basis
from pmdkit.limits import SWEEP_GUARD, SizeGuardError
from pmdkit.ptc import (_ENTRY_BUDGET, PtcFamily, _draw_errors, _key_syndromes, _miss_counts,
                        build_bcgst_family,
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
    return PtcFamily(code.n, FieldSpec.default(lam),
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
    (8, 2): (Fraction(1), Fraction(1, 2)),
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
    keys = range(fam.num_keys)
    assert sorted(fam.codes) == list(keys)
    for s in range(fam.field.order):
        assert {k ^ s for k in keys} == set(keys)


def test_pbeta_rejects_zero_shift():
    with pytest.raises(ValueError, match="nonzero"):
        pbeta_roots(FieldSpec.default(2), 0, 2)


@pytest.mark.parametrize("beta", [4, -1])
def test_pbeta_rejects_a_shift_outside_the_field(beta):
    with pytest.raises(ValueError, match="nonzero element of GF"):
        pbeta_roots(FieldSpec.default(2), beta, 2)


def test_pbeta_roots_by_direct_evaluation():
    # (lambda=2, r=2, beta=1): evaluate the two factors at all four
    # field points by repeated multiplication.
    field = FieldSpec.default(2)
    beta, r = 1, 2

    def pow_(a, e):
        out = 1
        for _ in range(e):
            out = field.mul(out, a)
        return out

    expected = set()
    for alpha in range(field.order):
        f1 = pow_(alpha ^ beta, r) ^ pow_(alpha, r)
        f2_ = field.mul(pow_(alpha, r + 1), pow_(alpha ^ beta, r + 1)) ^ 1
        if f1 == 0 or f2_ == 0:
            expected.add(alpha)
    assert pbeta_roots(field, beta, r) == expected


def test_pbeta_zero_point_evaluation():
    # alpha = 0 is a root iff one factor vanishes at 0: first factor is
    # beta^r, second is -1, so it happens exactly when beta^r = 0, i.e.
    # never for beta != 0.
    field = FieldSpec.default(3)
    for beta in range(1, 8):
        roots = pbeta_roots(field, beta, 2)
        assert (0 in roots) == (field.power(beta, 2) == 0)


@pytest.mark.parametrize("n,lam", [(2, 1), (4, 2), (6, 2), (6, 3), (3, 3)])
def test_pbeta_root_count_bound(n, lam):
    field = FieldSpec.default(lam)
    r = n // lam
    for beta in range(1, 1 << lam):
        assert len(pbeta_roots(field, beta, r)) <= 3 * r + 2


@pytest.mark.parametrize("n,lam", [(2, 1), (4, 2), (6, 2), (6, 3), (3, 3)])
def test_commuting_keys_contained_in_pbeta_roots(n, lam):
    # The checkable containment: keys whose stabilizers are undetected
    # under a beta-shift are roots of the shift polynomial.
    fam = build_bcgst_family(n, lam)
    for beta in range(1, 1 << lam):
        bad = commuting_shift_keys(fam, beta)
        roots = pbeta_roots(fam.field, beta, fam.r)
        assert bad <= roots


def test_measurements_basis_independent():
    # Rebuilding the family under a different dual-basis pair must not
    # change either detectability figure (lambda <= 3).
    for n, lam in [(2, 1), (4, 2), (6, 3)]:
        field = FieldSpec.default(lam)
        default_pair = compute_dual_basis(field)
        if lam == 1:
            alt_alpha = [1]
        else:
            # A non-polynomial basis: {1, x+1, x^2, ...}.
            alt_alpha = [1 << l for l in range(lam)]
            alt_alpha[1] ^= 1
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
    for shift in range(family.num_keys):
        bad_by_shift[shift] = {
            key for key in range(family.num_keys)
            if any(not any(syndrome(family.codes[key ^ shift], sigma))
                   for sigma in groups[key])}
    worst = max(Fraction(len(bad), family.num_keys)
                for s, bad in bad_by_shift.items() if s)
    return worst, bad_by_shift


def oracle_undetected_counts(family, ex, ez):
    """For each error, the number of keys that miss it: one parity pass
    per (key, generator)."""
    counts = np.zeros(ex.shape[0], dtype=np.int64)
    for key in range(family.num_keys):
        missed = np.ones(ex.shape[0], dtype=bool)
        for g in family.codes[key].gens:
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
    alpha = [1 << l for l in range(field.m)]
    alpha[1] ^= 1  # {1, x+1, x^2, ...}
    return compute_dual_basis(field, alpha)


ORACLE_FAMILIES = {
    "2-1": lambda: build_bcgst_family(2, 1),
    "4-2": lambda: build_bcgst_family(4, 2),
    "6-2": lambda: build_bcgst_family(6, 2),
    "6-3": lambda: build_bcgst_family(6, 3),
    "8-4": lambda: build_bcgst_family(8, 4),
    "12-4": lambda: build_bcgst_family(12, 4),
    "4-4-x4+x3+1": lambda: build_bcgst_family(4, 4, field=FieldSpec(0b11001)),
    "6-3-alt-basis": lambda: build_bcgst_family(
        6, 3, basis_pair=_alt_pair(FieldSpec.default(3))),
    "4-2-high-pivot": lambda: build_bcgst_family(4, 2, encoder_pivot="high"),
}


@pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES))
def test_pairwise_detectability_matches_syndrome_oracle(name):
    fam = ORACLE_FAMILIES[name]()
    want, bad_by_shift = oracle_pairwise(fam)
    assert measure_pairwise_detectability(fam).value == want
    for shift in range(fam.num_keys):
        assert commuting_shift_keys(fam, shift) == bad_by_shift[shift]


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
    for seed in (21, 22, 23):
        eps = measure_strong_ptc_error(fam, samples=100000, seed=seed)
        assert eps.value == Fraction(3, 64)
        assert eps.value == oracle_strong(fam, 100000, seed)


def test_key_syndromes_widen_past_eight_generators():
    # Nine generators per key do not fit a uint8 syndrome.
    code = StabilizerCode(10, [PauliOperator(10, 0, 1 << i, 0) for i in range(9)])
    fam = PtcFamily(10, FieldSpec.default(9), {k: code for k in range(1 << 9)})
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
    fam = PtcFamily(40, FieldSpec.default(2), codes)
    want, bad_by_shift = oracle_pairwise(fam)
    assert measure_pairwise_detectability(fam).value == want
    for shift in range(fam.num_keys):
        assert commuting_shift_keys(fam, shift) == bad_by_shift[shift]
    fam32 = PtcFamily(32, FieldSpec.default(2),
                      {k: StabilizerCode(32, [PauliOperator(32, 0, 1 << 31, 0),
                                              PauliOperator(32, 1 << k, 0, 0)])
                       for k in range(4)})
    got = measure_strong_ptc_error(fam32, samples=3000, seed=2)
    assert got.value == oracle_strong(fam32, 3000, 2)


def record_draws(monkeypatch):
    """Record the (ex, ez) of every chunk that reaches `_key_syndromes`."""
    import pmdkit.ptc as ptc_module
    seen = []

    def recording(family, ex, ez):
        seen.append((ex.copy(), ez.copy()))
        return _key_syndromes(family, ex, ez)

    monkeypatch.setattr(ptc_module, "_key_syndromes", recording)
    return seen


@pytest.mark.parametrize("n, lam", [(2, 1), (12, 6), (32, 2)])
def test_sampled_draws_up_to_n32_are_one_word_each(monkeypatch, n, lam):
    # The draws of keyed-sampled's references: one 2n-bit code per error.
    fam = build_bcgst_family(n, lam)
    seen = record_draws(monkeypatch)
    measure_strong_ptc_error(fam, samples=300, seed=8)
    rng = np.random.default_rng(np.random.Philox(8))
    codes = rng.integers(1, 1 << (2 * n), size=300, dtype=np.uint64)
    assert len(seen) == 1
    assert np.array_equal(seen[0][0], codes & np.uint64((1 << n) - 1))
    assert np.array_equal(seen[0][1], codes >> np.uint64(n))


def test_sampling_at_n40_draws_two_words_per_error(monkeypatch):
    fam = build_bcgst_family(40, 5)
    seen = record_draws(monkeypatch)
    got = measure_strong_ptc_error(fam, samples=3000, seed=4)
    rng = np.random.default_rng(np.random.Philox(4))
    ex, ez = rng.integers(0, 1 << 40, size=(2, 3000), dtype=np.uint64)
    assert np.all(ex | ez)  # no identity drawn, so nothing was drawn again
    assert len(seen) == 1 and np.array_equal(seen[0][0], ex) and np.array_equal(seen[0][1], ez)
    counts = oracle_undetected_counts(fam, ex, ez)
    assert got.value == Fraction(int(counts.max()), fam.num_keys) and not got.exhaustive


def test_two_word_draws_redraw_only_the_identity():
    class Scripted:
        """Hands out the listed draws in turn."""

        def __init__(self, *draws):
            self.draws = [np.array(d, dtype=np.uint64) for d in draws]

        def integers(self, low, high, size, dtype):
            assert (low, high, dtype) == (0, 1 << 33, np.uint64)
            draw = self.draws.pop(0)
            assert draw.shape == size
            return draw

    rng = Scripted([[0, 5, 0], [0, 0, 0]], [[0, 0], [0, 0]], [[7, 0], [0, 9]])
    ex, ez = _draw_errors(rng, 33, 3)
    assert ex.tolist() == [7, 5, 0] and ez.tolist() == [0, 0, 9] and not rng.draws


def test_sampling_refuses_n_above_64():
    fam = PtcFamily(65, FieldSpec.default(1), {})
    with pytest.raises(SizeGuardError, match="need n <= 64, got n = 65"):
        measure_strong_ptc_error(fam, samples=3)


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


# Generator (x, z) masks of each key, in key order: SHA-256 of their
# repr and of the encoders' gate lists, and the masks written out where
# they are short.  A swapped coordinate or basis vector moves these, where
# a per-lambda Fraction need not.
PINNED_FAMILIES = {
    "12-6": ("b75ea1fdada3298344a73a1114a1079906ba833b6cb4b6071923fd7336deb77b",
             "39985dca06f19c4a8fa32d8e41e769622f2528b555257a7d0433ba6bdac2cfe7"),
    "6-3-alt-basis": ("65fcf0c8d67c1f35fe14bfe2bf44d0ba3f40dfa74ebef7b4053a66d7c04ac585",
                      "7b640bdc9e6a79c32c19e216988f72d45557aba0fced66229f4f6a9c5e85af66"),
    "4-2-high-pivot": ("650d9acd8b592df28aca94cb131701096c489dc7329df35b68978409b25b424e",
                       "1d2c23f8e8599455a7a2f1135681f83c9fd91c48d94fb57275d16fb245497e64"),
    "4-4-x4+x3+1": ("cb1bf64f4718e8ff9ddb85875348985bf76357aeaaa2c433179708aa51990a18",
                    "0775c631b9b70605f6ad8b52d9d5cc6e3a7db7a4d23dcaab753c2fe5b7be0976"),
}
PINNED_MASKS = {
    "6-3-alt-basis": (((1, 0), (3, 0), (4, 0)), ((9, 27), (27, 36), (36, 18)),
                      ((25, 58), (35, 55), (20, 46)), ((17, 17), (59, 59), (52, 52)),
                      ((33, 14), (19, 29), (60, 33)), ((41, 53), (11, 41), (28, 11)),
                      ((57, 44), (51, 10), (44, 31)), ((49, 39), (43, 22), (12, 61))),
    "4-2-high-pivot": (((1, 0), (2, 0)), ((5, 10), (10, 15)), ((9, 9), (14, 14)),
                       ((13, 11), (6, 13))),
}


@pytest.mark.parametrize("name", sorted(PINNED_FAMILIES))
def test_generator_masks_and_encoders_are_pinned(name):
    fam = build_bcgst_family(12, 6) if name == "12-6" else ORACLE_FAMILIES[name]()
    masks = tuple(tuple((g.x, g.z) for g in fam.codes[k].gens) for k in range(fam.num_keys))
    gates = [fam.codes[k].encoder.gates for k in range(fam.num_keys)]
    digests = tuple(hashlib.sha256(repr(v).encode()).hexdigest() for v in (masks, gates))
    assert digests == PINNED_FAMILIES[name]
    if name in PINNED_MASKS:
        assert masks == PINNED_MASKS[name]


def test_pairwise_sweep_guard_refuses_before_spanning(monkeypatch):
    # keys^2 * (2^gens - 1) syndromes: 256^2 * 255 = 1.7e7 at lambda = 8
    # runs, 512^2 * 511 = 1.3e8 at lambda = 9 is above SWEEP_GUARD.
    import pmdkit.ptc as ptc_module
    fam = build_bcgst_family(9, 9)

    def no_span(*args):
        raise AssertionError("spanned before the guard")

    monkeypatch.setattr(ptc_module.f2, "span", no_span)
    with pytest.raises(SizeGuardError, match="pairwise"):
        measure_pairwise_detectability(fam)
    with pytest.raises(SizeGuardError, match="pairwise"):
        commuting_shift_keys(fam, 1)
    monkeypatch.undo()
    assert measure_pairwise_detectability(build_bcgst_family(8, 8)).exhaustive


# Oracles of the two fast paths: `_miss_counts` against numpy's per-row
# count of zero syndromes, and field products from log/antilog tables
# against the carry-less `_poly_mulmod` that builds them.

@pytest.mark.parametrize("keys", [2, 4, 8, 16, 64, 256])
def test_miss_counts_match_count_nonzero(keys):
    rng = np.random.default_rng(keys)
    dtype = np.min_scalar_type(keys - 1)  # as `_key_syndromes` stores lambda bits
    syn = rng.integers(0, 4, size=(300, keys)).astype(dtype)
    syn[0] = 0  # every key misses this error
    syn[1] = rng.integers(1, 4, size=keys)  # no key misses it
    got = _miss_counts(syn)
    assert got.tolist() == np.count_nonzero(syn == 0, axis=1).tolist()
    assert got[0] == keys and got[1] == 0


@pytest.mark.parametrize("n, lam", [(8, 2), (12, 6)])
def test_miss_counts_of_a_family_match_the_parity_oracle(n, lam):
    fam = build_bcgst_family(n, lam)
    codes = (np.arange(1, 1 << (2 * n), dtype=np.uint64) if n == 8 else
             np.random.default_rng(np.random.Philox(21)).integers(
                 1, 1 << (2 * n), size=4096, dtype=np.uint64))
    ex, ez = codes & np.uint64((1 << n) - 1), codes >> np.uint64(n)
    got = _miss_counts(_key_syndromes(fam, ex, ez))
    assert np.array_equal(got, oracle_undetected_counts(fam, ex, ez))


def _carry_less_arithmetic(monkeypatch):
    """FieldSpec.mul and power as carry-less products."""
    def power(self, a, exponent):
        out = 1
        for _ in range(exponent):
            out = _poly_mulmod(out, a, self.modulus)
        return out

    monkeypatch.setattr(FieldSpec, "mul", lambda self, a, b: _poly_mulmod(a, b, self.modulus))
    monkeypatch.setattr(FieldSpec, "power", power)


@pytest.mark.parametrize("n, lam", [(8, 2), (12, 6)])
def test_table_arithmetic_builds_the_carry_less_family(monkeypatch, n, lam):
    tables = build_bcgst_family(n, lam)
    _carry_less_arithmetic(monkeypatch)
    oracle = build_bcgst_family(n, lam)
    assert [tables.codes[k].gens for k in range(1 << lam)] == \
        [oracle.codes[k].gens for k in range(1 << lam)]


def test_ptc_check_at_a_non_primitive_modulus_reads_the_same(monkeypatch, capsys):
    # x has order 9 under x^6 + x^3 + 1, so the tables use a searched generator.
    argv = ["ptc", "check", "--n", "6", "--lambda", "6", "--modulus", "0x49"]
    tables = run(argv), capsys.readouterr()
    _carry_less_arithmetic(monkeypatch)
    oracle = run(argv), capsys.readouterr()
    assert tables == oracle
    assert tables[0] == 0 and "epsilon_measured: 1/64" in tables[1].out
