import itertools

import numpy as np
import pytest

from pmdkit import f2
from pmdkit.densesim import apply_on_qubits, apply_pauli, codespace_isometry
from pmdkit.qlde import (classical_erasure_list_decode, classical_list_profile,
                         erasure_list_decode, list_size_profile, quantum_list_size,
                         sample_random_css)
from pmdkit.symplectic import (PauliOperator, StabilizerCode, css_from_classical,
                               is_logically_equivalent, syndrome)


def pauli(label):
    return PauliOperator.from_label(label)


FOUR22 = StabilizerCode(4, [pauli("XXXX"), pauli("ZZZZ")])
REP3 = StabilizerCode(3, [pauli("ZZI"), pauli("IZZ")])
REP4 = StabilizerCode(4, [pauli("ZZII"), pauli("IZZI"), pauli("IIZZ")])
FIVE1 = StabilizerCode(5, [pauli("XZZXI"), pauli("IXZZX"),
                           pauli("XIXZZ"), pauli("ZXIXZ")])
HAMMING_H = [[1, 0, 1, 0, 1, 0, 1], [0, 1, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1]]


# ---------------------------------------------------------------------------
# Classical decoding
# ---------------------------------------------------------------------------

def test_classical_empty_erasure():
    out = classical_erasure_list_decode(HAMMING_H, (), [0, 0, 0])
    assert len(out) == 1 and not out[0].any()
    assert classical_erasure_list_decode(HAMMING_H, (), [1, 0, 0]) == []


def test_classical_erasures_match_brute_force():
    # [7,4] Hamming, erased = {0,1}, every syndrome: enumerate all 4
    # candidate supported vectors directly.
    erased = (0, 1)
    for s_bits in itertools.product((0, 1), repeat=3):
        got = classical_erasure_list_decode(HAMMING_H, erased, list(s_bits))
        want = []
        rows = [f2.bits_to_int(r) for r in HAMMING_H]
        for e0, e1 in itertools.product((0, 1), repeat=2):
            vec = e0 | (e1 << 1)
            if all(f2.dot(row, vec) == b for row, b in zip(rows, s_bits)):
                full = np.zeros(7, dtype=np.uint8)
                full[0], full[1] = e0, e1
                want.append(tuple(full))
        assert sorted(tuple(v) for v in got) == sorted(want)


def test_classical_solutions_have_right_support_and_syndrome():
    rows = [f2.bits_to_int(r) for r in HAMMING_H]
    for erased in [(2, 4, 6), (0, 3), (1, 2, 3)]:
        for s_bits in itertools.product((0, 1), repeat=3):
            for e in classical_erasure_list_decode(HAMMING_H, erased, list(s_bits)):
                assert all(e[q] == 0 for q in range(7) if q not in erased)
                vec = f2.bits_to_int(e.tolist())
                assert [f2.dot(r, vec) for r in rows] == list(s_bits)


def test_classical_profile_hamming():
    # Any 2 columns of the Hamming check matrix are independent, so the
    # profile at delta = 2/7 stays 1; some column triples are dependent.
    assert classical_list_profile(HAMMING_H, 2 / 7) == 1
    assert classical_list_profile(HAMMING_H, 3 / 7) == 2


def test_erased_sets_are_validated():
    for decode in (lambda erased: erasure_list_decode(REP3, erased, (0, 0)),
                   lambda erased: quantum_list_size(REP3, erased),
                   lambda erased: classical_erasure_list_decode(
                       [row[:3] for row in HAMMING_H], erased, [0, 0, 0])):
        with pytest.raises(ValueError, match="duplicate erased positions"):
            decode((0, 0))
        with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
            decode((3,))
        with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
            decode((-1, 1))


# ---------------------------------------------------------------------------
# Quantum decoding vs brute force
# ---------------------------------------------------------------------------

def brute_force_classes(code, erased, s_bits):
    """Logical classes of supported Paulis with the target syndrome."""
    target = tuple(s_bits)
    classes = []
    for combo in range(1 << (2 * len(erased))):
        x = z = 0
        for i, q in enumerate(erased):
            x |= ((combo >> i) & 1) << q
            z |= ((combo >> (i + len(erased))) & 1) << q
        p = PauliOperator(code.n, x, z, 0)
        if syndrome(code, p) != target:
            continue
        for cls in classes:
            if is_logically_equivalent(code, p, cls[0]):
                cls.append(p)
                break
        else:
            classes.append([p])
    return classes


def assert_matches_brute_force(code, erased, s_bits):
    got = erasure_list_decode(code, erased, s_bits)
    classes = brute_force_classes(code, erased, s_bits)
    assert len(got) == len(classes)
    # Each solver entry lands in exactly one brute-force class.
    for entry in got:
        hits = [cls for cls in classes
                if is_logically_equivalent(code, entry, cls[0])]
        assert len(hits) == 1
    for a, b in itertools.combinations(got, 2):
        assert not is_logically_equivalent(code, a, b)


def test_empty_erasure_zero_syndrome_gives_identity():
    out = erasure_list_decode(FOUR22, (), (0, 0))
    assert len(out) == 1
    assert out[0].is_identity()


def test_four22_erased_01_zero_syndrome():
    out = erasure_list_decode(FOUR22, (0, 1), (0, 0))
    labels = [p.label() for p in out]
    assert labels == ["IIII", "ZZII", "XXII", "YYII"]
    assert_matches_brute_force(FOUR22, (0, 1), (0, 0))


def test_postconditions_on_nonempty_lists():
    out = erasure_list_decode(FIVE1, (0, 2, 4), (1, 0, 1, 0))
    assert out, "expected a nonempty list"
    for p in out:
        assert set(p.support) <= {0, 2, 4}
        assert syndrome(FIVE1, p) == (1, 0, 1, 0)
    for a, b in itertools.combinations(out, 2):
        assert not is_logically_equivalent(FIVE1, a, b)


@pytest.mark.parametrize("code", [REP3, FOUR22, FIVE1], ids=["rep3", "[[4,2]]", "[[5,1]]"])
def test_solver_equals_brute_force_all_small_cases(code):
    for size in range(0, 3):
        for erased in itertools.combinations(range(code.n), size):
            for s_bits in itertools.product((0, 1), repeat=code.r):
                assert_matches_brute_force(code, erased, s_bits)


def test_inconsistent_syndrome_gives_empty_list():
    out = erasure_list_decode(FOUR22, (), (1, 0))
    assert out == ()


def test_syndrome_length_validated():
    with pytest.raises(ValueError, match="syndrome length"):
        erasure_list_decode(FOUR22, (0,), (1, 0, 0))


def test_syndrome_entries_must_be_0_or_1():
    # X0 X3 has syndrome 101 on the 4-qubit repetition code; True reads as 1.
    want = erasure_list_decode(REP4, (0, 3), (1, 0, 1))
    assert want and erasure_list_decode(REP4, (0, 3), [1, 0, True]) == want
    for bits in ([2], [0, 7], [1, -1]):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            erasure_list_decode(REP4, (0, 3), bits)


# ---------------------------------------------------------------------------
# List-size profiles
# ---------------------------------------------------------------------------

def test_profile_delta_zero_is_one():
    assert list_size_profile(FOUR22, 0.0) == 1


def test_four22_profile_quarter():
    # Single erasures on [[4,2,2]] leave no nonidentity supported
    # normalizer elements.
    assert list_size_profile(FOUR22, 0.25) == 1
    assert list_size_profile(FOUR22, 0.5) == 4


def test_quantum_list_size_matches_enumeration():
    for code in (REP3, FOUR22, FIVE1):
        for size in range(0, 3):
            for erased in itertools.combinations(range(code.n), size):
                classes = brute_force_classes(code, erased, (0,) * code.r)
                assert quantum_list_size(code, erased) == len(classes)


def test_css_lifting_squared_bound():
    # Quantum profile of CSS(C1, C2) <= (max classical profile)^2.
    steane = css_from_classical(HAMMING_H, HAMMING_H)
    for delta in (1 / 7, 2 / 7, 3 / 7):
        lc = max(classical_list_profile(HAMMING_H, delta),
                 classical_list_profile(HAMMING_H, delta))
        lq = list_size_profile(steane, delta)
        assert lq <= lc * lc


# ---------------------------------------------------------------------------
# Syndrome collapse (channel on erased set -> span of list corrections)
# ---------------------------------------------------------------------------

def random_two_qubit_unitary(rng):
    """Haar-ish random unitary on two qubits."""
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(m)
    return q


def test_syndrome_collapse_into_list_span():
    rng = np.random.default_rng(31)
    code = FOUR22
    erased = (0, 1)
    iso = codespace_isometry(code)
    psi = iso @ (lambda v: v / np.linalg.norm(v))(
        rng.standard_normal(4) + 1j * rng.standard_normal(4))
    vec = apply_on_qubits(random_two_qubit_unitary(rng), erased, psi)
    for s_bits in itertools.product((0, 1), repeat=code.r):
        post = vec.copy()
        for g, want in zip(code.gens, s_bits):
            post = 0.5 * (post + (1 - 2 * want) * apply_pauli(g, post))
        if np.linalg.norm(post) < 1e-12:
            continue
        post /= np.linalg.norm(post)
        corr = erasure_list_decode(code, erased, s_bits)
        assert corr, "nonzero outcome must admit corrections"
        basis = np.stack([apply_pauli(e, psi) for e in corr], axis=1)
        # Residual after projecting onto span{E_i |psi>} must vanish.
        coeffs, *_ = np.linalg.lstsq(basis, post, rcond=None)
        assert np.linalg.norm(basis @ coeffs - post) < 1e-9


# ---------------------------------------------------------------------------
# Random CSS sampling
# ---------------------------------------------------------------------------

def test_sample_random_css_reproducible():
    a = sample_random_css(4, 2, np.random.default_rng(np.random.Philox(7)))
    b = sample_random_css(4, 2, np.random.default_rng(np.random.Philox(7)))
    assert [g.label() for g in a.code.gens] == [g.label() for g in b.code.gens]
    assert (a.code.n, a.code.k) == (4, 2)


def test_sample_random_css_validation():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match="even"):
        sample_random_css(5, 2, rng)
    with pytest.raises(ValueError, match="0 <= k < n"):
        sample_random_css(4, 4, rng)


def test_sample_rate_failure_frequency_small():
    # First-draw dependence happens with the classical collision
    # probability; seeded frequency is pinned as a regression value.
    rng = np.random.default_rng(np.random.Philox(123))
    fails = sum(1 for _ in range(2000)
                if not sample_random_css(6, 2, rng).first_draw_full_rank)
    assert fails == 402  # seeded regression constant
    # Union-bound comparison: P[dependent] <= sum_{i<k1} 2^(i-n).
    k1 = 4
    bound = sum(2.0 ** (i - 6) for i in range(k1))
    assert fails / 2000 <= bound + 0.05


def test_sampled_codes_profile_reported():
    rng = np.random.default_rng(np.random.Philox(5))
    report = sample_random_css(6, 2, rng)
    profile = list_size_profile(report.code, 1 / 3)
    assert profile >= 1  # recorded, not asserted against asymptotics


@pytest.mark.parametrize("delta", [-0.5, 1.5, float("nan")])
def test_profiles_refuse_delta_outside_unit_interval(delta):
    with pytest.raises(ValueError, match=r"delta must be in \[0, 1\]"):
        list_size_profile(FOUR22, delta)
    with pytest.raises(ValueError, match=r"delta must be in \[0, 1\]"):
        classical_list_profile(HAMMING_H, delta)
    assert list_size_profile(FOUR22, 1.0) == 4 ** FOUR22.k  # every logical Pauli
    assert classical_list_profile(HAMMING_H, 0.0) == 1
