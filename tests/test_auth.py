import functools
import itertools
import json
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from pmdkit import auth, lp
from pmdkit.aqec import compose
from pmdkit.auth import (Auth1Protocol, Auth13Protocol, NmCode, TamperFunction,
                         auth1_block_codeword_density, auth1_block_reject_probability,
                         auth1_decode, auth1_encode, auth13_attack_harness,
                         auth13_encode, auth13_key_recovered_branch, channel_choi,
                         eta_classify, nm_decode_tables, nm_decompose, nm_search,
                         nm_upper_bounds, nm_verify,
                         normalizer_l1_mass, pad_to_pauli,
                         pauli_decompose_channel, pure_distance, simulator_lp,
                         stabilizer_mass,
                         substitution_attack, substitution_overlap_oracle,
                         systematic_parity_nm, tamper_from_masks, tamper_masks,
                         twirl_channel,
                         twirled_choi_by_pad_average, twise_pad,
                         twise_pad_seed_bits, REJECT)
from pmdkit.limits import SizeGuardError
from pmdkit.lp import exact_lp
from pmdkit.pmd import build_pmd, measure_pmd_epsilon
from pmdkit.ptc import build_bcgst_family
from pmdkit.symplectic import PauliOperator, StabilizerCode

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1, -1]).astype(complex)


def pauli(label):
    return PauliOperator.from_label(label)


def maxent_projector(k):
    """|Phi><Phi| on k message and k reference qubits."""
    phi = auth._maxent_vector(k)
    return np.outer(phi, phi.conj())


def depolarizing_kraus(p):
    return (np.sqrt(1 - 3 * p / 4) * I2, np.sqrt(p / 4) * X,
            np.sqrt(p / 4) * Y, np.sqrt(p / 4) * Z)


def random_cptp(rng, n_kraus=2):
    d = 2 * n_kraus
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(m)
    return [q.reshape(2, n_kraus, 2, n_kraus)[:, mu, :, 0] for mu in range(n_kraus)]


# ---------------------------------------------------------------------------
# Non-malleable codes
# ---------------------------------------------------------------------------

def test_tamper_function_apply():
    f = TamperFunction(("keep", "flip", "set0", "set1"))
    assert f.apply(0b0000) == 0b1010
    assert f.apply(0b1111) == 0b1001
    with pytest.raises(ValueError, match="unknown bit tag"):
        TamperFunction(("copy",))


def test_tamper_function_masks_apply_to_ints_and_arrays():
    f = TamperFunction(("keep", "flip", "set0", "set1"))
    assert (f.and_mask, f.xor_mask) == (0b0011, 0b1010)
    words = np.arange(16, dtype=np.uint8)
    assert f.apply(words).tolist() == [f.apply(int(w)) for w in words]


def test_nm_roundtrip_enforced():
    with pytest.raises(ValueError, match="decode"):
        NmCode([[0], [1]], [0, 0, 0, 0])


@pytest.mark.parametrize("codewords, decoded", [
    ([[0], [9]], [0, 1, -1, -1]),    # codeword outside [0, 2^n)
    ([[0], [-1]], [0, 1, -1, -1]),   # negative codeword
    ([[0], [1]], [0, 1, 2, -1]),     # decode value outside [0, 2^k)
    ([[0], [1]], [0, 1, -2, -1]),    # decode value below -1
])
def test_nm_tables_out_of_range_rejected(codewords, decoded):
    with pytest.raises(ValueError, match="must lie in"):
        NmCode(codewords, decoded)


def test_nm_table_shapes_checked():
    # The shapes (2^k, 2^rand_bits) and (2^n,) are the only source of k,
    # rand_bits and n.
    code = NmCode([[0, 2], [1, 3]], [0, 1, 0, 1])
    assert (code.k, code.rand_bits, code.n) == (1, 1, 2)
    with pytest.raises(ValueError, match="encode table dimension 3 is not a power of two"):
        NmCode([[0], [1], [2]], [0, 1, 2, -1])
    with pytest.raises(ValueError, match="decode table dimension 3 is not a power of two"):
        NmCode([[0], [1]], [0, 1, -1])
    with pytest.raises(ValueError, match="2-D encode table and a 1-D decode table"):
        NmCode([0, 1], [0, 1])


def nm_record(encode, decode, k=1, n=2, rand_bits=0):
    return {"k": k, "n": n, "rand_bits": rand_bits, "encode": encode, "decode": decode}


@pytest.mark.parametrize("record, match", [
    # A codeword and a decode word outside [0, 2^n): once read as eps_nm = 0.5.
    (nm_record({"0,0": 0, "1,0": 9}, {"0": 0, "9": 1}), "decode entries"),
    (nm_record({"0,0": 0, "1,0": 9}, {"0": 0, "1": 1}), "codewords must lie"),
    (nm_record({"0,0": 0, "1,0": 2 ** 70}, {"0": 0, "1": 1}), "codewords must lie"),
    (nm_record({"0,0": 0, "1,0": 1}, {"0": 0, "1": 2}), "decode entries"),
    (nm_record({"0,0": 0, "1,0": 1}, {"0": 0, "1": 1, "2": 2 ** 70}), "decode entries"),
    (nm_record({"0,0": 0, "1,0": 1}, {"0": 0, "-1": 1}), "decode entries"),
    (nm_record({"0,0": 0}, {"0": 0}), "one entry per"),
    (nm_record({"0,0": 0, "1,0": 1, "2,0": 2}, {"0": 0, "1": 1}), "one entry per"),
    (nm_record({"0,0": 0, "1,1": 1}, {"0": 0, "1": 1}), "one entry per"),
])
def test_nm_record_out_of_range_rejected(record, match):
    with pytest.raises(ValueError, match=match):
        NmCode.from_record(record)


def test_nm_record_missing_decode_words_reject():
    code = NmCode.from_record(nm_record({"0,0": 0, "1,0": 3}, {"0": 0, "3": 1}))
    assert [code.decode(w) for w in range(4)] == [0, REJECT, REJECT, 1]
    assert code.to_record()["decode"] == {"0": 0, "1": -1, "2": -1, "3": 1}


def test_nm_table_guard_refuses_before_allocating():
    # 2^40 decode entries would exhaust memory if anything were built.
    with pytest.raises(SizeGuardError, match="entries"):
        NmCode.from_record(nm_record({}, {}, n=40))
    with pytest.raises(SizeGuardError, match="entries"):
        systematic_parity_nm(10 ** 9)
    rng = np.random.default_rng(np.random.Philox(3))
    with pytest.raises(SizeGuardError, match="entries"):
        nm_search(2, 40, 1, rng)
    # Refused before any draw: the stream is where a fresh one starts.
    assert rng.integers(1 << 62) == np.random.default_rng(np.random.Philox(3)).integers(1 << 62)
    # The guard sits on the entry count: 2^(k + rand_bits) + 2^n.
    assert auth.NM_MAX_ENTRIES == 1 << 23
    auth._check_table_size(20, 22, 1)  # systematic_parity_nm(20): 6.3 million
    auth._check_table_size(22, 22, 0)  # exactly 2^23
    with pytest.raises(SizeGuardError):
        auth._check_table_size(22, 22, 1)


def test_nm_tables_refuse_negative_sizes():
    # nm_search(-1, 3, ...) once failed inside rng.permutation with
    # "negative shift count"; every table build now names the sizes.
    message = "k, n and rand_bits must be non-negative"
    with pytest.raises(ValueError, match=message + ", got k=-1, n=3, rand_bits=1"):
        nm_search(-1, 3, 1, np.random.default_rng(np.random.Philox(3)))
    with pytest.raises(ValueError, match=message):
        systematic_parity_nm(-1)
    with pytest.raises(ValueError, match=message):
        NmCode.from_record(nm_record({}, {}, n=-2))


def test_rate1_key_code_admitted_in_compact_tables():
    code = systematic_parity_nm(16)
    assert (code.k, code.n, code.rand_bits) == (16, 18, 1)
    assert code.codewords.dtype == np.uint32 and code.decoded.dtype == np.int32
    assert systematic_parity_nm(2).decoded.dtype == np.int8


def tamper_by_tags(tags, word):
    """A tampering applied bit by bit from its tags."""
    out = 0
    for i, tag in enumerate(tags):
        bit = (word >> i) & 1
        if tag == "flip":
            bit ^= 1
        elif tag == "set0":
            bit = 0
        elif tag == "set1":
            bit = 1
        out |= bit << i
    return out


def tampered_distributions_by_calls(code, f):
    """Oracle: the decode distributions tabulated one codeword at a time,
    one decode(apply(encode(s, r))) call each, outcomes in order of first
    occurrence over r."""
    out = []
    weight = Fraction(1, 1 << code.rand_bits)
    for s in range(1 << code.k):
        dist = {}
        for r in range(1 << code.rand_bits):
            result = code.decode(tamper_by_tags(f.tags, code.encode(s, r)))
            dist[result] = dist.get(result, Fraction(0)) + weight
        out.append(dist)
    return out


def every_tampering(n):
    """All 4^n deterministic bit-wise tamperings, in tag-product order."""
    return map(TamperFunction, itertools.product(auth.BIT_TAGS, repeat=n))


def random_decode_table_code(rng, k, n, rand_bits):
    """An injective code whose other words decode to reject or any message."""
    words = rng.permutation(1 << n)[:1 << (k + rand_bits)].reshape(1 << k, -1)
    decoded = rng.integers(-1, 1 << k, size=1 << n)
    decoded[words] = np.arange(1 << k)[:, None]
    return NmCode(words, decoded)


def test_tampered_distributions_match_per_codeword_loop():
    rng = np.random.default_rng(31)
    codes = [systematic_parity_nm(k) for k in (1, 2, 3, 8)]
    codes += [random_decode_table_code(rng, k, n, rand_bits)
              for k, n, rand_bits in [(1, 3, 1), (2, 5, 2), (3, 6, 2), (2, 6, 3)]
              for _ in range(3)]
    for code in codes:
        tampers = [TamperFunction(tuple(rng.choice(auth.BIT_TAGS, size=code.n).tolist()))
                   for _ in range(25)]
        if code.n <= 3:
            tampers = list(every_tampering(code.n))
        for f in tampers:
            got = code.tampered_distributions(f)
            want = tampered_distributions_by_calls(code, f)
            # Same keys in the same order, floats equal to the exact Fractions.
            assert [list(d.items()) for d in got] == [list(d.items()) for d in want]
            assert all(type(p) is float for d in got for p in d.values())


def simulator_lp_rows_by_loop(code, f):
    """Oracle: the simulator LP's inequality rows (A_ub, b_ub), built one
    row at a time from the decode distributions."""
    dists = code.tampered_distributions(f)
    n_msg = 1 << code.k
    atoms = n_msg + 2
    rej_atom, same_atom, t_col = n_msg, n_msg + 1, n_msg + 2
    slack_index, supports = {}, []
    n_vars = atoms + 1
    for s, dist in enumerate(dists):
        support = sorted(o for o in dist if o is not REJECT)
        if s not in support:
            support.insert(0, s)
        support.append(REJECT)
        supports.append(support)
        for o in support:
            slack_index[(s, repr(o))] = n_vars
            n_vars += 1
    a_ub, b_ub = [], []
    for s, dist in enumerate(dists):
        tv_row = np.zeros(n_vars)
        for o in supports[s]:
            d_val = float(dist.get(o, Fraction(0)))
            p_row = np.zeros(n_vars)
            if o is REJECT:
                p_row[rej_atom] = 1.0
            else:
                p_row[o] = 1.0
                if o == s:
                    p_row[same_atom] = 1.0
            e_col = slack_index[(s, repr(o))]
            up = p_row.copy()
            up[e_col] = -1.0
            a_ub.append(up)
            b_ub.append(d_val)
            down = -p_row
            down[e_col] = -1.0
            a_ub.append(down)
            b_ub.append(-d_val)
            tv_row[e_col] += 0.5
        for v in range(n_msg):
            if v not in supports[s]:
                tv_row[v] += 0.5
        tv_row[t_col] = -1.0
        a_ub.append(tv_row)
        b_ub.append(0.0)
    return np.array(a_ub), np.array(b_ub)


def test_simulator_lp_rows_match_row_by_row_build():
    rng = np.random.default_rng(33)
    codes = [systematic_parity_nm(2), random_decode_table_code(rng, 2, 5, 1),
             random_decode_table_code(rng, 3, 6, 2)]
    for code in codes:
        for _ in range(6):
            f = TamperFunction(tuple(rng.choice(auth.BIT_TAGS, size=code.n).tolist()))
            _, got_a_ub, got_b_ub, _, _ = simulator_lp(code, f)
            a_ub, b_ub = simulator_lp_rows_by_loop(code, f)
            assert np.array_equal(got_a_ub, a_ub)
            assert np.array_equal(got_b_ub, b_ub)


def test_tampered_distributions_check_arity():
    code = systematic_parity_nm(2)
    with pytest.raises(ValueError, match="arity"):
        code.tampered_distributions(TamperFunction(("keep",) * (code.n - 1)))


def test_parity_code_roundtrip_and_record():
    code = systematic_parity_nm(2)
    back = NmCode.from_record(json.loads(code.dumps()))
    for s in range(4):
        for r in range(2):
            assert back.encode(s, r) == code.encode(s, r)
    for w in range(1 << code.n):
        assert back.decode(w) == code.decode(w)


def test_decompose_keep_all_is_zero():
    code = systematic_parity_nm(2)
    dec = nm_decompose(code, TamperFunction(("keep",) * code.n))
    assert dec.epsilon <= 1e-9
    assert dec.simulator.get("same", 0) > 0.99


def test_decompose_constant_substitution_is_zero():
    code = systematic_parity_nm(2)
    target = code.encode(3, 1)
    dec = nm_decompose(code, TamperFunction.set_to(target, code.n))
    assert dec.epsilon <= 1e-9
    assert dec.simulator.get(3, 0) > 0.99


def test_decompose_detects_message_dependence():
    # Flip message bit 0 and the checksum bit: decoding yields s ^ 1,
    # which no message-independent simulator can reproduce.
    code = systematic_parity_nm(2)
    tags = ["keep"] * code.n
    tags[0] = "flip"
    tags[code.k] = "flip"
    dec = nm_decompose(code, TamperFunction(tuple(tags)))
    assert dec.epsilon > 0.4


def test_nm_verify_parity_k1():
    code = systematic_parity_nm(1)
    # Exhaustive over 4^3 tamperings; the worst is a correlated double
    # flip that remaps the message deterministically.
    assert abs(nm_verify(code) - 0.5) < 1e-8


def test_nm_verify_guard():
    with pytest.raises(SizeGuardError):
        nm_verify(systematic_parity_nm(8))
    many_rand = NmCode(np.repeat([[0], [1]], 256, axis=1), [0, 1] + [-1] * 14)
    with pytest.raises(SizeGuardError, match="rand_bits"):
        nm_verify(many_rand)


def test_nm_search_returns_valid_code_and_improves():
    rng1 = np.random.default_rng(np.random.Philox(11))
    code1, eps1 = nm_search(1, 4, 1, rng1)
    for s in range(2):
        for r in range(2):
            assert code1.decode(code1.encode(s, r)) == s
    rng3 = np.random.default_rng(np.random.Philox(11))
    code3, eps3 = nm_search(1, 4, 3, rng3)
    assert eps3 <= eps1 + 1e-12  # best-so-far is monotone on a fixed stream
    rng_again = np.random.default_rng(np.random.Philox(11))
    _, eps_again = nm_search(1, 4, 3, rng_again)
    assert eps_again == eps3


def test_nm_searched_code_epsilon_regression():
    rng = np.random.default_rng(np.random.Philox(21))
    _, eps = nm_search(2, 6, 2, rng)
    assert abs(eps - PINNED_SEARCH_EPS) < 1e-9


PINNED_SEARCH_EPS = 2 / 3  # exhaustive LP sweep of the seeded search winner


def brute_force_nm_epsilon(code):
    """Oracle: one simulator LP per tampering, nothing shared."""
    return max(nm_decompose(code, f).epsilon for f in every_tampering(code.n))


def decode_table(code, f):
    return tuple(tuple(sorted((-1 if o is REJECT else o, p) for o, p in d.items()))
                 for d in code.tampered_distributions(f))


def random_table_codes(k, n, trials, seed):
    """The codes nm_search(k, n, trials) draws from a seeded stream."""
    rng = np.random.default_rng(np.random.Philox(seed))
    return [nm_search(k, n, 1, rng)[0] for _ in range(trials)]


@pytest.fixture(scope="module")
def seed21_trials():
    """nm_search(2, 5, 2) at seed 21: its two trial codes with oracle epsilons."""
    codes = random_table_codes(2, 5, 2, 21)
    return codes, [brute_force_nm_epsilon(c) for c in codes]


@pytest.mark.parametrize("make", [
    lambda: systematic_parity_nm(1),
    lambda: systematic_parity_nm(2),
    lambda: random_table_codes(1, 4, 1, 5)[0],
], ids=["parity_k1", "parity_k2", "random_k1_n4"])
def test_nm_verify_equals_unshared_sweep(make):
    code = make()
    assert nm_verify(code) == brute_force_nm_epsilon(code)


def test_nm_verify_equals_unshared_sweep_random_k2_n5(seed21_trials):
    codes, oracle = seed21_trials
    assert [nm_verify(c) for c in codes] == oracle


def test_nm_search_matches_brute_force_best_of_trials(seed21_trials):
    codes, oracle = seed21_trials
    best = min(range(len(codes)), key=lambda i: (oracle[i], i))
    code, eps = nm_search(2, 5, 2, np.random.default_rng(np.random.Philox(21)))
    assert eps == oracle[best]
    got, want = code.to_record(), codes[best].to_record()
    assert (got["encode"], got["decode"]) == (want["encode"], want["decode"])
    assert abs(eps - PINNED_SEARCH_EPS) < 1e-9


def count_solved_tables(monkeypatch):
    """Record the decode table of every LP that nm_decompose solves."""
    solved = []
    real = auth.nm_decompose

    def counting(code, f):
        solved.append(decode_table(code, f))
        return real(code, f)

    monkeypatch.setattr(auth, "nm_decompose", counting)
    return solved


def test_nm_search_solves_one_lp_per_decode_table(monkeypatch, seed21_trials):
    # The sweep solves an LP only for tables whose two upper bounds both
    # exceed the running maximum: 2 of the 539 distinct tables at seed 21
    # (15 with the three-family bound alone).
    codes, _ = seed21_trials
    tables = {decode_table(c, f) for c in codes for f in every_tampering(c.n)}
    solved = count_solved_tables(monkeypatch)
    nm_search(2, 5, 2, np.random.default_rng(np.random.Philox(21)))
    assert len(solved) == len(set(solved))
    assert set(solved) <= tables and len(tables) == 539
    assert len(solved) == 2


def test_nm_verify_parity_k3_solves_33_lps(monkeypatch):
    # 33 of its 305 distinct tables (71 with the three-family bound alone).
    solved = count_solved_tables(monkeypatch)
    assert nm_verify(systematic_parity_nm(3)) == Fraction(7, 8)
    assert len(solved) == len(set(solved)) == 33


def test_tamper_masks_match_tag_application():
    for n in range(1, 5):
        a, b = tamper_masks(n)
        words = np.arange(1 << n)
        masked = (words[None, :] & a[:, None]) ^ b[:, None]
        seen = set()
        for f in every_tampering(n):
            ai = sum(1 << i for i, tag in enumerate(f.tags) if tag in ("keep", "flip"))
            bi = sum(1 << i for i, tag in enumerate(f.tags) if tag in ("flip", "set1"))
            row = ai * (1 << n) + bi
            assert (a[row], b[row]) == (ai, bi)
            assert masked[row].tolist() == [f.apply(int(w)) for w in words]
            assert tamper_from_masks(ai, bi, n) == f
            assert (f.and_mask, f.xor_mask) == (ai, bi)
            seen.add(row)
        assert seen == set(range(4 ** n))


def test_nm_decode_tables_are_the_distinct_tampered_tables():
    code = systematic_parity_nm(2)
    tables, masks = nm_decode_tables(code)
    want = {decode_table(code, f) for f in every_tampering(code.n)}
    got = [decode_table(code, tamper_from_masks(int(a), int(b), code.n)) for a, b in masks]
    assert len(set(got)) == len(got) == len(want) and set(got) == want
    for table, rep in zip(tables.tolist(), got):
        assert tuple(tuple((o, Fraction(row.count(o), 2)) for o in sorted(set(row)))
                     for row in table) == rep


@pytest.mark.parametrize("budget", [1, 3 * 32 * 8, 1000])
def test_nm_decode_tables_chunked_equal_one_shot(monkeypatch, budget, seed21_trials):
    rng = np.random.default_rng(32)
    codes = [systematic_parity_nm(k) for k in (1, 2, 3)] + list(seed21_trials[0])
    codes += [random_decode_table_code(rng, 2, 5, 1), random_decode_table_code(rng, 1, 4, 2)]
    one_shot = [nm_decode_tables(code) for code in codes]
    assert all(len(code.codewords.reshape(-1)) << (2 * code.n) <= auth._ENTRY_BUDGET
               for code in codes)
    monkeypatch.setattr(auth, "_ENTRY_BUDGET", budget)
    for code, (tables, masks) in zip(codes, one_shot):
        chunked_tables, chunked_masks = nm_decode_tables(code)
        assert np.array_equal(chunked_tables, tables)
        assert np.array_equal(chunked_masks, masks)


def one_shot_upper_bounds(tables, k):
    """`nm_upper_bounds` over all tables at once, as it was before chunking."""
    _, n_msg, n_rand = tables.shape
    counts = np.stack([np.count_nonzero(tables == o, axis=2)
                       for o in range(-1, 1 << k)], axis=2).astype(np.int32)
    msg = np.arange(n_msg)
    same = 4 * n_msg * (n_rand - counts[:, msg, msg + 1]).max(axis=1)
    mean = 2 * np.abs(n_msg * counts - counts.sum(axis=1, keepdims=True)).sum(axis=2).max(axis=1)
    best = np.minimum(same, mean)
    for t in range(n_msg):
        for u in range(t, n_msg):
            mid = np.abs(2 * counts - counts[:, t:t + 1] - counts[:, u:u + 1])
            best = np.minimum(best, n_msg * mid.sum(axis=2).max(axis=1))
    return best / (4 * n_msg * n_rand)


@pytest.mark.parametrize("budget", [1, 8 * 10, 8 * 72])
def test_nm_upper_bounds_chunked_equal_one_shot(monkeypatch, budget, seed21_trials):
    # Parity k = 2 has 73 tables of 4 x 2 outcomes: each budget splits them.
    rng = np.random.default_rng(33)
    codes = [systematic_parity_nm(k) for k in (1, 2, 3)] + list(seed21_trials[0])
    codes.append(random_decode_table_code(rng, 2, 5, 1))
    tables = [nm_decode_tables(code)[0] for code in codes]
    assert len(tables[1]) == 73
    monkeypatch.setattr(auth, "_ENTRY_BUDGET", budget)
    for code, table in zip(codes, tables):
        assert np.array_equal(nm_upper_bounds(table, code.k),
                              one_shot_upper_bounds(table, code.k))


BOUND_CODES = {
    "parity_k1": lambda: systematic_parity_nm(1),
    "parity_k2": lambda: systematic_parity_nm(2),
    "parity_k3": lambda: systematic_parity_nm(3),
    "seed21_trial0": lambda: random_table_codes(2, 5, 2, 21)[0],
    "seed21_trial1": lambda: random_table_codes(2, 5, 2, 21)[1],
    "random_k3_n4": lambda: random_table_codes(3, 4, 1, 21)[0],
}


@functools.cache
def table_optima(which):
    """A BOUND_CODES code, its distinct decode tables and each one's exact
    LP epsilon."""
    code = BOUND_CODES[which]()
    tables, masks = nm_decode_tables(code)
    eps = [nm_decompose(code, tamper_from_masks(int(a), int(b), code.n)).epsilon
           for a, b in masks]
    return code, tables, eps


@pytest.mark.parametrize("which", ["parity_k1", "parity_k2", "parity_k3",
                                   "seed21_trial0", "seed21_trial1"])
def test_nm_upper_bounds_dominate_lp_epsilon(which):
    code, tables, eps = table_optima(which)
    bounds = nm_upper_bounds(tables, code.k)
    # The bounds are exact dyadics and the LP optima exact Fractions.
    assert all(e <= bound for e, bound in zip(eps, bounds.tolist()))
    assert np.all(bounds * (1 << (code.k + code.rand_bits + 2)) % 1 == 0)


def uniform_bound_oracle(table, k):
    """The least worst-message distance over simulators uniform over 1 to
    3 atoms, one candidate and one message at a time, in units of
    1 / (6 * 2^rand_bits) of probability."""
    outcomes = range(-1, 1 << k)  # reject is -1
    rows = [Counter(row) for row in table.tolist()]
    n_rand = table.shape[1]
    best = None
    for size in (1, 2, 3):
        for subset in itertools.combinations([*outcomes, "same"], size):
            worst = 0
            for s, row in enumerate(rows):
                got = Counter(s if a == "same" else a for a in subset)
                worst = max(worst, sum(abs(6 * row[o] - 6 // size * got[o] * n_rand)
                                       for o in outcomes))
            best = worst if best is None else min(best, worst)
    return Fraction(best, 12 * n_rand)


@pytest.mark.parametrize("which", BOUND_CODES)
def test_uniform_simulator_bound_dominates_lp_epsilon(which):
    code, tables, eps = table_optima(which)
    uniform = [auth._uniform_bound(table, code.k) for table in tables]
    assert all(type(u) is Fraction and e <= u for e, u in zip(eps, uniform))
    if code.k <= 2:
        assert uniform == [uniform_bound_oracle(table, code.k) for table in tables]
    # The three-family candidates "same" and D_t are uniform over at most
    # two atoms at rand_bits = 1, so the new bound is at most theirs; the
    # mixtures of several D_t are not, and may beat it.
    n_msg, n_rand = tables.shape[1:]
    counts = (tables[..., None] == np.arange(-1, n_msg)).sum(axis=2)
    msg = np.arange(n_msg)
    same = (n_rand - counts[:, msg, msg + 1]).max(axis=1)
    own = [np.abs(counts - counts[:, t:t + 1]).sum(axis=2).max(axis=1) for t in msg]
    assert code.rand_bits == 1
    for u, s, o in zip(uniform, same.tolist(), np.min(own, axis=0).tolist()):
        assert u <= Fraction(s, n_rand) and u <= Fraction(o, 2 * n_rand)


def test_nm_search_stops_a_losing_trial_early(monkeypatch):
    # Once the running maximum reaches stop_at the trial cannot win, so the
    # sweep stops; here the first LP already reaches it.
    calls = []
    real = auth.nm_decompose
    monkeypatch.setattr(auth, "nm_decompose",
                        lambda code, f: calls.append(f) or real(code, f))
    code = systematic_parity_nm(2)
    assert auth._nm_sweep(code, {}, stop_at=1e-6) >= 1e-6
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# The exact simplex behind nm_decompose
# ---------------------------------------------------------------------------

def three_family_sweep(code, solved, stop_at, seen):
    """`_nm_sweep` as it was with `nm_upper_bounds` as its only bound:
    tables in descending bound order until a bound falls more than 1e-9
    below the running maximum, one LP per table not in `solved`.  Appends
    (code, tampering) of each LP to `seen`."""
    tables, masks = nm_decode_tables(code)
    bounds = nm_upper_bounds(tables, code.k)
    worst = Fraction(0)
    for t in np.argsort(-bounds, kind="stable"):
        if bounds[t] < worst - 1e-9 or worst >= stop_at:
            break
        key = (code.k, code.rand_bits, tables[t].tobytes())
        if key not in solved:
            f = tamper_from_masks(int(masks[t, 0]), int(masks[t, 1]), code.n)
            seen.append((code, f))
            solved[key] = nm_decompose(code, f).epsilon
        worst = max(worst, solved[key])
    return worst


@pytest.fixture(scope="module")
def swept_lps():
    """(code, tampering) of every LP that the three-family sweep solved in
    nm_verify on parity k = 1..3 and in nm_search(2, 5, 2) at seeds 21..36:
    a fixed corpus of 341 LPs for the LP oracles, which the pruned sweep
    no longer solves."""
    seen = []
    for k in (1, 2, 3):
        three_family_sweep(systematic_parity_nm(k), {}, np.inf, seen)
    for seed in range(21, 37):
        solved, best = {}, np.inf
        for code in random_table_codes(2, 5, 2, seed):
            best = min(best, three_family_sweep(code, solved, best, seen))
    return seen


def test_exact_lp_matches_highs(swept_lps):
    linprog = pytest.importorskip("scipy.optimize").linprog
    assert len(swept_lps) == 341
    optima = set()
    for code, f in swept_lps:
        c, a_ub, b_ub, a_eq, b_eq = simulator_lp(code, f)
        value, x = exact_lp(c, a_ub, b_ub, a_eq, b_eq)
        highs = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                        bounds=[(0, None)] * len(c), method="highs")
        assert highs.success and abs(value - highs.fun) <= 1e-12
        assert type(value) is Fraction
        assert value == sum(Fraction(ci) * xi for ci, xi in zip(c, x))
        optima.add(value)
    assert optima == {Fraction(1, 2), Fraction(3, 5), Fraction(2, 3), Fraction(3, 4),
                      Fraction(4, 5), Fraction(7, 8)}


def fraction_simplex(c, a_ub, b_ub, a_eq, b_eq):
    """Oracle: min c.x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0, by
    a textbook two-phase tableau with Bland's rule on lists of Fractions.
    Every row gets an artificial; artificials never enter."""
    rows = [list(map(Fraction, row)) for row in np.vstack([a_ub, a_eq])]
    rhs = list(map(Fraction, np.concatenate([b_ub, b_eq])))
    m, n, m_ub = len(rows), len(c), len(b_ub)
    real_cols = n + m_ub
    tab = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        full = row + [Fraction(i == j) for j in range(m_ub)] + [Fraction(0)] * m
        if b < 0:
            full, b = [-v for v in full], -b
        full[real_cols + i] = Fraction(1)
        tab.append(full + [b])
    basis = [real_cols + i for i in range(m)]

    def pivot(r, j):
        tab[r] = [v / tab[r][j] for v in tab[r]]
        for i in range(m):
            if i != r and tab[i][j]:
                tab[i] = [v - tab[i][j] * w for v, w in zip(tab[i], tab[r])]
        basis[r] = j

    def optimise(cost):
        while True:
            reduced = [cost[j] - sum(cost[basis[i]] * tab[i][j] for i in range(m))
                       for j in range(real_cols)]
            entering = [j for j, r in enumerate(reduced) if r < 0]
            if not entering:
                return sum(cost[basis[i]] * tab[i][-1] for i in range(m))
            j = entering[0]
            _, _, r = min((tab[i][-1] / tab[i][j], basis[i], i) for i in range(m)
                          if tab[i][j] > 0)
            pivot(r, j)

    assert optimise([0] * real_cols + [1] * m) == 0
    for r in range(m):
        if basis[r] >= real_cols:
            cols = [j for j in range(real_cols) if tab[r][j]]
            if cols:
                pivot(r, cols[0])
    return optimise(list(map(Fraction, c)) + [0] * (m_ub + m))


def distinct_table_lps(code):
    """One tampering per distinct decode table of the code."""
    _, masks = nm_decode_tables(code)
    return [tamper_from_masks(int(a), int(b), code.n) for a, b in masks]


def record_results(monkeypatch, owner, name, results):
    """Wrap owner.name so that each call's result is appended to `results`."""
    real = getattr(owner, name)

    def recording(*args):
        results.append(real(*args))
        return results[-1]
    monkeypatch.setattr(owner, name, recording)


K1_CODES = {"parity_k1": lambda: systematic_parity_nm(1),
            "random_k1_n4": lambda: random_table_codes(1, 4, 1, 5)[0]}


@pytest.mark.parametrize("make", K1_CODES.values(), ids=K1_CODES.keys())
def test_exact_lp_equals_fraction_tableau_oracle(make):
    code = make()
    tampers = distinct_table_lps(code)
    assert len(tampers) > 10
    for f in tampers:
        assert nm_decompose(code, f).epsilon == fraction_simplex(*simulator_lp(code, f))


class SparsePivotSimplex(lp._Simplex):
    """Oracle: the simplex whose pivot updates only the rows with a
    nonzero in the pivot column, and whose entering column is the first
    index `flatnonzero` returns."""

    def pivot(self, r, j):
        tab = self.tab
        tab[r] = tab[r] / tab[r, j]
        rows = np.flatnonzero(tab[:, j])
        rows = rows[rows != r]
        tab[rows] -= np.outer(tab[rows, j], tab[r])
        self.basis[r] = j

    def bland(self, limit=None):
        tab, tol = self.tab, self.tol
        for _ in itertools.count() if limit is None else range(limit):
            entering = np.flatnonzero(tab[-1, :self.n_std] < -tol)
            if not entering.size:
                return
            j = entering[0]
            rows = np.flatnonzero(tab[:-1, j] > tol)
            if not rows.size:
                raise lp._SimplexError("the LP is unbounded")
            ratios = np.maximum(tab[rows, -1], 0) / tab[rows, j]
            ties = rows[ratios <= ratios.min() + tol]
            self.pivot(ties[np.argmin(self.basis[ties])], j)
        raise lp._SimplexError(f"no optimal basis after {limit} pivots")


@pytest.fixture(scope="module")
def oracle_lps(swept_lps):
    """The float data of every swept LP and of every distinct decode
    table of the K1 codes."""
    cases = list(swept_lps)
    for make in K1_CODES.values():
        code = make()
        cases += [(code, f) for f in distinct_table_lps(code)]
    return [tuple(np.asarray(v, dtype=float) for v in simulator_lp(code, f))
            for code, f in cases]


def test_float_simplex_matches_sparse_pivot_oracle(oracle_lps):
    # A row with a zero in the pivot column subtracts +-0.0 in the whole-
    # tableau update, so only the signs of zeros may differ (== ignores them).
    for data in oracle_lps:
        new, old = lp._Simplex(*data), SparsePivotSimplex(*data)
        limit = 10 * sum(new.tab.shape)
        new.solve(limit)
        old.solve(limit)
        assert np.array_equal(new.basis, old.basis)
        assert np.array_equal(new.tab, old.tab)


@pytest.mark.parametrize("make", K1_CODES.values(), ids=K1_CODES.keys())
def test_fraction_simplex_matches_sparse_pivot_oracle(make):
    code = make()
    for f in distinct_table_lps(code):
        data = [np.asarray(v, dtype=float) for v in simulator_lp(code, f)]
        new, old = lp._Simplex(*data, exact=True), SparsePivotSimplex(*data, exact=True)
        new.solve()
        old.solve()
        assert np.array_equal(new.basis, old.basis)
        assert new.tab.tolist() == old.tab.tolist()


def test_exact_lp_matches_sparse_pivot_oracle(monkeypatch, oracle_lps):
    want = [exact_lp(*data) for data in oracle_lps]
    assert all(type(value) is Fraction for value, _ in want)
    monkeypatch.setattr(lp, "_Simplex", SparsePivotSimplex)
    assert [exact_lp(*data) for data in oracle_lps] == want


@pytest.mark.parametrize("make", K1_CODES.values(), ids=K1_CODES.keys())
def test_exact_pivoting_takes_over_when_the_rational_point_fails(monkeypatch, make):
    code = make()
    tampers = distinct_table_lps(code)
    want = [nm_decompose(code, f).epsilon for f in tampers]
    certified = []
    record_results(monkeypatch, lp, "_certificate", certified)
    # The float solution is read as the origin, which violates sum(q) = 1.
    monkeypatch.setattr(lp, "_rationalise", lambda values: [Fraction(0)] * len(values))
    assert [nm_decompose(code, f).epsilon for f in tampers] == want
    assert certified == [v for eps in want for v in (None, eps)]


def test_exact_pivoting_continues_from_a_feasible_float_basis(monkeypatch):
    # The float stage stops after phase 1: its basis is feasible but, on
    # some tables, not optimal, so its certificate fails and the Fraction
    # simplex solves those LPs again.
    code = random_table_codes(1, 4, 1, 5)[0]
    tampers = distinct_table_lps(code)
    want = [nm_decompose(code, f).epsilon for f in tampers]
    real_solve = lp._Simplex.solve
    stopped_at, exact_solves = [], []

    def phase_one_only(self, limit=None):
        if not self.tol:
            exact_solves.append(limit)
            return real_solve(self, limit)
        phase1 = np.zeros_like(self.cost)
        phase1[self.n_std:-1] = 1
        self.price(phase1)
        self.bland(limit)
        self.drive_out_artificials()
        self.price(self.cost)
        stopped_at.append(-self.tab[-1, -1])

    monkeypatch.setattr(lp._Simplex, "solve", phase_one_only)
    assert [nm_decompose(code, f).epsilon for f in tampers] == want
    improved = [start > eps + 1e-9 for start, eps in zip(stopped_at, want)]
    assert any(improved) and len(exact_solves) >= sum(improved)


def test_exact_simplex_restarts_when_the_float_basis_is_infeasible(monkeypatch):
    # With a huge tolerance the float stage never leaves its initial basis,
    # whose artificials are positive: the Fraction simplex starts afresh.
    code = systematic_parity_nm(1)
    tampers = distinct_table_lps(code)
    want = [nm_decompose(code, f).epsilon for f in tampers]
    monkeypatch.setattr(lp, "_FLOAT_TOL", 10.0)
    real_solve = lp._Simplex.solve
    exact_solves = []

    def recording(self, limit=None):
        if not self.tol:
            exact_solves.append(limit)
        return real_solve(self, limit)

    monkeypatch.setattr(lp._Simplex, "solve", recording)
    assert [nm_decompose(code, f).epsilon for f in tampers] == want
    assert exact_solves == [None] * len(tampers)


def test_nm_decompose_simulator_is_the_exact_optimal_point():
    code = systematic_parity_nm(2)
    tags = ["keep"] * code.n
    tags[0] = tags[code.k] = "flip"
    f = TamperFunction(tuple(tags))
    value, x = exact_lp(*simulator_lp(code, f))
    dec = nm_decompose(code, f)
    assert dec.epsilon == value and type(dec.epsilon) is Fraction
    labels = [*range(1 << code.k), REJECT, "same"]
    assert dec.simulator == {label: float(q) for label, q in zip(labels, x) if q > 0}
    assert sum(x[:len(labels)]) == 1


# ---------------------------------------------------------------------------
# Channel decomposition and twirling
# ---------------------------------------------------------------------------

def test_decompose_x_unitary():
    coeffs = pauli_decompose_channel([X])
    assert np.allclose(coeffs, [[0, 1, 0, 0]])


def test_decompose_completeness_random():
    rng = np.random.default_rng(3)
    for _ in range(10):
        kraus = random_cptp(rng)
        coeffs = pauli_decompose_channel(kraus)
        assert abs((np.abs(coeffs) ** 2).sum() - 1.0) < 1e-12
        for k, row in zip(kraus, coeffs):
            rebuilt = sum(c * m for c, m in
                          zip(row, [I2, X, Y, Z]))
            assert np.allclose(rebuilt, k, atol=1e-12)


def test_twirl_depolarizing():
    w = twirl_channel(depolarizing_kraus(0.4))
    assert np.allclose(w, [0.7, 0.1, 0.1, 0.1], atol=1e-12)


def test_twirl_unitary_z_point_mass():
    assert np.allclose(twirl_channel([Z]), [0, 0, 0, 1])


def test_twirl_idempotent():
    w = twirl_channel(depolarizing_kraus(0.3))
    pauli_kraus = [np.sqrt(wi) * m for wi, m in zip(w, [I2, X, Y, Z])]
    assert np.allclose(twirl_channel(pauli_kraus), w, atol=1e-12)


def test_twirl_identity_on_choi_50_random_channels():
    rng = np.random.default_rng(np.random.Philox(77))
    for trial in range(50):
        kraus = random_cptp(rng, n_kraus=2 if trial % 2 else 3)
        weights = twirl_channel(kraus)
        algebraic = channel_choi([np.sqrt(w) * p for w, p in zip(weights, (I2, X, Y, Z))])
        averaged = twirled_choi_by_pad_average(kraus)
        assert np.abs(algebraic - averaged).max() < 1e-10


def test_eta_identity_and_depolarizing():
    assert eta_classify([I2]).eta == 0.0
    assert eta_classify([I2]).best_pauli == "I"
    rep = eta_classify(depolarizing_kraus(0.4))
    assert abs(rep.eta - 0.3) < 1e-12 and rep.best_pauli == "I"


def test_eta_replace_with_zero():
    kraus = [np.array([[1, 0], [0, 0]], dtype=complex),
             np.array([[0, 1], [0, 0]], dtype=complex)]
    rep = eta_classify(kraus)
    assert abs(rep.eta - 0.75) < 1e-12
    assert rep.best_pauli == "I"  # all weights tie at 1/4


# ---------------------------------------------------------------------------
# Packing masses and pure distance
# ---------------------------------------------------------------------------

FOUR22 = StabilizerCode(4, [pauli("XXXX"), pauli("ZZZZ")])
FIVE1 = StabilizerCode(5, [pauli("XZZXI"), pauli("IXZZX"),
                           pauli("XIXZZ"), pauli("ZXIXZ")])


def test_pure_distance_values():
    assert pure_distance(FOUR22) == 2
    assert pure_distance(FIVE1) == 3


def test_stabilizer_mass_identity_channels():
    weights = [[Fraction(1), Fraction(0), Fraction(0), Fraction(0)]] * 4
    assert stabilizer_mass(weights, FOUR22) == 1


def test_stabilizer_mass_stabilizer_unitary():
    # Per-qubit X unitaries implement the stabilizer XXXX: mass 1.
    weights = [[Fraction(0), Fraction(1), Fraction(0), Fraction(0)]] * 4
    assert stabilizer_mass(weights, FOUR22) == 1


def test_stabilizer_mass_depolarizing_exact_inequality():
    # All-depolarizing(p) with exact rationals: mass must sit under
    # (1 - eta)^min(delta*b, d*) with eta = 3p/4 and d* = 2.
    p = Fraction(1, 5)
    w = [Fraction(1) - 3 * p / 4, p / 4, p / 4, p / 4]
    weights = [w] * 4
    mass = stabilizer_mass(weights, FOUR22)
    assert mass == (Fraction(1) - 3 * p / 4) ** 4 + 3 * (p / 4) ** 4
    eta = 3 * p / 4
    dstar = pure_distance(FOUR22)
    assert mass <= (1 - eta) ** min(4, dstar)


def test_normalizer_l1_identity_and_logical_unitary():
    one_hot_i = [[Fraction(1), Fraction(0), Fraction(0), Fraction(0)]]
    assert normalizer_l1_mass([one_hot_i] * 4, FOUR22) == 1
    one_hot_x = [[Fraction(0), Fraction(1), Fraction(0), Fraction(0)]]
    assert normalizer_l1_mass([one_hot_x] * 4, FOUR22) == 1


def test_normalizer_l1_amplitude_damping_exact_inequality():
    # Amplitude damping with gamma = 16/25 has all-rational Pauli
    # coefficients: K1 = (4/5)I + (1/5)Z, K2 = (2/5)X + (2i/5)Y.
    table = [[Fraction(4, 5), Fraction(0), Fraction(0), Fraction(1, 5)],
             [Fraction(0), Fraction(2, 5), Fraction(2, 5), Fraction(0)]]
    per_qubit = [table] * 4
    total = normalizer_l1_mass(per_qubit, FOUR22)
    # eta = 9/25 per qubit; claim bound 2^(8 * eta * b) compared exactly
    # by raising both sides to the 25th power.
    eta = Fraction(9, 25)
    assert total ** 25 <= Fraction(2) ** int(8 * eta * 4 * 25)
    # The float path agrees with the exact table.
    kraus = [np.array([[1, 0], [0, 0.6]], dtype=complex),
             np.array([[0, 0.8], [0, 0]], dtype=complex)]
    float_table = [list(np.abs(row)) for row in pauli_decompose_channel(kraus)]
    got = normalizer_l1_mass([float_table] * 4, FOUR22)
    assert abs(float(total) - got) < 1e-10


# ---------------------------------------------------------------------------
# t-wise independent pads
# ---------------------------------------------------------------------------

def test_pad_deterministic_and_sized():
    bits = twise_pad_seed_bits(2, 8)
    assert bits == 4  # word size 2: 4 evaluation points, exactly enough
    a = twise_pad(0b1010, 2, 8)
    b = twise_pad(0b1010, 2, 8)
    assert a == b
    assert 0 <= a < (1 << 8)


def test_pad_values_are_pinned():
    # 36 bits at t = 2 are nine 4-bit words from an 8-bit seed; a swapped
    # coefficient or evaluation point moves these.
    assert twise_pad_seed_bits(2, 36) == 8
    assert {seed: twise_pad(seed, 2, 36) for seed in (0, 1, 0x2A, 0x5C, 0xEF, 0xFF)} == {
        0: 0x0, 1: 0x111111111, 0x2A: 0x94602CE8A, 0x5C: 0x241EB369C,
        0xEF: 0x63DC2E01F, 0xFF: 0xE4B96D20F}


def test_pad_single_bits_uniform_t1():
    length, t = 6, 1
    seed_bits = twise_pad_seed_bits(t, length)
    counts = np.zeros(length)
    for seed in range(1 << seed_bits):
        pad = twise_pad(seed, t, length)
        for j in range(length):
            counts[j] += (pad >> j) & 1
    assert np.all(counts == (1 << seed_bits) / 2)


def test_pad_exact_pairwise_uniformity():
    # Exhaustive seed enumeration: every pair of output bits takes each
    # of the four values equally often.
    length, t = 8, 2
    seed_bits = twise_pad_seed_bits(t, length)
    pads = [twise_pad(seed, t, length) for seed in range(1 << seed_bits)]
    for i, j in itertools.combinations(range(length), 2):
        counts = {}
        for pad in pads:
            key = ((pad >> i) & 1, (pad >> j) & 1)
            counts[key] = counts.get(key, 0) + 1
        assert all(counts.get(k, 0) == len(pads) // 4
                   for k in itertools.product((0, 1), repeat=2))


def test_pad_word_override_and_validation():
    assert twise_pad_seed_bits(2, 16, word_bits=8) == 16
    with pytest.raises(ValueError, match="evaluation points"):
        twise_pad(0, 2, 16, word_bits=2)
    with pytest.raises(ValueError, match=">= 1"):
        twise_pad(0, 0, 4)


def test_pad_to_pauli_layout():
    # Bits (2i, 2i+1) drive (x, z) of qubit i.
    p = pad_to_pauli(0b0110, 2)  # q0: x=0,z=1; q1: x=1,z=0
    assert p.x == 0b10 and p.z == 0b01


# ---------------------------------------------------------------------------
# Rate-1/3 protocol
# ---------------------------------------------------------------------------

def make_auth13():
    pmd = build_pmd(build_bcgst_family(2, 1))
    outer = StabilizerCode(4, [pauli("XXXX")], name="[[4,3]]")
    return Auth13Protocol(compose(pmd, outer), systematic_parity_nm(8))


def identity_wires(n):
    return [(I2,)] * n


def test_auth13_validation():
    pmd = build_pmd(build_bcgst_family(2, 1))
    outer = StabilizerCode(4, [pauli("XXXX")])
    with pytest.raises(ValueError, match="key needs 8 bits"):
        Auth13Protocol(compose(pmd, outer), systematic_parity_nm(6))


def test_auth13_rejects_non_cptp_wire():
    proto = make_auth13()
    bad = [(0.5 * I2,)] + identity_wires(3)
    with pytest.raises(ValueError, match="trace preserving"):
        auth13_attack_harness(proto, bad, TamperFunction(("keep",) * proto.nm.n))


def test_wire_cptp_check_uses_the_channel_tolerance():
    proto = make_auth13()
    # 5e-10 off identity: inside the old 1e-9 wire tolerance, outside ATOL.
    bad = [(np.sqrt(1 + 5e-10) * I2,)] + identity_wires(3)
    with pytest.raises(ValueError, match="wire 0: .*trace preserving"):
        auth13_attack_harness(proto, bad, TamperFunction(("keep",) * proto.nm.n))


def test_auth13_completeness_exact():
    proto = make_auth13()
    rep = auth13_attack_harness(proto, identity_wires(4),
                                TamperFunction(("keep",) * proto.nm.n))
    assert abs(rep.p_accept - 1.0) < 1e-10
    assert rep.p_accept_wrong < 1e-10
    assert rep.p_reject < 1e-10
    assert abs(rep.fidelity_given_accept - 1.0) < 1e-10


def test_auth13_encryption_identity():
    # Averaging the padded encoding over the whole key space leaves the
    # quantum register maximally mixed.
    proto = make_auth13()
    message = np.zeros(2, dtype=complex)
    message[0] = 1.0
    branches = auth13_encode(proto, message)
    assert branches.shape == (proto.key_count, 16)
    avg = branches.T @ branches.conj() / proto.key_count
    assert np.abs(avg - np.eye(16) / 16).max() < 1e-10


def test_auth13_key_recovered_pauli_attack_bounded():
    # Any fixed nonidentity Pauli on the wires, classical untouched:
    # wrong-accept is bounded by the squared detection error.
    proto = make_auth13()
    eps = measure_pmd_epsilon(proto.composed.pmd).value
    keep = TamperFunction(("keep",) * proto.nm.n)
    cases = {
        "XIII": [(X,), (I2,), (I2,), (I2,)],   # in N(outer) minus S
        "ZZII": [(Z,), (Z,), (I2,), (I2,)],    # in N(outer) minus S
        "XXXX": [(X,), (X,), (X,), (X,)],      # the stabilizer itself
        "ZIII": [(Z,), (I2,), (I2,), (I2,)],   # detected by the syndrome
    }
    for label, wires in cases.items():
        rep = auth13_attack_harness(proto, wires, keep)
        assert rep.p_accept_wrong <= eps ** 2 + 1e-10, label
        twirled = auth13_key_recovered_branch(proto, wires)
        assert abs(twirled.p_accept - rep.p_accept) < 1e-10
        assert abs(twirled.p_accept_wrong - rep.p_accept_wrong) < 1e-10


def test_auth13_stabilizer_attack_accepts_original():
    proto = make_auth13()
    rep = auth13_attack_harness(proto, [(X,)] * 4,
                                TamperFunction(("keep",) * proto.nm.n))
    assert abs(rep.p_accept - 1.0) < 1e-10
    assert rep.p_accept_wrong < 1e-10


def test_auth13_twirl_matches_explicit_for_noise():
    proto = make_auth13()
    wires = [depolarizing_kraus(0.3), (I2,), depolarizing_kraus(0.1), (Z,)]
    explicit = auth13_attack_harness(proto, wires,
                                     TamperFunction(("keep",) * proto.nm.n))
    twirled = auth13_key_recovered_branch(proto, wires)
    assert abs(explicit.p_accept - twirled.p_accept) < 1e-10
    assert abs(explicit.p_accept_wrong - twirled.p_accept_wrong) < 1e-10


def test_auth13_substitution_matches_overlap_oracle():
    proto = make_auth13()
    wires, classical, marginals = substitution_attack(proto, fixed_key=137)
    rep = auth13_attack_harness(proto, wires, classical)
    accept_oracle, wrong_oracle = substitution_overlap_oracle(proto, marginals, 137)
    assert abs(rep.p_accept_wrong - wrong_oracle) < 1e-9
    assert abs(rep.p_accept - accept_oracle) < 1e-9
    assert rep.p_accept_wrong > 0.01  # the attack does fool the decoder sometimes


def test_auth13_triangle_decomposition_bound():
    # Wrong-accept <= eps_nm(attack) + eps_pmd^2 + uncorrelated overlap,
    # with every term measured.
    proto = make_auth13()
    eps = measure_pmd_epsilon(proto.composed.pmd).value
    wires, classical, marginals = substitution_attack(proto, fixed_key=42)
    rep = auth13_attack_harness(proto, wires, classical)
    nm_term = nm_decompose(proto.nm, classical).epsilon
    _, overlap_term = substitution_overlap_oracle(proto, marginals, 42)
    assert rep.p_accept_wrong <= nm_term + eps ** 2 + overlap_term + 1e-9


def _harness_by_key(proto, wire_kraus, classical):
    """The harness as a per-key loop: pad, every wire's Kraus operators on
    the density matrix, then unpad and project once per decoded key."""
    from pmdkit.aqec import entangled_code_state
    from pmdkit.densesim import dm_apply_single_qubit_kraus, dm_conjugate_pauli
    n, k = proto.n_quantum, proto.composed.message_qubits
    vec = entangled_code_state(proto.composed)
    rho0 = np.outer(vec, vec.conj())
    total_qubits = n + k
    big_iso = np.kron(np.eye(1 << k), proto.composed.encoder_isometry())
    phi_proj = maxent_projector(k)
    p_accept = p_wrong = p_reject = fid_acc = 0.0
    key_weight = 1.0 / proto.key_count
    rand_weight = 1.0 / (1 << proto.nm.rand_bits)

    def widen(p):
        return PauliOperator(total_qubits, p.x, p.z, p.phase)

    for s in range(proto.key_count):
        rho = dm_conjugate_pauli(widen(pad_to_pauli(s, n)), rho0)
        for q in range(n):
            rho = dm_apply_single_qubit_kraus(wire_kraus[q], q, rho)
        outcomes = {}
        for r in range(1 << proto.nm.rand_bits):
            got = proto.nm.decode(classical.apply(proto.nm.encode(s, r)))
            outcomes[got] = outcomes.get(got, 0.0) + rand_weight
        for s_tilde, cl_weight in outcomes.items():
            w = key_weight * cl_weight
            if s_tilde is REJECT:
                p_reject += w
                continue
            sigma = dm_conjugate_pauli(widen(pad_to_pauli(s_tilde, n)), rho)
            tau = big_iso.conj().T @ sigma @ big_iso
            tr = float(np.trace(tau).real)
            overlap = float(np.trace(phi_proj @ tau).real)
            p_accept += w * tr
            p_reject += w * (1.0 - tr)
            fid_acc += w * overlap
            p_wrong += w * (tr - overlap)
    fidelity = fid_acc / p_accept if p_accept > 1e-15 else 1.0
    return p_accept, p_wrong, p_reject, fidelity


def _assert_harness_matches_key_loop(proto, wires, classical):
    rep = auth13_attack_harness(proto, wires, classical)
    got = (rep.p_accept, rep.p_accept_wrong, rep.p_reject, rep.fidelity_given_accept)
    want = _harness_by_key(proto, wires, classical)
    assert np.allclose(got, want, rtol=0, atol=1e-12), (got, want)
    return rep


@pytest.mark.parametrize("fixed_key", [137, 42, 0])
def test_harness_matches_key_loop_on_substitution(fixed_key):
    proto = make_auth13()
    wires, classical, _ = substitution_attack(proto, fixed_key)
    rep = _assert_harness_matches_key_loop(proto, wires, classical)
    assert rep.p_accept_wrong > 0


def test_harness_matches_key_loop_on_keep_all_and_random_tags():
    proto = make_auth13()
    rng = np.random.default_rng(11)
    keep = TamperFunction(("keep",) * proto.nm.n)
    _assert_harness_matches_key_loop(proto, [random_cptp(rng) for _ in range(4)], keep)
    _assert_harness_matches_key_loop(proto, [depolarizing_kraus(0.3)] * 4, keep)
    for _ in range(4):
        tags = tuple(rng.choice(auth.BIT_TAGS, size=proto.nm.n).tolist())
        wires = [random_cptp(rng, n_kraus=int(rng.integers(1, 4))) for _ in range(4)]
        _assert_harness_matches_key_loop(proto, wires, TamperFunction(tags))


def test_harness_all_reject_tampering():
    # Flipping the parity bit makes every key decode to REJECT.
    proto = make_auth13()
    tags = ("keep",) * 8 + ("flip", "keep")
    rng = np.random.default_rng(12)
    rep = _assert_harness_matches_key_loop(
        proto, [random_cptp(rng) for _ in range(4)], TamperFunction(tags))
    assert (rep.p_accept, rep.p_accept_wrong, rep.p_reject) == (0.0, 0.0, 1.0)


def test_harness_refuses_tampering_of_wrong_length():
    # The key code has 10 bits; 3 tags used to tamper only the low bits.
    proto = make_auth13()
    with pytest.raises(ValueError, match="arity"):
        auth13_attack_harness(proto, identity_wires(4), TamperFunction(("flip",) * 3))


def test_harness_matches_key_loop_on_table_code():
    # A random injective table code read back from its record: decoded
    # keys spread over many values and REJECT.
    rng = np.random.default_rng(13)
    words = rng.permutation(1 << 10)
    record = {"k": 8, "n": 10, "rand_bits": 1, "name": "table",
              "encode": {f"{s},{r}": int(words[2 * s + r])
                         for s in range(256) for r in range(2)},
              "decode": {str(int(words[i])): i // 2 for i in range(512)}}
    nm = NmCode.from_record(record)
    base = make_auth13()
    proto = Auth13Protocol(base.composed, nm)
    for _ in range(3):
        tags = tuple(rng.choice(auth.BIT_TAGS, size=nm.n).tolist())
        wires = [random_cptp(rng) for _ in range(4)]
        _assert_harness_matches_key_loop(proto, wires, TamperFunction(tags))


def test_maxent_overlap_helper_matches_projector():
    rng = np.random.default_rng(14)
    for k in (1, 2):
        m = rng.standard_normal((4 ** k, 4 ** k)) + 1j * rng.standard_normal((4 ** k, 4 ** k))
        tr, overlap = auth._trace_and_overlap(m, k)
        assert tr == float(np.trace(m).real)
        assert abs(overlap - np.trace(maxent_projector(k) @ m).real) < 1e-12


# ---------------------------------------------------------------------------
# Rate-1 protocol at toy scale
# ---------------------------------------------------------------------------

def make_auth1():
    pmd = build_pmd(build_bcgst_family(2, 1))
    inner_code = StabilizerCode(4, [pauli("ZZZZ")], name="[[4,3]]")
    inner = compose(pmd, inner_code)
    outer = StabilizerCode(2, [pauli("XX")], name="[[2,1]]")
    return Auth1Protocol(outer, inner)


def test_auth1_shapes():
    proto = make_auth1()
    assert proto.n_blocks == 2
    assert proto.total_quantum == 8
    assert proto.pad_bits == 16
    assert proto.seed_bits == 16
    iso = proto.encoder_isometry()
    assert iso.shape == (256, 2)
    assert np.allclose(iso.conj().T @ iso, np.eye(2), atol=1e-10)


def test_auth1_completeness_exact():
    proto = make_auth1()
    rng = np.random.default_rng(13)
    message = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    message /= np.linalg.norm(message)
    for seed in (0, 1, 777, 65535):
        state = auth1_encode(proto, message, seed)
        result = auth1_decode(proto, state, seed)
        assert result.rejected_at is None
        assert result.accept_probability > 1 - 1e-10
        phase = np.vdot(result.message, message)
        assert abs(abs(phase) - 1.0) < 1e-10


def test_auth1_wrong_seed_differs():
    proto = make_auth1()
    message = np.array([1, 0], dtype=complex)
    state = auth1_encode(proto, message, seed=777)
    result = auth1_decode(proto, state, seed=778)
    if result.rejected_at is None:  # a different pad may still pass checks, but
        # it must not silently return the original message with
        # certainty (the pads differ on some block).
        assert result.accept_probability < 1 - 1e-6


def test_auth1_inner_abort_propagates():
    # An X on one qubit anticommutes with the inner ZZZZ check: the
    # block rejects exactly and the whole decode aborts.
    from pmdkit.densesim import apply_pauli as ap
    proto = make_auth1()
    message = np.array([1, 0], dtype=complex)
    state = auth1_encode(proto, message, seed=3)
    corrupted = ap(PauliOperator(8, 1, 0, 0), state)  # X on qubit 0
    result = auth1_decode(proto, corrupted, seed=3)
    assert result.rejected_at is not None
    assert result.rejected_at == "inner block 0"


def test_auth1_outer_abort():
    # Feed block encodings of a vector outside the outer code space.
    proto = make_auth1()
    block_iso = proto.inner.encoder_isometry()
    lifted = np.kron(block_iso, block_iso)
    bad = np.zeros(4, dtype=complex)
    bad[0b00], bad[0b11] = 1 / np.sqrt(2), -1 / np.sqrt(2)  # orthogonal to XX space
    state = auth1_encode_raw = lifted @ bad
    from pmdkit.densesim import apply_pauli as ap
    state = ap(proto.pad_for_seed(9), state)
    result = auth1_decode(proto, state, seed=9)
    assert result.rejected_at is not None
    assert result.rejected_at == "outer"


def test_auth1_block_pad_marginal_uniform():
    # The pairwise-independent pad restricted to one block is exactly
    # uniform: every 8-bit block pad appears equally often over seeds.
    proto = make_auth1()
    counts = np.zeros(256, dtype=int)
    for seed in range(1 << proto.seed_bits):
        pad = twise_pad(seed, 2, proto.pad_bits, word_bits=proto.word_bits)
        counts[pad & 0xFF] += 1
    assert np.all(counts == (1 << proto.seed_bits) // 256)


def test_auth1_block_rejection_bound():
    # Non-Pauli-heavy noise on one block: rejection probability is at
    # least 1 - (eps^2 + stabilizer mass), all quantities exact.
    proto = make_auth1()
    eps = measure_pmd_epsilon(proto.inner.pmd).value
    p = 0.8
    channels = [depolarizing_kraus(p)] * 4
    message = np.array([1, 0], dtype=complex)
    block_rho = auth1_block_codeword_density(proto, message, block=0)
    reject = auth1_block_reject_probability(proto, channels, block_rho)
    w = [Fraction(1) - 3 * Fraction(4, 5) / 4, Fraction(1, 5), Fraction(1, 5),
         Fraction(1, 5)]
    mass = stabilizer_mass([w] * 4, StabilizerCode(4, [pauli("ZZZZ")]))
    assert reject >= 1 - (eps ** 2 + float(mass)) - 1e-9


def test_auth1_block_twirl_matches_pad_average():
    # Independent oracle for the block computation: brute-force average
    # over all 256 block pads equals the algebraic twirl.
    proto = make_auth1()
    message = np.array([1, 1], dtype=complex) / np.sqrt(2)
    block_rho = auth1_block_codeword_density(proto, message, block=1)
    channels = [depolarizing_kraus(0.5), (I2,), (X,), depolarizing_kraus(0.2)]
    from pmdkit.densesim import dm_apply_single_qubit_kraus, dm_conjugate_pauli
    acc_op = np.zeros((16, 16), dtype=complex)
    iso = proto.inner.encoder_isometry()
    acc_op = iso @ iso.conj().T
    brute_accept = 0.0
    for pad_bits in range(256):
        pad = pad_to_pauli(pad_bits, 4)
        rho = dm_conjugate_pauli(pad, block_rho)
        for q in range(4):
            rho = dm_apply_single_qubit_kraus(channels[q], q, rho)
        rho = dm_conjugate_pauli(pad, rho)
        brute_accept += float(np.trace(acc_op @ rho).real) / 256
    alg_reject = auth1_block_reject_probability(proto, channels, block_rho)
    assert abs((1 - alg_reject) - brute_accept) < 1e-10


@pytest.mark.parametrize("trials", [0, -3])
def test_nm_search_refuses_fewer_than_one_trial(trials):
    rng = np.random.default_rng(np.random.Philox(3))
    with pytest.raises(ValueError, match="trials must be at least 1"):
        nm_search(1, 4, trials, rng)


def _product_loop_reject_probability(proto, block_channels, block_rho):
    """Oracle for auth1_block_reject_probability: each Pauli's twirl
    weight multiplied out inline, float by float from 1.0."""
    from pmdkit.densesim import dm_conjugate_pauli
    b = proto.block_qubits
    weights = [twirl_channel(k) for k in block_channels]
    acc_op = auth.auth1_block_accept_operator(proto)
    accept = 0.0
    for code_pt in range(1 << (2 * b)):
        p = PauliOperator(b, code_pt & ((1 << b) - 1), code_pt >> b, 0)
        prob = 1.0
        for q in range(b):
            prob *= float(weights[q][auth._symbol_index(p, q)])
        if prob == 0.0:
            continue
        accept += prob * float(np.trace(acc_op @ dm_conjugate_pauli(p, block_rho)).real)
    return 1.0 - accept


@pytest.mark.parametrize("seed", [0, 5])
def test_block_reject_probability_agrees_with_the_product_loop(seed):
    # Per-wire maps as the Kraus blocks of a random isometry, one random
    # product attack on all 8 wires.  The wire-by-wire twirl sums in a
    # different order from the per-Pauli loop, so the two agree to
    # rounding (1.1e-16 measured), not to the bit.
    rng = np.random.default_rng(seed)
    wires = []
    for _ in range(8):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        wires.append([q.reshape(2, 2, 2, 2)[:, mu, :, 0] for mu in range(2)])
    proto = make_auth1()
    message = np.array([1, 0], dtype=complex)
    b = proto.block_qubits
    for block in range(proto.n_blocks):
        rho = auth1_block_codeword_density(proto, message, block)
        channels = wires[block * b:(block + 1) * b]
        assert abs(auth1_block_reject_probability(proto, channels, rho)
                   - _product_loop_reject_probability(proto, channels, rho)) < 1e-14


def test_pauli_weight_multiplies_left_to_right_and_keeps_fractions_exact():
    w = [[Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)],
         [Fraction(2, 3), Fraction(1, 3), 0, 0]]
    assert auth._pauli_weight(w, PauliOperator.from_label("YX")) == Fraction(1, 24)
    assert auth._pauli_weight(w, PauliOperator.from_label("ZZ")) == 0
    floats = [[0.0, x, 0.0, 0.0] for x in (0.1, 0.7, 0.3)]
    # (0.1 * 0.7) * 0.3 rounds to 0.020999999999999998; 0.1 * (0.7 * 0.3) to 0.021.
    assert auth._pauli_weight(floats, PauliOperator.from_label("XXX")) == (0.1 * 0.7) * 0.3
    assert (0.1 * 0.7) * 0.3 != 0.1 * (0.7 * 0.3)


def _per_key_attack_harness(proto, wire_kraus, classical):
    """Oracle for auth13_attack_harness: its former per-key form, which
    conjugates rho0 by each key's pad and sums the padded density
    matrices of each decoded key s~ one key at a time."""
    from pmdkit.aqec import entangled_code_state
    from pmdkit.densesim import apply_on_qubits, dm_conjugate_pauli
    n, k = proto.n_quantum, proto.composed.message_qubits
    vec = entangled_code_state(proto.composed)
    rho0 = np.outer(vec, vec.conj())
    total_qubits = n + k
    key_weight = 1.0 / proto.key_count
    p_reject = 0.0
    weights, mixed = {}, {}
    for s, outcomes in enumerate(proto.nm.tampered_distributions(classical)):
        padded = None
        for s_tilde, cl_weight in outcomes.items():
            w = key_weight * float(cl_weight)
            if s_tilde is REJECT:
                p_reject += w
                continue
            if padded is None:
                padded = dm_conjugate_pauli(pad_to_pauli(s, n), rho0)
            weights[s_tilde] = weights.get(s_tilde, 0.0) + w
            mixed[s_tilde] = mixed.get(s_tilde, 0.0) + w * padded
    dim = 1 << total_qubits
    stack = np.empty((dim * dim, len(mixed)), dtype=complex)
    for j, rho in enumerate(mixed.values()):
        stack[:, j] = rho.reshape(-1, order="F")
    for q, kraus in enumerate(wire_kraus):
        superop = sum(np.kron(np.conj(op), op) for op in map(np.asarray, kraus))
        stack = apply_on_qubits(superop, (q, total_qubits + q), stack)
    big_iso = np.kron(np.eye(1 << k), proto.composed.encoder_isometry())
    p_accept = p_wrong = fid_acc = 0.0
    for s_tilde, column in zip(mixed, stack.T):
        sigma = dm_conjugate_pauli(pad_to_pauli(s_tilde, n),
                                   column.reshape(dim, dim, order="F"))
        tr, overlap = auth._trace_and_overlap(big_iso.conj().T @ sigma @ big_iso, k)
        p_accept += tr
        p_reject += weights[s_tilde] - tr
        fid_acc += overlap
        p_wrong += tr - overlap
    fidelity = fid_acc / p_accept if p_accept > 1e-15 else 1.0
    return p_accept, p_wrong, p_reject, fidelity


def _assert_harness_matches_per_key_form(proto, wires, classical):
    rep = auth13_attack_harness(proto, wires, classical)
    got = (rep.p_accept, rep.p_accept_wrong, rep.p_reject, rep.fidelity_given_accept)
    want = _per_key_attack_harness(proto, wires, classical)
    assert np.allclose(got, want, rtol=0, atol=1e-12), (got, want)


def test_batched_harness_matches_per_key_form_on_substitution_attacks():
    # Every key decodes to the substituted key: one s~ gathers all 256 keys.
    proto = make_auth13()
    rng = np.random.default_rng(3)
    for key in rng.choice(proto.key_count, size=4, replace=False):
        wires, classical, _ = substitution_attack(proto, int(key))
        decoded = {o for dist in proto.nm.tampered_distributions(classical) for o in dist}
        assert decoded == {int(key)}
        _assert_harness_matches_per_key_form(proto, wires, classical)


def test_batched_harness_matches_per_key_form_on_a_spreading_tampering():
    proto = make_auth13()
    rng = np.random.default_rng(8)
    wires = [random_cptp(rng, n_kraus=int(rng.integers(1, 4))) for _ in range(4)]
    classical = TamperFunction(("keep", "flip", "set0", "keep", "keep", "set1",
                                "keep", "flip", "keep", "flip"))
    decoded = Counter(o for dist in proto.nm.tampered_distributions(classical) for o in dist)
    assert REJECT in decoded and len(decoded) > 4
    _assert_harness_matches_per_key_form(proto, wires, classical)


def _load_perfbench_workloads():
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_auth_simulate_pads_once_per_decoded_key(monkeypatch, tmp_path, capsys):
    # The five `auth simulate` runs of the erasure-auth benchmark's variant
    # 0: padding every key, or conjugating once per block Pauli, would
    # call these 257 and 512 times per run.
    from pmdkit.cli import run
    argvs = [a for a in _load_perfbench_workloads().make_invocations(
        "erasure-auth", 0, tmp_path) if a[:2] == ["auth", "simulate"]]
    assert [a[3] for a in argvs] == ["third"] * 4 + ["rate1"]
    monkeypatch.chdir(tmp_path)
    calls = Counter()

    def counted(name):
        original = getattr(auth, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(auth, name, wrapper)

    counted("_dm_conjugate_pauli")
    counted("pad_to_pauli")
    proto = make_auth13()
    for argv in argvs:
        calls.clear()
        assert run(argv) == 0
        capsys.readouterr()
        if argv[3] == "rate1":
            assert calls["_dm_conjugate_pauli"] == 0
            continue
        attack = json.loads((tmp_path / argv[argv.index("--attack") + 1]).read_text())
        dists = proto.nm.tampered_distributions(TamperFunction(tuple(attack["classical"])))
        decoded = {o for dist in dists for o in dist if o is not REJECT}
        assert 1 <= calls["_dm_conjugate_pauli"] <= len(decoded)
        assert 1 <= calls["pad_to_pauli"] <= len(decoded)
