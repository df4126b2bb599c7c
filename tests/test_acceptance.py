"""Acceptance suite: one test per shipped criterion.

Each test prints a [PASS]/[FAIL] line (visible with -s or -rA) and
enforces its stated runtime budget where one exists.  Expected values
marked as regression constants were produced by the corresponding
exhaustive sweep, which is its own oracle.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from pmdkit.aqec import compose, erasure_harness, random_adversary
from pmdkit.auth import (Auth13Protocol, TamperFunction, auth13_attack_harness,
                         auth13_encode, auth13_key_recovered_branch,
                         nm_decompose, nm_search, pad_to_pauli,
                         channel_choi, pure_distance, stabilizer_mass,
                         normalizer_l1_mass, substitution_attack,
                         substitution_overlap_oracle, systematic_parity_nm,
                         twirl_channel, twirled_choi_by_pad_average, twise_pad,
                         twise_pad_seed_bits)
from pmdkit.cli import run as cli_run
from pmdkit.densesim import apply_pauli
from pmdkit.pmd import auth_unitary, build_pmd, compressed_error_norm, measure_pmd_epsilon
from pmdkit.ptc import (build_bcgst_family, measure_pairwise_detectability,
                        measure_strong_ptc_error)
from pmdkit.qlde import (classical_list_profile, erasure_list_decode,
                         list_size_profile)
from pmdkit.symplectic import (PauliOperator, StabilizerCode, css_from_classical,
                               is_logically_equivalent, syndrome)

FAMILIES = [(2, 1), (4, 2), (6, 2), (6, 3)]

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1, -1]).astype(complex)
PAULIS = (I2, X, 1j * X @ Z, Z)  # I, X, Y, Z

HAMMING_H = [[1, 0, 1, 0, 1, 0, 1], [0, 1, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1]]


def pauli(label):
    return PauliOperator.from_label(label)


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def family_measurements():
    out = {}
    for n, lam in FAMILIES:
        fam = build_bcgst_family(n, lam)
        eps = measure_strong_ptc_error(fam).value
        delta = measure_pairwise_detectability(fam).value
        out[(n, lam)] = (fam, eps, delta)
    return out


@pytest.fixture(scope="module")
def pmd_measurements(family_measurements):
    out = {}
    for (n, lam), (fam, eps, delta) in family_measurements.items():
        pmd = build_pmd(fam)
        rep = measure_pmd_epsilon(pmd)
        out[(n, lam)] = (pmd, rep, eps, delta)
    return out


def test_criterion_01_ptc_properties(family_measurements):
    worst_elapsed = 0.0
    for n, lam in FAMILIES:
        start = time.monotonic()
        fam = build_bcgst_family(n, lam)
        eps = measure_strong_ptc_error(fam).value
        delta = measure_pairwise_detectability(fam).value
        elapsed = time.monotonic() - start
        worst_elapsed = max(worst_elapsed, elapsed)
        assert eps <= Fraction(n, 2 ** lam), (n, lam, eps)
        assert delta <= Fraction(2 * n, 2 ** lam), (n, lam, delta)
        assert elapsed <= 60.0, f"({n},{lam}) took {elapsed:.1f}s"
    report(1, True, f"strong error and pairwise detectability within bounds "
                    f"for {FAMILIES}; worst runtime {worst_elapsed:.1f}s")


def test_criterion_02_pmd_bound(pmd_measurements):
    timings = {}
    for (n, lam), (pmd, rep, eps_ptc, delta) in pmd_measurements.items():
        start = time.monotonic()
        bound = max(float(eps_ptc), math.sqrt(2.0 ** -lam + float(delta)))
        assert rep.exhaustive
        assert rep.value <= bound + 1e-9, (n, lam, rep.value, bound)
        for b_mask in range(1, 1 << lam):
            # Z^b on the key register, identity on the code register.
            phase_err = PauliOperator(pmd.total, 0, b_mask << pmd.code_qubits, 0)
            assert compressed_error_norm(pmd, phase_err) <= 1e-10
        timings[(n, lam)] = time.monotonic() - start
    # The 8-qubit case is (6, 2); its sweep already ran inside the
    # fixture, so re-run it here under the stated budget.
    start = time.monotonic()
    measure_pmd_epsilon(pmd_measurements[(6, 2)][0])
    elapsed = time.monotonic() - start
    assert elapsed <= 300.0, f"8-qubit sweep took {elapsed:.1f}s"
    report(2, True, "measured detection error obeys "
                    "max(eps_ptc, sqrt(2^-lam+delta)) on all families and "
                    f"key-phase errors vanish; 8-qubit sweep {elapsed:.1f}s")


def test_criterion_03_auth_unitary(pmd_measurements):
    rng = np.random.default_rng(np.random.Philox(2024))
    for n, lam in [(2, 1), (4, 2)]:
        pmd, rep, _, _ = pmd_measurements[(n, lam)]
        eps = rep.value
        auth = auth_unitary(pmd)
        dim = 1 << pmd.total
        assert np.allclose(auth.conj().T @ auth, np.eye(2 * dim), atol=1e-10)
        msg_dim = 1 << pmd.message_qubits
        psi = rng.standard_normal(msg_dim) + 1j * rng.standard_normal(msg_dim)
        psi /= np.linalg.norm(psi)
        encoded = pmd.encoder @ psi
        state = np.concatenate([encoded, np.zeros(dim)])
        out = auth @ state
        want = np.zeros(2 * dim, dtype=complex)
        want[dim:dim + msg_dim] = psi
        assert np.linalg.norm(out - want) <= 1e-9  # item 1: exact recovery
        for code in range(1, 1 << (2 * pmd.total)):
            x = code & ((1 << pmd.total) - 1)
            z = code >> pmd.total
            corrupted = apply_pauli(PauliOperator(pmd.total, x, z, 0), encoded)
            full = np.concatenate([corrupted, np.zeros(dim)])
            diff = np.linalg.norm(auth @ full - full)
            assert diff <= math.sqrt(2) * eps + 1e-9  # item 2
    report(3, True, "detection unitary: exact recovery at 1e-9 and "
                    "disturbance <= sqrt(2)*eps for every error, families "
                    "(2,1) and (4,2)")


CORPUS = {
    "[[3,1]] repetition": ["ZZI", "IZZ"],
    "[[4,2,2]]": ["XXXX", "ZZZZ"],
    "[[5,1]] perfect": ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"],
    "[[5,3]]": ["XXXXI", "ZZZZI"],
    "[[6,4]]": ["XXXXXX", "ZZZZZZ"],
    "[[6,3]]": ["XXXXXX", "ZZZZZZ", "XXYYZZ"],
}


def brute_force_classes(code, erased, s_bits):
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


def test_criterion_04_qlde_oracle_equivalence():
    start = time.monotonic()
    cases = 0
    for name, labels in CORPUS.items():
        code = StabilizerCode(len(labels[0]), [pauli(l) for l in labels], name=name)
        for size in range(0, 4):
            for erased in itertools.combinations(range(code.n), size):
                for s_bits in itertools.product((0, 1), repeat=code.r):
                    got = erasure_list_decode(code, erased, s_bits)
                    classes = brute_force_classes(code, erased, s_bits)
                    assert len(got) == len(classes), (name, erased, s_bits)
                    for entry in got:
                        hits = [c for c in classes
                                if is_logically_equivalent(code, entry, c[0])]
                        assert len(hits) == 1, (name, erased, s_bits)
                    cases += 1
    elapsed = time.monotonic() - start
    assert elapsed <= 120.0, f"{elapsed:.1f}s"
    report(4, True, f"solver lists equal brute-force logical classes on "
                    f"{cases} (code, erasure, syndrome) cases in {elapsed:.1f}s")


def test_criterion_05_css_lifting():
    instances = [
        ("steane", HAMMING_H, HAMMING_H, 3 / 7),
        ("[[4,2,2]]", [[1, 1, 1, 1]], [[1, 1, 1, 1]], 2 / 4),
        ("[[3,1]] x-only", [[0, 0, 0]], [[1, 1, 0], [0, 1, 1]], 1 / 3),
    ]
    for name, h1, h2, delta in instances:
        code = css_from_classical(h1, h2, name=name)
        l_classical = max(classical_list_profile(h1, delta),
                          classical_list_profile(h2, delta))
        l_quantum = list_size_profile(code, delta)
        assert l_quantum <= l_classical ** 2, (name, l_quantum, l_classical)
    report(5, True, "quantum list profile <= (classical profile)^2 on three "
                    "CSS instances, exact integers")


def test_criterion_06_end_to_end_erasure(pmd_measurements):
    start = time.monotonic()
    pmd, rep, _, _ = pmd_measurements[(4, 2)]
    eps = rep.value
    outer = StabilizerCode(7, [pauli("ZZZZZZZ")], name="[[7,6]]")
    code = compose(pmd, outer)
    assert code.n + code.message_qubits <= 10 + 2  # block + reference

    # Lemma-style harness over 100 seeded adversaries within the budget.
    rng = np.random.default_rng(np.random.Philox(606))
    fidelities = []
    for _ in range(100):
        adv = random_adversary(7, 1, rng)
        out = erasure_harness(code, adv, eps)
        assert out.fidelity >= out.bound - 1e-9
        fidelities.append(out.fidelity)
    assert min(fidelities) >= 1 - 3 * math.sqrt(eps) * 2 ** 0.75 - 1e-9

    # Per-case bounds: a single injected error equivalent to the i-th
    # list element recovers to the message with the matching flag
    # pattern (Claim-style 2*L*eps deviation), and superpositions stay
    # within the 3*sqrt(eps)*L^(3/4) trace-distance bound.  At (4,2)
    # these bounds are 3 and 4.37, above the 2 that either quantity can
    # reach, so each case is also held to its exact value.  The cascade
    # reads the PMD register: the outer code un-encoded, its ancillas (at
    # the revert's pattern) dropped.
    from pmdkit.aqec import CorrectionCascade
    from pmdkit.densesim import apply_circuit
    outer_dec = outer.encoder.inverse()
    rng2 = np.random.default_rng(9)
    psi = rng2.standard_normal(4) + 1j * rng2.standard_normal(4)
    psi /= np.linalg.norm(psi)
    encoded = code.encoder_isometry() @ psi
    corr = erasure_list_decode(outer, (3,), (0,))
    big_l = len(corr)
    assert big_l == 2
    cascade = CorrectionCascade(corr, code)
    width, r = code.pmd.total, outer.r

    def pmd_register(vec):
        return vec.reshape(1 << r, 1 << width)[cascade.pattern]

    ideals, deviations = [], []
    for idx, err in enumerate(corr):
        corrupted = pmd_register(apply_circuit(outer_dec, apply_pauli(err, encoded)))
        widened = np.zeros(corrupted.shape[0] << big_l, dtype=complex)
        widened[: corrupted.shape[0]] = corrupted
        got = cascade.apply(widened)
        flags = ((1 << (big_l - idx)) - 1) << idx  # 0^(i-1) 1 1..1 pattern
        want = np.zeros_like(got)
        want[(flags << width):(flags << width) + 4] = psi
        ideals.append(want)
        deviations.append(np.linalg.norm(got - want))
        assert deviations[-1] <= 2 * big_l * eps + 1e-9
    assert deviations[0] <= 1e-12  # the true error first: recovered exactly
    assert abs(deviations[1] - 0.353553390593) <= 1e-9
    assert abs(np.vdot(ideals[0], ideals[1])) < 1e-12  # aux orthogonality
    phi = encoded + apply_pauli(corr[1], encoded)
    phi = pmd_register(apply_circuit(outer_dec, phi / np.linalg.norm(phi)))
    widened = np.zeros(phi.shape[0] << big_l, dtype=complex)
    widened[: phi.shape[0]] = phi
    got = cascade.apply(widened)
    anc_dim = 1 << (width - code.message_qubits)
    stacked = got.reshape(1 << big_l, anc_dim, 4)
    overlap = np.linalg.norm(stacked[:, 0, :] @ psi.conj())
    trace_distance = 2 * math.sqrt(max(0.0, 1 - overlap ** 2))
    assert trace_distance <= 3 * math.sqrt(eps) * big_l ** 0.75 + 1e-9
    assert abs(trace_distance - 0.399622255115) <= 1e-9

    elapsed = time.monotonic() - start
    assert elapsed <= 600.0, f"{elapsed:.1f}s"
    report(6, True, f"100 seeded adversaries within budget pass the "
                    f"fidelity bound (min fidelity {min(fidelities):.6f}); "
                    f"per-case claim bounds hold; {elapsed:.1f}s")


def test_criterion_07_twirl_identity():
    rng = np.random.default_rng(np.random.Philox(707))
    for trial in range(50):
        n_kraus = 2 if trial % 2 else 3
        d = 2 * n_kraus
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, _ = np.linalg.qr(m)
        kraus = [q.reshape(2, n_kraus, 2, n_kraus)[:, mu, :, 0]
                 for mu in range(n_kraus)]
        algebraic = channel_choi([np.sqrt(w) * p for w, p in zip(twirl_channel(kraus), PAULIS)])
        averaged = twirled_choi_by_pad_average(kraus)
        assert np.abs(algebraic - averaged).max() <= 1e-10
    # Encryption identity: the full pad average is maximally mixing.
    vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    vec /= np.linalg.norm(vec)
    rho = np.outer(vec, vec.conj())
    acc = np.zeros_like(rho)
    for s in range(16):
        pad = pad_to_pauli(s, 2)
        moved = apply_pauli(pad, rho)
        acc += apply_pauli(pad, moved.conj().T).conj().T / 16
    assert np.abs(acc - np.eye(4) / 4).max() <= 1e-10
    report(7, True, "algebraic twirl equals the pad average on Choi states "
                    "for 50 random channels; pad average is maximally mixing")


@pytest.fixture(scope="module")
def auth13_proto():
    pmd = build_pmd(build_bcgst_family(2, 1))
    outer = StabilizerCode(4, [pauli("XXXX")], name="[[4,3]]")
    return Auth13Protocol(compose(pmd, outer), systematic_parity_nm(8))


def test_criterion_08_authentication(auth13_proto):
    start = time.monotonic()
    proto = auth13_proto
    eps = measure_pmd_epsilon(proto.composed.pmd).value
    keep = TamperFunction(("keep",) * proto.nm.n)

    # Exact completeness.
    clean = auth13_attack_harness(proto, [(I2,)] * 4, keep)
    assert abs(clean.p_accept - 1.0) <= 1e-10
    assert clean.p_accept_wrong <= 1e-10

    # Key-recovered branch: any nonidentity Pauli attack accepted-wrong
    # at most eps^2 (explicit and twirl paths agree).
    for wires in ([(X,), (I2,), (I2,), (I2,)],
                  [(Z,), (Z,), (I2,), (I2,)],
                  [(X,), (X,), (X,), (X,)]):
        got = auth13_attack_harness(proto, wires, keep)
        assert got.p_accept_wrong <= eps ** 2 + 1e-10
        tw = auth13_key_recovered_branch(proto, wires)
        assert abs(tw.p_accept_wrong - got.p_accept_wrong) <= 1e-10

    # Substitution attack equals the independent overlap computation.
    wires, classical, marginals = substitution_attack(proto, fixed_key=137)
    got = auth13_attack_harness(proto, wires, classical)
    _, wrong_oracle = substitution_overlap_oracle(proto, marginals, 137)
    assert abs(got.p_accept_wrong - wrong_oracle) <= 1e-9

    # Encryption identity at the protocol level.
    message = np.array([1, 0], dtype=complex)
    padded = auth13_encode(proto, message)
    avg = padded.T @ padded.conj() / proto.key_count
    assert np.abs(avg - np.eye(16) / 16).max() <= 1e-10

    elapsed = time.monotonic() - start
    assert elapsed <= 600.0, f"{elapsed:.1f}s"
    report(8, True, f"rate-1/3 protocol: exact completeness, tampered "
                    f"acceptance <= eps^2 = {eps ** 2:.3f}, substitution "
                    f"equals its oracle; {elapsed:.1f}s")


def test_criterion_09_nm_verifier():
    code = systematic_parity_nm(2)
    keep_eps = nm_decompose(code, TamperFunction(("keep",) * code.n)).epsilon
    assert keep_eps <= 1e-9
    for target in (0, 3):
        const = TamperFunction.set_to(code.encode(target, 1), code.n)
        assert nm_decompose(code, const).epsilon <= 1e-9
    rng = np.random.default_rng(np.random.Philox(21))
    _, searched_eps = nm_search(2, 6, 2, rng)
    assert searched_eps == Fraction(2, 3)  # seeded regression constant, exact
    report(9, True, "keep-all and constant substitutions decompose at 0; "
                    f"seeded searched code pinned at eps_nm = {searched_eps}")


def test_criterion_10_packing_inequalities():
    four22 = StabilizerCode(4, [pauli("XXXX"), pauli("ZZZZ")])
    dstar = pure_distance(four22)
    assert dstar == 2
    # Squared-mass inequality with exact rationals: all-depolarizing(p).
    for p in (Fraction(1, 5), Fraction(2, 5), Fraction(3, 5)):
        w = [1 - 3 * p / 4, p / 4, p / 4, p / 4]
        mass = stabilizer_mass([w] * 4, four22)
        eta = 3 * p / 4
        assert mass <= (1 - eta) ** min(4, dstar)
    # L1-mass inequality with exact rationals: amplitude damping with
    # gamma = 16/25 (all Pauli coefficients rational), eta = 9/25.
    table = [[Fraction(4, 5), Fraction(0), Fraction(0), Fraction(1, 5)],
             [Fraction(0), Fraction(2, 5), Fraction(2, 5), Fraction(0)]]
    total = normalizer_l1_mass([table] * 4, four22)
    assert total ** 25 <= Fraction(2) ** int(8 * Fraction(9, 25) * 4 * 25)
    # Pauli-mixture channel with perfect-square probabilities
    # (16/25, 4/25, 4/25, 1/25): |c| rows are one-hot with rational roots.
    one_hot = [[Fraction(4, 5), Fraction(0), Fraction(0), Fraction(0)],
               [Fraction(0), Fraction(2, 5), Fraction(0), Fraction(0)],
               [Fraction(0), Fraction(0), Fraction(2, 5), Fraction(0)],
               [Fraction(0), Fraction(0), Fraction(0), Fraction(1, 5)]]
    total2 = normalizer_l1_mass([one_hot] * 4, four22)
    assert total2 ** 25 <= Fraction(2) ** int(8 * Fraction(9, 25) * 4 * 25)
    report(10, True, "packing inequalities hold with exact rational "
                     "arithmetic on [[4,2,2]] with brute-forced pure distance")


def test_criterion_11_twise_pad():
    length, t = 8, 2
    seed_bits = twise_pad_seed_bits(t, length)
    pads = [twise_pad(seed, t, length) for seed in range(1 << seed_bits)]
    for i, j in itertools.combinations(range(length), 2):
        counts = {}
        for pad in pads:
            key = ((pad >> i) & 1, (pad >> j) & 1)
            counts[key] = counts.get(key, 0) + 1
        for key in itertools.product((0, 1), repeat=2):
            assert counts.get(key, 0) == len(pads) // 4, (i, j, key)
    report(11, True, f"exact pairwise uniformity over all {len(pads)} seeds "
                     f"at length {length}")


def test_criterion_12_determinism(tmp_path):
    outer = tmp_path / "outer.txt"
    outer.write_text("n=7 k=6\nZZZZZZZ\n", encoding="utf-8")
    outputs = []
    for tag in ("a", "b"):
        out_file = tmp_path / f"report_{tag}.json"
        rc = cli_run(["aqec", "simulate", "--pmd-n", "4", "--pmd-lambda", "2",
                      "--outer", str(outer), "--count", "2", "--seed", "11",
                      "--format", "json", "--out", str(out_file)])
        assert rc == 0
        outputs.append(out_file.read_bytes())
    assert outputs[0] == outputs[1]
    sweeps = []
    for tag in ("a", "b"):
        out_file = tmp_path / f"sweep_{tag}.csv"
        rc = cli_run(["sweep", "--points", "2:1,4:2", "--format", "csv",
                      "--out", str(out_file)])
        assert rc == 0
        sweeps.append(out_file.read_bytes())
    assert sweeps[0] == sweeps[1]
    report(12, True, "identical config+seed produce byte-identical reports "
                     "(aqec simulate JSON, sweep CSV)")
