import itertools
import math

import numpy as np
import pytest

from pmdkit.aqec import (ComposedCode, CorrectionCascade, ErasureAdversary,
                         HarnessReport, TaggedBranch, algorithm1_decode,
                         apply_adversary, compose, entangled_code_state,
                         erasure_harness, random_adversary)
from pmdkit.densesim import apply_pauli, maximally_entangled_overlap, phi_amplitudes
from pmdkit.limits import SizeGuardError
from pmdkit.pmd import build_pmd, measure_pmd_epsilon
from pmdkit.ptc import build_bcgst_family
from pmdkit.qlde import erasure_list_decode
from pmdkit.symplectic import PauliOperator, StabilizerCode, syndrome


def pauli(label):
    return PauliOperator.from_label(label)


def small_setup():
    """(2,1) detection code inside a [[4,3]] outer code."""
    pmd = build_pmd(build_bcgst_family(2, 1))
    outer = StabilizerCode(4, [pauli("ZZZZ")], name="[[4,3]]")
    return compose(pmd, outer)


def main_setup():
    """(4,2) detection code inside a [[7,6]] outer code."""
    pmd = build_pmd(build_bcgst_family(4, 2))
    outer = StabilizerCode(7, [pauli("ZZZZZZZ")], name="[[7,6]]")
    return compose(pmd, outer)


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

def test_trivial_outer_code_composition():
    pmd = build_pmd(build_bcgst_family(2, 1))
    outer = StabilizerCode(3, [], name="trivial")
    code = compose(pmd, outer)
    assert np.allclose(code.encoder_isometry(), pmd.encoder, atol=1e-12)


def test_composed_isometry_and_projector_rank():
    code = small_setup()
    b = code.encoder_isometry()
    assert b.shape == (16, 2)
    assert np.allclose(b.conj().T @ b, np.eye(2), atol=1e-10)
    assert abs(np.trace(b @ b.conj().T).real - 2.0) < 1e-9


def test_compose_size_mismatch():
    pmd = build_pmd(build_bcgst_family(2, 1))
    with pytest.raises(ValueError, match="outer code must encode 3"):
        compose(pmd, StabilizerCode(4, [pauli("XXXX"), pauli("ZZZZ")]))


# ---------------------------------------------------------------------------
# Adversaries
# ---------------------------------------------------------------------------

def test_adversary_cptp_enforced():
    with pytest.raises(ValueError, match="trace preserving"):
        ErasureAdversary(2, ((0.5 * np.eye(2, dtype=complex), (0,)),), 1)


def test_adversary_cptp_check_on_two_supports():
    # |+><+| (x) I + I (x) I/2 on qubits (0, 2): the sum misses the
    # identity only off the diagonal.
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    half = np.sqrt(0.5) * np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match="trace preserving"):
        ErasureAdversary(4, ((plus, (0,)), (half, (2,))), 1)
    ok = ErasureAdversary(4, ((half, (0,)), (half, (2,))), 1)
    assert [s for _, s in ok.branches] == [(0,), (2,)]
    # Measure qubit 2; on outcome 1 also rotate qubit 0.  Qubit 2 is the
    # high bit of the (0, 2) branch, the only bit of the (2,) branch.
    ket0, ket1 = np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)
    rot = np.array([[0, 1j], [1, 0]], dtype=complex)
    ErasureAdversary(4, ((ket0, (2,)), (np.kron(ket1, rot), (0, 2))), 2)


def test_adversary_cptp_check_on_supports_of_every_shape():
    # A branch on the whole union adds K^dag K as it is; one on a smaller
    # support is embedded.  Branches on two different supports pass only
    # with K^dag K proportional to I.
    rng = np.random.default_rng(3)
    u, v, w = (np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
               for d in (2, 4, 8))
    ErasureAdversary(3, ((np.sqrt(0.4) * u, (2,)), (np.sqrt(0.6) * v, (0, 1))), 2)
    ErasureAdversary(3, ((np.sqrt(0.2) * u, (1,)), (np.sqrt(0.5) * v, (0, 2)),
                         (np.sqrt(0.3) * w, (0, 1, 2))), 3)
    ket0, ket1 = np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)
    ErasureAdversary(3, ((ket0, (1,)), (ket1, (1,))), 1)
    for bad in (((ket0, (1,)), (ket1, (2,))),
                ((ket0, (0,)), (np.kron(ket1, np.eye(2)), (1, 2))),
                ((np.sqrt(0.5) * ket0, (1,)), (np.sqrt(0.5) * v, (0, 2)))):
        with pytest.raises(ValueError, match="adversary branches: .*trace preserving"):
            ErasureAdversary(3, bad, 2)


@pytest.mark.parametrize("entry", [np.nan, np.inf, 1e200], ids=["nan", "inf", "overflow"])
@pytest.mark.parametrize("other", [(0,), (1,)], ids=["same-support", "two-supports"])
def test_adversary_cptp_check_refuses_non_finite_kraus(entry, other):
    half = np.sqrt(0.5) * np.eye(2, dtype=complex)
    bad = half.copy()
    bad[1, 0] = entry
    with pytest.raises(ValueError, match="trace preserving"):
        ErasureAdversary(3, ((half, (0,)), (bad, other)), 1)


def test_identity_adversary_passes_cptp_check():
    adv = ErasureAdversary.identity(3)
    assert adv.branches[0][1] == ()
    assert ErasureAdversary(3, ((np.eye(1, dtype=complex), ()),), 0).mode == "adaptive"


def test_adversary_budget_enforced():
    with pytest.raises(ValueError, match="budget"):
        ErasureAdversary(3, ((np.eye(4, dtype=complex), (0, 1)),), 1)


def test_nonadaptive_mode_shape():
    adv = ErasureAdversary.nonadaptive(3, (1,))
    assert adv.mode == "nonadaptive" and len(adv.branches) == 1
    with pytest.raises(ValueError, match="exactly one"):
        ErasureAdversary(2, ((np.sqrt(0.5) * np.eye(2, dtype=complex), (0,)),
                             (np.sqrt(0.5) * np.eye(2, dtype=complex), (1,))),
                         1, mode="nonadaptive")


def test_identity_adversary_keeps_state():
    rng = np.random.default_rng(1)
    vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    vec /= np.linalg.norm(vec)
    out = apply_adversary(vec, ErasureAdversary.identity(3), 3)
    assert len(out) == 1
    assert out[0].erased == ()
    assert abs(out[0].weight - 1.0) < 1e-12
    assert np.allclose(out[0].vector, vec)


def density(vec, keep_qubits, n):
    """Reduced density matrix on keep_qubits from a pure state."""
    work = vec.reshape([2] * n, order="F")
    keep = list(keep_qubits)
    junk = [q for q in range(n) if q not in keep]
    mat = work.transpose(keep + junk).reshape(1 << len(keep), -1, order="F")
    return mat @ mat.conj().T


def test_erasure_matches_partial_trace_oracle():
    # Erasing qubit 0 must give (I/2) (x) Tr_0[rho] on the code block.
    rng = np.random.default_rng(2)
    vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    vec /= np.linalg.norm(vec)
    out = apply_adversary(vec, ErasureAdversary.nonadaptive(3, (0,)), 3)
    assert len(out) == 1 and out[0].erased == (0,)
    branch = out[0]
    got = density(branch.vector, (0, 1, 2), branch.n_qubits)
    rest = density(vec, (1, 2), 3)
    want = np.kron(rest, np.eye(2) / 2)  # kron: later qubits on the left
    assert np.allclose(got, want, atol=1e-10)


def test_double_erasure_matches_partial_trace_oracle():
    rng = np.random.default_rng(4)
    vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    vec /= np.linalg.norm(vec)
    out = apply_adversary(vec, ErasureAdversary.nonadaptive(3, (0, 1)), 3)
    branch = out[0]
    assert branch.n_qubits == 7  # two purification pairs appended
    got = density(branch.vector, (0, 1, 2), branch.n_qubits)
    rest = density(vec, (2,), 3)
    want = np.kron(rest, np.kron(np.eye(2) / 2, np.eye(2) / 2))
    assert np.allclose(got, want, atol=1e-10)


def test_adaptive_branches_carry_their_tags():
    # Measure qubit 0; on outcome 1, additionally corrupt and erase
    # qubit 1.  Branch supports differ, and the total is CPTP.
    k0 = np.diag([1, 0]).astype(complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    k1 = np.kron(x, np.diag([0, 1]).astype(complex))  # qubit 1 high within support
    adv = ErasureAdversary(2, ((k0, (0,)), (k1, (0, 1))), 2)
    plus = np.ones(4, dtype=complex) / 2
    out = apply_adversary(plus, adv, 2)
    assert sorted(b.erased for b in out) == [(0,), (0, 1)]
    assert abs(sum(b.weight for b in out) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# The coherent cascade
# ---------------------------------------------------------------------------

def test_cascade_dense_is_unitary():
    code = small_setup()
    corr = erasure_list_decode(code.outer, (1,), (0,))
    assert len(corr) == 2
    cascade = CorrectionCascade(corr, code)
    u = cascade.dense()
    assert u.shape == (64, 64)
    assert np.allclose(u.conj().T @ u, np.eye(64), atol=1e-10)


def _cascades():
    """Cascades of list length 1, 2 and 3 on [[4,3]] o PMD(2,1), and
    length 2 on [[7,6]] o PMD(4,2)."""
    small = small_setup()
    three = erasure_list_decode(small.outer, (0, 1), (0,))
    return [CorrectionCascade(erasure_list_decode(small.outer, (), (0,)), small),
            CorrectionCascade(erasure_list_decode(small.outer, (1,), (0,)), small),
            CorrectionCascade(three[:3], small),
            CorrectionCascade(erasure_list_decode(main_setup().outer, (3,), (0,)),
                              main_setup())]


@pytest.mark.parametrize("index", range(4))
def test_cascade_apply_matches_dense_on_flag_zero_inputs(index):
    cascade = _cascades()[index]
    n, flags = cascade.code.n, cascade.length
    assert flags == [1, 2, 3, 2][index]
    u = cascade.dense()
    rng = np.random.default_rng(20 + index)
    block = 1 << n
    # Every flag-|0> column at once, then random vectors.
    cols = cascade.apply(np.eye(block << flags, dtype=complex)[:, :block], n + flags, n)
    assert np.allclose(cols, u[:, :block], rtol=0, atol=1e-12)
    # decode appends the flags itself, after the revert and the outer decoder.
    cols = cascade.decode(np.eye(block, dtype=complex))
    assert np.allclose(cols, u[:, :block], rtol=0, atol=1e-12)
    for _ in range(3):
        vec = np.zeros(block << flags, dtype=complex)
        vec[:block] = rng.standard_normal(block) + 1j * rng.standard_normal(block)
        got = cascade.apply(vec, n + flags, n)
        assert np.allclose(got, u @ vec, rtol=0, atol=1e-12)
    # A reference qubit between the block and the flags rides along.
    from pmdkit.densesim import apply_on_qubits
    vec = np.zeros(block << (flags + 1), dtype=complex)
    vec[:2 * block] = rng.standard_normal(2 * block) + 1j * rng.standard_normal(2 * block)
    qubits = tuple(range(n)) + tuple(range(n + 1, n + 1 + flags))
    want = apply_on_qubits(u, qubits, vec, n + 1 + flags)
    got = cascade.apply(vec, n + 1 + flags, n + 1)
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    assert np.allclose(cascade.decode(vec[:2 * block]), want, rtol=0, atol=1e-12)


def test_flagless_branches_are_the_flagged_amplitudes_bit_for_bit():
    # Each flagless branch's Phi amplitudes, placed at the columns of its
    # flag pattern (failure at 0, success at 0-based step i at
    # (2^L - 1) ^ (2^i - 1)), are the flagged cascade's, on every (E, s)
    # whose flagged cascade fits the size guard: |E| <= 1 on
    # [[7,6]]∘PMD(4,2) and |E| <= 2 on both [[4,3]]∘PMD(2,1).
    import pmdkit.aqec as aqec
    pmd = build_pmd(build_bcgst_family(2, 1))
    cases = [(main_setup(), 1)] + [(compose(pmd, StabilizerCode(4, [pauli(label)])), 2)
                                   for label in ("ZZZZ", "XXXX")]
    compared = 0
    for code, top in cases:
        k, n = code.message_qubits, code.n
        msg, ref = tuple(range(k)), tuple(range(n, n + k))
        for size in range(top + 1):
            env = tuple(n + k + 2 * i for i in range(size))
            for erased in itertools.combinations(range(n), size):
                vec = aqec._erase_qubits(entangled_code_state(code), erased, n + k)
                posts = [(s_bits, post) for s_bits, post
                         in aqec.syndrome_projections(vec, code.outer)
                         if np.vdot(post, post).real > aqec.WEIGHT_TOL]
                state = code.erased_state(erased)
                for (s_bits, post), cascade, gram in zip(posts, state.cascades,
                                                         state.grams, strict=True):
                    flagged = phi_amplitudes(cascade.decode(post), msg, ref, env)
                    cols = flagged.shape[1] >> cascade.length
                    placed = np.zeros_like(flagged)
                    for pattern, branch in cascade.branches(post):
                        placed[:, pattern * cols:(pattern + 1) * cols] = \
                            phi_amplitudes(branch, msg, ref, env)
                    assert np.array_equal(placed, flagged)
                    assert np.abs(gram - flagged @ flagged.conj().T).max() <= 1e-15
                    compared += 1
        # One more erased qubit and the flagged cascade no longer fits.
        (cascade, *_) = code.erased_state(tuple(range(top + 1))).cascades
        with pytest.raises(SizeGuardError, match="algorithm2_unitary"):
            cascade.decode(np.zeros(1 << (n + k + 2 * top + 2), dtype=complex))
    assert compared == (1 + 7 * 2) + 2 * (1 + 4 * 2 + 6 * 2)


def seed606_adversaries(code, count=100):
    """The adversaries of `aqec simulate --count 100 --seed 606`."""
    rng = np.random.default_rng(np.random.Philox(606))
    return [random_adversary(code.n, 1, rng) for _ in range(count)]


def test_decode_equals_apply_on_every_seed606_input(monkeypatch):
    # Every cascade input of the seed-606 sweep: the narrow head gives the
    # same bits as `apply` on the branch with its flags already appended,
    # and each flagless branch is, bit for bit, the block of its flag
    # pattern in that vector.
    code = main_setup()
    real = CorrectionCascade.branches
    cascades = {}

    def checked(self, vec):
        got = real(self, vec)
        n, dim = vec.shape[0].bit_length() - 1, vec.shape[0]
        flagged = self.decode(vec)
        widened = np.zeros(dim << self.length, dtype=complex)
        widened[:dim] = vec
        assert np.array_equal(flagged, self.apply(widened, n + self.length, n))
        assert [pattern for pattern, _ in got] == sorted({0} | {
            (1 << self.length) - (1 << i) for i in range(self.length)})
        for pattern, branch in got:
            assert np.array_equal(branch, flagged[pattern * dim:(pattern + 1) * dim])
        cascades[id(self)] = self
        return got

    monkeypatch.setattr(CorrectionCascade, "branches", checked)
    eps = measure_pmd_epsilon(code.pmd).value
    for adv in seed606_adversaries(code):
        erasure_harness(code, adv, eps)
    # Erased qubit 0..6 x syndrome 0/1, one cascade each.
    assert len(cascades) == 14


def test_seed606_decodes_each_erased_set_and_syndrome_once(monkeypatch, capsys, tmp_path):
    # One list decode and one cascade per (erased set, syndrome) of the
    # code; building them per branch and outcome made 336 of each.
    import pmdkit.aqec as aqec
    from pmdkit.cli import run
    decodes, built = [], []
    real_decode, real_cascade = aqec.erasure_list_decode, aqec.CorrectionCascade

    def counted_decode(outer, erased, s_bits):
        decodes.append((erased, s_bits))
        return real_decode(outer, erased, s_bits)

    def counted_cascade(corrections, code):
        built.append(corrections)
        return real_cascade(corrections, code)

    monkeypatch.setattr(aqec, "erasure_list_decode", counted_decode)
    monkeypatch.setattr(aqec, "CorrectionCascade", counted_cascade)
    outer = tmp_path / "outer.txt"
    outer.write_text("n=7 k=6\nZZZZZZZ\n")
    assert run(["aqec", "simulate", "--pmd-n", "4", "--pmd-lambda", "2",
                "--outer", str(outer), "--count", "100", "--seed", "606"]) == 0
    assert "RESULT: ok" in capsys.readouterr().out
    assert len(decodes) == len(set(decodes)) == 14
    assert len(built) == 14


def test_composed_isometry_is_computed_once_and_read_only():
    code = small_setup()
    iso = code.encoder_isometry()
    assert code.encoder_isometry() is iso
    assert not iso.flags.writeable
    with pytest.raises(ValueError):
        iso[0, 0] = 1.0
    # The same code built anew has its own memo, with equal contents.
    again = small_setup()
    assert again.encoder_isometry() is not iso
    assert np.array_equal(again.encoder_isometry(), iso)


def encoded_message(code, rng):
    psi = rng.standard_normal(1 << code.message_qubits) \
        + 1j * rng.standard_normal(1 << code.message_qubits)
    psi /= np.linalg.norm(psi)
    return psi, code.encoder_isometry() @ psi


def ideal_output(code, psi, flags_value, n_flags):
    """psi on the message qubits, everything else |0>, given flag bits."""
    dim = 1 << (code.n + n_flags)
    out = np.zeros(dim, dtype=complex)
    base = flags_value << code.n
    out[base:base + (1 << code.message_qubits)] = psi
    return out


def run_cascade_on_error(code, error, erased, rng):
    psi, encoded = encoded_message(code, rng)
    corrupted = apply_pauli(error, encoded)
    s = syndrome(code.outer, error)
    corr = erasure_list_decode(code.outer, erased, s)
    cascade = CorrectionCascade(corr, code)
    flags = len(corr)
    widened = np.zeros(corrupted.shape[0] << flags, dtype=complex)
    widened[: corrupted.shape[0]] = corrupted
    return psi, corr, cascade.apply(widened, code.n + flags, code.n)


def test_cascade_recovers_true_error_first_in_list():
    # L = 2 with the true error first: flags end in the |10...> pattern
    # read per flag, i.e. flag 1 set, trailing flags cascade to 1.
    code = small_setup()
    rng = np.random.default_rng(5)
    psi, corr, out = run_cascade_on_error(code, PauliOperator.identity(4), (1,), rng)
    assert [e.label() for e in corr] == ["IIII", "IZII"]
    want = ideal_output(code, psi, flags_value=0b11, n_flags=2)
    assert np.linalg.norm(out - want) < 1e-9  # identity is detected exactly


def test_cascade_recovers_second_element_within_bound():
    code = small_setup()
    eps = measure_pmd_epsilon(code.pmd).value
    rng = np.random.default_rng(6)
    psi, corr, out = run_cascade_on_error(code, pauli("IZII"), (1,), rng)
    assert corr[1] == pauli("IZII").hermitian_form()
    want = ideal_output(code, psi, flags_value=0b10, n_flags=2)
    deviation = np.linalg.norm(out - want)
    assert deviation <= 2 * len(corr) * eps + 1e-9


def test_cascade_aux_states_orthogonal():
    # Ideal aux patterns for distinct accepted positions are orthogonal
    # flag strings; verify the realized outputs are near the pattern
    # subspaces and mutually consistent.
    code = small_setup()
    rng = np.random.default_rng(7)
    psi1, corr, out1 = run_cascade_on_error(code, PauliOperator.identity(4), (1,), rng)
    rng2 = np.random.default_rng(7)
    psi2, _, out2 = run_cascade_on_error(code, pauli("IZII"), (1,), rng2)
    assert np.allclose(psi1, psi2)
    ideal1 = ideal_output(code, psi1, 0b11, 2)
    ideal2 = ideal_output(code, psi2, 0b10, 2)
    assert abs(np.vdot(ideal1, ideal2)) < 1e-12


def test_cascade_superposition_trace_distance_bound():
    code = small_setup()
    eps = measure_pmd_epsilon(code.pmd).value
    rng = np.random.default_rng(8)
    psi, encoded = encoded_message(code, rng)
    phi = (encoded + apply_pauli(pauli("IZII"), encoded))
    phi /= np.linalg.norm(phi)
    corr = erasure_list_decode(code.outer, (1,), (0,))
    cascade = CorrectionCascade(corr, code)
    flags = len(corr)
    widened = np.zeros(phi.shape[0] << flags, dtype=complex)
    widened[: phi.shape[0]] = phi
    out = cascade.apply(widened, code.n + flags, code.n)
    # Best aux: project onto psi (x) |0 anc> (x) arbitrary flags.
    msg_dim = 1 << code.message_qubits
    anc_dim = 1 << (code.n - code.message_qubits)
    stacked = out.reshape(1 << flags, anc_dim, msg_dim)
    amps = stacked[:, 0, :] @ psi.conj()
    overlap = np.linalg.norm(amps)
    trace_distance = 2 * math.sqrt(max(0.0, 1 - overlap ** 2))
    assert trace_distance <= 3 * math.sqrt(eps) * len(corr) ** 0.75 + 1e-9


def test_cascade_apply_rejects_flags_inside_the_block():
    code = small_setup()
    cascade = CorrectionCascade(erasure_list_decode(code.outer, (1,), (0,)), code)
    vec = np.zeros(1 << 6, dtype=complex)
    with pytest.raises(ValueError, match="above the code block"):
        cascade.apply(vec, 6, 3)
    with pytest.raises(ValueError, match="above the code block"):
        cascade.apply(vec, 6, 5)


def test_cascade_rejects_empty_list():
    code = small_setup()
    empty = erasure_list_decode(code.outer, (), (1,))
    with pytest.raises(ValueError, match="nonempty"):
        CorrectionCascade(empty, code)


# ---------------------------------------------------------------------------
# Algorithm 1: exact syndrome expansion
# ---------------------------------------------------------------------------

def test_decode_clean_branch_single_outcome():
    code = small_setup()
    rng = np.random.default_rng(9)
    psi, encoded = encoded_message(code, rng)
    branch = TaggedBranch(1.0, encoded, ())
    decoded, max_list = algorithm1_decode(branch, code)
    assert max_list == 1
    assert len(decoded) == 1
    out = decoded[0]
    assert abs(out.weight - 1.0) < 1e-12
    want = ideal_output(code, psi, flags_value=1, n_flags=1)
    assert np.linalg.norm(out.vector - want) < 1e-9


def test_decode_weight_conservation():
    code = small_setup()
    rng = np.random.default_rng(10)
    _, encoded = encoded_message(code, rng)
    tagged = apply_adversary(encoded, ErasureAdversary.nonadaptive(4, (2,)), 4)
    total = 0.0
    for branch in tagged:
        decoded, _ = algorithm1_decode(branch, code)
        total += sum(b.weight for b in decoded)
    assert abs(total - 1.0) < 1e-9


def test_decode_raises_on_inconsistent_tag():
    # An X error with no erased support leaves a nonzero-probability
    # syndrome whose correction list is empty.
    code = small_setup()
    rng = np.random.default_rng(11)
    _, encoded = encoded_message(code, rng)
    corrupted = apply_pauli(pauli("XIII"), encoded)
    # The memoized empty list raises on every call, not just the first.
    for _ in range(2):
        with pytest.raises(RuntimeError, match="no supported correction"):
            algorithm1_decode(TaggedBranch(1.0, corrupted, ()), code)


# ---------------------------------------------------------------------------
# End-to-end harness
# ---------------------------------------------------------------------------

def test_harness_identity_adversary_exact():
    code = main_setup()
    eps = measure_pmd_epsilon(code.pmd).value
    rep = erasure_harness(code, ErasureAdversary.identity(7), eps)
    assert rep.fidelity >= 1 - 1e-9
    assert rep.passed


def test_harness_single_erasure_regression():
    code = main_setup()
    eps = measure_pmd_epsilon(code.pmd).value
    rep = erasure_harness(code, ErasureAdversary.nonadaptive(7, (3,)), eps)
    assert rep.realized_list == 2
    assert abs(rep.fidelity - 0.94076538085937) < 1e-9  # pinned exact value
    assert rep.passed


def test_harness_seeded_adversaries_all_pass():
    code = main_setup()
    eps = measure_pmd_epsilon(code.pmd).value
    rng = np.random.default_rng(np.random.Philox(99))
    for _ in range(10):
        adv = random_adversary(7, 1, rng)
        rep = erasure_harness(code, adv, eps)
        assert rep.passed
        assert rep.fidelity <= 1 + 1e-9


def branch_harness(code, adv, epsilon):
    """The per-branch form of `erasure_harness`: every Kraus branch is
    erased, syndrome-projected and decoded on its own."""
    if adv.n != code.n:
        raise ValueError("adversary block length does not match the code")
    k = code.message_qubits
    state = entangled_code_state(code)
    n_state = code.n + k
    tagged = apply_adversary(state, adv, n_state)
    final = []
    realized = 1
    for branch in tagged:
        decoded, max_list = algorithm1_decode(branch, code)
        realized = max(realized, max_list)
        final.extend(decoded)
    msg = tuple(range(k))
    ref = tuple(range(code.n, code.n + k))
    fidelity = sum(b.weight * maximally_entangled_overlap([(1.0, b.vector)], msg, ref)
                   for b in final)
    bound = float(1.0 - 3.0 * np.sqrt(epsilon) * realized ** 0.75)
    return HarnessReport(float(fidelity), realized, bound,
                         passed=bool(fidelity >= bound - 1e-9),
                         branch_count=len(final))


def _report_or_error(harness, code, adv, eps):
    try:
        return harness(code, adv, eps)
    except (SizeGuardError, RuntimeError, ValueError) as exc:
        return exc


def assert_harnesses_agree(code, adversaries):
    """erasure_harness against branch_harness, each on its own code
    object as the CLI shares one; returns the oracle's outcomes, an error
    as its type.  Where only the oracle's flagged cascade is too wide,
    the harness scores the adversary."""
    eps = measure_pmd_epsilon(code.pmd).value
    oracle_code = ComposedCode(code.pmd, code.outer)
    outcomes = []
    for adv in adversaries:
        want = _report_or_error(branch_harness, oracle_code, adv, eps)
        got = _report_or_error(erasure_harness, code, adv, eps)
        if isinstance(want, Exception):
            outcomes.append(type(want))
            if "algorithm2_unitary" in str(want):
                assert isinstance(got, HarnessReport)
            else:
                assert type(got) is type(want) and str(got) == str(want)
            continue
        outcomes.append(want)
        assert abs(got.fidelity - want.fidelity) <= 1e-12
        assert (got.realized_list, got.branch_count, got.passed, got.bound) \
            == (want.realized_list, want.branch_count, want.passed, want.bound)
    return outcomes


def test_harness_matches_branch_oracle_on_seed606():
    code = main_setup()
    outcomes = assert_harnesses_agree(code, seed606_adversaries(code))
    assert all(isinstance(rep, HarnessReport) and rep.passed for rep in outcomes)


def test_harness_matches_branch_oracle_at_budgets_2_and_3():
    rng = np.random.default_rng(np.random.Philox(5))
    adversaries = ([random_adversary(4, 2, rng) for _ in range(30)]
                   + [random_adversary(4, 3, rng) for _ in range(20)])
    small = small_setup()
    outcomes = assert_harnesses_agree(small, adversaries)
    assert SizeGuardError in outcomes
    assert any(isinstance(rep, HarnessReport) and rep.realized_list == 8
               for rep in outcomes)
    # The oracle refuses the 32-entry lists of the 3-sets; the harness
    # scores every adversary.
    eps = measure_pmd_epsilon(small.pmd).value
    assert 32 in [erasure_harness(small, adv, eps).realized_list for adv in adversaries]
    rng = np.random.default_rng(np.random.Philox(5))
    code = main_setup()
    adversaries = [random_adversary(7, 2, rng) for _ in range(30)]
    outcomes = assert_harnesses_agree(code, adversaries)
    assert SizeGuardError in outcomes
    assert any(isinstance(rep, HarnessReport) for rep in outcomes)
    eps = measure_pmd_epsilon(code.pmd).value
    assert 8 in [erasure_harness(code, adv, eps).realized_list for adv in adversaries]


def test_harness_matches_branch_oracle_on_fixed_adversaries():
    rng = np.random.default_rng(12)
    u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    v = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    two_supports = ErasureAdversary(4, ((np.sqrt(0.3) * u, (1,)),
                                        (np.sqrt(0.7) * v, (0, 2))), 2)
    outcomes = assert_harnesses_agree(small_setup(), [
        ErasureAdversary.identity(4), ErasureAdversary.nonadaptive(4, (2,)),
        ErasureAdversary.nonadaptive(4, (0, 3)), two_supports])
    assert [rep.branch_count for rep in outcomes] == [1, 2, 2, 4]
    outcomes = assert_harnesses_agree(main_setup(), [
        ErasureAdversary.identity(7), ErasureAdversary.nonadaptive(7, (3,))])
    assert [rep.realized_list for rep in outcomes] == [1, 2]


def test_erased_width_guard_is_the_only_width_limit_of_scoring():
    # The erased state holds n + k + 2|E| qubits.  On [[7,6]]∘PMD(4,2),
    # n + k = 9, so the guard first fires at |E| = 3 (15 qubits), where
    # every list has 32 entries.  A 2-set (13 qubits, 8 entries) is
    # scored, although its flagged cascade (7 + 8 = 15 qubits) is refused.
    # Both harnesses raise before erasing a 3-set.
    code = main_setup()
    eps = measure_pmd_epsilon(code.pmd).value
    rep = erasure_harness(code, ErasureAdversary.nonadaptive(7, (0, 1)), eps)
    assert (rep.realized_list, rep.branch_count) == (8, 2)
    assert 0 < rep.fidelity < 1
    (cascade, *_) = code.erased_state((0, 1)).cascades
    with pytest.raises(SizeGuardError, match="algorithm2_unitary needs 15 qubits"):
        cascade.decode(np.zeros(1 << 13, dtype=complex))
    with pytest.raises(SizeGuardError, match="algorithm2_unitary needs 15 qubits"):
        cascade.apply(np.zeros(1 << 15, dtype=complex), 15, 7)
    with pytest.raises(SizeGuardError, match="cascade dense matrix needs 15 qubits"):
        cascade.dense()
    for erased in itertools.combinations(range(7), 3):
        for s_bits in ((0,), (1,)):
            assert len(erasure_list_decode(code.outer, erased, s_bits)) == 32
    for size in (3, 7):
        adv = ErasureAdversary.nonadaptive(7, tuple(range(size)))
        message = f"erased state needs {9 + 2 * size} qubits"
        for harness in (erasure_harness, branch_harness):
            with pytest.raises(SizeGuardError, match=message):
                harness(code, adv, eps)
        assert tuple(range(size)) not in code._erased
    # On [[4,3]]∘PMD(2,1) the widest erased state has 5 + 8 = 13 qubits:
    # it passes the erased-state guard and is scored with its 64-entry
    # list, which the flagged cascade refuses.
    small = small_setup()
    assert small.n + small.message_qubits + 2 * small.n <= 14
    cascades = small.erased_state((0, 1, 2, 3)).cascades
    assert [cascade.length for cascade in cascades] == [64, 64]
    (cascade, _) = cascades
    with pytest.raises(SizeGuardError, match="algorithm2_unitary needs 68 qubits"):
        cascade.decode(np.zeros(1 << 13, dtype=complex))


def test_too_wide_branch_of_weight_zero_is_still_skipped():
    code = main_setup()
    eps = measure_pmd_epsilon(code.pmd).value
    u = np.linalg.qr(np.arange(4).reshape(2, 2) + 1j * np.eye(2))[0]
    alone = ErasureAdversary(7, ((u, (0,)),), 3)
    with_zero = ErasureAdversary(7, ((u, (0,)), (np.zeros((8, 8)), (0, 1, 2))), 3)
    want = erasure_harness(code, alone, eps)
    assert erasure_harness(code, with_zero, eps) == want
    oracle = branch_harness(code, with_zero, eps)
    assert abs(oracle.fidelity - want.fidelity) <= 1e-12
    assert oracle.branch_count == want.branch_count == 2


def test_erased_set_memo_keeps_no_state_sized_vector():
    code = main_setup()
    eps = measure_pmd_epsilon(code.pmd).value
    rng = np.random.default_rng(np.random.Philox(5))
    raised = set()
    for adv in [random_adversary(7, 3, rng) for _ in range(30)]:
        try:
            erasure_harness(code, adv, eps)
        except SizeGuardError:
            raised.update(erased for _, erased in adv.branches if len(erased) >= 3)
    # The erased-state guard refuses every triple, and a refused set is
    # not kept; pairs are scored and kept.
    assert raised and not raised & set(code._erased)
    assert {len(erased) for erased in code._erased} == {1, 2}
    assert code._erased
    # Only the cascades and 2^|E| x 2^|E| Gram matrices stay.
    for erased, state in code._erased.items():
        side = 1 << len(erased)
        assert set(vars(state)) == {"cascades", "grams"}
        assert state.grams.shape == (len(state.cascades), side, side)


def test_outer_syndrome_is_uniform_over_the_outcomes_an_erased_set_allows():
    # The fact `erasure_harness` rests on: after the refill, outcome s has
    # environment Gram rho_E / m at each of the m outcomes whose list is
    # nonempty, and probability 0 at every other.
    import pmdkit.aqec as aqec
    from pmdkit.densesim import qubit_rows
    from pmdkit.limits import max_qubits
    pmd = build_pmd(build_bcgst_family(2, 1))
    codes = [compose(pmd, StabilizerCode(4, [pauli(label)])) for label in ("ZZZZ", "XXXX")]
    codes.append(main_setup())
    for code in codes:
        psi0 = aqec.entangled_code_state(code)
        n_now = code.n + code.message_qubits
        env_size = (max_qubits() - n_now) // 2
        for size in range(env_size + 1):
            for erased in itertools.combinations(range(code.n), size):
                m = qubit_rows(psi0, erased)
                rho = m @ m.conj().T
                env = tuple(n_now + 2 * i for i in range(size))
                vec = aqec._erase_qubits(psi0, erased, n_now)
                allowed = []
                for s_bits, post in aqec.syndrome_projections(vec, code.outer):
                    if erasure_list_decode(code.outer, erased, s_bits):
                        rows = qubit_rows(post, env)
                        allowed.append(rows @ rows.conj().T)
                    else:
                        assert np.vdot(post, post).real <= aqec.WEIGHT_TOL
                for gram in allowed:
                    assert np.abs(gram - rho / len(allowed)).max() <= 1e-12


def test_a_zero_weight_branch_erases_nothing_and_a_set_is_erased_once(monkeypatch):
    import pmdkit.aqec as aqec
    code = main_setup()
    eps = measure_pmd_epsilon(code.pmd).value
    erased, real = [], aqec._erase_qubits

    def counted(vec, support, n_now):
        erased.append(support)
        return real(vec, support, n_now)

    monkeypatch.setattr(aqec, "_erase_qubits", counted)
    zero_then_unit = ErasureAdversary(7, ((np.zeros((2, 2)), (3,)), (np.eye(2), (0,))), 1)
    fidelities = [erasure_harness(code, adv, eps).fidelity
                  for adv in (zero_then_unit, ErasureAdversary.nonadaptive(7, (3,)))]
    assert erased == [(0,), (3,)]
    assert fidelities == [0.9409637451171837, 0.9407653808593712]


def test_seed606_erases_each_set_once_and_runs_no_branch(monkeypatch):
    import pmdkit.aqec as aqec
    code = main_setup()
    eps = measure_pmd_epsilon(code.pmd).value
    calls = {"erase": 0, "adversary": 0, "decode": 0, "branches": 0}
    real_erase, real_branches = aqec._erase_qubits, CorrectionCascade.branches

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(aqec, "_erase_qubits", counted("erase", real_erase))
    monkeypatch.setattr(aqec, "apply_adversary", counted("adversary", apply_adversary))
    monkeypatch.setattr(CorrectionCascade, "decode", counted("decode", CorrectionCascade.decode))
    monkeypatch.setattr(CorrectionCascade, "branches", counted("branches", real_branches))
    for adv in seed606_adversaries(code):
        erasure_harness(code, adv, eps)
    # Erased qubit 0..6 x syndrome 0/1, scored once each without the flags.
    assert calls == {"erase": 7, "adversary": 0, "decode": 0, "branches": 14}


def test_identity_adversary_builds_only_the_clean_list(monkeypatch):
    import pmdkit.aqec as aqec
    code = main_setup()
    built = []
    real = aqec.erasure_list_decode

    def counted(outer, erased, s_bits):
        built.append((erased, s_bits))
        return real(outer, erased, s_bits)

    monkeypatch.setattr(aqec, "erasure_list_decode", counted)
    rep = erasure_harness(code, ErasureAdversary.identity(7), 0.0)
    assert built == [((), (0,))]
    assert (rep.branch_count, rep.realized_list) == (1, 1)


def test_harness_raises_on_an_empty_list(monkeypatch):
    import pmdkit.aqec as aqec
    real = aqec.erasure_list_decode
    monkeypatch.setattr(aqec, "erasure_list_decode",
                        lambda outer, erased, s_bits: real(outer, erased, s_bits)[:0])
    code = main_setup()
    for _ in range(2):
        with pytest.raises(RuntimeError, match="no supported correction"):
            erasure_harness(code, ErasureAdversary.nonadaptive(7, (3,)), 0.5)


def test_harness_rejects_wrong_block_length():
    code = main_setup()
    with pytest.raises(ValueError, match="block length"):
        erasure_harness(code, ErasureAdversary.identity(6), 0.5)


def test_full_pipeline_weight_conservation():
    code = main_setup()
    state = entangled_code_state(code)
    rng = np.random.default_rng(np.random.Philox(55))
    for _ in range(3):
        adv = random_adversary(7, 1, rng)
        total = 0.0
        for branch in apply_adversary(state, adv, code.n + code.message_qubits):
            decoded, _ = algorithm1_decode(branch, code)
            total += sum(b.weight for b in decoded)
        assert abs(total - 1.0) < 1e-9


def dm_pauli_conj(p, rho):
    left = apply_pauli(p, rho)
    return apply_pauli(p, left.conj().T).conj().T


def test_harness_fidelity_against_density_matrix_oracle():
    # Independent re-computation of the single-erasure fidelity with a
    # completely different representation: dense density matrices, the
    # depolarizing form of erasure (instead of purified refill), and the
    # cascade materialized as a dense unitary.
    code = main_setup()
    eps = measure_pmd_epsilon(code.pmd).value
    erased = (3,)
    n, k = code.n, code.message_qubits
    total_q = n + k

    rho = np.outer(entangled_code_state(code), entangled_code_state(code).conj())
    # Erasure as the exact single-qubit depolarizing channel.
    acc = np.zeros_like(rho)
    for label in "IXYZ":
        p = PauliOperator.from_label(label)
        wide = PauliOperator(total_q, p.x << erased[0], p.z << erased[0], p.phase)
        acc += dm_pauli_conj(wide, rho) / 4
    rho = acc

    fidelity = 0.0
    for outcome in range(2):
        proj = rho.copy()
        g = code.outer.gens[0]
        wide_g = PauliOperator(total_q, g.x, g.z, g.phase)
        half = 0.5 * (proj + (1 - 2 * outcome) * apply_pauli(wide_g, proj))
        proj = 0.5 * (half + (1 - 2 * outcome)
                      * apply_pauli(wide_g, half.conj().T).conj().T)
        prob = float(np.trace(proj).real)
        if prob < 1e-12:
            continue
        corr = erasure_list_decode(code.outer, erased, (outcome,))
        cascade = CorrectionCascade(corr, code)
        flags = len(corr)
        u = cascade.dense()  # on code block + flags
        # Embed onto [code | ref | flags]: permute so the cascade sees
        # its qubits contiguously.
        dim_before = 1 << total_q
        big = np.zeros((dim_before << flags,) * 2, dtype=complex)
        big[:dim_before, :dim_before] = proj
        from pmdkit.densesim import apply_on_qubits
        qubits = tuple(range(n)) + tuple(range(total_q, total_q + flags))
        left = apply_on_qubits(u, qubits, big, total_q + flags)
        # U rho U^dag == (U (U rho)^dag)^dag with both row applications.
        conj = apply_on_qubits(u, qubits, left.conj().T,
                               total_q + flags).conj().T
        fidelity += _maxent_fidelity_from_density(conj, n, k, total_q + flags)
    rep = erasure_harness(code, ErasureAdversary.nonadaptive(7, erased), eps)
    assert abs(fidelity - rep.fidelity) < 1e-9


def _maxent_fidelity_from_density(rho, n, k, total):
    """<Phi| Tr_junk(rho) |Phi> with message [0,k) and reference [n,n+k)."""
    keep = list(range(k)) + list(range(n, n + k))
    junk = [q for q in range(total) if q not in keep]
    # order='F' keeps axis q == qubit q for both row and column indices.
    work = rho.reshape([2] * (2 * total), order="F")
    row_order = keep + junk
    col_order = [total + q for q in keep] + [total + q for q in junk]
    work = work.transpose(row_order + col_order)
    dk, dj = 1 << len(keep), 1 << len(junk)
    work = work.reshape((dk, dj, dk, dj), order="F")
    reduced = np.einsum("ajbj->ab", work)
    phi = np.zeros(dk, dtype=complex)
    for m in range(1 << k):
        phi[m | (m << k)] = 1.0
    phi /= np.linalg.norm(phi)
    return float(np.real(phi.conj() @ reduced @ phi))
