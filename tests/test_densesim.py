import itertools

import numpy as np
import pytest

from pmdkit import densesim as ds
from pmdkit import symplectic
from pmdkit.limits import SizeGuardError
from pmdkit.ptc import build_bcgst_family
from pmdkit.symplectic import (CliffordCircuit, PauliOperator, StabilizerCode,
                               css_from_classical, parse_code, standard_form_encoder)

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1, -1]).astype(complex)
PAULI_1Q = {"I": I2, "X": X, "Y": Y, "Z": Z}


def pauli(label):
    return PauliOperator.from_label(label)


def kron_label(label):
    """Little-endian tensor product: qubit 0 is the lowest index bit."""
    mat = np.eye(1)
    for ch in label:  # qubit j is the j-th character
        mat = np.kron(PAULI_1Q[ch], mat)
    return mat


REP3 = StabilizerCode(3, [pauli("ZZI"), pauli("IZZ")])
HAMMING_H = [[1, 0, 1, 0, 1, 0, 1], [0, 1, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1]]


# ---------------------------------------------------------------------------
# Pauli matrices
# ---------------------------------------------------------------------------

def test_pauli_matrix_single_qubit():
    assert np.array_equal(ds.pauli_matrix(pauli("I")), I2)
    assert np.array_equal(ds.pauli_matrix(pauli("X")), X)
    assert np.allclose(ds.pauli_matrix(pauli("Y")), Y)
    assert np.array_equal(ds.pauli_matrix(pauli("Z")), Z)


def test_pauli_matrix_matches_kron_exhaustive():
    for labels in itertools.product("IXYZ", repeat=2):
        label = "".join(labels)
        assert np.allclose(ds.pauli_matrix(pauli(label)), kron_label(label))


def test_pauli_mul_is_matrix_product_exhaustive():
    # Exhaustive over all (x, z, phase) pairs on 1 and 2 qubits, and all
    # label pairs on 3 qubits.
    for n in (1, 2):
        ops = [PauliOperator(n, x, z, ph)
               for x in range(1 << n) for z in range(1 << n) for ph in range(4)]
        mats = {op: ds.pauli_matrix(op) for op in ops}
        for p, q in itertools.product(ops, repeat=2):
            prod = p.mul(q)
            assert np.allclose(ds.pauli_matrix(prod), mats[p] @ mats[q])


def test_pauli_mul_is_matrix_product_three_qubits():
    labels = ["".join(t) for t in itertools.product("IXYZ", repeat=3)]
    for la, lb in itertools.islice(itertools.product(labels, labels), 0, None, 41):
        p, q = pauli(la), pauli(lb)
        assert np.allclose(ds.pauli_matrix(p.mul(q)),
                           ds.pauli_matrix(p) @ ds.pauli_matrix(q))


def test_apply_pauli_matches_dense():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        p = PauliOperator(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)),
                          int(rng.integers(4)))
        vec = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        assert np.allclose(ds.apply_pauli(p, vec), ds.pauli_matrix(p) @ vec)
        mat = rng.standard_normal((1 << n, 3))
        assert np.allclose(ds.apply_pauli(p, mat), ds.pauli_matrix(p) @ mat)


def test_pauli_matrix_size_guard():
    with pytest.raises(SizeGuardError):
        ds.pauli_matrix(PauliOperator(20, 0, 0, 0))


# ---------------------------------------------------------------------------
# Gate application and circuits
# ---------------------------------------------------------------------------

def embed(u, qubits, n):
    """Reference embedding via explicit kron and index permutation."""
    full = np.zeros((1 << n, 1 << n), dtype=complex)
    m = len(qubits)
    rest = [q for q in range(n) if q not in qubits]
    for row_s, col_s in itertools.product(range(1 << m), repeat=2):
        for other in range(1 << (n - m)):
            row = sum(((row_s >> i) & 1) << q for i, q in enumerate(qubits))
            col = sum(((col_s >> i) & 1) << q for i, q in enumerate(qubits))
            pad = sum(((other >> i) & 1) << q for i, q in enumerate(rest))
            full[row | pad, col | pad] = u[row_s, col_s]
    return full


def test_apply_on_qubits_matches_embedding():
    rng = np.random.default_rng(7)
    for qubits in [(0,), (2,), (0, 1), (1, 0), (0, 2), (2, 0), (1, 2)]:
        m = len(qubits)
        u = rng.standard_normal((1 << m, 1 << m)) + 1j * rng.standard_normal((1 << m, 1 << m))
        vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        got = ds.apply_on_qubits(u, qubits, vec)
        assert np.allclose(got, embed(u, qubits, 3) @ vec)
        cols = rng.standard_normal((8, 2))
        got2 = ds.apply_on_qubits(u, qubits, cols)
        assert np.allclose(got2, embed(u, qubits, 3) @ cols)
    # The rows are the register: 2^n of them are n qubits, and no other
    # count is a register.
    for rows in (6, 12):
        with pytest.raises(ValueError, match=f"row dimension {rows} is not a power of two"):
            ds.apply_on_qubits(np.eye(2), (0,), np.ones((rows, 2)))
    with pytest.raises(ValueError, match="bad qubit list"):
        ds.apply_on_qubits(np.eye(2), (3,), np.ones(8))


def test_gate_conjugation_rules_match_matrices():
    # For every gate and every 2-qubit Pauli with every phase, the
    # symbolic conjugation must equal the dense conjugation exactly.
    gate_sets = [("h", (0,)), ("h", (1,)), ("s", (0,)), ("s", (1,)),
                 ("x", (0,)), ("z", (1,)), ("cnot", (0, 1)), ("cnot", (1, 0)),
                 ("cz", (0, 1)), ("cz", (1, 0))]
    for name, qubits in gate_sets:
        circ = CliffordCircuit(2, ((name, qubits),))
        if name == "cnot":
            u = np.zeros((4, 4), dtype=complex)
            for i in range(4):
                j = i ^ (1 << qubits[1]) if (i >> qubits[0]) & 1 else i
                u[j, i] = 1.0
        elif name == "cz":
            u = np.diag([(-1.0 + 0j) if ((i >> qubits[0]) & (i >> qubits[1]) & 1) else 1.0
                         for i in range(4)])
        else:
            u = embed(ds.GATE_MATRICES[name], qubits, 2)
        for x in range(4):
            for z in range(4):
                for ph in range(4):
                    p = PauliOperator(2, x, z, ph)
                    got = ds.pauli_matrix(circ.conjugate_pauli(p))
                    want = u @ ds.pauli_matrix(p) @ u.conj().T
                    assert np.allclose(got, want), (name, qubits, p)


def test_apply_circuit_matches_unitary():
    rng = np.random.default_rng(11)
    circ = CliffordCircuit(3, (("h", (0,)), ("cnot", (0, 1)), ("s", (2,)),
                               ("cz", (1, 2)), ("x", (0,)), ("z", (2,)),
                               ("cnot", (2, 0))))
    u = ds.circuit_unitary(circ)
    assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-12)
    vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    assert np.allclose(ds.apply_circuit(circ, vec), u @ vec)
    inv = ds.circuit_unitary(circ.inverse())
    assert np.allclose(inv @ u, np.eye(8), atol=1e-12)
    with pytest.raises(ValueError, match="power of two"):
        ds.apply_circuit(circ, np.ones(6))


def test_cancelled_gate_pairs_leave_every_unitary_bit_identical(monkeypatch):
    # Synthesis without the cancellation is the oracle: dropping a pair of
    # identical permutation or sign gates must not move a single bit.
    codes = [parse_code("n=7 k=6\nZZZZZZZ\n")]
    for n, lam in [(4, 2), (8, 2)]:
        codes += build_bcgst_family(n, lam).codes.values()
    kept = [standard_form_encoder(code) for code in codes]
    monkeypatch.setattr(symplectic, "_EXACT_INVOLUTIONS", ())
    full = [standard_form_encoder(code) for code in codes]
    assert (len(full[0]), len(kept[0])) == (17, 15)
    assert sum(len(a) - len(b) for a, b in zip(full, kept)) > 2
    for a, b in zip(full, kept):
        assert np.array_equal(ds.circuit_unitary(a), ds.circuit_unitary(b))


# ---------------------------------------------------------------------------
# Code-space isometries
# ---------------------------------------------------------------------------

def test_trivial_code_isometry_is_identity():
    code = StabilizerCode(2, [])
    assert np.allclose(ds.codespace_isometry(code), np.eye(4))


def test_rep3_isometry_spans_000_111():
    b = ds.codespace_isometry(REP3)
    assert b.shape == (8, 2)
    assert np.allclose(b.conj().T @ b, np.eye(2), atol=1e-12)
    proj = b @ b.conj().T
    want = np.zeros((8, 8))
    want[0, 0] = want[7, 7] = 1.0
    assert np.allclose(proj, want, atol=1e-12)


def test_isometry_projector_identity_small_codes():
    codes = [REP3,
             StabilizerCode(4, [pauli("XXXX"), pauli("ZZZZ")]),
             StabilizerCode(4, [pauli("XXXX"), pauli("ZZZZ")], name="alt"),
             css_from_classical(HAMMING_H, HAMMING_H)]
    for code in codes:
        b = ds.codespace_isometry(code)
        assert np.allclose(b.conj().T @ b, np.eye(1 << code.k), atol=1e-10)
        assert np.allclose(b @ b.conj().T, ds.codespace_projector(code), atol=1e-10)
        for g in code.gens:
            assert np.allclose(ds.apply_pauli(g, b), b, atol=1e-10)


def test_steane_projector_rank():
    code = css_from_classical(HAMMING_H, HAMMING_H)
    proj = ds.codespace_projector(code)
    assert abs(np.trace(proj).real - 2.0) < 1e-9
    assert np.allclose(proj @ proj, proj, atol=1e-10)
    assert np.allclose(proj, proj.conj().T, atol=1e-12)


# ---------------------------------------------------------------------------
# Operator norm
# ---------------------------------------------------------------------------

def test_operator_norm_basics():
    assert abs(ds.operator_norm(np.eye(8)) - 1.0) < 1e-12
    assert ds.operator_norm(np.zeros((4, 4))) == 0.0


def test_operator_norm_rank_one():
    u = np.array([2.0, 0, 0, 0])
    v = np.array([0, 3.0, 0, 0])
    assert abs(ds.operator_norm(np.outer(u, v)) - 6.0) < 1e-12


def test_operator_norm_power_iteration_path():
    rng = np.random.default_rng(3)
    diag = rng.uniform(0.0, 2.0, 1024)
    diag[17] = 3.5
    m = np.diag(diag.astype(complex))
    assert abs(ds.operator_norm(m) - 3.5) < 1e-9


def test_operator_norm_size_guard():
    with pytest.raises(SizeGuardError):
        ds.operator_norm(np.zeros((8192, 2)))


def test_norm_cross_check_isometry_vs_full():
    # |Pi E Pi| computed through the isometry equals the full dense norm.
    code = REP3
    b = ds.codespace_isometry(code)
    proj = b @ b.conj().T
    for label in ("XII", "ZZZ", "XXX", "YIZ"):
        e = ds.pauli_matrix(pauli(label))
        full = ds.operator_norm(proj @ e @ proj)
        small = ds.operator_norm(b.conj().T @ e @ b)
        assert abs(full - small) < 1e-10


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------

def test_non_cptp_rejected():
    with pytest.raises(ValueError, match="CPTP"):
        ds.check_trace_preserving([0.25 * np.eye(2)], 2, "channel")


def test_trace_preserving_tolerance_is_absolute_atol():
    # Every entry of sum K^dag K - I must be within ATOL, the diagonal too.
    ds.check_trace_preserving([(1 + 0.2 * ds.ATOL) * np.eye(2)], 2, "channel")
    with pytest.raises(ValueError, match="trace preserving.*CPTP"):
        ds.check_trace_preserving([(1 + 5 * ds.ATOL) * np.eye(2)], 2, "channel")
    with pytest.raises(ValueError, match="^adversary: "):
        ds.check_trace_preserving([np.eye(2) + 5 * ds.ATOL], 2, "adversary")


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, 1j * np.inf],
                         ids=["nan", "inf", "-inf", "imaginary-inf"])
def test_trace_preserving_refuses_non_finite_terms(entry):
    term = np.eye(2, dtype=complex)
    term[0, 1] = entry
    with pytest.raises(ValueError, match="CPTP"):
        ds.check_trace_preserving([term], 2, "channel")
    # A lazily made K^dag K that overflows or meets inf * 0 is refused the
    # same way, with no warning.
    kraus = np.array([[1e200, 0], [entry, 0]], dtype=complex)
    with pytest.raises(ValueError, match="CPTP"):
        ds.check_trace_preserving((k.conj().T @ k for k in [kraus]), 2, "channel")


def test_density_matrix_helpers_match_dense_products():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rho = m @ m.conj().T
    p = pauli("XYZ")
    dense_p = ds.pauli_matrix(p)
    assert np.allclose(ds.dm_conjugate_pauli(p, rho), dense_p @ rho @ dense_p.conj().T,
                       atol=1e-12)
    kraus = [np.sqrt(0.7) * I2, np.sqrt(0.3) * X]
    want = sum(np.kron(np.kron(I2, k), I2) @ rho @ np.kron(np.kron(I2, k), I2).conj().T
               for k in kraus)
    assert np.allclose(ds.dm_apply_single_qubit_kraus(kraus, 1, rho), want,
                       atol=1e-12)


# ---------------------------------------------------------------------------
# Entanglement fidelity
# ---------------------------------------------------------------------------

def choi_fidelity_oracle(kraus_ops, k):
    """Brute-force <Phi|(Lambda x I)(Phi)|Phi> with dense density matrices."""
    dim = 1 << k
    phi = np.zeros(dim * dim, dtype=complex)
    for m in range(dim):
        phi[m * dim + m] = 1.0  # row-major (msg, ref) pairing
    phi /= np.linalg.norm(phi)
    rho = np.outer(phi, phi.conj())
    out = np.zeros_like(rho)
    for kk in kraus_ops:
        big = np.kron(kk, np.eye(dim))
        out += big @ rho @ big.conj().T
    return float((phi.conj() @ out @ phi).real)


def channel_fidelity(kraus, qubits, k, n_system):
    """<Phi| rho |Phi> after the Kraus map acts on `qubits`, by
    `maximally_entangled_overlap` on one branch per Kraus operator.  Phi
    pairs message qubits 0..k-1 with reference qubits n_system..n_system+k-1;
    every other qubit starts in |0>."""
    n = n_system + k
    vec = np.zeros(1 << n, dtype=complex)
    for m in range(1 << k):
        vec[m | (m << n_system)] = 1 / np.sqrt(1 << k)
    branches = [(1.0, ds.apply_on_qubits(kk, qubits, vec)) for kk in kraus]
    return ds.maximally_entangled_overlap(branches, tuple(range(k)),
                                          tuple(range(n_system, n)))


def test_entanglement_fidelity_identity():
    fid = channel_fidelity([np.eye(2)], (0,), k=2, n_system=3)
    assert abs(fid - 1.0) < 1e-12


def test_entanglement_fidelity_trace_and_replace():
    # Replacing every qubit with |0> leaves fidelity 1/4^k.
    k = 2
    reset = [np.outer([1, 0], e) for e in np.eye(2)]
    kraus = [np.kron(b, a) for a in reset for b in reset]
    ds.check_trace_preserving([kk.conj().T @ kk for kk in kraus], 4, "replace")
    fid = channel_fidelity(kraus, (0, 1), k=k, n_system=k)
    oracle = choi_fidelity_oracle(kraus, k)
    assert abs(oracle - 1 / 4 ** k) < 1e-12
    assert abs(fid - oracle) < 1e-10


def test_entanglement_fidelity_dephasing_closed_form():
    # Phase damping, a Z measurement with probability p: fidelity 1 - p/2.
    p = 0.37
    kraus = [np.sqrt(1 - p) * I2, np.sqrt(p) * np.diag([1, 0]),
             np.sqrt(p) * np.diag([0, 1])]
    fid = channel_fidelity(kraus, (0,), k=1, n_system=1)
    oracle = choi_fidelity_oracle(kraus, 1)
    assert abs(oracle - (1 - p / 2)) < 1e-12
    assert abs(fid - oracle) < 1e-10
