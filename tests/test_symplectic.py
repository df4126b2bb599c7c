import itertools

import pytest

from pmdkit import f2, symplectic
from pmdkit.ptc import build_bcgst_family, measure_strong_ptc_error
from pmdkit.symplectic import (CliffordCircuit, PauliOperator, StabilizerCode,
                               css_from_classical, format_code,
                               is_logically_equivalent, normalizer_basis, parse_code,
                               standard_form_encoder, symplectic_product, syndrome)


def pauli(label):
    return PauliOperator.from_label(label)


REP3 = StabilizerCode(3, [pauli("ZZI"), pauli("IZZ")], name="rep3")
FOUR22 = StabilizerCode(4, [pauli("XXXX"), pauli("ZZZZ")], name="[[4,2,2]]")

HAMMING_H = [
    [1, 0, 1, 0, 1, 0, 1],
    [0, 1, 1, 0, 0, 1, 1],
    [0, 0, 0, 1, 1, 1, 1],
]


# ---------------------------------------------------------------------------
# Pauli algebra
# ---------------------------------------------------------------------------

def test_symplectic_product_basic_pairs():
    assert symplectic_product(pauli("XI"), pauli("ZI")) == 1
    assert symplectic_product(pauli("XZ"), pauli("ZX")) == 0
    for label in ("XZ", "YY", "IX"):
        assert symplectic_product(pauli(label), pauli("II")) == 0


def test_symplectic_product_size_mismatch():
    with pytest.raises(ValueError, match="size mismatch"):
        symplectic_product(pauli("X"), pauli("XX"))


def test_pauli_mul_inverse_is_identity():
    for label in ("X", "Y", "Z", "XYZI", "YZXY"):
        p = pauli(label)
        prod = p.mul(p.inverse())
        assert prod.is_identity() and prod.phase == 0


def test_pauli_mul_disjoint_supports():
    prod = pauli("XI").mul(pauli("IZ"))
    assert prod == pauli("XZ")
    assert prod.phase == 0


def test_label_roundtrip():
    for label in ("IXYZ", "YYII", "ZautomaticallyInvalid"[:1], "XZ"):
        assert pauli(label).label() == label


def test_weight_and_support():
    p = pauli("IXYZI")
    assert p.weight == 3
    assert p.support == (1, 2, 3)


def test_hermitian_form_phase_counts_ys():
    assert pauli("Y").phase == 1
    assert PauliOperator(2, 0b11, 0b11, 0).hermitian_form().phase == 2


# ---------------------------------------------------------------------------
# Syndromes, normalizers, logical structure
# ---------------------------------------------------------------------------

def test_syndrome_identity_and_stabilizers():
    for code in (REP3, FOUR22):
        assert syndrome(code, PauliOperator.identity(code.n)) == (0,) * code.r
        for s in code.stabilizer_group():
            assert syndrome(code, s) == (0,) * code.r


def test_syndrome_single_x_on_repetition_code():
    # X on qubit 1 anticommutes with both ZZI and IZZ except as below.
    assert syndrome(REP3, pauli("XII")) == (1, 0)
    assert syndrome(REP3, pauli("IXI")) == (1, 1)


def test_syndrome_size_mismatch():
    with pytest.raises(ValueError, match="size mismatch"):
        syndrome(REP3, pauli("XXXX"))


def test_syndrome_linearity():
    ops = [pauli(l) for l in ("XII", "IYZ", "ZZX", "YXY")]
    for p, q in itertools.product(ops, repeat=2):
        sp = syndrome(REP3, p)
        sq = syndrome(REP3, q)
        assert syndrome(REP3, p.mul(q)) == tuple(a ^ b for a, b in zip(sp, sq))


def test_trivial_code_normalizer_and_logicals():
    code = StabilizerCode(2, [], name="trivial")
    assert code.r == 0 and code.k == 2
    assert len(code.normalizer) == 4


def test_family_build_defers_normalizer_and_logicals(monkeypatch):
    real_basis = symplectic.normalizer_basis
    calls = []
    monkeypatch.setattr(symplectic, "normalizer_basis",
                        lambda code: calls.append("normalizer") or real_basis(code))
    family = build_bcgst_family(4, 2)
    assert calls == []
    for code in family.codes.values():
        assert code.normalizer == tuple(real_basis(code))
        assert code.normalizer is code.normalizer  # derived once, then cached
    assert calls.count("normalizer") == family.num_keys


def brute_normalizer(code):
    """All Paulis (mod phase) with zero syndrome, by exhaustive scan."""
    found = []
    for x in range(1 << code.n):
        for z in range(1 << code.n):
            p = PauliOperator(code.n, x, z, 0)
            if not any(syndrome(code, p)):
                found.append(p)
    return found


def test_normalizer_basis_matches_exhaustive_scan():
    for code in (REP3, FOUR22):
        basis = code.normalizer
        assert len(basis) == 2 * code.n - code.r
        vecs = [p.symplectic_vector() for p in basis]
        assert f2.rank(vecs, 2 * code.n) == len(basis)
        for p in basis:
            assert not any(syndrome(code, p))
        # Span must be exactly the commutant found by brute force.
        pivots, reduced = f2.rref(vecs, 2 * code.n)
        brute = brute_normalizer(code)
        assert len(brute) == 1 << len(basis)
        for p in brute:
            assert f2.span_contains(pivots, reduced, p.symplectic_vector())


FIVE1 = StabilizerCode(5, [pauli("XZZXI"), pauli("IXZZX"),
                           pauli("XIXZZ"), pauli("ZXIXZ")], name="[[5,1]]")


def test_stabilizer_group_size_mod_phase():
    for code in (REP3, FOUR22, FIVE1):
        group = {(s.x, s.z) for s in code.stabilizer_group()}
        assert len(group) == 1 << code.r


def test_zero_syndrome_paulis_in_normalizer_span_n5():
    # Exhaustive scan at n = 5 via vectorized commutation parities.
    import numpy as np
    from pmdkit.densesim import f2_parity_array
    code = FIVE1
    dim = 1 << code.n
    codes_int = np.arange(1 << (2 * code.n), dtype=np.uint64)
    ex = codes_int & np.uint64(dim - 1)
    ez = codes_int >> np.uint64(code.n)
    in_normalizer = np.ones(codes_int.shape[0], dtype=bool)
    for g in code.gens:
        bit = f2_parity_array(ex & np.uint64(g.z)) ^ f2_parity_array(ez & np.uint64(g.x))
        in_normalizer &= bit == 0
    assert int(in_normalizer.sum()) == 1 << len(code.normalizer)
    pivots, reduced = f2.rref([p.symplectic_vector() for p in code.normalizer],
                              2 * code.n)
    for vec in codes_int[in_normalizer][:: 37]:  # spot-check the span
        v = int(vec & np.uint64(dim - 1)) | (int(vec >> np.uint64(code.n)) << code.n)
        assert f2.span_contains(pivots, reduced, v)


def test_repetition_code_logicals():
    # XXX and ZII are logical: in N(Q), outside S(Q), and together with
    # S(Q) they span all of N(Q) (2n - r = r + 2k = 4 dimensions).
    pivots, reduced = f2.rref([p.symplectic_vector() for p in REP3.normalizer], 6)
    logicals = [pauli(label) for label in ("XXX", "ZII")]
    for p in logicals:
        assert f2.span_contains(pivots, reduced, p.symplectic_vector())
        assert not REP3.contains_in_stabilizer(p)
    vecs = [p.symplectic_vector() for p in list(REP3.gens) + logicals]
    assert f2.rank(vecs, 6) == len(REP3.normalizer) == REP3.r + 2 * REP3.k


def test_is_logically_equivalent():
    code = REP3
    p = pauli("XXX")
    assert is_logically_equivalent(code, p, p)
    assert is_logically_equivalent(code, p, p.mul(code.gens[0]))
    assert not is_logically_equivalent(code, pauli("XXX"), pauli("XII"))


def test_logical_equivalence_against_exhaustive_group():
    group = {(s.x, s.z) for s in FOUR22.stabilizer_group()}
    for x1, z1 in itertools.product(range(4), repeat=2):
        p = PauliOperator(4, x1, z1, 0)
        q = pauli("XYZX")
        diff = p.mul(q.inverse())
        assert is_logically_equivalent(FOUR22, p, q) == ((diff.x, diff.z) in group)


# ---------------------------------------------------------------------------
# CSS construction
# ---------------------------------------------------------------------------

def test_steane_from_hamming():
    code = css_from_classical(HAMMING_H, HAMMING_H, name="steane")
    assert (code.n, code.k, code.r) == (7, 1, 6)
    x_type = [g for g in code.gens if g.z == 0]
    z_type = [g for g in code.gens if g.x == 0]
    assert len(x_type) == 3 and len(z_type) == 3


def test_css_trivial_full_spaces():
    # Zero checks on each side: both classical codes are the full space.
    code = css_from_classical([[0, 0, 0]], [[0, 0, 0]])
    assert (code.n, code.k) == (3, 3)
    with pytest.raises(ValueError):
        css_from_classical([], [])  # block length undetermined


def test_css_containment_violation():
    # C2 = {000, 111} needs its dual inside C1; pick H1 that excludes 110.
    h1 = [[1, 1, 0]]
    h2 = [[1, 1, 0], [0, 1, 1]]
    with pytest.raises(ValueError, match="containment"):
        css_from_classical(h1, h2)


def test_css_generator_structure_four22():
    code = css_from_classical([[1, 1, 1, 1]], [[1, 1, 1, 1]])
    assert (code.n, code.k) == (4, 2)
    labels = sorted(g.label() for g in code.gens)
    assert labels == ["XXXX", "ZZZZ"]


# ---------------------------------------------------------------------------
# Encoder circuits (symplectic checks; dense checks live in test_densesim)
# ---------------------------------------------------------------------------

def test_trivial_code_encoder_is_empty():
    code = StabilizerCode(3, [])
    assert len(code.encoder) == 0


def signed_stabilizer_group(code):
    """All 2^r signed products of the generators, phases included."""
    elements = [PauliOperator.identity(code.n)]
    for g in code.gens:
        elements += [e.mul(g) for e in elements]
    return elements


def test_encoder_conjugates_ancilla_zs_into_signed_stabilizer_group():
    # Row operations during reduction may mix generators, but every
    # conjugated ancilla Z must be an exactly +1-signed group element,
    # and together they must be independent.
    for code in (REP3, FOUR22, css_from_classical(HAMMING_H, HAMMING_H)):
        enc = code.encoder
        signed = {(e.x, e.z, e.phase) for e in signed_stabilizer_group(code)}
        images = []
        for i in range(code.r):
            z_anc = PauliOperator(code.n, 0, 1 << (code.k + i), 0)
            h = enc.conjugate_pauli(z_anc)
            assert (h.x, h.z, h.phase) in signed
            images.append(h.symplectic_vector())
        assert f2.rank(images, 2 * code.n) == code.r


def test_encoder_deterministic():
    a = standard_form_encoder(REP3)
    b = standard_form_encoder(REP3)
    assert a == b


def test_encoder_alternate_pivot_differs_but_valid():
    code = FOUR22
    alt = standard_form_encoder(code, pivot="high")
    for i, g in enumerate(code.gens):
        z_anc = PauliOperator(code.n, 0, 1 << (code.k + i), 0)
        assert alt.conjugate_pauli(z_anc) == g
    with pytest.raises(ValueError, match="pivot"):
        standard_form_encoder(code, pivot="middle")


def test_encoder_is_synthesized_on_first_use_only(monkeypatch):
    calls = []
    synthesize = symplectic.standard_form_encoder

    def counted(code, pivot="low"):
        calls.append(code)
        return synthesize(code, pivot)

    monkeypatch.setattr(symplectic, "standard_form_encoder", counted)
    family = build_bcgst_family(12, 6)
    measure_strong_ptc_error(family, samples=2000, seed=0)
    assert calls == []
    code = family.codes[5]
    assert code.encoder is code.encoder
    assert calls == [code]
    assert code.encoder.gates == synthesize(code).gates


def test_bad_encoder_pivot_rejected_at_construction():
    with pytest.raises(ValueError, match="pivot"):
        StabilizerCode(3, [pauli("ZZI")], encoder_pivot="middle")


def test_encoder_has_no_adjacent_cancelling_pairs():
    decoder = parse_code("n=7 k=6\nZZZZZZZ\n").encoder.inverse()
    assert len(decoder) == 15
    for code in build_bcgst_family(12, 6).codes.values():
        gates = code.encoder.gates
        assert not any(g == h and g[0] in ("x", "z", "cnot", "cz")
                       for g, h in zip(gates, gates[1:]))


def test_circuit_inverse_roundtrip_on_paulis():
    circ = FOUR22.encoder
    inv = circ.inverse()
    for label in ("XIII", "IZYI", "YYXZ"):
        p = pauli(label)
        assert inv.conjugate_pauli(circ.conjugate_pauli(p)) == p


def _inverse_with_s_cubed(circ):
    """The former `CliffordCircuit.inverse`: every S became three S gates."""
    gates = []
    for gate in reversed(circ.gates):
        gates.extend([gate] * (3 if gate[0] == "s" else 1))
    return CliffordCircuit(circ.n, tuple(gates))


@pytest.mark.parametrize("pivot", ["low", "high"])
def test_circuit_inverse_is_an_involution_on_encoders(pivot):
    # Each encoder S is an S^3 run of the inverted reduction, so inverting
    # returns the reduction, and its former inverse rebuilds the encoder.
    shrunk = {}
    for n, lam in [(2, 1), (4, 2), (6, 3), (8, 2), (12, 6)]:
        codes = build_bcgst_family(n, lam, encoder_pivot=pivot).codes.values()
        for code in codes:
            circ = code.encoder
            assert circ.inverse().inverse() == circ
            assert _inverse_with_s_cubed(circ.inverse()) == circ
        shrunk[n, lam] = (sum(len(_inverse_with_s_cubed(c.encoder)) for c in codes),
                          sum(len(c.encoder.inverse()) for c in codes))
    if pivot == "low":
        assert shrunk[8, 2] == (229, 93) and shrunk[12, 6] == (11789, 5493)
    circ = CliffordCircuit(1, (("s", (0,)),) * 5 + (("h", (0,)),) * 2)
    assert circ.inverse().gates == (("h", (0,)),) * 2 + (("s", (0,)),) * 3


def test_inverse_encoders_act_as_the_former_s_cubed_form():
    # Runs of S shrink mod 4; on every state the result is bit-equal.
    import numpy as np

    from pmdkit.densesim import apply_circuit
    rng = np.random.default_rng(19)
    for n, lam in [(4, 2), (6, 3), (8, 2)]:
        for code in build_bcgst_family(n, lam).codes.values():
            vecs = rng.standard_normal((1 << n, 3)) + 1j * rng.standard_normal((1 << n, 3))
            assert np.array_equal(apply_circuit(code.encoder.inverse(), vecs),
                                  apply_circuit(_inverse_with_s_cubed(code.encoder), vecs))


# ---------------------------------------------------------------------------
# Code validation and text format
# ---------------------------------------------------------------------------

def test_anticommuting_generators_rejected():
    with pytest.raises(ValueError, match="anticommute"):
        StabilizerCode(1, [pauli("X"), pauli("Z")])


def test_dependent_generators_rejected():
    with pytest.raises(ValueError, match="dependent"):
        StabilizerCode(2, [pauli("XX"), pauli("XX")])
    with pytest.raises(ValueError, match="dependent"):
        StabilizerCode(3, [pauli("XXI"), pauli("IXX"), pauli("XIX")])


def test_construction_row_reduces_the_generators_once(monkeypatch):
    calls = []

    def counting_rref(rows, ncols):
        calls.append(ncols)
        return rref(rows, ncols)

    rref = f2.rref
    monkeypatch.setattr(f2, "rref", counting_rref)
    build_bcgst_family(12, 6)
    # One 24-column reduction per key's code; the dual basis's checks
    # reduce 6- and 7-column rows.
    assert calls.count(24) == 64


def test_format_parse_roundtrip():
    for code in (REP3, FOUR22):
        text = format_code(code)
        back = parse_code(text)
        assert back.n == code.n and back.k == code.k
        assert [g.label() for g in back.gens] == [g.label() for g in code.gens]


def test_parse_rejects_with_line_numbers():
    with pytest.raises(ValueError, match="lines 2 and 3"):
        parse_code("n=1 k=-1\nX\nZ\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_code("n=2 k=0\nXX\nXX\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_code("n=2 k=1\nXQ\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_code("bogus header\nXX\n")
    with pytest.raises(ValueError, match="k=0"):
        parse_code("n=2 k=0\nXX\n")

