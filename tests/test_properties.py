"""Property tests against brute-force oracles at small size."""

import itertools
import json
import operator

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pmdkit import f2
from pmdkit.auth import BIT_TAGS, NmCode, REJECT, TamperFunction, nm_decompose, nm_verify
from pmdkit.densesim import (GATE_MATRICES, apply_circuit, apply_on_qubits,
                             circuit_unitary, dm_conjugate_pauli,
                             kraus_from_record, kraus_to_record, pauli_gather,
                             f2_parity_array, pauli_gather_stack, pauli_matrix)
from pmdkit.galois import FieldSpec, compute_dual_basis
from pmdkit.pmd import _certified_below, _norm_bounds, build_pmd
from pmdkit.ptc import _key_syndromes, build_bcgst_family
from pmdkit.symplectic import CliffordCircuit, PauliOperator, pauli_span, symplectic_product

# A fixed example sequence and no example database, so reruns are identical.
_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@st.composite
def paulis(draw, n):
    return PauliOperator(n, draw(st.integers(0, (1 << n) - 1)),
                         draw(st.integers(0, (1 << n) - 1)), draw(st.integers(0, 3)))


@st.composite
def pauli_lists(draw):
    n = draw(st.integers(1, 3))
    return n, draw(st.lists(paulis(n), max_size=4))


@_SETTINGS
@given(pauli_lists())
def test_pauli_span_matches_subset_products(case):
    n, gens = case
    span = pauli_span(n, gens, up_to_phase=False)
    assert len(span) == 1 << len(gens)
    for subset, element in enumerate(span):
        want = PauliOperator.identity(n)
        dense = np.eye(1 << n, dtype=complex)
        for i, g in enumerate(gens):
            if (subset >> i) & 1:
                want = want.mul(g)
                dense = dense @ pauli_matrix(g)
        assert element == want
        assert np.allclose(pauli_matrix(element), dense, atol=1e-12)
    assert pauli_span(n, gens) == [PauliOperator(n, e.x, e.z, 0) for e in span]


_GATES = st.sampled_from(("h", "s", "x", "z", "cnot", "cz"))


@st.composite
def circuits(draw, max_n=3, n=None):
    n = draw(st.integers(1, max_n)) if n is None else n
    gates = []
    for name in draw(st.lists(_GATES, max_size=8)):
        arity = 2 if name in ("cnot", "cz") else 1
        if arity > n:
            continue
        qubits = draw(st.permutations(range(n)))[:arity]
        gates.append((name, tuple(qubits)))
    return CliffordCircuit(n, tuple(gates)), draw(paulis(n))


@_SETTINGS
@given(circuits())
def test_conjugate_pauli_matches_dense(case):
    circ, p = case
    u = circuit_unitary(circ)
    want = u @ pauli_matrix(p) @ u.conj().T
    assert np.allclose(pauli_matrix(circ.conjugate_pauli(p)), want, atol=1e-12)


@_SETTINGS
@given(circuits(max_n=4), st.sampled_from((np.int64, np.uint64)), st.data())
def test_conjugate_masks_on_arrays_matches_scalar_path(case, dtype, data):
    circ, _ = case
    masks = st.integers(0, (1 << circ.n) - 1)
    xs = data.draw(arrays(dtype, st.integers(1, 6), elements=masks))
    zs = data.draw(arrays(dtype, xs.shape, elements=masks))
    x_in, z_in = xs.copy(), zs.copy()
    px, pz, phase = np.broadcast_arrays(*circ.conjugate_masks(xs, zs))
    only_x = np.broadcast_to(circ.conjugate_masks(xs, 0)[0], xs.shape)
    assert np.array_equal(xs, x_in) and np.array_equal(zs, z_in)
    for i, (x, z) in enumerate(zip(xs.tolist(), zs.tolist())):
        want = circ.conjugate_pauli(PauliOperator(circ.n, x, z))
        assert (int(px[i]), int(pz[i]), int(phase[i]) % 4) == (want.x, want.z, want.phase)
        assert int(only_x[i]) == circ.conjugate_pauli(PauliOperator(circ.n, x, 0)).x


@_SETTINGS
@given(circuits(max_n=4), st.data())
def test_chained_conjugate_masks_on_arrays_keep_the_int_phases(case, data):
    # `pmd._clifford_frames` sends the image of Z^t under one circuit
    # through another as an array call and adds the phases: element by
    # element that must be the int calls behind `conjugate_pauli`, with
    # the first step as int calls or as an array call from a zero x.
    first, _ = case
    second, _ = data.draw(circuits(n=first.n))
    t = np.arange(1 << first.n)
    ints = [first.conjugate_masks(0, z) for z in t.tolist()]
    qx, qz, qphase = np.broadcast_arrays(*first.conjugate_masks(0 * t, t))
    assert [(int(a), int(b), int(c) % 4) for a, b, c in zip(qx, qz, qphase)] == \
        [(a, b, c % 4) for a, b, c in ints]
    ix, iz, iphase = (np.array(v) for v in zip(*ints))
    for x, z, phase in ((qx, qz, qphase), (ix, iz, iphase)):
        px, pz, more = np.broadcast_arrays(*second.conjugate_masks(x, z))
        for i, z_mask in enumerate(t.tolist()):
            want = second.conjugate_pauli(first.conjugate_pauli(
                PauliOperator(first.n, 0, z_mask)))
            got = (int(px[i]), int(pz[i]), int(phase[i] + more[i]) % 4)
            assert got == (want.x, want.z, want.phase)


_ONE_QUBIT = {"h": np.array([[1, 1], [1, -1]]) / np.sqrt(2), "s": np.diag([1, 1j]),
              "x": np.array([[0, 1], [1, 0]]), "z": np.diag([1, -1])}
_KET0, _KET1 = np.diag([1, 0]), np.diag([0, 1])


def _embed(n, factors):
    """Kronecker product of per-qubit 2x2 factors, qubit 0 rightmost."""
    out = np.eye(1)
    for q in reversed(range(n)):
        out = np.kron(out, factors.get(q, np.eye(2)))
    return out


def _gate_matrix(n, name, qubits):
    if name == "cnot":
        c, t = qubits
        return _embed(n, {c: _KET0}) + _embed(n, {c: _KET1, t: _ONE_QUBIT["x"]})
    if name == "cz":
        c, t = qubits
        return np.eye(1 << n) - 2 * _embed(n, {c: _KET1, t: _KET1})
    return _embed(n, {qubits[0]: _ONE_QUBIT[name]})


@_SETTINGS
@given(circuits(max_n=5), st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
def test_apply_circuit_matches_kron_gate_product(case, cols, seed):
    circ, _ = case
    dim = 1 << circ.n
    want = np.eye(dim)
    for name, qubits in circ.gates:
        want = _gate_matrix(circ.n, name, qubits) @ want
    rng = np.random.default_rng(seed)
    shape = (dim, cols) if cols else (dim,)
    array = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = apply_circuit(circ, array)
    assert got.shape == array.shape
    assert np.allclose(got, want @ array, rtol=0, atol=1e-12)


_CNOT = np.eye(4)[[0, 3, 2, 1]]  # index bit 0 is the control, bit 1 the target
_CZ = np.diag([1.0, 1.0, 1.0, -1.0])


def _matrix_path(circ, array):
    """Each gate's matrix applied by apply_on_qubits: the oracle of
    apply_circuit's view operations."""
    n = array.shape[0].bit_length() - 1
    for name, qubits in circ.gates:
        matrix = {"cnot": _CNOT, "cz": _CZ}.get(name, GATE_MATRICES.get(name))
        array = apply_on_qubits(matrix, qubits, array)
    return np.ascontiguousarray(array)


@_SETTINGS
@given(circuits(max_n=5), st.integers(0, 2), st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
def test_apply_circuit_view_gates_match_the_matrix_path_exactly(case, extra, cols, seed):
    # Exact equality, on registers wider than the circuit and with or
    # without columns: every nonzero part has the matrix path's bits.  Only
    # the sign of an exact zero may differ (Z on a +0 amplitude gives -0,
    # where the 2 x 2 product adds a +0), so the inputs hold zeros of both
    # signs and compare by value.
    circ, _ = case
    n = circ.n + extra
    rng = np.random.default_rng(seed)
    shape = (2, 1 << n, cols) if cols else (2, 1 << n)
    parts = rng.standard_normal(shape) * rng.choice([1.0, 0.0, -0.0], shape)
    array = parts[0] + 1j * parts[1]
    assert np.array_equal(apply_circuit(circ, array), _matrix_path(circ, array))


@pytest.mark.parametrize("n,lam", [(4, 2), (8, 2)])
def test_frame_tables_have_the_matrix_path_bits(n, lam):
    # The tables that the sampled PMD path gathers from, U_j^dag B_k for
    # every pair of keys, keep every bit, signed zeros included.
    pmd = build_pmd(build_bcgst_family(n, lam))
    keys = pmd.family.num_keys
    rows = pmd.encoder.reshape(keys, 1 << n, -1)
    for j in range(keys):
        inverse = pmd.family.codes[j].encoder.inverse()
        for k in range(keys):
            got, want = apply_circuit(inverse, rows[k]), _matrix_path(inverse, rows[k])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@_SETTINGS
@given(st.integers(1, 6).flatmap(paulis), st.integers(0, 2), st.integers(0, 2 ** 32 - 1))
def test_pauli_gather_matches_pauli_matrix(p, cols, seed):
    dim = 1 << p.n
    mat = pauli_matrix(p)
    rng = np.random.default_rng(seed)
    shape = (dim, cols) if cols else (dim,)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert np.allclose(pauli_gather(v, p), mat @ v, rtol=0, atol=1e-12)
    # Every axis after the first rides along, as the columns do.
    assert np.array_equal(pauli_gather(v.reshape(dim, 1, -1), p),
                          pauli_gather(v.reshape(dim, -1), p)[:, None])
    # On a register one qubit wider, P acts on the low p.n qubits.
    wide = np.kron(np.eye(2), mat)
    v2 = rng.standard_normal(2 * dim) + 1j * rng.standard_normal(2 * dim)
    assert np.allclose(pauli_gather(v2, p), wide @ v2, rtol=0, atol=1e-12)
    for m in (mat, wide):
        rho = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
        assert np.allclose(dm_conjugate_pauli(p, rho), m @ rho @ m.conj().T,
                           rtol=0, atol=1e-12)


@st.composite
def pauli_stacks(draw):
    n = draw(st.integers(1, 5))
    return n, draw(st.lists(paulis(n), min_size=1, max_size=6))


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


@_SETTINGS
@given(pauli_stacks(), st.integers(0, 1), st.integers(0, 2 ** 32 - 1))
def test_stacked_gathers_are_bit_equal_to_one_pauli_at_a_time(case, wider, seed):
    # Signed zeros included: the stacked forms do the same float operations.
    n, ps = case
    dim = 1 << (n + wider)  # the Paulis act on the low n qubits
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    x, z = (np.array([getattr(p, name) for p in ps]) for name in ("x", "z"))
    # The stacked vector gather takes X^x Z^z, the pads' phase-0 Paulis.
    assert (_bits(pauli_gather_stack(v, x, z))
            == _bits(np.stack([pauli_gather(v, PauliOperator(n, p.x, p.z, 0)) for p in ps])))
    # Each conjugation against one gather and one outer product of the
    # signs, written out.
    rho = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rows = np.arange(dim) ^ ps[0].x
    for p in ps:
        signs = (1j ** p.phase) * (1 - 2.0 * f2_parity_array(rows & p.z))
        want = rho[np.ix_(rows, rows)] * np.outer(signs, signs.conj())
        assert _bits(dm_conjugate_pauli(PauliOperator(n, ps[0].x, p.z, p.phase), rho)) \
            == _bits(want)


@st.composite
def f2_systems(draw):
    ncols = draw(st.integers(1, 8))
    rows = draw(st.lists(st.integers(0, (1 << ncols) - 1), max_size=8))
    rhs = draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
    return ncols, rows, rhs


def _satisfies(rows, rhs, x):
    return all(f2.dot(row, x) == b for row, b in zip(rows, rhs))


@_SETTINGS
@given(f2_systems())
def test_solve_matches_enumeration(case):
    ncols, rows, rhs = case
    solvable = any(_satisfies(rows, rhs, x) for x in range(1 << ncols))
    x = f2.solve(rows, rhs, ncols)
    if solvable:
        assert x is not None and _satisfies(rows, rhs, x)
    else:
        assert x is None


@_SETTINGS
@given(f2_systems())
def test_kernel_basis_matches_enumeration(case):
    ncols, rows, _ = case
    kernel = {x for x in range(1 << ncols) if _satisfies(rows, [0] * len(rows), x)}
    basis = f2.kernel_basis(rows, ncols)
    span = {0}
    for v in basis:
        span |= {s ^ v for s in span}
    assert span == kernel
    assert len(kernel) == 1 << len(basis)  # independent


_ENTRIES = st.complex_numbers(allow_nan=False, allow_infinity=False)


@st.composite
def kraus_lists(draw):
    dim = 1 << draw(st.integers(0, 2))
    return draw(st.lists(arrays(np.complex128, (dim, dim), elements=_ENTRIES),
                         min_size=1, max_size=3))


@_SETTINGS
@given(kraus_lists())
def test_kraus_record_round_trips_exactly(kraus):
    back = kraus_from_record(json.loads(json.dumps(kraus_to_record(kraus))))
    assert len(back) == len(kraus)
    for got, want in zip(back, kraus):
        assert got.dtype == np.complex128
        assert np.array_equal(got, want)


@st.composite
def complex_matrices(draw):
    """Square complex matrices: general, rank 1 or zero."""
    k = 1 << draw(st.integers(0, 3))
    entries = st.integers(-64, 64).map(lambda v: v / 16)
    kind = draw(st.sampled_from(("general", "rank1", "zero")))
    if kind == "zero":
        return np.zeros((k, k), dtype=complex)
    shape = (k, k) if kind == "general" else (2, k)
    re = draw(arrays(np.float64, shape, elements=entries))
    im = draw(arrays(np.float64, shape, elements=entries))
    m = re + 1j * im
    return m if kind == "general" else np.outer(m[0], m[1])


@_SETTINGS
@given(complex_matrices())
def test_norm_bounds_dominate_the_top_singular_value(m):
    # The exhaustive PMD sweep skips an SVD when these bounds fall below
    # the running maximum less a relative 1e-9, so they must never be
    # further than that below the spectral norm.
    sigma = np.linalg.svd(m, compute_uv=False)[0]
    a = np.abs(m)
    holder = np.sqrt(a.sum(axis=0).max() * a.sum(axis=1).max())
    bound = _norm_bounds(m[None])[0]
    gram_bound = np.sqrt(_norm_bounds((m.conj().T @ m)[None])[0])
    assert bound <= holder
    for b in (holder, bound, gram_bound):
        assert b >= sigma * (1 - 1e-9)
    if not m.any():
        assert bound == gram_bound == 0.0


@_SETTINGS
@given(complex_matrices(), st.sampled_from((-1e-6, -1e-12, 0.0, 1e-12, 1e-9, 1e-6)),
       st.booleans())
def test_cholesky_certificate_never_passes_a_larger_norm(m, rel, flat):
    # The sampled PMD selection skips a block's SVD when this certificate
    # holds at the running maximum less a relative 1e-9.
    if flat:
        # Every singular value equal: floor^2 I - M^dag M is near 0 * I.
        m = 3.0 * np.linalg.qr(m + np.eye(len(m)))[0]
    sigma = np.linalg.svd(m, compute_uv=False)[0]
    floor = sigma * (1 + rel)
    if _certified_below(m, floor):
        assert sigma < floor * (1 + 1e-12)
    if sigma > 0 and rel >= 1e-9:
        assert _certified_below(m, floor)


def _clmul(a, b):
    out = 0
    for i in range(b.bit_length()):
        if (b >> i) & 1:
            out ^= a << i
    return out


def _reduce(a, modulus):
    deg = modulus.bit_length() - 1
    for shift in range(a.bit_length() - 1 - deg, -1, -1):
        if (a >> (shift + deg)) & 1:
            a ^= modulus << shift
    return a


# Every irreducible modulus of degree <= 6: no product of a factor of
# degree <= m/2 with another polynomial gives it.
_MODULI = [p for m in range(1, 7) for p in range(1 << m, 2 << m)
           if all(_clmul(a, b) != p
                  for a in range(2, 1 << (m // 2 + 1)) for b in range(2, 1 << m))]


@st.composite
def field_products(draw):
    modulus = draw(st.sampled_from(_MODULI))
    m = modulus.bit_length() - 1
    a, b = draw(st.integers(0, (1 << m) - 1)), draw(st.integers(0, (1 << m) - 1))
    return FieldSpec(modulus), a, b


@_SETTINGS
@given(field_products())
def test_field_multiplication_matches_carryless_product(case):
    field, a, b = case
    assert field.mul(a, b) == _reduce(_clmul(a, b), field.modulus)


@st.composite
def bases(draw, field):
    """A random basis of GF(2^m) over F2."""
    elements = draw(st.lists(st.integers(1, field.order - 1),
                             min_size=field.m, max_size=field.m))
    assume(f2.rank(elements, field.m) == field.m)
    return elements


@st.composite
def families_and_errors(draw):
    modulus = draw(st.sampled_from([p for p in _MODULI if p < 1 << 5]))
    field = FieldSpec(modulus)
    n = field.m * draw(st.integers(1, 12 // field.m))
    pair = compute_dual_basis(field, draw(bases(field)))
    family = build_bcgst_family(n, field.m, basis_pair=pair, field=field)
    errors = draw(st.lists(st.tuples(st.integers(0, (1 << n) - 1),
                                     st.integers(0, (1 << n) - 1)), min_size=1, max_size=8))
    return family, errors


@_SETTINGS
@given(families_and_errors())
def test_key_syndromes_match_symplectic_products(case):
    family, errors = case
    ex = np.array([x for x, _ in errors], dtype=np.uint64)
    ez = np.array([z for _, z in errors], dtype=np.uint64)
    syn = _key_syndromes(family, ex, ez)
    assert syn.shape == (len(errors), family.num_keys)
    for e, (x, z) in enumerate(errors):
        err = PauliOperator(family.n, x, z, 0)
        for k, code in family.codes.items():
            for j, g in enumerate(code.gens):
                assert (int(syn[e, k]) >> j) & 1 == symplectic_product(g, err)


def _trace(a, modulus):
    """tr(a) = a + a^2 + a^4 + ... + a^(2^(m-1)), squaring by `_clmul`."""
    acc = 0
    for _ in range(modulus.bit_length() - 1):
        acc ^= a
        a = _reduce(_clmul(a, a), modulus)
    return acc


def _trace_coords(a, dual, modulus):
    return f2.bits_to_int(_trace(_reduce(_clmul(a, d), modulus), modulus) for d in dual)


def _assert_coords_match_traces(pair, field):
    for a in range(field.order):
        assert pair.alpha_coords(a) == _trace_coords(a, pair.beta, field.modulus)
        assert pair.beta_coords(a) == _trace_coords(a, pair.alpha, field.modulus)


def test_default_basis_coords_match_traces():
    for modulus in _MODULI:
        field = FieldSpec(modulus)
        _assert_coords_match_traces(compute_dual_basis(field), field)


@st.composite
def dual_pairs(draw):
    modulus = draw(st.sampled_from(_MODULI))
    field = FieldSpec(modulus)
    return compute_dual_basis(field, draw(bases(field))), field


@_SETTINGS
@given(dual_pairs())
def test_random_basis_coords_match_traces(case):
    _assert_coords_match_traces(*case)


@st.composite
def nm_table_codes(draw):
    """Injective random table codes with k <= 2, n <= 5; a word outside the
    code decodes to reject or to any message."""
    k = draw(st.integers(1, 2))
    rand_bits = draw(st.integers(0, 1))
    n = draw(st.integers(k + rand_bits, 5))
    words = draw(st.permutations(range(1 << n)))
    enc = np.array(words[:1 << (k + rand_bits)]).reshape(1 << k, 1 << rand_bits)
    dec = np.array([draw(st.sampled_from([-1, *range(1 << k)])) for _ in range(1 << n)])
    dec[enc] = np.arange(1 << k)[:, None]
    return NmCode(enc, dec)


def brute_force_nm_epsilon(code):
    """One LP per tampering over all 4^n of them, memoized on the exact
    Fraction decode distributions (the whole input of the LP)."""
    solved = {}
    for f in map(TamperFunction, itertools.product(BIT_TAGS, repeat=code.n)):
        key = tuple(tuple(sorted((-1 if o is REJECT else o, p) for o, p in d.items()))
                    for d in code.tampered_distributions(f))
        if key not in solved:
            solved[key] = nm_decompose(code, f).epsilon
    return max(solved.values())


@settings(_SETTINGS, max_examples=12)  # the oracle solves up to ~400 LPs a code
@given(nm_table_codes())
def test_pruned_nm_verify_matches_brute_force(code):
    assert nm_verify(code) == brute_force_nm_epsilon(code)


@_SETTINGS
@given(st.lists(st.integers(0, 255), max_size=5), st.integers(0, 255))
def test_span_element_i_is_start_xor_combine_of_i(basis, start):
    span = f2.span(basis, start, operator.xor)
    assert len(span) == 1 << len(basis)
    for i, element in enumerate(span):
        assert element == start ^ f2.combine(basis, i)


@_SETTINGS
@given(st.integers(1, 4).flatmap(lambda keys: st.tuples(
    arrays(np.uint64, st.tuples(st.integers(0, 4), st.just(keys))),
    arrays(np.uint64, keys))))
def test_span_of_uint64_columns_is_start_xor_combine_of_i(case):
    basis, start = case
    span = f2.span(basis, start, operator.xor)
    assert len(span) == 1 << len(basis)
    for i, element in enumerate(span):
        assert element.dtype == np.uint64
        assert np.array_equal(element, start ^ f2.combine(basis, i))


@_SETTINGS
@given(st.integers(0, (1 << 12) - 1),
       st.lists(st.integers(0, 11), unique=True, max_size=12))
def test_restrict_then_embed_restores_the_listed_bits(v, positions):
    packed = f2.restrict(v, positions)
    assert packed == sum(((v >> q) & 1) << i for i, q in enumerate(positions))
    mask = sum(1 << q for q in positions)
    assert f2.embed(packed, positions) == v & mask
