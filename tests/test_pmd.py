import math
import time

import numpy as np
import pytest

from pmdkit.densesim import apply_circuit, apply_pauli, f2_parity_array
from pmdkit.galois import FieldSpec
from pmdkit.limits import SizeGuardError
import pmdkit.pmd
from pmdkit.pmd import (PmdCode, auth_unitary, build_pmd, compressed_error_norm,
                        frame_norms, measure_pmd_epsilon)
from pmdkit.ptc import (build_bcgst_family, measure_pairwise_detectability,
                        measure_strong_ptc_error)
from pmdkit.symplectic import PauliOperator

ATOL = 1e-10


def make_pmd(n, lam, **kwargs):
    return build_pmd(build_bcgst_family(n, lam, **kwargs))


def lemma_bound(n, lam):
    fam = build_bcgst_family(n, lam)
    eps_ptc = float(measure_strong_ptc_error(fam).value)
    delta = float(measure_pairwise_detectability(fam).value)
    return max(eps_ptc, math.sqrt(2.0 ** -lam + delta))


# ---------------------------------------------------------------------------
# Encoder and projector contracts
# ---------------------------------------------------------------------------

def test_three_qubit_pmd_isometry():
    pmd = make_pmd(2, 1)
    assert pmd.total == 3 and pmd.message_qubits == 1
    b = pmd.encoder
    assert b.shape == (8, 2)
    assert np.allclose(b.conj().T @ b, np.eye(2), atol=ATOL)


def test_projector_fixes_encoder_columns():
    pmd = make_pmd(2, 1)
    assert np.allclose(pmd.projector @ pmd.encoder, pmd.encoder, atol=ATOL)
    assert np.allclose(pmd.projector @ pmd.projector, pmd.projector, atol=ATOL)


def test_six_qubit_pmd_projector_rank():
    pmd = make_pmd(4, 2)
    assert pmd.total == 6 and pmd.message_qubits == 2
    assert abs(np.trace(pmd.projector).real - 4.0) < 1e-9


def test_encoder_unitary_extends_isometry():
    pmd = make_pmd(2, 1)
    u = pmd.encoder_unitary
    assert np.allclose(u @ u.conj().T, np.eye(8), atol=ATOL)
    assert np.allclose(u[:, :2], pmd.encoder, atol=ATOL)


def test_encoder_columns_are_key_superpositions():
    # Column m = |K|^(-1/2) sum_k Enc_k(|m>|0>) (x) |k>.
    from pmdkit.densesim import codespace_isometry
    fam = build_bcgst_family(2, 1)
    pmd = build_pmd(fam)
    b0 = codespace_isometry(fam.codes[0])
    b1 = codespace_isometry(fam.codes[1])
    for m in range(2):
        want = np.concatenate([b0[:, m], b1[:, m]]) / np.sqrt(2)
        assert np.allclose(pmd.encoder[:, m], want, atol=ATOL)


def test_build_pmd_size_guard():
    with pytest.raises(SizeGuardError):
        make_pmd(12, 2)


# ---------------------------------------------------------------------------
# Detection sweeps
# ---------------------------------------------------------------------------

def test_identity_norm_is_one():
    pmd = make_pmd(2, 1)
    assert abs(compressed_error_norm(pmd, PauliOperator.identity(3)) - 1.0) < ATOL


def test_error_norm_matches_apply_pauli():
    pmd = make_pmd(4, 2)
    encd = pmd.encoder.conj().T
    rng = np.random.default_rng(3)
    for _ in range(50):
        x, z = (int(v) for v in rng.integers(0, 1 << pmd.total, size=2))
        e = PauliOperator(pmd.total, x, z, int(rng.integers(0, 4)))
        want = float(np.linalg.svd(encd @ apply_pauli(e, pmd.encoder),
                                   compute_uv=False)[0])
        assert compressed_error_norm(pmd, e) == want


def naive_epsilon(pmd):
    best, arg = -1.0, None
    for code in range(1, 1 << (2 * pmd.total)):
        x = code & ((1 << pmd.total) - 1)
        z = code >> pmd.total
        norm = compressed_error_norm(pmd, PauliOperator(pmd.total, x, z, 0))
        if norm > best:
            best, arg = norm, (x, z)
    return best, arg


def test_vectorized_sweep_matches_naive_oracle():
    pmd = make_pmd(2, 1)
    rep = measure_pmd_epsilon(pmd)
    want, _ = naive_epsilon(pmd)
    assert abs(rep.value - want) < ATOL
    assert abs(compressed_error_norm(pmd, rep.argmax) - rep.value) < ATOL


def dense_sweep_epsilon(pmd):
    """Unfactored sweep: per x mask, the whole 2^total-point Walsh matmul
    and an SVD of every block, with no pruning."""
    dim, k_dim = pmd.encoder.shape
    idx = np.arange(dim, dtype=np.uint64)
    walsh = 1.0 - 2.0 * f2_parity_array(idx[:, None] & idx[None, :])
    best = -1.0
    for x_mask in range(dim):
        permuted = pmd.encoder[np.arange(dim) ^ x_mask]
        t = (pmd.encoder.conj()[:, :, None] * permuted[:, None, :]).reshape(dim, -1)
        blocks = (walsh @ t).reshape(dim, k_dim, k_dim)
        norms = np.linalg.svd(blocks, compute_uv=False)[:, 0]
        if x_mask == 0:
            norms[0] = -np.inf  # the identity
        best = max(best, float(norms.max()))
    return best


@pytest.mark.parametrize("n,lam,kwargs", [
    (2, 1, {}),
    (4, 2, {"encoder_pivot": "low"}),
    (4, 2, {"encoder_pivot": "high"}),
    # GF(4) has a single irreducible modulus; GF(8) also has x^3+x^2+1.
    (3, 3, {"field": FieldSpec(0b1101)}),
    (6, 2, {}),
    (5, 1, {}),  # epsilon = 1: the row bounds prune most rows
    (4, 4, {}),  # no message qubit: 1x1 blocks and no row bound
])
def test_exhaustive_sweep_matches_dense_oracle(n, lam, kwargs):
    pmd = make_pmd(n, lam, **kwargs)
    rep = measure_pmd_epsilon(pmd)
    want = dense_sweep_epsilon(pmd)
    assert abs(rep.value - want) <= 1e-12
    # Any maximiser will do, as long as it attains the value.
    assert abs(compressed_error_norm(pmd, rep.argmax) - rep.value) <= 1e-12
    assert not rep.argmax.is_identity()


def unseeded_sweep_epsilon(pmd):
    """The exhaustive loop before the seeded floor and the mask skip:
    every x mask in order, starting from floor -1, with the same row,
    norm and Gram bounds.  Returns (epsilon, (x, z) of the argmax)."""
    total, n, lam = pmd.total, pmd.code_qubits, pmd.key_qubits
    dim, k_dim = pmd.encoder.shape
    walsh_code, walsh_key = pmdkit.pmd._walsh_matrix(n), pmdkit.pmd._walsh_matrix(lam)
    rows, conj = np.arange(dim), pmd.encoder.conj()
    z_c, walsh_rows = np.arange(1 << n), walsh_code
    if k_dim > 1:
        row_bounds = pmdkit.pmd._row_bounds(pmd)
    best, best_xz = -1.0, (0, 0)
    for x_mask in range(1 << total):
        floor = best * (1.0 - 1e-9)
        if k_dim > 1:
            z_c = np.flatnonzero(row_bounds[x_mask >> n, x_mask & ((1 << n) - 1)] >= floor)
            if z_c.size == 0:
                continue
            walsh_rows = walsh_code[z_c]
        t = conj[:, :, None] * pmd.encoder[rows ^ x_mask][:, None, :]
        t = np.matmul(walsh_rows, t.view(float).reshape(1 << lam, 1 << n, -1))
        blocks = (walsh_key @ t.reshape(1 << lam, -1)).view(complex)
        blocks = blocks.reshape(-1, k_dim, k_dim)
        bound = pmdkit.pmd._norm_bounds(blocks)
        if x_mask == 0:
            bound[0] = -np.inf
        cand = np.flatnonzero(bound >= floor)
        m = blocks[cand]
        keep = np.sqrt(pmdkit.pmd._norm_bounds(m.conj().transpose(0, 2, 1) @ m)) >= floor
        if not keep.any():
            continue
        cand = cand[keep]
        norms = np.linalg.svd(m[keep], compute_uv=False)[:, 0]
        i = int(np.argmax(norms))
        if norms[i] > best:
            best = float(norms[i])
            b, j = divmod(int(cand[i]), z_c.size)
            best_xz = (x_mask, b << n | int(z_c[j]))
    return best, best_xz


@pytest.mark.parametrize("n,lam,kwargs", [
    (2, 1, {}),
    (4, 2, {"encoder_pivot": "low"}),
    (4, 2, {"encoder_pivot": "high"}),
    (6, 2, {}),
    (5, 1, {}),
    (3, 3, {}),
    (4, 4, {}),
])
def test_exhaustive_sweep_matches_unseeded_loop_exactly(n, lam, kwargs):
    # Same floats, same argmax: the seeded floor and the skipped masks drop
    # only blocks below the maximum.  At (6,2) SVD rounding picks the argmax
    # among exact ties, so it is compared on the same host, not pinned.
    pmd = make_pmd(n, lam, **kwargs)
    rep = measure_pmd_epsilon(pmd)
    assert (rep.value, (rep.argmax.x, rep.argmax.z)) == unseeded_sweep_epsilon(pmd)


def test_exhaustive_sweep_svd_count(monkeypatch):
    # Blocks given an SVD at (6,2); 328 without the seeded floor and mask skip.
    pmd = make_pmd(6, 2)
    row_bounds = pmdkit.pmd._row_bounds(pmd)
    monkeypatch.setattr(pmdkit.pmd, "_row_bounds", lambda _: row_bounds)
    svd, blocks = np.linalg.svd, []

    def counted(a, *args, **kwargs):
        blocks.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    measure_pmd_epsilon(pmd)
    assert sum(blocks) == 113


@pytest.mark.parametrize("n,lam,kwargs", [
    (2, 1, {}),
    (4, 2, {"encoder_pivot": "low"}),
    (4, 2, {"encoder_pivot": "high"}),
    (3, 3, {}),
])
def test_row_bounds_dominate_every_compressed_norm(n, lam, kwargs):
    # r[a, x_c, z_c] covers every key Z part b of x = a << n | x_c.
    pmd = make_pmd(n, lam, **kwargs)
    bounds = pmdkit.pmd._row_bounds(pmd)
    assert bounds.shape == (1 << lam, 1 << n, 1 << n)
    code = (1 << n) - 1
    for x in range(1 << pmd.total):
        for z in range(1 << pmd.total):
            norm = compressed_error_norm(pmd, PauliOperator(pmd.total, x, z, 0))
            assert norm <= bounds[x >> n, x & code, z & code] + 1e-12


def test_exhaustive_work_guard_fails_fast():
    pmd = make_pmd(8, 2)  # 4^10 x-z pairs times 4^6 block entries
    start = time.perf_counter()
    with pytest.raises(SizeGuardError, match="sampling mode"):
        measure_pmd_epsilon(pmd)
    assert time.perf_counter() - start < 1.0
    assert not measure_pmd_epsilon(pmd, samples=2).exhaustive


# Regression constants: the exhaustive sweep is its own oracle.
MEASURED_EPS = {
    (2, 1): 1 / math.sqrt(2),
    (4, 2): 0.75,
    (6, 2): 1.0,
    (6, 3): 0.375,
    (3, 3): (1 + math.sqrt(2)) / 8,
    (4, 4): 0.25,
    (5, 5): (1 + math.sqrt(2)) / 16,
    (6, 6): math.sqrt(563 / 131072 + 195 * math.sqrt(2) / 65536),
}


@pytest.mark.parametrize("n,lam", sorted(MEASURED_EPS))
def test_measured_epsilon_and_lemma_bound(n, lam):
    pmd = make_pmd(n, lam)
    rep = measure_pmd_epsilon(pmd)
    assert rep.exhaustive
    assert abs(rep.value - MEASURED_EPS[(n, lam)]) < 1e-9
    assert rep.value <= lemma_bound(n, lam) + 1e-9


def test_lemma_bound_under_alternate_encoder_convention():
    # The guarantee is encoder independent: rebuilding every per-key
    # encoder with the other pivoting rule must still satisfy the bound.
    for n, lam in [(2, 1), (4, 2)]:
        pmd = make_pmd(n, lam, encoder_pivot="high")
        rep = measure_pmd_epsilon(pmd)
        assert rep.value <= lemma_bound(n, lam) + 1e-9


def test_key_phase_errors_are_exactly_zero():
    # Phase-only errors on the key register compress to zero.
    for n, lam in [(2, 1), (4, 2), (6, 3)]:
        pmd = make_pmd(n, lam)
        for b_mask in range(1, 1 << lam):
            # Z^b on the key register, identity on the code register.
            e = PauliOperator(pmd.total, 0, b_mask << pmd.code_qubits, 0)
            assert compressed_error_norm(pmd, e) <= ATOL


def test_corrupted_states_near_orthogonal_to_codespace():
    # |<psi1| B^dag E^dag B |psi2>| <= eps for sampled message states.
    pmd = make_pmd(4, 2)
    eps = measure_pmd_epsilon(pmd).value
    rng = np.random.default_rng(17)
    dim = 1 << pmd.message_qubits
    for _ in range(5):
        psi1 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi2 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi1 /= np.linalg.norm(psi1)
        psi2 /= np.linalg.norm(psi2)
        for code in rng.integers(1, 1 << (2 * pmd.total), size=40):
            x = int(code) & ((1 << pmd.total) - 1)
            z = int(code) >> pmd.total
            e = PauliOperator(pmd.total, x, z, 0)
            overlap = abs(np.vdot(pmd.encoder @ psi1,
                                  apply_pauli(e, pmd.encoder @ psi2)))
            assert overlap <= eps + 1e-9


def test_key_manipulation_norm_inequality():
    # For E = E_K (x) E_C, the compressed norm is bounded by the key
    # average of the cross-projector norms with the shifted key:
    # |Pi E Pi| <= |K|^-1 sum_k |Pi_k E_C Pi_(k+a)| where a is the
    # X-part of the key factor.  Checked densely over every error of
    # the 3-qubit code.
    from pmdkit.densesim import codespace_projector, operator_norm, pauli_matrix
    fam = build_bcgst_family(2, 1)
    pmd = build_pmd(fam)
    projectors = {key: codespace_projector(fam.codes[key]) for key in (0, 1)}
    for code_bits in range(1, 1 << (2 * pmd.total)):
        x = code_bits & 0b111
        z = code_bits >> 3
        e = PauliOperator(3, x, z, 0)
        a = (x >> 2) & 1  # key register is qubit 2
        e_c = PauliOperator(2, x & 0b11, z & 0b11, 0)
        lhs = compressed_error_norm(pmd, e)
        m_c = pauli_matrix(e_c)
        rhs = sum(operator_norm(projectors[k] @ m_c @ projectors[k ^ a])
                  for k in (0, 1)) / 2
        assert lhs <= rhs + 1e-9


def test_sampling_mode_deterministic():
    pmd = make_pmd(2, 1)
    a = measure_pmd_epsilon(pmd, samples=50, seed=3)
    b = measure_pmd_epsilon(pmd, samples=50, seed=3)
    assert a.value == b.value and a.argmax == b.argmax
    assert not a.exhaustive
    assert a.value <= measure_pmd_epsilon(pmd).value + ATOL


def test_sampled_epsilon_is_the_max_of_compressed_error_norms():
    # The sampled loop and compressed_error_norm share the cached B^dagger,
    # so the reported epsilon is exactly the norm at the reported argmax.
    pmd = make_pmd(4, 2)
    assert pmd.encoder_dagger is pmd.encoder_dagger
    assert np.array_equal(pmd.encoder_dagger, pmd.encoder.conj().T)
    rep = measure_pmd_epsilon(pmd, samples=40, seed=21)
    assert rep.value == compressed_error_norm(pmd, rep.argmax)


# ---------------------------------------------------------------------------
# Clifford-frame kernel of the sampled path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,lam", [(2, 1), (4, 2)])
def test_frame_norms_match_dense_on_every_pauli(n, lam):
    pmd = make_pmd(n, lam)
    mask = (1 << pmd.total) - 1
    paulis = [(c & mask, c >> pmd.total) for c in range(1, 1 << (2 * pmd.total))]
    got = frame_norms(pmd, paulis)
    for (x, z), norm in zip(paulis, got):
        want = compressed_error_norm(pmd, PauliOperator(pmd.total, x, z, 0))
        assert abs(norm - want) <= 1e-12


@pytest.mark.parametrize("n,lam", [(6, 3), (8, 2), (8, 4)])
def test_frame_norms_match_dense_on_random_paulis(n, lam):
    pmd = make_pmd(n, lam)
    rng = np.random.default_rng(n * 16 + lam)
    paulis = [tuple(int(v) for v in rng.integers(0, 1 << pmd.total, size=2))
              for _ in range(200)]
    got = frame_norms(pmd, paulis)
    for (x, z), norm in zip(paulis, got):
        want = compressed_error_norm(pmd, PauliOperator(pmd.total, x, z, 0))
        assert abs(norm - want) <= 1e-12


def sampled_draws(pmd, samples, seed):
    """The exponent pairs that `measure_pmd_epsilon` draws, in order."""
    total = pmd.total
    rng = np.random.default_rng(np.random.Philox(seed))
    drawn = []
    for _ in range(samples):
        code = int(rng.integers(1, (1 << (2 * total))))
        drawn.append((code & ((1 << total) - 1), code >> total))
    return drawn


def dense_sampled_epsilon(pmd, samples, seed):
    """The sampled loop before the Clifford frame: one dense
    |B^dag E B| per drawn Pauli.  Returns (epsilon, drawn exponent pairs)."""
    drawn = sampled_draws(pmd, samples, seed)
    best = max(compressed_error_norm(pmd, PauliOperator(pmd.total, x, z, 0))
               for x, z in drawn)
    return best, drawn


@pytest.mark.parametrize("n,lam", [(4, 2), (6, 2), (8, 2)])
def test_sampled_epsilon_matches_dense_loop(n, lam):
    pmd = make_pmd(n, lam)
    for seed in (0, 21, 36):
        rep = measure_pmd_epsilon(pmd, samples=60, seed=seed)
        want, drawn = dense_sampled_epsilon(pmd, 60, seed)
        assert abs(rep.value - want) <= 1e-12
        assert (rep.argmax.x, rep.argmax.z) in drawn


def test_sampled_epsilon_computes_one_dense_norm(monkeypatch):
    calls = []
    dense = pmdkit.pmd.compressed_error_norm

    def counted(*args, **kwargs):
        calls.append(args[1])
        return dense(*args, **kwargs)

    monkeypatch.setattr(pmdkit.pmd, "compressed_error_norm", counted)
    pmd = make_pmd(6, 2)
    rep = measure_pmd_epsilon(pmd, samples=100, seed=5)
    assert calls == [rep.argmax]


@pytest.mark.parametrize("n,lam,seeds,samples", [
    (4, 2, range(41), 300), (6, 3, range(41), 300),
    (6, 6, range(16), 16), (8, 2, range(16), 300)])
def test_certified_selection_is_the_oracle_argmax(n, lam, seeds, samples):
    pmd = make_pmd(n, lam)
    for seed in seeds:
        drawn = sampled_draws(pmd, samples, seed)
        want = int(np.argmax(frame_norms(pmd, drawn)))
        assert pmdkit.pmd._sampled_argmax(pmd, drawn) == want, seed


def test_certified_selection_breaks_ties_across_shifts_in_draw_order():
    # Blocks arrive grouped by key shift x >> n, so an exact tie between
    # two shifts reaches the selection out of draw order.
    pmd = make_pmd(4, 2)
    n, mask = pmd.code_qubits, (1 << pmd.total) - 1
    paulis = [(c & mask, c >> pmd.total) for c in range(1, 1 << (2 * pmd.total))]
    norms = frame_norms(pmd, paulis)
    ties = 0
    for value in np.unique(norms)[::-1]:
        same = [paulis[i] for i in np.flatnonzero(norms == value)]
        by_shift = {x >> n: (x, z) for x, z in reversed(same)}
        if len(by_shift) < 2:
            continue
        ties += 1
        hi, lo = by_shift[max(by_shift)], by_shift[min(by_shift)]
        below = [p for p, v in zip(paulis, norms) if v < value][:5]
        for drawn in ([hi, lo], [lo, hi], [hi] + below + [lo]):
            assert pmdkit.pmd._sampled_argmax(pmd, drawn) == 0
        assert pmdkit.pmd._sampled_argmax(pmd, below + [hi, lo]) == len(below)
        if ties == 8:
            break
    assert ties == 8


def test_certified_selection_within_a_shift_breaks_ties_in_draw_order():
    # The frame bound orders one shift's draws, so of two draws with tied
    # norms the later one comes first when its frame bound is larger; the
    # earlier one must still win.  At (4,2) every slab norm is 0, 1/2 or
    # 1, so each bound, 1/4 of a sum of them, is exact: the expected visit
    # order is read off the dense slabs and is never a rounding tie.
    pmd = make_pmd(4, 2)
    n, mask = pmd.code_qubits, (1 << pmd.total) - 1
    paulis = [(c & mask, c >> pmd.total) for c in range(1, 1 << (2 * pmd.total))]
    norms = frame_norms(pmd, paulis)
    dense = dense_slab_norms(pmd)
    halves = np.rint(2 * dense).astype(int)
    assert np.abs(halves / 2 - dense).max() <= 1e-12
    codes = [pmd.family.codes[k].encoder.inverse() for k in range(pmd.family.num_keys)]

    def exact_bound(x, z):
        """4 * 2 * the frame bound of (x, z), an integer."""
        a, e_c = x >> n, PauliOperator(n, x & ((1 << n) - 1), z & ((1 << n) - 1))
        return sum(halves[k ^ a, k, codes[k ^ a].conjugate_pauli(e_c).x >> pmd.message_qubits]
                   for k in range(pmd.family.num_keys))

    tied: dict[tuple[int, float], list[int]] = {}
    for i, ((x, _), value) in enumerate(zip(paulis, norms)):
        tied.setdefault((x >> n, value), []).append(i)
    later_first = 0
    for same in tied.values():
        drawn = [paulis[i] for i in same]
        bounds = [exact_bound(*p) for p in drawn]
        visits = [i for i, _ in pmdkit.pmd._frame_blocks(pmd, drawn, lambda: -np.inf)]
        # Descending exact bound; sorted is stable, so equal bounds keep draw order.
        assert visits == sorted(range(len(drawn)), key=lambda i: -bounds[i])
        for later in range(1, len(drawn)):
            if bounds[later] > bounds[0]:
                later_first += 1
                assert pmdkit.pmd._sampled_argmax(pmd, [drawn[0], drawn[later]]) == 0
                assert pmdkit.pmd._sampled_argmax(pmd, drawn) == 0
    assert later_first == 6


def test_certified_selection_runs_few_svds(monkeypatch):
    # Blocks built and given an SVD at (8,2), seed 21; every one of the
    # 300 blocks was built before the frame bound order.
    pmd = make_pmd(8, 2)
    drawn = sampled_draws(pmd, 300, 21)
    svd, frame_blocks, calls, built = np.linalg.svd, pmdkit.pmd._frame_blocks, [], []

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    def counted_blocks(*args):
        for i, block in frame_blocks(*args):
            built.append(i)
            yield i, block

    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(pmdkit.pmd, "_frame_blocks", counted_blocks)
    pmdkit.pmd._sampled_argmax(pmd, drawn)
    assert (len(built), len(calls)) == (81, 2)


def dense_slab_norms(pmd):
    """|slab c of U_j^dag B_k| as [j, k, c], from SVDs of the dense tables."""
    num_keys, k_dim = pmd.family.num_keys, 1 << pmd.message_qubits
    rows = pmd.encoder.reshape(num_keys, -1, k_dim) * np.sqrt(num_keys)
    side_by_side = np.moveaxis(rows, 0, 1).reshape(rows.shape[1], -1)  # B_k for all k
    norms = []
    for j in range(num_keys):
        tables = apply_circuit(pmd.family.codes[j].encoder.inverse(), side_by_side)
        slabs = np.moveaxis(tables.reshape(num_keys, k_dim, num_keys, k_dim), 2, 0)
        norms.append(np.linalg.svd(slabs, compute_uv=False)[..., 0])
    return np.array(norms)


@pytest.mark.parametrize("n,lam,kwargs", [
    (2, 1, {}), (4, 2, {"encoder_pivot": "low"}), (4, 2, {"encoder_pivot": "high"}),
    (5, 1, {}), (6, 2, {}), (6, 3, {}), (3, 3, {}), (6, 6, {}), (8, 4, {})])
def test_clifford_frame_slab_norms_are_the_svd_norms(n, lam, kwargs):
    # 2^lam |S|^2 is |T| (an integer power of two <= 2^lam) or 0, so the
    # norm sqrt(|T| / 2^lam) needs no table.
    pmd = make_pmd(n, lam, **kwargs)
    num_keys = pmd.family.num_keys
    empty = np.zeros(0, dtype=np.int64)
    _, sizes = pmdkit.pmd._clifford_frames(pmd, empty, empty)
    assert sizes.shape == (num_keys, num_keys, num_keys)
    assert sizes.dtype.kind == "i"
    for size in np.unique(sizes).tolist():
        assert size == 0 or (size & (size - 1) == 0 and size <= num_keys), size
    want = dense_slab_norms(pmd)
    assert np.abs(np.sqrt(sizes / num_keys) - want).max() <= 1e-12


def test_slab_norms_take_no_dense_table(monkeypatch):
    # The exhaustive row bound applies no circuit, and the sampled sweep
    # builds the K tables of a key shift only when one of its draws can
    # reach the floor: 8 of 16 at (8,2) on every benchmark seed but 32 (4).
    pmd = make_pmd(8, 2)
    calls = []

    def counted(circ, array):
        calls.append(1)
        return apply_circuit(circ, array)

    monkeypatch.setattr(pmdkit.pmd, "apply_circuit", counted)
    pmdkit.pmd._row_bounds(pmd)
    pmdkit.pmd._row_bounds(make_pmd(6, 2))
    assert calls == []
    for seed in range(21, 37):
        calls.clear()
        measure_pmd_epsilon(pmd, samples=300, seed=seed)
        assert len(calls) <= 8, seed


@pytest.mark.parametrize("seed,eps", [(21, 0.5590169943749473), (22, 0.75),
                                      (23, 0.5292880841487061)])
def test_keyed_sampled_point_epsilon(seed, eps):
    # pmd verify --n 8 --lambda 2 --samples 300, as in the benchmark.
    pmd = make_pmd(8, 2)
    rep = measure_pmd_epsilon(pmd, samples=300, seed=seed)
    assert abs(rep.value - eps) <= 1e-12
    assert rep.value == compressed_error_norm(pmd, rep.argmax)


def test_sampling_mode_without_seed_uses_seed_zero():
    pmd = make_pmd(4, 2)
    a = measure_pmd_epsilon(pmd, samples=5)
    b = measure_pmd_epsilon(pmd, samples=5)
    assert a == b
    assert a == measure_pmd_epsilon(pmd, samples=5, seed=0)


@pytest.mark.parametrize("samples", [0, -3])
def test_sampling_mode_rejects_nonpositive_samples(samples):
    with pytest.raises(ValueError, match="samples must be >= 1"):
        measure_pmd_epsilon(make_pmd(2, 1), samples=samples)


def test_sampling_mode_guards_refuse_before_drawing():
    pmd = make_pmd(2, 1)  # 4^3 - 1 = 63 nonidentity Paulis
    assert not measure_pmd_epsilon(pmd, samples=63).exhaustive
    with pytest.raises(SizeGuardError, match="63 nonidentity Paulis"):
        measure_pmd_epsilon(pmd, samples=64)
    pmd = make_pmd(8, 2)  # 24415 * 4^6 block entries exceed 10^8
    start = time.perf_counter()
    with pytest.raises(SizeGuardError, match="draw fewer samples"):
        measure_pmd_epsilon(pmd, samples=24415)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# Detection unitary
# ---------------------------------------------------------------------------

def test_auth_unitary_is_unitary():
    pmd = make_pmd(2, 1)
    auth = auth_unitary(pmd)
    assert np.allclose(auth.conj().T @ auth, np.eye(16), atol=ATOL)


def test_auth_exactly_recovers_codestates():
    pmd = make_pmd(2, 1)
    auth = auth_unitary(pmd)
    dim = 1 << pmd.total
    rng = np.random.default_rng(4)
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi /= np.linalg.norm(psi)
    encoded = pmd.encoder @ psi  # flag |0> = low block
    state = np.concatenate([encoded, np.zeros(dim)])
    out = auth @ state
    want = np.zeros(2 * dim, dtype=complex)
    want[dim:dim + 2] = psi  # flag 1, message on low qubits, ancillas |0>
    assert np.linalg.norm(out - want) < 1e-9


def test_auth_disturbance_bounded_for_all_errors():
    pmd = make_pmd(2, 1)
    eps = measure_pmd_epsilon(pmd).value
    auth = auth_unitary(pmd)
    dim = 1 << pmd.total
    rng = np.random.default_rng(9)
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi /= np.linalg.norm(psi)
    encoded = pmd.encoder @ psi
    for code in range(1, 1 << (2 * pmd.total)):
        x = code & ((1 << pmd.total) - 1)
        z = code >> pmd.total
        e = PauliOperator(pmd.total, x, z, 0)
        corrupted = apply_pauli(e, encoded)
        state = np.concatenate([corrupted, np.zeros(dim)])
        diff = np.linalg.norm(auth @ state - state)
        assert diff <= math.sqrt(2) * eps + 1e-9
        # The per-error norm gives the sharper statement.
        assert diff <= math.sqrt(2) * compressed_error_norm(pmd, e) + 1e-9


def test_auth_size_guard(monkeypatch):
    code = make_pmd(4, 2)
    monkeypatch.setenv("PMDKIT_MAX_QUBITS", "5")
    with pytest.raises(SizeGuardError):
        auth_unitary(code)
