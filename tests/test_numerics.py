import numpy as np
import numpy.testing as npt
import pytest

from leasesec.model import ChannelSet, SystemParams, TrialSeed, sample_channels
from leasesec.numerics import (
    CLOSED_FORM_GAP_TOL,
    JACOBI_TOL,
    canonical_top_coords,
    inner,
    jacobi_eigh,
    orthonormal_span_basis,
    top_eigpair3,
)
from leasesec.pgr import boundary_sweep


def random_rank_sum(rng, n, k=3):
    vecs = (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))) / np.sqrt(2)
    return rng.uniform(-1.0, 1.0, size=k), vecs


def dense(weights, vecs):
    """sum_k weights[k] vecs[k] vecs[k]^* as a full matrix."""
    return sum(c * np.outer(h, np.conj(h)) for c, h in zip(weights, vecs))


def top_eigpair(weights, vecs):
    """(lambda_max, unit eigenvector) of dense(weights, vecs) for two or
    three terms, from a one-row boundary_sweep with mu = |weights|."""
    weights = np.asarray(weights, dtype=float)
    vecs = np.asarray(vecs, dtype=complex)
    if len(vecs) == 2:  # the two-term family reads (h_sp, h_ss)
        vecs = [vecs[0], np.zeros_like(vecs[0]), vecs[1]]
    ch = ChannelSet(0j, 0j, 0j, *vecs)
    sweep = boundary_sweep(np.abs(weights)[None], np.where(weights < 0, -1, 1), ch)
    return float(sweep.lam[0]), sweep.beamformer(0, 1.0)


class TestInner:
    def test_identity(self):
        assert inner(np.array([1, 0], complex), np.array([1, 0], complex)) == 1

    def test_orthogonal(self):
        assert inner(np.array([1, 0], complex), np.array([0, 1], complex)) == 0

    def test_conjugation_convention(self):
        got = inner(np.array([1j, 0]), np.array([1, 0], complex))
        assert got == -1j

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            inner(np.ones(2, complex), np.ones(3, complex))


class TestSpanBasis:
    def test_plane(self):
        basis = orthonormal_span_basis(
            [np.array([1, 0], complex), np.array([0, 2], complex)]
        )
        assert len(basis) == 2
        gram = np.array([[inner(a, b) for b in basis] for a in basis])
        npt.assert_allclose(gram, np.eye(2), atol=1e-14)

    def test_collinear_collapse(self):
        basis = orthonormal_span_basis(
            [np.array([1, 0], complex), np.array([2, 0], complex)]
        )
        assert len(basis) == 1
        npt.assert_allclose(np.abs(basis[0]), [1, 0], atol=1e-14)

    def test_gram_identity_random(self):
        rng = np.random.default_rng(5)
        vecs = [rng.standard_normal(5) + 1j * rng.standard_normal(5) for _ in range(3)]
        basis = orthonormal_span_basis(vecs)
        assert len(basis) == 3
        gram = np.array([[inner(a, b) for b in basis] for a in basis])
        npt.assert_allclose(gram, np.eye(3), atol=1e-12)

    def test_all_zero_input(self):
        assert orthonormal_span_basis([np.zeros(3, complex)]) == []


class TestJacobi:
    def test_against_eigh_batch(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 3))
            L = int(rng.integers(1, 6))
            raw = rng.standard_normal((L, n, n)) + 1j * rng.standard_normal((L, n, n))
            H = (raw + np.conj(np.transpose(raw, (0, 2, 1)))) / 2
            if rng.uniform() < 0.3:
                H = H * 1e4  # scale must not break the relative threshold
            vals, vecs = jacobi_eigh(H)
            npt.assert_allclose(vals, np.linalg.eigvalsh(H), atol=1e-10 * max(1, np.max(np.abs(H))))
            res = np.einsum("lij,ljk->lik", H, vecs) - vals[:, None, :] * vecs
            assert np.max(np.abs(res)) <= 1e-11 * max(1.0, np.max(np.abs(H)))

    def test_single_matrix_form(self):
        H = np.array([[2.0, 1j], [-1j, 2.0]])
        vals, vecs = jacobi_eigh(H)
        npt.assert_allclose(vals, [1.0, 3.0], atol=1e-12)
        npt.assert_allclose(np.conj(vecs.T) @ vecs, np.eye(2), atol=1e-13)

    def test_rejects_large_matrices(self):
        # 3x3 spans go to top_eigpair3, never to the single rotation.
        for n in (3, 4):
            with pytest.raises(ValueError):
                jacobi_eigh(np.eye(n, dtype=complex))


def reference_jacobi_eigh(mats):
    """jacobi_eigh as it was: the full in-place rotation of A and V, then a
    stable argsort.  Kept here as the byte-level reference."""
    A = np.array(mats, dtype=np.complex128, copy=True)
    single = A.ndim == 2
    if single:
        A = A[None]
    L, n, _ = A.shape
    V = np.tile(np.eye(n, dtype=np.complex128), (L, 1, 1))
    thresh = JACOBI_TOL * np.maximum(np.linalg.norm(A, axis=(1, 2)), 1e-300)
    if n == 2 and not np.all(np.abs(A[:, 0, 1]) ** 2 <= thresh * thresh):
        apq = A[:, 0, 1].copy()
        m = np.abs(apq)
        act = m > 0.0
        safe_m = np.where(act, m, 1.0)
        ph = np.where(act, apq / safe_m, 1.0 + 0.0j)
        tau = np.where(act, (A[:, 1, 1].real - A[:, 0, 0].real) / (2.0 * safe_m), 0.0)
        t = np.where(act, np.where(tau >= 0, 1.0, -1.0)
                     / (np.abs(tau) + np.sqrt(1.0 + tau * tau)), 0.0)
        c = (1.0 / np.sqrt(1.0 + t * t)).astype(np.complex128)
        s = (t / np.sqrt(1.0 + t * t)).astype(np.complex128)
        jqp = -s * np.conj(ph)
        jqq = c * np.conj(ph)
        for M in (A, V):
            colp = M[:, :, 0].copy()
            colq = M[:, :, 1].copy()
            M[:, :, 0] = colp * c[:, None] + colq * jqp[:, None]
            M[:, :, 1] = colp * s[:, None] + colq * jqq[:, None]
        rowp = A[:, 0, :].copy()
        rowq = A[:, 1, :].copy()
        A[:, 0, :] = np.conj(c)[:, None] * rowp + np.conj(jqp)[:, None] * rowq
        A[:, 1, :] = np.conj(s)[:, None] * rowp + np.conj(jqq)[:, None] * rowq
    vals = np.real(np.diagonal(A, axis1=1, axis2=2)).copy()
    order = np.argsort(vals, axis=1, kind="stable")
    vals = np.take_along_axis(vals, order, axis=1)
    V = np.take_along_axis(V, order[:, None, :], axis=2)
    return (vals[0], V[0]) if single else (vals, V)


def assert_same_bytes(mats):
    got, want = jacobi_eigh(mats), reference_jacobi_eigh(mats)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


class TestJacobiBytes:
    """jacobi_eigh forms only the diagonal of J^* A J and J itself; every
    output bit must equal the full rotation's, signed zeros included."""

    def test_sweep_lattices(self, monkeypatch):
        # The 2x2 batches boundary_sweep hands over on coarse lattices of
        # 100 two-antenna channels: 1.07 M rows.
        import leasesec.pgr as pgr

        batches = []
        monkeypatch.setattr(pgr, "jacobi_eigh", lambda S: batches.append(S) or jacobi_eigh(S))
        p = SystemParams.from_snr_db(10.0, 0.0, 2)
        for t in range(100):
            ch = sample_channels(p, TrialSeed(4242, t))
            for e in ((-1, 1, 1), (-1, -1, 1)):
                pgr.boundary_sweep(pgr.sample_simplex(3, 100), e, ch)
            pgr.boundary_sweep(pgr.sample_simplex(2, 400), (-1, 1), ch)
        assert sum(len(S) for S in batches) >= 1_000_000
        for S in batches:
            assert_same_bytes(S)

    def test_random_batches(self):
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((20000, 2, 2)) + 1j * rng.standard_normal((20000, 2, 2))
        assert_same_bytes((raw + np.conj(np.transpose(raw, (0, 2, 1)))) / 2)

    def test_all_diagonal_batch(self):
        rng = np.random.default_rng(4)
        D = np.zeros((50, 2, 2), complex)
        D[:, 0, 0], D[:, 1, 1] = rng.standard_normal((2, 50))
        D[3, 0, 1] = D[3, 1, 0] = 1e-20  # below JACOBI_TOL: still no rotation
        assert_same_bytes(D)

    def test_mixed_batch_rotates_every_row(self):
        # One row needs the rotation, so the already diagonal rows (one of
        # them exactly, one within JACOBI_TOL) are rotated too.
        H = np.array([[[1.0, 0.5 - 0.2j], [0.5 + 0.2j, -1.0]],
                      [[1.0, 0.0], [0.0, 2.0]],
                      [[2.0, 1e-20j], [-1e-20j, 1.0]],
                      [[3.0, 0.0], [0.0, -3.0]]], dtype=complex)
        assert_same_bytes(H)

    def test_ties_and_signed_zeros(self):
        # Every combination of zero, signed-zero, equal and distinct entries.
        diag = [0.0, -0.0, 1.0, -1.0, 2.0]
        off = [0.0, -0.0, 1.0, -1.0, 0.3]
        cases = [[[complex(a, 0.0), complex(x, y)], [complex(x, -y), complex(d, 0.0)]]
                 for a in diag for d in diag for x in off for y in off]
        assert_same_bytes(np.array(cases))
        for H in cases[::7]:
            assert_same_bytes(np.array(H))

    def test_one_by_one_and_single_matrices(self):
        assert_same_bytes(np.array([[[3.0 + 0j]], [[-1.0 + 0j]], [[-1.0 + 0j]]]))
        assert_same_bytes(np.array([[2.0 + 0j]]))
        assert_same_bytes(np.array([[2.0, -1j], [1j, 1.0]]))
        assert_same_bytes(np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex))


def hermitian_with_eigenvalues(rng, vals):
    """U diag(vals) U^* for one random unitary U per row of vals (L, 3)."""
    raw = rng.standard_normal((len(vals), 3, 3)) + 1j * rng.standard_normal((len(vals), 3, 3))
    U, _ = np.linalg.qr(raw)
    S = np.einsum("lij,lj,lkj->lik", U, vals, np.conj(U))
    return (S + np.conj(np.transpose(S, (0, 2, 1)))) / 2


def lapack_top(S):
    """The LAPACK path that top_eigpair3 falls back to, for every row."""
    vals, vecs = np.linalg.eigh(S)
    return vals[:, -1], canonical_top_coords(vals, vecs, np.linalg.norm(S, axis=(1, 2)))


class TestTopEigpair3:
    """The closed-form 3x3 top eigenpair against dense numpy.linalg.eigh."""

    def assert_eigpairs(self, S, lam, v, tol=1e-13):
        scale = np.maximum(np.linalg.norm(S, axis=(1, 2)), 1.0)
        dlam = np.abs(lam - np.linalg.eigvalsh(S)[:, -1]) / scale
        res = np.linalg.norm(np.einsum("lij,lj->li", S, v) - lam[:, None] * v, axis=1)
        assert dlam.max() <= tol
        assert (res / scale).max() <= tol
        npt.assert_allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-14)

    def test_random_batches(self):
        rng = np.random.default_rng(2024)
        raw = rng.standard_normal((60_000, 3, 3)) + 1j * rng.standard_normal((60_000, 3, 3))
        dense = (raw + np.conj(np.transpose(raw, (0, 2, 1)))) / 2
        dense *= 10.0 ** rng.uniform(-3, 4, size=(len(dense), 1, 1))
        h = rng.standard_normal((60_000, 3, 3)) + 1j * rng.standard_normal((60_000, 3, 3))
        sums = np.einsum("lk,lki,lkj->lij", rng.uniform(-1, 1, (60_000, 3)), h, np.conj(h))
        for S in (dense, (sums + np.conj(np.transpose(sums, (0, 2, 1)))) / 2):
            self.assert_eigpairs(S, *top_eigpair3(S))

    def test_rank_one_corner_rows(self):
        # mu = e_k: +c h h^* is solved in closed form (the two lower
        # eigenvalues tie), -c h h^* ties at the top and takes LAPACK.
        rng = np.random.default_rng(8)
        h = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
        c = np.repeat([1.0, -1.0], 20)[:, None, None] * rng.uniform(0.1, 10.0, (40, 1, 1))
        S = c * np.einsum("li,lj->lij", h, np.conj(h))
        lam, v = top_eigpair3(S)
        self.assert_eigpairs(S, lam, v)
        ref_lam, ref_v = lapack_top(S[20:])
        assert lam[20:].tobytes() == ref_lam.tobytes()
        assert v[20:].tobytes() == ref_v.tobytes()

    @pytest.mark.parametrize("gap", [0.0, 1e-9])
    def test_tied_and_near_tied_top(self, gap):
        # Rows within CLOSED_FORM_GAP_TOL of a tie take the LAPACK path
        # bit for bit; the tied subspace is resolved by canonical_top_coords.
        assert gap < CLOSED_FORM_GAP_TOL
        rng = np.random.default_rng(31)
        top = rng.uniform(-2.0, 2.0, 50)
        vals = np.column_stack([top - 3.0, top - gap * np.abs(top - 3.0), top])
        S = hermitian_with_eigenvalues(rng, vals)
        lam, v = top_eigpair3(S)
        self.assert_eigpairs(S, lam, v)
        ref_lam, ref_v = lapack_top(S)
        assert lam.tobytes() == ref_lam.tobytes()
        assert v.tobytes() == ref_v.tobytes()

    def test_gap_just_above_the_fallback(self, monkeypatch):
        # Three times the fallback gap: closed form only, still at 1e-13.
        def no_lapack(_):
            raise AssertionError("row left the closed form")

        rng = np.random.default_rng(32)
        top = rng.uniform(-2.0, 2.0, 500)
        norm = np.sqrt(2 * top**2 + (top - 3.0) ** 2)
        vals = np.column_stack([top - 3.0, top - 3 * CLOSED_FORM_GAP_TOL * norm, top])
        S = hermitian_with_eigenvalues(rng, vals)
        monkeypatch.setattr(np.linalg, "eigh", no_lapack)
        lam, v = top_eigpair3(S)
        monkeypatch.undo()
        self.assert_eigpairs(S, lam, v)

    @pytest.mark.parametrize("c", [0.0, 2.5, -7.0])
    def test_multiple_of_identity(self, c):
        S = np.tile(c * np.eye(3, dtype=complex), (4, 1, 1))
        lam, v = top_eigpair3(S)
        assert np.all(lam == c)
        npt.assert_array_equal(np.abs(v), np.tile([1.0, 0.0, 0.0], (4, 1)))


class TestMaxEigpair:
    """Top eigenpair of a signed rank-one sum through a one-row
    boundary_sweep, the package's only eigen path."""

    def test_rank_one_positive(self):
        h = np.array([3.0, 4.0], complex)
        lam, v = top_eigpair([0.0, 1.0], [np.array([1.0, 0.0], complex), h])
        assert lam == pytest.approx(25.0, abs=1e-12)
        npt.assert_allclose(v, [0.6, 0.8], atol=1e-12)

    def test_rank_one_negative_complement(self):
        # Both terms span one line, so the complement's eigenvalue 0 beats
        # the in-span -|h|^2.
        h = np.array([3.0, 4.0], complex)
        lam, v = top_eigpair([-1.0, 0.0], [h, 2.0 * h])
        assert lam == 0.0
        assert abs(inner(v, h)) <= 1e-10 * np.linalg.norm(h)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_dense_oracle_agreement(self):
        # Span-reduced eigenpair must match a dense full-dimension
        # eigensolve; the complement of the span carries eigenvalue 0.
        rng = np.random.default_rng(42)
        worst_val = worst_res = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            weights, vecs = random_rank_sum(rng, n)
            lam, v = top_eigpair(weights, vecs)
            z = dense(weights, vecs)
            lam_ref = np.linalg.eigvalsh(z)[-1]
            scale = float(np.sum(np.abs(weights) * np.sum(np.abs(vecs) ** 2, axis=1)))
            worst_val = max(worst_val, abs(lam - lam_ref))
            worst_res = max(worst_res, np.linalg.norm(z @ v - lam * v) / max(scale, 1e-30))
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)
        assert worst_val <= 1e-10
        assert worst_res <= 1e-9

    def test_phase_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            weights, vecs = random_rank_sum(rng, n)
            lam, v = top_eigpair(weights, vecs)
            vecs2 = vecs * np.exp(1j * rng.uniform(0, 2 * np.pi, size=3))[:, None]
            lam2, v2 = top_eigpair(weights, vecs2)
            assert abs(lam - lam2) <= 1e-12 * max(1.0, abs(lam))
            for h, h2 in zip(vecs, vecs2):
                assert abs(abs(inner(v, h)) - abs(inner(v2, h2))) < 1e-10

    def test_phase_convention(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            _, v = top_eigpair(*random_rank_sum(rng, 4))
            pivot = v[int(np.argmax(np.abs(v)))]
            assert abs(pivot.imag) <= 1e-12
            assert pivot.real >= 0

    def test_tie_prefers_in_span(self):
        # Coefficients cancel, so the in-span eigenvalue is exactly 0 and
        # ties with the complement; the in-span eigenvector must win.
        h = np.array([1.0, 2.0, 0.0], complex)
        lam, v = top_eigpair([1.0, -1.0], [h, h])
        assert abs(lam) <= 1e-12
        assert abs(abs(inner(v, h / np.linalg.norm(h))) - 1.0) <= 1e-12

    def test_degenerate_all_zero(self):
        with pytest.raises(ValueError):
            top_eigpair([1.0, 0.0], np.zeros((2, 3), complex))

    def test_zero_coefficient_vectors_join_span(self):
        # A zero-weight term still pins the basis, so the eigenvector for a
        # pure negative term is the in-span direction orthogonal to it.
        h1 = np.array([1.0, 1.0], complex) / np.sqrt(2)
        h2 = np.array([1.0, -0.5], complex)
        lam, v = top_eigpair([-1.0, 0.0], [h1, h2])
        assert abs(lam) <= 1e-12
        assert abs(inner(v, h1)) <= 1e-12
