"""Complex vector helpers and the small eigensolver behind the boundary sweeps.

The matrices of interest are always Z = sum_k c_k h_k h_k^* with at most
three terms.  pgr.boundary_sweep solves their eigenproblems in the span of
the h_k (dimension <= 3) with jacobi_eigh and accounts for the zero
eigenvalue of the orthogonal complement separately, so the cost does not
depend on the ambient dimension.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["inner", "orthonormal_span_basis", "jacobi_eigh"]

# Residual threshold for dropping a vector from a span basis.
DEFAULT_SPAN_TOL = 1e-10
# |lambda_in_span - 0| below this counts as a tie with the complement
# eigenvalue; the in-span eigenvector is preferred (deterministic output).
TIE_TOL = 1e-12
# Top eigenvalues within this (relative) distance form one degenerate
# group; the returned eigenvector is canonicalized inside the group so that
# rounding noise cannot swing it around the subspace.
TIE_GROUP_TOL = 1e-11

_PIVOTS = {1: (), 2: ((0, 1),), 3: ((0, 1), (0, 2), (1, 2))}


def inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hermitian inner product sum(conj(a_i) * b_i)."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def orthonormal_span_basis(
    vectors: Sequence[np.ndarray], tol: float = DEFAULT_SPAN_TOL
) -> list[np.ndarray]:
    """Orthonormal basis of span(vectors) by modified Gram-Schmidt.

    A vector whose residual after projection is below tol times its own norm
    is treated as linearly dependent and dropped.  All-zero input gives an
    empty basis.
    """
    vecs = [np.asarray(v, dtype=np.complex128) for v in vectors]
    if not vecs:
        raise ValueError("empty vector list")
    n = vecs[0].shape[0]
    if any(v.shape != (n,) for v in vecs):
        raise ValueError("vectors must share one length")
    basis: list[np.ndarray] = []
    for v in vecs:
        own = np.linalg.norm(v)
        if own == 0.0:
            continue
        u = v.copy()
        for _ in range(2):  # second pass keeps the Gram matrix at eps level
            for b in basis:
                u = u - b * np.vdot(b, u)
        res = np.linalg.norm(u)
        if res >= tol * own:
            basis.append(u / res)
    return basis


def jacobi_eigh(mats: np.ndarray, tol: float = 1e-13, max_sweeps: int = 60):
    """Eigendecomposition of Hermitian matrices of size <= 3 by cyclic Jacobi.

    mats: (n, n) or batched (L, n, n) complex Hermitian.  Rotations repeat
    until the off-diagonal norm of every matrix falls below tol times its
    Frobenius norm.  Returns (eigenvalues ascending, eigenvector columns).
    """
    A = np.array(mats, dtype=np.complex128, copy=True)
    single = A.ndim == 2
    if single:
        A = A[None]
    L, n, n2 = A.shape
    if n != n2 or n not in _PIVOTS:
        raise ValueError(f"expected square matrices of size 1..3, got {A.shape}")
    V = np.tile(np.eye(n, dtype=np.complex128), (L, 1, 1))
    if n > 1:
        thresh = tol * np.maximum(np.linalg.norm(A, axis=(1, 2)), 1e-300)
        for _ in range(max_sweeps):
            off2 = np.zeros(L)
            for p, q in _PIVOTS[n]:
                off2 += np.abs(A[:, p, q]) ** 2
            if np.all(off2 <= thresh * thresh):
                break
            for p, q in _PIVOTS[n]:
                _rotate(A, V, p, q)
        else:
            raise RuntimeError("Jacobi sweep limit reached without convergence")
    vals = np.real(np.diagonal(A, axis1=1, axis2=2)).copy()
    order = np.argsort(vals, axis=1, kind="stable")
    vals = np.take_along_axis(vals, order, axis=1)
    V = np.take_along_axis(V, order[:, None, :], axis=2)
    if single:
        return vals[0], V[0]
    return vals, V


def _rotate(A: np.ndarray, V: np.ndarray, p: int, q: int) -> None:
    """One batched Jacobi rotation zeroing A[:, p, q] (in place)."""
    apq = A[:, p, q].copy()
    m = np.abs(apq)
    act = m > 0.0
    safe_m = np.where(act, m, 1.0)
    ph = np.where(act, apq / safe_m, 1.0 + 0.0j)
    tau = np.where(act, (A[:, q, q].real - A[:, p, p].real) / (2.0 * safe_m), 0.0)
    t = np.where(
        act,
        np.where(tau >= 0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau)),
        0.0,
    )
    c = (1.0 / np.sqrt(1.0 + t * t)).astype(np.complex128)
    s = (t / np.sqrt(1.0 + t * t)).astype(np.complex128)
    jqp = -s * np.conj(ph)
    jqq = c * np.conj(ph)
    for M in (A, V):
        colp = M[:, :, p].copy()
        colq = M[:, :, q].copy()
        M[:, :, p] = colp * c[:, None] + colq * jqp[:, None]
        M[:, :, q] = colp * s[:, None] + colq * jqq[:, None]
    rowp = A[:, p, :].copy()
    rowq = A[:, q, :].copy()
    A[:, p, :] = np.conj(c)[:, None] * rowp + np.conj(jqp)[:, None] * rowq
    A[:, q, :] = np.conj(s)[:, None] * rowp + np.conj(jqq)[:, None] * rowq


def canonical_top_coords(vals: np.ndarray, vecs: np.ndarray, scale: np.ndarray):
    """Deterministic top eigenvector per batch row, ascending-sorted input.

    Where the largest eigenvalue is (nearly) degenerate, any basis of the
    tied subspace is a valid answer and rounding decides which one an
    eigensolver returns.  This projects a fixed coordinate axis (the one
    the tied subspace covers best) onto the subspace instead, which every
    evaluation path reproduces to machine precision.
    """
    group = vals >= (vals[:, -1] - TIE_GROUP_TOL * np.maximum(scale, 1.0))[:, None]
    coords = vecs[:, :, -1].copy()
    multi = group.sum(axis=1) > 1
    if np.any(multi):
        masked = np.where(group[:, None, :], vecs, 0.0)
        diag = np.sum(np.abs(masked) ** 2, axis=2)  # projector diagonal
        ref = np.argmax(diag, axis=1)
        ref_rows = np.take_along_axis(
            masked, ref[:, None, None], axis=1
        )[:, 0, :]
        proj = np.einsum("lrj,lj->lr", masked, np.conj(ref_rows))
        norms = np.linalg.norm(proj, axis=1)
        use = multi & (norms > 1e-8)
        coords[use] = proj[use] / norms[use, None]
    return coords


def fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the largest-magnitude entry is real >= 0."""
    idx = int(np.argmax(np.abs(v)))
    pivot = v[idx]
    mag = np.abs(pivot)
    if mag == 0.0:
        return v
    return v * (np.conj(pivot) / mag)


def _complement_vector(basis: list[np.ndarray], n: int) -> np.ndarray:
    """Deterministic unit vector orthogonal to span(basis), dim(span) < n."""
    eye = np.eye(n, dtype=np.complex128)
    res = []
    for j in range(n):
        u = eye[j].copy()
        for _ in range(2):
            for b in basis:
                u = u - b * np.vdot(b, u)
        res.append(u)
    norms = [np.linalg.norm(u) for u in res]
    j = int(np.argmax(norms))
    return fix_phase(res[j] / norms[j])
