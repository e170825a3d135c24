"""Complex vector helpers and the 2x2 eigensolver behind the boundary sweeps.

The matrices of interest are always Z = sum_k c_k h_k h_k^* with at most
three terms.  pgr.boundary_sweep solves their eigenproblems in the span of
the h_k and accounts for the zero eigenvalue of the orthogonal complement
separately, so the cost does not depend on the ambient dimension.  A span
of dimension <= 2 goes to jacobi_eigh, one exact Jacobi rotation with no
iteration; a 3-dimensional span goes to top_eigpair3's closed form.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["inner", "orthonormal_span_basis", "jacobi_eigh"]

# Residual threshold for dropping a vector from a span basis.
SPAN_TOL = 1e-10
# Off-diagonal threshold, relative to the Frobenius norm, below which a
# 2x2 batch is already diagonal and jacobi_eigh does not rotate it.
JACOBI_TOL = 1e-13
# |lambda_in_span - 0| below this counts as a tie with the complement
# eigenvalue; the in-span eigenvector is preferred (deterministic output).
TIE_TOL = 1e-12
# Top eigenvalues within this (relative) distance form one degenerate
# group; the returned eigenvector is canonicalized inside the group so that
# rounding noise cannot swing it around the subspace.
TIE_GROUP_TOL = 1e-11
# Top-two eigenvalue gap, relative to |S|, below which top_eigpair3 hands a
# row to LAPACK; its cross-product eigenvector has residual ~ eps |S|^2 / gap.
CLOSED_FORM_GAP_TOL = 1e-3


def inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hermitian inner product sum(conj(a_i) * b_i)."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def orthonormal_span_basis(vectors: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Orthonormal basis of span(vectors) by modified Gram-Schmidt.

    A vector whose residual after projection is below SPAN_TOL times its
    own norm is treated as linearly dependent and dropped.  All-zero input
    gives an empty basis.
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
        if res >= SPAN_TOL * own:
            basis.append(u / res)
    return basis


def jacobi_eigh(mats: np.ndarray):
    """Eigendecomposition of Hermitian 1x1 or 2x2 matrices by one Jacobi rotation.

    mats: (n, n) or batched (L, n, n) complex Hermitian, n <= 2.  One
    rotation diagonalizes a 2x2 matrix exactly; the batch skips it only when
    every off-diagonal entry is below JACOBI_TOL times its matrix's
    Frobenius norm.  Returns (eigenvalues ascending, eigenvector columns).
    """
    A = np.array(mats, dtype=np.complex128, copy=True)
    single = A.ndim == 2
    if single:
        A = A[None]
    L, n, n2 = A.shape
    if n != n2 or n not in (1, 2):
        raise ValueError(f"expected square matrices of size 1 or 2, got {A.shape}")
    V = np.tile(np.eye(n, dtype=np.complex128), (L, 1, 1))
    if n == 2:
        thresh = JACOBI_TOL * np.maximum(np.linalg.norm(A, axis=(1, 2)), 1e-300)
        if not np.all(np.abs(A[:, 0, 1]) ** 2 <= thresh * thresh):
            _rotate(A, V)
    vals = np.real(np.diagonal(A, axis1=1, axis2=2)).copy()
    order = np.argsort(vals, axis=1, kind="stable")
    vals = np.take_along_axis(vals, order, axis=1)
    V = np.take_along_axis(V, order[:, None, :], axis=2)
    if single:
        return vals[0], V[0]
    return vals, V


def _rotate(A: np.ndarray, V: np.ndarray) -> None:
    """The batched Jacobi rotation zeroing A[:, 0, 1] of 2x2 matrices (in place)."""
    apq = A[:, 0, 1].copy()
    m = np.abs(apq)
    act = m > 0.0
    safe_m = np.where(act, m, 1.0)
    ph = np.where(act, apq / safe_m, 1.0 + 0.0j)
    tau = np.where(act, (A[:, 1, 1].real - A[:, 0, 0].real) / (2.0 * safe_m), 0.0)
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
        colp = M[:, :, 0].copy()
        colq = M[:, :, 1].copy()
        M[:, :, 0] = colp * c[:, None] + colq * jqp[:, None]
        M[:, :, 1] = colp * s[:, None] + colq * jqq[:, None]
    rowp = A[:, 0, :].copy()
    rowq = A[:, 1, :].copy()
    A[:, 0, :] = np.conj(c)[:, None] * rowp + np.conj(jqp)[:, None] * rowq
    A[:, 1, :] = np.conj(s)[:, None] * rowp + np.conj(jqq)[:, None] * rowq


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


def top_eigpair3(S: np.ndarray):
    """(lambda_max (L,), unit top eigenvector (L, 3)) of Hermitian 3x3 rows.

    The trigonometric cubic (Smith, CACM 1961) gives the top eigenvalue
    beta of B = (S - qI) / p; the largest column of adj(B - beta I), a plain
    (unconjugated) cross product of two of its rows, is the eigenvector, and
    lambda_max is its Rayleigh quotient.  Rows whose top two eigenvalues lie
    within CLOSED_FORM_GAP_TOL * |S| (ties, multiples of I) or whose cross
    products all vanish go to numpy.linalg.eigh and canonical_top_coords.
    """
    d = np.real(np.diagonal(S, axis1=1, axis2=2))
    x, y, z = S[:, 0, 1], S[:, 0, 2], S[:, 1, 2]
    ax, ay, az = (c.real**2 + c.imag**2 for c in (x, y, z))
    dq = d - (d.sum(axis=1) / 3.0)[:, None]
    p = np.sqrt((np.sum(dq * dq, axis=1) + 2.0 * (ax + ay + az)) / 6.0)
    inv = 1.0 / np.where(p > 0.0, p, 1.0)
    (b0, b1, b2), bx, by, bz = (dq * inv[:, None]).T, x * inv, y * inv, z * inv
    cx, cy, cz = ax * inv**2, ay * inv**2, az * inv**2
    half_det = 0.5 * (b0 * b1 * b2 + 2.0 * (bx * bz * np.conj(by)).real
                      - b0 * cz - b1 * cy - b2 * cx)
    phi = np.arccos(np.clip(half_det, -1.0, 1.0)) / 3.0
    m0, m1, m2 = (b - 2.0 * np.cos(phi) for b in (b0, b1, b2))
    # adj(B - beta I), Hermitian; column j is the cross product of rows j+1, j+2.
    a01, a02, a12 = by * np.conj(bz) - m2 * bx, bx * bz - m1 * by, np.conj(bx) * by - m0 * bz
    adj = np.array([[m1 * m2 - cz + 0j, a01, a02], [np.conj(a01), m0 * m2 - cy + 0j, a12],
                    [np.conj(a02), np.conj(a12), m0 * m1 - cx + 0j]])  # (3, 3, L)
    norms = np.sum(adj.real**2 + adj.imag**2, axis=0)  # squared column norms
    k, rows = np.argmax(norms, axis=0), np.arange(len(S))
    scale = np.linalg.norm(S, axis=(1, 2))
    gap = 2.0 * np.sqrt(3.0) * p * np.sin(np.pi / 3.0 - phi)  # lambda_1 - lambda_2
    keep = (gap > CLOSED_FORM_GAP_TOL * scale) & (norms[k, rows] > CLOSED_FORM_GAP_TOL**4)
    v = adj.T[rows, k] / np.sqrt(np.where(keep, norms[k, rows], 1.0))[:, None]
    lam = np.einsum("li,lij,lj->l", np.conj(v), S, v).real
    if not np.all(keep):
        back = ~keep
        vals, vecs = np.linalg.eigh(S[back])
        lam[back] = vals[:, -1]
        v[back] = canonical_top_coords(vals, vecs, scale[back])
    return lam, v


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
