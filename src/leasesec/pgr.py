"""Power gain region machinery.

A beamformer w induces the gain triple (|w^* h_sp|^2, |w^* h_se|^2,
|w^* h_ss|^2).  Outer-boundary points of the region of achievable triples in
a sign direction e are swept by weighting the channels over the probability
simplex, taking the top eigenvector of Z = sum_k mu_k e_k h_k h_k^*, and
scaling by a transmit power.  boundary_sweep is the one eigen path: it
shares one span basis per channel set, so the per-point cost does not grow
with n_t, and a single boundary point is a one-row sweep.  Each row is an
r x r eigenproblem in span coordinates: numpy.linalg.eigh solves r = 3,
and numerics.jacobi_eigh's single rotation solves r <= 2.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from math import comb
from typing import Sequence

import numpy as np

from .model import ChannelSet
from .numerics import (
    TIE_TOL,
    canonical_top_coords,
    fix_phase,
    jacobi_eigh,
    orthonormal_span_basis,
    _complement_vector,
)

__all__ = [
    "CSV_HEADER",
    "DIRECTION_SUPPRESS_PRIMARY",
    "DIRECTION_SUPPRESS_PRIMARY_AND_EVE",
    "DIRECTION_TWO_TERM",
    "power_gains",
    "sample_simplex",
    "boundary_beamformer",
    "boundary_sweep",
    "export_boundary",
]

# Sign directions over the receiver order (primary Rx, eavesdropper, secondary Rx):
# -1 marks a receiver whose gain the sweep pushes down, +1 one it pushes up.
DIRECTION_SUPPRESS_PRIMARY = (-1, 1, 1)
DIRECTION_SUPPRESS_PRIMARY_AND_EVE = (-1, -1, 1)
# Two-term family over (h_sp, h_ss) only; the eavesdropper channel is unused.
DIRECTION_TWO_TERM = (-1, 1)

CSV_HEADER = "mu1,mu2,mu3,e1,e2,e3,power,gain_sp,gain_se,gain_ss,lambda_max"


@dataclass(frozen=True)
class BoundaryPoint:
    """One sampled outer-boundary point of the power gain region."""

    mu: tuple
    e: tuple
    power: float
    w: np.ndarray
    gains: tuple  # (gain_sp, gain_se, gain_ss)
    lambda_max: float


def power_gains(w: np.ndarray, ch: ChannelSet) -> tuple:
    """Received power gains (|w^* h_sp|^2, |w^* h_se|^2, |w^* h_ss|^2)."""
    return tuple(float(np.abs(np.vdot(w, h)) ** 2) for h in ch.secondary_vectors())


def sample_simplex(dim: int, m: int) -> np.ndarray:
    """All lattice points with coordinates i/m summing to 1, shape (L, dim).

    L = C(m + dim - 1, dim - 1); enumeration order is lexicographic in the
    integer parts, which fixes the ordering of every downstream sweep.
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if m < 1:
        raise ValueError(f"resolution must be >= 1, got {m}")
    if dim == 2:
        i = np.arange(m + 1)
        pts = np.column_stack([i, m - i])
    else:
        rows = [(i, j, m - i - j) for i in range(m + 1) for j in range(m - i + 1)]
        pts = np.array(rows)
    if len(pts) != comb(m + dim - 1, dim - 1):
        raise RuntimeError(
            f"simplex lattice has {len(pts)} points, expected C({m + dim - 1}, {dim - 1})"
        )
    return pts / float(m)


def _term_channels(ch: ChannelSet, k: int) -> np.ndarray:
    if k == 3:
        return ch.secondary_vectors()
    return np.stack([ch.h_sp, ch.h_ss])


@dataclass(frozen=True)
class SweepResult:
    """Vectorized boundary sweep over a mu lattice at unit transmit power.

    unit_gains[l] holds the three receiver gains of the unit-norm top
    eigenvector for lattice row l; scaling the power scales gains linearly.
    """

    mu: np.ndarray  # (L, k)
    e: tuple
    lam: np.ndarray  # (L,)
    unit_gains: np.ndarray  # (L, 3)
    coords: np.ndarray  # (L, r) eigenvectors in span coordinates
    basis: np.ndarray  # (n_t, r)
    from_complement: np.ndarray  # (L,) bool
    complement: np.ndarray | None  # unit vector orthogonal to the span, if any

    def beamformer(self, idx: int, power: float) -> np.ndarray:
        if self.from_complement[idx]:
            return np.sqrt(power) * self.complement
        v = self.basis @ self.coords[idx]
        v = v / np.linalg.norm(v)
        return np.sqrt(power) * fix_phase(v)


def boundary_sweep(mu: np.ndarray, e: Sequence[int], ch: ChannelSet) -> SweepResult:
    """Top eigenpairs and unit-power gains for every weight row at once."""
    mu = np.atleast_2d(np.asarray(mu, dtype=float))
    e = tuple(int(s) for s in e)
    k = len(e)
    if any(s not in (-1, 1) for s in e):
        raise ValueError(f"direction signs must be +/-1, got {e}")
    if mu.shape[1] != k:
        raise ValueError(f"mu has {mu.shape[1]} weights for a {k}-term direction")
    chans = _term_channels(ch, k)
    n = ch.n_t
    basis = orthonormal_span_basis(list(chans))
    if not basis:
        raise ValueError("all channel vectors are zero")
    B = np.column_stack(basis)
    r = B.shape[1]
    ht = np.conj(B.T) @ chans.T  # (r, k) projected channels
    outers = np.einsum("ik,jk->kij", ht, np.conj(ht))  # (k, r, r)
    coeff = mu * np.asarray(e, dtype=float)[None, :]
    S = np.einsum("lk,kij->lij", coeff, outers)
    S = (S + np.conj(np.transpose(S, (0, 2, 1)))) / 2.0
    vals, vecs = np.linalg.eigh(S) if r == 3 else jacobi_eigh(S)
    lam = vals[:, -1].copy()
    coords = canonical_top_coords(vals, vecs, np.linalg.norm(S, axis=(1, 2)))
    if r < n:
        # The orthogonal complement carries eigenvalue 0.  It wins only when
        # every in-span eigenvalue is clearly negative; ties keep the in-span
        # eigenvector so nearby lattice rows stay continuous.
        comp = lam < -TIE_TOL
        lam = np.where(lam < -TIE_TOL, 0.0, np.maximum(lam, 0.0))
    else:
        comp = np.zeros(len(lam), dtype=bool)
    # Gains of unit-norm eigenvectors against the full channel triple.
    ht3 = np.conj(B.T) @ ch.secondary_vectors().T  # (r, 3)
    unit_gains = np.abs(np.einsum("lr,rk->lk", np.conj(coords), ht3)) ** 2
    comp_vec = _complement_vector(basis, n) if r < n else None
    if np.any(comp):
        # Orthogonal to the term channels; may still see the others (k == 2).
        unit_gains[comp] = (
            np.abs(np.conj(comp_vec) @ ch.secondary_vectors().T) ** 2
        )[None, :]
    return SweepResult(
        mu=mu,
        e=e,
        lam=lam,
        unit_gains=unit_gains,
        coords=coords,
        basis=B,
        from_complement=comp,
        complement=comp_vec,
    )


def boundary_beamformer(
    mu: Sequence[float],
    e: Sequence[int],
    ch: ChannelSet,
    power: float,
) -> BoundaryPoint:
    """One boundary point: w = sqrt(power) * v_max(sum_k mu_k e_k h_k h_k^*).

    A one-row boundary_sweep, equal bit for bit to the same row of a batched
    sweep except on a 2x2 row that is already diagonal within
    numerics.JACOBI_TOL: alone it is not rotated, in a batch that other rows
    need rotating it is.
    """
    mu = np.asarray(mu, dtype=float)
    e_t = tuple(int(s) for s in e)
    if len(mu) != len(e_t) or len(e_t) not in (2, 3):
        raise ValueError("mu and e must both have 2 or 3 entries")
    if not np.all((mu >= -1e-12) & (mu <= 1.0 + 1e-12)):
        raise ValueError(f"weights must lie in [0, 1], got {mu}")
    if abs(float(mu.sum()) - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1, got sum {mu.sum()!r}")
    if power < 0:
        raise ValueError("power must be >= 0")
    sweep = boundary_sweep(mu[None], e_t, ch)
    w = sweep.beamformer(0, power)
    return BoundaryPoint(
        mu=tuple(float(x) for x in mu),
        e=e_t,
        power=float(power),
        w=w,
        gains=power_gains(w, ch),
        lambda_max=float(sweep.lam[0]),
    )


def _fmt(x: float) -> str:
    return repr(float(x))


def export_boundary(points: Sequence[BoundaryPoint], stream: io.TextIOBase) -> None:
    """Write boundary points as CSV, one row per point.

    Two-term points (no eavesdropper channel in the weight set) are written
    with mu2 = 0 and e2 = -1 so the column layout stays fixed.
    """
    stream.write(CSV_HEADER + "\n")
    for pt in points:
        if len(pt.mu) == 3:
            mu, e = pt.mu, pt.e
        else:
            mu = (pt.mu[0], 0.0, pt.mu[1])
            e = (pt.e[0], -1, pt.e[1])
        cells = [_fmt(mu[0]), _fmt(mu[1]), _fmt(mu[2])]
        cells += [str(int(s)) for s in e]
        cells += [_fmt(pt.power)] + [_fmt(g) for g in pt.gains] + [_fmt(pt.lambda_max)]
        stream.write(",".join(cells) + "\n")
