"""Dense generalized Schur complements with null-space-aware pseudo-inverses.

Desk-scale (capped) dense routines: the pseudo-inverse of a square matrix is
the unique solution operator whose output is orthogonal to the null space;
the generalized Schur complement replaces the pivot-block inverse by that
pseudo-inverse.  Used standalone and as the verification oracle for the
iterative solver.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InconsistentSystemError, InvalidSplitError

DENSE_CAP = 2000

RANK_TOL = 1e-10          # relative singular-value threshold
CONSISTENCY_TOL = 1e-8    # relative residual accepted for range membership


def _check_square(B: np.ndarray) -> np.ndarray:
    B = np.asarray(B, dtype=np.float64)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {B.shape}")
    if B.shape[0] > DENSE_CAP:
        raise ValueError(f"dense module capped at {DENSE_CAP}x{DENSE_CAP}")
    if not np.all(np.isfinite(B)):
        raise ValueError("matrix has non-finite entries")
    return B


@dataclass(frozen=True, eq=False)
class NullSpaceBasis:
    """Orthonormal null-space basis with the projector onto its orthogonal complement."""

    basis: np.ndarray       # (n, k), columns orthonormal, k may be 0
    projector: np.ndarray   # (n, n) projection onto the complement of the null space

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True, eq=False)
class IndexSplit:
    """Disjoint index sets (M, N) defining the pivot and complement blocks."""

    m_set: tuple[int, ...]
    n_set: tuple[int, ...]

    def __post_init__(self):
        if set(self.m_set) & set(self.n_set):
            raise InvalidSplitError("index sets M and N overlap")

    def validate_range(self, size: int) -> None:
        for i in (*self.m_set, *self.n_set):
            if not 0 <= i < size:
                raise InvalidSplitError(f"index {i} out of range [0, {size})")

    @property
    def m_idx(self) -> np.ndarray:
        return np.array(self.m_set, dtype=np.int64)

    @property
    def n_idx(self) -> np.ndarray:
        return np.array(self.n_set, dtype=np.int64)


def null_space(B: np.ndarray) -> NullSpaceBasis:
    """Orthonormal basis of the (right) null space by singular value thresholding."""
    B = _check_square(B)
    n = B.shape[0]
    if n == 0:
        return NullSpaceBasis(basis=np.zeros((0, 0)), projector=np.zeros((0, 0)))
    _, s, vt = np.linalg.svd(B)
    smax = s[0] if len(s) else 0.0
    rank = int(np.sum(s > RANK_TOL * smax)) if smax > 0 else 0
    basis = vt[rank:].T
    projector = np.eye(n) - basis @ basis.T
    return NullSpaceBasis(basis=basis, projector=projector)


def _pinv_factors(B: np.ndarray):
    """SVD factors of the pseudo-inverse, thresholded like null_space."""
    u, s, vt = np.linalg.svd(B)
    smax = s[0] if len(s) else 0.0
    rank = int(np.sum(s > RANK_TOL * smax)) if smax > 0 else 0
    return u[:, :rank], s[:rank], vt[:rank]


def pseudo_inverse_matrix(B: np.ndarray) -> np.ndarray:
    """Explicit pseudo-inverse matrix (rank-revealing SVD); at rank 0, a sum of no terms: 0."""
    u, s, vt = _pinv_factors(_check_square(B))
    return (vt.T / s) @ u.T


def pseudo_inverse_apply(B: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The unique v with B v = w and v orthogonal to the null space of B.

    Requires w in the range of B; otherwise raises InconsistentSystemError
    carrying the relative residual of the least-squares solve.
    """
    B = _check_square(B)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (B.shape[0],):
        raise ValueError(f"rhs length {w.shape} does not match matrix size {B.shape[0]}")
    return _pinv_apply(B, _pinv_factors(B), w)


def _pinv_apply(B: np.ndarray, factors, w: np.ndarray) -> np.ndarray:
    u, s, vt = factors
    v = vt.T @ ((u.T @ w) / s)
    w_norm = float(np.linalg.norm(w))
    residual = float(np.linalg.norm(B @ v - w))
    if residual > CONSISTENCY_TOL * max(w_norm, 1e-300):
        raise InconsistentSystemError(
            f"rhs not in the operator range: relative residual "
            f"{residual / max(w_norm, 1e-300):.3e}",
            residual=residual,
        )
    return v


def _validate_split(B: np.ndarray, split: IndexSplit) -> NullSpaceBasis | None:
    """Check that the null-space complement lies in W(M)+W(N); returns the null space it took."""
    split.validate_range(B.shape[0])
    outside = ~np.isin(np.arange(B.shape[0]), split.m_set + split.n_set)
    if not outside.any():
        return None
    ns = null_space(B)
    # the projector's columns span the complement: its rows outside M and N must vanish
    defect = float(np.max(np.abs(ns.projector[outside])))
    if defect > 1e-8:
        raise InvalidSplitError(
            f"indices outside M and N carry null-space-complement mass {defect:.3e}; "
            "the split cannot represent the solution"
        )
    return ns


def _eliminate(B: np.ndarray, split: IndexSplit):
    """pinv(B_MM)'s SVD factors, pinv(B_MM) and the Schur complement on N, from one SVD."""
    m, n = split.m_idx, split.n_idx
    b_mm = B[np.ix_(m, m)]
    u, s, vt = f_mm = _pinv_factors(b_mm)
    p_mm = (vt.T / s) @ u.T
    return f_mm, p_mm, B[np.ix_(n, n)] - B[np.ix_(n, m)] @ (p_mm @ B[np.ix_(m, n)])


def schur_complement(B: np.ndarray, split: IndexSplit) -> np.ndarray:
    """Generalized Schur complement on N: B_NN - B_NM pinv(B_MM) B_MN."""
    B = _check_square(B)
    _validate_split(B, split)
    return _eliminate(B, split)[2]


def solve_via_schur(B: np.ndarray, w: np.ndarray, split: IndexSplit) -> np.ndarray:
    """Two-stage pseudo-solve: eliminate the M block, solve the N-block Schur system.

    The assembled vector is projected onto the null-space complement at the
    end: the two stages determine a solution of B v = w, but only up to a
    null-space component when the null space straddles the split, and the
    projection is what pins down the pseudo-inverse solution.
    """
    B = _check_square(B)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (B.shape[0],):
        raise ValueError(f"rhs length {w.shape} does not match matrix size {B.shape[0]}")
    ns = _validate_split(B, split) or null_space(B)
    m, n = split.m_idx, split.n_idx
    b_mm = B[np.ix_(m, m)]
    f_mm, _, sigma = _eliminate(B, split)
    w_m, w_n = w[m], w[n]

    rhs_n = w_n - B[np.ix_(n, m)] @ _pinv_apply(b_mm, f_mm, w_m)
    v_n = pseudo_inverse_apply(sigma, rhs_n)
    v_m = _pinv_apply(b_mm, f_mm, w_m - B[np.ix_(m, n)] @ v_n)

    v = np.zeros(B.shape[0])
    v[m] = v_m
    v[n] = v_n
    v = ns.projector @ v
    residual = float(np.linalg.norm(B @ v - w))
    if residual > CONSISTENCY_TOL * max(float(np.linalg.norm(w)), 1e-300):
        raise InconsistentSystemError(
            f"two-stage solve left relative residual {residual:.3e}", residual=residual
        )
    return v


@dataclass(frozen=True, eq=False)
class BlockInverse:
    """The four blocks of the pseudo-inverse in a given (M, N) split."""

    mm: np.ndarray
    mn: np.ndarray
    nm: np.ndarray
    nn: np.ndarray
    sigma_rank: int

    def assemble(self, split: IndexSplit, size: int) -> np.ndarray:
        full = np.zeros((size, size))
        m, n = split.m_idx, split.n_idx
        full[np.ix_(m, m)] = self.mm
        full[np.ix_(m, n)] = self.mn
        full[np.ix_(n, m)] = self.nm
        full[np.ix_(n, n)] = self.nn
        return full


def block_pseudo_inverse(B: np.ndarray, split: IndexSplit) -> BlockInverse:
    """Blockwise pseudo-inverse built from pinv(B_MM) and the Schur complement pseudo-inverse."""
    B = _check_square(B)
    _validate_split(B, split)
    m, n = split.m_idx, split.n_idx
    b_mn = B[np.ix_(m, n)]
    b_nm = B[np.ix_(n, m)]
    _, p_mm, sigma = _eliminate(B, split)
    u, s, vt = _pinv_factors(sigma)
    p_sigma = (vt.T / s) @ u.T
    mn_blk = -p_mm @ b_mn @ p_sigma
    nm_blk = -p_sigma @ b_nm @ p_mm
    mm_blk = p_mm + p_mm @ b_mn @ p_sigma @ b_nm @ p_mm
    return BlockInverse(mm=mm_blk, mn=mn_blk, nm=nm_blk, nn=p_sigma, sigma_rank=len(s))
