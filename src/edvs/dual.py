"""Matrix-free dual operator: one block-diagonal split of the matrix in derived order.

The dual of an original operator acts on continuous derived vectors by
retracting, applying the original matrix, and injecting back.  Splitting the
matrix by subdomain (each entry assigned to exactly one shared subdomain)
turns the middle step into one block-diagonal multiply in derived order
followed by one sum over each descendant group (one `np.bincount`).  The
derived order and the subdomain slices are read from the `DerivedSpace`.
The split is the operator's one copy of the matrix: each block of the 2x2
interior/interface form is the operator applied to a vector that is zero
off the block's input positions, read at its output positions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .derived import (
    DerivedSpace,
    build_derived_space,
    continuity_defect,
    flat_block_indices,
    inject,
    retract,
)
from .exceptions import ContinuityError, LocalityError
from .ingest import DecompositionMap, OriginalMatrix


@dataclass(frozen=True, eq=False)
class SubdomainSlice:
    """The matrix entries assigned to one subdomain, in local node indexing."""

    subdomain: int
    nodes: np.ndarray        # sorted member nodes of this subdomain
    matrix: sp.csr_matrix    # (len(nodes)*d, len(nodes)*d)


def _owner_split(matrix: OriginalMatrix, ds: DerivedSpace) -> sp.csr_matrix:
    """The owner split as one block-diagonal matrix in derived order.

    Each nonzero goes to the lowest-index subdomain shared by its node pair,
    at the derived rows and columns of that subdomain's copies of the pair.
    Derived order is by subdomain, then node, so the derived position of
    (p, a) is the rank of the key a*N + p among the sorted keys of the
    space.  Requires locality (every pair shares a subdomain).
    """
    d = matrix.block_dim
    dm = ds.decomposition
    n = dm.n_nodes
    coo = matrix.csr.tocoo()
    owner_base = dm.lowest_shared(coo.row // d, coo.col // d)
    if (owner_base < 0).any():
        k = int(np.argmax(owner_base < 0))
        raise LocalityError(
            f"entry ({coo.row[k] // d}, {coo.col[k] // d}) couples nodes with no shared subdomain"
        )
    owner_base *= n
    key = ds.subdomain_of * n + ds.node_of
    size = ds.derived_flat_size

    def derived_flat(flat):
        pos = np.searchsorted(key, owner_base + flat // d)
        pos *= d
        pos += flat % d
        return pos

    rows = derived_flat(coo.row)
    cols = derived_flat(coo.col)
    local = sp.coo_matrix((coo.data, (rows, cols)), shape=(size, size)).tocsr()
    local.sort_indices()
    return local


def _cut_slices(local: sp.csr_matrix, ds: DerivedSpace) -> tuple[SubdomainSlice, ...]:
    """The per-subdomain slices: the diagonal blocks of `local`, one per subdomain."""
    d = ds.block_dim
    return tuple(
        SubdomainSlice(subdomain=a, nodes=ds.node_of[start:stop],
                       matrix=local[start * d:stop * d, start * d:stop * d])
        for a, (start, stop) in enumerate(ds.subdomain_ranges)
    )


def split_by_subdomain(matrix: OriginalMatrix, dm: DecompositionMap) -> list[SubdomainSlice]:
    """Assign each nonzero entry to the lowest-index subdomain shared by its node pair.

    The slices sum to the input matrix entrywise; any such split induces the
    same dual operator, so the deterministic lowest-index rule is chosen for
    reproducibility.  Requires locality (every pair shares a subdomain).
    """
    ds = build_derived_space(dm, block_dim=matrix.block_dim)
    return list(_cut_slices(_owner_split(matrix, ds), ds))


@dataclass(frozen=True, eq=False)
class DualOperator:
    """Apply the dual of an original matrix through per-subdomain local slices."""

    space: DerivedSpace
    # the slices stacked block-diagonally in derived order: their gathers
    # concatenate to exactly `space.origin_flat`
    local: sp.csr_matrix

    @property
    def slices(self) -> tuple[SubdomainSlice, ...]:
        """The per-subdomain slices, cut out of the block-diagonal `local`."""
        return _cut_slices(self.local, self.space)


def build_dual_operator(matrix: OriginalMatrix, ds: DerivedSpace) -> DualOperator:
    d = matrix.block_dim
    if d != ds.block_dim:
        raise ValueError(f"matrix block_dim {d} does not match derived space {ds.block_dim}")
    return DualOperator(space=ds, local=_owner_split(matrix, ds))


# relative continuity defect above which `apply_dual` rejects its input
CONTINUITY_TOL = 1e-10


def apply_dual(op: DualOperator, u: np.ndarray, project: bool = False) -> np.ndarray:
    """Apply the dual operator to a continuous derived vector.

    Non-continuous input raises ContinuityError unless `project=True`, which
    applies the operator to u's continuous part: the retraction averages each
    descendant group, so it sees only that part.  Each descendant group's
    rows of the local products are summed, which adds up the contributions
    of all the slices, and the sum is injected back to the group.
    """
    ds = op.space
    if u.shape != (ds.derived_flat_size,):
        raise ValueError(f"expected length {ds.derived_flat_size}, got {u.shape}")
    if not project:
        defect = continuity_defect(u, ds)
        if defect > CONTINUITY_TOL:
            raise ContinuityError(
                f"input has continuity defect {defect:.3e} > {CONTINUITY_TOL:.1e}; "
                "pass project=True to project first"
            )
    u_hat = retract(u, ds)
    local = op.local @ u_hat[ds.origin_flat]
    return inject(np.bincount(ds.origin_flat, weights=local, minlength=ds.original_flat_size), ds)


def apply_block(op: DualOperator, block: str, v: np.ndarray) -> np.ndarray:
    """Apply one block of the 2x2 interior/interface form of the dual operator.

    Blocks: "II" (interior to interior, identical to the original block),
    "IG" (interface to interior), "GI" (interior to interface) and "GG".
    Interior-restricted vectors follow derived order; an interface input is
    projected onto the continuous interface subspace.  The block is the dual
    operator applied to v extended by zeros, read at the output positions.
    """
    if block not in ("II", "IG", "GI", "GG"):
        raise ValueError(f"unknown block {block!r}; expected II, IG, GI or GG")
    ds = op.space
    positions = {"I": ds.interior_positions, "G": ds.gamma_positions}
    rows, cols = (flat_block_indices(positions[side], ds.block_dim) for side in block)
    if v.shape != (len(cols),):
        raise ValueError(f"block {block} expects length {len(cols)}, got {v.shape}")
    u = np.zeros(ds.derived_flat_size)
    u[cols] = v
    return apply_dual(op, u, project=True)[rows]


def slices_sum(op: DualOperator) -> sp.csr_matrix:
    """Reassemble the split slices into a global matrix (exactness check helper)."""
    ds = op.space
    n = ds.original_flat_size
    coo = op.local.tocoo()
    total = sp.coo_matrix(
        (coo.data, (ds.origin_flat[coo.row], ds.origin_flat[coo.col])), shape=(n, n)
    ).tocsr()
    total.sort_indices()
    return total
