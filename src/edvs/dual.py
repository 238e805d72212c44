"""Matrix-free dual operator: one block-diagonal split of the matrix in derived order.

The dual of an original operator acts on continuous derived vectors by
retracting, applying the original matrix, and injecting back.  Splitting the
matrix by subdomain (each entry assigned to exactly one shared subdomain)
turns the middle step into one block-diagonal multiply in derived order
followed by one sum over each descendant group (one `np.bincount`).  The
derived order and the subdomain slices are read from the `DerivedSpace`.
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
    inject_interface,
    project_continuous,
    retract,
    retract_interface,
)
from .exceptions import ContinuityError, LocalityError
from .ingest import DecompositionMap, OriginalMatrix


@dataclass(frozen=True, eq=False)
class InterfaceBlocks:
    """The 2x2 interior/interface blocks of an original matrix.

    Rows and columns follow the sorted interior nodes, then the sorted
    interface nodes, d scalar entries per node.  Under locality `ii` is
    block-diagonal by subdomain; it is stored as CSC for `splu`.
    """

    interior_flat: np.ndarray   # original flat indices of the interior rows
    gamma_flat: np.ndarray      # original flat indices of the interface rows
    ii: sp.csc_matrix
    ig: sp.csr_matrix
    gi: sp.csr_matrix
    gg: sp.csr_matrix


def interface_blocks(matrix: OriginalMatrix, dm: DecompositionMap) -> InterfaceBlocks:
    """Slice A_II, A_IG, A_GI and A_GG once, in sorted interior / interface order."""
    d = matrix.block_dim
    i_flat = flat_block_indices(dm.interior_nodes, d)
    g_flat = flat_block_indices(dm.interface_nodes, d)
    csr = matrix.csr
    return InterfaceBlocks(
        interior_flat=i_flat,
        gamma_flat=g_flat,
        ii=csr[np.ix_(i_flat, i_flat)].tocsc(),
        ig=csr[np.ix_(i_flat, g_flat)].tocsr(),
        gi=csr[np.ix_(g_flat, i_flat)].tocsr(),
        gg=csr[np.ix_(g_flat, g_flat)].tocsr(),
    )


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
    shared = dm.shared_subdomains(coo.row // d, coo.col // d)
    counts = np.diff(shared.indptr)
    if not counts.all():
        k = int(np.argmin(counts))
        raise LocalityError(
            f"entry ({coo.row[k] // d}, {coo.col[k] // d}) couples nodes with no shared subdomain"
        )
    # the first, hence lowest, shared subdomain, times N
    owner_base = shared.indices[shared.indptr[:-1]].astype(np.int64) * n
    del shared, counts  # freed before the index arrays are built: this keeps peak memory down
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
    blocks: InterfaceBlocks

    @property
    def slices(self) -> tuple[SubdomainSlice, ...]:
        """The per-subdomain slices, cut out of the block-diagonal `local`."""
        return _cut_slices(self.local, self.space)


def build_dual_operator(matrix: OriginalMatrix, ds: DerivedSpace) -> DualOperator:
    d = matrix.block_dim
    if d != ds.block_dim:
        raise ValueError(f"matrix block_dim {d} does not match derived space {ds.block_dim}")
    return DualOperator(
        space=ds,
        local=_owner_split(matrix, ds),
        blocks=interface_blocks(matrix, ds.decomposition),
    )


def apply_dual(
    op: DualOperator,
    u: np.ndarray,
    project: bool = False,
    continuity_tol: float = 1e-10,
) -> np.ndarray:
    """Apply the dual operator to a continuous derived vector.

    Non-continuous input raises ContinuityError unless `project=True`, which
    first replaces u by its continuous part.  Each descendant group's rows of
    the local products are summed, which adds up the contributions of all the
    slices, and the sum is injected back to the group.
    """
    ds = op.space
    if u.shape != (ds.derived_flat_size,):
        raise ValueError(f"expected length {ds.derived_flat_size}, got {u.shape}")
    defect = continuity_defect(u, ds)
    if defect > continuity_tol:
        if not project:
            raise ContinuityError(
                f"input has continuity defect {defect:.3e} > {continuity_tol:.1e}; "
                "pass project=True to project first"
            )
        u = project_continuous(u, ds)
    u_hat = retract(u, ds)
    local = op.local @ u_hat[ds.origin_flat]
    return inject(np.bincount(ds.origin_flat, weights=local, minlength=ds.original_flat_size), ds)


def apply_block(op: DualOperator, block: str, v: np.ndarray) -> np.ndarray:
    """Apply one block of the 2x2 interior/interface form of the dual operator.

    Blocks: "II" (interior to interior, identical to the original block),
    "IG" (retract interface input first), "GI" (inject interface output),
    "GG" (both).  Interior-restricted vectors follow derived order; interface
    inputs must lie in the continuous interface subspace.
    """
    ds = op.space
    d = ds.block_dim
    n_i = len(ds.interior_positions) * d
    n_g = len(ds.gamma_positions) * d

    def interior_to_original(x):
        out = np.empty(len(ds.interior_nodes) * d)
        out[ds.interior_origin_flat] = x
        return out

    def original_to_interior(x):
        return x[ds.interior_origin_flat]

    if block == "II":
        if v.shape != (n_i,):
            raise ValueError(f"block II expects length {n_i}, got {v.shape}")
        return original_to_interior(op.blocks.ii @ interior_to_original(v))
    if block == "IG":
        if v.shape != (n_g,):
            raise ValueError(f"block IG expects length {n_g}, got {v.shape}")
        return original_to_interior(op.blocks.ig @ retract_interface(v, ds))
    if block == "GI":
        if v.shape != (n_i,):
            raise ValueError(f"block GI expects length {n_i}, got {v.shape}")
        return inject_interface(op.blocks.gi @ interior_to_original(v), ds)
    if block == "GG":
        if v.shape != (n_g,):
            raise ValueError(f"block GG expects length {n_g}, got {v.shape}")
        return inject_interface(op.blocks.gg @ retract_interface(v, ds), ds)
    raise ValueError(f"unknown block {block!r}; expected II, IG, GI or GG")


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
