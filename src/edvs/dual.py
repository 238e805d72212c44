"""Matrix-free dual operator: per-subdomain slices plus a descendant exchange.

The dual of an original operator acts on continuous derived vectors by
retracting, applying the original matrix, and injecting back.  Splitting the
matrix into per-subdomain slices (each entry assigned to exactly one shared
subdomain) turns the middle step into one block-diagonal multiply in derived
order followed by one reduction over descendant groups.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .derived import (
    DerivedSpace,
    continuity_defect,
    flat_block_indices,
    inject_interface,
    project_continuous,
    retract,
    retract_interface,
)
from .exceptions import ContinuityError, IncompleteExchangeError, LocalityError
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


def split_by_subdomain(matrix: OriginalMatrix, dm: DecompositionMap) -> list[SubdomainSlice]:
    """Assign each nonzero entry to the lowest-index subdomain shared by its node pair.

    The slices sum to the input matrix entrywise; any such split induces the
    same dual operator, so the deterministic lowest-index rule is chosen for
    reproducibility.  Requires locality (every pair shares a subdomain).
    """
    d = matrix.block_dim
    coo = matrix.csr.tocoo()
    p_nodes = coo.row // d
    q_nodes = coo.col // d
    shared = dm.shared_subdomains(p_nodes, q_nodes)
    counts = np.diff(shared.indptr)
    if not counts.all():
        k = int(np.argmin(counts))
        raise LocalityError(
            f"entry ({p_nodes[k]}, {q_nodes[k]}) couples nodes with no shared subdomain"
        )
    owner = shared.indices[shared.indptr[:-1]]  # the first, hence lowest, shared subdomain

    # entries grouped by owner, in their original order within each group
    order = np.argsort(owner, kind="stable")
    bounds = np.searchsorted(owner[order], np.arange(dm.n_subdomains + 1))
    slices = []
    for a in range(dm.n_subdomains):
        nodes = dm.subdomain_nodes[a]  # sorted, so a node's local rank is a binary search
        mine = order[bounds[a]:bounds[a + 1]]
        rows = np.searchsorted(nodes, p_nodes[mine])
        cols = np.searchsorted(nodes, q_nodes[mine])
        local_rows = rows * d + coo.row[mine] % d
        local_cols = cols * d + coo.col[mine] % d
        size = len(nodes) * d
        local = sp.coo_matrix(
            (coo.data[mine], (local_rows, local_cols)), shape=(size, size)
        ).tocsr()
        local.sort_indices()
        slices.append(SubdomainSlice(subdomain=a, nodes=nodes, matrix=local))
    return slices


@dataclass(frozen=True, eq=False)
class DualOperator:
    """Apply the dual of an original matrix through per-subdomain local slices."""

    space: DerivedSpace
    # the slices stacked block-diagonally in derived order: their gathers
    # concatenate to exactly `space.origin_flat`
    local: sp.csr_matrix
    mult_flat: np.ndarray    # m(p) per derived flat row
    blocks: InterfaceBlocks

    @property
    def slices(self) -> tuple[SubdomainSlice, ...]:
        """The per-subdomain slices, cut back out of the block-diagonal `local`."""
        d = self.space.block_dim
        nodes = self.space.decomposition.subdomain_nodes
        return tuple(
            SubdomainSlice(subdomain=a, nodes=nodes[a],
                           matrix=self.local[start * d:stop * d, start * d:stop * d])
            for a, (start, stop) in enumerate(self.space.subdomain_ranges)
        )


def build_dual_operator(matrix: OriginalMatrix, ds: DerivedSpace) -> DualOperator:
    dm = ds.decomposition
    d = matrix.block_dim
    if d != ds.block_dim:
        raise ValueError(f"matrix block_dim {d} does not match derived space {ds.block_dim}")
    # the slices are freed before the 2x2 blocks are cut: this keeps peak memory down
    local = sp.block_diag([s.matrix for s in split_by_subdomain(matrix, dm)], format="csr")
    return DualOperator(
        space=ds,
        local=local,
        mult_flat=np.repeat(dm.multiplicity[ds.node_of].astype(np.float64), d),
        blocks=interface_blocks(matrix, dm),
    )


def exchange(partials, ds: DerivedSpace) -> np.ndarray:
    """Combine per-subdomain contributions into a continuous derived vector.

    Each subdomain supplies values on its own derived slice; every descendant
    group is then summed (ascending subdomain order) and averaged, and the
    average is written to all members of the group.
    """
    if len(partials) != ds.decomposition.n_subdomains:
        raise IncompleteExchangeError(
            f"expected {ds.decomposition.n_subdomains} slices, got {len(partials)}"
        )
    d = ds.block_dim
    for a, part in enumerate(partials):
        if part is None:
            raise IncompleteExchangeError(f"subdomain {a} contributed no slice")
        start, stop = ds.subdomain_ranges[a]
        if np.shape(part) != ((stop - start) * d,):
            raise IncompleteExchangeError(
                f"subdomain {a} slice has length {np.shape(part)}, expected {(stop - start) * d}"
            )
    stacked = np.concatenate(partials) if partials else np.zeros(0)
    return project_continuous(stacked, ds)


def apply_dual(
    op: DualOperator,
    u: np.ndarray,
    project: bool = False,
    continuity_tol: float = 1e-10,
    threads: int = 1,
) -> np.ndarray:
    """Apply the dual operator to a continuous derived vector.

    Non-continuous input raises ContinuityError unless `project=True`, which
    first replaces u by its continuous part.  The local products are scaled by
    row multiplicity before the averaging so that descendant groups
    accumulate the plain sum of slice contributions.  `threads` is accepted
    for compatibility and selects nothing: the product is one sparse call.
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
    return project_continuous(op.mult_flat * (op.local @ u_hat[ds.origin_flat]), ds)


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
    d = ds.block_dim
    n = ds.original_flat_size
    total = sp.csr_matrix((n, n))
    for s in op.slices:
        gat = flat_block_indices(s.nodes, d)
        coo = s.matrix.tocoo()
        total = total + sp.coo_matrix(
            (coo.data, (gat[coo.row], gat[coo.col])), shape=(n, n)
        ).tocsr()
    total.sort_indices()
    return total
