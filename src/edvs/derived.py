"""Derived vector space: node enumeration, interior/interface split, projections, duality.

Each original node p with multiplicity m(p) spawns m(p) derived nodes (p, a),
one per subdomain containing it.  Derived vectors carry one d-block per
derived node; the weighted inner product scales each block product by 1/m(p),
which makes injection an isometry.  The continuous subspace (equal values
across each descendant group) is the image of `inject`; `project_continuous`
averages onto it and `project_zero_average` is its orthogonal complement.

Because injection is an isometry, the solve never builds this space: an
interface vector is |Gamma| d node values in sorted interface order.  Only
`solver.apply_interface_operator` and `edvs.dual`, which builds the dual
operator on it, use it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .ingest import DecompositionMap

DENSE_REFERENCE_CAP = 2000  # scalar unknowns; explicit operator matrices are test-only


def flat_block_indices(nodes: np.ndarray, block_dim: int) -> np.ndarray:
    """Scalar row indices of the given nodes: node p owns rows p*d .. p*d+d-1."""
    nodes = np.asarray(nodes, dtype=np.int64)
    if block_dim == 1:
        return nodes.copy()
    return (nodes[:, None] * block_dim + np.arange(block_dim)).ravel()


@dataclass(frozen=True, eq=False)
class DerivedSpace:
    """Indexed derived node set with its interior/interface split and reduction machinery.

    Derived nodes are ordered by subdomain, then node: the column-major order
    of `decomposition.incidence`.  Each subdomain's nodes occupy one
    contiguous slice (`subdomain_ranges`), and a descendant group (all
    derived nodes of one original node) is summed by one `np.bincount` over
    `origin_flat`.  All index arrays ending in `_flat` address scalar
    entries (d per node).
    """

    decomposition: DecompositionMap
    block_dim: int
    node_of: np.ndarray
    subdomain_of: np.ndarray
    subdomain_ranges: tuple[tuple[int, int], ...]
    # scalar-level gather/scatter machinery
    origin_flat: np.ndarray          # derived flat -> original flat index
    weight_flat: np.ndarray          # 1/m(p) per derived flat entry
    original_inv_mult_flat: np.ndarray  # 1/m(p) per original flat entry
    # the interior/interface split, as derived node positions
    gamma_positions: np.ndarray      # derived indices with m(p) > 1
    interior_positions: np.ndarray   # derived indices with m(p) == 1

    @property
    def gamma_nodes(self) -> np.ndarray:
        """The sorted interface node ids, read from `decomposition.interface_nodes`."""
        return self.decomposition.interface_nodes

    @property
    def n_derived(self) -> int:
        return len(self.node_of)

    @property
    def n_original(self) -> int:
        return self.decomposition.n_nodes

    @property
    def derived_flat_size(self) -> int:
        return self.n_derived * self.block_dim

    @property
    def original_flat_size(self) -> int:
        return self.n_original * self.block_dim

    def descendants(self, node: int) -> np.ndarray:
        """Derived positions of the given original node, ascending by subdomain."""
        return np.flatnonzero(self.node_of == node)


def build_derived_space(dm: DecompositionMap, block_dim: int = 1) -> DerivedSpace:
    """Enumerate derived nodes and split them into interior (m(p) == 1) and interface.

    The solver needs no finer classification: the coarse space of interface
    classes (`solver.build_coarse_space`) is computed from the partition.
    """
    csc = dm.incidence.tocsc()  # row indices come out sorted within each column
    node_of = csc.indices.astype(np.int64)
    subdomain_of = np.repeat(np.arange(dm.n_subdomains, dtype=np.int64), np.diff(csc.indptr))
    bounds = csc.indptr.tolist()

    d = block_dim
    origin_flat = flat_block_indices(node_of, d)
    inv_mult = 1.0 / dm.multiplicity.astype(np.float64)
    weight_flat = np.repeat(inv_mult[node_of], d)
    original_inv_mult_flat = np.repeat(inv_mult, d)

    mult_of = dm.multiplicity[node_of]
    gamma_positions = np.nonzero(mult_of > 1)[0].astype(np.int64)
    interior_positions = np.nonzero(mult_of == 1)[0].astype(np.int64)

    return DerivedSpace(
        decomposition=dm,
        block_dim=d,
        node_of=node_of,
        subdomain_of=subdomain_of,
        subdomain_ranges=tuple(zip(bounds[:-1], bounds[1:])),
        origin_flat=origin_flat,
        weight_flat=weight_flat,
        original_inv_mult_flat=original_inv_mult_flat,
        gamma_positions=gamma_positions,
        interior_positions=interior_positions,
    )


# ---------------------------------------------------------------------------
# Inner products
# ---------------------------------------------------------------------------

def inner_original(u: np.ndarray, v: np.ndarray) -> float:
    """Plain Euclidean inner product over original flat entries."""
    if u.shape != v.shape:
        raise ValueError(f"length mismatch: {u.shape} vs {v.shape}")
    return float(np.dot(u, v))


def inner_derived(u: np.ndarray, v: np.ndarray, ds: DerivedSpace) -> float:
    """Weighted inner product: each derived entry contributes 1/m(p) times its product."""
    if u.shape != (ds.derived_flat_size,) or v.shape != (ds.derived_flat_size,):
        raise ValueError("derived vectors do not conform to the space")
    return float(np.dot(u * ds.weight_flat, v))


def norm_derived(u: np.ndarray, ds: DerivedSpace) -> float:
    return float(np.sqrt(max(inner_derived(u, u, ds), 0.0)))


# ---------------------------------------------------------------------------
# Injection, retraction, projections
# ---------------------------------------------------------------------------

def inject(u_hat: np.ndarray, ds: DerivedSpace) -> np.ndarray:
    """Copy each original value to all of its descendants; result is continuous."""
    if u_hat.shape != (ds.original_flat_size,):
        raise ValueError(f"expected length {ds.original_flat_size}, got {u_hat.shape}")
    return u_hat[ds.origin_flat]


def retract(u: np.ndarray, ds: DerivedSpace) -> np.ndarray:
    """Average each descendant group back to one original value.

    Defined on all derived vectors; on continuous ones it inverts `inject`.
    Accumulation runs in derived-index order (ascending subdomain), so the
    result is deterministic.
    """
    if u.shape != (ds.derived_flat_size,):
        raise ValueError(f"expected length {ds.derived_flat_size}, got {u.shape}")
    total = np.bincount(ds.origin_flat, weights=u, minlength=ds.original_flat_size)
    return total * ds.original_inv_mult_flat


def project_continuous(u: np.ndarray, ds: DerivedSpace) -> np.ndarray:
    """Orthogonal projection onto the continuous subspace (descendant-group average)."""
    return inject(retract(u, ds), ds)


def project_zero_average(u: np.ndarray, ds: DerivedSpace) -> np.ndarray:
    """Complementary projection: u minus its continuous part sums to zero per group."""
    return u - project_continuous(u, ds)


def is_dual(u_hat: np.ndarray, u: np.ndarray, ds: DerivedSpace, tol: float = 1e-12) -> bool:
    """True when every descendant of every node carries the original value.

    The comparison is relative-plus-absolute: the max deviation must not
    exceed tol * (1 + max |u_hat|).
    """
    if u_hat.shape != (ds.original_flat_size,) or u.shape != (ds.derived_flat_size,):
        raise ValueError("inputs do not conform to the space")
    scale = 1.0 + (float(np.max(np.abs(u_hat))) if u_hat.size else 0.0)
    defect = float(np.max(np.abs(u - u_hat[ds.origin_flat]))) if u.size else 0.0
    return defect <= tol * scale


def relative_defect(u: np.ndarray, zero_average: np.ndarray, ds: DerivedSpace) -> float:
    """Weighted norm of `zero_average` = u - inject(retract(u)) over that of u.

    Each squared norm is one pass over the vector, the weights and the vector
    again, with no weighted copy of the vector.
    """
    w = ds.weight_flat
    nu = np.einsum("i,i,i->", u, w, u)
    if nu == 0.0:
        return 0.0
    return float(np.sqrt(np.einsum("i,i,i->", zero_average, w, zero_average)) / np.sqrt(nu))


def continuity_defect(u: np.ndarray, ds: DerivedSpace) -> float:
    """Relative norm of the zero-average component; 0 for continuous vectors."""
    return relative_defect(u, project_zero_average(u, ds), ds)


# ---------------------------------------------------------------------------
# Explicit operator matrices (dense reference path, test-scale only)
# ---------------------------------------------------------------------------

def injection_matrix(ds: DerivedSpace) -> sp.csr_matrix:
    """Injection as an explicit (|X| d) x (N d) 0/1 matrix; capped at test scale."""
    if ds.original_flat_size > DENSE_REFERENCE_CAP:
        raise ValueError(f"dense reference path capped at {DENSE_REFERENCE_CAP} scalar unknowns")
    n = ds.derived_flat_size
    return sp.csr_matrix(
        (np.ones(n), (np.arange(n), ds.origin_flat)), shape=(n, ds.original_flat_size)
    )


def retraction_matrix(ds: DerivedSpace) -> sp.csr_matrix:
    """Retraction as the 1/m-weighted transpose of the injection matrix."""
    if ds.original_flat_size > DENSE_REFERENCE_CAP:
        raise ValueError(f"dense reference path capped at {DENSE_REFERENCE_CAP} scalar unknowns")
    n = ds.derived_flat_size
    return sp.csr_matrix(
        (ds.weight_flat, (ds.origin_flat, np.arange(n))), shape=(ds.original_flat_size, n)
    )
