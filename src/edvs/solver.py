"""End-to-end solve: block-diagonal interior factorization, projected interface Krylov.

Pipeline: factor the interior block A_II (exactly block-diagonal by
subdomain under locality) with one sparse LU, condense the right-hand side
onto the interface, run a Krylov iteration there (CG or GMRES, chosen from
the matrix), back-substitute the interior values, and check the residual of
the solution in the original system.  The 2x2 interior/interface slicing
lives here: `factor_interior` slices A_II and keeps only its factor, and
`interface_blocks` slices the coupling blocks A_IG, A_GI and A_GG.

The continuous interface subspace is the image of injection, and under the
1/m-weighted inner product injection is an isometry.  So a Krylov method on
continuous interface vectors is, step for step, the same method on
interface-node values with the Euclidean inner product.  Every interface
vector of the solve is therefore node values, |Gamma| d entries in sorted
interface order (the rows `blocks.gamma_flat`), with the Schur operator
A_GG - A_GI A_II^-1 A_IG, and the solve never builds the derived space.

Conjugate gradients is deflated by a coarse space Z of interface classes
(Nicolaides 1987; the "DEF" variant of Tang, Nabben, Vuik & Erlangga 2009).
A class is the set of interface nodes that share one subdomain set: on boxes,
each edge and each cross point, the primal space of BDDC and FETI-DP
(Dohrmann 2003; Toselli & Widlund 2005).  Z holds, per class and
component, the indicator of the class, and on a class of 7 nodes or more
also its first Legendre moments along the class, up to degree 3 (see
`build_coarse_space`).  The columns are linearly independent, so E = Z' S Z
is nonsingular wherever S is definite.  E is sparse and is factored by the same
sparse LU as A_II.  The coarse solve Z E^-1 Z' g is the starting iterate, and
every search direction is made S-orthogonal to Z.  S Z takes one interior
right-hand side per colour and component.  A column's colour is its rank
among the columns whose A_IG z reaches the same interior block, and a column
that reaches none, such as a 2D cross point, takes none.

CG is also preconditioned by an M ~ S that is symmetrized, with a diagonal
entry raised wherever its row is not strictly diagonally dominant, so M is
SPD, and factored once (see `build_preconditioner`).  On large subdomains M
is probed (Chan & Mathew 1992) from S_W = A_GG - A_GW A_WW^-1 A_WG, where W
is the strip of interior entries within three steps of the interface, with
its own sparse LU (see `_probe_solves`).  On small subdomains whose
couplings are of one scale, M is S with A_II lumped to its diagonal,
A_GG - A_GI diag(A_II)^-1 A_IG, which takes no colouring and no interior
solve.  Otherwise M is the probe of S on the node pattern of A_GG^k, k = 3
on long, edge-like classes and 2 otherwise (see `probe_width`).  The probes
take one right-hand side per colour and component, and every build solves
in blocks of a few columns per SuperLU call.  The interface classes, Z,
S Z, the factor of E, the strip factor and M are built only when needed (M
and the strip only when the coarse solve leaves work) and are
interface-operator work, timed in `interface_ms`.  The iteration count is
the number of Krylov steps after the coarse solve, 0 when Z spans the
interface; the stopping test stays on the true residual.  GMRES, on a
nonsymmetric or indefinite problem, is neither deflated nor preconditioned.
"""
from __future__ import annotations

import numbers
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.polynomial.legendre import legvander

from .derived import DerivedSpace, build_derived_space, flat_block_indices, inject, retract
from .exceptions import ConfigError, ConvergenceError, EdvsError, SingularInteriorError
from .ingest import DecompositionMap, OriginalMatrix, ProblemInstance, require_locality


@dataclass
class SolveConfig:
    """Solver knobs; max_iters defaults to 10x the interface dimension at solve time."""

    tol: float = 1e-10
    max_iters: int | None = None
    compare_direct: bool = False

    def __post_init__(self):
        # bool is an Integral, hence a Real: True would pass as 1
        if isinstance(self.tol, bool) or not (isinstance(self.tol, numbers.Real)
                                              and np.isfinite(self.tol) and self.tol > 0):
            raise ConfigError(f"tol must be finite and positive, got {self.tol!r}")
        if self.max_iters is not None and (isinstance(self.max_iters, bool) or not (
                isinstance(self.max_iters, numbers.Integral) and self.max_iters >= 1)):
            raise ConfigError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if not isinstance(self.compare_direct, bool):
            raise ConfigError(f"compare_direct must be a bool, got {self.compare_direct!r}")


@dataclass
class SolveReport:
    """Everything observable about one solve; to_dict() has one key per field, in order."""

    iterations: int = 0
    converged: bool = False
    final_original_residual: float = float("nan")
    relative_error_vs_direct: float | None = None
    residual_history: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True, eq=False)
class InterfaceBlocks:
    """The interior/interface coupling blocks A_IG, A_GI and A_GG of an original matrix.

    Rows and columns follow the sorted interior nodes, then the sorted
    interface nodes, d scalar entries per node.  A_II is sliced and factored
    by `factor_interior`, and only its factor is kept.
    """

    interior_flat: np.ndarray   # original flat indices of the interior rows
    gamma_flat: np.ndarray      # original flat indices of the interface rows
    ig: sp.csr_matrix
    gi: sp.csr_matrix
    gg: sp.csr_matrix
    coupled: np.ndarray         # the interior entries A_GI reads: its nonempty columns


def interface_blocks(matrix: OriginalMatrix, dm: DecompositionMap) -> InterfaceBlocks:
    """Slice A_IG, A_GI and A_GG once, in sorted interior / interface order."""
    d = matrix.block_dim
    i_flat = flat_block_indices(dm.interior_nodes, d)
    g_flat = flat_block_indices(dm.interface_nodes, d)
    csr = matrix.csr
    gi = csr[np.ix_(g_flat, i_flat)].tocsr()
    return InterfaceBlocks(
        interior_flat=i_flat,
        gamma_flat=g_flat,
        ig=csr[np.ix_(i_flat, g_flat)].tocsr(),
        gi=gi,
        gg=csr[np.ix_(g_flat, g_flat)].tocsr(),
        coupled=np.flatnonzero(np.diff(gi.tocsc().indptr)),
    )


@dataclass(frozen=True, eq=False)
class InteriorFactorization:
    """One sparse LU of the whole interior block A_II."""

    lu: object | None            # None when there are no interior nodes

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A_II x = rhs over all interior entries, in sorted interior order.

        `rhs` is one vector or a block of columns; with no interior nodes the
        result is the empty array of the same shape.
        """
        if self.lu is None:
            return np.zeros(np.shape(rhs))
        return self.lu.solve(rhs)


# SuperLU's panel width, in columns; see `_splu`
_PANEL_SIZE = 2
# right-hand sides per SuperLU solve in the coarse-space and probe builds; see
# `_interior_solves`
_SOLVE_BLOCK = 4
# a class of s interface nodes gets min(max(s // 12, 1 + (s >= 7)), 4) coarse
# columns per component; see `build_coarse_space`
_NODES_PER_MOMENT = 12
_LINEAR_MOMENT = 7
_MAX_MOMENTS = 4
# GMRES restarts after this many steps: the basis then never holds more than
# 30 interface vectors, which bounds its memory and its Gram-Schmidt work
_GMRES_RESTART = 30


def _splu(csc: sp.csc_matrix):
    """Sparse LU of `csc` with a minimum-degree ordering of A^T + A.

    SuperLU's symmetric mode takes the diagonal pivot when it is at least
    0.1 of the largest entry in its column (threshold partial pivoting, Duff,
    Erisman & Reid).  At SuperLU's default of 1.0, off-diagonal pivots on
    strongly nonsymmetric input defeat the symmetric ordering: for the A_II
    of a convection-diffusion matrix with convection 5 (Laplacian plus
    5 (I x D + D x I), D the +-1 central difference), L+U fell from 498k to
    92k entries and the factor from 58 to 5 ms at 65^2 / 2x2 boxes, and L+U
    from 511k to 235k at 129^2 / 8x8.  On Poisson the L+U and the solution
    were unchanged at 65^2 / 4x4, 129^2 / 16x16 and 257^2 / 4x4.  A tiny
    diagonal entry is still not taken as a pivot.

    Columns are updated in panels of 2, not SuperLU's default of about 20.
    Minimum-degree orderings of 2D subdomain blocks give small supernodes,
    and a wide panel spends more on them than it saves: the `A_II` factor of
    2D Poisson takes 25-45% less time, with the same L+U and the same solve
    time.  On a large 3D block a wide panel pays, and panel size 2 costs
    a fifth to a quarter more there; ROADMAP.md has the numbers.
    """
    return spla.splu(csc, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                     panel_size=_PANEL_SIZE, options=dict(SymmetricMode=True))


def factor_interior(matrix: OriginalMatrix, dm: DecompositionMap) -> InteriorFactorization:
    """Slice the interior block A_II and factor it with a single sparse LU.

    Assumes locality has been validated, which makes A_II exactly
    block-diagonal across subdomains, so the fill stays inside the blocks.
    When A_II is singular, the blocks (interior nodes grouped by home) are
    factored one at a time, the same way, to name the subdomain.
    """
    d = matrix.block_dim
    interior = dm.interior_nodes
    i_flat = flat_block_indices(interior, d)
    csc = matrix.csr[np.ix_(i_flat, i_flat)].tocsc()
    if csc.shape[0] == 0:
        return InteriorFactorization(lu=None)
    try:
        lu = _splu(csc)
    except RuntimeError as fused_error:
        home = dm.home[interior]
        for a in np.unique(home).tolist():
            own = flat_block_indices(interior[home == a], d)
            try:
                _splu(matrix.csr[np.ix_(own, own)].tocsc())
            except RuntimeError as e:
                raise SingularInteriorError(a, f"interior block of subdomain {a}: {e}") from e
        raise SingularInteriorError(None, f"interior block A_II: {fused_error}") from fused_error
    return InteriorFactorization(lu=lu)


@dataclass
class SolverState:
    """The problem, its coupling blocks and factors, shared by all interface iterations."""

    problem: ProblemInstance
    blocks: InterfaceBlocks     # A_IG, A_GI, A_GG in sorted interior / interface order
    interior: InteriorFactorization | None = None
    krylov: str = "cg"          # the method `solve_interface` chose last: "cg" or "gmres"
    preconditioner: str | None = None   # the M that method used, None if it built none

    @cached_property
    def space(self) -> DerivedSpace:
        """The derived space, built on first read; `apply_interface_operator` reads it, no solve."""
        return build_derived_space(self.problem.decomposition, self.problem.matrix.block_dim)

    @cached_property
    def classes(self) -> InterfaceClasses:
        """The interface classes, computed once, on first use by the coarse space or the probe."""
        return interface_classes(self.problem.decomposition)


def _build_state(problem: ProblemInstance) -> SolverState:
    """Validate locality and slice the coupling blocks."""
    matrix, dm = problem.matrix, problem.decomposition
    require_locality(matrix, dm)
    return SolverState(problem=problem, blocks=interface_blocks(matrix, dm))


def setup_solver(problem: ProblemInstance) -> SolverState:
    """One-call setup: state plus the factored interior block."""
    state = _build_state(problem)
    state.interior = factor_interior(problem.matrix, problem.decomposition)
    return state


def apply_interface_operator(state: SolverState, v_gamma: np.ndarray) -> np.ndarray:
    """Apply the interface Schur operator to a continuous derived vector, read on the interface.

    `v_gamma` holds the derived entries at `space.gamma_positions`.  Extended
    by zeros, it is retracted to node values v, which averages each
    descendant group, so input off the continuous subspace is projected onto
    it; A_GG v - A_GI A_II^-1 A_IG v is injected and read at the same entries.
    """
    ds, b = state.space, state.blocks
    gamma = flat_block_indices(ds.gamma_positions, ds.block_dim)
    if v_gamma.shape != gamma.shape:
        raise ValueError(f"expected length {len(gamma)}, got {v_gamma.shape}")
    u = np.zeros(ds.derived_flat_size)
    u[gamma] = v_gamma
    u_hat = np.zeros(ds.original_flat_size)
    u_hat[b.gamma_flat] = _schur(state, retract(u, ds)[b.gamma_flat])
    return inject(u_hat, ds)[gamma]


def _schur(state: SolverState, v_hat: np.ndarray) -> np.ndarray:
    """A_GG v - A_GI A_II^-1 A_IG v on interface-node values, one interior solve."""
    b = state.blocks
    return b.gg @ v_hat - b.gi @ state.interior.solve(b.ig @ v_hat)


def _interior_solves(rhs: sp.spmatrix, solve, kept: np.ndarray) -> np.ndarray:
    """`solve` of the sparse right-hand sides `rhs`, at the rows `kept`.

    `rhs` is a build's sparse right-hand sides, one row per entry `solve`
    solves for: all interior entries for the interior factor's solve, the
    strip's entries for the probe's strip factor (see `_probe_solves`).
    `kept` places the interior entries A_GI reads, `blocks.coupled`, among
    the rows `solve` returns.  At most `_SOLVE_BLOCK` columns are densified
    at a time, in Fortran order, and each block is one SuperLU solve.  On a
    shared 2-vCPU host with one BLAS thread, one 4-column solve took
    0.54-0.58 of the time of four single ones at 129^2 / 16x16 boxes and
    0.41-0.65 at 257^2 / 4x4, over two measurements.  A block solve differs
    from single solves at most in round-off and is the same for every BLAS
    thread count.  Wider blocks save little more, and each is a dense array
    with a row per entry solved for: 9-column blocks raised the peak memory
    of a 129^2 / 16x16 solve by 8-10%.
    """
    rhs = rhs.tocsc()
    x = np.empty((len(kept), rhs.shape[1]))
    for lo in range(0, rhs.shape[1], _SOLVE_BLOCK):
        block = slice(lo, lo + _SOLVE_BLOCK)
        x[:, block] = solve(rhs[:, block].toarray(order="F"))[kept]
    return x


def _indicator(group: np.ndarray, d: int, n_groups: int) -> sp.csr_matrix:
    """Row p d + k holds a 1 in column group[p] d + k: the probe's colour indicators."""
    rows = len(group) * d
    return sp.csr_matrix((np.ones(rows), flat_block_indices(group, d), np.arange(rows + 1)),
                         shape=(rows, n_groups * d))


def interface_rhs(state: SolverState) -> np.ndarray:
    """The condensed right-hand side g = f_G - A_GI A_II^-1 f_I, in interface-node values.

    With no coupled entry A_GI is 0, and g = f_G needs no interior solve.
    """
    b = state.blocks
    f_hat = state.problem.rhs.astype(np.float64)
    g = f_hat[b.gamma_flat]
    if len(b.coupled):
        g -= b.gi @ state.interior.solve(f_hat[b.interior_flat])
    return g


@dataclass(frozen=True, eq=False)
class CoarseSpace:
    """The deflation space, in interface-node values.

    `z` holds the Legendre moment columns of each interface class and
    component (one indicator column on a class under 24 nodes), `sz_t` =
    (S z)' is stored transposed, as CSR, for its product in every iteration,
    and `lu` is the sparse LU of E = z' S z.
    """

    z: sp.csr_matrix
    sz_t: sp.csr_matrix
    lu: object

    def correction(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Z E^-1 Z' v and S Z E^-1 Z' v."""
        c = self.lu.solve(self.z.T @ v)
        return self.z @ c, self.sz_t.T @ c

    def deflate(self, v: np.ndarray) -> np.ndarray:
        """Z E^-1 (S Z)' v: the part of v that is not S-orthogonal to Z."""
        return self.z @ self.lu.solve(self.sz_t @ v)


def _greedy_colours(conflict: sp.spmatrix) -> np.ndarray:
    """Greedy first-fit colours, none shared by two conflicting rows: the probe's node colours.

    Rows a and b conflict where the symmetric `conflict` has an entry.  In
    index order only the lower-index neighbours of a row have a colour yet,
    so only the entries below the diagonal are read, picked by a mask over
    the CSR arrays; `sp.tril` would build and convert a COO copy.  A row's
    taken colours are the bits of one int, and its colour is the lowest bit
    still clear.  The rows are read through a memoryview: as fast as a Python
    list, 2-3x faster than slicing numpy arrays per row, and without a
    Python int for every entry at once.
    """
    conflict = conflict.tocsr()
    n = conflict.shape[0]
    row = np.repeat(np.arange(n), np.diff(conflict.indptr))
    below = conflict.indices < row
    indices = memoryview(conflict.indices[below])
    ends = np.cumsum(np.bincount(row[below], minlength=n)).tolist()
    bits = [0] * n      # 1 << colour of each row
    lo = 0
    for a, hi in enumerate(ends):
        taken = 0
        for b in indices[lo:hi]:
            taken |= bits[b]
        bits[a] = ~taken & (taken + 1)
        lo = hi
    return np.array([b.bit_length() - 1 for b in bits], dtype=np.int64)


@dataclass(frozen=True, eq=False)
class InterfaceClasses:
    """The interface classes: each is the interface nodes of one subdomain set.

    On 2D boxes a class is an edge or a cross point, on 3D boxes also a face.
    Classes run in the lexicographic order of their subdomain sets.
    """

    of_node: np.ndarray     # the class of each interface node
    rank: np.ndarray        # each interface node's place in its class, in ascending node order
    size: np.ndarray        # nodes per class


def interface_classes(dm: DecompositionMap) -> InterfaceClasses:
    """Group the interface nodes by their subdomain sets, for the coarse space and the probe."""
    # each node's sorted subdomains, padded with -1: equal rows are one class
    member = dm.incidence[dm.interface_nodes]
    mult = np.diff(member.indptr)
    node = np.repeat(np.arange(len(mult)), mult)
    sets = np.full((len(mult), mult.max()), -1)
    sets[node, np.arange(member.nnz) - member.indptr[node]] = member.indices
    # classes in lexicographic order of their sets, first column first; the
    # sort is stable, so each class's nodes stay in ascending order
    order = np.lexsort(sets.T[::-1])
    sets = sets[order]
    first = np.ones(len(sets), dtype=bool)
    first[1:] = (sets[1:] != sets[:-1]).any(axis=1)
    of_node = np.empty(len(order), dtype=np.int64)
    of_node[order] = np.cumsum(first) - 1
    size = np.bincount(of_node)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order)) - np.repeat(np.cumsum(size) - size, size)
    return InterfaceClasses(of_node=of_node, rank=rank, size=size)


def build_coarse_space(state: SolverState) -> CoarseSpace:
    """Z, S Z and the sparse LU of E = Z' S Z.

    A class of s interface nodes gets m = min(max(s // 12, 1 + (s >= 7)), 4)
    columns per component: the Legendre polynomials P_0 .. P_{m-1} at t =
    (2 r + 1) / s - 1, where r is the node's rank in the class in ascending
    node order (on boxes, its place along the edge).  A class under 7 nodes
    keeps the one indicator column P_0 = 1, and one of 7 to 23 nodes gets
    P_0 and P_1.  The columns run class by class, in the lexicographic order
    of the classes' subdomain sets, then by degree, then by component.
    Legendre polynomials of degree below s are independent at s distinct
    points and the classes are disjoint, so Z has full column rank and E is
    nonsingular wherever S is definite.

    The moments are the edge averages and first-order moments of FETI-DP and
    BDDC primal spaces (Klawonn & Widlund 2006; Dohrmann 2003).  With one
    seeded random right-hand side and tol 1e-10, CG took 48 -> 25 iterations
    at 257^2 / 4x4 boxes (H/h = 64), 62 -> 26 at 513^2 / 8x8, with the
    interface phase about half as long, and 40 -> 27 at 513^2 / 16x16 (H/h =
    32); with rhs = 1, 32 -> 23 at 129^2 / 4x4.  P_1 on a short class
    doubles its columns and its interior solves and fills the LU of E more
    (19k -> 69k entries at 129^2 / 16x16), so it must save iterations to
    pay.  With the lumped M and a seeded right-hand side (medians of 15
    alternating solves on a shared 2-vCPU host) it does from 7 nodes on:
    65^2 / 8x8 (7-node edges) took 15 -> 10 iterations in 16.1 -> 15.9 ms,
    129^2 / 16x16 15 -> 10 in 66.5 -> 68.8 ms, and 257^2 / 16x16 (15-node
    edges) 24 -> 15 in about the same time.  Below 7 nodes it saves as many
    iterations but costs more: 97^2 / 16x16 (5-node edges) took 13 -> 8 in
    53.6 -> 58.5 ms, and 113^2 / 16x16 (6-node edges) 14 -> 9 in 33.6 ->
    35.9 ms.  Three moments on every class cut 129^2 / 16x16 from 16 to 7
    iterations with the probed M, but E grew to 1665 columns and the
    interface phase took 46 against 40 ms (best of 3).  On 3D boxes a face's
    ascending node order runs along one of its two directions only: at 33^3
    / 4x4x4 (49-node faces) CG took 16 -> 14 iterations, and the solve about
    10% longer.

    S Z = A_GG Z - A_GI A_II^-1 A_IG Z takes one interior right-hand side
    per colour and component, not one per column, and these go through
    SuperLU in blocks (`_interior_solves`).  A column reaches only the
    interior blocks in which A_IG z has an entry, and A_II is block-diagonal
    by subdomain, so a column's colour in each subdomain it reaches is its
    rank among the columns that reach it, and a coupled entry's split reads
    the first colours.  None can do with fewer colours: the columns reaching
    one subdomain all need different ones.  A column that reaches no
    interior block takes no colour and no solve, and its S z is exactly
    A_GG z: a 2D cross point under the 5-point stencil, and 3D box edges and
    vertices under the 7-point one.  So 257^2 / 4x4 takes 16 solves and
    129^2 / 16x16 8.  The split keeps only the entries A_GI reads, so S Z is
    one sparse product.  A singular E means S is not definite.
    """
    b = state.blocks
    dm = state.problem.decomposition
    d = state.problem.matrix.block_dim
    classes = state.classes
    of_node, size = classes.of_node, classes.size
    # column j of a class holds P_j at t = (2 rank + 1) / size - 1
    moments = np.minimum(np.maximum(size // _NODES_PER_MOMENT, 1 + (size >= _LINEAR_MOMENT)),
                         _MAX_MOMENTS)
    t = (2 * classes.rank + 1) / size[of_node] - 1
    n_columns = moments.sum()
    node, degree = np.nonzero(np.arange(_MAX_MOMENTS) < moments[of_node, None])
    column = (np.cumsum(moments) - moments)[of_node[node]] + degree
    k = np.arange(d)
    z = sp.csr_matrix((np.repeat(legvander(t, _MAX_MOMENTS - 1)[node, degree], d),
                       ((node[:, None] * d + k).ravel(), (column[:, None] * d + k).ravel())),
                      shape=(len(of_node) * d, n_columns * d))
    # each (home subdomain, column) pair where A_IG Z has an entry, in sorted
    # order, and the column's rank in that subdomain: its colour there
    hit = (b.ig @ z).tocoo()
    home = dm.home[dm.interior_nodes]
    pair, of_entry = np.unique(home[hit.row // d] * n_columns + hit.col // d, return_inverse=True)
    count = np.bincount(pair // n_columns, minlength=dm.n_subdomains)
    rank = np.arange(len(pair)) - np.repeat(np.cumsum(count) - count, count)
    n_colours = count.max(initial=0)
    # A_II^-1 times each colour's columns of A_IG Z summed, where A_GI reads it
    x = _interior_solves(sp.coo_matrix((hit.data, (hit.row, rank[of_entry] * d + hit.col % d)),
                                       shape=(hit.shape[0], n_colours * d)),
                         state.interior.solve, b.coupled)
    # the columns reaching each subdomain, by rank; coupled entry e of subdomain a
    # takes x[e, :count[a] d] at those columns, row by row, so the split is CSR
    reaching = np.zeros((dm.n_subdomains, n_colours), dtype=np.int64)
    reaching[pair // n_columns, rank] = pair % n_columns
    a = home[b.coupled // d]
    filled = np.arange(n_colours * d) < count[a, None] * d
    indptr = np.zeros(len(b.interior_flat) + 1, dtype=np.int64)
    indptr[b.coupled + 1] = count[a] * d
    split = sp.csr_matrix((x[filled], (reaching[a, :, None] * d + k).reshape(filled.shape)[filled],
                           np.cumsum(indptr)), shape=(len(b.interior_flat), z.shape[1]))
    sz = b.gg @ z - b.gi @ split
    e = (z.T @ sz).tocsc()
    try:
        lu = _splu(e)
    except RuntimeError as err:
        raise _CGBreakdown(f"cg breakdown at iteration 0: E = Z'SZ is singular ({err}): "
                           "the interface operator is not positive definite") from err
    return CoarseSpace(z=z, sz_t=sz.T.tocsr(), lu=lu)


# a raised diagonal entry exceeds the rest of its row by this fraction; the
# iteration counts hardly move between 0 and 1e-3, while a 2x raise costs
# 40-70% more on Poisson
_DOMINANCE_MARGIN = 1e-6
# the probe reads S_W, W the interior entries within this many steps of the
# interface, when this many times the coupled entries is at most this share of
# the interior; see `_probe_solves`
_STRIP_DEPTH = 3
_STRIP_SHARE = 0.5
# the probe reads A_GG^3 when the median interface node lies on a class of this
# many nodes or more; see `probe_width`
_LONG_CLASS = 24
# off the strip, M is the lumped Schur complement when A's off-diagonal magnitudes
# above `_ROUND_OFF` times the largest lie within `_LUMPED_CONTRAST` of each other
_LUMPED_CONTRAST, _ROUND_OFF = 100.0, 1e-12


def probe_width(state: SolverState, one_step: sp.csr_matrix) -> int:
    """The power k of the node pattern of A_GG that the probe reads: 3 or 2.

    k = 3 when the interface classes are long and edge-like: the median
    interface node lies on a class of `_LONG_CLASS` = 24 nodes or more, and
    every class that long is a path in A_GG, with no node that has more than
    2 neighbours in its own class.  Otherwise k = 2.  `one_step` is the
    node-level pattern of A_GG with its diagonal.  The threshold is the
    probe's own: it does not follow the coarse-column rule of
    `build_coarse_space`, which gives a class P_1 from 7 nodes on.

    A wider probe takes more colours, so more interior solves, for fewer
    iterations.  With a seeded random right-hand side and tol 1e-10, k = 3
    took 257^2 / 4x4 boxes (63-node edges) from 25 to 21 iterations, with
    13 probe colours against 9, in about the same time.  On short classes
    it does not pay: at 129^2 / 16x16 (7-node edges) 16 -> 15 iterations
    cost 16% more time, and on the 25- to 36-node faces of 3D 25^3 / 4x4x4
    boxes the probe colours doubled (32 -> 65) and the solve took 4x as long.
    """
    classes = state.classes
    size = classes.size[classes.of_node]
    if np.median(size) < _LONG_CLASS:
        return 2
    pairs = one_step.tocoo()
    inside = ((pairs.row != pairs.col) & (size[pairs.row] >= _LONG_CLASS)
              & (classes.of_node[pairs.row] == classes.of_node[pairs.col]))
    return 3 if np.bincount(pairs.row[inside]).max(initial=0) <= 2 else 2


def probe_pattern(state: SolverState) -> sp.csr_matrix:
    """The node-level pattern of A_GG^k, k from `probe_width`, with its diagonal and all entries 1."""
    gg = state.blocks.gg.tocoo()
    d = state.problem.matrix.block_dim
    n = len(state.problem.decomposition.interface_nodes)
    one_step = sp.csr_matrix((np.ones(gg.nnz), (gg.row // d, gg.col // d)), shape=(n, n))
    one_step = one_step + sp.identity(n, format="csr")
    reach = one_step
    for _ in range(probe_width(state, one_step) - 1):
        reach = reach @ one_step
    reach.data[:] = 1.0
    return reach


def interior_strip(state: SolverState) -> np.ndarray:
    """The interior entries within `_STRIP_DEPTH` steps of the interface, in sorted interior order.

    The coupled entries (`blocks.coupled`, one step) and `_STRIP_DEPTH` - 1
    rings of their interior neighbours in the node graph of A, taken node by
    node, so every component of a node in the strip is in it.
    """
    d = state.problem.matrix.block_dim
    interior = state.problem.decomposition.interior_nodes
    csr = state.problem.matrix.csr
    # each node's place in sorted interior order, -1 on the interface
    place = np.full(csr.shape[0] // d, -1)
    place[interior] = np.arange(len(interior))
    taken = np.zeros(len(interior), dtype=bool)
    ring = np.unique(state.blocks.coupled // d)
    taken[ring] = True
    for _ in range(_STRIP_DEPTH - 1):
        near = place[np.unique(csr[flat_block_indices(interior[ring], d)].indices // d)]
        ring = near[near >= 0]
        ring = ring[~taken[ring]]
        taken[ring] = True
    return flat_block_indices(np.flatnonzero(taken), d)


def _strip_pays(b: InterfaceBlocks) -> bool:
    """`_STRIP_DEPTH` |coupled| <= `_STRIP_SHARE` |interior|, with at least one coupled entry.

    With no coupled entry A_GI is 0 and there is no strip to factor.
    """
    return 0 < _STRIP_DEPTH * len(b.coupled) <= _STRIP_SHARE * len(b.interior_flat)


def _probe_solves(state: SolverState) -> tuple:
    """The probe's solve, its rows `kept` for `_interior_solves`, and the rows of A_IG it reads.

    The strip's factor, with A_WG, or the interior factor, with all of A_IG.

    S_W = A_GG - A_GW A_WW^-1 A_WG, W the `interior_strip`, differs from S
    only by the interior beyond W, and the probe reads S near the diagonal,
    where the interior near the interface sets it.  S_W is taken when it is
    cheap, when `_STRIP_DEPTH` |coupled| <= `_STRIP_SHARE` |interior|, a
    bound on the strip that needs no slicing; then A_WW is sliced and
    factored here.  Otherwise the probe solves with the interior factor, as
    the coarse space always does, since deflation needs S Z exactly.

    With a seeded random right-hand side and tol 1e-10, the strip took CG
    from 21 to 12 iterations at 257^2 / 4x4 boxes (W is 14% of the
    interior, and the probe build took 17 against 45 ms on a 2-vCPU host
    with one BLAS thread), 20 -> 12 at 129^2 / 4x4, 22 -> 12 at 513^2 /
    8x8, 24 -> 20 on 257^2 over 16 Voronoi cells, and 60 -> 55 and 82 -> 59
    with log-uniform coefficients in [1e-3, 1e3] at 129^2 and 257^2 / 4x4.
    S_W likely has smaller far-field entries than S, so less stray weight
    is lumped into the probed pattern.  A depth of 2 took 75 iterations on
    the heterogeneous 129^2 / 4x4.  The count rule keeps the interior factor
    on boxes with H/h <= 16 (129^2 and 257^2 / 16x16, 65^2 / 8x8), on 257^2
    over 256 Voronoi cells, on 3D 25^3 / 4x4x4 and on 257^2 / 32x1 strips,
    whose solves are unchanged, bit for bit; also on the heterogeneous
    65^2 / 4x4, whose strip holds half of the interior.  A singular A_WW,
    possible only for indefinite A, ends CG with a breakdown: GMRES takes over.
    """
    b = state.blocks
    if not _strip_pays(b):
        return state.interior.solve, b.coupled, b.ig
    strip = interior_strip(state)
    w = b.interior_flat[strip]
    try:
        lu = _splu(state.problem.matrix.csr[np.ix_(w, w)].tocsc())
    except RuntimeError as err:
        raise _CGBreakdown(f"cg breakdown at iteration 0: the strip block A_WW of the probe "
                           f"is singular ({err}): the matrix is not positive definite") from err
    return lu.solve, np.searchsorted(strip, b.coupled), b.ig[strip]


def probe_interface_operator(state: SolverState) -> sp.csr_matrix:
    """S_W's colour sums on the probe pattern, in interface-node values (Chan & Mathew 1992).

    The interface nodes are coloured so that no row of the pattern holds two
    nodes of one colour.  S_W applied to the indicator of one colour and
    component then gives, in every row, the entry of the one pattern column
    of that colour, plus the entries of S_W off the pattern in that row and
    colour.  S_W is the Schur complement of the `interior_strip` W when that
    strip is small, and S itself otherwise (see `_probe_solves`).  One
    right-hand side per colour and component, put through SuperLU in blocks
    (`_interior_solves`): on box partitions 9 colours at k = 2 and 13 at
    k = 3.  `build_preconditioner` takes this probe on the strip, and off it
    only where the lumped Schur complement does not fit: couplings of more
    than one scale, or a coupled interior diagonal entry that is not
    positive.
    """
    d = state.problem.matrix.block_dim
    b = state.blocks
    pattern = probe_pattern(state)
    # all entries are 1, so no sum in the square cancels: two nodes of one
    # colour are more than 2 k steps apart in A_GG
    colours = _greedy_colours(pattern @ pattern)
    v = _indicator(colours, d, colours.max() + 1)
    solve, kept, a_ig = _probe_solves(state)
    probes = (b.gg @ v).toarray() - b.gi[:, b.coupled] @ _interior_solves(a_ig @ v, solve, kept)
    # d x d blocks; column c reads the probe of its colour, component c % d
    block = sp.kron(pattern, np.ones((d, d)), format="coo")
    vals = probes[block.row, colours[block.col // d] * d + block.col % d]
    return sp.csr_matrix((vals, (block.row, block.col)), shape=block.shape)


def dominant_symmetric_part(m: sp.spmatrix) -> sp.csr_matrix:
    """(m + m') / 2 with each diagonal entry raised where its row needs it.

    A row whose diagonal entry is not larger than the sum of the row's other
    absolute values gets that sum times 1 + `_DOMINANCE_MARGIN`; a row with
    nothing off the diagonal gets the largest absolute diagonal entry (1 if
    all are 0).  The result is strictly diagonally dominant with a positive
    diagonal, hence SPD by Gershgorin.  Rows that already qualify keep their
    values.
    """
    sym = ((m + m.T) * 0.5).tocsr()
    diag = sym.diagonal()
    off = np.asarray(abs(sym).sum(axis=1)).ravel() - np.abs(diag)
    low = ~(diag > off)
    isolated = np.abs(diag).max(initial=0.0) or 1.0
    diag[low] = np.where(off[low] > 0, (1.0 + _DOMINANCE_MARGIN) * off[low], isolated)
    sym.setdiag(diag)
    return sym


def lumped_interface_operator(state: SolverState) -> sp.csr_matrix:
    """A_GG - A_GI D^-1 A_IG in interface-node values, D the diagonal of A_II at the coupled entries.

    S with A_II lumped to its diagonal: no colouring and no interior solve,
    and its pattern is A_GG's plus the pairs of interface entries that share
    a coupled interior entry.
    """
    b = state.blocks
    diag = state.problem.matrix.csr.diagonal()[b.interior_flat[b.coupled]]
    return (b.gg - b.gi[:, b.coupled] @ sp.diags(1.0 / diag) @ b.ig[b.coupled]).tocsr()


def _lumping_fits(state: SolverState) -> bool:
    """A's off-diagonal magnitudes above `_ROUND_OFF` of the largest lie within
    `_LUMPED_CONTRAST` of each other, and every coupled interior diagonal entry is positive."""
    csr = state.problem.matrix.csr
    b = state.blocks
    if not np.all(csr.diagonal()[b.interior_flat[b.coupled]] > 0):
        return False
    row = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    off = np.abs(csr.data[csr.indices != row])
    off = off[off > _ROUND_OFF * off.max(initial=0.0)]
    return off.max(initial=0.0) <= _LUMPED_CONTRAST * off.min(initial=np.inf)


def build_preconditioner(state: SolverState):
    """Build M ~ S, make it SPD, factor it once; returns r -> M^-1 r.

    On large subdomains (`_strip_pays`) M is the probe of S_W.  Otherwise,
    where the lumped Schur complement fits (`_lumping_fits`), M is
    `lumped_interface_operator`, else the probe of S with the interior
    factor.  `state.preconditioner` names the choice: "strip probe",
    "lumped" or "probe".  The strip factor of `_probe_solves` is built
    here, so only when the coarse solve leaves work, and it is
    interface-phase work.

    On small subdomains the interior next to the interface, which the probe
    reads, is a few nodes deep, and lumping A_II to its diagonal keeps most
    of it.  With a seeded right-hand side (medians of 5 alternating solves
    on a shared 2-vCPU host) the lumped M took as many iterations as the
    probe of S, or fewer, in less time: 10 and 10 at 65^2 / 8x8 (24 against
    30 ms) and at 129^2 / 16x16 (67 against 86 ms), 15 and 16 at 257^2 /
    16x16, 23 and 26 on 257^2 over 256 Voronoi cells, 10 and 10 on 3D
    25^3 / 8x8x8 (0.38 against 1.09 s) and 17 and 14 on 33^3 / 4x4x4 (0.41
    against 0.74 s).  Lumping loses where the couplings differ in scale, so
    it is taken only when A's off-diagonal magnitudes lie within
    `_LUMPED_CONTRAST` = 100 of each other.  Those below `_ROUND_OFF` = 1e-12
    of the largest are round-off, not couplings, and are left out: stored
    entries of 1e-17 between diagonal neighbours would send 2D Poisson to
    the probe.  With log-uniform edge weights
    in [0.1, 10] (contrast 100) at 65^2 / 8x8 it took 17 iterations against
    the probe's 15, in 26 against 28 ms; in [10^-1.5, 10^1.5] (contrast
    1000) 28 against 21, in 34 against 31 ms; in [1e-3, 1e3] 118 against
    59, and 71 against 34 at 33^2 / 4x4.  The rule reads magnitudes, not
    their layout: on anisotropic Laplacians (couplings 1 and eps) the lumped
    M beat the probe at every eps tried, 23 against 22 iterations at eps =
    0.05 and 52 against 109 at eps = 0.005 (129^2 / 16x16), yet from eps <
    0.01 the rule takes the probe.  D^-1 needs every coupled interior
    diagonal entry positive, so a zero or negative one keeps the probe too.
    """
    if _strip_pays(state.blocks):
        state.preconditioner, m = "strip probe", probe_interface_operator(state)
    elif _lumping_fits(state):
        state.preconditioner, m = "lumped", lumped_interface_operator(state)
    else:
        state.preconditioner, m = "probe", probe_interface_operator(state)
    return _splu(dominant_symmetric_part(m).tocsc()).solve


class _CGBreakdown(ConvergenceError):
    """S or M is not positive definite, or the residual is not finite: GMRES takes over."""


def _cg(apply_op, g, build_coarse, build_precond, tol, max_iters):
    """Deflated preconditioned conjugate gradients.

    Starts from the coarse solution, so the residual r stays orthogonal to
    the coarse space, and removes the coarse component in the S inner
    product from every search direction built from the preconditioned
    residual y = M^-1 r.  r is the true residual g - S x, and the stopping
    test is on its norm.  `build_coarse` and `build_precond` are called only
    when needed: not at all for a zero right-hand side, and the
    preconditioner only when the coarse solve leaves work.
    """
    g_norm = np.linalg.norm(g)
    if g_norm == 0.0:
        return np.zeros_like(g), [], 0
    coarse = build_coarse()
    x, s_x = coarse.correction(g)
    r = g - s_x
    if np.linalg.norm(r) <= tol * g_norm:
        # the coarse space solved it; a direction built from round-off could not be trusted
        return x, [], 0
    precond = build_precond()
    history = []
    p = np.zeros_like(g)
    ry = 1.0
    for k in range(1, max_iters + 1):
        y = precond(r)
        ry_new = np.dot(r, y)
        if not ry_new > 0.0:
            raise _CGBreakdown(f"cg breakdown at iteration {k}: r'M^-1 r = {ry_new:.3e} <= 0: "
                               "the preconditioner is not positive definite")
        beta = ry_new / ry if k > 1 else 0.0
        p = y + beta * p - coarse.deflate(y)
        ry = ry_new
        q = apply_op(p)
        pq = np.dot(p, q)
        if not pq > 0.0:
            raise _CGBreakdown(f"cg breakdown at iteration {k}: p'Ap = {pq:.3e} <= 0: "
                               "the interface operator is not positive definite")
        alpha = ry / pq
        r = r - alpha * q
        r_norm = np.linalg.norm(r)
        if not np.isfinite(r_norm):
            raise _CGBreakdown(f"cg breakdown at iteration {k}: residual norm is {r_norm}")
        x = x + alpha * p
        rel = r_norm / g_norm
        history.append(float(rel))
        if rel <= tol:
            return x, history, k
    raise ConvergenceError(
        f"cg did not reach tol {tol:.1e} in {max_iters} iterations "
        f"(last residual {history[-1]:.3e})",
        residual_history=history,
        best=x,
    )


def _gmres(apply_op, g, tol, max_iters):
    """Restarted GMRES (modified Gram-Schmidt, Givens); breaks down at a non-finite norm."""
    x = np.zeros_like(g)
    g_norm = np.linalg.norm(g)
    if g_norm == 0.0:
        return x, [], 0
    history = []
    total = 0

    def breakdown(reason):
        return ConvergenceError(f"gmres breakdown at iteration {total + 1}: {reason}",
                                residual_history=history, best=x)

    while total < max_iters:
        r = g - apply_op(x)
        beta = np.linalg.norm(r)
        if not np.isfinite(beta):
            raise breakdown(f"non-finite residual norm {beta}")
        if beta / g_norm <= tol:
            return x, history, total
        m = min(_GMRES_RESTART, max_iters - total)
        basis = [r / beta]
        h = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        s = np.zeros(m + 1)
        s[0] = beta
        inner = 0
        for j in range(m):
            w = apply_op(basis[j])
            for i in range(j + 1):
                h[i, j] = np.dot(w, basis[i])
                w = w - h[i, j] * basis[i]
            h_next = np.linalg.norm(w)
            if not np.isfinite(h_next):
                raise breakdown(f"non-finite Arnoldi norm {h_next}")
            h[j + 1, j] = h_next
            for i in range(j):
                hi = cs[i] * h[i, j] + sn[i] * h[i + 1, j]
                h[i + 1, j] = -sn[i] * h[i, j] + cs[i] * h[i + 1, j]
                h[i, j] = hi
            denom = np.hypot(h[j, j], h[j + 1, j])
            if denom == 0.0:
                raise breakdown("the rotated Hessenberg matrix has a zero diagonal entry, so "
                                "the interface operator is singular on the Krylov space")
            cs[j] = h[j, j] / denom
            sn[j] = h[j + 1, j] / denom
            h[j, j] = denom
            h[j + 1, j] = 0.0
            s[j + 1] = -sn[j] * s[j]
            s[j] = cs[j] * s[j]
            total += 1
            inner = j + 1
            history.append(float(abs(s[j + 1]) / g_norm))
            if history[-1] <= tol or h_next == 0.0:
                break
            if j + 1 < m:
                basis.append(w / h_next)
        y = np.linalg.solve(h[:inner, :inner], s[:inner])
        for i in range(inner):
            x = x + y[i] * basis[i]
        if history and history[-1] <= tol:
            return x, history, total
    raise ConvergenceError(
        f"gmres did not reach tol {tol:.1e} in {max_iters} iterations "
        f"(last residual {history[-1]:.3e})",
        residual_history=history,
        best=x,
    )


def _max_iters(cfg: SolveConfig, blocks: InterfaceBlocks) -> int:
    """`cfg.max_iters`, or by default 10x the interface dimension, at least 10."""
    default = max(10 * len(blocks.gamma_flat), 10)
    return default if cfg.max_iters is None else cfg.max_iters


def solve_interface(state: SolverState, g: np.ndarray, cfg: SolveConfig):
    """Krylov-solve S u = g on interface-node values; returns (u, history, iterations).

    `g`, `u` and the `best` iterate of a ConvergenceError are interface-node
    values, in sorted interface order.  Their Euclidean norm is the weighted
    norm of their injection, so the residual history is the weighted-norm
    residual of the continuous interface system, relative to its right-hand
    side.

    The method is chosen here, from the matrix.  A symmetric matrix runs CG,
    deflated by the coarse space and preconditioned by the probe, both built
    here when needed, so `iterations` counts the Krylov steps after the
    coarse solve.  A nonsymmetric one runs GMRES.  So does a CG breakdown,
    where S is indefinite or singular: CG's work is dropped, GMRES starts
    from zero, and the breakdown is the `__context__` of any error GMRES
    raises.  `state.krylov` names the method, set before it starts, and
    `state.preconditioner` the M that CG built (see `build_preconditioner`),
    None for GMRES or when the coarse solve leaves no work.
    """
    max_iters = _max_iters(cfg, state.blocks)

    def op(v):
        return _schur(state, v)

    def gmres():
        state.krylov, state.preconditioner = "gmres", None
        return _gmres(op, g, cfg.tol, max_iters)

    if not state.problem.matrix.symmetric:
        return gmres()
    state.krylov, state.preconditioner = "cg", None
    try:
        return _cg(op, g, lambda: build_coarse_space(state),
                   lambda: build_preconditioner(state), cfg.tol, max_iters)
    except _CGBreakdown:
        return gmres()


def back_substitute(state: SolverState, u_gamma: np.ndarray) -> np.ndarray:
    """Interior values A_II^-1 (f_I - A_IG u_gamma), one solve of the interior factorization.

    `u_gamma` is interface-node values; the result is in sorted interior
    order, the rows `blocks.interior_flat`.
    """
    b = state.blocks
    return state.interior.solve(state.problem.rhs[b.interior_flat] - b.ig @ u_gamma)


def verify_solution(problem: ProblemInstance, u_hat: np.ndarray, report: SolveReport) -> None:
    """Write ||A u_hat - f|| / ||f|| (the norm itself when f = 0) into `report`."""
    f_hat = problem.rhs
    residual = float(np.linalg.norm(problem.matrix.csr @ u_hat - f_hat))
    f_norm = float(np.linalg.norm(f_hat))
    report.final_original_residual = residual / f_norm if f_norm > 0 else residual


@contextmanager
def _phase(name: str, timings: dict):
    t0 = time.perf_counter()
    try:
        yield
    except EdvsError as e:
        e.phase = name
        raise
    finally:
        timings[f"{name}_ms"] = (time.perf_counter() - t0) * 1e3


def solve_dvs(problem: ProblemInstance, cfg: SolveConfig | None = None):
    """Full pipeline; returns (u_hat, report).

    On interface non-convergence the partial solution is still assembled, and
    the interface's ConvergenceError is raised again, in phase "interface",
    with the interface iterate as `.best`, the solution as `.solution` and
    `.report`.
    """
    cfg = cfg or SolveConfig()
    report = SolveReport()
    t_start = time.perf_counter()

    with _phase("setup", report.timings):
        state = _build_state(problem)
        cfg = replace(cfg, max_iters=_max_iters(cfg, state.blocks))  # once, for the report too

    with _phase("factor", report.timings):
        state.interior = factor_interior(problem.matrix, problem.decomposition)

    failure = None
    b = state.blocks
    with _phase("interface", report.timings):
        try:
            u_gamma, report.residual_history, report.iterations = solve_interface(
                state, interface_rhs(state), cfg)
            report.converged = True
        except ConvergenceError as e:
            report.residual_history = e.residual_history
            report.iterations = len(e.residual_history)
            u_gamma = e.best if e.best is not None else np.zeros(len(b.gamma_flat))
            failure = e
    report.config = dict(tol=cfg.tol, max_iters=cfg.max_iters, krylov=state.krylov,
                         preconditioner=state.preconditioner, compare_direct=cfg.compare_direct)

    with _phase("back_substitute", report.timings):
        u_hat = np.empty(problem.rhs.shape)
        u_hat[b.interior_flat] = back_substitute(state, u_gamma)
        u_hat[b.gamma_flat] = u_gamma

    with _phase("verify", report.timings):
        verify_solution(problem, u_hat, report)
        if report.converged:
            # defense in depth: the interface tolerance must carry to the original system
            report.converged = report.final_original_residual <= max(10 * cfg.tol, 1e-9)
        if cfg.compare_direct:
            direct = spla.spsolve(problem.matrix.csr.tocsc(), problem.rhs)
            denom = float(np.linalg.norm(direct))
            err = float(np.linalg.norm(u_hat - direct))
            report.relative_error_vs_direct = err / denom if denom > 0 else err

    report.timings["total_ms"] = (time.perf_counter() - t_start) * 1e3

    if failure is not None:
        # raised again, not rebuilt, so a CG breakdown stays its __context__
        failure.best, failure.solution, failure.report = u_gamma, u_hat, report
        failure.phase = "interface"
        raise failure
    return u_hat, report
