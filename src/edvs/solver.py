"""End-to-end solve: block-diagonal interior factorization, projected interface Krylov.

Pipeline: inject the right-hand side, factor the interior block A_II (exactly
block-diagonal by subdomain under locality) with one sparse LU, run a
conjugate-gradient (or restarted GMRES) iteration on the interface, back-
substitute the interior values, and certify the retracted solution against
the original system.  The 2x2 interior/interface slicing lives here:
`factor_interior` slices A_II and keeps only its factor, and
`interface_blocks` slices the coupling blocks A_IG, A_GI and A_GG.

The continuous interface subspace is the image of injection, and under the
1/m-weighted inner product injection is an isometry.  So a Krylov method on
continuous interface vectors is, step for step, the same method on
interface-node values with the Euclidean inner product: `solve_interface`
retracts the right-hand side once, iterates on node values with the Schur
operator A_GG - A_GI A_II^-1 A_IG, and injects the result once.  The exit
iterate is continuous by construction.

Conjugate gradients is deflated by a coarse space Z of interface classes
(Nicolaides 1987; the "DEF" variant of Tang, Nabben, Vuik & Erlangga 2009).
A class is the set of interface nodes that share one subdomain set: on boxes,
each edge and each cross point, the primal space of BDDC and FETI-DP
(Dohrmann 2003; Toselli & Widlund 2005).  Z holds one indicator column per
class and component; these are linearly independent, so E = Z' S Z is
nonsingular wherever S is definite.  E is sparse and is factored by the same
sparse LU as A_II.  The coarse solve Z E^-1 Z' g is the starting iterate, and
every search direction is made S-orthogonal to Z.  CG is also preconditioned
by M ~ S, probed on the node pattern of A_GG^2 (Chan & Mathew 1992), then
symmetrized, with a diagonal entry raised wherever its row is not strictly
diagonally dominant, so M is SPD, and factored once.  S Z and the probe each
take one interior right-hand side per colour and component, solved in
blocks of a few columns per SuperLU call.  Z, S Z, the factor of E and M
are built only when needed (M only when the coarse solve leaves work) and
are interface-operator work, timed in `interface_ms`.  The iteration count
is the number of Krylov steps after the coarse solve, 0 when Z spans the
interface; the stopping test stays on the true residual.  GMRES is neither
deflated nor preconditioned.
"""
from __future__ import annotations

import numbers
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .derived import (
    DerivedSpace,
    build_derived_space,
    continuity_defect,
    flat_block_indices,
    inject_interface,
    retract,
    retract_interface,
)
from .exceptions import (
    ConfigError,
    ConvergenceError,
    EdvsError,
    SingularInteriorError,
)
from .ingest import DecompositionMap, OriginalMatrix, ProblemInstance, require_locality

_REPORT_KEYS = (
    "iterations",
    "converged",
    "final_original_residual",
    "duality_defect",
    "continuity_defect",
    "relative_error_vs_direct",
    "residual_history",
    "timings",
    "config",
)

_PHASES = ("setup", "factor", "interface", "back_substitute", "verify")


@dataclass
class SolveConfig:
    """Solver knobs; max_iters defaults to 10x the interface dimension at solve time."""

    tol: float = 1e-10
    max_iters: int | None = None
    krylov: str = "cg"
    compare_direct: bool = False

    def __post_init__(self):
        # bool is an Integral, hence a Real: True would pass as 1
        if isinstance(self.tol, bool) or not (isinstance(self.tol, numbers.Real)
                                              and np.isfinite(self.tol) and self.tol > 0):
            raise ConfigError(f"tol must be finite and positive, got {self.tol!r}")
        if self.max_iters is not None and (isinstance(self.max_iters, bool) or not (
                isinstance(self.max_iters, numbers.Integral) and self.max_iters >= 1)):
            raise ConfigError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if self.krylov not in ("cg", "gmres"):
            raise ConfigError(f"krylov must be 'cg' or 'gmres', got {self.krylov!r}")
        if not isinstance(self.compare_direct, bool):
            raise ConfigError(f"compare_direct must be a bool, got {self.compare_direct!r}")


@dataclass
class SolveReport:
    """Everything observable about one solve; to_dict() has a fixed key set."""

    iterations: int = 0
    converged: bool = False
    final_original_residual: float = float("nan")
    duality_defect: float = float("nan")
    continuity_defect: float = float("nan")
    relative_error_vs_direct: float | None = None
    residual_history: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in _REPORT_KEYS}


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


def interface_blocks(matrix: OriginalMatrix, dm: DecompositionMap) -> InterfaceBlocks:
    """Slice A_IG, A_GI and A_GG once, in sorted interior / interface order."""
    d = matrix.block_dim
    i_flat = flat_block_indices(dm.interior_nodes, d)
    g_flat = flat_block_indices(dm.interface_nodes, d)
    csr = matrix.csr
    return InterfaceBlocks(
        interior_flat=i_flat,
        gamma_flat=g_flat,
        ig=csr[np.ix_(i_flat, g_flat)].tocsr(),
        gi=csr[np.ix_(g_flat, i_flat)].tocsr(),
        gg=csr[np.ix_(g_flat, g_flat)].tocsr(),
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
    When A_II is singular, the blocks are factored one at a time, the same
    way, to name the subdomain.
    """
    d = matrix.block_dim
    i_flat = flat_block_indices(dm.interior_nodes, d)
    csc = matrix.csr[np.ix_(i_flat, i_flat)].tocsc()
    if csc.shape[0] == 0:
        return InteriorFactorization(lu=None)
    try:
        lu = _splu(csc)
    except RuntimeError as fused_error:
        for a, nodes in enumerate(dm.subdomain_nodes):
            own = flat_block_indices(nodes[dm.multiplicity[nodes] == 1], d)
            if len(own) == 0:
                continue
            try:
                _splu(matrix.csr[np.ix_(own, own)].tocsc())
            except RuntimeError as e:
                raise SingularInteriorError(a, f"interior block of subdomain {a}: {e}") from e
        raise SingularInteriorError(None, f"interior block A_II: {fused_error}") from fused_error
    return InteriorFactorization(lu=lu)


@dataclass
class SolverState:
    """Factored operators and index machinery shared by all interface iterations."""

    problem: ProblemInstance
    space: DerivedSpace
    blocks: InterfaceBlocks     # A_IG, A_GI, A_GG in sorted interior / interface order
    interior: InteriorFactorization | None = None


def _build_state(problem: ProblemInstance) -> SolverState:
    """Validate locality, build the derived space, and slice the coupling blocks."""
    matrix, dm = problem.matrix, problem.decomposition
    require_locality(matrix, dm)
    ds = build_derived_space(dm, block_dim=matrix.block_dim)
    return SolverState(problem=problem, space=ds, blocks=interface_blocks(matrix, dm))


def setup_solver(problem: ProblemInstance) -> SolverState:
    """One-call setup: state plus the factored interior block."""
    state = _build_state(problem)
    state.interior = factor_interior(problem.matrix, problem.decomposition)
    return state


def apply_interface_operator(state: SolverState, v_gamma: np.ndarray) -> np.ndarray:
    """Apply the interface Schur operator to a continuous interface vector.

    Retract to interface-node values v, compute A_GG v - A_GI A_II^-1 A_IG v
    with the one interior factorization, and inject back.  Input that has
    drifted off the continuous subspace is projected onto it, since the
    retraction averages each descendant group.
    """
    ds = state.space
    return inject_interface(_schur(state, retract_interface(v_gamma, ds)), ds)


def _schur(state: SolverState, v_hat: np.ndarray) -> np.ndarray:
    """A_GG v - A_GI A_II^-1 A_IG v on interface-node values, one interior solve."""
    b = state.blocks
    return b.gg @ v_hat - b.gi @ state.interior.solve(b.ig @ v_hat)


def _interior_solves(state: SolverState, rhs: sp.spmatrix) -> tuple[np.ndarray, np.ndarray]:
    """The interior flat entries A_GI reads, and A_II^-1 rhs at those entries.

    `rhs` is a build's sparse n_I x k right-hand sides.  At most
    `_SOLVE_BLOCK` columns are densified at a time, in Fortran order, and
    each block is one SuperLU solve; only the rows A_GI reads are kept.  On
    a shared 2-vCPU host with one BLAS thread, one 4-column solve took
    0.54-0.58 of the time of four single ones at 129^2 / 16x16 boxes and
    0.41-0.65 at 257^2 / 4x4, over two measurements.  A block solve differs
    from single solves at most in round-off and is the same for every BLAS
    thread count.  Wider blocks save little more, and each is a dense array
    with a row per interior entry: 9-column blocks raised the peak memory
    of a 129^2 / 16x16 solve by 8-10%.
    """
    coupled = np.flatnonzero(np.diff(state.blocks.gi.tocsc().indptr))
    rhs = rhs.tocsc()
    x = np.empty((len(coupled), rhs.shape[1]))
    for lo in range(0, rhs.shape[1], _SOLVE_BLOCK):
        block = slice(lo, lo + _SOLVE_BLOCK)
        x[:, block] = state.interior.solve(rhs[:, block].toarray(order="F"))[coupled]
    return coupled, x


def _indicator(group: np.ndarray, d: int, n_groups: int) -> sp.csr_matrix:
    """One 1 per row: row p d + k is in column group[p] d + k."""
    n_rows = len(group) * d
    return sp.csr_matrix((np.ones(n_rows), flat_block_indices(group, d), np.arange(n_rows + 1)),
                         shape=(n_rows, n_groups * d))


def interface_rhs(state: SolverState) -> np.ndarray:
    """Condensed interface right-hand side as a continuous interface vector."""
    b = state.blocks
    f_hat = state.problem.rhs.astype(np.float64)
    g_hat = f_hat[b.gamma_flat] - b.gi @ state.interior.solve(f_hat[b.interior_flat])
    return inject_interface(g_hat, state.space)


@dataclass(frozen=True, eq=False)
class CoarseSpace:
    """The deflation space, in interface-node values.

    `z` holds one indicator column per interface class and component, `sz_t`
    = (S z)' is stored transposed, as CSR, for its product in every
    iteration, and `lu` is the sparse LU of E = z' S z.
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
    """Greedy first-fit colours such that no two conflicting rows share one.

    Rows a and b conflict where the symmetric `conflict` has an entry.  The
    rows are read through memoryviews: as fast as Python lists, 2-3x faster
    than slicing numpy arrays per row, and without a Python int for every
    entry at once.
    """
    conflict = conflict.tocsr()
    indptr, indices = memoryview(conflict.indptr), memoryview(conflict.indices)
    colours = [-1] * conflict.shape[0]
    for a in range(len(colours)):
        taken = {colours[b] for b in indices[indptr[a]:indptr[a + 1]]}
        c = 0
        while c in taken:
            c += 1
        colours[a] = c
    return np.array(colours, dtype=np.int64)


def build_coarse_space(state: SolverState) -> CoarseSpace:
    """Z, S Z and the sparse LU of E = Z' S Z.

    S Z = A_GG Z - A_GI A_II^-1 A_IG Z takes one interior right-hand side
    per colour and component, not one per column, and these go through
    SuperLU in blocks (`_interior_solves`).  A class's column reaches only
    the interior blocks of its own subdomains, and classes of one colour
    share no subdomain: each colour's solve is split by the member that
    touches each interior node's home subdomain.  The split keeps only the
    entries A_GI reads, so S Z is one sparse product.  A singular E means S
    is not definite.
    """
    ds, b = state.space, state.blocks
    dm = ds.decomposition
    d = ds.block_dim
    # each node's sorted subdomains, padded with -1: equal rows are one class
    member = dm.incidence[ds.gamma_nodes]
    mult = np.diff(member.indptr)
    node = np.repeat(np.arange(len(mult)), mult)
    sets = np.full((len(mult), mult.max()), -1)
    sets[node, np.arange(member.nnz) - member.indptr[node]] = member.indices
    # classes in lexicographic order of their sets, first column first
    order = np.lexsort(sets.T[::-1])
    sets = sets[order]
    first = np.ones(len(sets), dtype=bool)
    first[1:] = (sets[1:] != sets[:-1]).any(axis=1)
    of_node = np.empty(len(order), dtype=np.int64)
    of_node[order] = np.cumsum(first) - 1
    sets = sets[first]
    cls, slot = np.nonzero(sets >= 0)
    touching = sp.csc_matrix((np.ones(len(cls)), (sets[cls, slot], cls)),
                             shape=(dm.n_subdomains, len(sets)))  # subdomain x class
    z = _indicator(of_node, d, len(sets))
    colours = _greedy_colours(touching.T @ touching)
    n_colours = colours.max() + 1
    # A_II^-1 A_IG times each colour's columns of Z summed, where A_GI reads
    # it, and the home subdomain of each entry read
    coupled, x = _interior_solves(state, b.ig @ _indicator(colours[of_node], d, n_colours))
    home = dm.home[ds.interior_nodes[coupled // d]]
    # near[s, c]: the class of colour c that touches subdomain s, -1 if none
    near = np.full((dm.n_subdomains, n_colours), -1)
    touch = touching.tocoo()
    near[touch.row, colours[touch.col]] = touch.col
    # owner[i, c]: the class whose column gets colour c's solve at coupled entry i
    owner = near[home]
    entry, colour = np.nonzero(owner >= 0)
    k = np.arange(d)
    vals = x[entry[:, None], colour[:, None] * d + k].ravel()
    rows = np.repeat(coupled[entry], d)
    cols = (owner[entry, colour][:, None] * d + k).ravel()
    split = sp.csr_matrix((vals, (rows, cols)), shape=(len(b.interior_flat), z.shape[1]))
    sz = b.gg @ z - b.gi @ split
    e = (z.T @ sz).tocsc()
    try:
        lu = _splu(e)
    except RuntimeError as err:
        raise _cg_breakdown(0, f"E = Z'SZ is singular ({err}): the interface operator is "
                               "not positive definite", [], None) from err
    return CoarseSpace(z=z, sz_t=sz.T.tocsr(), lu=lu)


# a raised diagonal entry exceeds the rest of its row by this fraction; the
# iteration counts hardly move between 0 and 1e-3, while a 2x raise costs
# 40-70% more on Poisson
_DOMINANCE_MARGIN = 1e-6


def probe_pattern(state: SolverState) -> sp.csr_matrix:
    """The node-level pattern of A_GG^2, with its diagonal and all entries 1."""
    gg = state.blocks.gg.tocoo()
    d = state.space.block_dim
    n = len(state.space.gamma_nodes)
    one_step = sp.csr_matrix((np.ones(gg.nnz), (gg.row // d, gg.col // d)), shape=(n, n))
    one_step = one_step + sp.identity(n, format="csr")
    reach = one_step @ one_step
    reach.data[:] = 1.0
    return reach


def probe_interface_operator(state: SolverState) -> sp.csr_matrix:
    """S's colour sums on the probe pattern, in interface-node values (Chan & Mathew 1992).

    The interface nodes are coloured so that no row of the pattern holds two
    nodes of one colour.  S applied to the indicator of one colour and
    component then gives, in every row, the entry of the one pattern column
    of that colour, plus the entries of S off the pattern in that row and
    colour.  One interior right-hand side per colour and component, 9 on
    box partitions, put through SuperLU in blocks (`_interior_solves`).
    """
    d = state.space.block_dim
    b = state.blocks
    pattern = probe_pattern(state)
    # all entries are 1, so no sum in the square cancels: two nodes of one
    # colour are neither adjacent nor two steps apart
    colours = _greedy_colours(pattern @ pattern)
    pattern = pattern.tocoo()
    n_flat = len(colours) * d
    v = _indicator(colours, d, colours.max() + 1)
    coupled, x = _interior_solves(state, b.ig @ v)
    probes = (b.gg @ v).toarray() - b.gi[:, coupled] @ x
    # d x d blocks: row component l, column component k
    l, k = (a.ravel() for a in np.meshgrid(np.arange(d), np.arange(d), indexing="ij"))
    rows = (pattern.row[:, None] * d + l).ravel()
    cols = (pattern.col[:, None] * d + k).ravel()
    vals = probes[rows, (colours[pattern.col][:, None] * d + k).ravel()]
    return sp.csr_matrix((vals, (rows, cols)), shape=(n_flat, n_flat))


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


def build_preconditioner(state: SolverState):
    """Probe S, make the probe SPD, factor it once; returns r -> M^-1 r."""
    return _splu(dominant_symmetric_part(probe_interface_operator(state)).tocsc()).solve


def _cg_breakdown(k, reason, history, best) -> ConvergenceError:
    return ConvergenceError(
        f"cg breakdown at iteration {k}: {reason}; use krylov='gmres'",
        residual_history=history,
        best=best,
    )


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
            raise _cg_breakdown(k, f"r'M^-1 r = {ry_new:.3e} <= 0: the preconditioner is not "
                                   "positive definite", history, x)
        beta = ry_new / ry if k > 1 else 0.0
        p = y + beta * p - coarse.deflate(y)
        ry = ry_new
        q = apply_op(p)
        pq = np.dot(p, q)
        if not pq > 0.0:
            raise _cg_breakdown(k, f"p'Ap = {pq:.3e} <= 0: the interface operator is not "
                                   "positive definite", history, x)
        alpha = ry / pq
        r = r - alpha * q
        r_norm = np.linalg.norm(r)
        if not np.isfinite(r_norm):
            raise _cg_breakdown(k, f"residual norm is {r_norm}", history, x)
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
    """Restarted GMRES (modified Gram-Schmidt, Givens)."""
    x = np.zeros_like(g)
    g_norm = np.linalg.norm(g)
    if g_norm == 0.0:
        return x, [], 0
    history = []
    total = 0
    while total < max_iters:
        r = g - apply_op(x)
        beta = np.linalg.norm(r)
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
            h[j + 1, j] = h_next
            for i in range(j):
                hi = cs[i] * h[i, j] + sn[i] * h[i + 1, j]
                h[i + 1, j] = -sn[i] * h[i, j] + cs[i] * h[i + 1, j]
                h[i, j] = hi
            denom = np.hypot(h[j, j], h[j + 1, j])
            if denom == 0.0:
                raise ConvergenceError(
                    f"gmres breakdown at iteration {total + 1}: the rotated Hessenberg matrix "
                    "has a zero diagonal entry, so the interface operator is singular on "
                    "the Krylov space",
                    residual_history=history,
                    best=x,
                )
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


def _max_iters(cfg: SolveConfig, ds: DerivedSpace) -> int:
    """`cfg.max_iters`, or by default 10x the interface dimension, at least 10."""
    default = max(10 * len(ds.gamma_nodes) * ds.block_dim, 10)
    return default if cfg.max_iters is None else cfg.max_iters


def solve_interface(state: SolverState, g_gamma: np.ndarray, cfg: SolveConfig):
    """Krylov-solve the continuous interface system; returns (u_gamma, history, iterations).

    The right-hand side is retracted once, the Krylov method runs on
    interface-node values, and the result (or the `best` iterate of a
    ConvergenceError) is injected once, so it is continuous by construction.
    The Euclidean norm of node values is the weighted norm of their
    injection, so the residual history is the weighted-norm residual
    relative to the right-hand side.  CG is deflated by the coarse space and
    preconditioned by the probe, both built here when needed, so
    `iterations` counts the Krylov steps after the coarse solve.
    """
    ds = state.space
    if cfg.krylov == "cg" and not state.problem.matrix.symmetric:
        raise ConfigError("cg requires a symmetric matrix; use krylov='gmres'")
    g_hat = retract_interface(g_gamma, ds)
    max_iters = _max_iters(cfg, ds)

    def op(v):
        return _schur(state, v)

    try:
        if cfg.krylov == "gmres":
            x, history, iters = _gmres(op, g_hat, cfg.tol, max_iters)
        else:
            x, history, iters = _cg(op, g_hat, lambda: build_coarse_space(state),
                                    lambda: build_preconditioner(state), cfg.tol, max_iters)
    except ConvergenceError as e:
        if e.best is not None:
            e.best = inject_interface(e.best, ds)
        raise
    return inject_interface(x, ds), history, iters


def back_substitute(state: SolverState, u_gamma: np.ndarray) -> np.ndarray:
    """Recover interior values with one solve of the interior factorization.

    Returns the interior original vector (sorted interior nodes, flat); the
    matching derived values are identical since interior multiplicities are 1.
    """
    ds = state.space
    b = state.blocks
    rhs = state.problem.rhs[b.interior_flat].astype(np.float64)
    if len(ds.gamma_nodes):
        rhs = rhs - b.ig @ retract_interface(u_gamma, ds)
    return state.interior.solve(rhs)


def assemble_solution(state: SolverState, u_interior: np.ndarray, u_gamma: np.ndarray) -> np.ndarray:
    """Combine interior and interface parts into one full derived vector."""
    ds = state.space
    d = ds.block_dim
    u = np.zeros(ds.derived_flat_size)
    if len(ds.interior_positions):
        u[flat_block_indices(ds.interior_positions, d)] = u_interior[ds.interior_origin_flat]
    if len(ds.gamma_positions):
        u[flat_block_indices(ds.gamma_positions, d)] = u_gamma
    return u


def verify_solution(problem: ProblemInstance, u_hat: np.ndarray, u: np.ndarray,
                    report: SolveReport, ds: DerivedSpace) -> dict:
    """Recompute the three certification defects and append them to the report."""
    f_hat = problem.rhs
    residual = float(np.linalg.norm(problem.matrix.csr @ u_hat - f_hat))
    f_norm = float(np.linalg.norm(f_hat))
    rel_residual = residual / f_norm if f_norm > 0 else residual
    duality = float(np.max(np.abs(u - u_hat[ds.origin_flat]))) if u.size else 0.0
    continuity = continuity_defect(u, ds)
    report.final_original_residual = rel_residual
    report.duality_defect = duality
    report.continuity_defect = continuity
    return {
        "final_original_residual": rel_residual,
        "duality_defect": duality,
        "continuity_defect": continuity,
    }


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

    On interface non-convergence the partial solution is still assembled and
    the raised ConvergenceError carries it as `.solution` with `.report`.
    """
    cfg = cfg or SolveConfig()
    report = SolveReport()
    report.timings = {f"{p}_ms": 0.0 for p in _PHASES}
    report.config = {
        "tol": cfg.tol,
        "max_iters": cfg.max_iters,
        "krylov": cfg.krylov,
        "compare_direct": cfg.compare_direct,
    }
    t_start = time.perf_counter()

    with _phase("setup", report.timings):
        if cfg.krylov == "cg" and not problem.matrix.symmetric:
            raise ConfigError("cg requires a symmetric matrix; use krylov='gmres'")
        state = _build_state(problem)
        ds = state.space
        report.config["max_iters"] = _max_iters(cfg, ds)

    with _phase("factor", report.timings):
        state.interior = factor_interior(problem.matrix, problem.decomposition)

    interface_failure = None
    u_gamma = np.zeros(len(ds.gamma_positions) * ds.block_dim)
    with _phase("interface", report.timings):
        if len(ds.gamma_nodes) > 0:
            g_gamma = interface_rhs(state)
            try:
                u_gamma, history, iters = solve_interface(state, g_gamma, cfg)
                report.residual_history = history
                report.iterations = iters
                report.converged = True
            except ConvergenceError as e:
                report.residual_history = e.residual_history
                report.iterations = len(e.residual_history)
                report.converged = False
                u_gamma = e.best if e.best is not None else u_gamma
                interface_failure = e
        else:
            report.converged = True

    with _phase("back_substitute", report.timings):
        u_interior = back_substitute(state, u_gamma)
        u = assemble_solution(state, u_interior, u_gamma)
        u_hat = retract(u, ds)

    with _phase("verify", report.timings):
        verify_solution(problem, u_hat, u, report, ds)
        if report.converged:
            # defense in depth: the interface tolerance must carry to the original system
            report.converged = report.final_original_residual <= max(10 * cfg.tol, 1e-9)
        if cfg.compare_direct:
            direct = spla.spsolve(problem.matrix.csr.tocsc(), problem.rhs)
            denom = float(np.linalg.norm(direct))
            err = float(np.linalg.norm(u_hat - direct))
            report.relative_error_vs_direct = err / denom if denom > 0 else err

    report.timings["total_ms"] = (time.perf_counter() - t_start) * 1e3

    if interface_failure is not None:
        err = ConvergenceError(
            str(interface_failure),
            residual_history=report.residual_history,
            best=u_gamma,
            solution=u_hat,
            report=report,
        )
        err.phase = "interface"
        raise err
    return u_hat, report
