import json
import re
from collections import Counter

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    incidence_rows,
    local_problems,
    make_problem_1d,
    make_problem_2d,
    make_problem_3d,
    make_problem_voronoi,
    run_cli,
    with_empty_subdomain,
)
from edvs import solver
from edvs.derived import (
    flat_block_indices,
    inject,
    is_dual,
)
from edvs.exceptions import ConfigError, ConvergenceError, LocalityError, SingularInteriorError
from edvs.ingest import (
    DecompositionMap,
    OriginalMatrix,
    ProblemInstance,
    generate_box_partition,
    generate_poisson_1d,
    load_matrix,
    write_matrix,
    write_vector,
)
from edvs.schur import IndexSplit, schur_complement
from edvs.solver import (
    SolveConfig,
    _greedy_colours,
    apply_interface_operator,
    back_substitute,
    build_coarse_space,
    dominant_symmetric_part,
    factor_interior,
    interface_classes,
    interface_rhs,
    probe_interface_operator,
    probe_pattern,
    setup_solver,
    solve_dvs,
    solve_interface,
)


@pytest.fixture
def state_1d5(problem_1d5):
    return setup_solver(problem_1d5)


@pytest.fixture
def state_2d55():
    return setup_solver(make_problem_2d(5, 5, 2, 2))


def dense_interface_operator(problem):
    """Oracle: the interface Schur complement assembled densely on interface nodes."""
    dm = problem.decomposition
    d = problem.matrix.block_dim
    a = problem.matrix.csr.toarray()
    m_set = tuple(int(i) for i in flat_block_indices(dm.interior_nodes, d))
    n_set = tuple(int(i) for i in flat_block_indices(dm.interface_nodes, d))
    return schur_complement(a, IndexSplit(m_set=m_set, n_set=n_set))


def interior_block(matrix, dm):
    """A_II in sorted interior order, as `factor_interior` slices it."""
    i_flat = flat_block_indices(dm.interior_nodes, matrix.block_dim)
    return matrix.csr[np.ix_(i_flat, i_flat)]


def convection_problem(n, boxes, c):
    """The matrix 2D Poisson + c (I x D + D x I), D the +-1 central difference, and boxes."""
    base = make_problem_2d(n, n, boxes, boxes)
    diff = sp.diags([-np.ones(n - 1), np.ones(n - 1)], [-1, 1])
    csr = (base.matrix.csr + c * (sp.kron(sp.identity(n), diff) + sp.kron(diff, sp.identity(n))))
    return OriginalMatrix(csr=csr.tocsr()), base.decomposition


class TestAssembleDualRhs:
    def test_copies_to_descendants(self, state_1d5):
        f = np.zeros(5)
        f[2] = 1.0
        lifted = inject(f, state_1d5.space)
        assert lifted.tolist() == [0, 0, 1, 1, 0, 0]

    def test_zero(self, state_1d5):
        assert np.all(inject(np.zeros(5), state_1d5.space) == 0.0)

    def test_result_is_dual(self, state_1d5, rng):
        f = rng.standard_normal(5)
        assert is_dual(f, inject(f, state_1d5.space), state_1d5.space)


class TestFactorInterior:
    @pytest.mark.parametrize("problem", [make_problem_1d(5, 2), make_problem_2d(5, 5, 2, 2)],
                             ids=["1d5", "2d55"])
    def test_solve_inverts_interior_block(self, problem):
        # 1d5: interior nodes 0, 1 | 3, 4; 2d55: a 2x2 interior per box
        a_ii = interior_block(problem.matrix, problem.decomposition)
        fact = factor_interior(problem.matrix, problem.decomposition)
        x = np.random.default_rng(7).standard_normal(a_ii.shape[0])
        assert np.allclose(fact.solve(a_ii @ x), x, atol=1e-12)

    def test_singular_block_names_subdomain(self):
        bad = sp.lil_matrix((5, 5))
        bad[0, 0] = bad[0, 1] = bad[1, 0] = bad[1, 1] = 1.0  # singular 2x2 interior
        for k in (2, 3, 4):
            bad[k, k] = 2.0
        matrix = OriginalMatrix(csr=bad.tocsr())
        dm = DecompositionMap.from_memberships([(0,), (0,), (0, 1), (1,), (1,)])
        with pytest.raises(SingularInteriorError) as err:
            factor_interior(matrix, dm)
        assert err.value.subdomain == 0

    def test_singular_second_block_names_subdomain_1(self):
        # the fused factorization fails; factoring block by block names the culprit
        bad = sp.lil_matrix((5, 5))
        for k in (0, 1, 2):
            bad[k, k] = 2.0
        bad[3, 3] = bad[3, 4] = bad[4, 3] = bad[4, 4] = 1.0  # singular 2x2 interior
        matrix = OriginalMatrix(csr=bad.tocsr())
        dm = DecompositionMap.from_memberships([(0,), (0,), (0, 1), (1,), (1,)])
        with pytest.raises(SingularInteriorError) as err:
            factor_interior(matrix, dm)
        assert err.value.subdomain == 1

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_ordering_reduces_fill_whatever_the_storage_flag(self, tmp_path, symmetric):
        # a symmetric matrix read from either storage is symmetric and gets the same factor
        problem = make_problem_2d(65, 65, 4, 4)
        storage = "symmetric" if symmetric else "general"
        path = tmp_path / f"{storage}.mtx"
        scipy.io.mmwrite(path, problem.matrix.csr, symmetry=storage)
        assert path.read_text().startswith(f"%%MatrixMarket matrix coordinate real {storage}\n")
        matrix = load_matrix(path)
        assert matrix.symmetric
        fact = factor_interior(matrix, problem.decomposition)
        ref = factor_interior(problem.matrix, problem.decomposition)
        assert fact.lu.L.nnz + fact.lu.U.nnz == ref.lu.L.nnz + ref.lu.U.nnz
        default = spla.splu(interior_block(matrix, problem.decomposition).tocsc())
        assert fact.lu.L.nnz + fact.lu.U.nnz < default.L.nnz + default.U.nnz

    @pytest.mark.parametrize("upper", [1.0, 2.0])
    def test_factor_keeps_partial_pivoting(self, upper):
        # two interior blocks tridiag(1, 1e-12, upper) of size 6: a factor that
        # always takes the tiny diagonal pivot solves them to only ~1e-5
        n = 13
        diagonal = np.full(n, 1e-12)
        diagonal[6] = 4.0
        csr = sp.diags([np.ones(n - 1), diagonal, np.full(n - 1, upper)], [-1, 0, 1]).tocsr()
        matrix = OriginalMatrix(csr=csr)
        dm = DecompositionMap.from_memberships([(0,)] * 6 + [(0, 1)] + [(1,)] * 6)
        fact = factor_interior(matrix, dm)
        a_ii = interior_block(matrix, dm).toarray()
        rhs = np.random.default_rng(3).standard_normal(12)
        expected = np.linalg.solve(a_ii, rhs)
        assert np.linalg.norm(fact.solve(rhs) - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_convection_keeps_the_fill_of_the_symmetric_ordering(self):
        # at SuperLU's default diag_pivot_thresh of 1.0, c = 5 had 498k L+U
        # entries against 92k for c = 0
        fill = []
        for c in (0.0, 5.0):
            matrix, dm = convection_problem(65, 2, c)
            fact = factor_interior(matrix, dm)
            fill.append(fact.lu.L.nnz + fact.lu.U.nnz)
        assert fill[1] <= 1.1 * fill[0]
        a_ii = interior_block(matrix, dm)
        rhs = np.random.default_rng(5).standard_normal(a_ii.shape[0])
        assert np.linalg.norm(a_ii @ fact.solve(rhs) - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_no_interior_solves_to_the_shape_of_the_rhs(self):
        # every node in both subdomains: the builds pass (0, k) blocks
        problem = make_problem_1d(5, 1)
        dm = DecompositionMap.from_memberships([(0, 1)] * 5)
        fact = factor_interior(problem.matrix, dm)
        assert fact.lu is None
        assert fact.solve(np.zeros(0)).shape == (0,)
        assert fact.solve(np.zeros((0, 3), order="F")).shape == (0, 3)
        problem = ProblemInstance(matrix=problem.matrix, rhs=problem.rhs, decomposition=dm)
        _, report = solve_dvs(problem, SolveConfig(compare_direct=True))
        assert report.converged
        assert report.relative_error_vs_direct <= 1e-10


def on_gamma(state, v_hat):
    """The injection of interface-node values `v_hat` (zero elsewhere), read at
    `space.gamma_positions`: the input and output form of `apply_interface_operator`."""
    ds = state.space
    x_hat = np.zeros(ds.original_flat_size)
    x_hat[state.blocks.gamma_flat] = v_hat
    return inject(x_hat, ds)[flat_block_indices(ds.gamma_positions, ds.block_dim)]


class TestInterfaceOperator:
    def test_continuous_pair_gives_schur_value(self, state_1d5):
        out = apply_interface_operator(state_1d5, np.ones(2))
        assert np.allclose(out, [2.0 / 3.0, 2.0 / 3.0], atol=1e-14)

    def test_zero(self, state_1d5):
        assert np.all(apply_interface_operator(state_1d5, np.zeros(2)) == 0.0)
        with pytest.raises(ValueError, match="expected length 2"):
            apply_interface_operator(state_1d5, np.zeros(1))  # node values are not its form

    def test_agrees_with_dense_oracle(self, state_2d55, rng):
        problem = state_2d55.problem
        sigma = dense_interface_operator(problem)
        ds = state_2d55.space
        for _ in range(20):
            v_hat = rng.standard_normal(len(problem.decomposition.interface_nodes))
            got = apply_interface_operator(state_2d55, on_gamma(state_2d55, v_hat))
            want = on_gamma(state_2d55, sigma @ v_hat)
            assert np.linalg.norm(got - want) <= 1e-12 * max(np.linalg.norm(want), 1.0)

    def test_symmetric_in_weighted_product(self, state_2d55, rng):
        ds = state_2d55.space
        n_gamma = len(ds.decomposition.interface_nodes)
        weight = ds.weight_flat[flat_block_indices(ds.gamma_positions, ds.block_dim)]
        for _ in range(10):
            v = on_gamma(state_2d55, rng.standard_normal(n_gamma))
            w = on_gamma(state_2d55, rng.standard_normal(n_gamma))
            sv_w = np.dot(apply_interface_operator(state_2d55, v) * weight, w)
            v_sw = np.dot(v * weight, apply_interface_operator(state_2d55, w))
            scale = np.linalg.norm(v) * np.linalg.norm(w)
            assert abs(sv_w - v_sw) <= 1e-12 * max(scale, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(problem=local_problems())
    def test_agrees_with_dense_oracle_on_random_partitions(self, problem):
        # multiplicity-3 nodes, a subdomain without interior, block_dim 1 and 2
        state = setup_solver(problem)
        ds = state.space
        sigma = dense_interface_operator(problem)
        rng = np.random.default_rng(5)
        for _ in range(3):
            v_hat = rng.standard_normal(len(problem.decomposition.interface_nodes) * ds.block_dim)
            got = apply_interface_operator(state, on_gamma(state, v_hat))
            want = on_gamma(state, sigma @ v_hat)
            assert np.linalg.norm(got - want) <= 1e-12 * max(np.linalg.norm(want), 1.0)

    def test_drift_is_projected_and_counted(self, state_1d5):
        out = apply_interface_operator(state_1d5, np.array([2.0, 0.0]))
        assert np.allclose(out, apply_interface_operator(state_1d5, np.ones(2)), atol=1e-14)


def spy_cg_breakdowns(monkeypatch):
    """The message of every CG breakdown raised from now on, which `solve_interface` hands to GMRES."""
    messages = []

    class Spy(solver._CGBreakdown):
        def __init__(self, message):
            super().__init__(message)
            messages.append(message)

    monkeypatch.setattr(solver, "_CGBreakdown", Spy)
    return messages


class CountingInterior:
    """An interior factorization that counts the columns it solves for."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def solve(self, rhs):
        self.calls += 1 if rhs.ndim == 1 else rhs.shape[1]
        return self.inner.solve(rhs)


class TestSolveInterface:
    def test_single_interface_node_solved_by_coarse_space(self, state_1d5):
        # the coarse space spans the one-node interface: exact before any Krylov step
        g = interface_rhs(state_1d5)
        assert g.shape == (1,) and np.allclose(g, 1.0)
        u_gamma, history, iters = solve_interface(state_1d5, g, SolveConfig())
        assert iters == 0 and history == []
        assert u_gamma.shape == (1,) and np.allclose(u_gamma, 1.5, atol=1e-12)

    def test_zero_rhs(self, state_1d5):
        # neither the coarse space nor the preconditioner is built: no interior solve
        state_1d5.interior = CountingInterior(state_1d5.interior)
        u_gamma, history, iters = solve_interface(state_1d5, np.zeros(1), SolveConfig())
        assert iters == 0 and history == []
        assert u_gamma.shape == (1,) and np.all(u_gamma == 0.0)
        assert state_1d5.interior.calls == 0
        solve_interface(state_1d5, np.ones(1), SolveConfig())
        assert state_1d5.interior.calls > 0

    def test_coarse_solve_alone_builds_no_preconditioner(self, state_1d5, monkeypatch):
        def refuse(state):
            raise AssertionError("the preconditioner was built")

        monkeypatch.setattr(solver, "build_preconditioner", refuse)
        _, history, iters = solve_interface(state_1d5, interface_rhs(state_1d5), SolveConfig())
        assert iters == 0 and history == []

    def test_cg_finite_termination_2d(self, state_2d55):
        g = interface_rhs(state_2d55)
        u_gamma, history, iters = solve_interface(state_2d55, g, SolveConfig(tol=1e-10))
        assert iters <= len(state_2d55.space.decomposition.interface_nodes)
        assert history[-1] <= 1e-10

    def test_nonsymmetric_matrix_runs_gmres(self, problem_1d5):
        csr = problem_1d5.matrix.csr.tolil()
        csr[0, 1] = -0.5  # A[1, 0] stays -1
        matrix = OriginalMatrix(csr=csr.tocsr())
        assert not matrix.symmetric
        problem = ProblemInstance(matrix=matrix, rhs=problem_1d5.rhs,
                                  decomposition=problem_1d5.decomposition)
        state = setup_solver(problem)
        u_gamma, _, _ = solve_interface(state, interface_rhs(state), SolveConfig())
        assert state.krylov == "gmres"
        direct = np.linalg.solve(csr.toarray(), problem.rhs)
        assert np.allclose(u_gamma, direct[[2]], atol=1e-12)

    def test_gmres_matches_cg_solution(self, state_2d55):
        g = interface_rhs(state_2d55)
        u_cg, _, _ = solve_interface(state_2d55, g, SolveConfig())
        assert state_2d55.krylov == "cg"
        x, _, _ = solver._gmres(lambda v: solver._schur(state_2d55, v), g, 1e-10, 1000)
        assert np.allclose(u_cg, x, atol=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), skew=st.booleans(), empty=st.booleans())
    def test_node_values_match_direct_on_random_partitions(self, data, skew, empty):
        # multiplicity 3, a subdomain without interior, block_dim 1 and 2, with `empty`
        # a subdomain without nodes, and with `skew` GMRES: one value per interface
        # node and component, in sorted interface order
        problem = data.draw(local_problems(skew=skew))
        if empty:
            problem = ProblemInstance(matrix=problem.matrix, rhs=problem.rhs,
                                      decomposition=with_empty_subdomain(problem.decomposition))
        state = setup_solver(problem)
        u_gamma, _, _ = solve_interface(state, interface_rhs(state), SolveConfig())
        assert u_gamma.shape == (len(problem.decomposition.interface_nodes) * state.space.block_dim,)
        direct = spla.spsolve(problem.matrix.csr.tocsc(), problem.rhs)
        want = direct[state.blocks.gamma_flat]
        assert np.linalg.norm(u_gamma - want) <= 1e-8 * max(np.linalg.norm(want), 1.0)

    def test_gmres_stops_at_first_non_finite_value(self):
        # an inf in the third apply, the second Arnoldi step's: a typed breakdown there,
        # within the budget of 2000 iterations
        a = sp.diags([-np.ones(199), 2.0 * np.ones(200), -np.ones(199)], [-1, 0, 1], format="csr")
        applies = []

        def op(v):
            applies.append(1)
            out = a @ v
            if len(applies) == 3:
                out[7] = np.inf
            return out

        g = np.random.default_rng(3).standard_normal(200)
        with np.errstate(invalid="ignore"), pytest.raises(
                ConvergenceError, match="gmres breakdown at iteration 2: non-finite"):
            solver._gmres(op, g, 1e-10, 2000)
        assert len(applies) <= 3


def block_problem_2d(n, boxes):
    """2D Poisson with two coupled components per node (block_dim 2)."""
    return block_problem(make_problem_2d(n, n, boxes, boxes))


def block_problem(base):
    """`base`'s matrix with two coupled components per node (block_dim 2)."""
    csr = sp.kron(base.matrix.csr, sp.csr_matrix([[2.0, -0.5], [-0.5, 3.0]]), format="csr")
    matrix = OriginalMatrix(csr=csr, block_dim=2)
    rhs = np.random.default_rng(2).standard_normal(csr.shape[0])
    return ProblemInstance(matrix=matrix, rhs=rhs, decomposition=base.decomposition)


def sparse_direct_interface_operator(problem):
    """Oracle for interiors too large for the dense one's pseudo-inverse: A_GG - A_GI A_II^-1
    A_IG on interface nodes, densified, with scipy's default sparse LU (COLAMD ordering)."""
    dm = problem.decomposition
    d = problem.matrix.block_dim
    csr = problem.matrix.csr
    i_flat = flat_block_indices(dm.interior_nodes, d)
    g_flat = flat_block_indices(dm.interface_nodes, d)
    x = spla.spsolve(csr[np.ix_(i_flat, i_flat)].tocsc(), csr[np.ix_(i_flat, g_flat)].toarray())
    return csr[np.ix_(g_flat, g_flat)].toarray() - csr[np.ix_(g_flat, i_flat)] @ x


def legendre(j, t):
    """P_j(t) for j <= 3, in closed form."""
    return (np.ones_like(t), t, (3 * t ** 2 - 1) / 2, (5 * t ** 3 - 3 * t) / 2)[j]


def assert_coarse_space_matches_dense_oracle(problem, sigma=None):
    """Z holds, class by class in sorted order of the subdomain sets, then by degree, then by
    component, the Legendre moments of each class in full column rank, and spans the
    per-subdomain columns; S Z and the LU of Z' S Z agree with the dense Schur complement
    (`sigma`, by default the dense oracle)."""
    dm = problem.decomposition
    d = problem.matrix.block_dim
    coarse = build_coarse_space(setup_solver(problem))
    gamma = dm.interface_nodes
    z_ref = np.kron(dm.incidence[gamma].toarray() / dm.multiplicity[gamma, None], np.eye(d))
    z = coarse.z.toarray()
    rows = incidence_rows(dm)
    sets = sorted({rows[p] for p in gamma})
    expected, short = [], []
    for members in ([i for i, p in enumerate(gamma) if rows[p] == s] for s in sets):
        # the class's nodes in ascending order, at the midpoints of s equal cells of [-1, 1]
        size = len(members)
        t = (2 * np.arange(size) + 1) / size - 1
        for j in range(min(max(size // 12, 1 + (size >= 7)), 4)):
            expected.append(np.zeros(len(gamma)))
            expected[-1][members] = legendre(j, t)
            short.append(size < 24)
    expected = np.kron(np.column_stack(expected), np.eye(d))
    short = np.repeat(short, d)
    assert z.shape == expected.shape
    # a class under 24 nodes has, per component, its indicator and from 7 nodes on its
    # P_1, exactly
    assert np.array_equal(z[:, short], expected[:, short])
    assert np.abs(z - expected).max() <= 1e-15
    assert np.linalg.matrix_rank(z) == z.shape[1]
    assert np.linalg.matrix_rank(np.hstack([z_ref, z])) == z.shape[1]
    if sigma is None:
        sigma = dense_interface_operator(problem)
    scale = max(np.abs(sigma).max(), 1.0)
    assert np.abs(coarse.sz_t.T.toarray() - sigma @ z).max() <= 1e-12 * scale
    # SuperLU factors Pr E Pc = L U
    lu = coarse.lu
    n = z.shape[1]
    pr = sp.csc_matrix((np.ones(n), (lu.perm_r, np.arange(n))), shape=(n, n))
    pc = sp.csc_matrix((np.ones(n), (np.arange(n), lu.perm_c)), shape=(n, n))
    e = (pr.T @ lu.L @ lu.U @ pc.T).toarray()
    assert np.abs(e - z.T @ sigma @ z).max() <= 1e-12 * scale


def seeded_solve(n, boxes, **cfg):
    rhs = np.random.default_rng(20261018).standard_normal(n * n)
    return solve_dvs(make_problem_2d(n, n, boxes, boxes, rhs=rhs), SolveConfig(**cfg))


# 29^2 over 16 Voronoi cells, multiplicity up to 4: 11 coarse-column colours and
# 11 probe colours, so both builds end on a partial solve block with one component
# per node and with two
VORONOI_29 = make_problem_voronoi(29, 16, seed=2)


def assert_classes_match_brute_force(dm):
    """Each class is the interface nodes of one incidence row, in lexicographic order of rows."""
    classes = interface_classes(dm)
    nodes = dm.interface_nodes
    rows = incidence_rows(dm)
    sets = sorted({rows[p] for p in nodes})
    assert len(classes.size) == len(sets)
    for c, s in enumerate(sets):
        in_class = np.flatnonzero([rows[p] == s for p in nodes])
        assert np.array_equal(np.flatnonzero(classes.of_node == c), in_class)
        assert np.array_equal(classes.rank[in_class], np.arange(len(in_class)))
    assert np.array_equal(classes.size, np.bincount(classes.of_node))


class TestClasses:
    @pytest.mark.parametrize("problem", [make_problem_2d(17, 17, 4, 4), VORONOI_29,
                                         make_problem_3d(9, 2)],
                             ids=["2d17x4", "voronoi29", "3d9x2"])
    def test_matches_brute_force(self, problem):
        assert_classes_match_brute_force(problem.decomposition)

    @settings(max_examples=40, deadline=None)
    @given(problem=local_problems(), empty=st.booleans())
    def test_matches_brute_force_on_random_partitions(self, problem, empty):
        # multiplicity 3, a subdomain without interior, and with `empty` a
        # subdomain without nodes
        dm = problem.decomposition
        assert_classes_match_brute_force(with_empty_subdomain(dm) if empty else dm)


class TestCoarseSpace:
    @pytest.mark.parametrize("problem", [make_problem_1d(17, 4), make_problem_2d(9, 9, 2, 2),
                                         make_problem_2d(17, 17, 4, 4), block_problem_2d(17, 4),
                                         VORONOI_29, block_problem(VORONOI_29)],
                             ids=["1d17x4", "2d9x2", "2d17x4", "2d17x4_d2", "voronoi29",
                                  "voronoi29_d2"])
    def test_matches_dense_oracle(self, problem):
        # 17^2 / 4x4 boxes: 33 classes, the 24 edges and the 9 cross points
        assert_coarse_space_matches_dense_oracle(problem)

    @pytest.mark.parametrize("problem, n_columns", [
        (make_problem_2d(65, 65, 2, 2), 9), (block_problem_2d(65, 2), 18),
        (make_problem_2d(129, 129, 2, 2), 17),
    ], ids=["2d65x2", "2d65x2_d2", "2d129x2"])
    def test_long_classes_match_direct_oracle(self, problem, n_columns):
        # 2x2 boxes: four edges and one cross point; the 31-node edges of 65^2 get
        # P_0 and P_1, the 63-node edges of 129^2 P_0 .. P_3
        assert build_coarse_space(setup_solver(problem)).z.shape[1] == n_columns
        assert_coarse_space_matches_dense_oracle(problem, sparse_direct_interface_operator(problem))

    @pytest.mark.parametrize("krylov", ["cg", "gmres"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), empty=st.booleans())
    def test_deflated_solve_matches_direct_on_random_partitions(self, krylov, data, empty):
        # multiplicity 3, a subdomain without interior, block_dim 1 and 2, and
        # with `empty` a subdomain without nodes, which is in no class; GMRES
        # runs, undeflated, on the same problems with a skew part added
        problem = data.draw(local_problems(skew=krylov == "gmres"))
        if empty:
            problem = ProblemInstance(matrix=problem.matrix, rhs=problem.rhs,
                                      decomposition=with_empty_subdomain(problem.decomposition))
        assert_coarse_space_matches_dense_oracle(problem)
        _, report = solve_dvs(problem, SolveConfig(compare_direct=True))
        assert report.config["krylov"] == krylov
        assert report.converged
        assert report.relative_error_vs_direct <= 1e-8

    def test_iterations_flat_in_subdomain_count(self):
        # H/h = 8 in both: 4x4 and 16x16 boxes take 10 and 10 (13 and 16 with one column
        # per short class and the probed M, 18 and 22 with one coarse vector per
        # subdomain; undeflated, unpreconditioned CG took 54 and 190)
        _, coarse = seeded_solve(33, 4)
        _, fine = seeded_solve(129, 16)
        assert fine.iterations <= 1.25 * coarse.iterations

    @pytest.mark.parametrize("shape, n_columns, n_solves", [((129, 16), 1185, 8),
                                                          ((257, 4), 105, 16)],
                             ids=["129x16", "257x4"])
    def test_box_classes_are_edges_and_cross_points(self, shape, n_columns, n_solves):
        # b x b boxes: 2b(b - 1) edges and (b - 1)^2 cross points.  The 7-node edges
        # of 129^2 / 16x16 have two columns each, P_0 and P_1: 480 * 2 + 225 columns;
        # the 63-node edges of 257^2 / 4x4 have four, P_0 .. P_3: 24 * 4 + 9 columns.
        # A cross point couples to no interior node under the 5-point stencil, so
        # only the edge columns take a colour: 4 per degree, 8 and 16 colours
        n, boxes = shape
        state = setup_solver(make_problem_2d(n, n, boxes, boxes))
        state.interior = CountingInterior(state.interior)
        coarse = build_coarse_space(state)
        assert coarse.z.shape[1] == n_columns
        assert state.interior.calls == n_solves

    def test_cross_points_take_no_interior_solve(self, monkeypatch):
        # under the 5-point stencil a cross point of 129^2 / 16x16 couples to no
        # interior node: its column's S z is exactly A_GG z, and every interior
        # right-hand side of the build holds some edge column
        rhs = []
        real = solver._interior_solves
        monkeypatch.setattr(solver, "_interior_solves",
                            lambda r, solve, kept: rhs.append(r) or real(r, solve, kept))
        state = setup_solver(make_problem_2d(129, 129, 16, 16))
        coarse = build_coarse_space(state)
        classes = state.classes
        crossing = np.flatnonzero(classes.size[classes.of_node] == 1)
        assert len(crossing) == 15 * 15
        columns = np.unique(coarse.z[crossing].indices)
        assert len(columns) == len(crossing)
        z = coarse.z[:, columns]
        assert (state.blocks.ig @ z).count_nonzero() == 0
        assert np.array_equal(coarse.sz_t[columns].T.toarray(), (state.blocks.gg @ z).toarray())
        assert len(rhs) == 1 and rhs[0].shape[1] == 8
        assert np.all(rhs[0].getnnz(axis=0) > 0)

    def test_blocked_builds_match_single_column_solves_on_voronoi(self, monkeypatch):
        # 129^2 over 256 Voronoi cells: 1100 classes, 1374 columns, in 18 colours,
        # solved in blocks of 4, 4, 4, 4 and 2 columns
        state = setup_solver(make_problem_voronoi(129, 256, seed=1))
        state.interior = CountingInterior(state.interior)
        coarse = build_coarse_space(state)
        assert coarse.z.shape[1] == 1374
        assert state.interior.calls == 18
        probe = probe_interface_operator(state)
        monkeypatch.setattr(solver, "_SOLVE_BLOCK", 1)
        single = build_coarse_space(state)
        assert (single.z != coarse.z).nnz == 0
        for got, want in ((coarse.sz_t, single.sz_t), (probe, probe_interface_operator(state))):
            assert abs(got - want).max() <= 1e-14 * abs(want).max()

    @pytest.mark.parametrize("n, boxes", [(9, 2), (17, 4)])
    def test_3d_boxes_reach_multiplicity_8(self, n, boxes):
        # 7 and 10 iterations at 9^3 / 2x2x2 and 17^3 / 4x4x4
        problem = make_problem_3d(n, boxes)
        assert problem.decomposition.multiplicity.max() == 8
        _, report = solve_dvs(problem, SolveConfig(compare_direct=True))
        assert report.converged
        assert report.relative_error_vs_direct <= 1e-8
        assert report.iterations <= 15

    def test_bit_identical_across_blas_threads_16x16(self, tmp_path, monkeypatch):
        # E is 705 x 705: its factor and solves must not depend on the BLAS thread count
        result = run_cli(["generate", "poisson2d", "--nx", "65", "--ny", "65", "--boxes", "16x16",
                          "--out-prefix", "det"], cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        write_vector(np.random.default_rng(11).standard_normal(65 * 65), tmp_path / "det.rhs")
        reports = []
        for threads in ("1", "2"):
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                monkeypatch.setenv(var, threads)
            result = run_cli(["solve", "--matrix", "det.mtx", "--partition", "det.part",
                              "--rhs", "det.rhs", "--out", f"sol{threads}.txt"], cwd=tmp_path)
            assert result.returncode == 0, result.stderr
            reports.append(json.loads(result.stdout))
        assert reports[0]["iterations"] > 0
        assert reports[0]["residual_history"] == reports[1]["residual_history"]
        assert (tmp_path / "sol1.txt").read_bytes() == (tmp_path / "sol2.txt").read_bytes()


def reference_greedy_colours(conflict):
    """The greedy first-fit colouring over full rows, written with numpy slices, as the reference."""
    conflict = conflict.tocsr()
    colours = np.full(conflict.shape[0], -1)
    for a in range(len(colours)):
        taken = set(colours[conflict.indices[conflict.indptr[a]:conflict.indptr[a + 1]]].tolist())
        colours[a] = next(c for c in range(len(colours) + 1) if c not in taken)
    return colours


def class_incidence(dm):
    """Subdomain x class incidence: a class is the interface nodes of one subdomain set."""
    rows = incidence_rows(dm)
    sets = sorted({rows[p] for p in dm.interface_nodes})
    cols = np.repeat(np.arange(len(sets)), [len(s) for s in sets])
    rows = np.concatenate(sets)
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(dm.n_subdomains, len(sets)))


def assert_rows_hold_distinct_colours(pattern, colours):
    for i in range(pattern.shape[0]):
        row = colours[pattern.indices[pattern.indptr[i]:pattern.indptr[i + 1]]]
        assert len(np.unique(row)) == len(row)


def assert_colourings_match_reference(problem):
    """Greedy colours of interface classes and of interface nodes.

    Classes of one colour share no subdomain (the coarse space colours its columns
    by the subdomains they reach, which lie in their class's set); probe nodes of
    one colour share no row of the probe pattern.
    """
    state = setup_solver(problem)
    for pattern in (class_incidence(problem.decomposition), probe_pattern(state)):
        conflict = pattern.T @ pattern
        colours = _greedy_colours(conflict)
        assert np.array_equal(colours, reference_greedy_colours(conflict))
        assert_rows_hold_distinct_colours(pattern, colours)


class TestColouring:
    @pytest.mark.parametrize("make", [
        lambda: make_problem_2d(17, 17, 4, 4),
        lambda: make_problem_2d(65, 65, 8, 8),
        lambda: make_problem_2d(129, 129, 16, 16),
        lambda: make_problem_voronoi(129, 256, 1),
    ], ids=["17x4", "65x8", "129x16", "voronoi-129x256"])
    def test_matches_reference_and_separates_every_row(self, make):
        assert_colourings_match_reference(make())

    @settings(max_examples=30, deadline=None)
    @given(problem=local_problems())
    def test_separates_every_row_on_random_partitions(self, problem):
        assert_colourings_match_reference(problem)


def heterogeneous_problem_2d(n, boxes, seed=7):
    """n x n Dirichlet Laplacian with seeded log-uniform edge weights in [1e-3, 1e3]."""
    diff = sp.diags([np.ones(n), -np.ones(n)], [0, -1], shape=(n + 1, n))
    grad = sp.vstack([sp.kron(sp.identity(n), diff), sp.kron(diff, sp.identity(n))])
    weights = 10.0 ** np.random.default_rng(seed).uniform(-3.0, 3.0, grad.shape[0])
    csr = (grad.T @ sp.diags(weights) @ grad).tocsr()
    csr.sort_indices()
    matrix = OriginalMatrix(csr=csr)
    rhs = np.random.default_rng(seed + 1).standard_normal(n * n)
    return ProblemInstance(matrix=matrix, rhs=rhs,
                           decomposition=generate_box_partition(n, n, boxes, boxes))


def node_adjacency(problem):
    """The dense node-level pattern of A_GG, without the diagonal."""
    d = problem.matrix.block_dim
    gamma = flat_block_indices(problem.decomposition.interface_nodes, d)
    a_gg = np.abs(problem.matrix.csr[np.ix_(gamma, gamma)].toarray())
    nodes = len(problem.decomposition.interface_nodes)
    adjacent = a_gg.reshape(nodes, d, nodes, d).sum(axis=(1, 3)) > 0
    np.fill_diagonal(adjacent, False)
    return adjacent


def class_of_each_interface_node(dm):
    """Per interface node, its subdomain set and the number of interface nodes that share it."""
    rows = incidence_rows(dm)
    cls = [rows[p] for p in dm.interface_nodes]
    count = Counter(cls)
    return cls, np.array([count[c] for c in cls])


def reference_probe_width(problem):
    """3 when the median interface node lies on a class of 24 nodes or more and each such
    class is a path in A_GG (no node with 3 neighbours in its class), else 2."""
    cls, size = class_of_each_interface_node(problem.decomposition)
    if np.median(size) < 24:
        return 2
    adjacent = node_adjacency(problem)
    for i in np.flatnonzero(size >= 24):
        if sum(cls[j] == cls[i] for j in np.flatnonzero(adjacent[i])) > 2:
            return 2
    return 3


def assert_probe_matches_dense_oracle(problem, sigma=None):
    """Probed entries are the colour sums of the Schur complement (`sigma`, by default the
    dense oracle) on the pattern of A_GG^k, k the width of `reference_probe_width`; returns k."""
    d = problem.matrix.block_dim
    state = setup_solver(problem)
    pattern = probe_pattern(state)
    # the node-level pattern of A_GG^k, with the diagonal
    width = reference_probe_width(problem)
    one_step = node_adjacency(problem) + np.eye(pattern.shape[0])
    assert np.array_equal(pattern.toarray() != 0, np.linalg.matrix_power(one_step, width) > 0)
    colours = _greedy_colours(pattern @ pattern)
    assert_rows_hold_distinct_colours(pattern, colours)
    if sigma is None:
        sigma = dense_interface_operator(problem)
    # columns of sigma summed over each colour, per component
    sums = sigma @ np.kron(np.eye(colours.max() + 1)[colours], np.eye(d))
    mask = np.kron(pattern.toarray(), np.ones((d, d))) > 0
    expected = np.where(mask, sums[:, np.kron(colours, np.ones(d, int)) * d
                                   + np.tile(np.arange(d), len(colours))], 0.0)
    got = probe_interface_operator(state)
    assert np.all(got.toarray()[~mask] == 0.0)
    assert np.abs(got.toarray() - expected).max() <= 1e-12 * max(np.abs(sigma).max(), 1.0)
    return width


def strip_interface_operator(problem):
    """Oracle: S_W = A_GG - A_GW A_WW^-1 A_WG assembled densely on interface nodes, with W
    the interior nodes (every component) within 3 steps of the interface, found by a
    breadth-first search over the dense node adjacency of A."""
    dm = problem.decomposition
    d = problem.matrix.block_dim
    csr = problem.matrix.csr
    nodes = sp.kron(sp.identity(dm.n_nodes), np.ones((1, d)), format="csr")
    adjacent = (nodes @ abs(csr) @ nodes.T).toarray() > 0
    reached = dm.multiplicity > 1
    frontier = reached.copy()
    for _ in range(3):
        frontier = adjacent[frontier].any(axis=0) & ~reached
        reached |= frontier
    w = flat_block_indices(np.flatnonzero(reached & (dm.multiplicity == 1)), d)
    g = flat_block_indices(dm.interface_nodes, d)
    a_ww = csr[np.ix_(w, w)].toarray()
    return csr[np.ix_(g, g)].toarray() - csr[np.ix_(g, w)].toarray() @ np.linalg.solve(
        a_ww, csr[np.ix_(w, g)].toarray())


class TestProbe:
    @pytest.mark.parametrize("problem", [make_problem_1d(17, 4), make_problem_2d(17, 17, 4, 4),
                                         block_problem_2d(17, 4), VORONOI_29,
                                         block_problem(VORONOI_29)],
                             ids=["1d17x4", "2d17x4", "2d17x4_d2", "voronoi29", "voronoi29_d2"])
    def test_matches_dense_oracle(self, problem):
        # short classes: the pattern of A_GG^2
        assert assert_probe_matches_dense_oracle(problem) == 2

    @pytest.mark.parametrize("problem", [make_problem_2d(49, 49, 2, 2), block_problem_2d(49, 2)],
                             ids=["2d49x2", "2d49x2_d2"])
    def test_long_path_classes_match_direct_oracle(self, problem):
        # 2x2 boxes: four 24-node edges, paths in A_GG, and one cross point; the
        # pattern of A_GG^3.  The strip is small enough here, so the probe reads S_W
        assert assert_probe_matches_dense_oracle(problem, strip_interface_operator(problem)) == 3

    @settings(max_examples=40, deadline=None)
    @given(problem=local_problems(), empty=st.booleans())
    def test_matches_dense_oracle_on_random_partitions(self, problem, empty):
        # multiplicity 3, a subdomain without interior, block_dim 1 and 2, and
        # with `empty` a subdomain without nodes
        if empty:
            problem = ProblemInstance(matrix=problem.matrix, rhs=problem.rhs,
                                      decomposition=with_empty_subdomain(problem.decomposition))
        assert_probe_matches_dense_oracle(problem)

    @pytest.mark.parametrize("n, boxes, width, interior_calls, iterations", [
        (129, 16, 2, 9, (10, 10)), (257, 4, 3, 0, (1, 13)),
    ], ids=["129x16", "257x4"])
    def test_width_follows_the_classes(self, n, boxes, width, interior_calls, iterations):
        # the 7-node edges of 129^2 / 16x16 keep A_GG^2 and its 9 colours, solved with
        # the interior factor, since 3 |coupled| exceeds the interior (the solve itself
        # takes the lumped M there, and 10 iterations); the 63-node edges
        # of 257^2 / 4x4 get A_GG^3, whose 13 colours are solved on the strip, as
        # 3 |coupled| is 14% of the interior (25 -> 21 iterations with A_GG^3 on the
        # interior factor, 12 on the strip)
        problem = make_problem_2d(n, n, boxes, boxes)
        assert reference_probe_width(problem) == width
        state = setup_solver(problem)
        state.interior = CountingInterior(state.interior)
        probe_interface_operator(state)
        assert state.interior.calls == interior_calls
        _, report = seeded_solve(n, boxes)
        assert iterations[0] <= report.iterations <= iterations[1]

    def test_3d_faces_keep_width_2(self):
        # 13^3 / 2x2x2 boxes: the median interface node lies on a 36-node face, and a
        # face is no path, so the probe reads A_GG^2: 31 colours (61 with A_GG^3)
        problem = make_problem_3d(13, 2)
        assert np.median(class_of_each_interface_node(problem.decomposition)[1]) >= 24
        sigma = sparse_direct_interface_operator(problem)
        assert assert_probe_matches_dense_oracle(problem, sigma) == 2
        state = setup_solver(problem)
        state.interior = CountingInterior(state.interior)
        probe_interface_operator(state)
        assert state.interior.calls == 31

    def test_halves_iterations(self, monkeypatch):
        # 129^2 / 16x16 boxes, the many-small shape: 10 iterations with the lumped M,
        # 19 with none
        _, probed = seeded_solve(129, 16)
        assert probed.iterations <= 25
        # M = I leaves deflated CG unpreconditioned
        monkeypatch.setattr(solver, "build_preconditioner", lambda state: lambda r: r)
        _, plain = seeded_solve(129, 16)
        assert plain.iterations >= 1.6 * probed.iterations

    def test_raised_diagonal_makes_heterogeneous_probe_spd(self):
        # with coefficients 1e-3 .. 1e3 the symmetrized probe is indefinite; the raise fixes it
        problem = heterogeneous_problem_2d(33, 4)
        state = setup_solver(problem)
        raw = probe_interface_operator(state)
        assert np.linalg.eigvalsh(((raw + raw.T) / 2).toarray())[0] < 0
        m = dominant_symmetric_part(raw)
        assert abs(m - m.T).max() == 0.0
        assert np.linalg.eigvalsh(m.toarray())[0] > 0
        _, report = solve_dvs(problem, SolveConfig(compare_direct=True))
        assert report.converged
        assert report.relative_error_vs_direct <= 1e-8

    def test_dominance_keeps_qualifying_rows(self):
        m = sp.csr_matrix(np.array([[4.0, -1.0, 0.0, 0.0], [-3.0, 2.0, 1.0, 0.0],
                                    [0.0, 1.0, -0.5, 0.0], [0.0, 0.0, 0.0, 0.0]]))
        got = dominant_symmetric_part(m).toarray()
        sym = (m.toarray() + m.toarray().T) / 2
        assert np.array_equal(got - np.diag(got.diagonal()), sym - np.diag(sym.diagonal()))
        assert got[0, 0] == 4.0                        # 4 > 2: kept
        assert 3.0 < got[1, 1] <= 3.0 * (1 + 1e-6)    # 2 <= 2 + 1: raised just past its row
        assert 1.0 < got[2, 2] <= 1.0 + 1e-6           # -0.5: raised just past its row
        assert got[3, 3] == 4.0                        # nothing off the diagonal: the largest
        assert np.linalg.eigvalsh(got)[0] > 0

    def test_indefinite_preconditioner_raises_typed_breakdown(self, monkeypatch):
        def indefinite(m):
            signs = -np.ones(m.shape[0])
            signs[0] = 1.0
            return sp.diags(signs, format="csr")

        monkeypatch.setattr(solver, "dominant_symmetric_part", indefinite)
        breakdowns = spy_cg_breakdowns(monkeypatch)
        # CG breaks down at r'M^-1 r <= 0, and GMRES, unpreconditioned, solves
        _, report = solve_dvs(make_problem_2d(17, 17, 4, 4), SolveConfig(compare_direct=True))
        assert len(breakdowns) == 1 and re.match("cg breakdown.*preconditioner", breakdowns[0])
        assert report.config["krylov"] == "gmres"
        assert report.config["preconditioner"] is None  # GMRES runs without the M CG built
        assert report.converged and report.relative_error_vs_direct <= 1e-8


def spy_preconditioners(monkeypatch):
    """Each M that `build_preconditioner` factors from now on."""
    built = []
    real = solver.dominant_symmetric_part
    monkeypatch.setattr(solver, "dominant_symmetric_part", lambda m: built.append(real(m)) or built[-1])
    return built


class TestPreconditioner:
    def test_lumped_on_small_subdomains_matches_dense_formula(self, monkeypatch):
        # 17^2 / 4x4 boxes, off the strip with equal couplings: M is the dominant
        # symmetric part of A_GG - A_GI diag(A_II)^-1 A_IG, built with no interior solve
        problem = make_problem_2d(17, 17, 4, 4)
        state = setup_solver(problem)
        state.interior = CountingInterior(state.interior)
        built = spy_preconditioners(monkeypatch)
        solver.build_preconditioner(state)
        assert state.interior.calls == 0
        assert state.preconditioner == "lumped"
        dm = problem.decomposition
        a = problem.matrix.csr.toarray()
        i, g = dm.interior_nodes, dm.interface_nodes
        want = a[np.ix_(g, g)] - a[np.ix_(g, i)] @ (a[np.ix_(i, g)] / np.diag(a)[i, None])
        assert np.abs(solver.lumped_interface_operator(state).toarray() - want).max() <= 1e-12
        assert len(built) == 1
        assert np.abs(built[0].toarray()
                      - dominant_symmetric_part(sp.csr_matrix(want)).toarray()).max() <= 1e-12

    def test_high_contrast_keeps_the_probe(self):
        # coefficients 1e-3 .. 1e3 (off-diagonal contrast 1e6): the probe of S, with
        # interior solves, as before
        problem = heterogeneous_problem_2d(33, 4)
        state = setup_solver(problem)
        state.interior = CountingInterior(state.interior)
        solver.build_preconditioner(state)
        assert state.preconditioner == "probe"
        assert state.interior.calls > 0
        _, report = solve_dvs(problem, SolveConfig(compare_direct=True))
        assert report.config["preconditioner"] == "probe"
        assert report.converged and report.relative_error_vs_direct <= 1e-8

    def test_zero_coupled_diagonal_keeps_the_probe(self, monkeypatch):
        # a coupled interior entry with a zero diagonal cannot be lumped: the probe,
        # and no inf or NaN in M
        problem = make_problem_2d(17, 17, 4, 4)
        state = setup_solver(problem)
        b = state.blocks
        entry = b.interior_flat[b.coupled[0]]
        csr = problem.matrix.csr.tolil()
        csr[entry, entry] = 0.0
        matrix = OriginalMatrix(csr=csr.tocsr())
        assert matrix.symmetric
        state = setup_solver(ProblemInstance(matrix=matrix, rhs=problem.rhs,
                                             decomposition=problem.decomposition))
        built = spy_preconditioners(monkeypatch)
        solver.build_preconditioner(state)
        assert state.preconditioner == "probe"
        assert len(built) == 1 and np.all(np.isfinite(built[0].data))

    def test_solve_names_the_preconditioner(self):
        # the strip on 49^2 / 2x2 boxes, the lumped M on 17^2 / 4x4, and none where
        # the coarse space solves it or GMRES runs
        for problem, name in ((make_problem_2d(49, 49, 2, 2), "strip probe"),
                              (make_problem_2d(17, 17, 4, 4), "lumped"),
                              (make_problem_1d(5, 2), None)):
            _, report = solve_dvs(problem, SolveConfig())
            assert report.converged and report.config["preconditioner"] == name
        _, report = solve_dvs(make_problem_2d(9, 9, 2, 2, rhs=np.zeros(81)))
        assert report.config["preconditioner"] is None


def singular_strip_problem():
    """49^2 / 2x2 boxes, where A_WW of the probe's strip is singular but A_II is not.

    In subdomain 0, nodes p and r, three steps from the interface, lose their
    diagonal and their couplings inside the strip, and are both coupled to c, two
    steps from it: in A_WW their rows hold only column c.  Each keeps its
    coupling to the node beyond the strip, so A_II stays nonsingular, and A is
    symmetric indefinite.
    """
    n = 49
    base = make_problem_2d(n, n, 2, 2)
    csr = base.matrix.csr.tolil()
    p, r, c = 10 * n + 21, 12 * n + 21, 11 * n + 22
    for a, b in ((p, p - n), (p, p + n), (p, p + 1), (r, r - n), (r, r + n), (r, r + 1)):
        csr[a, b] = csr[b, a] = 0.0
    for a in (p, r):
        csr[a, c] = csr[c, a] = -1.0
        csr[a, a] = 0.0
    return ProblemInstance(matrix=OriginalMatrix(csr=csr.tocsr()), rhs=base.rhs,
                           decomposition=base.decomposition)


class TestStrip:
    @pytest.mark.parametrize("problem", [make_problem_2d(49, 49, 2, 2), block_problem_2d(49, 2),
                                         make_problem_voronoi(49, 4, 1)],
                             ids=["2d49x2", "2d49x2_d2", "voronoi49x4"])
    def test_probe_matches_dense_strip_oracle(self, problem):
        # 3 |coupled| is at most half of the interior, so the probe reads S_W
        # and makes no solve with the interior factor
        state = setup_solver(problem)
        state.interior = CountingInterior(state.interior)
        probe_interface_operator(state)
        assert state.interior.calls == 0
        sigma = strip_interface_operator(problem)
        assert np.abs(sigma - sparse_direct_interface_operator(problem)).max() > 1e-6
        assert_probe_matches_dense_oracle(problem, sigma)

    def test_heterogeneous_no_worse_than_interior_path(self, monkeypatch):
        # log-uniform coefficients in [1e-3, 1e3]: 55 iterations on the strip, 60 on A_II
        problem = heterogeneous_problem_2d(129, 4)
        _, strip = solve_dvs(problem, SolveConfig(compare_direct=True))
        monkeypatch.setattr(solver, "_STRIP_SHARE", 0.0)
        state = setup_solver(problem)
        state.interior = CountingInterior(state.interior)
        probe_interface_operator(state)
        assert state.interior.calls > 0
        _, interior = solve_dvs(problem, SolveConfig(compare_direct=True))
        assert strip.relative_error_vs_direct <= 1e-8
        assert interior.relative_error_vs_direct <= 1e-8
        assert strip.iterations <= interior.iterations

    def test_singular_strip_raises_typed_breakdown(self, monkeypatch):
        problem = singular_strip_problem()
        state = setup_solver(problem)
        strip = problem.decomposition.interior_nodes[solver.interior_strip(state)]
        assert {10 * 49 + 21, 12 * 49 + 21, 11 * 49 + 22} <= set(strip.tolist())
        breakdowns = spy_cg_breakdowns(monkeypatch)
        _, report = solve_dvs(problem, SolveConfig(compare_direct=True))
        assert len(breakdowns) == 1 and re.match("cg breakdown.*A_WW.*singular", breakdowns[0])
        assert report.config["krylov"] == "gmres"
        assert report.converged and report.relative_error_vs_direct <= 1e-8

    def test_classes_computed_once_per_solve(self, monkeypatch):
        # the coarse space and the probe width share one computation, made in the
        # interface phase
        calls = []
        real = solver.interface_classes
        monkeypatch.setattr(solver, "interface_classes", lambda dm: calls.append(dm) or real(dm))
        state = setup_solver(make_problem_2d(49, 49, 2, 2))
        assert calls == []
        _, _, iters = solve_interface(state, interface_rhs(state), SolveConfig())
        assert iters > 0
        assert len(calls) == 1


class TestBackSubstitute:
    def test_closed_form_interiors(self, state_1d5):
        u_interior = back_substitute(state_1d5, np.array([1.5]))
        # interior nodes sorted [0,1,3,4]
        assert np.allclose(u_interior, [0.5, 1.0, 1.0, 0.5], atol=1e-12)

    def test_zero_everything(self, problem_1d5):
        problem = ProblemInstance(matrix=problem_1d5.matrix, rhs=np.zeros(5),
                                  decomposition=problem_1d5.decomposition)
        state = setup_solver(problem)
        assert np.all(back_substitute(state, np.zeros(1)) == 0.0)

    def test_single_subdomain_solves_whole_system(self):
        problem = make_problem_1d(5, 1)
        state = setup_solver(problem)
        u_interior = back_substitute(state, np.zeros(0))
        direct = np.linalg.solve(problem.matrix.csr.toarray(), problem.rhs)
        assert np.allclose(u_interior, direct, atol=1e-12)


def singular_interface_problem():
    """Two subdomains sharing one node, where the interface Schur complement is
    2 - 1 - 1 = 0 but its right-hand side is not."""
    matrix = OriginalMatrix(
        csr=sp.csr_matrix(np.array([[1.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 1.0]])),
    )
    dm = DecompositionMap.from_memberships([(0,), (0, 1), (1,)])
    return ProblemInstance(matrix=matrix, rhs=np.array([1.0, 0.0, 0.0]), decomposition=dm)


def voronoi_ones(n, k, seed):
    problem = make_problem_voronoi(n, k, seed)
    return ProblemInstance(matrix=problem.matrix, rhs=np.ones(n * n),
                           decomposition=problem.decomposition)


# box partitions, ids "boxes-n", then seeded Voronoi partitions of k cells; at
# 129^2 / 4x4 (H/h = 32) CG takes 12 iterations, with the probe on the strip (19 on
# the interior factor, 32 with one coarse column per class)
LADDER = [pytest.param(make_problem_2d(n, n, boxes, boxes), id=f"{boxes}-{n}")
          for boxes, n in ((4, 33), (4, 65), (8, 33), (8, 65), (4, 129))] + [
    pytest.param(voronoi_ones(n, k, seed=1), id=f"voronoi{k}-{n}") for n, k in ((33, 16), (65, 64))]


class TestSolveDvs:
    def test_1d_closed_form(self, problem_1d5):
        u_hat, report = solve_dvs(problem_1d5, SolveConfig())
        assert np.allclose(u_hat, [0.5, 1.0, 1.5, 1.0, 0.5], atol=1e-10)
        assert report.converged
        assert report.final_original_residual <= 1e-10

    def test_2d_matches_direct(self):
        u_hat, report = solve_dvs(make_problem_2d(5, 5, 2, 2), SolveConfig(compare_direct=True))
        assert report.relative_error_vs_direct <= 1e-9

    def test_degenerate_single_subdomain(self):
        u_hat, report = solve_dvs(make_problem_1d(7, 1), SolveConfig(compare_direct=True))
        assert report.iterations == 0
        assert report.relative_error_vs_direct <= 1e-12

    def test_no_interface_names_the_method_of_the_matrix(self):
        # with one subdomain nothing iterates, yet a nonsymmetric matrix is GMRES's
        base = make_problem_1d(7, 1)
        csr = base.matrix.csr.tolil()
        csr[0, 1] = -0.5
        problem = ProblemInstance(matrix=OriginalMatrix(csr=csr.tocsr()), rhs=base.rhs,
                                  decomposition=base.decomposition)
        _, report = solve_dvs(problem, SolveConfig(compare_direct=True))
        assert report.config["krylov"] == "gmres"
        assert report.converged and report.iterations == 0
        assert report.relative_error_vs_direct <= 1e-12

    def test_no_interface_solves_the_interior_once(self, monkeypatch):
        # A_GI reads no interior entry: only back-substitution solves A_II
        calls = []
        solve = solver.InteriorFactorization.solve
        monkeypatch.setattr(solver.InteriorFactorization, "solve",
                            lambda self, rhs: calls.append(rhs) or solve(self, rhs))
        _, report = solve_dvs(make_problem_2d(65, 65, 1, 1), SolveConfig(compare_direct=True))
        assert len(calls) == 1
        assert report.iterations == 0
        assert report.relative_error_vs_direct <= 1e-12

    def test_monotone_residual_history(self):
        _, report = solve_dvs(make_problem_2d(9, 9, 2, 2), SolveConfig())
        hist = report.residual_history
        assert all(hist[k + 1] <= 1.1 * hist[k] for k in range(len(hist) - 1))

    def test_locality_failure_blocks_solve(self):
        matrix = generate_poisson_1d(5)
        dm = DecompositionMap.from_memberships([(0,), (0,), (1,), (1,), (1,)])
        problem = ProblemInstance(matrix=matrix, rhs=np.ones(5), decomposition=dm)
        with pytest.raises(LocalityError) as err:
            solve_dvs(problem, SolveConfig())
        assert getattr(err.value, "phase", None) == "setup"

    def test_nonconvergence_carries_report(self):
        with pytest.raises(ConvergenceError) as err:
            solve_dvs(make_problem_2d(9, 9, 2, 2), SolveConfig(max_iters=1))
        e = err.value
        assert e.report is not None and not e.report.converged
        assert len(e.residual_history) == 1
        assert e.solution is not None and e.solution.shape == (81,)
        assert e.phase == "interface"

    def test_cg_breakdown_on_indefinite_operator(self, monkeypatch):
        # SPD interiors, but negative interface diagonals: A is symmetric indefinite
        # and the interface operator is negative definite, so p'Ap < 0 at once, and
        # GMRES takes over
        base = make_problem_2d(9, 9, 2, 2)
        dm = base.decomposition
        csr = base.matrix.csr.tolil()
        for p in dm.interface_nodes:
            csr[p, p] = -4.0
        matrix = OriginalMatrix(csr=csr.tocsr())
        problem = ProblemInstance(matrix=matrix, rhs=base.rhs, decomposition=dm)
        eigs = np.linalg.eigvalsh(matrix.csr.toarray())
        assert eigs[0] < 0 < eigs[-1]
        breakdowns = spy_cg_breakdowns(monkeypatch)
        _, report = solve_dvs(problem, SolveConfig(compare_direct=True))
        assert len(breakdowns) == 1 and breakdowns[0].startswith("cg breakdown at iteration 1: p'Ap")
        assert report.config["krylov"] == "gmres"
        assert report.converged and report.relative_error_vs_direct <= 1e-8

    def test_gmres_breakdown_on_singular_interface_operator(self):
        # S = 0: CG cannot factor E and hands over to GMRES, which breaks down at once
        with pytest.raises(ConvergenceError, match="gmres breakdown at iteration 1") as err:
            solve_dvs(singular_interface_problem(), SolveConfig())
        e = err.value
        assert e.phase == "interface"
        assert len(e.residual_history) <= 2
        assert e.report is not None and not e.report.converged
        assert e.report.config["krylov"] == "gmres"

    def test_interface_failure_keeps_its_context(self):
        # the interface's error is raised again, not rebuilt: GMRES's breakdown, with
        # CG's as its context, and the interface iterate in node values
        problem = singular_interface_problem()
        with pytest.raises(ConvergenceError, match="gmres breakdown at iteration 1") as err:
            solve_dvs(problem)
        e = err.value
        assert e.phase == "interface"
        assert isinstance(e.__context__, solver._CGBreakdown)
        assert e.best.shape == (len(problem.decomposition.interface_nodes),)
        assert e.solution.shape == (3,) and e.report is not None

    def test_no_solve_builds_the_derived_space(self, monkeypatch):
        # interface vectors are node values and verify reads the original residual only
        calls = []
        build = solver.build_derived_space

        def spy(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(solver, "build_derived_space", spy)
        base = make_problem_2d(9, 9, 2, 2)
        csr = base.matrix.csr.tolil()
        csr[40, 41] = -0.5
        nonsymmetric = ProblemInstance(matrix=OriginalMatrix(csr=csr.tocsr()), rhs=base.rhs,
                                       decomposition=base.decomposition)
        _, report = solve_dvs(base)
        assert report.converged and report.config["krylov"] == "cg"
        _, report = solve_dvs(nonsymmetric)
        assert report.converged and report.config["krylov"] == "gmres"
        _, report = solve_dvs(make_problem_1d(7, 1))
        assert report.converged and report.iterations == 0
        with pytest.raises(ConvergenceError):
            solve_dvs(base, SolveConfig(max_iters=1))
        assert calls == []

    def test_cg_breakdown_on_singular_interface_operator(self):
        # S = 0, so the coarse matrix Z'SZ = 0 cannot be factored; that breakdown is
        # the context of GMRES's
        state = setup_solver(singular_interface_problem())
        with pytest.raises(ConvergenceError, match="gmres breakdown") as err:
            solve_interface(state, interface_rhs(state), SolveConfig())
        cause = err.value.__context__
        assert isinstance(cause, solver._CGBreakdown)
        assert str(cause).startswith("cg breakdown at iteration 0: E = Z'SZ is singular")
        assert state.krylov == "gmres"

    @pytest.mark.parametrize("problem", LADDER)
    def test_convergence_ladder(self, problem):
        # deflated, probed CG with rhs = 1: few iterations, and the direct solution
        _, report = solve_dvs(problem, SolveConfig(compare_direct=True))
        assert report.converged
        assert report.iterations <= 30
        assert report.relative_error_vs_direct <= 1e-8

    def test_nonsymmetric_gmres_path(self):
        data = np.zeros((3, 5))
        data[0, :-1] = -0.8
        data[1] = 2.0
        data[2, 1:] = -1.2
        csr = sp.dia_matrix((data, [-1, 0, 1]), shape=(5, 5)).tocsr()
        matrix = OriginalMatrix(csr=csr)
        dm = generate_box_partition(5, 1, 2, 1)
        problem = ProblemInstance(matrix=matrix, rhs=np.ones(5), decomposition=dm)
        u_hat, report = solve_dvs(problem, SolveConfig(compare_direct=True))
        assert report.config["krylov"] == "gmres"
        assert report.relative_error_vs_direct <= 1e-9

    def test_general_file_with_nonsymmetric_values_solves_with_gmres(self, tmp_path):
        csr = generate_poisson_1d(5).csr.tolil()
        csr[0, 1] = -0.5
        path = tmp_path / "n.mtx"
        write_matrix(OriginalMatrix(csr=csr.tocsr()), path)
        assert path.read_text().startswith("%%MatrixMarket matrix coordinate real general\n")
        matrix = load_matrix(path)
        assert not matrix.symmetric
        problem = ProblemInstance(matrix=matrix, rhs=np.ones(5),
                                  decomposition=generate_box_partition(5, 1, 2, 1))
        _, report = solve_dvs(problem, SolveConfig(compare_direct=True))
        assert report.config["krylov"] == "gmres"
        assert report.relative_error_vs_direct <= 1e-9

    def test_krylov_is_not_a_setting(self):
        # the method is chosen from the matrix
        with pytest.raises(TypeError):
            SolveConfig(krylov="gmres")

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-10, "x", True])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ConfigError, match="tol"):
            SolveConfig(tol=tol)

    @pytest.mark.parametrize("max_iters", [0, 2.5, "10", True])
    def test_max_iters_must_be_a_positive_integer(self, max_iters):
        with pytest.raises(ConfigError, match="max_iters"):
            SolveConfig(max_iters=max_iters)

    @pytest.mark.parametrize("compare_direct", [1, 0, "yes", None])
    def test_compare_direct_must_be_a_bool(self, compare_direct):
        with pytest.raises(ConfigError, match="compare_direct"):
            SolveConfig(compare_direct=compare_direct)

    def test_block_dim_two(self):
        base = generate_poisson_1d(5)
        csr = sp.kron(base.csr, sp.eye(2), format="csr")
        matrix = OriginalMatrix(csr=csr.tocsr(), block_dim=2)
        dm = generate_box_partition(5, 1, 2, 1)
        rhs = np.zeros(10)
        rhs[4], rhs[5] = 1.0, 2.0
        problem = ProblemInstance(matrix=matrix, rhs=rhs, decomposition=dm)
        u_hat, report = solve_dvs(problem, SolveConfig(compare_direct=True))
        assert report.relative_error_vs_direct <= 1e-10
        assert np.allclose(u_hat[::2], 1.0 * np.array([0.5, 1.0, 1.5, 1.0, 0.5]), atol=1e-10)
        assert np.allclose(u_hat[1::2], 2.0 * np.array([0.5, 1.0, 1.5, 1.0, 0.5]), atol=1e-10)

    def test_report_schema(self, problem_1d5):
        _, report = solve_dvs(problem_1d5, SolveConfig())
        payload = report.to_dict()
        assert sorted(payload.keys()) == sorted([
            "iterations", "converged", "final_original_residual",
            "relative_error_vs_direct", "residual_history", "timings", "config",
        ])
        assert sorted(payload["timings"].keys()) == sorted([
            "setup_ms", "factor_ms", "interface_ms", "back_substitute_ms",
            "verify_ms", "total_ms",
        ])
        assert sorted(payload["config"].keys()) == sorted([
            "tol", "max_iters", "krylov", "preconditioner", "compare_direct",
        ])
        # the coarse space spans the one-node interface, so no M is built
        assert payload["config"]["preconditioner"] is None


class TestVerifySolution:
    def test_converged_defects_small(self, problem_1d5):
        u_hat, report = solve_dvs(problem_1d5, SolveConfig())
        assert report.final_original_residual <= 1e-10

    def test_zero_problem(self, problem_1d5):
        problem = ProblemInstance(matrix=problem_1d5.matrix, rhs=np.zeros(5),
                                  decomposition=problem_1d5.decomposition)
        u_hat, report = solve_dvs(problem, SolveConfig())
        assert np.all(u_hat == 0.0)
        assert report.final_original_residual == 0.0
