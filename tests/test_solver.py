import json

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
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
    inject_interface,
    is_dual,
    retract_interface,
)
from edvs.exceptions import ConfigError, ConvergenceError, LocalityError, SingularInteriorError
from edvs.ingest import (
    DecompositionMap,
    OriginalMatrix,
    ProblemInstance,
    generate_box_partition,
    generate_poisson_1d,
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
    interface_rhs,
    probe_interface_operator,
    probe_pattern,
    setup_solver,
    solve_dvs,
    solve_interface,
    verify_solution,
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
    return OriginalMatrix(csr=csr.tocsr(), symmetric=c == 0), base.decomposition


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
        matrix = OriginalMatrix(csr=bad.tocsr(), symmetric=False)
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
        matrix = OriginalMatrix(csr=bad.tocsr(), symmetric=False)
        dm = DecompositionMap.from_memberships([(0,), (0,), (0, 1), (1,), (1,)])
        with pytest.raises(SingularInteriorError) as err:
            factor_interior(matrix, dm)
        assert err.value.subdomain == 1

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_ordering_reduces_fill_whatever_the_storage_flag(self, symmetric):
        # a symmetric matrix read from `general` storage gets the same factor
        problem = make_problem_2d(65, 65, 4, 4)
        matrix = OriginalMatrix(csr=problem.matrix.csr, symmetric=symmetric)
        fact = factor_interior(matrix, problem.decomposition)
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
        matrix = OriginalMatrix(csr=csr, symmetric=upper == 1.0)
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


class TestInterfaceOperator:
    def test_continuous_pair_gives_schur_value(self, state_1d5):
        out = apply_interface_operator(state_1d5, np.ones(2))
        assert np.allclose(out, [2.0 / 3.0, 2.0 / 3.0], atol=1e-14)

    def test_zero(self, state_1d5):
        assert np.all(apply_interface_operator(state_1d5, np.zeros(2)) == 0.0)

    def test_agrees_with_dense_oracle(self, state_2d55, rng):
        problem = state_2d55.problem
        sigma = dense_interface_operator(problem)
        ds = state_2d55.space
        for _ in range(20):
            v_hat = rng.standard_normal(len(ds.gamma_nodes))
            v = inject_interface(v_hat, ds)
            got = apply_interface_operator(state_2d55, v)
            want = inject_interface(sigma @ v_hat, ds)
            assert np.linalg.norm(got - want) <= 1e-12 * max(np.linalg.norm(want), 1.0)

    def test_symmetric_in_weighted_product(self, state_2d55, rng):
        ds = state_2d55.space
        for _ in range(10):
            v = inject_interface(rng.standard_normal(len(ds.gamma_nodes)), ds)
            w = inject_interface(rng.standard_normal(len(ds.gamma_nodes)), ds)
            # on continuous vectors the weighted product is the dot product of node values
            sv_w = np.dot(retract_interface(apply_interface_operator(state_2d55, v), ds),
                          retract_interface(w, ds))
            v_sw = np.dot(retract_interface(v, ds),
                          retract_interface(apply_interface_operator(state_2d55, w), ds))
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
            v_hat = rng.standard_normal(len(ds.gamma_nodes) * ds.block_dim)
            v = inject_interface(v_hat, ds)
            got = apply_interface_operator(state, v)
            want = inject_interface(sigma @ v_hat, ds)
            assert np.linalg.norm(got - want) <= 1e-12 * max(np.linalg.norm(want), 1.0)

    def test_drift_is_projected_and_counted(self, state_1d5):
        out = apply_interface_operator(state_1d5, np.array([2.0, 0.0]))
        assert np.allclose(out, apply_interface_operator(state_1d5, np.ones(2)), atol=1e-14)


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
        assert np.allclose(g, [1.0, 1.0])
        u_gamma, history, iters = solve_interface(state_1d5, g, SolveConfig())
        assert iters == 0 and history == []
        assert np.allclose(u_gamma, [1.5, 1.5], atol=1e-12)

    def test_zero_rhs(self, state_1d5):
        # neither the coarse space nor the preconditioner is built: no interior solve
        state_1d5.interior = CountingInterior(state_1d5.interior)
        u_gamma, history, iters = solve_interface(state_1d5, np.zeros(2), SolveConfig())
        assert iters == 0 and history == []
        assert np.all(u_gamma == 0.0)
        assert state_1d5.interior.calls == 0
        solve_interface(state_1d5, np.ones(2), SolveConfig())
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
        assert iters <= len(state_2d55.space.gamma_nodes)
        assert history[-1] <= 1e-10

    def test_cg_rejects_nonsymmetric(self, problem_1d5):
        matrix = OriginalMatrix(csr=problem_1d5.matrix.csr, symmetric=False)
        problem = ProblemInstance(matrix=matrix, rhs=problem_1d5.rhs,
                                  decomposition=problem_1d5.decomposition)
        state = setup_solver(problem)
        with pytest.raises(ConfigError, match="symmetric"):
            solve_interface(state, np.zeros(2), SolveConfig(krylov="cg"))

    def test_gmres_matches_cg_solution(self, state_2d55):
        g = interface_rhs(state_2d55)
        u_cg, _, _ = solve_interface(state_2d55, g, SolveConfig(krylov="cg"))
        u_gm, _, _ = solve_interface(state_2d55, g, SolveConfig(krylov="gmres"))
        assert np.allclose(u_cg, u_gm, atol=1e-8)


def block_problem_2d(n, boxes):
    """2D Poisson with two coupled components per node (block_dim 2)."""
    return block_problem(make_problem_2d(n, n, boxes, boxes))


def block_problem(base):
    """`base`'s matrix with two coupled components per node (block_dim 2)."""
    csr = sp.kron(base.matrix.csr, sp.csr_matrix([[2.0, -0.5], [-0.5, 3.0]]), format="csr")
    matrix = OriginalMatrix(csr=csr, block_dim=2, symmetric=True)
    rhs = np.random.default_rng(2).standard_normal(csr.shape[0])
    return ProblemInstance(matrix=matrix, rhs=rhs, decomposition=base.decomposition)


def assert_coarse_space_matches_dense_oracle(problem):
    """Z has one independent column per class and component and spans the per-subdomain
    columns; S Z and the LU of Z' S Z agree with the dense Schur complement."""
    dm = problem.decomposition
    d = problem.matrix.block_dim
    coarse = build_coarse_space(setup_solver(problem))
    gamma = dm.interface_nodes
    z_ref = np.kron(dm.incidence[gamma].toarray() / dm.multiplicity[gamma, None], np.eye(d))
    z = coarse.z.toarray()
    n_classes = len({dm.memberships[p] for p in gamma})
    assert z.shape[1] == n_classes * d == np.linalg.matrix_rank(z)
    # the columns follow the classes' subdomain sets in sorted order
    sets = sorted({dm.memberships[p] for p in gamma})
    of_node = [sets.index(dm.memberships[p]) for p in gamma]
    assert np.array_equal(z, np.kron(np.eye(n_classes)[of_node], np.eye(d)))
    assert np.linalg.matrix_rank(np.hstack([z_ref, z])) == z.shape[1]
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


# 29^2 over 16 Voronoi cells, multiplicity up to 4: 13 class colours and 11
# probe colours, so both builds end on a partial solve block with one component
# per node and with two
VORONOI_29 = make_problem_voronoi(29, 16, seed=2)


class TestCoarseSpace:
    @pytest.mark.parametrize("problem", [make_problem_1d(17, 4), make_problem_2d(9, 9, 2, 2),
                                         make_problem_2d(17, 17, 4, 4), block_problem_2d(17, 4),
                                         VORONOI_29, block_problem(VORONOI_29)],
                             ids=["1d17x4", "2d9x2", "2d17x4", "2d17x4_d2", "voronoi29",
                                  "voronoi29_d2"])
    def test_matches_dense_oracle(self, problem):
        # 17^2 / 4x4 boxes: 33 classes, the 24 edges and the 9 cross points
        assert_coarse_space_matches_dense_oracle(problem)

    @pytest.mark.parametrize("krylov", ["cg", "gmres"])
    @settings(max_examples=60, deadline=None)
    @given(problem=local_problems(), empty=st.booleans())
    def test_deflated_solve_matches_direct_on_random_partitions(self, krylov, problem, empty):
        # multiplicity 3, a subdomain without interior, block_dim 1 and 2, and
        # with `empty` a subdomain without nodes, which is in no class; GMRES
        # runs on the same interface-node values, undeflated
        if empty:
            problem = ProblemInstance(matrix=problem.matrix, rhs=problem.rhs,
                                      decomposition=with_empty_subdomain(problem.decomposition))
        assert_coarse_space_matches_dense_oracle(problem)
        _, report = solve_dvs(problem, SolveConfig(krylov=krylov, compare_direct=True))
        assert report.converged
        assert report.relative_error_vs_direct <= 1e-8

    def test_iterations_flat_in_subdomain_count(self):
        # H/h = 8 in both: 4x4 and 16x16 boxes take 13 and 16 (18 and 22 with one
        # coarse vector per subdomain; undeflated, unpreconditioned CG took 54 and 190)
        _, coarse = seeded_solve(33, 4)
        _, fine = seeded_solve(129, 16)
        assert fine.iterations <= 1.25 * coarse.iterations

    @pytest.mark.parametrize("shape, n_classes", [((129, 16), 705), ((257, 4), 33)],
                             ids=["129x16", "257x4"])
    def test_box_classes_are_edges_and_cross_points(self, shape, n_classes):
        # b x b boxes: 2b(b - 1) edges and (b - 1)^2 cross points; 8 colours of classes
        n, boxes = shape
        state = setup_solver(make_problem_2d(n, n, boxes, boxes))
        state.interior = CountingInterior(state.interior)
        coarse = build_coarse_space(state)
        assert coarse.z.shape[1] == n_classes
        assert state.interior.calls == 8

    def test_blocked_builds_match_single_column_solves_on_voronoi(self, monkeypatch):
        # 129^2 over 256 Voronoi cells: 1100 classes in 22 colours, solved in
        # blocks of 4, 4, 4, 4, 4 and 2 columns
        state = setup_solver(make_problem_voronoi(129, 256, seed=1))
        state.interior = CountingInterior(state.interior)
        coarse = build_coarse_space(state)
        assert coarse.z.shape[1] == 1100
        assert state.interior.calls == 22
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
    """The greedy first-fit colouring written with numpy slices, as the reference."""
    conflict = conflict.tocsr()
    colours = np.full(conflict.shape[0], -1)
    for a in range(len(colours)):
        taken = set(colours[conflict.indices[conflict.indptr[a]:conflict.indptr[a + 1]]].tolist())
        colours[a] = next(c for c in range(len(colours) + 1) if c not in taken)
    return colours


def class_incidence(dm):
    """Subdomain x class incidence: a class is the interface nodes of one subdomain set."""
    sets = sorted({dm.memberships[p] for p in dm.interface_nodes})
    cols = np.repeat(np.arange(len(sets)), [len(s) for s in sets])
    rows = np.concatenate(sets)
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(dm.n_subdomains, len(sets)))


def assert_rows_hold_distinct_colours(pattern, colours):
    for i in range(pattern.shape[0]):
        row = colours[pattern.indices[pattern.indptr[i]:pattern.indptr[i + 1]]]
        assert len(np.unique(row)) == len(row)


def assert_colourings_match_reference(problem):
    """The coarse space colours interface classes, the probe colours interface nodes.

    Classes of one colour share no subdomain; probe nodes of one colour share no row
    of the probe pattern.
    """
    state = setup_solver(problem)
    for pattern in (class_incidence(problem.decomposition), probe_pattern(state)):
        conflict = pattern.T @ pattern
        colours = _greedy_colours(conflict)
        assert np.array_equal(colours, reference_greedy_colours(conflict))
        assert_rows_hold_distinct_colours(pattern, colours)


class TestColouring:
    @pytest.mark.parametrize("shape", [(17, 4), (65, 8), (129, 16)], ids=["17x4", "65x8", "129x16"])
    def test_matches_reference_and_separates_every_row(self, shape):
        n, boxes = shape
        assert_colourings_match_reference(make_problem_2d(n, n, boxes, boxes))

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
    matrix = OriginalMatrix(csr=csr, symmetric=True)
    rhs = np.random.default_rng(seed + 1).standard_normal(n * n)
    return ProblemInstance(matrix=matrix, rhs=rhs,
                           decomposition=generate_box_partition(n, n, boxes, boxes))


def assert_probe_matches_dense_oracle(problem):
    """Probed entries are the colour sums of the dense Schur complement, on the pattern."""
    d = problem.matrix.block_dim
    state = setup_solver(problem)
    pattern = probe_pattern(state)
    # the node-level pattern of A_GG^2, with the diagonal
    gamma = flat_block_indices(problem.decomposition.interface_nodes, d)
    a_gg = np.abs(problem.matrix.csr.toarray()[np.ix_(gamma, gamma)])
    nodes = len(problem.decomposition.interface_nodes)
    one_step = a_gg.reshape(nodes, d, nodes, d).sum(axis=(1, 3)) + np.eye(nodes)
    assert np.array_equal(pattern.toarray() != 0, one_step @ one_step > 0)
    colours = _greedy_colours(pattern @ pattern)
    assert_rows_hold_distinct_colours(pattern, colours)
    sigma = dense_interface_operator(problem)
    # columns of sigma summed over each colour, per component
    sums = sigma @ np.kron(np.eye(colours.max() + 1)[colours], np.eye(d))
    mask = np.kron(pattern.toarray(), np.ones((d, d))) > 0
    expected = np.where(mask, sums[:, np.kron(colours, np.ones(d, int)) * d
                                   + np.tile(np.arange(d), len(colours))], 0.0)
    got = probe_interface_operator(state)
    assert np.all(got.toarray()[~mask] == 0.0)
    assert np.abs(got.toarray() - expected).max() <= 1e-12 * max(np.abs(sigma).max(), 1.0)


class TestProbe:
    @pytest.mark.parametrize("problem", [make_problem_1d(17, 4), make_problem_2d(17, 17, 4, 4),
                                         block_problem_2d(17, 4), VORONOI_29,
                                         block_problem(VORONOI_29)],
                             ids=["1d17x4", "2d17x4", "2d17x4_d2", "voronoi29", "voronoi29_d2"])
    def test_matches_dense_oracle(self, problem):
        assert_probe_matches_dense_oracle(problem)

    @settings(max_examples=40, deadline=None)
    @given(problem=local_problems(), empty=st.booleans())
    def test_matches_dense_oracle_on_random_partitions(self, problem, empty):
        # multiplicity 3, a subdomain without interior, block_dim 1 and 2, and
        # with `empty` a subdomain without nodes
        if empty:
            problem = ProblemInstance(matrix=problem.matrix, rhs=problem.rhs,
                                      decomposition=with_empty_subdomain(problem.decomposition))
        assert_probe_matches_dense_oracle(problem)

    def test_halves_iterations(self, monkeypatch):
        # 129^2 / 16x16 boxes, the many-small shape: 16 iterations, 30 without the probe
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
        with pytest.raises(ConvergenceError, match="breakdown.*preconditioner") as err:
            solve_dvs(make_problem_2d(17, 17, 4, 4), SolveConfig())
        assert err.value.phase == "interface"
        assert err.value.report is not None and not err.value.report.converged


class TestBackSubstitute:
    def test_closed_form_interiors(self, state_1d5):
        u_interior = back_substitute(state_1d5, np.array([1.5, 1.5]))
        # interior nodes sorted [0,1,3,4]
        assert np.allclose(u_interior, [0.5, 1.0, 1.0, 0.5], atol=1e-12)

    def test_zero_everything(self, problem_1d5):
        problem = ProblemInstance(matrix=problem_1d5.matrix, rhs=np.zeros(5),
                                  decomposition=problem_1d5.decomposition)
        state = setup_solver(problem)
        assert np.all(back_substitute(state, np.zeros(2)) == 0.0)

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
        symmetric=True,
    )
    dm = DecompositionMap.from_memberships([(0,), (0, 1), (1,)])
    return ProblemInstance(matrix=matrix, rhs=np.array([1.0, 0.0, 0.0]), decomposition=dm)


def voronoi_ones(n, k, seed):
    problem = make_problem_voronoi(n, k, seed)
    return ProblemInstance(matrix=problem.matrix, rhs=np.ones(n * n),
                           decomposition=problem.decomposition)


# box partitions, ids "boxes-n", then seeded Voronoi partitions of k cells
LADDER = [pytest.param(make_problem_2d(n, n, boxes, boxes), id=f"{boxes}-{n}")
          for boxes in (4, 8) for n in (33, 65)] + [
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

    def test_monotone_residual_history(self):
        _, report = solve_dvs(make_problem_2d(9, 9, 2, 2), SolveConfig())
        hist = report.residual_history
        assert all(hist[k + 1] <= 1.1 * hist[k] for k in range(len(hist) - 1))

    def test_constraint_maintained(self):
        _, report = solve_dvs(make_problem_2d(9, 9, 2, 2), SolveConfig())
        assert report.continuity_defect <= 1e-12

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

    def test_cg_breakdown_on_indefinite_operator(self):
        # SPD interiors, but negative interface diagonals: A is symmetric indefinite
        # and the interface operator is negative definite, so p'Ap < 0 at once
        base = make_problem_2d(9, 9, 2, 2)
        dm = base.decomposition
        csr = base.matrix.csr.tolil()
        for p in dm.interface_nodes:
            csr[p, p] = -4.0
        matrix = OriginalMatrix(csr=csr.tocsr(), symmetric=True)
        problem = ProblemInstance(matrix=matrix, rhs=base.rhs, decomposition=dm)
        eigs = np.linalg.eigvalsh(matrix.csr.toarray())
        assert eigs[0] < 0 < eigs[-1]
        with pytest.raises(ConvergenceError, match="breakdown") as err:
            solve_dvs(problem, SolveConfig())
        e = err.value
        assert e.phase == "interface"
        assert "gmres" in str(e)
        assert len(e.residual_history) <= e.report.config["max_iters"] // 100
        _, report = solve_dvs(problem, SolveConfig(krylov="gmres", compare_direct=True))
        assert report.relative_error_vs_direct <= 1e-8

    def test_gmres_breakdown_on_singular_interface_operator(self):
        with pytest.raises(ConvergenceError, match="gmres breakdown") as err:
            solve_dvs(singular_interface_problem(), SolveConfig(krylov="gmres"))
        e = err.value
        assert e.phase == "interface"
        assert e.report is not None and not e.report.converged

    def test_cg_breakdown_on_singular_interface_operator(self):
        # S = 0, so the coarse matrix Z'SZ = 0 cannot be factored
        with pytest.raises(ConvergenceError, match="cg breakdown") as err:
            solve_dvs(singular_interface_problem(), SolveConfig(krylov="cg"))
        e = err.value
        assert e.phase == "interface"
        assert "krylov='gmres'" in str(e)
        assert e.report is not None and not e.report.converged

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
        matrix = OriginalMatrix(csr=csr, symmetric=False)
        dm = generate_box_partition(5, 1, 2, 1)
        problem = ProblemInstance(matrix=matrix, rhs=np.ones(5), decomposition=dm)
        u_hat, report = solve_dvs(problem, SolveConfig(krylov="gmres", compare_direct=True))
        assert report.relative_error_vs_direct <= 1e-9
        with pytest.raises(ConfigError):
            solve_dvs(problem, SolveConfig(krylov="cg"))

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
        matrix = OriginalMatrix(csr=csr.tocsr(), block_dim=2, symmetric=True)
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
            "iterations", "converged", "final_original_residual", "duality_defect",
            "continuity_defect", "relative_error_vs_direct", "residual_history",
            "timings", "config",
        ])
        assert sorted(payload["timings"].keys()) == sorted([
            "setup_ms", "factor_ms", "interface_ms", "back_substitute_ms",
            "verify_ms", "total_ms",
        ])
        assert sorted(payload["config"].keys()) == sorted([
            "tol", "max_iters", "krylov", "compare_direct",
        ])


class TestVerifySolution:
    def test_converged_defects_small(self, problem_1d5):
        u_hat, report = solve_dvs(problem_1d5, SolveConfig())
        assert report.final_original_residual <= 1e-10
        assert report.duality_defect <= 1e-10
        assert report.continuity_defect <= 1e-10

    def test_corrupted_descendant_detected(self, problem_1d5):
        from edvs.solver import SolveReport

        state = setup_solver(problem_1d5)
        ds = state.space
        u = inject(np.array([0.5, 1.0, 1.5, 1.0, 0.5]), ds)
        u[3] += 1.0  # poison the second copy of node 2
        u_hat = np.array([0.5, 1.0, 2.0, 1.0, 0.5])  # retraction of the poisoned vector
        report = SolveReport()
        summary = verify_solution(problem_1d5, u_hat, u, report, ds)
        assert summary["duality_defect"] == pytest.approx(0.5, abs=1e-12)
        assert summary["continuity_defect"] > 0.0

    def test_zero_problem(self, problem_1d5):
        problem = ProblemInstance(matrix=problem_1d5.matrix, rhs=np.zeros(5),
                                  decomposition=problem_1d5.decomposition)
        u_hat, report = solve_dvs(problem, SolveConfig())
        assert np.all(u_hat == 0.0)
        assert report.final_original_residual == 0.0
        assert report.duality_defect == 0.0
        assert report.continuity_defect == 0.0
