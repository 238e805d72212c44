import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings

from conftest import incidence_rows, local_problems, with_empty_subdomain
from edvs.derived import (
    build_derived_space,
    continuity_defect,
    inject,
    norm_derived,
    project_zero_average,
    retract,
)
from edvs.dual import (
    CONTINUITY_TOL,
    apply_block,
    apply_dual,
    build_dual_operator,
    slices_sum,
)
from edvs.exceptions import ContinuityError, LocalityError
from edvs.ingest import (
    DecompositionMap,
    OriginalMatrix,
    generate_box_partition,
    generate_poisson_1d,
    generate_poisson_2d,
    interior_coupling_violations,
)

DM_1D5 = DecompositionMap.from_memberships([(0,), (0,), (0, 1), (1,), (1,)])


@pytest.fixture
def op_1d5():
    return build_dual_operator(generate_poisson_1d(5), build_derived_space(DM_1D5))


@pytest.fixture
def problem_2d():
    matrix = generate_poisson_2d(5, 5)
    dm = generate_box_partition(5, 5, 2, 2)
    ds = build_derived_space(dm)
    return matrix, dm, ds, build_dual_operator(matrix, ds)


def dense_dual(matrix, ds):
    """Oracle: the dual operator as an explicit matrix via injection/retraction."""
    from edvs.derived import injection_matrix, retraction_matrix

    return (injection_matrix(ds) @ matrix.csr @ retraction_matrix(ds)).toarray()


def diagonal_blocks(op):
    """Per subdomain, its nodes and its slice: the diagonal block of `op.local`."""
    ds = op.space
    d = ds.block_dim
    return [(ds.node_of[start:stop], op.local[start * d:stop * d, start * d:stop * d])
            for start, stop in ds.subdomain_ranges]


class TestSplit:
    def test_tie_goes_to_lowest_subdomain(self, op_1d5):
        (nodes0, s0), (nodes1, s1) = diagonal_blocks(op_1d5)
        assert nodes0.tolist() == [0, 1, 2]
        assert nodes1.tolist() == [2, 3, 4]
        # node 2's diagonal lives in slice 0; slice 1 keeps only its couplings to 3
        assert s0.toarray()[2, 2] == 2.0
        assert s1.toarray()[0, 0] == 0.0
        assert s1.toarray()[0, 1] == -1.0

    def test_slices_sum_to_original(self, problem_2d):
        matrix, _, _, op = problem_2d
        assert (slices_sum(op) != matrix.csr).nnz == 0

    def test_diagonal_matrix(self):
        dm = DecompositionMap.from_memberships([(0,), (0,), (1,), (1,)])
        m = OriginalMatrix(csr=sp.diags([1.0, 2.0, 3.0, 4.0]).tocsr())
        (_, s0), (_, s1) = diagonal_blocks(build_dual_operator(m, build_derived_space(dm)))
        assert np.allclose(s0.toarray(), np.diag([1.0, 2.0]))
        assert np.allclose(s1.toarray(), np.diag([3.0, 4.0]))

    def test_locality_violation_raises(self):
        dm = DecompositionMap.from_memberships([(0,), (0,), (1,), (1,), (1,)])
        with pytest.raises(LocalityError, match=r"entry \(1, 2\)"):
            build_dual_operator(generate_poisson_1d(5), build_derived_space(dm))


def reference_local(matrix, dm):
    """Brute force: per-subdomain slices filled entry by entry, stacked block-diagonally."""
    d = matrix.block_dim
    members = [set(m) for m in incidence_rows(dm)]
    groups = [[p for p, m in enumerate(members) if a in m] for a in range(dm.n_subdomains)]
    blocks = [np.zeros((len(g) * d, len(g) * d)) for g in groups]
    coo = matrix.csr.tocoo()
    for r, c, v in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()):
        p, q = r // d, c // d
        a = min(members[p] & members[q])
        rank = {node: k for k, node in enumerate(groups[a])}
        blocks[a][rank[p] * d + r % d, rank[q] * d + c % d] += v
    return sp.block_diag([sp.csr_matrix(b) for b in blocks], format="csr")


class TestOwnerSplitPlacement:
    @settings(max_examples=60, deadline=None)
    @given(problem=local_problems())
    def test_local_matches_brute_force(self, problem):
        matrix = problem.matrix
        for dm in (problem.decomposition, with_empty_subdomain(problem.decomposition)):
            ds = build_derived_space(dm, block_dim=matrix.block_dim)
            op = build_dual_operator(matrix, ds)
            assert op.local.shape == (ds.derived_flat_size, ds.derived_flat_size)
            assert (op.local != reference_local(matrix, dm)).nnz == 0
            total = slices_sum(op)
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(total, part), getattr(matrix.csr, part))
            # the diagonal blocks at `subdomain_ranges` hold every entry of `local`
            blocks = [block for _, block in diagonal_blocks(op)]
            assert len(blocks) == dm.n_subdomains
            assert sum(block.nnz for block in blocks) == op.local.nnz


class TestApplyDual:
    def test_unit_vector_oracle(self, op_1d5):
        # frozen from the dense oracle: column of the tridiagonal matrix at the
        # shared node, copied onto both descendants of node 2
        u = inject(np.array([0.0, 0, 1, 0, 0]), op_1d5.space)
        out = apply_dual(op_1d5, u)
        assert np.allclose(out, [0.0, -1.0, 2.0, 2.0, -1.0, 0.0], atol=1e-15)
        assert np.allclose(out, dense_dual(generate_poisson_1d(5), op_1d5.space) @ u, atol=1e-14)

    def test_identity_matrix_acts_as_identity(self, rng):
        m = OriginalMatrix(csr=sp.eye(5, format="csr"))
        op = build_dual_operator(m, build_derived_space(DM_1D5))
        u = inject(rng.standard_normal(5), op.space)
        assert np.allclose(apply_dual(op, u), u, atol=1e-15)

    def test_duality_preservation_random(self, problem_2d, rng):
        matrix, _, ds, op = problem_2d
        for _ in range(100):
            u_hat = rng.standard_normal(25)
            want = inject(matrix.csr @ u_hat, ds)
            got = apply_dual(op, inject(u_hat, ds))
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_result_stays_continuous(self, problem_2d, rng):
        _, _, ds, op = problem_2d
        out = apply_dual(op, inject(rng.standard_normal(25), ds))
        assert norm_derived(project_zero_average(out, ds), ds) <= 1e-12 * norm_derived(out, ds)

    def test_discontinuous_input_rejected(self, op_1d5):
        bad = np.zeros(6)
        bad[2] = 1.0
        with pytest.raises(ContinuityError):
            apply_dual(op_1d5, bad)

    def test_projection_flag(self, op_1d5):
        bad = np.zeros(6)
        bad[2] = 1.0  # projects to half on both copies of node 2
        half = inject(np.array([0.0, 0, 0.5, 0, 0]), op_1d5.space)
        assert np.allclose(apply_dual(op_1d5, bad, project=True),
                           apply_dual(op_1d5, half), atol=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(problem=local_problems())
    def test_matches_matvec_with_multiplicity_3(self, problem):
        for dm in (problem.decomposition, with_empty_subdomain(problem.decomposition)):
            ds = build_derived_space(dm, block_dim=problem.matrix.block_dim)
            assert ds.decomposition.multiplicity.max() >= 3
            op = build_dual_operator(problem.matrix, ds)
            rng = np.random.default_rng(11)
            for _ in range(3):
                u = inject(rng.standard_normal(ds.original_flat_size), ds)
                want = inject(problem.matrix.csr @ retract(u, ds), ds)
                got = apply_dual(op, u)
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def op_2d(block_dim):
    """17x17 Poisson on 4x4 boxes; at block_dim 2 two coupled components per node."""
    matrix = generate_poisson_2d(17, 17)
    if block_dim == 2:
        csr = sp.kron(matrix.csr, sp.csr_matrix([[2.0, -0.5], [-0.5, 3.0]]), format="csr")
        matrix = OriginalMatrix(csr=csr, block_dim=2)
    ds = build_derived_space(generate_box_partition(17, 17, 4, 4), block_dim=block_dim)
    return build_dual_operator(matrix, ds)


def with_defect(u, ds, ratio, rng):
    """u, continuous, plus a zero-average vector scaled to a defect of ratio * CONTINUITY_TOL."""
    w = project_zero_average(rng.standard_normal(ds.derived_flat_size), ds)
    return u + w * (ratio * CONTINUITY_TOL * norm_derived(u, ds) / norm_derived(w, ds))


class TestContinuityCheck:
    """The check and the product share one retraction; its verdicts and bytes are unchanged."""

    @pytest.mark.parametrize("block_dim", [1, 2])
    def test_rejects_twice_the_tolerance_with_the_defect_in_the_message(self, block_dim, rng):
        op = op_2d(block_dim)
        ds = op.space
        u = with_defect(inject(rng.standard_normal(ds.original_flat_size), ds), ds, 2.0, rng)
        defect = continuity_defect(u, ds)
        assert 1.9 * CONTINUITY_TOL < defect < 2.1 * CONTINUITY_TOL
        with pytest.raises(ContinuityError) as err:
            apply_dual(op, u)
        assert str(err.value) == (f"input has continuity defect {defect:.3e} > "
                                  f"{CONTINUITY_TOL:.1e}; pass project=True to project first")

    @pytest.mark.parametrize("block_dim", [1, 2])
    def test_accepts_half_the_tolerance(self, block_dim, rng):
        op = op_2d(block_dim)
        ds = op.space
        u = with_defect(inject(rng.standard_normal(ds.original_flat_size), ds), ds, 0.5, rng)
        assert 0.4 * CONTINUITY_TOL < continuity_defect(u, ds) < 0.6 * CONTINUITY_TOL
        assert apply_dual(op, u).tobytes() == apply_dual(op, u, project=True).tobytes()

    @pytest.mark.parametrize("block_dim", [1, 2])
    def test_continuous_input_bytes_match_the_two_retraction_formula(self, block_dim, rng):
        op = op_2d(block_dim)
        ds = op.space
        u = inject(rng.standard_normal(ds.original_flat_size), ds)
        local = op.local @ retract(u, ds)[ds.origin_flat]
        want = inject(np.bincount(ds.origin_flat, weights=local,
                                  minlength=ds.original_flat_size), ds)
        got = apply_dual(op, u)
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == apply_dual(op, u, project=True).tobytes()


class TestApplyBlock:
    def test_interior_block_matches_original(self, op_1d5):
        # interior derived order is [(0,0),(1,0),(3,1),(4,1)]; e1 selects node 1
        e1 = np.zeros(4)
        e1[1] = 1.0
        out = apply_block(op_1d5, "II", e1)
        assert out.tolist() == [-1.0, 2.0, 0.0, 0.0]

    def test_interface_block_single_node(self, op_1d5):
        pair = np.ones(2)
        assert apply_block(op_1d5, "GG", pair).tolist() == [2.0, 2.0]

    def test_reassembly_matches_apply_dual(self, problem_2d, rng):
        _, _, ds, op = problem_2d
        for _ in range(10):
            u_hat = rng.standard_normal(25)
            u = inject(u_hat, ds)
            u_i = u[ds.interior_positions]
            u_g = u[ds.gamma_positions]
            full = apply_dual(op, u)
            top = apply_block(op, "II", u_i) + apply_block(op, "IG", u_g)
            bottom = apply_block(op, "GI", u_i) + apply_block(op, "GG", u_g)
            assert np.linalg.norm(top - full[ds.interior_positions]) <= 1e-12 * np.linalg.norm(full)
            assert np.linalg.norm(bottom - full[ds.gamma_positions]) <= 1e-12 * np.linalg.norm(full)

    def test_unknown_block(self, op_1d5):
        with pytest.raises(ValueError, match="unknown block"):
            apply_block(op_1d5, "XX", np.zeros(4))

    def test_shape_mismatch(self, op_1d5):
        with pytest.raises(ValueError):
            apply_block(op_1d5, "II", np.zeros(6))


class TestInteriorBlockDiagonality:
    @pytest.mark.parametrize(
        "nx,ny,px,py", [(5, 1, 2, 1), (17, 1, 4, 1), (5, 5, 2, 2), (9, 9, 4, 4)]
    )
    def test_no_cross_subdomain_interior_coupling(self, nx, ny, px, py):
        matrix = generate_poisson_1d(nx) if ny == 1 else generate_poisson_2d(nx, ny)
        dm = generate_box_partition(nx, ny, px, py)
        assert interior_coupling_violations(matrix, dm) == []

    def test_slice_interiors_are_disjoint_blocks(self, problem_2d):
        # within the split, interior rows of one subdomain never touch another's
        matrix, dm, ds, op = problem_2d
        interior = set(dm.interior_nodes.tolist())
        rows = incidence_rows(dm)
        for nodes, block in diagonal_blocks(op):
            coo = block.tocoo()
            for r, c in zip(coo.row, coo.col):
                p, q = int(nodes[r]), int(nodes[c])
                if p in interior and q in interior and p != q:
                    assert rows[p] == rows[q]
