import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from edvs import ingest
from edvs.exceptions import MatrixFormatError, PartitionError

TRIDIAG_5 = """%%MatrixMarket matrix coordinate real general
5 5 13
1 1 2.0
1 2 -1.0
2 1 -1.0
2 2 2.0
2 3 -1.0
3 2 -1.0
3 3 2.0
3 4 -1.0
4 3 -1.0
4 4 2.0
4 5 -1.0
5 4 -1.0
5 5 2.0
"""

TRIDIAG_5_SYMMETRIC = """%%MatrixMarket matrix coordinate real symmetric
5 5 9
1 1 2.0
2 1 -1.0
2 2 2.0
3 2 -1.0
3 3 2.0
4 3 -1.0
4 4 2.0
5 4 -1.0
5 5 2.0
"""


class TestLoadMatrix:
    def test_tridiagonal_general(self, tmp_path):
        path = tmp_path / "a.mtx"
        path.write_text(TRIDIAG_5)
        m = ingest.load_matrix(path)
        assert m.csr.shape == (5, 5)
        assert m.nnz == 13
        assert not m.symmetric
        assert np.allclose(m.csr.toarray()[2], [0, -1, 2, -1, 0])

    def test_symmetric_expansion(self, tmp_path):
        path = tmp_path / "a.mtx"
        path.write_text(TRIDIAG_5_SYMMETRIC)
        m = ingest.load_matrix(path)
        assert m.nnz == 13  # 5 diagonal + 2*4 off-diagonal
        assert m.symmetric
        full = ingest.generate_poisson_1d(5).csr.toarray()
        assert np.array_equal(m.csr.toarray(), full)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "a.mtx"
        path.write_text("")
        with pytest.raises(MatrixFormatError, match="empty"):
            ingest.load_matrix(path)

    def test_bad_entry_reports_line_number(self, tmp_path):
        path = tmp_path / "a.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n1 x 2.0\n")
        with pytest.raises(MatrixFormatError, match="line 4"):
            ingest.load_matrix(path)

    def test_non_square(self, tmp_path):
        path = tmp_path / "a.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n")
        with pytest.raises(MatrixFormatError, match="not square"):
            ingest.load_matrix(path)

    def test_entry_count_mismatch(self, tmp_path):
        path = tmp_path / "a.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n")
        with pytest.raises(MatrixFormatError, match="promises 3"):
            ingest.load_matrix(path)

    def test_index_out_of_range(self, tmp_path):
        path = tmp_path / "a.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n")
        with pytest.raises(MatrixFormatError, match="out of range"):
            ingest.load_matrix(path)

    def test_roundtrip_bit_exact(self, tmp_path):
        m = ingest.generate_poisson_2d(4, 3)
        path = tmp_path / "rt.mtx"
        ingest.write_matrix(m, path)
        back = ingest.load_matrix(path)
        assert (back.csr != m.csr).nnz == 0
        assert np.array_equal(back.csr.data, m.csr.data)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 6),
        entries=st.lists(
            st.tuples(
                st.integers(0, 5),
                st.integers(0, 5),
                st.floats(allow_nan=False, allow_infinity=False, width=64),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_roundtrip_random(self, tmp_path_factory, n, entries):
        rows = [i % n for i, _, _ in entries]
        cols = [j % n for _, j, _ in entries]
        vals = [v for _, _, v in entries]
        csr = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        csr.sort_indices()
        m = ingest.OriginalMatrix(csr=csr, symmetric=False)
        path = tmp_path_factory.mktemp("mm") / "rt.mtx"
        ingest.write_matrix(m, path)
        back = ingest.load_matrix(path)
        assert np.array_equal(back.csr.indptr, m.csr.indptr)
        assert np.array_equal(back.csr.indices, m.csr.indices)
        assert np.array_equal(back.csr.data, m.csr.data)


class TestPartition:
    def test_load_1d_two_subdomains(self, tmp_path):
        path = tmp_path / "p.part"
        path.write_text("# 1D five nodes\n0 0\n1 0\n2 0\n2 1\n3 1\n4 1\n")
        dm = ingest.load_partition(path, 5)
        assert np.array_equal(dm.multiplicity, [1, 1, 2, 1, 1])
        assert set(dm.interior_nodes) == {0, 1, 3, 4}
        assert set(dm.interface_nodes) == {2}
        assert dm.memberships[2] == (0, 1)

    def test_missing_node_coverage_error(self, tmp_path):
        path = tmp_path / "p.part"
        path.write_text("0 0\n1 0\n2 0\n4 1\n")
        with pytest.raises(PartitionError, match="node 3"):
            ingest.load_partition(path, 5)

    def test_node_out_of_range(self, tmp_path):
        path = tmp_path / "p.part"
        path.write_text("0 0\n9 0\n")
        with pytest.raises(PartitionError, match="out of range"):
            ingest.load_partition(path, 5)

    def test_roundtrip(self, tmp_path):
        dm = ingest.generate_box_partition(5, 5, 2, 2)
        path = tmp_path / "p.part"
        ingest.write_partition(dm, path)
        back = ingest.load_partition(path, 25)
        assert back.memberships == dm.memberships

    def test_center_node_multiplicity_four(self):
        dm = ingest.generate_box_partition(5, 5, 2, 2)
        assert dm.multiplicity[12] == 4  # center of the 5x5 grid
        hist = np.bincount(dm.multiplicity)
        assert hist[1] == 16 and hist[2] == 8 and hist[4] == 1


class TestClassify:
    def test_mixed(self):
        dm = ingest.DecompositionMap.from_memberships([(0,), (0,), (0, 1), (1,), (1,)])
        interior, interface = ingest.classify_original_nodes(dm)
        assert interior == {0, 1, 3, 4}
        assert interface == {2}
        assert interior | interface == set(range(5))
        assert interior & interface == set()

    def test_single_subdomain_no_interface(self):
        dm = ingest.DecompositionMap.from_memberships([(0,)] * 4)
        interior, interface = ingest.classify_original_nodes(dm)
        assert interface == set()
        assert interior == set(range(4))

    def test_fully_overlapping_no_interior(self):
        dm = ingest.DecompositionMap.from_memberships([(0, 1)] * 3)
        interior, interface = ingest.classify_original_nodes(dm)
        assert interior == set()
        assert interface == set(range(3))


class TestLocality:
    def test_pass_1d(self):
        m = ingest.generate_poisson_1d(5)
        dm = ingest.generate_box_partition(5, 1, 2, 1)
        assert ingest.validate_locality(m, dm).ok

    def test_fail_disjoint_partition(self):
        m = ingest.generate_poisson_1d(5)
        dm = ingest.DecompositionMap.from_memberships([(0,), (0,), (1,), (1,), (1,)])
        report = ingest.validate_locality(m, dm)
        assert not report.ok
        assert (1, 2) in report.violations

    def test_diagonal_always_passes(self):
        m = ingest.OriginalMatrix(csr=sp.eye(5, format="csr"), symmetric=True)
        dm = ingest.DecompositionMap.from_memberships([(0,), (0,), (1,), (1,), (1,)])
        assert ingest.validate_locality(m, dm).ok

    @pytest.mark.parametrize("nx,ny,px,py", [(5, 1, 2, 1), (9, 1, 4, 1), (5, 5, 2, 2), (9, 9, 4, 4)])
    def test_generated_combinations_pass(self, nx, ny, px, py):
        m = ingest.generate_poisson_1d(nx) if ny == 1 else ingest.generate_poisson_2d(nx, ny)
        dm = ingest.generate_box_partition(nx, ny, px, py)
        assert ingest.validate_locality(m, dm).ok
        assert ingest.interior_coupling_violations(m, dm) == []


class TestGenerators:
    def test_poisson_1d_pattern(self):
        m = ingest.generate_poisson_1d(5)
        assert m.nnz == 13
        assert np.allclose(m.csr.toarray()[2], [0, -1, 2, -1, 0])

    def test_poisson_1d_single_node(self):
        m = ingest.generate_poisson_1d(1)
        assert m.csr.toarray().tolist() == [[2.0]]

    def test_poisson_1d_empty_error(self):
        with pytest.raises(ValueError, match="empty"):
            ingest.generate_poisson_1d(0)

    def test_poisson_1d_n3_direct_solve(self):
        # oracle: dense direct solve of the 3x3 system
        m = ingest.generate_poisson_1d(3)
        u = np.linalg.solve(m.csr.toarray(), np.array([0.0, 1.0, 0.0]))
        assert np.allclose(u, [0.5, 1.0, 0.5], atol=1e-14)

    def test_poisson_2d_center_row(self):
        m = ingest.generate_poisson_2d(3, 3)
        row = m.csr.toarray()[4]
        assert row[4] == 4.0
        assert sorted(np.nonzero(row)[0].tolist()) == [1, 3, 4, 5, 7]

    def test_poisson_2d_degenerate_1d(self):
        m = ingest.generate_poisson_2d(3, 1)
        assert np.allclose(m.csr.toarray(), [[4, -1, 0], [-1, 4, -1], [0, -1, 4]])

    def test_poisson_2d_2x2_count(self):
        m = ingest.generate_poisson_2d(2, 2)
        assert m.nnz == 12

    def test_poisson_2d_empty_error(self):
        with pytest.raises(ValueError, match="empty"):
            ingest.generate_poisson_2d(0, 3)

    def test_box_partition_single_box(self):
        dm = ingest.generate_box_partition(7, 3, 1, 1)
        assert np.all(dm.multiplicity == 1)

    def test_box_partition_1d(self):
        dm = ingest.generate_box_partition(5, 1, 2, 1)
        assert dm.memberships == ((0,), (0,), (0, 1), (1,), (1,))

    def test_box_partition_too_many_boxes(self):
        with pytest.raises(ValueError, match="boxes"):
            ingest.generate_box_partition(5, 1, 5, 1)

    def test_vector_roundtrip(self, tmp_path):
        v = np.array([1.0, -0.1, 3e-17, 2.5])
        path = tmp_path / "v.rhs"
        ingest.write_vector(v, path)
        assert np.array_equal(ingest.load_vector(path), v)


class TestProblemInstance:
    @pytest.mark.parametrize("where", ["rhs", "matrix"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, where, bad):
        matrix = ingest.generate_poisson_1d(5)
        rhs = np.ones(5)
        if where == "rhs":
            rhs[3] = bad
        else:
            matrix.csr.data[0] = bad
        dm = ingest.generate_box_partition(5, 1, 2, 1)
        with pytest.raises(MatrixFormatError, match="non-finite"):
            ingest.ProblemInstance(matrix=matrix, rhs=rhs, decomposition=dm)


@settings(max_examples=40, deadline=None)
@given(
    memberships=st.lists(
        st.sets(st.integers(0, 3), min_size=1, max_size=4), min_size=1, max_size=12
    )
)
def test_decomposition_invariants(memberships):
    dm = ingest.DecompositionMap.from_memberships(memberships)
    assert np.array_equal(dm.multiplicity, [len(ms) for ms in dm.memberships])
    interior, interface = ingest.classify_original_nodes(dm)
    assert interior | interface == set(range(dm.n_nodes))
    assert interior & interface == set()
    covered = set()
    for nodes in dm.subdomain_nodes:
        covered.update(int(p) for p in nodes)
    assert covered == set(range(dm.n_nodes))
