import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import incidence_rows
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
        assert m.symmetric  # read from the values: `general` only names the storage
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
        m = ingest.OriginalMatrix(csr=csr)
        path = tmp_path_factory.mktemp("mm") / "rt.mtx"
        ingest.write_matrix(m, path)
        back = ingest.load_matrix(path)
        assert np.array_equal(back.csr.indptr, m.csr.indptr)
        assert np.array_equal(back.csr.indices, m.csr.indices)
        assert np.array_equal(back.csr.data, m.csr.data)
        assert back.symmetric == m.symmetric

    @pytest.mark.parametrize("partner", [False, True])
    def test_stored_zero_decides_symmetry_and_round_trips(self, tmp_path, partner):
        # a stored zero at (0, 1); with no partner at (1, 0) the values agree
        # with the transpose but the pattern does not
        rows, cols = [0, 0, 1] + [1] * partner, [0, 1, 1] + [0] * partner
        vals = [2.0, 0.0, 2.0] + [0.0] * partner
        csr = sp.coo_matrix((vals, (rows, cols)), shape=(2, 2)).tocsr()
        csr.sort_indices()
        m = ingest.OriginalMatrix(csr=csr)
        assert m.symmetric == partner
        path = tmp_path / "z.mtx"
        ingest.write_matrix(m, path)
        assert path.read_text().startswith(
            f"%%MatrixMarket matrix coordinate real {'symmetric' if partner else 'general'}\n")
        back = ingest.load_matrix(path)
        assert back.nnz == 3 + partner
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(back.csr, name), getattr(csr, name)), name
        assert back.symmetric == partner

    def test_symmetry_read_from_unsorted_duplicate_entries(self):
        # row 0 lists column 1 before column 0 and stores (0, 1) twice, as
        # 1.0 and 2.0; the duplicates are summed on a copy
        indptr, indices = np.array([0, 3, 5]), np.array([1, 0, 1, 0, 1])
        data = np.array([1.0, 4.0, 2.0, 3.0, 4.0])
        csr = sp.csr_matrix((data, indices, indptr), shape=(2, 2))
        assert ingest.OriginalMatrix(csr=csr).symmetric
        assert csr.indices.tolist() == indices.tolist() and csr.nnz == 5
        data[3] = 4.0  # (1, 0) no longer matches the sum at (0, 1)
        assert not ingest.OriginalMatrix(csr=sp.csr_matrix((data, indices, indptr),
                                                           shape=(2, 2))).symmetric

    def test_signed_zero_breaks_symmetry(self):
        # 0.0 at (0, 1) and -0.0 at (1, 0): symmetric storage would write one of them for both
        csr = sp.csr_matrix((np.array([1.0, 0.0, -0.0, 1.0]), np.array([0, 1, 0, 1]),
                             np.array([0, 2, 4])), shape=(2, 2))
        assert not ingest.OriginalMatrix(csr=csr).symmetric


class TestPartition:
    def test_load_1d_two_subdomains(self, tmp_path):
        path = tmp_path / "p.part"
        path.write_text("# 1D five nodes\n0 0\n1 0\n2 0\n2 1\n3 1\n4 1\n")
        dm = ingest.load_partition(path, 5)
        assert np.array_equal(dm.multiplicity, [1, 1, 2, 1, 1])
        assert set(dm.interior_nodes) == {0, 1, 3, 4}
        assert set(dm.interface_nodes) == {2}
        assert incidence_rows(dm)[2] == (0, 1)

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
        assert incidence_rows(back) == incidence_rows(dm)

    def test_center_node_multiplicity_four(self):
        dm = ingest.generate_box_partition(5, 5, 2, 2)
        assert dm.multiplicity[12] == 4  # center of the 5x5 grid
        hist = np.bincount(dm.multiplicity)
        assert hist[1] == 16 and hist[2] == 8 and hist[4] == 1


def _interior_interface(dm):
    """The (interior, interface) node sets, checked to partition the node set."""
    interior, interface = set(dm.interior_nodes.tolist()), set(dm.interface_nodes.tolist())
    assert interior | interface == set(range(dm.n_nodes))
    assert interior & interface == set()
    return interior, interface


class TestClassify:
    def test_mixed(self):
        dm = ingest.DecompositionMap.from_memberships([(0,), (0,), (0, 1), (1,), (1,)])
        interior, interface = _interior_interface(dm)
        assert interior == {0, 1, 3, 4}
        assert interface == {2}

    def test_single_subdomain_no_interface(self):
        dm = ingest.DecompositionMap.from_memberships([(0,)] * 4)
        interior, interface = _interior_interface(dm)
        assert interface == set()
        assert interior == set(range(4))

    def test_fully_overlapping_no_interior(self):
        dm = ingest.DecompositionMap.from_memberships([(0, 1)] * 3)
        interior, interface = _interior_interface(dm)
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
        m = ingest.OriginalMatrix(csr=sp.eye(5, format="csr"))
        dm = ingest.DecompositionMap.from_memberships([(0,), (0,), (1,), (1,), (1,)])
        assert ingest.validate_locality(m, dm).ok

    def test_node_pairs_of_unsorted_block_matrix_with_duplicates(self):
        # block_dim 2, 3 nodes; rows 0 and 1 list their columns out of order,
        # row 1 repeats column 3, and the stored zero at (4, 0) still couples
        # nodes 2 and 0
        indptr = np.array([0, 3, 6, 7, 8, 10, 11])
        indices = np.array([2, 0, 1, 3, 1, 3, 2, 3, 0, 4, 5])
        data = np.array([1.0, 4.0, 1.0, 2.0, 4.0, 5.0, 4.0, 4.0, 0.0, 4.0, 4.0])
        csr = sp.csr_matrix((data, indices, indptr), shape=(6, 6))
        p, q = ingest.node_pairs(ingest.OriginalMatrix(csr=csr, block_dim=2))
        assert csr.indptr.tolist() == indptr.tolist()  # the input is left as it was
        rows = np.repeat(np.arange(6), np.diff(indptr))
        expected = sorted({(r // 2, c // 2) for r, c in zip(rows, indices) if r // 2 != c // 2})
        assert list(zip(p.tolist(), q.tolist())) == expected == [(0, 1), (2, 0)]

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
        assert incidence_rows(dm) == ((0,), (0,), (0, 1), (1,), (1,))

    def test_box_partition_too_many_boxes(self):
        with pytest.raises(ValueError, match="boxes"):
            ingest.generate_box_partition(5, 1, 5, 1)

    def test_vector_roundtrip(self, tmp_path):
        v = np.array([1.0, -0.1, 3e-17, 2.5])
        path = tmp_path / "v.rhs"
        ingest.write_vector(v, path)
        assert np.array_equal(ingest.load_vector(path), v)

    @pytest.mark.parametrize("values", [
        np.random.default_rng(3).standard_normal(200) * 10.0 ** np.arange(-100, 100),
        np.array([-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e16, -1.5]),
        np.zeros(0),
    ], ids=["random", "signed-zero-subnormal", "empty"])
    def test_written_bytes_match_one_repr_per_line(self, tmp_path, values):
        path = tmp_path / "v.rhs"
        ingest.write_vector(values, path)
        want = "".join(f"{float(v)!r}\n" for v in values)
        assert path.read_bytes() == want.encode()

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(width=64), max_size=40))
    @example(values=[])
    @example(values=[np.copysign(np.nan, -1.0), np.inf, -0.0, 5e-324, 9999999999999998.0])
    def test_written_bytes_match_repr_for_any_doubles(self, tmp_path_factory, values):
        # NaN of either sign, infinities, subnormals and the empty vector
        path = tmp_path_factory.mktemp("vec") / "v.rhs"
        ingest.write_vector(np.array(values, dtype=np.float64), path)
        assert path.read_bytes() == "".join(f"{float(v)!r}\n" for v in values).encode()

    def test_written_matrix_bytes_match_one_repr_per_entry(self, tmp_path):
        rng = np.random.default_rng(5)
        csr = sp.random(30, 30, density=0.2, random_state=rng, format="csr")
        csr.data[:3] = [-0.0, 5e-324, 1e300]
        path = tmp_path / "m.mtx"
        ingest.write_matrix(ingest.OriginalMatrix(csr=csr), path)
        coo = csr.tocoo()
        order = np.lexsort((coo.col, coo.row))
        want = f"%%MatrixMarket matrix coordinate real general\n30 30 {coo.nnz}\n"
        want += "".join(f"{coo.row[k] + 1} {coo.col[k] + 1} {float(coo.data[k])!r}\n"
                        for k in order)
        assert path.read_bytes() == want.encode()


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
    assert np.array_equal(dm.multiplicity, [len(ms) for ms in incidence_rows(dm)])
    interior, interface = _interior_interface(dm)
    assert all(dm.multiplicity[p] == 1 for p in interior)
    assert all(dm.multiplicity[p] > 1 for p in interface)
    assert set(dm.incidence.tocoo().row.tolist()) == set(range(dm.n_nodes))


def _load_both(monkeypatch, load, bulk_name, line_name, *args):
    """(bulk result, line-parser result) of one loader on the same file.

    The bulk run replaces the line parser with a failing stub, so it proves
    that the bulk path accepted the file whole.
    """
    def refuse(*_):
        raise AssertionError("the bulk parse deferred to the line parser")

    line_parser = getattr(ingest, line_name)
    with monkeypatch.context() as m:
        m.setattr(ingest, line_name, refuse)
        bulk = load(*args)
    with monkeypatch.context() as m:
        m.setattr(ingest, bulk_name, lambda *_: None)
        m.setattr(ingest, line_name, line_parser)
        lines = load(*args)
    return bulk, lines


def _assert_same_csr(a, b):
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a.csr, name), getattr(b.csr, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert a.symmetric == b.symmetric


class TestBulkParse:
    COMMENTED_MTX = (
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "% a comment before the size line\n"
        "\n"
        "5 5 10  \n"
        "1 1 2.0\n"
        "2 1 -1.0   \n"
        "\n"
        "% a comment between entries\n"
        "   %   an indented comment\n"
        "2 2 2.0\n"
        "3 2 -0.1\t\n"
        "3 3 2.0\n"
        "4 3 -1e-300\n"
        "4 4 2.0\n"
        "5 4 -1.0\n"
        "5 5 2.0\n"
        "5 5 3e-17\n"   # a duplicate: the two values are summed in file order
    )

    def test_matrix_parity_with_comments_and_symmetric_storage(self, tmp_path, monkeypatch):
        path = tmp_path / "a.mtx"
        path.write_text(self.COMMENTED_MTX)
        bulk, lines = _load_both(monkeypatch, ingest.load_matrix, "_bulk_matrix_entries",
                                 "_parse_matrix_lines", path)
        _assert_same_csr(bulk, lines)
        assert bulk.nnz == 13 and bulk.csr[4, 4] == 2.0 + 3e-17

    def test_matrix_parity_general_roundtrip(self, tmp_path, monkeypatch):
        m = ingest.generate_poisson_2d(6, 5)
        m.csr.data[:] = np.random.default_rng(1).standard_normal(m.nnz)
        m = ingest.OriginalMatrix(csr=m.csr)
        assert not m.symmetric
        path = tmp_path / "a.mtx"
        ingest.write_matrix(m, path)
        bulk, lines = _load_both(monkeypatch, ingest.load_matrix, "_bulk_matrix_entries",
                                 "_parse_matrix_lines", path)
        _assert_same_csr(bulk, lines)
        assert np.array_equal(bulk.csr.data, m.csr.data)

    def test_partition_parity_with_comments(self, tmp_path, monkeypatch):
        path = tmp_path / "p.part"
        path.write_text("# header\n\n0 0  \n1 0 # trailing comment\n2 0\n2 1\t\n"
                        "   \n2 1\n3 1\n4 1\n# end\n")
        bulk, lines = _load_both(monkeypatch, ingest.load_partition, "_bulk_table",
                                 "_parse_partition_lines", path, 5)
        assert incidence_rows(bulk) == incidence_rows(lines) == ((0,), (0,), (0, 1), (1,), (1,))
        assert np.array_equal(bulk.incidence.indices, lines.incidence.indices)
        assert np.array_equal(bulk.incidence.indptr, lines.incidence.indptr)

    def test_vector_parity_with_comments(self, tmp_path, monkeypatch):
        path = tmp_path / "v.rhs"
        path.write_text("# rhs\n1.0\n\n-0.1   # comment\n 3e-17\n2.5\t\n-0.0\n1e308\n")
        bulk, lines = _load_both(monkeypatch, ingest.load_vector, "_bulk_table",
                                 "_parse_vector_lines", path)
        assert bulk.dtype == lines.dtype == np.float64
        assert bulk.shape == lines.shape == (6,)
        assert bulk.tobytes() == lines.tobytes()

    @pytest.mark.parametrize("line,match", [
        ("1.5 1 2.0", "line 4: cannot parse entry"),
        ("2.0 1 2.0", "line 4: cannot parse entry"),
        ("1 1 2.0 % inline", "line 4: expected 'i j value'"),
        ("1 1 nan", "line 4: NaN value"),
        ("3 1 1.0", r"line 4: index \(3, 1\) out of range"),
    ])
    def test_matrix_bad_entry_after_good_ones_names_its_line(self, tmp_path, line, match):
        path = tmp_path / "a.mtx"
        path.write_text(f"%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n{line}\n"
                        "2 2 1.0\n")
        with pytest.raises(MatrixFormatError, match=match):
            ingest.load_matrix(path)

    def test_matrix_infinity_round_trips(self, tmp_path):
        # duplicate entries that overflow sum to inf, which write_matrix writes out
        path = tmp_path / "a.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 inf\n")
        assert ingest.load_matrix(path).csr[0, 0] == np.inf

    @pytest.mark.parametrize("text,match", [
        ("0 0\n1 0\n2 x\n", "line 3: non-integer pair"),
        ("0 0\n1 0\n2 0 1\n", "line 3: expected 'node subdomain'"),
        ("0 0\n1 -1\n2 0\n", "line 2: negative subdomain id -1"),
        ("0 0\n1 0\n2 0\n3 0\n", r"line 4: node 3 out of range \[0, 3\)"),
        ("0 0\n1.0 0\n2 0\n", "line 2: non-integer pair"),
    ])
    def test_partition_errors_name_the_line(self, tmp_path, text, match):
        path = tmp_path / "p.part"
        path.write_text(text)
        with pytest.raises(PartitionError, match=match):
            ingest.load_partition(path, 3)

    @pytest.mark.parametrize("text,match", [
        ("0 0\n1 2\n2 3\n", r"line 3: subdomain id 3 out of range \[0, 3\)"),
        ("0 0\n1 3000000\n2 0\n", r"line 2: subdomain id 3000000 out of range \[0, 3\)"),
        ("0 0\n1 0\n2 99999999999999999999\n", "line 3: subdomain id 99999999999999999999"),
        ("0 0\n99999999999999999999 0\n2 0\n", "line 2: node 99999999999999999999 out of range"),
    ])
    def test_partition_ids_bounded_by_node_count(self, tmp_path, text, match):
        # storage grows with the largest id; an id past int64 must not leak OverflowError
        path = tmp_path / "p.part"
        path.write_text(text)
        with pytest.raises(PartitionError, match=match):
            ingest.load_partition(path, 3)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity", "1e999"])
    def test_vector_non_finite_names_the_line(self, tmp_path, bad):
        path = tmp_path / "v.rhs"
        path.write_text(f"1.0\n# comment\n{bad}\n2.0\n")
        with pytest.raises(MatrixFormatError, match="line 3: non-finite"):
            ingest.load_vector(path)

    def test_vector_bad_value_names_the_line(self, tmp_path):
        path = tmp_path / "v.rhs"
        path.write_text("1.0\n2.0 3.0\n")
        with pytest.raises(MatrixFormatError, match="line 2: cannot parse value"):
            ingest.load_vector(path)

    def test_empty_vector_file(self, tmp_path):
        path = tmp_path / "v.rhs"
        path.write_text("# nothing\n\n")
        v = ingest.load_vector(path)
        assert v.shape == (0,) and v.dtype == np.float64

    def test_write_partition_lists_every_pair(self, tmp_path):
        dm = ingest.generate_box_partition(3, 1, 2, 1)
        path = tmp_path / "p.part"
        ingest.write_partition(dm, path)
        assert path.read_text() == "0 0\n1 0\n1 1\n2 1\n"

    def test_write_partition_refuses_id_the_loader_rejects(self, tmp_path):
        # from_memberships accepts id 5 on 2 nodes; a file may not hold it
        dm = ingest.DecompositionMap.from_memberships([(0,), (5,)])
        path = tmp_path / "p.part"
        with pytest.raises(PartitionError, match=r"subdomain id 5 out of range \[0, 2\)"):
            ingest.write_partition(dm, path)
        assert not path.exists()
        # empty subdomains beyond the node count are not written, so they round-trip
        wide = ingest.DecompositionMap.from_memberships([(0,), (1,)], n_subdomains=9)
        ingest.write_partition(wide, path)
        assert incidence_rows(ingest.load_partition(path, 2)) == incidence_rows(wide)
