"""The incidence-matrix paths against brute-force references over frozensets.

The references below are the per-pair and per-entry loops the array code
replaced, and the binary-search placement of the owner split; the property
tests require exact agreement on random partitions (multiplicity up to 6,
empty subdomains, block_dim 1 to 3) and random patterns that include pairs
sharing no subdomain and stored zeros.  A 3D box partition with a node of
multiplicity 8 is one more, explicit, example.
"""
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import incidence_rows, make_problem_3d
from edvs import ingest
from edvs.derived import build_derived_space, flat_block_indices
from edvs.dual import build_dual_operator
from edvs.exceptions import LocalityError, PartitionError


@st.composite
def partitioned_patterns(draw):
    """(matrix, memberships, n_subdomains): a random pattern on a random decomposition."""
    n_subdomains = draw(st.integers(1, 8))
    n = draw(st.integers(1, 12))
    memberships = [
        draw(st.sets(st.integers(0, n_subdomains - 1), min_size=1, max_size=min(6, n_subdomains)))
        for _ in range(n)
    ]
    d = draw(st.integers(1, 3))
    entries = draw(st.lists(
        st.tuples(st.integers(0, n * d - 1), st.integers(0, n * d - 1),
                  st.sampled_from([0.0, 1.0, -2.5, 3.25])),
        max_size=60,
    ))
    rows = [r for r, _, _ in entries]
    cols = [c for _, c, _ in entries]
    vals = [v for _, _, v in entries]
    csr = sp.coo_matrix((vals, (rows, cols)), shape=(n * d, n * d)).tocsr()
    csr.sort_indices()
    return ingest.OriginalMatrix(csr=csr, block_dim=d), memberships, n_subdomains


# (matrix, memberships, n_subdomains) of 9^3 over 2x2x2 boxes: node (4, 4, 4) is in all 8
BOX_3D = make_problem_3d(9, 2)
MULTIPLICITY_8 = (BOX_3D.matrix, incidence_rows(BOX_3D.decomposition), 8)


def reference_locality_violations(matrix, memberships):
    d = matrix.block_dim
    coo = matrix.csr.tocoo()
    pairs = sorted({(int(r) // d, int(c) // d) for r, c in zip(coo.row, coo.col)})
    sets = [frozenset(ms) for ms in memberships]
    return [(p, q) for p, q in pairs if p != q and not sets[p] & sets[q]]


def reference_interior_coupling(matrix, memberships):
    d = matrix.block_dim
    coo = matrix.csr.tocoo()
    pairs = sorted({(int(r) // d, int(c) // d) for r, c in zip(coo.row, coo.col)})
    sets = [frozenset(ms) for ms in memberships]
    return [(p, q) for p, q in pairs
            if p != q and len(sets[p]) == 1 and len(sets[q]) == 1 and sets[p] != sets[q]]


def reference_owners(matrix, memberships):
    """{(row, col): lowest shared subdomain} per stored entry, or the first entry sharing none."""
    d = matrix.block_dim
    coo = matrix.csr.tocoo()
    sets = [frozenset(ms) for ms in memberships]
    owners = {}
    for r, c in zip(coo.row.tolist(), coo.col.tolist()):
        common = sets[r // d] & sets[c // d]
        if not common:
            return None, (r // d, c // d)
        owners[(r, c)] = min(common)
    return owners, None


@settings(max_examples=150, deadline=None)
@given(case=partitioned_patterns())
@example(case=MULTIPLICITY_8)
def test_validate_locality_matches_reference(case):
    matrix, memberships, n_subdomains = case
    dm = ingest.DecompositionMap.from_memberships(memberships, n_subdomains=n_subdomains)
    bad = reference_locality_violations(matrix, memberships)
    report = ingest.validate_locality(matrix, dm)
    assert report.ok == (not bad)
    assert report.n_violations == len(bad)
    assert report.violations == tuple(bad[:20])


@settings(max_examples=150, deadline=None)
@given(case=partitioned_patterns())
def test_interior_coupling_matches_reference(case):
    matrix, memberships, n_subdomains = case
    dm = ingest.DecompositionMap.from_memberships(memberships, n_subdomains=n_subdomains)
    assert ingest.interior_coupling_violations(matrix, dm) == reference_interior_coupling(
        matrix, memberships
    )


def reference_owner_split(matrix, memberships, ds):
    """(local, None) placed by binary search, or (None, the LocalityError text).

    Derived order is by subdomain, then node, so the derived position of
    (p, a) is the rank of the key a*N + p among the sorted keys of the space.
    """
    owners, offender = reference_owners(matrix, memberships)
    if offender is not None:
        return None, f"entry ({offender[0]}, {offender[1]}) couples nodes with no shared subdomain"
    d = matrix.block_dim
    n = len(memberships)
    coo = matrix.csr.tocoo()
    owner = np.array([owners[rc] for rc in zip(coo.row.tolist(), coo.col.tolist())],
                     dtype=np.int64)
    key = ds.subdomain_of * n + ds.node_of

    def derived_flat(flat):
        return np.searchsorted(key, owner * n + flat // d) * d + flat % d

    size = ds.derived_flat_size
    local = sp.coo_matrix((coo.data, (derived_flat(coo.row), derived_flat(coo.col))),
                          shape=(size, size)).tocsr()
    local.sort_indices()
    return local, None


@settings(max_examples=150, deadline=None)
@given(case=partitioned_patterns())
@example(case=MULTIPLICITY_8)
def test_split_owners_match_reference(case):
    matrix, memberships, n_subdomains = case
    dm = ingest.DecompositionMap.from_memberships(memberships, n_subdomains=n_subdomains)
    d = matrix.block_dim
    ds = build_derived_space(dm, block_dim=d)
    owners, offender = reference_owners(matrix, memberships)
    if offender is not None:
        with pytest.raises(LocalityError, match=rf"entry \({offender[0]}, {offender[1]}\)"):
            build_dual_operator(matrix, ds)
        return
    local = build_dual_operator(matrix, ds).local
    got = {}
    values = {}
    # subdomain a's slice is the diagonal block of `local` at its range
    for a, (start, stop) in enumerate(ds.subdomain_ranges):
        gather = flat_block_indices(ds.node_of[start:stop], d)
        coo = local[start * d:stop * d, start * d:stop * d].tocoo()
        for r, c, v in zip(gather[coo.row].tolist(), gather[coo.col].tolist(), coo.data.tolist()):
            assert (r, c) not in got
            got[(r, c)] = a
            values[(r, c)] = v
    assert got == owners
    csr = matrix.csr
    for (r, c), v in values.items():
        assert csr[r, c] == v


@settings(max_examples=150, deadline=None)
@given(case=partitioned_patterns())
@example(case=MULTIPLICITY_8)
def test_split_is_byte_identical_to_binary_search(case):
    matrix, memberships, n_subdomains = case
    dm = ingest.DecompositionMap.from_memberships(memberships, n_subdomains=n_subdomains)
    ds = build_derived_space(dm, block_dim=matrix.block_dim)
    expected, message = reference_owner_split(matrix, memberships, ds)
    if message is not None:
        with pytest.raises(LocalityError) as info:
            build_dual_operator(matrix, ds)
        assert str(info.value) == message
        return
    local = build_dual_operator(matrix, ds).local
    assert local.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(local, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    memberships=st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=6),
                         min_size=1, max_size=15),
    extra=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_from_pairs_equals_from_memberships(memberships, extra, seed):
    n_subdomains = max(max(ms) for ms in memberships) + 1 + extra
    expected = ingest.DecompositionMap.from_memberships(memberships, n_subdomains=n_subdomains)
    pairs = [(p, a) for p, ms in enumerate(memberships) for a in ms]
    rng = np.random.default_rng(seed)
    pairs = pairs + [pairs[k] for k in rng.integers(0, len(pairs), size=3)]  # repeats count once
    pairs = [pairs[k] for k in rng.permutation(len(pairs))]
    nodes, subs = np.array(pairs).T
    dm = ingest.DecompositionMap.from_pairs(nodes, subs, len(memberships), n_subdomains)
    assert dm.incidence.shape == expected.incidence.shape == (len(memberships), n_subdomains)
    assert np.array_equal(dm.incidence.indptr, expected.incidence.indptr)
    assert np.array_equal(dm.incidence.indices, expected.incidence.indices)
    assert incidence_rows(dm) == tuple(tuple(sorted(ms)) for ms in memberships)
    assert np.array_equal(dm.multiplicity, expected.multiplicity)
    assert np.array_equal(dm.interior_nodes, expected.interior_nodes)
    assert np.array_equal(dm.interface_nodes, expected.interface_nodes)


@pytest.mark.parametrize("memberships,n_subdomains,message", [
    ([], None, "empty node set"),
    ([(0,), (), (-1,)], None, "node 1 belongs to no subdomain"),
    ([(0,), (-2, -1, 0), ()], None, "node 1 has negative subdomain id -2"),
    ([(0,), (0, 3)], 3, r"subdomain id 3 out of range \[0, 3\)"),
])
def test_validation_errors_shared_by_both_constructors(memberships, n_subdomains, message):
    with pytest.raises(PartitionError, match=message):
        ingest.DecompositionMap.from_memberships(memberships, n_subdomains=n_subdomains)
    nodes = [p for p, ms in enumerate(memberships) for _ in ms]
    subs = [a for ms in memberships for a in ms]
    with pytest.raises(PartitionError, match=message):
        ingest.DecompositionMap.from_pairs(nodes, subs, len(memberships), n_subdomains)


def test_from_pairs_node_out_of_range():
    with pytest.raises(PartitionError, match=r"node 5 out of range \[0, 3\)"):
        ingest.DecompositionMap.from_pairs([0, 1, 5, 2], [0, 0, 0, 0], 3)


def test_incidence_is_csr_of_int8_ones():
    dm = ingest.generate_box_partition(5, 5, 2, 2)
    inc = dm.incidence
    assert inc.format == "csr" and inc.shape == (25, 4) and inc.dtype == np.int8
    assert np.all(inc.data == 1)
    assert inc.has_sorted_indices
    assert np.array_equal(inc.getnnz(axis=1), dm.multiplicity)


@pytest.mark.parametrize("nx,ny,px,py", [(1, 1, 1, 1), (5, 1, 2, 1), (9, 1, 4, 1),
                                         (7, 5, 3, 2), (9, 9, 4, 4), (17, 9, 4, 3)])
def test_box_partition_matches_interval_reference(nx, ny, px, py):
    def boxes(n, k):
        cuts = [int(round(b * (n - 1) / k)) for b in range(k + 1)]
        return [[b for b in range(k) if cuts[b] <= i <= cuts[b + 1]] for i in range(n)]

    xb, yb = boxes(nx, px), boxes(ny, py)
    expected = tuple(
        tuple(sorted(bj * px + bi for bj in yb[j] for bi in xb[i]))
        for j in range(ny) for i in range(nx)
    )
    dm = ingest.generate_box_partition(nx, ny, px, py)
    assert dm.n_subdomains == px * py
    assert incidence_rows(dm) == expected
