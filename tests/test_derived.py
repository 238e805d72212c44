import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edvs.derived import (
    build_derived_space,
    continuity_defect,
    inject,
    inner_derived,
    inner_original,
    injection_matrix,
    is_dual,
    project_continuous,
    project_zero_average,
    retract,
    retraction_matrix,
)
from conftest import incidence_rows
from edvs.ingest import DecompositionMap

DM_1D5 = DecompositionMap.from_memberships([(0,), (0,), (0, 1), (1,), (1,)])


@pytest.fixture
def ds_1d5():
    return build_derived_space(DM_1D5)


class TestBuild:
    def test_enumeration_1d(self, ds_1d5):
        assert ds_1d5.n_derived == 6
        pairs = list(zip(ds_1d5.node_of.tolist(), ds_1d5.subdomain_of.tolist()))
        assert pairs == [(0, 0), (1, 0), (2, 0), (2, 1), (3, 1), (4, 1)]
        assert ds_1d5.descendants(2).tolist() == [2, 3]
        # descendant groups partition the derived set
        seen = np.concatenate([ds_1d5.descendants(p) for p in range(5)])
        assert sorted(seen.tolist()) == list(range(6))

    def test_interior_interface_split(self, ds_1d5):
        # both copies of the shared node 2 are interface positions
        assert ds_1d5.interior_positions.tolist() == [0, 1, 4, 5]
        assert ds_1d5.gamma_positions.tolist() == [2, 3]
        assert ds_1d5.node_of[ds_1d5.interior_positions].tolist() == [0, 1, 3, 4]
        assert ds_1d5.node_of[ds_1d5.gamma_positions].tolist() == [2, 2]


class TestInnerProducts:
    def test_inner_original_examples(self):
        ones = np.ones(5)
        assert inner_original(ones, ones) == 5.0
        e2, e3 = np.eye(5)[2], np.eye(5)[3]
        assert inner_original(e2, e3) == 0.0
        assert inner_original(np.array([1.0, 2, 3, 4, 5]), np.array([1.0, 0, 0, 0, 1])) == 6.0

    def test_inner_derived_weighting(self, ds_1d5):
        z2 = np.zeros(6)
        z2[[2, 3]] = 1.0  # both copies of node 2
        assert inner_derived(z2, z2, ds_1d5) == pytest.approx(1.0, abs=1e-15)
        a = np.zeros(6)
        a[2] = 1.0
        b = np.zeros(6)
        b[3] = 1.0
        assert inner_derived(a, b, ds_1d5) == 0.0
        ones = np.ones(6)
        assert inner_derived(ones, ones, ds_1d5) == pytest.approx(5.0, abs=1e-15)

    def test_length_mismatch(self, ds_1d5):
        with pytest.raises(ValueError):
            inner_original(np.ones(4), np.ones(5))
        with pytest.raises(ValueError):
            inner_derived(np.ones(5), np.ones(6), ds_1d5)


class TestProjections:
    def test_average(self, ds_1d5):
        u = np.zeros(6)
        u[2], u[3] = 2.0, 4.0
        au = project_continuous(u, ds_1d5)
        assert au[2] == au[3] == 3.0
        assert np.all(au[[0, 1, 4, 5]] == 0.0)
        ju = project_zero_average(u, ds_1d5)
        assert ju[2] == -1.0 and ju[3] == 1.0

    def test_identity_on_continuous(self, ds_1d5, rng):
        u = inject(rng.standard_normal(5), ds_1d5)
        assert np.array_equal(project_continuous(u, ds_1d5), u)
        assert np.all(project_zero_average(u, ds_1d5) == 0.0)

    def test_zero_average_annihilated(self, ds_1d5):
        u = np.zeros(6)
        u[2], u[3] = 1.0, -1.0
        assert np.all(project_continuous(u, ds_1d5) == 0.0)

    def test_complement_sums_to_input(self, ds_1d5, rng):
        u = rng.standard_normal(6)
        assert np.allclose(project_continuous(u, ds_1d5) + project_zero_average(u, ds_1d5), u,
                           rtol=0, atol=1e-15)


class TestInjectRetract:
    def test_inject_copies(self, ds_1d5):
        u = inject(np.array([0.0, 0, 1, 0, 0]), ds_1d5)
        assert u.tolist() == [0, 0, 1, 1, 0, 0]
        assert np.all(inject(np.zeros(5), ds_1d5) == 0.0)

    def test_retract_averages(self, ds_1d5):
        u = np.zeros(6)
        u[2], u[3] = 2.0, 4.0
        assert retract(u, ds_1d5)[2] == 3.0

    def test_retract_inverts_inject(self, ds_1d5, rng):
        u_hat = rng.standard_normal(5)
        assert np.allclose(retract(inject(u_hat, ds_1d5), ds_1d5), u_hat, rtol=0, atol=1e-16)

    def test_retract_kills_zero_average(self, ds_1d5):
        u = np.zeros(6)
        u[2], u[3] = 1.0, -1.0
        assert np.all(retract(u, ds_1d5) == 0.0)

    def test_isometry(self, ds_1d5, rng):
        u_hat, v_hat = rng.standard_normal(5), rng.standard_normal(5)
        lhs = inner_derived(inject(u_hat, ds_1d5), inject(v_hat, ds_1d5), ds_1d5)
        assert lhs == pytest.approx(inner_original(u_hat, v_hat), rel=1e-14)


class TestIsDual:
    def test_injected_pair(self, ds_1d5, rng):
        u_hat = rng.standard_normal(5)
        assert is_dual(u_hat, inject(u_hat, ds_1d5), ds_1d5)

    def test_one_descendant_off(self, ds_1d5):
        u_hat = np.eye(5)[2]
        u = inject(u_hat, ds_1d5)
        u[3] = 0.999
        assert not is_dual(u_hat, u, ds_1d5, tol=1e-12)

    def test_zero_pair(self, ds_1d5):
        assert is_dual(np.zeros(5), np.zeros(6), ds_1d5)


class TestDenseReference:
    def test_matrices_realize_maps(self, ds_1d5, rng):
        inj = injection_matrix(ds_1d5)
        ret = retraction_matrix(ds_1d5)
        u_hat = rng.standard_normal(5)
        assert np.allclose(inj @ u_hat, inject(u_hat, ds_1d5))
        u = rng.standard_normal(6)
        assert np.allclose(ret @ u, retract(u, ds_1d5))
        # retraction is a left inverse of injection
        assert np.allclose((ret @ inj).toarray(), np.eye(5))

    def test_cap(self):
        dm = DecompositionMap.from_memberships([(0,)] * 3000)
        ds = build_derived_space(dm)
        with pytest.raises(ValueError, match="capped"):
            injection_matrix(ds)


# ---------------------------------------------------------------------------
# Property tests over random decompositions
# ---------------------------------------------------------------------------

@st.composite
def decomposition_spaces(draw, max_nodes=10, max_subdomains=4, block_dims=(1, 2)):
    n = draw(st.integers(1, max_nodes))
    e = draw(st.integers(1, max_subdomains))
    memberships = [draw(st.sets(st.integers(0, e - 1), min_size=1, max_size=e)) for _ in range(n)]
    d = draw(st.sampled_from(block_dims))
    dm = DecompositionMap.from_memberships(memberships, n_subdomains=e)
    return build_derived_space(dm, block_dim=d)


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(ds=decomposition_spaces(), seed=st.integers(0, 2**32 - 1))
def test_projection_invariants(ds, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(ds.derived_flat_size)
    v = rng.standard_normal(ds.derived_flat_size)
    au = project_continuous(u, ds)
    ju = project_zero_average(u, ds)
    nu = np.linalg.norm(u)
    # idempotence and complementarity
    assert np.linalg.norm(project_continuous(au, ds) - au) <= 1e-14 * max(nu, 1e-30)
    assert np.linalg.norm(project_zero_average(ju, ds) - ju) <= 1e-14 * max(nu, 1e-30)
    assert np.linalg.norm(au + ju - u) <= 1e-14 * max(nu, 1e-30)
    # orthogonality of the two subspaces in the weighted product
    av = project_continuous(v, ds)
    jv = project_zero_average(v, ds)
    bound = 1e-12 * max(np.linalg.norm(u) * np.linalg.norm(v), 1e-30)
    assert abs(inner_derived(au, jv, ds)) <= bound
    assert abs(inner_derived(ju, av, ds)) <= bound


@settings(max_examples=60, deadline=None)
@given(ds=decomposition_spaces(), seed=st.integers(0, 2**32 - 1))
def test_duality_invariants(ds, seed):
    rng = np.random.default_rng(seed)
    u_hat = rng.standard_normal(ds.original_flat_size)
    v_hat = rng.standard_normal(ds.original_flat_size)
    u = inject(u_hat, ds)
    v = inject(v_hat, ds)
    assert is_dual(u_hat, u, ds)
    assert continuity_defect(u, ds) <= 1e-14
    # isometry of the injection
    scale = max(np.linalg.norm(u_hat) * np.linalg.norm(v_hat), 1e-30)
    assert abs(inner_derived(u, v, ds) - inner_original(u_hat, v_hat)) <= 1e-12 * scale
    # retraction inverts injection
    assert np.linalg.norm(retract(u, ds) - u_hat) <= 1e-14 * max(np.linalg.norm(u_hat), 1e-30)


@settings(max_examples=60, deadline=None)
@given(ds=decomposition_spaces(), seed=st.integers(0, 2**32 - 1))
def test_continuous_group_sums(ds, seed):
    # every descendant group of a continuous vector sums to multiplicity times the value
    rng = np.random.default_rng(seed)
    u = inject(rng.standard_normal(ds.original_flat_size), ds)
    d = ds.block_dim
    view = u.reshape(ds.n_derived, d)
    for p in range(ds.n_original):
        group = ds.descendants(p)
        m = len(group)
        total = view[group].sum(axis=0)
        for beta in group:
            assert np.allclose(total, m * view[beta], rtol=1e-13, atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(ds=decomposition_spaces())
def test_classification_decomposes_derived_set(ds):
    interior = set(ds.interior_positions.tolist())
    gamma = set(ds.gamma_positions.tolist())
    assert interior | gamma == set(range(ds.n_derived)) and not interior & gamma
    mult_of = ds.decomposition.multiplicity[ds.node_of]
    assert np.all(mult_of[ds.interior_positions] == 1)
    assert np.all(mult_of[ds.gamma_positions] > 1)
    # the subdomain slices also decompose the derived set
    total = 0
    for start, stop in ds.subdomain_ranges:
        total += stop - start
    assert total == ds.n_derived


@settings(max_examples=60, deadline=None)
@given(ds=decomposition_spaces(), seed=st.integers(0, 2**32 - 1))
def test_derived_order_and_group_sums(ds, seed):
    dm = ds.decomposition
    # derived order is by subdomain, then node: the column-major order of `incidence`
    rows = incidence_rows(dm)
    pairs = sorted((a, p) for p, ms in enumerate(rows) for a in ms)
    assert list(zip(ds.subdomain_of.tolist(), ds.node_of.tolist())) == pairs
    sizes = [stop - start for start, stop in ds.subdomain_ranges]
    assert [start for start, _ in ds.subdomain_ranges] == np.cumsum([0] + sizes[:-1]).tolist()
    assert np.array_equal(np.repeat(np.arange(dm.n_subdomains), sizes), ds.subdomain_of)
    for p in range(ds.n_original):
        group = ds.descendants(p)
        assert np.all(ds.node_of[group] == p)
        assert ds.subdomain_of[group].tolist() == list(rows[p])
    # each group sum equals an unbuffered sequential scatter bit for bit
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(ds.derived_flat_size)
    want = np.zeros(ds.original_flat_size)
    np.add.at(want, ds.origin_flat, u)
    assert np.array_equal(retract(u, ds), want * ds.original_inv_mult_flat)
