"""Each dense routine of edvs.schur takes one SVD per distinct matrix it factors."""
import numpy as np
import pytest

from edvs.schur import IndexSplit, block_pseudo_inverse, schur_complement, solve_via_schur


@pytest.fixture
def svd_inputs(monkeypatch):
    """The matrices passed to np.linalg.svd from now on, copied."""
    inputs = []
    real = np.linalg.svd

    def counting(a, *args, **kwargs):
        inputs.append(np.array(a, copy=True))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return inputs


def distinct(matrices):
    kept = []
    for a in matrices:
        if not any(a.shape == b.shape and np.array_equal(a, b) for b in kept):
            kept.append(a)
    return kept


def spd(size, seed):
    a = np.random.default_rng(seed).standard_normal((size, size))
    return a @ a.T + size * np.eye(size)


COVERING = IndexSplit(m_set=(0, 1), n_set=(2, 3))


def zero_last_row_and_column(b):
    """b with its last row and column zeroed: a null vector there, so a split may leave it out."""
    b = b.copy()
    b[-1] = 0.0
    b[:, -1] = 0.0
    return b


@pytest.mark.parametrize("routine, n_svds", [
    (lambda b, split: solve_via_schur(b, b @ np.arange(1.0, 5.0), split), 3),  # B_MM, Sigma, B
    (block_pseudo_inverse, 2),                                                  # B_MM, Sigma
    (schur_complement, 1),                                                      # B_MM
], ids=["solve_via_schur", "block_pseudo_inverse", "schur_complement"])
def test_one_svd_per_matrix_on_a_covering_split(svd_inputs, routine, n_svds):
    routine(spd(4, 1), COVERING)
    assert len(svd_inputs) == len(distinct(svd_inputs)) == n_svds


@pytest.mark.parametrize("routine, n_svds", [
    (lambda b, split: solve_via_schur(b, b @ np.arange(1.0, 5.0), split), 3),  # B, B_MM, Sigma
    (block_pseudo_inverse, 3),                                                  # B, B_MM, Sigma
    (schur_complement, 2),                                                      # B, B_MM
], ids=["solve_via_schur", "block_pseudo_inverse", "schur_complement"])
def test_one_svd_per_matrix_when_the_split_leaves_an_index_out(svd_inputs, routine, n_svds):
    # the containment check factors B; solve_via_schur's final projection reuses it
    routine(zero_last_row_and_column(spd(4, 2)), IndexSplit(m_set=(0, 1), n_set=(2,)))
    assert len(svd_inputs) == len(distinct(svd_inputs)) == n_svds
