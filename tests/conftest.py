import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import strategies as st

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from edvs import ingest  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_problem_1d(n, boxes, rhs=None):
    matrix = ingest.generate_poisson_1d(n)
    dm = ingest.generate_box_partition(n, 1, boxes, 1)
    if rhs is None:
        rhs = np.ones(n)
    return ingest.ProblemInstance(matrix=matrix, rhs=np.asarray(rhs, float), decomposition=dm)


def make_problem_2d(nx, ny, bx, by, rhs=None):
    matrix = ingest.generate_poisson_2d(nx, ny)
    dm = ingest.generate_box_partition(nx, ny, bx, by)
    if rhs is None:
        rhs = np.ones(nx * ny)
    return ingest.ProblemInstance(matrix=matrix, rhs=np.asarray(rhs, float), decomposition=dm)


def make_problem_3d(n, boxes):
    """7-point Laplacian with rhs = 1 on an n^3 grid, split into boxes^3 closed boxes.

    A node on a cut plane belongs to every touching box, so a node where
    three cut planes cross has multiplicity 8.
    """
    line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = sp.identity(n)
    csr = (sp.kron(sp.kron(line, eye), eye) + sp.kron(sp.kron(eye, line), eye)
           + sp.kron(sp.kron(eye, eye), line)).tocsr()
    matrix = ingest.OriginalMatrix(csr=csr, block_dim=1)
    cuts = np.linspace(0, n - 1, boxes + 1).round().astype(np.int64)
    spans = [np.arange(lo, hi + 1) for lo, hi in zip(cuts[:-1], cuts[1:])]
    nodes, subdomains = [], []
    for a, (zs, ys, xs) in enumerate(itertools.product(spans, repeat=3)):
        block = ((zs[:, None, None] * n + ys[None, :, None]) * n + xs[None, None, :]).ravel()
        nodes.append(block)
        subdomains.append(np.full(block.size, a))
    dm = ingest.DecompositionMap.from_pairs(np.concatenate(nodes), np.concatenate(subdomains),
                                            n ** 3, n_subdomains=boxes ** 3)
    return ingest.ProblemInstance(matrix=matrix, rhs=np.ones(n ** 3), decomposition=dm)


def make_problem_voronoi(n, k, seed):
    """2D Poisson on an n x n grid over a seeded Voronoi partition of its cells.

    Each of the (n - 1)^2 cells goes to the nearest of k uniform random
    points, and a node joins the subdomain of every cell it is a corner of.
    Neighbouring nodes share a cell, so the partition is exactly local; a
    point nearest to no cell leaves its subdomain empty.  The rhs is seeded
    too.
    """
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, n - 1, size=(k, 2))
    cy, cx = np.divmod(np.arange((n - 1) ** 2), n - 1)
    centres = np.column_stack([cy, cx]) + 0.5
    owner = ((centres[:, None, :] - points[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
    corners = [(cy + dy) * n + cx + dx for dy in (0, 1) for dx in (0, 1)]
    dm = ingest.DecompositionMap.from_pairs(np.concatenate(corners), np.tile(owner, 4),
                                            n * n, n_subdomains=k)
    rhs = rng.standard_normal(n * n)
    return ingest.ProblemInstance(matrix=ingest.generate_poisson_2d(n, n), rhs=rhs,
                                  decomposition=dm)


@st.composite
def local_problems(draw, skew=False):
    """Random SPD problems on non-box partitions that satisfy locality.

    Four to seven subdomains, the last of which owns no interior node: it is
    only ever an extra membership.  Node 0 lies in subdomains 0, 1, 2 and the
    last (multiplicity 4).  Every other node has a home subdomain among the
    others and up to five extra memberships, so it lies in up to six
    subdomains; node 1 also lies in the last.  Each node has block_dim 1, 2
    or 3 components.  Each node pair sharing a subdomain is coupled with
    probability 1/2 by a random d x d block; the matrix is symmetric and
    strictly diagonally dominant, hence SPD.

    With `skew`, a random skew-symmetric part couples every node pair that
    shares a subdomain, so locality holds and the matrix is nonsymmetric
    (nodes 0 and 1 always share one).  Its symmetric part is still SPD, so
    A, A_II and the interface operator are nonsingular.
    """
    d = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(6, 14))
    n_subdomains = draw(st.integers(4, 7))
    last = n_subdomains - 1
    memberships = [{0, 1, 2, last}]
    for _ in range(1, n):
        home = draw(st.integers(0, last - 1))
        memberships.append({home} | draw(st.sets(st.integers(0, last), max_size=5)))
    memberships[1].add(last)
    dm = ingest.DecompositionMap.from_memberships(memberships, n_subdomains=n_subdomains)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = np.zeros((n * d, n * d))
    for p in range(n):
        for q in range(p, n):
            if (p == q or memberships[p] & memberships[q]) and rng.random() < 0.5:
                block = rng.standard_normal((d, d))
                dense[p * d:(p + 1) * d, q * d:(q + 1) * d] = block
                dense[q * d:(q + 1) * d, p * d:(p + 1) * d] = block.T
    dense = (dense + dense.T) / 2
    dense += np.diag(np.abs(dense).sum(axis=1) + 1.0)
    rhs = rng.standard_normal(n * d)
    if skew:
        upper = np.zeros_like(dense)
        for p in range(n):
            for q in range(p + 1, n):
                if memberships[p] & memberships[q]:
                    upper[p * d:(p + 1) * d, q * d:(q + 1) * d] = rng.standard_normal((d, d))
        dense += upper - upper.T
    matrix = ingest.OriginalMatrix(csr=sp.csr_matrix(dense), block_dim=d)
    return ingest.ProblemInstance(matrix=matrix, rhs=rhs, decomposition=dm)


def incidence_rows(dm):
    """Per node, the tuple of its subdomains: the rows of `dm.incidence`."""
    inc = dm.incidence
    return tuple(tuple(inc.indices[a:b].tolist()) for a, b in zip(inc.indptr[:-1], inc.indptr[1:]))


def with_empty_subdomain(dm):
    """The same memberships with an empty subdomain 1 inserted (ids >= 1 shift up by one)."""
    return ingest.DecompositionMap.from_memberships(
        [tuple(a + (a >= 1) for a in m) for m in incidence_rows(dm)],
        n_subdomains=dm.n_subdomains + 1,
    )


@pytest.fixture
def problem_1d5():
    """The 5-node tridiagonal case split in two subdomains sharing node 2."""
    rhs = np.zeros(5)
    rhs[2] = 1.0
    return make_problem_1d(5, 2, rhs=rhs)


def run_cli(args, cwd):
    """Run the CLI in a subprocess with the source tree on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "edvs", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
