"""Original problem ingestion: sparse matrices, partitions, generators, locality checks.

A problem lives on N "original" nodes.  Each node belongs to one or more
closed subdomains; nodes with a single membership are interior, nodes shared
by several subdomains form the interface.  Everything downstream (derived
space, dual operator, solver) consumes the `DecompositionMap` built here.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .exceptions import LocalityError, MatrixFormatError, PartitionError


@dataclass(frozen=True, eq=False)
class DecompositionMap:
    """Node-to-subdomain memberships with multiplicities and the interior/interface split.

    Attributes:
        memberships: per node, the sorted tuple of subdomains whose closure contains it.
        multiplicity: per node, the number of such subdomains (length of the tuple).
        interior_nodes / interface_nodes: sorted node ids with multiplicity == 1 / > 1.
        subdomain_nodes: per subdomain, the sorted array of member nodes.
    """

    n_nodes: int
    n_subdomains: int
    memberships: tuple[tuple[int, ...], ...]
    multiplicity: np.ndarray
    interior_nodes: np.ndarray
    interface_nodes: np.ndarray
    subdomain_nodes: tuple[np.ndarray, ...]

    @staticmethod
    def from_memberships(memberships, n_subdomains=None) -> "DecompositionMap":
        """Build and validate a map from an iterable of per-node subdomain collections."""
        mem = tuple(tuple(sorted(set(int(a) for a in ms))) for ms in memberships)
        n_nodes = len(mem)
        if n_nodes == 0:
            raise PartitionError("empty node set")
        for p, ms in enumerate(mem):
            if not ms:
                raise PartitionError(f"node {p} belongs to no subdomain (coverage violated)")
            if ms[0] < 0:
                raise PartitionError(f"node {p} has negative subdomain id {ms[0]}")
        max_sub = max(ms[-1] for ms in mem)
        if n_subdomains is None:
            n_subdomains = max_sub + 1
        elif max_sub >= n_subdomains:
            raise PartitionError(f"subdomain id {max_sub} out of range [0, {n_subdomains})")
        mult = np.array([len(ms) for ms in mem], dtype=np.int64)
        nodes = np.arange(n_nodes)
        per_sub = [[] for _ in range(n_subdomains)]
        for p, ms in enumerate(mem):
            for a in ms:
                per_sub[a].append(p)
        return DecompositionMap(
            n_nodes=n_nodes,
            n_subdomains=n_subdomains,
            memberships=mem,
            multiplicity=mult,
            interior_nodes=nodes[mult == 1],
            interface_nodes=nodes[mult > 1],
            subdomain_nodes=tuple(np.array(g, dtype=np.int64) for g in per_sub),
        )


def classify_original_nodes(dm: DecompositionMap) -> tuple[set, set]:
    """Return the (interior, interface) node-id pair; the two sets partition the node set."""
    interior = set(int(p) for p in dm.interior_nodes)
    interface = set(int(p) for p in dm.interface_nodes)
    return interior, interface


@dataclass(frozen=True, eq=False)
class OriginalMatrix:
    """Square sparse matrix over the original nodes, d scalar rows per node."""

    csr: sp.csr_matrix
    block_dim: int = 1
    symmetric: bool = False

    def __post_init__(self):
        rows, cols = self.csr.shape
        if rows != cols:
            raise MatrixFormatError(f"matrix is not square: {rows}x{cols}")
        if self.block_dim < 1:
            raise MatrixFormatError(f"block_dim must be >= 1, got {self.block_dim}")
        if rows % self.block_dim != 0:
            raise MatrixFormatError(
                f"matrix dimension {rows} not divisible by block_dim {self.block_dim}"
            )
        if self.symmetric:
            diff = self.csr - self.csr.T
            if diff.nnz and np.abs(diff.data).max() != 0.0:
                raise MatrixFormatError("symmetric flag set but stored values are not symmetric")

    @property
    def n_nodes(self) -> int:
        return self.csr.shape[0] // self.block_dim

    @property
    def nnz(self) -> int:
        return self.csr.nnz


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A fully specified original problem: matrix, right-hand side, decomposition."""

    matrix: OriginalMatrix
    rhs: np.ndarray
    decomposition: DecompositionMap
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.matrix.csr.shape[0]
        if self.rhs.shape != (n,):
            raise ValueError(f"rhs length {self.rhs.shape} does not match matrix dimension {n}")
        if self.decomposition.n_nodes != self.matrix.n_nodes:
            raise ValueError(
                f"partition covers {self.decomposition.n_nodes} nodes, "
                f"matrix has {self.matrix.n_nodes}"
            )
        # a NaN or Inf would otherwise surface only after the whole Krylov budget
        if not np.all(np.isfinite(self.matrix.csr.data)):
            raise MatrixFormatError("matrix has non-finite (NaN or Inf) entries")
        bad = np.flatnonzero(~np.isfinite(self.rhs))
        if bad.size:
            raise MatrixFormatError(
                f"rhs has {bad.size} non-finite (NaN or Inf) entries, the first at index {bad[0]}"
            )


# ---------------------------------------------------------------------------
# Matrix Market coordinate files (real, general or symmetric)
# ---------------------------------------------------------------------------

def load_matrix(path, block_dim: int = 1) -> OriginalMatrix:
    """Parse a Matrix Market coordinate file into an OriginalMatrix.

    Symmetric storage is expanded eagerly to full storage; the symmetric flag
    is retained.  Parse failures raise MatrixFormatError with the line number.
    """
    with open(path, "r") as fh:
        lines = fh.readlines()

    lineno = 0
    header = None
    for lineno, raw in enumerate(lines, start=1):
        if raw.strip():
            header = raw.strip()
            break
    if header is None:
        raise MatrixFormatError("empty file", line_number=1)
    if not header.startswith("%%MatrixMarket"):
        raise MatrixFormatError("missing %%MatrixMarket header", line_number=lineno)
    fields = header.lower().split()
    if len(fields) < 5 or fields[1] != "matrix" or fields[2] != "coordinate":
        raise MatrixFormatError(f"unsupported header {header!r}", line_number=lineno)
    if fields[3] != "real":
        raise MatrixFormatError(f"unsupported field type {fields[3]!r}", line_number=lineno)
    if fields[4] not in ("general", "symmetric"):
        raise MatrixFormatError(f"unsupported symmetry {fields[4]!r}", line_number=lineno)
    symmetric = fields[4] == "symmetric"

    size = None
    body_start = lineno
    for k in range(lineno, len(lines)):
        stripped = lines[k].strip()
        if not stripped or stripped.startswith("%"):
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise MatrixFormatError(f"expected 'rows cols nnz', got {stripped!r}", line_number=k + 1)
        try:
            size = tuple(int(t) for t in parts)
        except ValueError:
            raise MatrixFormatError(f"non-integer size line {stripped!r}", line_number=k + 1)
        body_start = k + 1
        break
    if size is None:
        raise MatrixFormatError("missing size line", line_number=len(lines))
    n_rows, n_cols, nnz = size
    if n_rows != n_cols:
        raise MatrixFormatError(f"matrix is not square: {n_rows}x{n_cols}", line_number=body_start)

    rows, cols, vals = [], [], []
    count = 0
    for k in range(body_start, len(lines)):
        stripped = lines[k].strip()
        if not stripped or stripped.startswith("%"):
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise MatrixFormatError(f"expected 'i j value', got {stripped!r}", line_number=k + 1)
        try:
            i, j = int(parts[0]) - 1, int(parts[1]) - 1
            v = float(parts[2])
        except ValueError:
            raise MatrixFormatError(f"cannot parse entry {stripped!r}", line_number=k + 1)
        if not (0 <= i < n_rows and 0 <= j < n_cols):
            raise MatrixFormatError(f"index ({i + 1}, {j + 1}) out of range", line_number=k + 1)
        rows.append(i)
        cols.append(j)
        vals.append(v)
        if symmetric and i != j:
            rows.append(j)
            cols.append(i)
            vals.append(v)
        count += 1
    if count != nnz:
        raise MatrixFormatError(f"header promises {nnz} entries, file has {count}",
                                line_number=len(lines))

    coo = sp.coo_matrix((vals, (rows, cols)), shape=(n_rows, n_cols))
    csr = coo.tocsr()
    csr.sort_indices()
    return OriginalMatrix(csr=csr, block_dim=block_dim, symmetric=symmetric)


def write_matrix(matrix: OriginalMatrix, path) -> None:
    """Write a Matrix Market coordinate file, keeping the symmetry qualifier.

    Symmetric matrices store the lower triangle only; loading expands it back
    to the identical full pattern.  Values are written with repr() so that
    load(write(A)) is bit-exact.
    """
    coo = matrix.csr.tocoo()
    keep = coo.row >= coo.col if matrix.symmetric else np.ones(coo.nnz, dtype=bool)
    rows, cols, data = coo.row[keep], coo.col[keep], coo.data[keep]
    order = np.lexsort((cols, rows))
    kind = "symmetric" if matrix.symmetric else "general"
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate real {kind}\n")
        fh.write(f"{coo.shape[0]} {coo.shape[1]} {len(data)}\n")
        for k in order:
            fh.write(f"{rows[k] + 1} {cols[k] + 1} {float(data[k])!r}\n")


# ---------------------------------------------------------------------------
# Partition and vector files
# ---------------------------------------------------------------------------

def load_partition(path, n_nodes: int) -> DecompositionMap:
    """Read `node_id subdomain_id` pairs; '#' comments and blank lines allowed.

    A node may appear on several lines (shared interface nodes).  Every node
    in [0, n_nodes) must appear at least once.
    """
    memberships = [set() for _ in range(n_nodes)]
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            stripped = raw.split("#", 1)[0].strip()
            if not stripped:
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise PartitionError(f"line {lineno}: expected 'node subdomain', got {stripped!r}")
            try:
                p, a = int(parts[0]), int(parts[1])
            except ValueError:
                raise PartitionError(f"line {lineno}: non-integer pair {stripped!r}")
            if not 0 <= p < n_nodes:
                raise PartitionError(f"line {lineno}: node {p} out of range [0, {n_nodes})")
            if a < 0:
                raise PartitionError(f"line {lineno}: negative subdomain id {a}")
            memberships[p].add(a)
    missing = [p for p, ms in enumerate(memberships) if not ms]
    if missing:
        raise PartitionError(f"node {missing[0]} belongs to no subdomain (coverage violated)")
    return DecompositionMap.from_memberships(memberships)


def write_partition(dm: DecompositionMap, path) -> None:
    with open(path, "w") as fh:
        for p, ms in enumerate(dm.memberships):
            for a in ms:
                fh.write(f"{p} {a}\n")


def load_vector(path) -> np.ndarray:
    """Read one real per line ('#' comments and blank lines allowed)."""
    values = []
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            stripped = raw.split("#", 1)[0].strip()
            if not stripped:
                continue
            try:
                values.append(float(stripped))
            except ValueError:
                raise MatrixFormatError(f"cannot parse value {stripped!r}", line_number=lineno)
    return np.array(values, dtype=np.float64)


def write_vector(values: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        for v in np.asarray(values, dtype=np.float64):
            fh.write(f"{float(v)!r}\n")


# ---------------------------------------------------------------------------
# Locality validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LocalityReport:
    """Outcome of checking that every matrix entry couples co-located nodes."""

    ok: bool
    n_violations: int
    violations: tuple[tuple[int, int], ...]  # at most 20 offending (row, col) node pairs

    def __bool__(self) -> bool:
        return self.ok


def validate_locality(matrix: OriginalMatrix, dm: DecompositionMap) -> LocalityReport:
    """Check that every structurally nonzero node pair shares a subdomain.

    Locality is what makes the interior operator block-diagonal by subdomain;
    a failing report blocks the parallel solve path.
    """
    if matrix.n_nodes != dm.n_nodes:
        raise ValueError(f"matrix has {matrix.n_nodes} nodes, partition {dm.n_nodes}")
    d = matrix.block_dim
    coo = matrix.csr.tocoo()
    pairs = np.unique(np.stack([coo.row // d, coo.col // d], axis=1), axis=0)
    sets = [frozenset(ms) for ms in dm.memberships]
    bad = []
    for p, q in pairs:
        if p != q and not (sets[p] & sets[q]):
            bad.append((int(p), int(q)))
    return LocalityReport(ok=not bad, n_violations=len(bad), violations=tuple(bad[:20]))


def interior_coupling_violations(matrix: OriginalMatrix, dm: DecompositionMap) -> list[tuple[int, int]]:
    """Structural entries coupling interior nodes of two different subdomains.

    Empty for any matrix passing locality validation: the sparsity pattern of
    the interior-interior block is then block-diagonal by subdomain.
    """
    d = matrix.block_dim
    coo = matrix.csr.tocoo()
    pairs = np.unique(np.stack([coo.row // d, coo.col // d], axis=1), axis=0)
    mult = dm.multiplicity
    bad = []
    for p, q in pairs:
        if p != q and mult[p] == 1 and mult[q] == 1:
            if dm.memberships[p][0] != dm.memberships[q][0]:
                bad.append((int(p), int(q)))
    return bad


# ---------------------------------------------------------------------------
# Desk-scale generators
# ---------------------------------------------------------------------------

def generate_poisson_1d(n: int) -> OriginalMatrix:
    """Tridiagonal [-1, 2, -1] stencil with Dirichlet ends eliminated."""
    if n < 1:
        raise ValueError("empty problem: n must be >= 1")
    main = np.full(n, 2.0)
    off = np.full(n - 1, -1.0)
    csr = sp.diags([off, main, off], [-1, 0, 1], format="csr")
    csr.sort_indices()
    return OriginalMatrix(csr=csr, block_dim=1, symmetric=True)


def generate_poisson_2d(nx: int, ny: int) -> OriginalMatrix:
    """5-point stencil, diagonal 4, row-major numbering, Dirichlet boundary eliminated."""
    if nx < 1 or ny < 1:
        raise ValueError("empty problem: nx and ny must be >= 1")
    n = nx * ny
    idx = np.arange(n)
    ix, iy = idx % nx, idx // nx
    rows = [idx]
    cols = [idx]
    vals = [np.full(n, 4.0)]
    for mask, shift in (
        (ix > 0, -1),
        (ix < nx - 1, +1),
        (iy > 0, -nx),
        (iy < ny - 1, +nx),
    ):
        rows.append(idx[mask])
        cols.append(idx[mask] + shift)
        vals.append(np.full(mask.sum(), -1.0))
    coo = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    csr = coo.tocsr()
    csr.sort_indices()
    return OriginalMatrix(csr=csr, block_dim=1, symmetric=True)


def _cut_positions(n: int, boxes: int) -> list[int]:
    """Node indices of the box boundaries: boxes+1 cuts from 0 to n-1."""
    if not 1 <= boxes <= n:
        raise ValueError(f"need 1 <= boxes <= {n}, got {boxes}")
    cuts = [int(round(k * (n - 1) / boxes)) for k in range(boxes + 1)]
    if boxes > 1 and any(cuts[k] >= cuts[k + 1] for k in range(boxes)):
        raise ValueError(f"{boxes} boxes over {n} nodes collapse to zero width; reduce boxes")
    return cuts


def generate_box_partition(nx: int, ny: int, px: int, py: int) -> DecompositionMap:
    """Closed-box partition of an nx-by-ny grid into px-by-py boxes.

    Boxes span node ranges between evenly spread cut lines; a node on a cut
    belongs to every touching box, so cut nodes get multiplicity 2 and cut
    crossings multiplicity 4.  Use ny = py = 1 for 1D grids.
    """
    cx = _cut_positions(nx, px)
    cy = _cut_positions(ny, py)

    def intervals(cuts, i):
        return [b for b in range(len(cuts) - 1) if cuts[b] <= i <= cuts[b + 1]]

    x_boxes = [intervals(cx, i) for i in range(nx)]
    y_boxes = [intervals(cy, j) for j in range(ny)]
    memberships = []
    for j in range(ny):
        for i in range(nx):
            memberships.append([bj * px + bi for bj in y_boxes[j] for bi in x_boxes[i]])
    return DecompositionMap.from_memberships(memberships, n_subdomains=px * py)


def require_locality(matrix: OriginalMatrix, dm: DecompositionMap) -> None:
    """Raise LocalityError (listing offenders) when the locality check fails."""
    report = validate_locality(matrix, dm)
    if not report.ok:
        shown = ", ".join(f"({p},{q})" for p, q in report.violations)
        raise LocalityError(
            f"{report.n_violations} matrix entries couple nodes with no shared subdomain: {shown}"
        )
