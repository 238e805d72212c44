"""Original problem ingestion: sparse matrices, partitions, generators, locality checks.

A problem lives on N "original" nodes.  Each node belongs to one or more
closed subdomains; nodes with a single membership are interior, nodes shared
by several subdomains form the interface.  Everything downstream (derived
space, dual operator, solver) consumes the `OriginalMatrix` and the
`DecompositionMap` built here.  Whether a matrix is symmetric is read from
its values; a file's symmetry qualifier only says how the file stores them.
"""
from __future__ import annotations

import functools
import io
import itertools
import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .exceptions import LocalityError, MatrixFormatError, PartitionError


@dataclass(frozen=True, eq=False)
class DecompositionMap:
    """Node-to-subdomain memberships with multiplicities and the interior/interface split.

    The one stored representation is `incidence`, a sparse N x n_subdomains
    CSR matrix of int8 ones with sorted indices: row p holds the subdomains
    whose closure contains node p.  Everything else is derived from it once,
    on first use.

    Attributes:
        multiplicity: per node, the number of its subdomains (its row's length).
        home: per node, the first of its subdomains.
        interior_nodes / interface_nodes: sorted node ids with multiplicity == 1 / > 1.
    """

    incidence: sp.csr_matrix

    @property
    def n_nodes(self) -> int:
        return self.incidence.shape[0]

    @property
    def n_subdomains(self) -> int:
        return self.incidence.shape[1]

    @functools.cached_property
    def multiplicity(self) -> np.ndarray:
        return np.diff(self.incidence.indptr).astype(np.int64)

    @functools.cached_property
    def home(self) -> np.ndarray:
        """Per node, its lowest subdomain: for an interior node, its only one."""
        return self.incidence.indices[self.incidence.indptr[:-1]]

    @functools.cached_property
    def interior_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.multiplicity == 1)

    @functools.cached_property
    def interface_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.multiplicity > 1)

    def lowest_shared(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Per pair k, the lowest subdomain shared by nodes p[k] and q[k], -1 if none.

        Where the homes agree, that home is the answer; only the other pairs
        (those with an interface node, or a locality violation) have their
        incidence rows intersected.
        """
        lowest = self.home.take(p)
        rest = np.flatnonzero(lowest != self.home.take(q))
        shared = self.incidence[p[rest]].multiply(self.incidence[q[rest]]).tocsr()
        shared.sort_indices()
        found = np.diff(shared.indptr) > 0
        lowest[rest] = -1
        lowest[rest[found]] = shared.indices[shared.indptr[:-1][found]]
        return lowest

    @staticmethod
    def from_pairs(nodes, subdomains, n_nodes: int, n_subdomains=None) -> "DecompositionMap":
        """Build and validate a map from parallel arrays of (node, subdomain) memberships.

        Repeated pairs count once.  Raises PartitionError for an empty node
        set, a node out of range, a node in no subdomain, a negative
        subdomain id, or a subdomain id not below `n_subdomains`.
        """
        nodes = np.asarray(nodes, dtype=np.int64).ravel()
        subdomains = np.asarray(subdomains, dtype=np.int64).ravel()
        if nodes.shape != subdomains.shape:
            raise ValueError(f"{nodes.size} nodes but {subdomains.size} subdomain ids")
        n_nodes = int(n_nodes)
        if n_nodes == 0:
            raise PartitionError("empty node set")
        outside = (nodes < 0) | (nodes >= n_nodes)
        if outside.any():
            raise PartitionError(f"node {nodes[outside][0]} out of range [0, {n_nodes})")
        # the lowest offending node decides which of the two errors is raised
        covered = np.zeros(n_nodes, dtype=bool)
        covered[nodes] = True
        uncovered = np.flatnonzero(~covered)
        negative = subdomains < 0
        if uncovered.size or negative.any():
            first_negative = nodes[negative].min() if negative.any() else n_nodes
            if uncovered.size and uncovered[0] < first_negative:
                raise PartitionError(
                    f"node {uncovered[0]} belongs to no subdomain (coverage violated)"
                )
            lowest = subdomains[nodes == first_negative].min()
            raise PartitionError(f"node {first_negative} has negative subdomain id {lowest}")
        max_sub = int(subdomains.max())
        if n_subdomains is None:
            n_subdomains = max_sub + 1
        elif max_sub >= n_subdomains:
            raise PartitionError(f"subdomain id {max_sub} out of range [0, {n_subdomains})")
        # sorting the linear keys orders the pairs by node, then subdomain: CSR order
        keys = np.sort(nodes * n_subdomains + subdomains)
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]  # repeats count once
        rows, cols = np.divmod(keys, n_subdomains)
        indptr = np.zeros(n_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n_nodes), out=indptr[1:])
        incidence = sp.csr_matrix(
            (np.ones(cols.size, dtype=np.int8), cols, indptr), shape=(n_nodes, n_subdomains)
        )
        return DecompositionMap(incidence=incidence)

    @staticmethod
    def from_memberships(memberships, n_subdomains=None) -> "DecompositionMap":
        """Build and validate a map from an iterable of per-node subdomain collections."""
        mem = [[int(a) for a in ms] for ms in memberships]
        nodes = np.repeat(np.arange(len(mem), dtype=np.int64), [len(ms) for ms in mem])
        subdomains = np.fromiter(itertools.chain.from_iterable(mem), dtype=np.int64,
                                 count=nodes.size)
        return DecompositionMap.from_pairs(nodes, subdomains, len(mem), n_subdomains)


@dataclass(frozen=True, eq=False)
class OriginalMatrix:
    """Square sparse matrix over the original nodes, d scalar rows per node.

    `symmetric` is set at construction, from the values: whether the stored
    CSR equals its transpose entry for entry (see `_equals_transpose`).
    """

    csr: sp.csr_matrix
    block_dim: int = 1
    symmetric: bool = field(init=False)

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
        object.__setattr__(self, "symmetric", _equals_transpose(self.csr))

    @property
    def n_nodes(self) -> int:
        return self.csr.shape[0] // self.block_dim

    @property
    def nnz(self) -> int:
        return self.csr.nnz


def _equals_transpose(csr: sp.csr_matrix) -> bool:
    """Whether `csr` equals its transpose in pattern (stored zeros included) and bits.

    Duplicates are summed on a copy; the transpose comes out with sorted rows.
    """
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()
    t = csr.T.tocsr()
    return (np.array_equal(csr.indptr, t.indptr) and np.array_equal(csr.indices, t.indices)
            and csr.data.tobytes() == t.data.tobytes())


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A fully specified original problem: matrix, right-hand side, decomposition."""

    matrix: OriginalMatrix
    rhs: np.ndarray
    decomposition: DecompositionMap

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

    The header's symmetry qualifier only says whether to expand symmetric
    storage; `OriginalMatrix.symmetric` is read from the values.  The
    entries are parsed in bulk; a file the bulk parse does not accept whole
    goes through the line parser instead, which raises
    MatrixFormatError with the line number of the first bad line.  A NaN
    value is such an error.  An infinite value is not: duplicate entries
    that overflow sum to Inf, and write_matrix writes that Inf, which loading
    must read back.
    """
    with open(path, "r") as fh:
        n, nnz, symmetric, _ = _read_matrix_preamble(fh)
        entries = _bulk_matrix_entries(fh, n, nnz, symmetric)
    if entries is None:
        n, *entries = _parse_matrix_lines(path)
    rows, cols, vals = entries
    csr = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    csr.sort_indices()
    return OriginalMatrix(csr=csr, block_dim=block_dim)


def _read_matrix_preamble(fh):
    """Read the header and size lines; returns (n, nnz, symmetric, lines read)."""
    lineno = 0
    header = None
    for raw in iter(fh.readline, ""):
        lineno += 1
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

    for raw in iter(fh.readline, ""):
        lineno += 1
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise MatrixFormatError(f"expected 'rows cols nnz', got {stripped!r}", line_number=lineno)
        try:
            n_rows, n_cols, nnz = (int(t) for t in parts)
        except ValueError:
            raise MatrixFormatError(f"non-integer size line {stripped!r}", line_number=lineno)
        if n_rows != n_cols:
            raise MatrixFormatError(f"matrix is not square: {n_rows}x{n_cols}", line_number=lineno)
        return n_rows, nnz, symmetric, lineno
    raise MatrixFormatError("missing size line", line_number=lineno)


_MM_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])
# a '%' after other text on a line: the line parser rejects it, np.loadtxt would drop it
_INLINE_PERCENT = re.compile(r"^\s*[^%\s][^\n]*%", re.MULTILINE)


def _bulk_table(fh, dtype, comments, ndmin):
    """One np.loadtxt over the rest of `fh`; None when numpy cannot parse it."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "no data": callers check the size
            return np.loadtxt(fh, dtype=dtype, comments=comments, ndmin=ndmin)
    except ValueError:
        return None


def _bulk_matrix_entries(fh, n, nnz, symmetric):
    """Entries after the size line as (rows, cols, vals), or None to defer to the line parser.

    The order, symmetric mirrors included, is the line parser's, so duplicate
    entries sum in the same order and the assembled matrix is bit-identical.
    """
    body = fh.read()
    comments = None
    if "%" in body:
        if _INLINE_PERCENT.search(body):
            return None
        comments = "%"
    table = _bulk_table(io.StringIO(body), _MM_ENTRY, comments, 1)
    if table is None or len(table) != nnz:
        return None
    i, j, v = table["i"] - 1, table["j"] - 1, table["v"]
    if not (np.all((i >= 0) & (i < n) & (j >= 0) & (j < n)) and not np.isnan(v).any()):
        return None
    if not symmetric:
        return i, j, v
    keep = np.column_stack([np.ones(i.size, dtype=bool), i != j]).ravel()
    return (np.column_stack([i, j]).ravel()[keep], np.column_stack([j, i]).ravel()[keep],
            np.repeat(v, 2)[keep])


def _parse_matrix_lines(path):
    """Line-by-line parse into (n, rows, cols, vals); errors name the line."""
    with open(path, "r") as fh:
        n, nnz, symmetric, lineno = _read_matrix_preamble(fh)
        rows, cols, vals = [], [], []
        count = 0
        for lineno, raw in enumerate(fh, start=lineno + 1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("%"):
                continue
            parts = stripped.split()
            if len(parts) != 3:
                raise MatrixFormatError(f"expected 'i j value', got {stripped!r}", line_number=lineno)
            try:
                i, j = int(parts[0]) - 1, int(parts[1]) - 1
                v = float(parts[2])
            except ValueError:
                raise MatrixFormatError(f"cannot parse entry {stripped!r}", line_number=lineno)
            if not (0 <= i < n and 0 <= j < n):
                raise MatrixFormatError(f"index ({i + 1}, {j + 1}) out of range", line_number=lineno)
            if math.isnan(v):
                raise MatrixFormatError(f"NaN value in entry {stripped!r}", line_number=lineno)
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
                                line_number=lineno)
    return (n, np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
            np.array(vals, dtype=np.float64))


def write_matrix(matrix: OriginalMatrix, path) -> None:
    """Write a Matrix Market coordinate file.

    A symmetric matrix stores its lower triangle only, as `symmetric`;
    loading expands it back to the identical full pattern.  Values are
    written with repr() so that load(write(A)) is bit-exact.
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
    in [0, n_nodes) must appear at least once.  Subdomain ids lie in
    [0, n_nodes): storage grows with the largest id, and N nodes need at most
    N non-empty subdomains.  The pairs are parsed in bulk; a file the bulk
    parse does not accept whole (an id beyond int64 included) goes through
    the line parser, whose errors name the line.
    """
    with open(path, "r") as fh:
        table = _bulk_table(fh, np.int64, "#", 2)
    if (table is None or table.shape[1] != 2
            or np.any((table < 0) | (table >= n_nodes))):
        nodes, subdomains = _parse_partition_lines(path, n_nodes)
    else:
        nodes, subdomains = table[:, 0], table[:, 1]
    return DecompositionMap.from_pairs(nodes, subdomains, n_nodes)


def _parse_partition_lines(path, n_nodes: int):
    """Line-by-line parse into (nodes, subdomains) arrays; errors name the line."""
    nodes, subdomains = [], []
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
            if a >= n_nodes:
                raise PartitionError(
                    f"line {lineno}: subdomain id {a} out of range [0, {n_nodes}); "
                    f"{n_nodes} nodes need at most {n_nodes} subdomains"
                )
            nodes.append(p)
            subdomains.append(a)
    return np.array(nodes, dtype=np.int64), np.array(subdomains, dtype=np.int64)


def write_partition(dm: DecompositionMap, path) -> None:
    """Write one `node subdomain` line per membership.

    Raises PartitionError, before opening `path`, for a subdomain id that
    `load_partition` would reject: a file holds ids below the node count.
    """
    inc = dm.incidence
    if inc.nnz and inc.indices.max() >= dm.n_nodes:
        raise PartitionError(
            f"subdomain id {inc.indices.max()} out of range [0, {dm.n_nodes}) "
            "for a partition file"
        )
    nodes = np.repeat(np.arange(dm.n_nodes), np.diff(inc.indptr))
    with open(path, "w") as fh:
        np.savetxt(fh, np.column_stack([nodes, inc.indices]), fmt="%d")


def load_vector(path) -> np.ndarray:
    """Read one real per line ('#' comments and blank lines allowed).

    Parsed in bulk; a file the bulk parse does not accept whole goes through
    the line parser, which raises MatrixFormatError naming the first bad
    line.  A NaN or Inf value is such an error.
    """
    with open(path, "r") as fh:
        table = _bulk_table(fh, np.float64, "#", 2)
    if table is None or table.shape[1] != 1 or not np.all(np.isfinite(table)):
        return _parse_vector_lines(path)
    return table[:, 0]


def _parse_vector_lines(path) -> np.ndarray:
    """Line-by-line parse; errors name the line."""
    values = []
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            stripped = raw.split("#", 1)[0].strip()
            if not stripped:
                continue
            try:
                value = float(stripped)
            except ValueError:
                raise MatrixFormatError(f"cannot parse value {stripped!r}", line_number=lineno)
            if not math.isfinite(value):
                raise MatrixFormatError(f"non-finite value {stripped!r}", line_number=lineno)
            values.append(value)
    return np.array(values, dtype=np.float64)


def write_vector(values: np.ndarray, path) -> None:
    """One value per line, each as Python's shortest round-trip `repr` of the float."""
    values = np.asarray(values, dtype=np.float64)
    with open(path, "w") as fh:
        # each element is written as str() of its Python float, which is its repr
        values.tofile(fh, sep="\n")
        if values.size:
            fh.write("\n")


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


def node_pairs(matrix: OriginalMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The distinct off-diagonal node pairs (p, q) of the sparsity pattern, in (p, q) order.

    Explicitly stored zeros count as structural entries.
    """
    d = matrix.block_dim
    csr = matrix.csr
    n = matrix.n_nodes
    # node p's row holds the entries of scalar rows p*d .. p*d+d-1; the
    # copied indptr keeps sum_duplicates, which works in place, off `csr`
    pattern = sp.csr_matrix(
        (np.ones_like(csr.indices, dtype=np.int8), csr.indices // d, csr.indptr[::d].copy()),
        shape=(n, n),
    )
    pattern.sum_duplicates()  # also sorts each row's columns
    pattern = pattern.tocoo()
    off = pattern.row != pattern.col
    return pattern.row[off], pattern.col[off]


def validate_locality(matrix: OriginalMatrix, dm: DecompositionMap) -> LocalityReport:
    """Check that every structurally nonzero node pair shares a subdomain.

    Locality is what makes the interior operator block-diagonal by subdomain;
    a failing report blocks `solve_dvs`.
    """
    if matrix.n_nodes != dm.n_nodes:
        raise ValueError(f"matrix has {matrix.n_nodes} nodes, partition {dm.n_nodes}")
    p, q = node_pairs(matrix)
    bad = np.flatnonzero(dm.lowest_shared(p, q) < 0)
    shown = bad[:20]
    return LocalityReport(
        ok=bad.size == 0,
        n_violations=int(bad.size),
        violations=tuple(zip(p[shown].tolist(), q[shown].tolist())),
    )


def interior_coupling_violations(matrix: OriginalMatrix, dm: DecompositionMap) -> list[tuple[int, int]]:
    """Structural entries coupling interior nodes of two different subdomains.

    Empty for any matrix passing locality validation: the sparsity pattern of
    the interior-interior block is then block-diagonal by subdomain.
    """
    p, q = node_pairs(matrix)
    interior = dm.multiplicity == 1
    bad = interior[p] & interior[q] & (dm.home[p] != dm.home[q])
    return list(zip(p[bad].tolist(), q[bad].tolist()))


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
    return OriginalMatrix(csr=csr, block_dim=1)


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
    return OriginalMatrix(csr=csr, block_dim=1)


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
    nodes, boxes = [], []
    for bj in range(py):
        for bi in range(px):
            xs = np.arange(cx[bi], cx[bi + 1] + 1)
            ys = np.arange(cy[bj], cy[bj + 1] + 1)
            block = (ys[:, None] * nx + xs[None, :]).ravel()
            nodes.append(block)
            boxes.append(np.full(block.size, bj * px + bi))
    return DecompositionMap.from_pairs(
        np.concatenate(nodes), np.concatenate(boxes), nx * ny, n_subdomains=px * py
    )


def require_locality(matrix: OriginalMatrix, dm: DecompositionMap) -> None:
    """Raise LocalityError (listing offenders) when the locality check fails."""
    report = validate_locality(matrix, dm)
    if not report.ok:
        shown = ", ".join(f"({p},{q})" for p, q in report.violations)
        raise LocalityError(
            f"{report.n_violations} matrix entries couple nodes with no shared subdomain: {shown}"
        )
