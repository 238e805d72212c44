"""Command-line front end: problem generation, solving, verification, inspection.

Machine-readable JSON goes to stdout, human diagnostics to stderr.
Exit codes: 0 success/converged, 1 input or configuration error, 2 non-convergence.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import ingest
from .exceptions import ConfigError, ConvergenceError, EdvsError
from .solver import SolveConfig, solve_dvs

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NO_CONVERGENCE = 2


def _parse_boxes(text: str) -> tuple[int, int]:
    """'4' -> (4, 1); '2x2' -> (2, 2)."""
    if "x" in text.lower():
        a, b = text.lower().split("x", 1)
        return int(a), int(b)
    return int(text), 1


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _delta_rhs(k: int, n: int) -> np.ndarray:
    """The unit vector at entry k of length n, for --rhs-delta K."""
    if not 0 <= k < n:
        raise ConfigError(f"--rhs-delta {k} out of range [0, {n})")
    rhs = np.zeros(n)
    rhs[k] = 1.0
    return rhs


def _multiplicity_histogram(dm: ingest.DecompositionMap) -> dict:
    """{"m": number of nodes in m subdomains}, by ascending m, for the m that occur."""
    counts = np.bincount(dm.multiplicity)
    return {str(m): int(c) for m, c in enumerate(counts) if c}


def cmd_generate(args) -> int:
    if args.kind == "poisson1d":
        matrix = ingest.generate_poisson_1d(args.n)
        px, py = _parse_boxes(args.boxes)
        if py != 1:
            raise ConfigError("poisson1d takes a single box count")
        dm = ingest.generate_box_partition(args.n, 1, px, 1)
        n = args.n
    else:
        matrix = ingest.generate_poisson_2d(args.nx, args.ny)
        px, py = _parse_boxes(args.boxes)
        dm = ingest.generate_box_partition(args.nx, args.ny, px, py)
        n = args.nx * args.ny
    rhs = np.ones(n) if args.rhs_delta is None else _delta_rhs(args.rhs_delta, n)

    prefix = args.out_prefix or args.kind
    paths = {
        "matrix": f"{prefix}.mtx",
        "partition": f"{prefix}.part",
        "rhs": f"{prefix}.rhs",
    }
    ingest.write_matrix(matrix, paths["matrix"])
    ingest.write_partition(dm, paths["partition"])
    ingest.write_vector(rhs, paths["rhs"])
    _emit({
        "generated": paths,
        "n_nodes": n,
        "nnz": matrix.nnz,
        "n_subdomains": dm.n_subdomains,
    })
    return EXIT_OK


def _load_problem(args) -> ingest.ProblemInstance:
    matrix = ingest.load_matrix(args.matrix)
    dm = ingest.load_partition(args.partition, matrix.n_nodes)
    n = matrix.csr.shape[0]
    if args.rhs_delta is not None:
        rhs = _delta_rhs(args.rhs_delta, n)
    elif args.rhs is not None:
        rhs = ingest.load_vector(args.rhs)
        if rhs.shape != (n,):
            raise ConfigError(f"rhs file has {rhs.shape[0]} values, matrix needs {n}")
    else:
        raise ConfigError("provide --rhs FILE or --rhs-delta K")
    return ingest.ProblemInstance(matrix=matrix, rhs=rhs, decomposition=dm)


def cmd_solve(args) -> int:
    problem = _load_problem(args)
    cfg = SolveConfig(
        tol=args.tol,
        max_iters=args.max_iters,
        compare_direct=args.compare_direct,
    )
    try:
        u_hat, report = solve_dvs(problem, cfg)
    except ConvergenceError as e:
        if e.report is not None:
            _emit(e.report.to_dict())
        if e.solution is not None and args.out:
            ingest.write_vector(e.solution, args.out)
        print(f"error: {e}", file=sys.stderr)
        cause = e.__context__
        while isinstance(cause, EdvsError):   # e.g. the CG breakdown GMRES took over from
            print(f"  after: {cause}", file=sys.stderr)
            cause = cause.__context__
        return EXIT_NO_CONVERGENCE
    _emit(report.to_dict())
    if args.out:
        ingest.write_vector(u_hat, args.out)
        print(f"solution written to {args.out}", file=sys.stderr)
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def cmd_verify(args) -> int:
    matrix = ingest.load_matrix(args.matrix)
    dm = ingest.load_partition(args.partition, matrix.n_nodes)
    n_derived = int(dm.multiplicity.sum())
    locality = ingest.validate_locality(matrix, dm)
    cross = ingest.interior_coupling_violations(matrix, dm)
    payload = {
        "n_nodes": dm.n_nodes,
        "n_subdomains": dm.n_subdomains,
        "n_derived": n_derived,
        "n_interior": len(dm.interior_nodes),
        "n_interface": len(dm.interface_nodes),
        "multiplicity_histogram": _multiplicity_histogram(dm),
        "locality": "PASS" if locality.ok else "FAIL",
        "locality_violations": [list(v) for v in locality.violations],
        "interior_block_diagonal": not cross,
    }
    _emit(payload)
    print(
        f"N={dm.n_nodes} |X|={n_derived} interior={len(dm.interior_nodes)} "
        f"interface={len(dm.interface_nodes)} locality={payload['locality']}",
        file=sys.stderr,
    )
    return EXIT_OK if locality.ok else EXIT_INPUT_ERROR


def cmd_info(args) -> int:
    matrix = ingest.load_matrix(args.matrix)
    payload = {
        "matrix": {
            "rows": matrix.csr.shape[0],
            "cols": matrix.csr.shape[1],
            "nnz": matrix.nnz,
            "symmetric": matrix.symmetric,
            "block_dim": matrix.block_dim,
        },
        "partition": None,
        "rhs": None,
    }
    if args.partition:
        dm = ingest.load_partition(args.partition, matrix.n_nodes)
        payload["partition"] = {
            "n_subdomains": dm.n_subdomains,
            "n_interior": len(dm.interior_nodes),
            "n_interface": len(dm.interface_nodes),
            "multiplicity_histogram": _multiplicity_histogram(dm),
        }
    if args.rhs:
        rhs = ingest.load_vector(args.rhs)
        payload["rhs"] = {"length": int(rhs.shape[0]), "norm": float(np.linalg.norm(rhs))}
    _emit(payload)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (input error); argparse's own 2 means non-convergence here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="edvs",
        description="Domain-decomposition solver on derived vector spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a desk-scale test problem to files")
    gen.add_argument("kind", choices=["poisson1d", "poisson2d"])
    gen.add_argument("--n", type=int, default=5, help="node count (poisson1d)")
    gen.add_argument("--nx", type=int, default=5, help="grid width (poisson2d)")
    gen.add_argument("--ny", type=int, default=5, help="grid height (poisson2d)")
    gen.add_argument("--boxes", default="2", help="box count, e.g. 4 or 2x2")
    gen.add_argument("--rhs-delta", type=int, default=None,
                     help="write a unit vector at node K instead of all ones")
    gen.add_argument("--out-prefix", default=None, help="file prefix (default: kind)")
    gen.set_defaults(func=cmd_generate)

    slv = sub.add_parser("solve", help="solve a problem and report JSON to stdout")
    slv.add_argument("--matrix", required=True)
    slv.add_argument("--partition", required=True)
    slv.add_argument("--rhs", default=None)
    slv.add_argument("--rhs-delta", type=int, default=None)
    slv.add_argument("--tol", type=float, default=1e-10)
    slv.add_argument("--max-iters", type=int, default=None)
    slv.add_argument("--compare-direct", action="store_true")
    slv.add_argument("--out", default=None, help="write the solution vector to this file")
    slv.set_defaults(func=cmd_solve)

    ver = sub.add_parser("verify", help="check a matrix/partition pair")
    ver.add_argument("--matrix", required=True)
    ver.add_argument("--partition", required=True)
    ver.set_defaults(func=cmd_verify)

    inf = sub.add_parser("info", help="summarize problem files")
    inf.add_argument("--matrix", required=True)
    inf.add_argument("--partition", default=None)
    inf.add_argument("--rhs", default=None)
    inf.set_defaults(func=cmd_info)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EdvsError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
