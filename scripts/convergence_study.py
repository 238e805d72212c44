#!/usr/bin/env python3
"""Sweep grid sizes and box counts; print one JSON line per solve.

Example:
    python scripts/convergence_study.py --sizes 9 17 33 65 --boxes 2 4
"""
import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from edvs.ingest import ProblemInstance, generate_box_partition, generate_poisson_2d
from edvs.solver import SolveConfig, solve_dvs


def run_case(size, boxes, cfg):
    matrix = generate_poisson_2d(size, size)
    dm = generate_box_partition(size, size, boxes, boxes)
    rhs = np.ones(size * size)
    problem = ProblemInstance(matrix=matrix, rhs=rhs, decomposition=dm)
    _, report = solve_dvs(problem, cfg)
    return {
        "grid": f"{size}x{size}",
        "boxes": f"{boxes}x{boxes}",
        "n_subdomains": dm.n_subdomains,
        "interface_nodes": int(len(dm.interface_nodes)),
        "iterations": report.iterations,
        "final_original_residual": report.final_original_residual,
        "relative_error_vs_direct": report.relative_error_vs_direct,
        "total_ms": round(report.timings["total_ms"], 2),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[9, 17, 33])
    parser.add_argument("--boxes", type=int, nargs="+", default=[2, 4])
    parser.add_argument("--tol", type=float, default=1e-10)
    parser.add_argument("--krylov", choices=["cg", "gmres"], default="cg")
    args = parser.parse_args()

    cfg = SolveConfig(tol=args.tol, krylov=args.krylov, compare_direct=True)
    for size in args.sizes:
        for boxes in args.boxes:
            if boxes >= size:
                continue
            print(json.dumps(run_case(size, boxes, cfg)))


if __name__ == "__main__":
    main()
