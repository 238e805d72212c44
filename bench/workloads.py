"""The benchmark workloads: inputs drawn from a seed, one timed op, a correctness check.

Each workload builds its inputs in `prepare` (untimed).  The runner then
repeats `make_input(i)` (untimed), `call(inp)` (timed: this is the op) and
`check(inp, out)` (untimed).  The program only ever sees the generated
inputs; every random value comes from the generator seeded by `--seed`.

Why each workload was chosen, and what the benchmark leaves out, is in
README.md beside this file.
"""
from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

import edvs.cli
import edvs.derived
import edvs.dual
import edvs.ingest
import edvs.solver

TOL = 1e-10            # solver tolerance on every solver workload
DIRECT_TOL = 1e-8      # acceptance: relative distance to scipy spsolve
DUAL_TOL = 1e-12       # acceptance: relative distance to inject(A @ retract(u))
RHS_POOL = 3           # distinct seeded right-hand sides per solver workload


@dataclass
class Outcome:
    """What the check learned from one op."""

    ok: bool
    reason: str = ""
    iterations: int | None = None
    setup_s: float | None = None        # report setup_ms + factor_ms, in seconds
    setup_phase_s: float | None = None  # report setup_ms alone, in seconds
    threads: int | None = None


def relative_error(x: np.ndarray, ref: np.ndarray) -> float:
    denom = float(np.linalg.norm(ref))
    err = float(np.linalg.norm(x - ref))
    return err / denom if denom > 0 else err


def problem_shape(matrix, dm) -> dict:
    """N, nnz, |Gamma| and subdomain count, recorded with every result."""
    return {
        "nodes": int(dm.n_nodes),
        "unknowns": int(matrix.csr.shape[0]),
        "block_dim": int(matrix.block_dim),
        "nnz": int(matrix.csr.nnz),
        "interface_nodes": int(len(dm.interface_nodes)),
        "subdomains": int(dm.n_subdomains),
    }


def _check_solution(ref, u_hat, report: dict) -> Outcome:
    timings = report.get("timings", {})
    setup_ms, factor_ms = timings.get("setup_ms"), timings.get("factor_ms")
    outcome = Outcome(
        ok=False,
        iterations=report.get("iterations"),
        setup_s=None if None in (setup_ms, factor_ms) else (setup_ms + factor_ms) / 1e3,
        setup_phase_s=None if setup_ms is None else setup_ms / 1e3,
        threads=report.get("config", {}).get("threads"),
    )
    if report.get("converged") is not True:
        outcome.reason = "report says converged=false"
    elif np.shape(u_hat) != np.shape(ref):
        outcome.reason = f"solution shape {np.shape(u_hat)} != {np.shape(ref)}"
    else:
        err = relative_error(u_hat, ref)
        if err <= DIRECT_TOL:
            outcome.ok = True
        else:
            outcome.reason = f"relative error vs spsolve {err:.3e} > {DIRECT_TOL:.0e}"
    return outcome


class _SolverWorkload:
    """References and checks shared by the solver workloads.

    `prepare` sets `matrix` and `rhs_pool`; `extract` turns an op's output
    into (u_hat, report dict).  Set-up is a phase of every op here, so its
    time comes from each op's report.
    """

    SETUP_REPEATS = 0
    CALIBRATE = False   # ops of seconds span host-speed phases; see calibration.py

    def references(self, clock):
        """scipy spsolve of every pool right-hand side, timed; never inside an op."""
        self.refs, self.spsolve_s = [], []
        csc = self.matrix.csr.tocsc()
        for rhs in self.rhs_pool:
            t0 = clock()
            self.refs.append(spla.spsolve(csc, rhs))
            self.spsolve_s.append(clock() - t0)

    def check(self, inp, out) -> Outcome:
        try:
            u_hat, report = self.extract(inp, out)
        except (ValueError, OSError) as e:
            return Outcome(False, f"unusable output: {e}")
        return _check_solution(self.refs[inp[0]], u_hat, report)

    def check_rejects_bad_output(self, inp, out) -> bool:
        """Self-check: a perturbed solution and a non-converged report must both fail."""
        u_hat, report = self.extract(inp, out)
        ref = self.refs[inp[0]]
        perturbed = _check_solution(ref, u_hat * (1.0 + 1e-6), report)
        unconverged = _check_solution(ref, u_hat, {**report, "converged": False})
        return not perturbed.ok and not unconverged.ok


class SolveWorkload(_SolverWorkload):
    """One `solve_dvs` with library defaults per op, cycling through seeded right-hand sides."""

    N, BOXES = 129, 16

    def prepare(self, rng, work_dir):
        self.matrix = edvs.ingest.generate_poisson_2d(self.N, self.N)
        dm = edvs.ingest.generate_box_partition(self.N, self.N, self.BOXES, self.BOXES)
        self.shape = problem_shape(self.matrix, dm)
        self.rhs_pool = [rng.standard_normal(self.matrix.csr.shape[0]) for _ in range(RHS_POOL)]
        self.problems = [
            edvs.ingest.ProblemInstance(matrix=self.matrix, rhs=rhs, decomposition=dm)
            for rhs in self.rhs_pool
        ]

    def make_input(self, i):
        return (i % RHS_POOL,)

    def call(self, inp):
        return edvs.solver.solve_dvs(self.problems[inp[0]], edvs.solver.SolveConfig(tol=TOL))

    def extract(self, inp, out):
        u_hat, report = out
        return u_hat, report.to_dict()


class CliWorkload(_SolverWorkload):
    """One `edvs solve` CLI invocation per op on Matrix Market inputs written once."""

    N, BOXES = 257, 4

    def prepare(self, rng, work_dir):
        self.matrix = edvs.ingest.generate_poisson_2d(self.N, self.N)
        dm = edvs.ingest.generate_box_partition(self.N, self.N, self.BOXES, self.BOXES)
        self.shape = problem_shape(self.matrix, dm)
        self.work_dir = work_dir
        self.matrix_path = os.path.join(work_dir, "A.mtx")
        self.partition_path = os.path.join(work_dir, "A.part")
        edvs.ingest.write_matrix(self.matrix, self.matrix_path)
        edvs.ingest.write_partition(dm, self.partition_path)
        self.rhs_pool, self.rhs_paths = [], []
        for k in range(RHS_POOL):
            self.rhs_pool.append(rng.standard_normal(self.matrix.csr.shape[0]))
            self.rhs_paths.append(os.path.join(work_dir, f"rhs{k}.txt"))
            edvs.ingest.write_vector(self.rhs_pool[-1], self.rhs_paths[-1])

    def make_input(self, i):
        """(pool index, a fresh output path), so no op can pass on another op's file."""
        return i % RHS_POOL, os.path.join(self.work_dir, f"solution{i}.txt")

    def call(self, inp):
        k, out_path = inp
        argv = ["solve", "--matrix", self.matrix_path, "--partition", self.partition_path,
                "--rhs", self.rhs_paths[k], "--out", out_path]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = edvs.cli.main(argv)
        return code, stdout.getvalue(), stderr.getvalue()

    def extract(self, inp, out):
        code, stdout, stderr = out
        if code != 0:
            raise ValueError(f"exit code {code}: {stderr.strip()[-200:]}")
        return np.loadtxt(inp[1], dtype=np.float64, ndmin=1), json.loads(stdout)


class DualWorkload:
    """One `apply_dual` per op on a fresh seeded continuous vector."""

    N, BOXES = 257, 16
    SETUP_REPEATS = 5   # set-up time is the median of this many builds
    CALIBRATE = True    # ops of milliseconds each fall in one host-speed phase

    def prepare(self, rng, work_dir):
        self.matrix = edvs.ingest.generate_poisson_2d(self.N, self.N)
        dm = edvs.ingest.generate_box_partition(self.N, self.N, self.BOXES, self.BOXES)
        self.shape = problem_shape(self.matrix, dm)
        self.space = edvs.derived.build_derived_space(dm, block_dim=self.matrix.block_dim)
        self.rng = rng
        self.spsolve_s = []  # the reference is a plain matvec, computed in `check`
        param = inspect.signature(edvs.dual.apply_dual).parameters.get("threads")
        self.threads = None if param is None else param.default

    def setup(self):
        self.operator = edvs.dual.build_dual_operator(self.matrix, self.space)

    def references(self, clock):
        pass

    def make_input(self, i):
        u_hat = self.rng.standard_normal(self.matrix.csr.shape[0])
        return edvs.derived.inject(u_hat, self.space)

    def call(self, u):
        return edvs.dual.apply_dual(self.operator, u)

    def check(self, u, out) -> Outcome:
        outcome = Outcome(ok=False, iterations=1, threads=self.threads)
        ref = edvs.derived.inject(self.matrix.csr @ edvs.derived.retract(u, self.space), self.space)
        if np.shape(out) != np.shape(ref):
            outcome.reason = f"result shape {np.shape(out)} != {np.shape(ref)}"
            return outcome
        err = relative_error(out, ref)
        if err <= DUAL_TOL:
            outcome.ok = True
        else:
            outcome.reason = f"relative error vs inject(A @ retract(u)) {err:.3e} > {DUAL_TOL:.0e}"
        return outcome

    def check_rejects_bad_output(self, u, out) -> bool:
        """Self-check: a result off by 1e-9 relative must fail."""
        return not self.check(u, out * (1.0 + 1e-9)).ok


WORKLOADS = {
    "many-small": SolveWorkload,
    "few-large-files": CliWorkload,
    "dual-operator": DualWorkload,
}
