"""Acceptance suite: every criterion at its stated tolerance, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""
import json
import time

import numpy as np
import pytest

from conftest import make_problem_1d, make_problem_2d, run_cli
from edvs.derived import (
    build_derived_space,
    inject,
    inner_derived,
    inner_original,
    norm_derived,
    project_continuous,
    project_zero_average,
    retract,
)
from edvs.dual import apply_block, apply_dual, build_dual_operator
from edvs.ingest import (
    DecompositionMap,
    generate_box_partition,
    interior_coupling_violations,
    load_vector,
)
from edvs.schur import (
    IndexSplit,
    block_pseudo_inverse,
    null_space,
    pseudo_inverse_apply,
    solve_via_schur,
)
from edvs.solver import (
    SolveConfig,
    apply_interface_operator,
    interface_rhs,
    setup_solver,
    solve_dvs,
    solve_interface,
)

# 1D sizes with 2..8 subdomains (capped at n-1: boxes need at least two nodes);
# 2D grids with 2x2 and 4x4 boxes
CASES_1D = [(n, e) for n in (5, 17, 101) for e in range(2, min(8, n - 1) + 1)]
CASES_2D = [(s, s, b, b) for s in (5, 9, 33) for b in (2, 4)]


def _report(criterion, detail):
    print(f"[acceptance] criterion {criterion}: PASS - {detail}")


def test_criterion_1_equivalence_with_direct_solve():
    t0 = time.perf_counter()
    worst = 0.0
    for n, e in CASES_1D:
        problem = make_problem_1d(n, e)
        _, report = solve_dvs(problem, SolveConfig(compare_direct=True))
        assert report.relative_error_vs_direct <= 1e-8, (n, e)
        worst = max(worst, report.relative_error_vs_direct)
    for nx, ny, bx, by in CASES_2D:
        problem = make_problem_2d(nx, ny, bx, by)
        _, report = solve_dvs(problem, SolveConfig(compare_direct=True))
        assert report.relative_error_vs_direct <= 1e-8, (nx, ny, bx, by)
        worst = max(worst, report.relative_error_vs_direct)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"desk runtime budget exceeded: {elapsed:.1f}s"
    _report(1, f"{len(CASES_1D) + len(CASES_2D)} problems, worst error "
               f"{worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_closed_form_1d():
    rhs = np.zeros(5)
    rhs[2] = 1.0
    problem = make_problem_1d(5, 2, rhs=rhs)
    u_hat, report = solve_dvs(problem, SolveConfig())
    assert np.allclose(u_hat, [0.5, 1.0, 1.5, 1.0, 0.5], atol=1e-10)

    state = setup_solver(problem)
    sigma_action = apply_interface_operator(state, np.ones(2))
    assert np.allclose(sigma_action, 2.0 / 3.0, atol=1e-10)
    u_gamma, _, _ = solve_interface(state, interface_rhs(state), SolveConfig())
    assert np.allclose(u_gamma, 1.5, atol=1e-10)
    _report(2, "u = [0.5, 1, 1.5, 1, 0.5], interface Schur value 2/3, interface solution 1.5")


def _acceptance_spaces():
    irregular = DecompositionMap.from_memberships(
        [[0], [0, 1], [1], [1, 2], [2], [0, 2], [0], [0, 1, 2], [2], [1], [0], [2]]
    )
    maps = [
        generate_box_partition(17, 1, 4, 1),
        generate_box_partition(101, 1, 8, 1),
        generate_box_partition(9, 9, 2, 2),
        generate_box_partition(5, 5, 4, 4),
        irregular,
    ]
    return [build_derived_space(dm) for dm in maps]


def test_criterion_3_algebraic_invariant_suite():
    spaces = _acceptance_spaces()
    assert len(spaces) >= 5
    rng = np.random.default_rng(31415)
    trials_per_space = 200
    for ds in spaces:
        for _ in range(trials_per_space):
            u = rng.standard_normal(ds.derived_flat_size)
            v = rng.standard_normal(ds.derived_flat_size)
            au, ju = project_continuous(u, ds), project_zero_average(u, ds)
            nu = np.linalg.norm(u)
            assert np.linalg.norm(project_continuous(au, ds) - au) <= 1e-14 * nu
            assert np.linalg.norm(project_zero_average(ju, ds) - ju) <= 1e-14 * nu
            assert np.linalg.norm(au + ju - u) <= 1e-14 * nu
            jv = project_zero_average(v, ds)
            assert abs(inner_derived(au, jv, ds)) <= 1e-12 * nu * np.linalg.norm(v)
            u_hat = rng.standard_normal(ds.original_flat_size)
            v_hat = rng.standard_normal(ds.original_flat_size)
            iso = inner_derived(inject(u_hat, ds), inject(v_hat, ds), ds)
            scale = np.linalg.norm(u_hat) * np.linalg.norm(v_hat)
            assert abs(iso - inner_original(u_hat, v_hat)) <= 1e-12 * scale
            back = retract(inject(u_hat, ds), ds)
            assert np.linalg.norm(back - u_hat) <= 1e-14 * np.linalg.norm(u_hat)
    _report(3, f"{len(spaces)} decompositions x {trials_per_space} trials = "
               f"{len(spaces) * trials_per_space} randomized checks")


def test_criterion_4_dual_operator_fidelity():
    rng = np.random.default_rng(27182)
    problems = [make_problem_1d(17, 4), make_problem_2d(9, 9, 2, 2)]
    for problem in problems:
        ds = build_derived_space(problem.decomposition)
        op = build_dual_operator(problem.matrix, ds)
        a = problem.matrix.csr
        n = problem.decomposition.n_nodes
        for _ in range(100):
            u_hat = rng.standard_normal(n)
            want = inject(a @ u_hat, ds)
            got = apply_dual(op, inject(u_hat, ds))
            assert norm_derived(got - want, ds) <= 1e-12 * norm_derived(want, ds)
        for _ in range(20):
            u = inject(rng.standard_normal(n), ds)
            full = apply_dual(op, u)
            top = apply_block(op, "II", u[ds.interior_positions]) \
                + apply_block(op, "IG", u[ds.gamma_positions])
            bottom = apply_block(op, "GI", u[ds.interior_positions]) \
                + apply_block(op, "GG", u[ds.gamma_positions])
            scale = np.linalg.norm(full)
            assert np.linalg.norm(top - full[ds.interior_positions]) <= 1e-12 * scale
            assert np.linalg.norm(bottom - full[ds.gamma_positions]) <= 1e-12 * scale
    _report(4, "duality preserved on 100 random vectors per problem; "
               "2x2 block reassembly matches the full operator")


def test_criterion_5_pseudo_inverse_suite():
    rng = np.random.default_rng(16180)
    checked = invertible = 0
    for _ in range(200):
        size = int(rng.integers(4, 31))
        corank = int(rng.integers(0, 4))
        corank = min(corank, size - 1)
        q, _ = np.linalg.qr(rng.standard_normal((size, size)))
        lam = rng.uniform(0.5, 2.0, size) * rng.choice([-1.0, 1.0], size)
        lam[:corank] = 0.0
        b = (q * lam) @ q.T
        w = b @ rng.standard_normal(size)
        v = pseudo_inverse_apply(b, w)
        assert np.linalg.norm(b @ v - w) <= 1e-10 * max(np.linalg.norm(w), 1.0)
        ns = null_space(b)
        assert ns.dim == corank
        if ns.dim:
            assert np.linalg.norm(ns.basis.T @ v) <= 1e-10 * max(np.linalg.norm(v), 1.0)

        perm = rng.permutation(size)
        k = int(rng.integers(1, size))
        split = IndexSplit(m_set=tuple(perm[:k]), n_set=tuple(perm[k:]))
        v_two_stage = solve_via_schur(b, w, split)
        assert np.linalg.norm(v_two_stage - v) <= 1e-10 * max(np.linalg.norm(v), 1.0)

        if corank == 0:
            blocks = block_pseudo_inverse(b, split)
            dense_inverse = np.linalg.inv(b)
            err = np.linalg.norm(blocks.assemble(split, size) - dense_inverse)
            assert err <= 1e-10 * np.linalg.norm(dense_inverse)
            invertible += 1
        checked += 1
    assert checked == 200
    _report(5, f"200 random symmetric systems (corank 0-3), {invertible} invertible "
               "instances checked against the dense inverse")


def test_criterion_6_interior_block_diagonality():
    count = 0
    for n, e in CASES_1D:
        problem = make_problem_1d(n, e)
        assert interior_coupling_violations(problem.matrix, problem.decomposition) == []
        count += 1
    for nx, ny, bx, by in CASES_2D:
        problem = make_problem_2d(nx, ny, bx, by)
        assert interior_coupling_violations(problem.matrix, problem.decomposition) == []
        count += 1
    _report(6, f"no cross-subdomain interior coupling in any of {count} generated problems")


def test_criterion_7_cg_finite_termination():
    problem = make_problem_2d(9, 9, 2, 2)
    state = setup_solver(problem)
    dim = len(state.space.gamma_nodes) * state.space.block_dim
    u_gamma, history, iters = solve_interface(state, interface_rhs(state), SolveConfig(tol=1e-10))
    assert history[-1] <= 1e-10
    assert iters <= dim + 5
    _report(7, f"cg reached 1e-10 in {iters} iterations "
               f"(continuous interface dimension {dim})")


def test_criterion_8_thread_determinism(tmp_path, monkeypatch):
    result = run_cli(
        ["generate", "poisson2d", "--nx", "9", "--ny", "9", "--boxes", "2x2",
         "--out-prefix", "det"],
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    reports = []
    for threads, out in (("1", "sol1.txt"), ("4", "sol4.txt")):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.setenv(var, threads)
        result = run_cli(
            ["solve", "--matrix", "det.mtx", "--partition", "det.part",
             "--rhs", "det.rhs", "--out", out],
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        reports.append(json.loads(result.stdout))
    assert reports[0]["residual_history"] == reports[1]["residual_history"]
    assert (tmp_path / "sol1.txt").read_bytes() == (tmp_path / "sol4.txt").read_bytes()
    sol = load_vector(tmp_path / "sol1.txt")
    assert sol.shape == (81,)
    _report(8, "threads=1 and threads=4 produce identical residual histories "
               "and byte-identical solution files")
