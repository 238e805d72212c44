import json
from pathlib import Path

import numpy as np
import pytest
import scipy.io

from conftest import run_cli
from edvs import ingest

GOLDEN = Path(__file__).parent / "data" / "golden_report.json"
SOLVE_1D = ["solve", "--matrix", "p1.mtx", "--partition", "p1.part", "--rhs", "p1.rhs"]
SOLVE_SINGULAR = ["solve", "--matrix", "s.mtx", "--partition", "s.part", "--rhs-delta", "0"]


def key_paths(obj, prefix=""):
    """All nested dict key paths; list contents are not structural."""
    paths = set()
    if isinstance(obj, dict):
        for k, v in obj.items():
            paths.add(f"{prefix}{k}")
            paths.update(key_paths(v, f"{prefix}{k}."))
    return paths


@pytest.fixture
def generated_1d(tmp_path):
    result = run_cli(
        ["generate", "poisson1d", "--n", "5", "--boxes", "2",
         "--rhs-delta", "2", "--out-prefix", "p1"],
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    return tmp_path


@pytest.fixture
def singular_files(tmp_path):
    """[[1, 1, 0], [1, 2, 1], [0, 1, 1]] with node 1 in both subdomains: S = 2 - 1 - 1 = 0."""
    (tmp_path / "s.mtx").write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 5\n"
        "1 1 1.0\n2 1 1.0\n2 2 2.0\n3 2 1.0\n3 3 1.0\n"
    )
    (tmp_path / "s.part").write_text("0 0\n1 0\n1 1\n2 1\n")
    return tmp_path


class TestGenerate:
    def test_poisson1d_files(self, generated_1d):
        for ext in (".mtx", ".part", ".rhs"):
            assert (generated_1d / f"p1{ext}").exists()
        dm = ingest.load_partition(generated_1d / "p1.part", 5)
        assert dm.incidence[2].indices.tolist() == [0, 1]  # shared node
        rhs = ingest.load_vector(generated_1d / "p1.rhs")
        assert rhs.tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]

    def test_poisson2d_center_shared_by_four(self, tmp_path):
        result = run_cli(
            ["generate", "poisson2d", "--nx", "5", "--ny", "5",
             "--boxes", "2x2", "--out-prefix", "g2"],
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        dm = ingest.load_partition(tmp_path / "g2.part", 25)
        assert dm.multiplicity[12] == 4

    def test_single_box_all_interior(self, tmp_path):
        result = run_cli(
            ["generate", "poisson1d", "--n", "6", "--boxes", "1", "--out-prefix", "g3"],
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        dm = ingest.load_partition(tmp_path / "g3.part", 6)
        assert np.all(dm.multiplicity == 1)


class TestSolve:
    def test_closed_form_solution_file(self, generated_1d):
        result = run_cli(
            ["solve", "--matrix", "p1.mtx", "--partition", "p1.part",
             "--rhs", "p1.rhs", "--out", "sol.txt"],
            cwd=generated_1d,
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["converged"]
        assert report["final_original_residual"] <= 1e-10
        sol = ingest.load_vector(generated_1d / "sol.txt")
        assert np.allclose(sol, [0.5, 1.0, 1.5, 1.0, 0.5], atol=1e-10)

    def test_rhs_delta_flag(self, generated_1d):
        result = run_cli(
            ["solve", "--matrix", "p1.mtx", "--partition", "p1.part",
             "--rhs-delta", "2", "--out", "sol.txt"],
            cwd=generated_1d,
        )
        assert result.returncode == 0, result.stderr
        sol = ingest.load_vector(generated_1d / "sol.txt")
        assert np.allclose(sol, [0.5, 1.0, 1.5, 1.0, 0.5], atol=1e-10)

    def test_compare_direct_field(self, generated_1d):
        result = run_cli(
            ["solve", "--matrix", "p1.mtx", "--partition", "p1.part",
             "--rhs", "p1.rhs", "--compare-direct"],
            cwd=generated_1d,
        )
        report = json.loads(result.stdout)
        assert report["relative_error_vs_direct"] <= 1e-9

    def test_golden_report_schema(self, generated_1d):
        result = run_cli(
            ["solve", "--matrix", "p1.mtx", "--partition", "p1.part",
             "--rhs", "p1.rhs"],
            cwd=generated_1d,
        )
        report = json.loads(result.stdout)
        golden = json.loads(GOLDEN.read_text())
        assert key_paths(report) == key_paths(golden)
        assert report["config"] == golden["config"]
        assert report["iterations"] == golden["iterations"]
        assert report["converged"] == golden["converged"]

    def test_general_storage_of_symmetric_matrix_solves_with_cg(self, tmp_path):
        # symmetry is read from the values, so the storage qualifier changes nothing
        result = run_cli(["generate", "poisson2d", "--nx", "9", "--ny", "9", "--boxes", "3x3",
                          "--out-prefix", "g"], cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        scipy.io.mmwrite(tmp_path / "general.mtx", ingest.load_matrix(tmp_path / "g.mtx").csr,
                         symmetry="general")
        assert (tmp_path / "general.mtx").read_text().startswith(
            "%%MatrixMarket matrix coordinate real general\n")
        for name in ("g", "general"):
            result = run_cli(["solve", "--matrix", f"{name}.mtx", "--partition", "g.part",
                              "--rhs", "g.rhs", "--out", f"{name}.sol"], cwd=tmp_path)
            assert result.returncode == 0, result.stderr
            assert json.loads(result.stdout)["config"]["krylov"] == "cg"
        assert (tmp_path / "general.sol").read_bytes() == (tmp_path / "g.sol").read_bytes()
        info = run_cli(["info", "--matrix", "general.mtx"], cwd=tmp_path)
        assert json.loads(info.stdout)["matrix"]["symmetric"] is True

    def test_missing_partition_exit_1(self, generated_1d):
        result = run_cli(
            ["solve", "--matrix", "p1.mtx", "--partition", "nope.part", "--rhs", "p1.rhs"],
            cwd=generated_1d,
        )
        assert result.returncode == 1
        assert "error" in result.stderr.lower()
        assert result.stdout.strip() == ""

    def test_nonconvergence_exit_2(self, tmp_path):
        run_cli(["generate", "poisson2d", "--nx", "9", "--ny", "9",
                 "--boxes", "2x2", "--out-prefix", "g9"], cwd=tmp_path)
        result = run_cli(
            ["solve", "--matrix", "g9.mtx", "--partition", "g9.part",
             "--rhs", "g9.rhs", "--max-iters", "1"],
            cwd=tmp_path,
        )
        assert result.returncode == 2
        report = json.loads(result.stdout)  # report still emitted
        assert not report["converged"]
        assert len(report["residual_history"]) == 1

    def test_non_finite_rhs_exit_1_before_solving(self, generated_1d):
        (generated_1d / "nan.rhs").write_text("0\n0\nnan\n0\n0\n")
        result = run_cli(
            ["solve", "--matrix", "p1.mtx", "--partition", "p1.part", "--rhs", "nan.rhs"],
            cwd=generated_1d,
        )
        assert result.returncode == 1
        assert "non-finite" in result.stderr
        assert result.stdout.strip() == ""  # no report: no solve phase ran

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_exit_1_without_json(self, generated_1d, tol):
        result = run_cli(
            ["solve", "--matrix", "p1.mtx", "--partition", "p1.part", "--rhs", "p1.rhs",
             "--tol", tol],
            cwd=generated_1d,
        )
        assert result.returncode == 1
        assert "error:" in result.stderr and "tol" in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout.strip() == ""

    def test_gmres_breakdown_exit_2_with_report(self, singular_files):
        # the interface operator is 0: CG cannot factor E = Z'SZ and hands over to GMRES
        result = run_cli(SOLVE_SINGULAR, cwd=singular_files)
        assert result.returncode == 2
        assert "gmres breakdown" in result.stderr
        report = json.loads(result.stdout)
        assert report["converged"] is False
        assert report["config"]["krylov"] == "gmres"

    def test_breakdown_chain_on_stderr(self, singular_files):
        # GMRES's breakdown first, then the CG breakdown it took over from, one per line
        result = run_cli(SOLVE_SINGULAR, cwd=singular_files)
        assert result.returncode == 2
        lines = result.stderr.splitlines()
        assert lines[0].startswith("error: gmres breakdown at iteration 1")
        assert lines[1].startswith("  after: cg breakdown at iteration 0: E = Z'SZ is singular")

    def test_nonsymmetric_matrix_solves_with_gmres(self, tmp_path):
        # default flags: the method is chosen from the values
        result = run_cli(["generate", "poisson2d", "--nx", "9", "--ny", "9", "--boxes", "2x2",
                          "--out-prefix", "g"], cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        csr = ingest.load_matrix(tmp_path / "g.mtx").csr.tolil()
        csr[40, 41] = -0.5  # A[41, 40] stays -1
        scipy.io.mmwrite(tmp_path / "n.mtx", csr.tocsr(), symmetry="general")
        result = run_cli(["solve", "--matrix", "n.mtx", "--partition", "g.part", "--rhs", "g.rhs",
                          "--compare-direct"], cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["config"]["krylov"] == "gmres"
        assert report["relative_error_vs_direct"] <= 1e-8

    @pytest.mark.parametrize("argv", [
        [*SOLVE_1D, "--krylov", "jacobi"],
        [*SOLVE_1D, "--tol", "abc"],
        [*SOLVE_1D, "--no-such-flag"],
        [*SOLVE_1D, "--primal", "none"],
        [*SOLVE_1D, "--krylov", "gmres"],
        [],
    ], ids=["bad-krylov", "bad-tol", "unknown-flag", "primal", "krylov", "bare"])
    def test_usage_error_exit_1(self, generated_1d, argv):
        # exit 2 is reserved for non-convergence, so argparse's usage exit is remapped
        result = run_cli(argv, cwd=generated_1d)
        assert result.returncode == 1
        assert "error:" in result.stderr
        assert result.stdout.strip() == ""

    def test_help_exit_0(self, tmp_path):
        result = run_cli(["solve", "--help"], cwd=tmp_path)
        assert result.returncode == 0
        assert "--compare-direct" in result.stdout
        assert "--krylov" not in result.stdout and "--primal" not in result.stdout


class TestVerify:
    def test_pass_summary(self, generated_1d):
        result = run_cli(["verify", "--matrix", "p1.mtx", "--partition", "p1.part"],
                         cwd=generated_1d)
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["n_nodes"] == 5
        assert payload["n_derived"] == 6
        assert payload["n_interior"] == 4
        assert payload["n_interface"] == 1
        assert payload["locality"] == "PASS"
        assert payload["interior_block_diagonal"] is True
        assert "N=5 |X|=6 interior=4 interface=1 locality=PASS" in result.stderr

    def test_multiplicity_histogram_2d(self, tmp_path):
        run_cli(["generate", "poisson2d", "--nx", "5", "--ny", "5",
                 "--boxes", "2x2", "--out-prefix", "g2"], cwd=tmp_path)
        result = run_cli(["verify", "--matrix", "g2.mtx", "--partition", "g2.part"],
                         cwd=tmp_path)
        payload = json.loads(result.stdout)
        assert payload["multiplicity_histogram"] == {"1": 16, "2": 8, "4": 1}
        # one derived node per (node, subdomain): 16 + 2*8 + 4*1
        assert payload["n_derived"] == 36

    def test_uncovered_node_fails(self, generated_1d):
        (generated_1d / "bad.part").write_text("0 0\n1 0\n2 0\n4 1\n")
        result = run_cli(["verify", "--matrix", "p1.mtx", "--partition", "bad.part"],
                         cwd=generated_1d)
        assert result.returncode == 1
        assert "node 3" in result.stderr

    def test_locality_failure_reported(self, generated_1d):
        (generated_1d / "split.part").write_text("0 0\n1 0\n2 1\n3 1\n4 1\n")
        result = run_cli(["verify", "--matrix", "p1.mtx", "--partition", "split.part"],
                         cwd=generated_1d)
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["locality"] == "FAIL"
        assert [1, 2] in payload["locality_violations"]


class TestInfo:
    def test_matrix_only(self, generated_1d):
        result = run_cli(["info", "--matrix", "p1.mtx"], cwd=generated_1d)
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["matrix"]["rows"] == 5
        assert payload["matrix"]["nnz"] == 13
        assert payload["partition"] is None

    def test_full(self, generated_1d):
        result = run_cli(
            ["info", "--matrix", "p1.mtx", "--partition", "p1.part", "--rhs", "p1.rhs"],
            cwd=generated_1d,
        )
        payload = json.loads(result.stdout)
        assert payload["partition"]["n_subdomains"] == 2
        assert payload["rhs"]["length"] == 5

    def test_non_finite_rhs_exit_1_without_json(self, generated_1d):
        (generated_1d / "nan.rhs").write_text("0\n0\nnan\n0\n0\n")
        result = run_cli(["info", "--matrix", "p1.mtx", "--rhs", "nan.rhs"], cwd=generated_1d)
        assert result.returncode == 1
        assert "line 3" in result.stderr and "non-finite" in result.stderr
        assert result.stdout.strip() == ""

    @pytest.mark.parametrize("subdomain", ["3000000", "99999999999999999999"])
    def test_partition_id_beyond_node_count_exit_1(self, generated_1d, subdomain):
        (generated_1d / "big.part").write_text(f"0 0\n1 0\n2 0\n3 0\n4 {subdomain}\n")
        result = run_cli(["info", "--matrix", "p1.mtx", "--partition", "big.part"],
                         cwd=generated_1d)
        assert result.returncode == 1
        assert f"error: line 5: subdomain id {subdomain} out of range" in result.stderr
        assert result.stdout.strip() == ""
