import json
import warnings

import numpy as np
import pytest

from kaczlab import mmio
from kaczlab.cli import main
from kaczlab.kernels import METHODS
from kaczlab.problems import GaussianNormalized, generate_problem
from kaczlab.sampling import paving_from_json


def run_cli(*argv):
    return main(list(argv))


class TestSolve:
    def test_happy_path(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run_cli(
            "solve", "--recipe", "gaussian:50x20", "--method", "rbk",
            "--sampling", "uniform:4", "--stepsize", "constant-extrapolated",
            "--delta", "1", "--max-iters", "5000", "--budget", "100",
            "--seed", "3", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,block_size,alpha,residual_norm,dist_sq"
        assert len(lines) >= 2

    def test_missing_rhs_file(self, tmp_path, capsys):
        A = tmp_path / "A.mtx"
        mmio.write_matrix(A, np.eye(3))
        code = run_cli("solve", "--matrix", str(A), "--rhs", str(tmp_path / "nope.txt"))
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_chebyshev_pd_rejects_rank_deficient(self, capsys):
        code = run_cli(
            "solve", "--recipe", "rank-deficient:30x20:10",
            "--sampling", "full", "--stepsize", "chebyshev-pd", "--max-iters", "20",
        )
        assert code == 1
        assert "ConfigMismatch" in capsys.readouterr().err

    def test_nan_residual_tol_is_an_error(self, capsys):
        code = run_cli("solve", "--recipe", "gaussian:8x4", "--residual-tol", "nan")
        assert code == 1
        assert "residual_tol" in capsys.readouterr().err

    def test_max_iters_exit_code(self, tmp_path):
        code = run_cli(
            "solve", "--recipe", "gaussian:20x10", "--sampling", "uniform:1",
            "--method", "basic", "--stepsize", "classic", "--max-iters", "3",
            "--residual-tol", "1e-14",
        )
        assert code == 2

    def test_diverged_exit_code(self, tmp_path, capsys):
        # A Chebyshev schedule built for [0.5, 0.6] lambda_max: the squared
        # residual overflows at k = 362.
        system = generate_problem(GaussianNormalized(50, 20, seed=1))
        lambda_max = np.linalg.eigvalsh(system.A @ system.A.T)[-1]
        stepsize = {"kind": "chebyshev-pd", "horizon": 2000, "lambda_min": 0.5 * lambda_max,
                    "lambda_max": 0.6 * lambda_max, "m": 50}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"method": "basic", "sampling": "uniform:1",
                                    "stepsize": stepsize, "max_iters": 2000, "seed": 1}))
        with warnings.catch_warnings():  # exit code 4 reports it, not a RuntimeWarning
            warnings.simplefilter("error", RuntimeWarning)
            code = run_cli("solve", "--recipe", "gaussian:50x20", "--seed", "1",
                           "--config", str(path))
        assert code == 4
        assert capsys.readouterr().out.startswith("diverged: k=362 residual=inf")

    def test_stalled_exit_code(self, tmp_path, capsys):
        # The only block ever drawn, row 0, is solved at x0 = 0: every
        # adaptive step skips, and the 100th skip stalls the run.
        mmio.write_matrix(tmp_path / "A.mtx", np.eye(2))
        mmio.write_vector(tmp_path / "b.txt", [0.0, 1.0])
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "method": "basic", "stepsize": {"kind": "adaptive"}, "max_iters": 500, "seed": 1,
            "sampling": {"kind": "partition", "blocks": [[0], [1]], "probs": [1.0, 0.0]}}))
        code = run_cli("solve", "--matrix", str(tmp_path / "A.mtx"),
                       "--rhs", str(tmp_path / "b.txt"), "--config", str(path))
        assert code == 3
        assert capsys.readouterr().out.startswith("stalled: k=100 ")

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert run_cli(
                "solve", "--recipe", "gaussian:12x6", "--sampling", "uniform:3",
                "--stepsize", "adaptive", "--max-iters", "50", "--seed", "11",
                "--out", str(out),
            ) in (0, 2)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_env_seed_overrides(self, tmp_path, monkeypatch):
        def solve(seed, name, *flags):
            out = tmp_path / name
            run_cli(
                "solve", "--recipe", "gaussian:12x6", "--recipe-seed", "4",
                "--sampling", "uniform:2", "--max-iters", "30",
                "--seed", seed, "--out", str(out), *flags,
            )
            return out.read_bytes()

        monkeypatch.setenv("KACZLAB_SEED", "77")
        # C(400, 8) exceeds the enumeration cap, so lambda_max^block is sampled.
        sampled_lambda = ["--recipe", "gaussian:400x50", "--sampling", "uniform:8",
                          "--stepsize", "constant-extrapolated", "--budget", "50"]
        for flags in ([], sampled_lambda):
            assert solve("1", "a.csv", *flags) == solve("2", "b.csv", *flags)

    def test_matrix_market_input_and_config_file(self, tmp_path):
        system = generate_problem(GaussianNormalized(8, 4, seed=5))
        mmio.write_matrix(tmp_path / "A.mtx", system.A)
        mmio.write_vector(tmp_path / "b.txt", system.b)
        config = {
            "method": "rbk",
            "sampling": {"kind": "uniform", "m": 8, "tau": 2},
            "weights": {"kind": "uniform"},
            "stepsize": {"kind": "classic", "alpha": 1.0},
            "max_iters": 400,
            "residual_tol": None,
            "seed": 6,
        }
        (tmp_path / "config.json").write_text(json.dumps(config))
        json_out = tmp_path / "trace.json"
        code = run_cli(
            "solve", "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.txt"),
            "--config", str(tmp_path / "config.json"), "--json-out", str(json_out),
        )
        assert code == 0
        doc = json.loads(json_out.read_text())
        assert doc["status"] == "converged"
        assert doc["config"]["sampling"]["tau"] == 2

    def test_inconsistent_matrix_market_system(self, tmp_path, capsys):
        mmio.write_matrix(tmp_path / "A.mtx", np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        mmio.write_vector(tmp_path / "b.txt", [0.0, 1.0, 2.0])
        code = run_cli("solve", "--matrix", str(tmp_path / "A.mtx"),
                       "--rhs", str(tmp_path / "b.txt"), "--max-iters", "10")
        assert code == 1
        assert "InconsistentSystemError" in capsys.readouterr().err

    def test_matrix_market_diagnostics_without_planted_solution(self, tmp_path):
        system = generate_problem(GaussianNormalized(12, 6, seed=7))
        mmio.write_matrix(tmp_path / "A.mtx", system.A)
        mmio.write_vector(tmp_path / "b.txt", system.b)
        out = tmp_path / "trace.csv"
        run_cli("solve", "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.txt"),
                "--sampling", "uniform:3", "--max-iters", "20", "--diagnostics",
                "--out", str(out))
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        dist = np.array([float(r[4]) for r in rows])
        assert dist.size == len(rows) >= 2 and np.all(np.isfinite(dist))

    def test_config_file_in_plan_entry_form_matches_flags(self, tmp_path):
        # One schema: a --config file may use a plan entry's short forms.
        config = {
            "method": "rbk",
            "sampling": "uniform:12",
            "weights": "rownormsq",
            "stepsize": {"kind": "constant-extrapolated", "delta": 0.7},
            "max_iters": 60,
            "seed": 5,
            "diagnostics": True,
        }
        (tmp_path / "config.json").write_text(json.dumps(config))
        system = ["--recipe", "gaussian:40x10", "--recipe-seed", "3", "--budget", "50"]
        from_file, from_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
        run_cli("solve", *system, "--config", str(tmp_path / "config.json"),
                "--out", str(from_file))
        run_cli("solve", *system, "--method", "rbk", "--sampling", "uniform:12",
                "--weights", "rownormsq", "--stepsize", "constant-extrapolated",
                "--delta", "0.7", "--max-iters", "60", "--seed", "5", "--diagnostics",
                "--out", str(from_flags))
        assert len(from_file.read_text().splitlines()) > 2
        assert from_file.read_bytes() == from_flags.read_bytes()


MALFORMED = [
    pytest.param("stepsize", {"kind": "newton"}, id="unknown-kind"),
    pytest.param("stepsize", {"alpha": 1.0}, id="no-kind"),
    pytest.param("stepsize", {"kind": "classic", "alpha": 1.0, "beta": 2.0}, id="unknown-field"),
    pytest.param("sampling", {"kind": "uniform", "m": 8, "tau": 2, "replace": False},
                 id="unknown-sampling-field"),
    pytest.param("sampling", {"kind": "uniform", "m": 8}, id="missing-field"),
    pytest.param("sampling", {"kind": "uniform", "m": 8, "tau": 2.7}, id="fractional-tau"),
    pytest.param("stepsize", {"kind": "classic", "alpha": "1.0"}, id="string-alpha"),
    pytest.param("stepsize", {"kind": "chebyshev-pd", "horizon": 5, "lambda_min": 0.5,
                              "lambda_max": 2.0, "m": 8, "kappa": [0.9, 1.2, 2, 3, 4]},
                 id="fractional-kappa"),
    pytest.param("sampling", {"kind": "partition", "blocks": [[0, 1, 2, 3], [4, 5, 6, 7]]},
                 id="missing-partition-field"),
    pytest.param("sampling", {"kind": "partition", "blocks": [list(range(8)), []],
                              "probs": [0.5, 0.5]}, id="empty-partition-block"),
    pytest.param("residual_tol", "1e-6", id="string-tol"),
    pytest.param("residual_tol", [1], id="list-tol"),
    pytest.param("seed", None, id="null-seed"),
    pytest.param("seed", 1.5, id="fractional-seed"),
    pytest.param("max_iters", None, id="null-max-iters"),
]


@pytest.mark.parametrize("source", ["config", "plan"])
@pytest.mark.parametrize("key,value", MALFORMED)
def test_malformed_kind_dict_is_an_error_line(source, key, value, tmp_path, capsys):
    entry = {
        "method": "rbk",
        "sampling": {"kind": "uniform", "m": 8, "tau": 2},
        "weights": {"kind": "uniform"},
        "stepsize": {"kind": "classic", "alpha": 1.0},
        "max_iters": 5,
        key: value,
    }
    path = tmp_path / "in.json"
    if source == "config":
        path.write_text(json.dumps(entry))
        code = run_cli("solve", "--recipe", "gaussian:8x4", "--config", str(path))
    else:
        entry["weights"] = "uniform"
        path.write_text(json.dumps({"recipe": "gaussian:8x4", "configs": [entry],
                                    "outputs": {"dir": str(tmp_path / "out")}}))
        code = run_cli("experiment", str(path))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError:") and key in err


_ENTRY = {"method": "rbk", "sampling": "uniform:2",
          "stepsize": {"kind": "classic", "alpha": 1.0}, "max_iters": 5}


@pytest.mark.parametrize("command,doc,field", [
    pytest.param("experiment", [{"recipe": "gaussian:8x4", "configs": [_ENTRY]}], "plan",
                 id="plan-list"),
    pytest.param("experiment", {"recipe": "gaussian:8x4", "configs": ["a"]}, "configs",
                 id="configs-of-strings"),
    pytest.param("experiment", {"recipe": "gaussian:8x4", "configs": {"a": 1}}, "configs",
                 id="configs-object"),
    pytest.param("experiment", {"recipe": "gaussian:8x4", "configs": [_ENTRY], "outputs": "x"},
                 "outputs", id="outputs-string"),
    pytest.param("solve", [1, 2], "configuration", id="config-list"),
    pytest.param("solve", _ENTRY | {"diagnostics": "false"}, "diagnostics",
                 id="string-diagnostics"),
])
def test_malformed_document_is_an_error_line(command, doc, field, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    if command == "solve":
        code = run_cli("solve", "--recipe", "gaussian:8x4", "--config", str(path))
    else:
        code = run_cli("experiment", str(path))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError:") and field in err


@pytest.mark.parametrize("names", [["../../escape"], ["sub/dir"], ["/nonexistent/abs"], [["x"]],
                                   ["a", "a"], [None, "config0"]],
                         ids=["parent-path", "subdirectory", "absolute", "list", "duplicate",
                              "duplicate-default"])
def test_plan_entry_name_must_be_unique_plain_file_name(names, tmp_path, capsys):
    outdir = tmp_path / "out"
    configs = [_ENTRY if name is None else _ENTRY | {"name": name} for name in names]
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"recipe": "gaussian:8x4", "configs": configs}))
    assert run_cli("experiment", str(plan_path), "--outdir", str(outdir)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError: name")
    assert not (tmp_path.parent / "escape.csv").exists()
    assert not outdir.exists()


# C(40, 8) exceeds the enumeration cap, so lambda_max^block is sampled.
_SAMPLED = ["--recipe", "gaussian:40x4", "--sampling", "uniform:8"]


@pytest.mark.parametrize("source", ["plan", "solve", "analyze"])
def test_budget_below_one_is_an_error_line(source, tmp_path, capsys):
    if source == "plan":
        entry = {"method": "rbk", "sampling": "uniform:8",
                 "stepsize": {"kind": "constant-extrapolated"}, "max_iters": 5}
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"recipe": "gaussian:40x4", "budget": 0, "configs": [entry],
                                    "outputs": {"dir": str(tmp_path / "out")}}))
        code = run_cli("experiment", str(path))
    elif source == "solve":
        code = run_cli("solve", *_SAMPLED, "--stepsize", "constant-extrapolated",
                       "--budget", "-3")
    else:
        code = run_cli("analyze", *_SAMPLED, "--budget", "0")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError: budget")


@pytest.mark.parametrize("trials", [0, -1])
def test_trials_below_one_is_an_error_line(trials, tmp_path, capsys):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"recipe": "gaussian:8x4", "trials": trials, "configs": [_ENTRY],
                                "outputs": {"dir": str(tmp_path / "out")}}))
    assert run_cli("experiment", str(path)) == 1
    assert capsys.readouterr().err == f"error: ValueError: trials must be at least 1, got {trials}\n"
    assert not (tmp_path / "out").exists()


def test_basic_method_on_partition_drawing_one_row_blocks_exits_by_status(tmp_path, capsys):
    # The two-row block has probability 0, so the basic method applies.
    entry = {"method": "basic", "sampling": {"kind": "partition", "blocks": [[0], [1, 2]],
                                             "probs": [1.0, 0.0]},
             "stepsize": {"kind": "classic", "alpha": 1.0}, "max_iters": 4, "residual_tol": 0.0}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(entry))
    assert run_cli("solve", "--recipe", "gaussian:3x2", "--config", str(path)) == 2
    assert capsys.readouterr().out.startswith("max-iters: k=4 ")


def test_method_choices_are_the_solver_methods(capsys):
    assert METHODS == ("basic", "rbk", "block-projection")
    with pytest.raises(SystemExit):
        run_cli("solve", "--help")
    assert "--method {basic,rbk,block-projection}" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["solve", "experiment"])
def test_sampling_dict_of_other_row_count_is_an_error_line(command, tmp_path, capsys):
    entry = {"method": "rbk", "sampling": {"kind": "uniform", "m": 5, "tau": 2},
             "stepsize": {"kind": "constant-extrapolated"}, "max_iters": 5}
    path = tmp_path / "in.json"
    if command == "solve":
        path.write_text(json.dumps(entry))
        code = run_cli("solve", "--recipe", "gaussian:8x4", "--config", str(path))
    else:
        path.write_text(json.dumps({"recipe": "gaussian:8x4", "configs": [entry],
                                    "outputs": {"dir": str(tmp_path / "out")}}))
        code = run_cli("experiment", str(path))
    assert code == 1
    assert capsys.readouterr().err == (
        "error: ConfigMismatchError: sampling spec covers 5 rows but the system has 8\n")


@pytest.mark.parametrize("spec", ["uniform", "uniform:abc", "paving:x", "partition:", "full:3"])
def test_malformed_sampling_spec_is_an_error_line(spec, capsys):
    code = run_cli("solve", "--recipe", "gaussian:8x4", "--sampling", spec, "--max-iters", "5")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError:")
    assert repr(spec) in err and "uniform:T | partition:S | paving:L | full" in err


@pytest.mark.parametrize("argv,line", [
    (["gaussian:8x4", "--sampling", "partition:0"],
     "KaczlabError: partition block size 0 out of range"),
    (["gaussian:8x4", "--sampling", "partition:9"],
     "KaczlabError: partition block size 9 out of range"),
    (["gaussian:0x4"], "BadDimensionsError: bad dimensions m=0, n=4"),
    (["gaussian:8x4", "--config", "classic.json"],
     "ValueError: a stepsize must be a JSON object, got 'classic'"),
], ids=["partition-0", "partition-9", "zero-rows", "stepsize-string"])
def test_refused_solve_is_an_error_line(argv, line, tmp_path, capsys):
    (tmp_path / "classic.json").write_text(json.dumps(
        {"method": "rbk", "sampling": "uniform:2", "stepsize": "classic", "max_iters": 5}))
    argv = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in argv]
    assert run_cli("solve", "--recipe", *argv) == 1
    assert capsys.readouterr().err == f"error: {line}\n"


@pytest.mark.parametrize("argv", [
    ["paving", "--rows", "10", "--blocks", "3"],
    ["solve", "--recipe", "gaussian:8x4", "--sampling", "uniform:2", "--max-iters", "5"],
], ids=["paving", "solve"])
def test_non_integer_env_seed_is_an_error_line(argv, monkeypatch, capsys):
    monkeypatch.setenv("KACZLAB_SEED", "abc")
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError: KACZLAB_SEED") and "'abc'" in err


def test_empty_env_seed_counts_as_unset(monkeypatch, capsys):
    argv = ("paving", "--rows", "10", "--blocks", "3", "--seed", "4")
    monkeypatch.delenv("KACZLAB_SEED", raising=False)
    assert run_cli(*argv) == 0
    unset = capsys.readouterr().out
    monkeypatch.setenv("KACZLAB_SEED", "")
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out == unset


@pytest.mark.parametrize("argv", [
    ["analyze", "--sampling", "uniform:2"],
    ["solve", "--stepsize", "constant-extrapolated", "--sampling", "uniform:2"],
    ["solve", "--method", "basic", "--sampling", "uniform:1"],
    ["solve", "--method", "block-projection", "--weights", "rownormsq", "--sampling", "partition:1"],
], ids=["analyze", "derived-lambda-max-block", "basic", "rownormsq-weights"])
def test_zero_row_system_is_an_error_line(argv, tmp_path, capsys):
    mmio.write_matrix(tmp_path / "A.mtx", np.array([[1.0, 0.0], [0.0, 0.0]]))
    mmio.write_vector(tmp_path / "b.txt", [1.0, 0.0])
    system = ["--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.txt")]
    assert run_cli(argv[0], *system, *argv[1:]) == 1
    assert capsys.readouterr().err == "error: ZeroRowError: row 1 has zero norm\n"
    # Block projection takes the pseudoinverse of a block, zero rows and all.
    assert run_cli("solve", *system, "--method", "block-projection", "--sampling", "full") == 0


@pytest.mark.parametrize("command", ["solve", "analyze"])
def test_no_system_is_an_error_line(command, capsys):
    assert run_cli(command) == 1
    assert capsys.readouterr().err == "error: KaczlabError: provide either --recipe or --matrix/--rhs\n"


def test_normalize_scales_a_matrix_market_system(tmp_path, capsys):
    A = np.array([[3.0, 0.0], [0.0, 0.5], [4.0, 4.0]])
    b = A @ np.array([1.0, 2.0])
    mmio.write_matrix(tmp_path / "A.mtx", A)
    mmio.write_vector(tmp_path / "b.txt", b)
    system = ["--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.txt")]
    out = tmp_path / "trace.json"
    # The residual at k = 0 (x = 0) is the norm of the right-hand side run.
    for flags, rhs in [([], b), (["--normalize"], b / np.linalg.norm(A, axis=1))]:
        assert run_cli("solve", *system, *flags, "--max-iters", "1", "--residual-tol", "0",
                       "--json-out", str(out)) == 2
        assert json.loads(out.read_text())["events"][0]["residual_norm"] == np.linalg.norm(rhs)
    # A zero row has no norm to divide by: --normalize refuses it.
    mmio.write_matrix(tmp_path / "A.mtx", np.array([[1.0, 0.0], [0.0, 0.0]]))
    mmio.write_vector(tmp_path / "b.txt", [1.0, 0.0])
    capsys.readouterr()
    assert run_cli("solve", *system, "--normalize", "--method", "block-projection") == 1
    assert capsys.readouterr().err == "error: ZeroRowError: row 1 has zero norm\n"


@pytest.mark.parametrize("delta", ["3", "0", "-1"])
def test_delta_outside_unit_interval_is_an_error_line(delta, capsys):
    code = run_cli("analyze", "--recipe", "gaussian:20x5", "--sampling", "uniform:2",
                   "--delta", delta)
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ValueError: delta must lie in (0, 1]")


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("key,value,field", [
    pytest.param("stepsize", {"kind": "constant-extrapolated", "lambda_max_block": NAN},
                 "lambda_max_block", id="nan-lambda-max-block"),
    pytest.param("stepsize", {"kind": "constant-extrapolated", "lambda_max_block": INF},
                 "lambda_max_block", id="inf-lambda-max-block"),
    pytest.param("weights", {"kind": "explicit", "values": [NAN] + [1.0] * 9}, "values",
                 id="nan-weight"),
    pytest.param("stepsize", {"kind": "chebyshev-singular", "lambda_max": INF}, "lambda_max",
                 id="inf-singular-lambda-max"),
    pytest.param("stepsize", {"kind": "chebyshev-pd", "lambda_min": 0.5, "lambda_max": INF},
                 "lambda_max", id="inf-pd-lambda-max"),
    pytest.param("sampling", {"kind": "partition", "blocks": [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]],
                              "probs": [NAN, 0.5]}, "probs", id="nan-probs"),
])
def test_non_finite_field_is_an_error_line(key, value, field, tmp_path, capsys):
    entry = {"method": "rbk", "sampling": {"kind": "uniform", "m": 10, "tau": 2},
             "stepsize": {"kind": "classic", "alpha": 1.0}, "max_iters": 5, key: value}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(entry))
    assert run_cli("solve", "--recipe", "gaussian:10x4", "--config", str(path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


class TestAnalyze:
    def test_report_json(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            "analyze", "--recipe", "gaussian:16x8", "--sampling", "uniform:4",
            "--budget", "50", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["conditioning"]["lambda_max_block_mode"] == "exact-enumeration"
        assert 0 <= doc["rates"]["rate_constant_stepsize"] < 1

    def test_identity_rate_example(self, tmp_path, capsys):
        # tau = 1 on the 2x2 identity: constant-stepsize factor is 0.5.
        system_dir = tmp_path
        mmio.write_matrix(system_dir / "I.mtx", np.eye(2))
        mmio.write_vector(system_dir / "b.txt", [1.0, 2.0])
        out = tmp_path / "r.json"
        code = run_cli(
            "analyze", "--matrix", str(system_dir / "I.mtx"),
            "--rhs", str(system_dir / "b.txt"), "--sampling", "uniform:1",
            "--out", str(out),
        )
        assert code == 0
        assert json.loads(out.read_text())["rates"]["rate_constant_stepsize"] == pytest.approx(0.5)

    def test_monte_carlo_mode_flagged(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            "analyze", "--recipe", "gaussian:50x20", "--sampling", "uniform:10",
            "--budget", "20", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["conditioning"]["lambda_max_block_mode"] == "monte-carlo-estimate"
        assert doc["rates"]["optimistic"] is True

    def test_paving_flag_adds_verdict(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            "analyze", "--recipe", "gaussian:24x8", "--sampling", "paving:4",
            "--paving", "4", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert "paving_quality" in doc
        assert set(doc["paving_quality"]) == {"lambda_max_block", "bound", "satisfied", "bound_log2"}


class TestPavingCommand:
    def test_emits_valid_json(self, tmp_path, capsys):
        code = run_cli("paving", "--rows", "10", "--blocks", "3", "--seed", "4")
        assert code == 0
        paving = paving_from_json(capsys.readouterr().out)
        assert paving.ell == 3 and paving.m == 10

    def test_out_writes_the_printed_json(self, tmp_path, capsys):
        out = tmp_path / "paving.json"
        assert run_cli("paving", "--rows", "10", "--blocks", "3", "--seed", "4", "--out", str(out)) == 0
        assert capsys.readouterr().out == ""
        assert run_cli("paving", "--rows", "10", "--blocks", "3", "--seed", "4") == 0
        assert capsys.readouterr().out == out.read_text() + "\n"

    def test_bad_block_count(self, capsys):
        assert run_cli("paving", "--rows", "4", "--blocks", "9") == 1


class TestExperiment:
    def test_plan_outputs(self, tmp_path):
        plan = {
            "recipe": "gaussian:10x5",
            "recipe_seed": 2,
            "trials": 8,
            "outputs": {"dir": str(tmp_path / "out")},
            "configs": [
                {
                    "name": "basic",
                    "method": "basic",
                    "sampling": "uniform:1",
                    "weights": "uniform",
                    "stepsize": {"kind": "classic", "alpha": 1.0},
                    "max_iters": 40,
                    "residual_tol": 0.0,
                    "seed": 1,
                },
                {
                    "name": "rbk",
                    "method": "rbk",
                    "sampling": "uniform:3",
                    "weights": "uniform",
                    "stepsize": {"kind": "constant-extrapolated", "delta": 1.0},
                    "max_iters": 40,
                    "residual_tol": 0.0,
                    "seed": 1,
                },
            ],
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        assert run_cli("experiment", str(plan_path)) == 0

        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert [c["name"] for c in summary["configs"]] == ["basic", "rbk"]
        for entry in summary["configs"]:
            lines = (tmp_path / "out" / f"{entry['name']}.csv").read_text().strip().splitlines()
            assert len(lines) == 42  # header + max_iters + 1 rows
            assert entry["bound_violations"] == 0

        # The theory column is the geometric sequence factor^k * initial.
        rows = [line.split(",") for line in lines[1:]]
        theory = np.array([float(r[3]) for r in rows])
        factor = summary["configs"][-1]["theory_factor"]
        np.testing.assert_allclose(theory[1:], theory[:-1] * factor, rtol=1e-12)

    def test_block_lambda_computed_once_per_config(self, tmp_path, monkeypatch):
        # The constant-extrapolated stepsize and the theory factor use the
        # same lambda_max^block (same spec, budget and seed): one evaluation.
        # Each law here has one support size, so each evaluation is one
        # _supports_lambda_max call.
        import kaczlab.analysis

        calls = []
        original = kaczlab.analysis._supports_lambda_max

        def counted(*args, **kwargs):
            calls.append(args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(kaczlab.analysis, "_supports_lambda_max", counted)
        plan = {
            "recipe": "gaussian:12x5", "trials": 2, "budget": 20,
            "outputs": {"dir": str(tmp_path / "out")},
            "configs": [
                {"name": "constant", "method": "rbk", "sampling": "uniform:3",
                 "stepsize": {"kind": "constant-extrapolated"}, "max_iters": 5},
                {"name": "adaptive", "method": "rbk", "sampling": "partition:3",
                 "stepsize": {"kind": "adaptive"}, "max_iters": 5},
            ],
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        assert run_cli("experiment", str(plan_path)) == 0
        assert calls == [3, 3]  # uniform:3, then partition:3 (blocks of 3 rows)

    def test_unknown_partition_probs_is_an_error(self, tmp_path, capsys):
        plan = {
            "recipe": "gaussian:8x4",
            "outputs": {"dir": str(tmp_path / "out")},
            "configs": [{"method": "rbk", "sampling": "partition:2", "partition_probs": "frobenious",
                         "stepsize": {"kind": "classic", "alpha": 1.0}, "max_iters": 5}],
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        assert run_cli("experiment", str(plan_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError:") and "frobenious" in err

    @pytest.mark.parametrize("field,fields", [
        ("trials", {"trials": 2.9}),
        ("budget", {"budget": "50"}),
        ("recipe_seed", {"recipe_seed": True}),
        ("m", {"recipe": {"kind": "gaussian", "m": "20", "n": 10}}),
        ("n", {"recipe": {"kind": "gaussian", "m": 20, "n": 10.9}}),
    ], ids=["fractional-trials", "string-budget", "bool-recipe-seed", "string-m", "fractional-n"])
    def test_plan_numbers_are_strict(self, field, fields, tmp_path, capsys):
        plan = {
            "recipe": "gaussian:8x4",
            "outputs": {"dir": str(tmp_path / "out")},
            "configs": [{"method": "rbk", "sampling": "uniform:2",
                         "stepsize": {"kind": "classic", "alpha": 1.0}, "max_iters": 5}],
        } | fields
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        assert run_cli("experiment", str(plan_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError:") and f"{field} must be" in err

    def test_single_trial_zero_stderr(self, tmp_path):
        plan = {
            "recipe": "gaussian:6x6",
            "trials": 1,
            "outputs": {"dir": str(tmp_path / "out")},
            "configs": [
                {
                    "name": "det",
                    "method": "rbk",
                    "sampling": "full",
                    "weights": "uniform",
                    "stepsize": {"kind": "classic", "alpha": 1.0},
                    "max_iters": 12,
                    "residual_tol": 0.0,
                }
            ],
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        assert run_cli("experiment", str(plan_path)) == 0
        lines = (tmp_path / "out" / "det.csv").read_text().strip().splitlines()
        stderrs = {line.split(",")[2] for line in lines[1:]}
        assert stderrs == {"0"}

    def test_explicit_weights_dict(self, tmp_path):
        plan = {
            "recipe": "gaussian:8x4",
            "trials": 2,
            "outputs": {"dir": str(tmp_path / "out")},
            "configs": [{"name": "explicit", "method": "rbk", "sampling": "partition:2",
                         "weights": {"kind": "explicit", "values": [1, 2, 1, 2, 1, 2, 1, 2]},
                         "stepsize": {"kind": "adaptive"}, "max_iters": 10}],
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        assert run_cli("experiment", str(plan_path)) == 0
        lines = (tmp_path / "out" / "explicit.csv").read_text().strip().splitlines()
        assert len(lines) == 12
