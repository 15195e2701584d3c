import inspect
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

from phasefeas import harness
from phasefeas.certificate import CertificateParams
from phasefeas.cli import build_parser, main, parse_range, read_measurements
from phasefeas.harness import GridSpec
from phasefeas.linalg import COMPLEX, REAL
from phasefeas.sensing import measure, sample_ensemble
from phasefeas.solvers import SolverConfig


def write_measurements(path, e, b):
    n = e.n
    if e.field == REAL:
        header = [f"z_{k}" for k in range(1, n + 1)] + ["b"]
        rows = [[repr(float(c)) for c in z] + [repr(float(v))]
                for z, v in zip(e.vectors, b.values)]
    else:
        header = [t for k in range(1, n + 1) for t in (f"re_{k}", f"im_{k}")] + ["b"]
        rows = []
        for z, v in zip(e.vectors, b.values):
            flat = []
            for c in z:
                flat += [repr(float(c.real)), repr(float(c.imag))]
            rows.append(flat + [repr(float(v))])
    lines = [",".join(header)] + [",".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def readme_commands():
    """Every `phasefeas ...` command in README's ```sh blocks, continuation lines joined."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.startswith("phasefeas ")]


def test_readme_commands_parse():
    # a flag renamed or removed in the parser but not in README fails here (argparse exits 2)
    commands = {build_parser().parse_args(argv[1:]).command for argv in readme_commands()}
    assert commands == {"grid", "converge", "certify", "solve"}


def test_shared_defaults_are_the_librarys():
    # each default the CLI shares with a config class is that class's default
    spec = GridSpec(n_values=[1], m_values=[1])
    cfg = SolverConfig()
    anchor = np.array([1.0, 0.0])
    parse = build_parser().parse_args
    grid = parse(["grid", "--out", "o"])
    assert (grid.trials, grid.eps, grid.seed) == (spec.trials, spec.eps, spec.master_seed)
    assert ((grid.solver, grid.alpha, grid.lambda_trace, grid.iters)
            == (cfg.method, cfg.alpha, cfg.lambda_trace, cfg.max_iters))
    assert parse(["converge", "--out", "o"]).iters == cfg.max_iters
    assert (inspect.signature(harness.run_convergence_study).parameters["iters"].default
            == cfg.max_iters)
    assert parse(["certify", "--m", "5", "--out", "o"]).beta == CertificateParams(anchor).beta
    assert parse(["solve", "--input", "f.csv", "--n", "2"]).iters == cfg.max_iters


class TestParseRange:
    def test_triplet_inclusive(self):
        assert parse_range("5:50:5") == list(range(5, 51, 5))
        assert parse_range("10:250:10") == list(range(10, 251, 10))

    def test_single_value(self):
        assert parse_range("7") == [7]

    def test_bad_input(self):
        with pytest.raises(ValueError):
            parse_range("5:10")
        with pytest.raises(ValueError):
            parse_range("10:5:1")


class TestGridCommand:
    def test_outputs_and_reproducibility(self, tmp_path):
        base = ["--threads", "1", "grid", "--n", "2:3:1", "--m", "6:9:3",
                "--trials", "2", "--eps", "0.1", "--iters", "50", "--seed", "9"]
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert main(base + ["--out", str(out1)]) == 0
        rc = main(["--threads", "2"] + base[2:] + ["--out", str(out2)])
        assert rc == 0
        for name in ("grid.csv", "heatmap.pgm"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("threads", ["-1", "-3"])
    def test_negative_threads_exit_2(self, tmp_path, capsys, threads):
        out = tmp_path / "g"
        assert main(["--threads", threads, "grid", "--n", "2", "--m", "6",
                     "--trials", "1", "--iters", "5", "--out", str(out)]) == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, name", [
        (["--eps", "nan"], "eps"),
        (["--eps", "-0.1"], "eps"),
        (["--solver", "nesterov", "--alpha", "nan"], "alpha"),
        (["--lambda", "nan"], "lambda_trace"),
    ], ids=["eps-nan", "eps-negative", "alpha-nan", "lambda-nan"])
    def test_bad_numbers_exit_2_before_any_trial(self, tmp_path, capsys, monkeypatch, flags, name):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", no_trials)
        out = tmp_path / "g"
        assert main(["--threads", "1", "grid", "--n", "2", "--m", "6", "--trials", "1",
                     "--iters", "5", "--out", str(out)] + flags) == 2
        assert name in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--n", "0:20:5", "--m", "6"],
        ["--n", "2", "--m", "0:12:6"],
    ], ids=["n-zero", "m-zero"])
    def test_n_or_m_below_1_exit_2_before_any_trial(self, tmp_path, capsys, monkeypatch, flags):
        # n = 0 trials cost nothing, so they would be scheduled last
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", no_trials)
        out = tmp_path / "g"
        assert main(["--threads", "1", "grid", "--trials", "1", "--iters", "5",
                     "--out", str(out)] + flags) == 2
        assert "n and m must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_out_is_a_file_exit_2_before_any_trial(self, tmp_path, capsys, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", no_trials)
        out = tmp_path / "taken"
        out.write_text("keep\n")
        assert main(["--threads", "1", "grid", "--n", "2", "--m", "6", "--trials", "1",
                     "--iters", "5", "--out", str(out)]) == 2
        assert "taken" in capsys.readouterr().err
        assert out.read_text() == "keep\n"

    def test_heatmap_is_valid_pgm(self, tmp_path):
        out = tmp_path / "g"
        assert main(["--threads", "1", "grid", "--n", "2", "--m", "6:9:3",
                     "--trials", "1", "--eps", "0.0", "--iters", "30",
                     "--seed", "1", "--out", str(out)]) == 0
        lines = (out / "heatmap.pgm").read_text().splitlines()
        assert lines[0] == "P2" and lines[1] == "2 1" and lines[2] == "255"
        assert all(0 <= int(tok) <= 255 for tok in lines[3].split())


class TestConvergeCommand:
    def test_six_files(self, tmp_path):
        out = tmp_path / "c"
        assert main(["converge", "--n", "4", "--m", "10", "--seed", "3",
                     "--iters", "20", "--out", str(out)]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == sorted([
            "dr_0.csv", "dr_0.1.csv", "nesterov_0.csv", "nesterov_0.1.csv",
            "nesterov_trace_0.csv", "nesterov_trace_0.1.csv",
        ])


class TestCertifyCommand:
    def test_outputs(self, tmp_path):
        out = tmp_path / "y"
        assert main(["certify", "--n", "6", "--m", "120", "--beta", "1.0",
                     "--seeds", "3", "--seed", "2", "--out", str(out)]) == 0
        csv_lines = (out / "certificates.csv").read_text().splitlines()
        assert len(csv_lines) == 4
        assert csv_lines[0] == ("trial,seed,y_t_nuclear,t_perp_min_eig,t_perp_dev,lambda_l1,"
                                "truncation_rate,pass_y_t,pass_t_perp,pass_lambda")
        summary = (out / "summary.txt").read_text()
        assert "frac_pass_all=" in summary
        assert "mean_lambda_l1=" in summary

    def test_zero_seeds_exit_2(self, tmp_path, capsys):
        out = tmp_path / "y"
        assert main(["certify", "--n", "6", "--m", "120", "--seeds", "0",
                     "--out", str(out)]) == 2
        assert "seeds must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("beta", ["nan", "-inf"])
    def test_bad_beta_exit_2(self, tmp_path, capsys, beta):
        out = tmp_path / "y"
        assert main(["certify", "--n", "6", "--m", "120", f"--beta={beta}", "--seeds", "2",
                     "--out", str(out)]) == 2
        assert "beta must be positive" in capsys.readouterr().err
        assert not out.exists()


class TestSolveCommand:
    def test_real_recovery(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        n = 3
        x0 = rng.standard_normal(n)
        x0 /= np.linalg.norm(x0)
        e = sample_ensemble(n, 14, seed=5)
        b = measure(e, x0)
        path = tmp_path / "meas.csv"
        write_measurements(path, e, b)
        rc = main(["solve", "--input", str(path), "--n", str(n), "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == n + 1
        x = np.array([float(v) for v in out[:n]])
        assert min(np.linalg.norm(x - x0), np.linalg.norm(x + x0)) <= 1e-6
        assert out[-1].startswith("# residual=")
        assert "eigen_gap=" in out[-1]

    def test_complex_recovery(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        n = 3
        x0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x0 /= np.linalg.norm(x0)
        e = sample_ensemble(n, 20, COMPLEX, seed=6)
        b = measure(e, x0)
        path = tmp_path / "meas.csv"
        write_measurements(path, e, b)
        rc = main(["solve", "--input", str(path), "--n", str(n), "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        x = np.array([complex(v) for v in out[:n]])
        # global phase is unrecoverable; compare up to it
        phase = np.vdot(x, x0)
        phase /= abs(phase)
        assert np.linalg.norm(x * phase - x0) <= 1e-6

    def test_bad_header_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        assert main(["solve", "--input", str(path), "--n", "2", "--seed", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_zero_data_exit_1(self, tmp_path, capsys):
        e = sample_ensemble(3, 10, seed=7)
        b = measure(e, np.zeros(3))
        path = tmp_path / "zero.csv"
        write_measurements(path, e, b)
        assert main(["solve", "--input", str(path), "--n", "3", "--seed", "0"]) == 1
        assert "solver failure" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["0.3,1.0,nan", "0.3,1.0,inf", "inf,1.0,2.0", "0.3,-inf,2.0"],
                             ids=["b-nan", "b-inf", "z-inf", "z-neg-inf"])
    def test_non_finite_exit_2(self, tmp_path, capsys, row):
        path = tmp_path / "nf.csv"
        path.write_text(f"z_1,z_2,b\n1.0,0.5,2.0\n{row}\n")
        assert main(["solve", "--input", str(path), "--n", "2", "--seed", "0"]) == 2
        assert "nf.csv:3: non-finite entry" in capsys.readouterr().err

    def test_no_positive_measurement_exit_2(self, tmp_path, capsys):
        e = sample_ensemble(3, 10, seed=7)
        b = measure(e, np.ones(3))
        b.values[4] = -0.5  # one negative entry, as noise can give, stays accepted
        path = tmp_path / "neg.csv"
        write_measurements(path, e, b)
        assert np.array_equal(read_measurements(path, 3)[1].values, b.values)
        b.values[:] = -np.abs(b.values)
        write_measurements(path, e, b)
        assert main(["solve", "--input", str(path), "--n", "3", "--seed", "0"]) == 2
        assert "no positive measurement" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [0, -1])
    def test_nonpositive_n_exit_2(self, tmp_path, capsys, n):
        path = tmp_path / "b.csv"
        path.write_text("b\n1.0\n")
        assert main(["solve", "--input", str(path), "--n", str(n), "--seed", "0"]) == 2
        assert "n must be >= 1" in capsys.readouterr().err

    def test_non_numeric_exit_2(self, tmp_path):
        path = tmp_path / "nn.csv"
        path.write_text("z_1,z_2,b\n1.0,oops,3.0\n")
        assert main(["solve", "--input", str(path), "--n", "2", "--seed", "0"]) == 2


class TestFileErrors:
    def test_missing_input_exit_2(self, tmp_path, capsys):
        path = tmp_path / "absent.csv"
        assert main(["solve", "--input", str(path), "--n", "2", "--seed", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "absent.csv" in err

    @pytest.mark.parametrize("argv", [
        ["grid", "--n", "2", "--m", "6", "--trials", "1", "--iters", "5"],
        ["converge", "--n", "2", "--m", "6", "--iters", "5"],
        ["certify", "--n", "2", "--m", "6", "--seeds", "1"],
    ], ids=["grid", "converge", "certify"])
    def test_out_is_a_file_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "taken"
        out.write_text("keep\n")
        assert main(["--threads", "1"] + argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "taken" in err
        assert out.read_text() == "keep\n"


@pytest.mark.parametrize("argv", [
    ["certify", "--n", "1", "--m", "6", "--seeds", "1"],
    ["certify", "--n", "4", "--m", "0", "--seeds", "1"],
    ["certify", "--n", "4", "--m", "6", "--beta", "nan", "--seeds", "1"],
    ["converge", "--n", "2", "--m", "6", "--iters", "0"],
    ["converge", "--n", "0", "--m", "6", "--iters", "5"],
], ids=["certify-n1", "certify-m0", "certify-beta-nan", "converge-iters0", "converge-n0"])
def test_rejected_input_creates_no_out_dir(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


class TestReadMeasurements:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        e = sample_ensemble(4, 6, seed=8)
        b = measure(e, rng.standard_normal(4))
        path = tmp_path / "m.csv"
        write_measurements(path, e, b)
        e2, b2 = read_measurements(path, 4)
        assert np.array_equal(e2.vectors, e.vectors)
        assert np.array_equal(b2.values, b.values)

    def test_column_count_mismatch(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("z_1,z_2,b\n1.0,2.0\n")
        with pytest.raises(ValueError, match="columns"):
            read_measurements(path, 2)

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_crlf_and_quoted_fields(self, tmp_path, field):
        e = sample_ensemble(3, 7, field, seed=9)
        b = measure(e, np.ones(3))
        plain = tmp_path / "plain.csv"
        write_measurements(plain, e, b)
        lines = plain.read_text().splitlines()
        lines[0] = ",".join(f'"{h}"' for h in lines[0].split(","))
        lines[2] = ",".join(f'"{t}"' for t in lines[2].split(","))
        dialect = tmp_path / "dialect.csv"
        dialect.write_bytes(("\r\n".join(lines[:4] + [""] + lines[4:]) + "\r\n").encode())
        for got in (read_measurements(plain, 3), read_measurements(dialect, 3)):
            assert np.array_equal(got[0].vectors, e.vectors)
            assert np.array_equal(got[1].values, b.values)

    def test_whitespace_only_line_is_blank(self, tmp_path, capsys):
        path = tmp_path / "ws.csv"
        path.write_text("z_1,z_2,b\n1.0,0.5,2.0\n   \n0.3,1.0,2.0\n\t \n")
        e, b = read_measurements(path, 2)
        assert e.vectors.tolist() == [[1.0, 0.5], [0.3, 1.0]]
        assert b.values.tolist() == [2.0, 2.0]
        assert main(["solve", "--input", str(path), "--n", "2", "--iters", "5"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_hash_is_not_a_comment(self, tmp_path, capsys):
        path = tmp_path / "h.csv"
        path.write_text("z_1,z_2,b\n1.0,0.5,2.0\n0.3,1.0 # note,2.0\n")
        assert main(["solve", "--input", str(path), "--n", "2", "--seed", "0"]) == 2
        assert "h.csv:3: non-numeric entry" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, where", [
        ("1.0,2.0,3.0\n\n1.0,2.0\n", "m.csv:4: expected 3 columns, got 2"),
        ("1.0,2.0\n1.0,2.0,3.0\n", "m.csv:2: expected 3 columns, got 2"),
        ("1.0,0.5,2.0\n\n0.3,nan,2.0\n", "m.csv:4: non-finite entry"),
        ("1.0,2.0,3.0\n   \n1.0,2.0\n", "m.csv:4: expected 3 columns, got 2"),
        ("1.0,0.5,2.0\n \t\n0.3,nan,2.0\n", "m.csv:4: non-finite entry"),
    ], ids=["short-row-after-blank", "short-first-row", "non-finite-after-blank",
            "short-row-after-spaces", "non-finite-after-spaces-and-tab"])
    def test_bad_row_names_its_line(self, tmp_path, rows, where):
        path = tmp_path / "m.csv"
        path.write_text("z_1,z_2,b\n" + rows)
        with pytest.raises(ValueError, match=where):
            read_measurements(path, 2)


def run_cli(args, blas_threads, cwd):
    """The CLI in a fresh interpreter whose OpenBLAS starts with `blas_threads` threads."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "phasefeas.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def assert_same_files(args, files, tmp_path):
    """The CLI writes the same `files` files under `--out` at one and at two OpenBLAS threads."""
    outputs = []
    for threads in (1, 2):
        out = tmp_path / str(threads)
        run_cli(args + ["--out", str(out)], threads, tmp_path)
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(outputs[0]) == files
    assert outputs[0] == outputs[1]


class TestBlasThreadCountInvariance:
    # OpenBLAS rounds a lone solve's Gram eigh and Z @ Z.T differently at one
    # and at two threads above m of about 130, and a grid stack already at
    # a padded M of 110; every solve runs on one.
    def test_converge_bytes(self, tmp_path):
        assert_same_files(["converge", "--n", "20", "--m", "250", "--iters", "300"], 6, tmp_path)

    def test_certify_bytes(self, tmp_path):
        # certify solves nothing, so it runs at the host's thread count
        assert_same_files(["certify", "--n", "20", "--m", "1199", "--seeds", "4"], 2, tmp_path)

    def test_grid_bytes(self, tmp_path):
        assert_same_files(["--threads", "2", "grid", "--n", "10:12:2", "--m", "130:190:30",
                           "--trials", "3", "--iters", "100"], 2, tmp_path)

    def test_grid_stack_bytes_below_m_130(self, tmp_path):
        # one stack of 3 trials per n, padded to M = 110
        assert_same_files(["--threads", "2", "grid", "--n", "10:20:5", "--m", "90:110:10",
                           "--trials", "1", "--iters", "100"], 2, tmp_path)

    def test_solve_bytes(self, tmp_path):
        n, m = 50, 250
        x0 = np.random.default_rng(7).standard_normal(n)
        e = sample_ensemble(n, m, seed=7)
        path = tmp_path / "meas.csv"
        write_measurements(path, e, measure(e, x0 / np.linalg.norm(x0)))
        args = ["solve", "--input", str(path), "--n", str(n), "--iters", "300"]
        assert run_cli(args, 1, tmp_path) == run_cli(args, 2, tmp_path)
