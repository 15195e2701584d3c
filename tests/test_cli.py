import numpy as np
import pytest

from phasefeas.cli import main, parse_range, read_measurements
from phasefeas.linalg import COMPLEX, REAL
from phasefeas.sensing import measure, sample_ensemble


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
        assert csv_lines[0].startswith("trial,seed,y_t_nuclear")
        summary = (out / "summary.txt").read_text()
        assert "frac_pass_all=" in summary
        assert "mean_lambda_l1=" in summary


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

    def test_non_numeric_exit_2(self, tmp_path):
        path = tmp_path / "nn.csv"
        path.write_text("z_1,z_2,b\n1.0,oops,3.0\n")
        assert main(["solve", "--input", str(path), "--n", "2", "--seed", "0"]) == 2


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
