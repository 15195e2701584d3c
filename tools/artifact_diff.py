"""Compare the CLI artifacts of two source trees, and check one tree's for invariance.

Usage: python tools/artifact_diff.py OLD_ROOT [NEW_ROOT]

Each root is a checkout that holds `src/phasefeas` (NEW_ROOT defaults to
the repository this script is in; OLD_ROOT may be, for instance, a parent
commit checked out with `git worktree add` or unpacked with `git archive`).
The script imports nothing from either tree: it runs
`python -m phasefeas.cli` in subprocesses with `PYTHONPATH=<root>/src`, in
a temporary directory that it removes afterwards.  It uses the standard
library and numpy only.

Artifacts, each run at OPENBLAS_NUM_THREADS=1 and 2:

  grid            the benchmark grid, --n 5:20:5 --m 10:110:10 --trials 1
                  (8 groups), at --threads 1, 2 and 16
  grid-nesterov   --solver nesterov --alpha 0.05 --n 2:10:2 --m 6:40:6
                  --trials 2 --iters 300 --seed 3 (55 of 60 rows nan; 10
                  groups), at --threads 1, 2 and 16
  converge-10-60  converge --n 10 --m 60
  converge-20-250 converge --n 20 --m 250 --iters 300
  certify         certify --n 20 --m 1199 --seeds 8
  certify-inf     the same at --beta inf: untruncated, so summary.txt
                  holds an `inf` cell (beta=inf)
  solve-real      solve's stdout on a real (n, m) = (50, 250) file
  solve-complex   solve's stdout on a complex (8, 60) file

The two measurement files are written here from fixed numpy seeds.

For each file and OpenBLAS thread count the table gives OLD against NEW:
"identical"; "max R" when only numeric cells differ, R being the largest
|a - b| / (1e-12 + 1e-8 |b|) over them, with b the OLD value (a cell is
what lies between commas, blanks and `=`); or "differs" for any other
difference.  A grid's entry is the worse of its three worker counts; 16
is more than either grid's groups, so that run shows that a worker count
above the group count moves no byte.  The last column says whether NEW's
outputs of that file at every worker count and both thread counts are
byte-identical.

Exit status: 1 when NEW's outputs of some file disagree, or when an OLD
against NEW entry reads "differs" or R > 1; 0 otherwise.
"""

import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np

BLAS_THREADS = (1, 2)
WORKERS = (1, 2, 16)
CELL = re.compile(r"[^,\s=]+")

GRIDS = {
    "grid": ["--n", "5:20:5", "--m", "10:110:10", "--trials", "1"],
    "grid-nesterov": ["--solver", "nesterov", "--alpha", "0.05", "--n", "2:10:2",
                      "--m", "6:40:6", "--trials", "2", "--iters", "300", "--seed", "3"],
}


def write_measurements(path, n, m, complex_field, seed):
    """A noiseless measurements CSV, b = |<z_i, x>|^2, in the layout `solve` reads."""
    rng = np.random.default_rng(seed)
    Z, x = rng.standard_normal((m, n)), rng.standard_normal(n)
    if complex_field:
        Z = (Z + 1j * rng.standard_normal((m, n))) / math.sqrt(2)
        x = x + 1j * rng.standard_normal(n)
        header = [f"{p}_{k}" for k in range(1, n + 1) for p in ("re", "im")]
        cols = np.stack([Z.real, Z.imag], axis=-1).reshape(m, 2 * n)
    else:
        header = [f"z_{k}" for k in range(1, n + 1)]
        cols = Z
    b = np.abs(Z @ x) ** 2
    rows = [",".join(repr(float(v)) for v in (*row, bi)) for row, bi in zip(cols, b)]
    with open(path, "w") as fh:
        fh.write(",".join(header + ["b"]) + "\n" + "\n".join(rows) + "\n")


def commands(tmp):
    """(artifact, CLI arguments, grid worker count or None) per run; writes the two input files."""
    real, cplx = os.path.join(tmp, "real.csv"), os.path.join(tmp, "complex.csv")
    write_measurements(real, 50, 250, False, seed=20121208)
    write_measurements(cplx, 8, 60, True, seed=1803)
    runs = [(name, ["--threads", str(w), "grid", *args], w)
            for name, args in GRIDS.items() for w in WORKERS]
    runs += [("converge-10-60", ["converge", "--n", "10", "--m", "60"], None),
             ("converge-20-250", ["converge", "--n", "20", "--m", "250", "--iters", "300"], None),
             ("certify", ["certify", "--n", "20", "--m", "1199", "--seeds", "8"], None),
             ("certify-inf", ["certify", "--n", "20", "--m", "1199", "--seeds", "8",
                              "--beta", "inf"], None),
             ("solve-real", ["solve", "--input", real, "--n", "50"], None),
             ("solve-complex", ["solve", "--input", cplx, "--n", "8"], None)]
    return runs


def run(root, argv, blas, out):
    """{file name: bytes} of one CLI run; `solve`'s stdout is the file "stdout"."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), OPENBLAS_NUM_THREADS=str(blas))
    to_stdout = argv[0] == "solve"
    cmd = [sys.executable, "-m", "phasefeas.cli", *argv] + ([] if to_stdout else ["--out", out])
    proc = subprocess.run(cmd, env=env, cwd=os.path.dirname(out), capture_output=True)
    if proc.returncode != 0:
        sys.exit(f"{root}: {' '.join(argv)} exited {proc.returncode}: "
                 f"{proc.stderr.decode().strip()}")
    if to_stdout:
        return {"stdout": proc.stdout}
    files = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            files[name] = fh.read()
    return files


def compare(old, new):
    """0 for identical bytes, the largest cell ratio R when only numbers differ, inf otherwise."""
    if old == new:
        return 0.0
    if old is None or new is None:
        return math.inf
    old_lines, new_lines = old.decode().splitlines(), new.decode().splitlines()
    if len(old_lines) != len(new_lines):
        return math.inf
    worst = 0.0
    for lb, la in zip(old_lines, new_lines):
        cells_b, cells_a = CELL.findall(lb), CELL.findall(la)
        if CELL.sub("", lb) != CELL.sub("", la) or len(cells_b) != len(cells_a):
            return math.inf
        for tb, ta in zip(cells_b, cells_a):
            if tb == ta:
                continue
            try:
                b, a = complex(tb), complex(ta)
            except ValueError:
                return math.inf
            ratio = abs(a - b) / (1e-12 + 1e-8 * abs(b))
            if not math.isfinite(ratio):
                return math.inf
            worst = max(worst, ratio)
    return worst


def describe(old, new, ratio):
    if old == new:
        return "identical"
    return "differs" if math.isinf(ratio) else f"max {ratio:.3g}"


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__.split("\n\n")[1])
    here = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    old_root, new_root = (os.path.abspath(r) for r in (argv[1], argv[2] if len(argv) > 2 else here))
    outputs = {}  # (side, artifact, blas, workers) -> {file: bytes}
    with tempfile.TemporaryDirectory(prefix="artifact_diff_") as tmp:
        for k, (artifact, args, workers) in enumerate(commands(tmp)):
            for blas in BLAS_THREADS:
                for side, root in (("old", old_root), ("new", new_root)):
                    out = os.path.join(tmp, f"{side}-{k}-{blas}", "out")
                    os.makedirs(os.path.dirname(out))
                    outputs[side, artifact, blas, workers] = run(root, args, blas, out)
    failed = False
    print(f"OLD {old_root}\nNEW {new_root}")
    head = ["artifact", "file"] + [f"OPENBLAS={t}" for t in BLAS_THREADS] + ["NEW runs agree"]
    table = [head]
    for artifact in dict.fromkeys(key[1] for key in outputs):
        runs = [(b, w) for side, a, b, w in outputs if side == "new" and a == artifact]
        names = sorted({f for side in ("old", "new") for b, w in runs
                        for f in outputs[side, artifact, b, w]})
        for name in names:
            old, new = ({(b, w): outputs[side, artifact, b, w].get(name) for b, w in runs}
                        for side in ("old", "new"))
            cells = []
            for blas in BLAS_THREADS:
                ratio, o, n = max(((compare(old[r], new[r]), old[r], new[r])
                                   for r in runs if r[0] == blas), key=lambda t: t[0])
                failed |= ratio > 1
                cells.append(describe(o, n, ratio))
            agree = len(set(new.values())) == 1
            failed |= not agree
            table.append([artifact, name, *cells, "yes" if agree else "NO"])
    widths = [max(len(row[i]) for row in table) for i in range(len(head))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
