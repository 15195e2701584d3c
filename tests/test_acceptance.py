"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Each check runs at fixed, pinned parameters and tolerances; the
ones that cannot hold at those exact parameter points fail honestly with
the measured numbers in the message rather than being loosened (companion
supplementary tests show the same assertions passing at neighboring
parameters where the phenomena exist).
"""

import math
import time

import numpy as np
import pytest

from phasefeas.certificate import (
    CertificateParams,
    build_certificate,
    certificate_weights,
    check_certificate,
)
from phasefeas.cli import main as cli_main
from phasefeas.harness import (
    GridSpec,
    cell_means,
    run_convergence_study,
    run_grid,
    sample_unit_sphere,
)
from phasefeas.linalg import COMPLEX, REAL, hermitize, hs_inner, project_T, project_Tperp
from phasefeas.projections import (
    build_affine_projector,
    vector_error_up_to_phase,
)
from phasefeas.sensing import (
    add_noise,
    apply_adjoint,
    apply_lifted,
    derive_seed,
    measure,
    s_apply,
    s_inverse,
    sample_ensemble,
)
from phasefeas.solvers import SolverConfig, round_to_vector, solve_dr, solve_nesterov

WORKERS = 2


def conclude(num, slug, failures, started):
    elapsed = time.time() - started
    if failures:
        print(f"[criterion {num}] {slug}: FAIL ({elapsed:.1f}s): " + "; ".join(failures))
    else:
        print(f"[criterion {num}] {slug}: PASS ({elapsed:.1f}s)")
    assert not failures, f"criterion {num} ({slug}): " + "; ".join(failures)


def rand_hermitian(rng, n, field):
    A = rng.standard_normal((n, n))
    if field == COMPLEX:
        A = A + 1j * rng.standard_normal((n, n))
    return hermitize(A)


def rand_vec(rng, n, field):
    v = rng.standard_normal(n)
    if field == COMPLEX:
        v = v + 1j * rng.standard_normal(n)
    return v


def instance(n, m, seed, eps):
    x0 = sample_unit_sphere(n, derive_seed(seed, 0))
    e = sample_ensemble(n, m, REAL, derive_seed(seed, 1))
    b = add_noise(measure(e, x0), eps, 1.0, seed=derive_seed(seed, 2))
    return e, b, x0, np.outer(x0, x0)


def test_criterion_1_operator_identities():
    started = time.time()
    failures = []
    rng = np.random.default_rng(101)
    rel = 1e-10

    for field in (REAL, COMPLEX):
        for n, m in ((3, 5), (10, 40)):
            e = sample_ensemble(n, m, field, seed=derive_seed(101, n, m))
            for _ in range(25):
                # adjoint identity <L(X), lam> = <X, L*(lam)>
                X = rand_hermitian(rng, n, field)
                lam = rng.standard_normal(m)
                lhs = float(apply_lifted(e, X) @ lam)
                rhs = hs_inner(X, apply_adjoint(e, lam))
                if abs(lhs - rhs) > rel * max(1.0, abs(lhs)):
                    failures.append(f"adjoint identity off at {field} n={n} m={m}")
                    break
            for _ in range(25):
                # lifting consistency L(xx*) = A(x)
                x = rand_vec(rng, n, field)
                lifted = apply_lifted(e, np.outer(x, x.conj()))
                direct = measure(e, x).values
                scale = max(1.0, float(np.max(np.abs(direct))))
                if np.max(np.abs(lifted - direct)) > rel * scale:
                    failures.append(f"lifting consistency off at {field} n={n} m={m}")
                    break
        for _ in range(50):
            # second-moment operator inverse pair, both compositions
            n = int(rng.integers(2, 12))
            X = rand_hermitian(rng, n, field)
            scale = max(1.0, float(np.max(np.abs(X))))
            if np.max(np.abs(s_inverse(s_apply(X, field), field) - X)) > rel * scale:
                failures.append(f"s_inverse(s_apply) != id at {field}")
                break
            if np.max(np.abs(s_apply(s_inverse(X, field), field) - X)) > rel * scale:
                failures.append(f"s_apply(s_inverse) != id at {field}")
                break
        for _ in range(50):
            # tangent/orthogonal projectors sum to the identity
            n = int(rng.integers(2, 12))
            X = rand_hermitian(rng, n, field)
            x = rand_vec(rng, n, field)
            x = x / np.linalg.norm(x)
            back = project_T(X, x) + project_Tperp(X, x)
            scale = max(1.0, float(np.max(np.abs(X))))
            if np.max(np.abs(back - X)) > rel * scale:
                failures.append(f"projector sum off at {field}")
                break
    conclude(1, "operator-identities", failures, started)


def test_criterion_2_moment_oracles():
    started = time.time()
    failures = []
    total = 1_000_000
    chunk = 100_000
    for n in (10, 50):
        targets = {
            "E[z1^4]": 3.0,
            "E[z1^2 |z|^2]": n + 2.0,
            "E[z1^8]": 105.0,
            "E[z1^6 |z|^2]": 15.0 * n + 90.0,
            "E[z1^4 |z|^4]": 3.0 * n**2 + 30.0 * n + 72.0,
            "E[z1^2 |z|^6]": (n + 2.0) * (n + 4.0) * (n + 6.0),
        }
        sums = {k: 0.0 for k in targets}
        sq_sums = {k: 0.0 for k in targets}
        rng = np.random.default_rng(derive_seed(202, n))
        for _ in range(total // chunk):
            Z = rng.standard_normal((chunk, n))
            z1sq = Z[:, 0] ** 2
            nrm = np.sum(Z**2, axis=1)
            samples = {
                "E[z1^4]": z1sq**2,
                "E[z1^2 |z|^2]": z1sq * nrm,
                "E[z1^8]": z1sq**4,
                "E[z1^6 |z|^2]": z1sq**3 * nrm,
                "E[z1^4 |z|^4]": z1sq**2 * nrm**2,
                "E[z1^2 |z|^6]": z1sq * nrm**3,
            }
            for k, q in samples.items():
                sums[k] += float(q.sum())
                sq_sums[k] += float((q * q).sum())
        for k, target in targets.items():
            mean = sums[k] / total
            var = sq_sums[k] / total - mean**2
            se = math.sqrt(var / total)
            if abs(mean - target) > 4 * se:
                failures.append(f"{k} at n={n}: {mean:.4f} vs {target:.4f} (4SE={4*se:.4f})")
    conclude(2, "moment-oracles", failures, started)


def test_criterion_3_exact_recovery():
    started = time.time()
    failures = []
    cfg = SolverConfig(max_iters=1000, record_every=1000)

    hits = 0
    for seed in range(10):
        e, b, x0, X0 = instance(2, 3, seed, 0.0)
        # independent oracle: direct solve of the 3-unknown affine system
        Z = e.vectors
        A = np.column_stack([Z[:, 0] ** 2, Z[:, 1] ** 2, 2 * Z[:, 0] * Z[:, 1]])
        x11, x22, x12 = np.linalg.solve(A, b.values)
        oracle = np.array([[x11, x12], [x12, x22]])
        if np.max(np.abs(oracle - X0)) > 1e-8:
            failures.append(f"n=2 oracle mismatch at seed {seed}")
            continue
        t = solve_dr(build_affine_projector(e, b), e, cfg, X0_true=X0)
        hits += t.points[-1].recovery_error <= 1e-6
    if hits < 9:
        failures.append(f"n=2,m=3: only {hits}/10 seeds reached 1e-6")

    hits = 0
    for seed in range(10):
        e, b, x0, X0 = instance(10, 60, seed, 0.0)
        t = solve_dr(build_affine_projector(e, b), e, cfg, X0_true=X0)
        hits += t.points[-1].recovery_error <= 1e-6
    if hits < 9:
        failures.append(f"n=10,m=60: only {hits}/10 seeds reached 1e-6")
    conclude(3, "exact-recovery", failures, started)


def read_trace(path):
    lines = path.read_text().splitlines()[1:]
    its, errs = [], []
    for line in lines:
        parts = line.split(",")
        its.append(int(parts[0]))
        errs.append(float(parts[1]))
    return its, errs


def decreasing_range_fit(errs):
    """Linear fit of log10 error over the pre-saturation range.

    Range rule (fixed up front): iterations from 0 until the error first
    comes within one decade of its eventual floor.
    """
    floor = min(e for e in errs if e > 0)
    stop = next(k for k, e in enumerate(errs) if e <= 10 * floor)
    stop = max(stop, 1)
    ys = np.log10(np.maximum(errs[: stop + 1], 1e-300))
    xs = np.arange(stop + 1, dtype=float)
    A = np.vstack([xs, np.ones_like(xs)]).T
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    fit = A @ coef
    ss_res = float(np.sum((ys - fit) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), r2


def convergence_shape_failures(n, m, seed, tmp_path):
    eps = 0.1
    paths = run_convergence_study(n, m, seed, tmp_path, iters=1000)
    assert len(paths) == 6
    failures = []

    _, dr0 = read_trace(tmp_path / "dr_0.csv")
    slope, r2 = decreasing_range_fit(dr0)
    if not (slope < 0 and r2 >= 0.9):
        failures.append(f"(a) DR noiseless fit: slope={slope:.3f}, R2={r2:.3f} < 0.9")

    for name in ("dr", "nesterov"):
        _, noisy = read_trace(tmp_path / f"{name}_0.1.csv")
        final = noisy[-1]
        if not (eps / 10 <= final <= 10 * eps):
            failures.append(f"(b) {name} noisy final {final:.4f} outside [{eps/10}, {10*eps}]")

    _, tr0 = read_trace(tmp_path / "nesterov_trace_0.csv")
    if not tr0[-1] > min(dr0):
        failures.append(f"(c) trace-penalty plateau {tr0[-1]:.2e} not above DR floor {min(dr0):.2e}")
    return failures


def test_criterion_4_convergence_shape(tmp_path):
    started = time.time()
    failures = convergence_shape_failures(10, 60, 1, tmp_path)
    conclude(4, "convergence-shape", failures, started)


def test_supplementary_convergence_shape_underdetermined(tmp_path):
    # same three sub-assertions at the underdetermined neighbor m=40, where
    # the multi-iteration linear decay exists; at the pinned m=60 the affine
    # slice is a single point (m >= n(n+1)/2) and the curve is a step
    failures = convergence_shape_failures(10, 40, 1, tmp_path)
    print("[supplementary] convergence-shape at m=40: "
          + ("PASS" if not failures else "FAIL: " + "; ".join(failures)))
    assert not failures


def test_criterion_5_phase_transition_reduced():
    started = time.time()
    failures = []
    n_values = [5, 10, 15, 20]
    m_values = list(range(10, 111, 10))
    spec = GridSpec(n_values=n_values, m_values=m_values, trials=5, eps=0.1,
                    solver=SolverConfig(max_iters=1000, record_every=1000),
                    master_seed=0)
    means = cell_means(run_grid(spec, workers=WORKERS))

    for n in (10, 15, 20):
        hi = means[(n, m_values[-1])][0]
        lo = means[(n, m_values[0])][0]
        if not hi < 0.2:
            failures.append(f"mean error at n={n}, m={m_values[-1]} is {hi:.3f} >= 0.2")
        if not lo > 0.5:
            failures.append(f"mean error at n={n}, m={m_values[0]} is {lo:.3f} <= 0.5")

    def threshold(n):
        for m in m_values:
            if means[(n, m)][0] < 0.05:
                return m
        return None

    t10, t20 = threshold(10), threshold(20)
    if t10 is None or t20 is None:
        failures.append(f"no <0.05 threshold inside the grid (t10={t10}, t20={t20})")
    elif not t20 / t10 < 3.5:
        failures.append(f"threshold ratio {t20}/{t10} = {t20 / t10:.2f} >= 3.5")
    if not failures:
        print(f"  [grid] thresholds: m(n=10)={t10}, m(n=20)={t20}, ratio {t20 / t10:.2f}")
    conclude(5, "phase-transition-reduced", failures, started)


def test_criterion_6_certificate():
    started = time.time()
    failures = []

    n = 20
    m = math.ceil(20 * n * math.log(n))
    passes = 0
    for k in range(100):
        seed = derive_seed(606, k)
        anchor = sample_unit_sphere(n, derive_seed(seed, 0))
        e = sample_ensemble(n, m, REAL, derive_seed(seed, 1))
        Y, lam = build_certificate(e, CertificateParams(anchor=anchor, beta=1.0))
        passes += check_certificate(Y, lam, anchor).all_pass
    if passes < 90:
        failures.append(
            f"thresholds hold in {passes}/100 seeds at n={n}, m={m}, beta=1 (need >= 90)")

    # untruncated expectation: E[sample average] = 2(I - x0 x0*), 5 SE
    n6, m6 = 6, 200_000
    anchor = np.zeros(n6)
    anchor[0] = 1.0
    e = sample_ensemble(n6, m6, REAL, seed=607)
    Y, _ = build_certificate(e, CertificateParams(anchor=anchor, beta=math.inf))
    target = 2.0 * (np.eye(n6) - np.outer(anchor, anchor))
    Z, w = e.vectors, certificate_weights(e, anchor)
    second = ((Z**2).T * w**2) @ (Z**2) / m6
    se = np.sqrt((second - Y**2) / m6)
    if not np.all(np.abs(Y - target) <= 5 * se):
        worst = float(np.max(np.abs(Y - target) / se))
        failures.append(f"untruncated expectation off: worst deviation {worst:.2f} SE > 5")
    conclude(6, "certificate-verification", failures, started)


def test_criterion_7_determinacy():
    started = time.time()
    failures = []
    cfg = SolverConfig(max_iters=1000, record_every=1000)
    for seed in range(10):
        e, b, x0, X0 = instance(3, 40, seed, 0.0)
        p = build_affine_projector(e, b)
        rng = np.random.default_rng(derive_seed(seed, 7))
        t1 = solve_dr(p, e, cfg, X_start=hermitize(rng.standard_normal((3, 3))))
        t2 = solve_dr(p, e, cfg, X_start=hermitize(rng.standard_normal((3, 3))) + np.eye(3))
        gap = np.linalg.norm(t1.final_X - t2.final_X)
        if gap > 1e-6:
            failures.append(f"seed {seed}: starts disagree by {gap:.2e}")
    conclude(7, "determinacy", failures, started)


def test_criterion_8_noise_stability():
    started = time.time()
    failures = []
    cfg = SolverConfig(max_iters=1000, record_every=1000)
    eps_values = (0.01, 0.05, 0.1)
    medians = []
    vec_hits, runs = 0, 0
    for eps in eps_values:
        ratios = []
        for k in range(20):
            seed = derive_seed(808, int(eps * 1000), k)
            e, b, x0, X0 = instance(10, 100, seed, eps)
            t = solve_dr(build_affine_projector(e, b), e, cfg, X0_true=X0)
            ratios.append(t.points[-1].recovery_error / eps)
            x, _ = round_to_vector(t)
            vec_hits += vector_error_up_to_phase(x, x0) <= 8 * eps
            runs += 1
        medians.append(float(np.median(ratios)))
    print(f"  [stability] median error/eps: "
          + ", ".join(f"{e}:{m:.3f}" for e, m in zip(eps_values, medians)))
    for eps, med in zip(eps_values, medians):
        if not 0.1 <= med <= 20.0:
            failures.append(f"median ratio {med:.3f} at eps={eps} outside [0.1, 20]")
    if not all(a >= b for a, b in zip(medians, medians[1:])):
        failures.append(f"medians not non-increasing: {[f'{m:.3f}' for m in medians]}")
    if vec_hits < 0.9 * runs:
        failures.append(f"vector error <= 8 eps in only {vec_hits}/{runs} runs")
    conclude(8, "noise-stability", failures, started)


def test_criterion_9_reproducibility(tmp_path):
    started = time.time()
    failures = []

    grid_args = ["grid", "--n", "2:3:1", "--m", "6:9:3", "--trials", "2",
                 "--eps", "0.1", "--iters", "50", "--seed", "9"]
    out1, out2 = tmp_path / "g1", tmp_path / "g2"
    assert cli_main(["--threads", "1"] + grid_args + ["--out", str(out1)]) == 0
    assert cli_main(["--threads", "2"] + grid_args + ["--out", str(out2)]) == 0
    for name in ("grid.csv", "heatmap.pgm"):
        if (out1 / name).read_bytes() != (out2 / name).read_bytes():
            failures.append(f"{name} differs across worker counts")

    c1, c2 = tmp_path / "c1", tmp_path / "c2"
    for out in (c1, c2):
        assert cli_main(["converge", "--n", "4", "--m", "10", "--seed", "3",
                         "--iters", "30", "--out", str(out)]) == 0
    for p in sorted(c1.iterdir()):
        if p.read_bytes() != (c2 / p.name).read_bytes():
            failures.append(f"converge {p.name} differs across reruns")

    y1, y2 = tmp_path / "y1", tmp_path / "y2"
    for out in (y1, y2):
        assert cli_main(["certify", "--n", "6", "--m", "120", "--beta", "1.0",
                         "--seeds", "5", "--seed", "2", "--out", str(out)]) == 0
    for name in ("certificates.csv", "summary.txt"):
        if (y1 / name).read_bytes() != (y2 / name).read_bytes():
            failures.append(f"certify {name} differs across reruns")
    conclude(9, "reproducibility", failures, started)
