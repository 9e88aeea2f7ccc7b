"""Acceptance gate: one test per numbered criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see every line.

Two criteria assert reference values that this library's own optimizer and
closed-form witnesses refute; they are implemented faithfully and fail:

* Criterion 1 expects the 6-dim projector's polydisc supremum to be 5.  The
  hand-checkable tuple t = (1, e^{i pi/4}, e^{-i pi/4}, i, e^{i pi/4},
  e^{-i pi/4}) is feasible and reaches 3 + 2 sqrt(2) ~= 5.8284 (the value 5
  is the maximum of the real-restricted problem and a genuine local maximum
  of the complex one at t = all-ones).

* Criterion 6 expects the 12-dim projector's supremum to sit below
  12 - 1e-3.  The tuple t_j = <a_j|sigma> with sigma = (1, 1, omega, omega)
  is a unimodular eigenvector of the projector, so the supremum is exactly
  12 and no optimizer bracket can certify a gap.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from golden import golden_projector_d3, golden_projector_d4

from grothq import (
    OptimizerConfig,
    build_family,
    build_projector,
    certify_g6,
    eigenvalue_multiplicities,
    eval_C,
    fourier_matrix,
    g_lower,
    g_prime,
    hermitian_eig,
    isotropy_check,
    largest_singular_value,
    max_q_lower,
    norm_entrywise_l1,
    normalization_factor,
    overlap_power_sum,
    permutation_invariance_check,
    phase_system_solvable,
    resolution_check,
    run_h6,
    run_h12,
    torus_witness,
)
from grothq.ensembles import complex_gaussian, random_normal_matrix


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {name}: {status}"
    if detail:
        line += f" — {detail}"
    print(line, flush=True)
    return ok


@pytest.fixture(scope="module")
def pi6():
    return build_projector(build_family(3)).matrix


@pytest.fixture(scope="module")
def pi12():
    return build_projector(build_family(4)).matrix


def test_criterion_01_g_pi6_reproduction(pi6):
    t0 = time.perf_counter()
    run = g_lower(pi6, OptimizerConfig(starts=64, seed=0))
    elapsed = time.perf_counter() - t0
    cert = certify_g6(starts=2, seed=0)

    fast_enough = elapsed < 10.0
    allones_ok = abs(cert.allones_norm_sq - 10.0) <= 1e-12
    returns_five = abs(run.best_value - 5.0) <= 1e-6
    no_start_above = max(run.per_start_values) <= 5.0 + 1e-6

    witness_t, witness_value = torus_witness(3)
    detail = (
        f"best={run.best_value:.12f}, max start={max(run.per_start_values):.12f}, "
        f"all-ones objective={cert.allones_norm_sq}, runtime={elapsed:.2f}s"
    )
    ok = report(1, "6-dim supremum equals 5",
                fast_enough and allones_ok and returns_five and no_start_above, detail)
    assert fast_enough and allones_ok, detail
    assert ok, (
        f"the optimizer returns {run.best_value:.12f}, not 5: the feasible tuple "
        f"t = (1, e^ipi/4, e^-ipi/4, i, e^ipi/4, e^-ipi/4) evaluates to "
        f"{np.abs(pi6 @ witness_t).sum():.12f} = 3 + 2 sqrt(2) > 5, so 5 is not "
        f"the supremum (it is the real-restricted maximum). See notes/decisions."
    )


def test_criterion_02_q_max_reproduction(pi6):
    rec = run_h6(1 / 5)
    closed_ok = abs(rec.q_value - 6 / 5) <= 1e-12
    run = max_q_lower(pi6 / 5, OptimizerConfig(starts=8, seed=0))
    vector_ok = run.best_value >= 6 / 5 - 1e-6
    ok = report(2, "trace value 6/5 at lambda = 1/5",
                closed_ok and vector_ok,
                f"closed form={rec.q_value}, vector optimizer={run.best_value:.9f}")
    assert ok


def test_criterion_03_g_prime_exactness(pi6, pi12):
    checks = [
        abs(g_prime(pi6) - 6.0) <= 1e-9,
        abs(g_prime(pi12) - 12.0) <= 1e-9,
    ]
    for d in (2, 3, 4, 5):
        checks.append(abs(g_prime(fourier_matrix(d)) - d) <= 1e-9)
    ok = report(3, "ball supremum d*s_max exact",
                all(checks),
                f"g'(Pi6)={g_prime(pi6):.12f}, g'(Pi12)={g_prime(pi12):.12f}")
    assert ok


def test_criterion_04_golden_matrices(pi6, pi12):
    dev6 = np.abs(pi6 - golden_projector_d3()).max()
    dev12 = np.abs(pi12 - golden_projector_d4()).max()
    lam6 = hermitian_eig(pi6).eigenvalues
    lam12 = hermitian_eig(pi12).eigenvalues
    mult6 = [(round(v), c) for v, c in eigenvalue_multiplicities(lam6)]
    mult12 = [(round(v), c) for v, c in eigenvalue_multiplicities(lam12)]
    ok = report(4, "golden projectors and spectra",
                dev6 <= 1e-12 and dev12 <= 1e-12
                and mult6 == [(1, 3), (0, 3)] and mult12 == [(1, 4), (0, 8)],
                f"max devs {dev6:.2e}, {dev12:.2e}; spectra {mult6}, {mult12}")
    assert ok


def test_criterion_05_coherent_state_properties():
    checks = []
    for d in (2, 3, 4, 5):
        checks.append(resolution_check(build_family(d)) <= 1e-12)
    for d in (3, 4):
        fam = build_family(d)
        iso, _ = isotropy_check(fam)
        perm, _ = permutation_invariance_check(fam)
        checks.append(iso)
        checks.append(perm)
    fam3, fam4 = build_family(3), build_family(4)
    for r in (1, 2, 3, 4):
        expected3 = 1 + 1 / 2 ** (r - 2)
        expected4 = 1 + (2 ** r + 2) / 3 ** (r - 1)
        checks.append(abs(overlap_power_sum(fam3, 0, r) - expected3) <= 1e-9)
        checks.append(abs(overlap_power_sum(fam4, 0, r) - expected4) <= 1e-9)
    ok = report(5, "resolution/isotropy/invariance/power sums", all(checks))
    assert ok


def test_criterion_06_h12_region_entry(pi12):
    run = g_lower(pi12, OptimizerConfig(starts=64, seed=0))
    certifies_gap = run.best_value < 12.0 - 1e-3

    lam = 1.0 / run.best_value
    q_entered = None
    if lam <= (1 / 12) * (1 + 1e-9):
        rec = run_h12(lam)
        q_entered = rec.q_value > 1.0 and rec.q_value <= 1.4049

    witness_t, _ = torus_witness(4)
    attained = np.abs(pi12 @ witness_t).sum()
    detail = (f"g_lower={run.best_value:.12f} (needs < {12 - 1e-3}), "
              f"q at 1/g_lower={12 * lam:.12f}")
    ok = report(6, "12-dim gap certification and region entry",
                certifies_gap and bool(q_entered), detail)
    assert ok, (
        f"no gap below 12 exists: the unimodular eigenvector witness evaluates "
        f"to {attained:.12f}, so the 12-dim supremum is exactly 12 and the "
        f"trace value at the admissible boundary is exactly 1. See notes/decisions."
    )


def test_criterion_07_ceiling_properties():
    t0 = time.perf_counter()
    worst_quotient = 0.0
    for i in range(1000):
        rng = np.random.default_rng([70, i])
        d = int(rng.integers(2, 7))
        k = random_normal_matrix(rng, d)
        m = complex_gaussian(rng, d)
        e_max = largest_singular_value(k)
        n_m = normalization_factor(m)
        if e_max == 0 or n_m == 0:
            continue
        q = abs(np.trace(k @ m)) / (d * e_max * n_m)
        worst_quotient = max(worst_quotient, q)
    quotient_ok = worst_quotient <= 1.0 + 1e-9

    worst_trace = 0.0
    from grothq.ensembles import random_density, random_unitary
    for i in range(1000):
        rng = np.random.default_rng([71, i])
        d = int(rng.integers(2, 7))
        rho = random_density(rng, d)
        u = random_unitary(rng, d)
        worst_trace = max(worst_trace, abs(np.trace(rho @ u)))
    trace_ok = worst_trace <= 1.0 + 1e-12

    worst_diag = 0.0
    for i in range(1000):
        rng = np.random.default_rng([72, i])
        d = int(rng.integers(2, 6))
        a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        a *= rng.uniform(0, 1) / np.abs(a).sum()
        run = max_q_lower(np.diag(a), OptimizerConfig(starts=2, seed=i))
        worst_diag = max(worst_diag, run.best_value)
    diag_ok = worst_diag <= 1.0 + 1e-9

    elapsed = time.perf_counter() - t0
    ok = report(7, "ceiling properties (3 x 1000 samples)",
                quotient_ok and trace_ok and diag_ok and elapsed < 60.0,
                f"quotient max={worst_quotient:.9f}, trace max={worst_trace:.9f}, "
                f"diag max={worst_diag:.9f}, runtime={elapsed:.1f}s")
    assert ok


def _grid_max(theta, pts=48):
    d = theta.shape[0]
    phases = np.exp(1j * np.linspace(-np.pi, np.pi, pts, endpoint=False))
    idx = np.indices((pts,) * d).reshape(d, -1)
    return float(np.abs(theta @ phases[idx]).sum(axis=0).max())


def _phase_system_bruteforce_2x2(theta):
    # direct elimination with the gauge chi0 = 0, checking the remaining
    # equation modulo 2 pi; independent of the rank-based route
    phi = np.angle(theta)
    psi0 = phi[0, 0]
    psi1 = phi[0, 1]
    chi1 = phi[1, 0] - psi0
    gap = phi[1, 1] - chi1 - psi1
    return abs((gap + np.pi) % (2 * np.pi) - np.pi) < 1e-9


def test_criterion_08_oracle_equivalence():
    rng = np.random.default_rng(800)
    worst_rel = 0.0
    for d, count in ((2, 50), (3, 20)):
        for _ in range(count):
            theta = complex_gaussian(rng, d)
            run = g_lower(theta, OptimizerConfig(starts=32, seed=8))
            grid = _grid_max(theta)
            worst_rel = max(worst_rel, abs(run.best_value - grid) / run.best_value)
            assert grid <= run.best_value + (np.pi / 48) * norm_entrywise_l1(theta)
    grid_ok = worst_rel <= 2e-3

    verdicts_ok = True
    # Hermitian [[a, b], [b*, -c]] instances: never phase-solvable
    for i in range(25):
        r2 = np.random.default_rng([80, i])
        a, c = sorted(r2.uniform(0.1, 2.0, 2))[::-1]
        b = r2.standard_normal() + 1j * r2.standard_normal()
        theta = np.array([[a, b], [np.conj(b), -c]])
        mine = phase_system_solvable(theta).solvable
        brute = _phase_system_bruteforce_2x2(theta)
        verdicts_ok &= (mine == brute == False)
    # permutation-type instances: always solvable
    for i in range(25):
        r2 = np.random.default_rng([81, i])
        d = int(r2.integers(2, 6))
        perm = r2.permutation(d)
        theta = np.zeros((d, d), dtype=complex)
        for row in range(d):
            theta[row, perm[row]] = r2.standard_normal() + 1j * r2.standard_normal()
        verdicts_ok &= phase_system_solvable(theta).solvable

    ok = report(8, "optimizer vs grid oracle and phase verdicts",
                grid_ok and verdicts_ok,
                f"worst relative deviation={worst_rel:.2e} (tolerance 2e-3 relative; "
                f"the 48-point grid itself sits up to ~4e-3 absolute below the max)")
    assert ok


def test_criterion_09_bound_chain_5000():
    rng = np.random.default_rng(900)
    cfg = OptimizerConfig(starts=2, seed=9, max_iterations=4)
    worst_gap = -np.inf
    worst_reeval = 0.0
    for _ in range(5000):
        d = int(rng.integers(2, 7))
        theta = complex_gaussian(rng, d)
        run = g_lower(theta, cfg)
        bound = min(norm_entrywise_l1(theta), d * largest_singular_value(theta))
        worst_gap = max(worst_gap, run.best_value - bound)
        s, t = run.best_witness
        worst_reeval = max(worst_reeval, abs(eval_C(theta, s, t) - run.best_value))
    ok = report(9, "bound chain on 5000 matrices",
                worst_gap <= 1e-8 and worst_reeval <= 1e-12,
                f"worst bound gap={worst_gap:.2e}, worst witness re-eval "
                f"residual={worst_reeval:.2e}")
    assert ok


def test_criterion_10_rarity_determinism():
    argv = [sys.executable, "-m", "grothq.cli", "experiment", "rarity",
            "--ensemble", "random_normal", "--samples", "200", "--seed", "7",
            "--starts", "16"]
    first = subprocess.run(argv, capture_output=True, text=True)
    second = subprocess.run(argv, capture_output=True, text=True)
    same = first.stdout == second.stdout and first.returncode == second.returncode == 0
    lines = first.stdout.strip().splitlines()
    ok = report(10, "rarity runs byte-identical",
                same and len(lines) == 201,
                f"{len(lines) - 1} records + stats, byte-equal={same}")
    assert ok
