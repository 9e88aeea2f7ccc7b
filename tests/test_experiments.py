import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from grothq import (
    InputValidationError,
    certify_g6,
    displacement_operator,
    run_bounded_demo,
    run_h6,
    run_h12,
    run_rarity,
)
from grothq import experiments, forms
from grothq.experiments import (
    G6_AGREEMENT_TOL, RARITY_ENSEMBLES, ConsistencyError, _rarity_sample)
from grothq.forms import G_PRIME_TOL, g_prime
from grothq.linalg import largest_singular_value


# --- 6-dim projector experiment ---

def test_h6_boundary_value():
    rec = run_h6(1 / 6)
    assert rec.q_value == pytest.approx(1.0, abs=1e-12)
    assert rec.region == "classical"
    assert rec.diagnostics["theta_in_G_prime"]
    assert rec.diagnostics["theta_in_G"] == "certified_yes"


def test_h6_max_admissible():
    rec = run_h6(0.2)
    assert rec.q_value == pytest.approx(6 / 5, abs=1e-12)
    assert rec.region == "grothendieck"
    # 0.2 > 1/(3 + 2 sqrt 2): the scaled matrix is certified outside the
    # polydisc unit set, so this value carries no membership guarantee
    assert rec.diagnostics["theta_in_G"] == "certified_no"


def test_h6_linearity():
    rec = run_h6(1 / 12)
    assert rec.q_value == pytest.approx(0.5, abs=1e-12)
    for lam in (0.01, 0.05, 0.15):
        assert run_h6(lam).q_value == pytest.approx(6 * lam, abs=1e-12)


def test_h6_witness_boundary_value():
    lam = 1 / (3 + 2 * np.sqrt(2))
    rec = run_h6(lam)
    assert rec.q_value == pytest.approx(6 * (3 - 2 * np.sqrt(2)), abs=1e-9)
    assert rec.q_value == pytest.approx(18 - 12 * np.sqrt(2), abs=1e-9)
    assert rec.region == "grothendieck"
    assert rec.diagnostics["theta_in_G"] == "unknown"


def test_h6_rejects_out_of_range():
    for lam in (0.0, -0.1, 0.21, 5.0):
        with pytest.raises(InputValidationError):
            run_h6(lam)


def test_h6_membership_bands():
    assert run_h6(0.16).diagnostics["theta_in_G"] == "certified_yes"
    assert run_h6(0.17).diagnostics["theta_in_G"] == "unknown"
    assert run_h6(0.18).diagnostics["theta_in_G"] == "certified_no"


# --- 12-dim projector experiment ---

def test_h12_boundary_value():
    rec = run_h12(1 / 12)
    assert rec.q_value == pytest.approx(1.0, abs=1e-12)
    assert rec.region == "classical"
    assert rec.diagnostics["theta_in_G"] == "certified_yes"
    assert rec.diagnostics["theta_in_G_prime"]


def test_h12_linearity():
    assert run_h12(1 / 24).q_value == pytest.approx(0.5, abs=1e-12)


def test_h12_rejects_beyond_certified_boundary():
    # the classical supremum of the 12-dim projector is exactly 12, so any
    # scale above 1/12 leaves the unit set; the admissible range is (0, 1/12]
    with pytest.raises(InputValidationError):
        run_h12((1 / 12) * 1.001)


@pytest.mark.parametrize("run, lam", [(run_h6, 0.1), (run_h12, 0.05)])
def test_projector_experiment_raises_when_the_trace_leaves_the_closed_form(
        monkeypatch, run, lam):
    real = experiments.eval_Q_trace
    monkeypatch.setattr(experiments, "eval_Q_trace",
                        lambda *args: real(*args) * (1 + 1e-8))
    with pytest.raises(ConsistencyError, match="disagrees with closed form"):
        run(lam)


def test_h12_diagnostics():
    rec = run_h12(0.05)
    assert rec.diagnostics["g_witness_value"] == pytest.approx(12.0, abs=1e-12)


# --- g_lower against the exact torus witness of Pi_6 ---

def test_certify_g6_routes_agree():
    cert = certify_g6(starts=24, seed=0)
    assert cert.agrees
    assert cert.general_value == pytest.approx(cert.specialized_value, abs=1e-6)
    assert cert.general_value == pytest.approx(3 + 2 * np.sqrt(2), abs=1e-6)
    assert cert.specialized_norm_sq_max == pytest.approx(6 + 4 * np.sqrt(2), abs=1e-6)


def test_certify_g6_allones_landmark():
    cert = certify_g6(starts=2, seed=0)
    assert cert.allones_norm_sq == pytest.approx(10.0, abs=1e-12)
    assert sorted(cert.allones_abc) == pytest.approx([0.0, 2.0, 4.0], abs=1e-12)
    assert cert.sign_flip_norm_sq == pytest.approx(10.0, abs=1e-12)


def test_certify_g6_serializes():
    doc = certify_g6(starts=2, seed=1).to_dict()
    assert set(doc) >= {"general_value", "specialized_value", "agrees", "witness_t"}


def test_certify_g6_two_starts_agree_on_every_seed():
    # two random starts reach 3 + 2 sqrt 2 for every seed
    for seed in range(200):
        cert = certify_g6(2, seed)
        assert cert.agrees
        assert cert.specialized_value == pytest.approx(3 + 2 * np.sqrt(2), abs=1e-12)


def test_certify_g6_one_start_agrees_on_every_seed():
    # g_lower reaches the witness value from one seeded start on every seed
    for seed in range(200):
        cert = certify_g6(1, seed)
        assert cert.agrees
        assert cert.specialized_value == pytest.approx(3 + 2 * np.sqrt(2), abs=1e-12)
        assert cert.allones_norm_sq == pytest.approx(10.0, abs=1e-12)


@pytest.mark.parametrize("offset, raises", [(-2 * G6_AGREEMENT_TOL, True),
                                            (2 * G6_AGREEMENT_TOL, True),
                                            (-G6_AGREEMENT_TOL / 2, False),
                                            (G6_AGREEMENT_TOL / 2, False)])
def test_certify_g6_checks_g_lower_against_the_witness(monkeypatch, offset, raises):
    value = 3 + 2 * np.sqrt(2) + offset
    real = experiments.g_lower
    monkeypatch.setattr(experiments, "g_lower",
                        lambda theta, config=None: replace(real(theta, config),
                                                           best_value=value))
    if raises:
        with pytest.raises(ConsistencyError, match="disagrees with the torus witness"):
            certify_g6(2, 0)
    else:
        cert = certify_g6(2, 0)
        assert cert.agrees and cert.general_value == value


def test_certify_g6_checks_its_config():
    with pytest.raises(InputValidationError, match="starts must be >= 1"):
        certify_g6(0, 0)
    with pytest.raises(InputValidationError, match="seed must be a non-negative integer"):
        certify_g6(2, -1)


def test_certify_g6_never_imports_scipy():
    code = ("import sys; sys.modules['scipy'] = None; "
            "from grothq import certify_g6; certify_g6(16, 5)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


# --- bounded families ---

def test_bounded_pure_state_saturation():
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = 1.0
    assert abs(np.trace(rho @ np.eye(3))) == pytest.approx(1.0)


def test_bounded_fourier_example():
    # maximally mixed state against the 3-dim Fourier matrix
    from grothq import fourier_matrix
    val = abs(np.trace(fourier_matrix(3))) / 3
    assert val <= 1.0
    assert val == pytest.approx(abs(1 + np.exp(2j * np.pi / 3)) / 3, abs=1e-12)


def test_bounded_demo_never_exceeds_one():
    rec = run_bounded_demo(4, 1000, seed=0)
    assert rec.q_value <= 1.0 + 1e-12
    assert rec.region == "classical"
    assert rec.diagnostics["unit_bound_tighter_always"]
    assert rec.diagnostics["generic_bound_min"] >= 1.0 - 1e-12


def test_bounded_demo_weyl_for_odd_dim():
    rec = run_bounded_demo(5, 50, seed=1)
    assert rec.diagnostics["weyl_max"] is not None
    assert rec.diagnostics["weyl_max"] <= 1.0 + 1e-12


# (1 + 1e-9) I is no unitary: its trace against a density is 1 + 1e-9
@pytest.mark.parametrize("scale, raises", [(1.0, False), (1 + 1e-9, True)])
def test_bounded_demo_checks_the_sampled_trace(monkeypatch, scale, raises):
    monkeypatch.setattr(experiments, "random_unitary", lambda rng, d: scale * np.eye(d))
    if raises:
        with pytest.raises(ConsistencyError, match=r"\|Tr\(rho U\)\| = .* exceeded 1"):
            run_bounded_demo(4, 3, seed=0)
    else:
        assert run_bounded_demo(4, 3, seed=0).q_value == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("scale, raises", [(1.0, False), (1 + 1e-9, True)])
def test_bounded_demo_checks_the_weyl_grid(monkeypatch, scale, raises):
    monkeypatch.setattr(experiments, "displacement_operator",
                        lambda d, a, b: scale * np.eye(d))
    if raises:
        with pytest.raises(ConsistencyError, match="displacement trace .* exceeded 1"):
            run_bounded_demo(3, 3, seed=0)
    else:
        weyl_max = run_bounded_demo(3, 3, seed=0).diagnostics["weyl_max"]
        assert weyl_max == pytest.approx(1.0, abs=1e-12)


def test_bounded_demo_rejects_bad_input():
    with pytest.raises(InputValidationError):
        run_bounded_demo(1, 10, 0)
    with pytest.raises(InputValidationError):
        run_bounded_demo(3, 0, 0)
    with pytest.raises(InputValidationError, match="seed must be a non-negative integer"):
        run_bounded_demo(3, 2, -1)


def test_displacement_operators_unitary():
    for d in (3, 5):
        for a in range(d):
            for b in range(d):
                u = displacement_operator(d, a, b)
                assert np.abs(u @ u.conj().T - np.eye(d)).max() < 1e-12
    with pytest.raises(InputValidationError):
        displacement_operator(4, 1, 1)


@pytest.mark.parametrize("a", [1.5, "1", True])
def test_displacement_operator_checks_a_and_b(a):
    for args in ((3, a, 0), (3, 0, a)):
        with pytest.raises(InputValidationError, match="must be an integer"):
            displacement_operator(*args)


def test_displacement_operator_takes_a_and_b_mod_d():
    assert np.array_equal(displacement_operator(3, -1, 2), displacement_operator(3, 2, 2))
    assert np.array_equal(displacement_operator(5, np.int64(2), np.int64(-3)),
                          displacement_operator(5, 2, -3))


# --- rarity study ---

def test_rarity_scaled_projector_hits_region():
    stats = run_rarity("scaled_projector", samples=3, seed=0, starts=4)
    assert stats.count_in_region >= 1
    assert stats.max_q_seen > 1.0
    assert stats.max_q_seen <= 1.4049 + 1e-9


def test_rarity_scaled_projector_draws_pi6_at_dim_6_only():
    records = []
    stats = run_rarity("scaled_projector", samples=2, seed=0, starts=2, dim=3,
                       sink=records.append)
    assert [(rec["dim"], rec["matrix"]) for rec in records] == [(3, "random_projector")] * 2
    assert stats.dim == 3


def test_rarity_random_normal_region_consistency():
    records = []
    stats = run_rarity("random_normal", samples=40, seed=7, starts=4,
                       sink=records.append)
    assert len(records) == 40
    for rec in records:
        # values above 1 require exclusion from the ball unit set
        if rec["region"] == "grothendieck":
            assert not rec["in_G_prime"]
        # certified matrices never beat the universal ceiling
        if rec["in_G"] == "certified_yes":
            assert rec["q_value"] <= 1.4049 + 1e-9
    assert stats.samples == 40
    assert stats.fraction == stats.count_in_region / 40


@pytest.mark.parametrize("ensemble", RARITY_ENSEMBLES)
def test_rarity_verdicts_match_a_recomputation_from_theta(ensemble):
    records = []
    run_rarity(ensemble, samples=12, seed=1, starts=2, sink=records.append)
    for rec in records:
        theta = _rarity_sample(ensemble, 6, 1, rec["index"])[0]
        assert rec["in_G_prime"] == bool(g_prime(theta) <= 1.0 + G_PRIME_TOL)
        designated = ensemble == "scaled_projector" and rec["index"] == 0
        assert rec["in_G"] == ("unknown" if designated else "certified_yes")


def test_rarity_records_report_why_max_q_lower_stopped():
    # with these settings about one sample in ten runs into the round cap
    records = []
    run_rarity("random_normal", samples=20, seed=1, starts=16, sink=records.append)
    reasons = {rec["index"]: rec["q_stop_reason"] for rec in records}
    assert [i for i, reason in reasons.items() if reason == "budget"] == [2, 5, 7, 16]
    assert sum(reason == "tolerance" for reason in reasons.values()) == 16


def test_rarity_takes_one_svd_per_sample(monkeypatch):
    calls = []

    def counting(a):
        calls.append(a.shape)
        return largest_singular_value(a)

    monkeypatch.setattr(forms, "largest_singular_value", counting)
    run_rarity("random_normal", samples=5, seed=0, starts=2)
    assert len(calls) == 5


def test_rarity_deterministic_records():
    r1, r2 = [], []
    s1 = run_rarity("random_general", samples=10, seed=3, starts=4, sink=r1.append)
    s2 = run_rarity("random_general", samples=10, seed=3, starts=4, sink=r2.append)
    assert [json.dumps(x) for x in r1] == [json.dumps(x) for x in r2]
    assert s1 == s2


def test_rarity_rejects_bad_ensemble():
    with pytest.raises(InputValidationError):
        run_rarity("bogus", samples=1, seed=0, starts=1)


def test_rarity_rejects_bad_seed_and_starts():
    with pytest.raises(InputValidationError, match="seed must be a non-negative integer"):
        run_rarity("random_normal", 1, -1, 2)
    with pytest.raises(InputValidationError, match="^starts must be >= 1$"):
        run_rarity("random_normal", 1, 0, 0)
