"""First-order identities, sign averaging, schedules, spectra, ratio statistics."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from helpers import draw, random_density, single_z_instance

from dissip.analysis import (
    BoundCheckReport,
    Check,
    EnergyReport,
    default_c_t,
    default_c_y,
    energy,
    energy_report,
    evolve_report,
    first_order_term,
    glo_loc_ratio_stats,
    loglog_slope,
    max_eigenvalue,
    rademacher_average_energy,
    residual_reference,
    schedule,
    schedule_guards,
    second_order_residual_scan,
    spectral_tail_bound,
    t1_identity_error,
)
from dissip.ensembles import EnsembleSpec, instance_to_dense, sample, with_signs
from dissip.errors import EnumerationBudgetError, ValidationError
from dissip.evolution import EvolutionConfig, evolve, heisenberg_evolve, maximally_mixed
from dissip.lindblad import LindbladianRep, build_lindbladian

ALL_MODELS = [
    ("gaussian_pauli", 3, 2, None),
    ("syk", 6, 4, None),
    ("sparse_pauli", 3, 2, 5),
    ("sparse_fermion", 6, 4, 5),
]


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def test_energy_of_mixed_state_vanishes_for_traceless():
    inst = draw("sparse_pauli", 2, 2, m=3, seed=0)
    h = instance_to_dense(inst)
    assert abs(energy(maximally_mixed(2), h)) < 1e-14


def test_energy_top_eigenvector_gives_lambda_max():
    inst = draw("sparse_pauli", 2, 2, m=3, seed=1)
    h = instance_to_dense(inst)
    evals, evecs = np.linalg.eigh(h)
    top = evecs[:, -1:] @ evecs[:, -1:].conj().T
    assert abs(energy(top, h) - evals[-1]) < 1e-12
    assert abs(max_eigenvalue(h) - evals[-1]) < 1e-14


def test_energy_against_double_loop_trace():
    rng = np.random.default_rng(2)
    inst = draw("sparse_fermion", 6, 2, m=4, seed=2)
    h = instance_to_dense(inst)
    rho = random_density(h.shape[0], rng)
    naive = sum(rho[i, j] * h[j, i] for i in range(h.shape[0]) for j in range(h.shape[0]))
    assert abs(energy(rho, h) - naive.real) < 1e-12


# ---------------------------------------------------------------------------
# first-order coefficient
# ---------------------------------------------------------------------------

def test_first_order_zero_coupling():
    inst = draw("sparse_pauli", 3, 2, m=4, seed=0)
    assert first_order_term(inst, 0.0, 0.3) == 0.0


def test_first_order_arithmetic_example():
    # spin, h_glo = 1, k = 2, y = -0.1, t = 0.05: -8 y t * 1 * 2 * 2 = 0.16
    inst = draw("sparse_pauli", 4, 2, m=6, seed=3)
    assert inst.h_glo == 1.0
    assert first_order_term(inst, -0.1, 0.05) == pytest.approx(0.16, rel=1e-14)


def test_generator_energy_slope_matches_t1_single_term():
    # single-term instance: Tr[H L(mu)] is exactly the T1 slope -8 y h^2 a_ac k
    # (the sign-independent part of the generator is traceless against H here)
    from dissip.evolution import maximally_mixed
    from dissip.lindblad import apply_generator
    from helpers import single_z_instance

    inst = single_z_instance()
    y = -0.1
    rep = build_lindbladian(inst, y)
    slope = np.trace(rep.h_dense @ apply_generator(rep, maximally_mixed(1))).real
    assert slope == pytest.approx(first_order_term(inst, y, 1.0), abs=1e-12)
    assert slope == pytest.approx(-16.0 * y, abs=1e-12)


def _raw_single_piece_one_jump(a, hg, y, obs):
    c = a @ hg - hg @ a
    cd = c.conj().T
    cda, ac = cd @ a, a @ c
    return (
        y * cd @ obs @ a
        + y * a @ obs @ c
        - 0.5 * y * (cda @ obs + obs @ cda)
        - 0.5 * y * (ac @ obs + obs @ ac)
    )


@pytest.mark.parametrize("model,n,k,m", ALL_MODELS)
def test_per_pair_first_order_identity(model, n, k, m):
    # normalized_trace(Lg^a_dag(H_g)) = -8 b_ag h_g^2 y, raw dense evaluation
    inst = draw(model, n, k, m=m, seed=7)
    y = -0.13
    rep = build_lindbladian(inst, y)
    dim = rep.dim
    for g, term in enumerate(inst.terms):
        hg = term.h * rep.unit_denses[g]
        for a, a_dense in enumerate(rep.base_denses):
            val = np.trace(_raw_single_piece_one_jump(a_dense, hg, y, hg)).real / dim
            expect = -8.0 * float(rep.b_table[a, g]) * term.h**2 * y
            assert abs(val - expect) < 1e-10


@pytest.mark.parametrize("model,n,k,m", ALL_MODELS)
def test_summed_first_order_identity(model, n, k, m):
    inst = draw(model, n, k, m=m, seed=9)
    y = -0.2
    assert t1_identity_error(build_lindbladian(inst, y)) < 1e-9


# ---------------------------------------------------------------------------
# sign averaging
# ---------------------------------------------------------------------------

def test_zeroth_order_vanishes_under_enumeration():
    inst = draw("sparse_pauli", 3, 2, m=6, seed=4)
    mean, stderr = rademacher_average_energy(inst, y=-0.2, t=0.0)
    assert abs(mean) < 1e-12
    assert stderr == 0.0


def test_two_pattern_symmetry_single_term():
    # global sign flip is a unitary conjugation when m = 1, so both patterns
    # give the same energy; verified here numerically before being relied on
    for model, n, k in (("sparse_pauli", 3, 2), ("sparse_fermion", 6, 4)):
        inst = draw(model, n, k, m=1, seed=5)
        vals = []
        for s in (1, -1):
            rep = build_lindbladian(with_signs(inst, [s]), -0.2)
            out = heisenberg_evolve(rep, rep.h_dense, EvolutionConfig(t_final=0.15, method="expm"))
            vals.append(np.trace(out).real / rep.dim)
        assert abs(vals[0] - vals[1]) < 1e-12


def test_sample_mode_agrees_with_enumeration():
    inst = draw("sparse_pauli", 2, 2, m=4, seed=6)
    per_pattern = [evolve_report(with_signs(inst, p), -0.2, EvolutionConfig(t_final=0.1)).achieved
                   for p in itertools.product((1, -1), repeat=4)]
    assert max(per_pattern) - min(per_pattern) > 0.1  # so stderr > 0 is not rounding noise
    exact, _ = rademacher_average_energy(inst, y=-0.2, t=0.1)
    approx, stderr = rademacher_average_energy(
        inst, y=-0.2, t=0.1, mode="sample", samples=64, seed=1
    )
    assert stderr > 0.0
    assert abs(approx - exact) < 5 * stderr + 1e-12


@pytest.mark.parametrize("t", [0.01, 0.08])
@pytest.mark.parametrize("model, n, k, m, seed",
                         [("sparse_pauli", 3, 2, 4, 2), ("sparse_fermion", 6, 2, 3, 6)])
def test_sign_average_matches_the_expm_oracle_per_pattern(model, n, k, m, seed, t):
    # seeds whose patterns give different energies, so the mean weighs every pattern
    inst = draw(model, n, k, m=m, seed=seed)
    y = schedule(inst).y
    oracle = []
    for pattern in itertools.product((1, -1), repeat=m):
        rep = build_lindbladian(with_signs(inst, pattern), y)
        rho = evolve(rep, maximally_mixed(inst.qubits), EvolutionConfig(t_final=t, method="expm"))
        oracle.append(energy(rho, rep.h_dense))
    assert max(oracle) - min(oracle) > 1e-3
    mean, stderr = rademacher_average_energy(inst, y=y, t=t)
    assert abs(mean - np.mean(oracle)) <= 1e-12
    assert stderr == 0.0


def test_sign_average_never_computes_norm_bound(monkeypatch):
    bounded = []
    monkeypatch.setattr(LindbladianRep, "norm_bound", property(lambda rep: bounded.append(rep) or 1.0))
    inst = draw("sparse_pauli", 2, 2, m=3, seed=6)
    for t in (0.0, 0.1):
        rademacher_average_energy(inst, y=-0.2, t=t)
    assert bounded == []


def test_schedule_overrides_each_value():
    inst = draw("sparse_pauli", 3, 2, m=5, seed=0)
    sched = schedule(inst, c_y=0.2, c_t=0.4)
    assert sched == (-0.2 / (math.sqrt(2) * inst.h_loc), 0.4 / 2)
    assert schedule(inst, y=-0.3, c_t=0.4) == (-0.3, sched.t)
    assert schedule(inst, t=0.05, c_y=0.2) == (sched.y, 0.05)
    assert schedule(single_z_instance(), y=-0.3, t=0.05) == (-0.3, 0.05)


def test_enumeration_budget():
    inst = draw("sparse_pauli", 3, 1, m=21, seed=0)
    with pytest.raises(EnumerationBudgetError):
        rademacher_average_energy(inst, y=-0.1, t=0.1)


def test_mode_validation():
    inst = draw("sparse_pauli", 2, 1, m=2, seed=0)
    with pytest.raises(ValidationError):
        rademacher_average_energy(inst, y=0.1, t=0.1, mode="guess")
    with pytest.raises(ValidationError):
        rademacher_average_energy(inst, y=0.1, t=0.1, mode="sample", samples=1)


# ---------------------------------------------------------------------------
# second-order residual
# ---------------------------------------------------------------------------

def test_residual_vanishes_at_zero_coupling():
    inst = draw("sparse_pauli", 2, 2, m=3, seed=8)
    rows = second_order_residual_scan(inst, 0.0, [0.1, 0.05])
    for row in rows:
        assert abs(row.residual) < 1e-12


def test_residual_quarters_under_halving():
    inst = draw("sparse_pauli", 3, 2, m=3, seed=2)
    rows = second_order_residual_scan(inst, -0.15, [0.02, 0.01])
    ratio = rows[0].residual / rows[1].residual
    assert 3.0 < ratio < 5.0
    # ratio of residual/t^2 between the halvings is near one
    assert 0.8 <= rows[0].residual_over_t2 / rows[1].residual_over_t2 <= 1.25


def test_residual_constant_within_reference_envelope():
    inst = draw("sparse_pauli", 3, 2, m=3, seed=2)
    rows = second_order_residual_scan(inst, -0.15, [0.01])
    assert abs(rows[0].residual_over_t2) <= 100.0 * residual_reference(inst, -0.15)


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def test_default_constants():
    assert default_c_y(3) == pytest.approx(1.0 / (3.0 * math.sqrt(3.0)), rel=1e-15)
    assert default_c_y(1) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert default_c_t(3) == pytest.approx(1.0 / 6.0, rel=1e-15)


def test_schedule_formulas():
    inst = draw("sparse_pauli", 6, 4, m=9, seed=1)
    # force h_loc = 0.5 by scaling: use explicit constants on the sampled one
    sched = schedule(inst, c_y=0.19245, c_t=1.0 / 6.0)
    assert sched.y == pytest.approx(-0.19245 / (2.0 * inst.h_loc), rel=1e-12)
    assert sched.t == pytest.approx(1.0 / 24.0, rel=1e-15)


def test_schedule_guards_hold_with_defaults():
    for model, n, k, m in ALL_MODELS:
        inst = draw(model, n, k, m=m, seed=3)
        sched = schedule(inst)
        assert schedule_guards(inst, *sched) == (True, True)
        assert sched.y < 0 and sched.t > 0
        # with defaults the guards hold identically:
        # a_loc k t = a_loc c_t = 1/2; y^2 h_loc^2 a_loc k = c_y^2 a_loc = 1/9
        assert inst.a_loc * inst.k * sched.t == pytest.approx(0.5, rel=1e-12)
        assert (sched.y**2) * inst.h_loc**2 * inst.a_loc * inst.k == pytest.approx(
            1.0 / 9.0, rel=1e-9
        )


def test_schedule_guard_flags_can_trip():
    inst = draw("sparse_pauli", 4, 2, m=5, seed=0)
    sched = schedule(inst, c_t=5.0)  # a_loc k t = a_loc c_t = 15 > 1
    assert schedule_guards(inst, *sched) == (False, True)


def test_schedule_validation():
    inst = draw("sparse_pauli", 4, 2, m=5, seed=0)
    for overrides, message in [
        (dict(c_y=-1.0), "schedule constants must be positive"),
        (dict(c_t=0.0), "schedule constants must be positive"),
        (dict(y=-0.3, t=0.05, c_y=-1.0), "schedule constants must be positive"),
        (dict(t=-0.5), "evolution time must be nonnegative"),
        (dict(y=math.nan), "y must be a finite number"),
        (dict(t=math.inf), "t must be a finite number"),
        (dict(c_y=-math.inf), "c_y must be a finite number"),
        (dict(c_t=True), "c_t must be a finite number"),
    ]:
        with pytest.raises(ValidationError, match=message):
            schedule(inst, **overrides)


def test_schedule_needs_local_energy_only_to_derive_y():
    zero = dataclasses.replace(single_z_instance(), h_loc=0.0)
    assert schedule(zero, y=-0.3) == (-0.3, default_c_t(3))
    with pytest.raises(ValidationError, match="nonzero local energy"):
        schedule(zero, t=0.1)


# ---------------------------------------------------------------------------
# spectral tail bound
# ---------------------------------------------------------------------------

def test_tail_bound_value_sparse():
    # sampled tail 2N exp(-E^2/8) at N = 2^8, delta = 0.01:
    # sqrt(8 ln(2*256/0.01)) = sqrt(8 (9 ln 2 + ln 100)) = 9.3138584...
    assert spectral_tail_bound("sparse_pauli", 8, 0.01) == pytest.approx(9.3138584, abs=1e-6)


def test_tail_bound_fermion_uses_half_the_modes():
    assert spectral_tail_bound("sparse_fermion", 8, 0.01) == pytest.approx(
        math.sqrt(8 * math.log(2 * 16 / 0.01)), rel=1e-15
    )


@pytest.mark.parametrize("delta", [0.0, 1.0, -1.0, math.nan, math.inf])
def test_tail_bound_rejects_delta_outside_unit_interval(delta):
    with pytest.raises(ValidationError, match="delta"):
        spectral_tail_bound("sparse_pauli", 4, delta)


def test_tail_bound_gaussian_sharper():
    assert spectral_tail_bound("gaussian_pauli", 6, 0.05) == pytest.approx(
        math.sqrt(2 * math.log(2 * 64 / 0.05)), rel=1e-15
    )


def test_hoeffding_tail_holds_on_small_ensemble():
    bound = spectral_tail_bound("sparse_pauli", 6, 0.01)
    for seed in range(20):
        inst = draw("sparse_pauli", 6, 2, m=12, seed=seed)
        assert max_eigenvalue(instance_to_dense(inst)) <= bound


# ---------------------------------------------------------------------------
# ratio statistics
# ---------------------------------------------------------------------------

def test_ratio_is_inverse_local_energy_for_sampled():
    spec = EnsembleSpec("sparse_pauli", 6, 2, 8, seed=3)
    inst = sample(spec)
    rows = glo_loc_ratio_stats([spec], draws=1, master_seed=0)
    assert rows[0]["mean_ratio"] > 0
    # h_glo = 1 for every sampled draw, so the ratio is exactly 1/h_loc
    loc, glo = inst.h_loc, inst.h_glo
    assert glo == 1.0
    assert rows[0]["stderr"] == 0.0


def test_ratio_k_equals_n_edge():
    # every term touches every site, so h_loc = h_glo = 1 and the ratio is 1
    rows = glo_loc_ratio_stats([EnsembleSpec("sparse_pauli", 4, 4, 6, seed=0)], draws=5)
    assert rows[0]["mean_ratio"] == pytest.approx(1.0, abs=1e-12)


def test_ratio_scaling_slope_near_half():
    specs = [
        EnsembleSpec("sparse_pauli", n, 2, max(1, math.ceil(4 * n * math.log(n) / 2)), seed=0)
        for n in (8, 16, 32, 64)
    ]
    rows = glo_loc_ratio_stats(specs, draws=60, master_seed=1)
    slope = loglog_slope([r["n"] for r in rows], [r["mean_ratio"] for r in rows])
    assert 0.35 <= slope <= 0.65


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_energy_report_fields_and_ratio_invariant():
    inst = draw("sparse_pauli", 3, 2, m=4, seed=5)
    sched = schedule(inst)
    rep = build_lindbladian(inst, sched.y)
    rho = evolve(rep, maximally_mixed(3), EvolutionConfig(t_final=sched.t))
    report = energy_report(inst, rho, rep.h_dense, sched.y, sched.t)
    assert abs(report.ratio) <= 1.0 + 1e-8
    assert report.residual == pytest.approx(report.achieved - report.t1_prediction, abs=1e-15)
    parsed = EnergyReport(**{**report.to_dict(), "t1_prediction": report.t1_prediction})
    assert parsed == report
    assert '"achieved":' in report.to_json()


def test_check_and_report():
    good = Check.one_sided("bound", 1.0, 2.0, 0.0)
    bad = Check.one_sided("bound2", 3.0, 2.0, 1e-9)
    near = Check.one_sided("identity", abs((1.0 + 1e-12) - 1.0), 0.0, 1e-9)
    report = BoundCheckReport(checks=(good, bad, near))
    assert good.passed and near.passed and not bad.passed
    assert not report.all_passed
    assert [c.name for c in report.failures()] == ["bound2"]
    assert len(report.lines()) == 3
    assert report.lines()[1].startswith("FAIL")
    assert '"all_passed":false' in report.to_json()
