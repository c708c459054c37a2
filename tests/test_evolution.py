"""Channel properties: RK4 vs exact exponential, duality, contraction, Choi."""

import numpy as np
import pytest
from helpers import draw, single_z_instance

from dissip.densemat import random_hermitian, spectral_norm, unvec, vec
from dissip.errors import CapacityError, RefinementError, ValidationError
from dissip.evolution import (
    EvolutionConfig,
    choi_matrix,
    choi_output_trace,
    contraction_excess,
    density_matrix_diagnostics,
    evolve,
    heisenberg_evolve,
    maximally_mixed,
    propagator,
    required_steps,
    validate_density_matrix,
    vectorized_generator,
)
from dissip.lindblad import apply_generator, build_lindbladian


def rep_for(model, n, k, m, seed, y):
    return build_lindbladian(draw(model, n, k, m=m, seed=seed), y)


# ---------------------------------------------------------------------------
# basics
# ---------------------------------------------------------------------------

def test_maximally_mixed():
    mu = maximally_mixed(1)
    assert np.allclose(mu, np.diag([0.5, 0.5]))
    assert np.allclose(maximally_mixed(2), np.eye(4) / 4)
    assert np.trace(maximally_mixed(3)) == 1.0


def test_zero_time_returns_input():
    rep = rep_for("sparse_pauli", 2, 1, 3, 0, -0.1)
    mu = maximally_mixed(2)
    out = evolve(rep, mu, EvolutionConfig(t_final=0.0))
    assert np.array_equal(out, mu)
    assert out is not mu


def test_mixed_state_is_fixed_point_at_zero_coupling():
    rep = rep_for("sparse_pauli", 2, 2, 4, 1, 0.0)
    mu = maximally_mixed(2)
    out = evolve(rep, mu, EvolutionConfig(t_final=0.7))
    assert np.abs(out - mu).max() < 1e-12


def test_single_qubit_energy_matches_expm_oracle():
    rep = build_lindbladian(single_z_instance(), y=-0.1)
    mu = maximally_mixed(1)
    z = np.diag([1.0, -1.0])
    rho_rk4 = evolve(rep, mu, EvolutionConfig(t_final=0.2))
    rho_expm = evolve(rep, mu, EvolutionConfig(t_final=0.2, method="expm"))
    assert abs(np.trace(rho_rk4 @ z) - np.trace(rho_expm @ z)) < 1e-7
    assert np.trace(rho_rk4 @ z).real > 0  # negative y pushes energy up


# ---------------------------------------------------------------------------
# integrator vs exponential oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_rk4_matches_expm(seed):
    rep = rep_for("sparse_pauli", 3, 2, 5, seed, -0.15)
    mu = maximally_mixed(3)
    cfg = EvolutionConfig(t_final=0.4)
    a = evolve(rep, mu, cfg)
    b = evolve(rep, mu, EvolutionConfig(t_final=0.4, method="expm"))
    assert np.abs(a - b).max() < 1e-7


def test_rk4_fourth_order_convergence():
    rep = rep_for("sparse_pauli", 2, 2, 4, 7, -0.2)
    mu = maximally_mixed(2)
    exact = evolve(rep, mu, EvolutionConfig(t_final=0.5, method="expm"))
    coarse = evolve(rep, mu, EvolutionConfig(t_final=0.5, steps=max(8, required_steps(rep, 0.5))))
    fine = evolve(
        rep, mu, EvolutionConfig(t_final=0.5, steps=2 * max(8, required_steps(rep, 0.5)))
    )
    err_coarse = np.abs(coarse - exact).max()
    err_fine = np.abs(fine - exact).max()
    assert 8 <= err_coarse / err_fine <= 32


def test_trajectory_recording_and_trace_preservation():
    rep = rep_for("sparse_fermion", 6, 2, 4, 3, -0.1)
    rows = []
    evolve(rep, maximally_mixed(3), EvolutionConfig(t_final=0.3), trajectory=rows)
    assert rows[0]["step"] == 0
    assert rows[-1]["time"] == pytest.approx(0.3)
    for row in rows:
        assert row["trace_error"] <= 1e-9
        assert row["min_eig"] >= -1e-7
    assert set(rows[0]) == {"step", "time", "energy", "trace_error", "min_eig"}


def test_step_guard_raises_with_suggestion():
    rep = rep_for("sparse_pauli", 2, 2, 4, 1, -0.3)
    with pytest.raises(RefinementError) as err:
        evolve(rep, maximally_mixed(2), EvolutionConfig(t_final=2.0, steps=2))
    assert err.value.suggested_steps == required_steps(rep, 2.0)


@pytest.mark.parametrize("t_final", [float("nan"), float("inf"), -0.1])
def test_config_rejects_nonfinite_or_negative_time(t_final):
    with pytest.raises(ValidationError, match="evolution time must be"):
        EvolutionConfig(t_final=t_final)


def test_positivity_of_evolved_states():
    for seed in range(3):
        rep = rep_for("sparse_pauli", 3, 2, 6, seed, -0.2)
        rho = evolve(rep, maximally_mixed(3), EvolutionConfig(t_final=0.5))
        diag = density_matrix_diagnostics(rho)
        assert diag["min_eig"] >= -1e-8
        assert diag["trace_err"] <= 1e-10


def test_positivity_drift_aborts_with_refinement_error():
    rep = rep_for("sparse_pauli", 2, 2, 4, 1, -0.1)
    drifted = np.diag([0.5, 0.3, 0.2 + 1e-5, -1e-5]).astype(complex)  # eig below -1e-6
    with pytest.raises(RefinementError):
        evolve(rep, drifted, EvolutionConfig(t_final=0.2))


def test_validate_density_matrix_negative_control():
    bad = np.diag([1.2, -0.2]).astype(complex)
    with pytest.raises(ValidationError):
        validate_density_matrix(bad)
    good = np.diag([0.25, 0.75]).astype(complex)
    validate_density_matrix(good)


# ---------------------------------------------------------------------------
# Heisenberg picture: duality and contraction
# ---------------------------------------------------------------------------

def test_identity_is_adjoint_fixed_point():
    rep = rep_for("sparse_pauli", 2, 2, 3, 5, -0.2)
    eye = np.eye(4, dtype=complex)
    out = heisenberg_evolve(rep, eye, EvolutionConfig(t_final=0.4, method="expm"))
    assert np.abs(out - eye).max() < 1e-9


def test_schroedinger_heisenberg_duality():
    rep = rep_for("sparse_pauli", 3, 2, 5, 11, -0.12)
    mu = maximally_mixed(3)
    h = rep.h_dense
    schroedinger = np.trace(h @ evolve(rep, mu, EvolutionConfig(t_final=0.3))).real
    heisenberg = np.trace(heisenberg_evolve(rep, h, EvolutionConfig(t_final=0.3, method="expm")) @ mu).real
    assert abs(schroedinger - heisenberg) < 1e-8


def test_heisenberg_rk4_is_rejected():
    rep = rep_for("sparse_pauli", 2, 2, 3, 5, -0.2)
    with pytest.raises(ValidationError):
        heisenberg_evolve(rep, np.eye(4, dtype=complex), EvolutionConfig(t_final=0.4, method="rk4"))


@pytest.mark.parametrize("t", [0.05, 0.2])
def test_heisenberg_contraction(t):
    rng = np.random.default_rng(13)
    rep = rep_for("sparse_fermion", 6, 2, 5, 2, -0.15)
    assert contraction_excess(propagator(rep, t), 50, rng) <= 1e-8


def test_contraction_excess_matches_heisenberg_evolve_per_probe():
    rep = rep_for("sparse_pauli", 3, 2, 4, 6, -0.2)
    rng = np.random.default_rng(5)
    cfg = EvolutionConfig(t_final=0.3, method="expm")
    per_probe = []
    for _ in range(6):
        obs = random_hermitian(rep.dim, rng)
        before = spectral_norm(obs, hermitian=True)
        per_probe.append(spectral_norm(heisenberg_evolve(rep, obs, cfg)) - before)
    assert contraction_excess(propagator(rep, 0.3), 6, np.random.default_rng(5)) == max(per_probe)


def test_vectorized_generator_matches_direct_application():
    rng = np.random.default_rng(1)
    rep = rep_for("sparse_pauli", 2, 2, 3, 9, -0.25)
    gen = vectorized_generator(rep)
    rho = random_hermitian(4, rng)
    direct = apply_generator(rep, rho)
    via_matrix = (gen @ rho.reshape(-1, order="F")).reshape((4, 4), order="F")
    assert np.abs(direct - via_matrix).max() < 1e-12


def test_expm_gate_capacity():
    rep = rep_for("sparse_pauli", 7, 2, 3, 0, -0.1)  # N = 128 > 64
    with pytest.raises(CapacityError):
        vectorized_generator(rep)
    with pytest.raises(CapacityError):
        propagator(rep, 0.1)


# ---------------------------------------------------------------------------
# Choi matrix
# ---------------------------------------------------------------------------

def test_choi_identity_channel_at_zero_time():
    rep = rep_for("sparse_pauli", 2, 1, 2, 4, -0.1)
    choi = choi_matrix(propagator(rep, 0.0))
    dim = rep.dim
    omega = np.zeros((dim * dim, 1), dtype=complex)
    for i in range(dim):
        omega[i * dim + i] = 1.0
    assert np.abs(choi - omega @ omega.conj().T).max() < 1e-12
    evals = np.linalg.eigvalsh(choi)
    assert abs(evals.max() - dim) < 1e-9  # rank one, weight N


@pytest.mark.parametrize("seed", range(3))
def test_choi_psd_and_trace_preserving(seed):
    rep = rep_for("sparse_pauli", 2, 2, 4, seed, -0.2)
    choi = choi_matrix(propagator(rep, 0.3))
    assert np.abs(choi - choi.conj().T).max() < 1e-10
    assert np.linalg.eigvalsh((choi + choi.conj().T) / 2).min() >= -1e-8
    ptrace = choi_output_trace(choi, rep.dim)
    assert np.abs(ptrace - np.eye(rep.dim)).max() < 1e-9


def test_choi_blocks_are_images_of_matrix_units():
    rep = rep_for("sparse_pauli", 2, 2, 4, 8, -0.2)  # N = 4
    dim = rep.dim
    prop = propagator(rep, 0.3)
    choi = choi_matrix(prop)
    ptrace = choi_output_trace(choi, dim)
    for i in range(dim):
        for j in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[i, j] = 1.0
            block = choi[i * dim : (i + 1) * dim, j * dim : (j + 1) * dim]
            assert np.array_equal(block, unvec(prop @ vec(unit), dim))
            assert ptrace[i, j] == pytest.approx(np.trace(block), abs=1e-15)
