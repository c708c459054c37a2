"""Channel properties: the default path and RK4 vs the exact exponential, duality,
contraction, Choi."""

import math
import sys
import threading

import numpy as np
import pytest
from helpers import draw, rk4_reference_steps, single_z_instance

import dissip.evolution
from dissip.analysis import schedule
from dissip.densemat import random_hermitian, spectral_norm, unvec, vec
from dissip.errors import CapacityError, RefinementError, ValidationError
from dissip.evolution import (
    CHECKPOINTS,
    TAYLOR_THETA,
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
    _taylor_parameters,
)
from dissip.lindblad import apply_generator, build_lindbladian, transfer_matrix


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
    rho_default = evolve(rep, mu, EvolutionConfig(t_final=0.2))
    rho_expm = evolve(rep, mu, EvolutionConfig(t_final=0.2, method="expm"))
    assert abs(np.trace(rho_default @ z) - np.trace(rho_expm @ z)) < 1e-7
    assert np.trace(rho_default @ z).real > 0  # negative y pushes energy up


# ---------------------------------------------------------------------------
# integrator vs exponential oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_rk4_matches_expm(seed):
    rep = rep_for("sparse_pauli", 3, 2, 5, seed, -0.15)
    mu = maximally_mixed(3)
    cfg = EvolutionConfig(t_final=0.4, steps=rk4_reference_steps(rep, 0.4))
    a = evolve(rep, mu, cfg)
    b = evolve(rep, mu, EvolutionConfig(t_final=0.4, method="expm"))
    assert np.abs(a - b).max() < 1e-7


# every model, at N <= 32 so that the oracle's N^2 x N^2 exponential stays small
DEFAULT_PATH_CASES = [
    ("sparse_pauli", 3, 2, 5),
    ("sparse_pauli", 5, 3, 8),
    ("sparse_fermion", 6, 2, 5),
    ("sparse_fermion", 10, 4, 8),
    ("gaussian_pauli", 3, 2, None),
    ("gaussian_pauli", 4, 3, None),
    ("syk", 6, 4, None),
    ("syk", 10, 4, None),
]


@pytest.mark.parametrize("model, n, k, m", DEFAULT_PATH_CASES)
def test_default_path_matches_expm(model, n, k, m):
    rep = rep_for(model, n, k, m, 2, -0.15)
    mu = maximally_mixed(rep.instance.qubits)
    exact = evolve(rep, mu, EvolutionConfig(t_final=0.4, method="expm"))
    assert np.abs(evolve(rep, mu, EvolutionConfig(t_final=0.4)) - exact).max() <= 1e-12
    with_rows = evolve(rep, mu, EvolutionConfig(t_final=0.4), trajectory=[])
    assert np.abs(with_rows - exact).max() <= 1e-12


@pytest.mark.parametrize("model, n, k, m", [("sparse_fermion", 6, 2, 5), ("syk", 6, 4, None)])
def test_default_trajectory_rows(model, n, k, m):
    rep = rep_for(model, n, k, m, 4, -0.2)
    mu = maximally_mixed(rep.instance.qubits)
    t = 0.3
    rows = []
    rho = evolve(rep, mu, EvolutionConfig(t_final=t), trajectory=rows)
    assert [row["step"] for row in rows] == list(range(CHECKPOINTS + 1))
    assert [row["time"] for row in rows] == [i * t / CHECKPOINTS for i in range(CHECKPOINTS + 1)]
    assert abs(rows[-1]["energy"] - np.trace(rho @ rep.h_dense).real) <= 1e-12
    for row in rows:
        exact = evolve(rep, mu, EvolutionConfig(t_final=row["time"], method="expm"))
        assert abs(row["energy"] - np.trace(exact @ rep.h_dense).real) <= 1e-12
        assert row["trace_error"] <= 1e-9 and row["min_eig"] >= -1e-8


def sensitive_rep():
    inst = draw("sparse_pauli", 4, 2, m=6, seed=1)
    return build_lindbladian(inst, schedule(inst).y)


def test_default_path_ignores_the_global_random_stream():
    # the Taylor parameters come from an exact 1-norm, not from estimates
    # drawn from numpy's global stream, which on this instance would give
    # other last bits for most seeds
    rep = sensitive_rep()
    mu = maximally_mixed(4)
    results = set()
    for seed in range(12):
        np.random.seed(seed)
        results.add(evolve(rep, mu, EvolutionConfig(t_final=1.0)).tobytes())
        assert np.random.random() == np.random.RandomState(seed).random()  # the stream is restored
    assert len(results) == 1


def test_default_path_is_bit_identical_across_threads():
    # evolutions in several threads share no state, so none can change the
    # last bits of another's result
    rep = sensitive_rep()
    mu = maximally_mixed(4)
    cfg = EvolutionConfig(t_final=1.0)
    reference = evolve(rep, mu, cfg).tobytes()
    results = []

    def run():
        for _ in range(40):
            results.append(evolve(rep, mu, cfg).tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [reference] * 160


def counting_matvecs(monkeypatch):
    counts = []
    vector_form = dissip.evolution._vector_form

    def counted(rep, rho0):
        form = vector_form(rep, rho0)

        def matvec(v):
            counts[-1] += 1
            return form.matvec(v)
        counts.append(0)
        return form._replace(matvec=matvec)

    monkeypatch.setattr(dissip.evolution, "_vector_form", counted)
    return counts


@pytest.mark.parametrize("model, n, k, m, t", [("sparse_pauli", 4, 2, 6, 1.0), ("sparse_pauli", 4, 2, 6, 9.0),
                                               ("syk", 6, 4, None, 0.3)])
def test_trajectory_shares_the_taylor_terms(monkeypatch, model, n, k, m, t):
    # the checkpoints reuse the terms of the scaling step they fall in, so the
    # rows cost no product and leave the state at t unchanged to the bit;
    # t = 9 takes several scaling steps
    rep = rep_for(model, n, k, m, 1, -0.2)
    mu = maximally_mixed(rep.instance.qubits)
    counts = counting_matvecs(monkeypatch)
    alone = evolve(rep, mu, EvolutionConfig(t_final=t))
    rows = []
    with_rows = evolve(rep, mu, EvolutionConfig(t_final=t), trajectory=rows)
    assert counts[0] == counts[1] > 0
    assert np.array_equal(alone, with_rows)
    assert len(rows) == CHECKPOINTS + 1


@pytest.mark.parametrize("model, n, k, m", [("sparse_pauli", 3, 2, 5), ("sparse_fermion", 6, 2, 5),
                                            ("gaussian_pauli", 3, 2, None), ("syk", 6, 4, None)])
def test_taylor_norm_bounds_the_shifted_generator(model, n, k, m):
    # exact for the transfer matrix, an upper bound for the jump stacks; the
    # 1-norm is the same on row- and column-stacked vectors
    rep = rep_for(model, n, k, m, 2, -0.15)
    form = dissip.evolution._vector_form(rep, maximally_mixed(rep.instance.qubits))
    generator = vectorized_generator(rep)
    shift = np.trace(generator).real / generator.shape[0]
    exact = np.abs(generator - shift * np.eye(generator.shape[0])).sum(axis=0).max()
    assert form.shift == pytest.approx(shift, rel=1e-12, abs=1e-12)
    if model in ("sparse_pauli", "sparse_fermion"):
        transfer = transfer_matrix(rep).toarray()
        assert form.shifted_norm == pytest.approx(
            np.abs(transfer - shift * np.eye(transfer.shape[0])).sum(axis=0).max(), rel=1e-12)
    else:
        assert exact <= form.shifted_norm * (1 + 1e-12)


def test_taylor_parameters_fewest_products():
    for norm in (1e-3, 0.5, 9.9, 63.0, 400.0):
        m, s = _taylor_parameters(norm)
        assert norm / s <= TAYLOR_THETA[m]
        assert all(m * s <= mm * max(1, math.ceil(norm / theta)) for mm, theta in TAYLOR_THETA.items())
    assert _taylor_parameters(0.0) == (0, 1)


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
