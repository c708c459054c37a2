"""The Pauli-transfer form of the generator against the dense jump stacks.

The dense ``apply_generator``/``apply_generator_adjoint`` are the oracle: the
sparse matrix is built from the symplectic masks alone, so the two routes
share only the instance.
"""

import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest
from helpers import draw, rk4_reference_steps, single_z_instance

import dissip.densemat
import dissip.evolution
import dissip.lindblad
from dissip.analysis import schedule
from dissip.densemat import random_density, random_hermitian
from dissip.errors import CapacityError, ValidationError
from dissip.evolution import EvolutionConfig, evolve, maximally_mixed
from dissip.lindblad import (
    LindbladianRep,
    apply_generator,
    apply_generator_adjoint,
    build_lindbladian,
    transfer_matrix,
)
from dissip.operators import (
    PauliString,
    canonical_dense,
    coefficient_index,
    from_pauli_coefficients,
    pauli_coefficients,
)

SAMPLED = [
    ("sparse_pauli", 3, 2, 5),
    ("sparse_pauli", 6, 2, 12),
    ("sparse_fermion", 6, 4, 5),
    ("sparse_fermion", 12, 4, 12),
]

# c08's two cell shapes, at N = 64
C08_CELLS = [("sparse_pauli", 6, 2, 12), ("sparse_fermion", 12, 4, 12)]


def sampled_reps():
    for y in (-0.15, 0.0):
        yield build_lindbladian(single_z_instance(), y)
        for seed, (model, n, k, m) in enumerate(SAMPLED):
            yield build_lindbladian(draw(model, n, k, m=m, seed=seed), y)


def test_coefficients_round_trip():
    rng = np.random.default_rng(0)
    for dim in (2, 4, 8, 64):
        mat = random_hermitian(dim, rng)
        coeffs = pauli_coefficients(mat)
        assert coeffs.dtype == np.float64 and coeffs.shape == (dim * dim,)
        assert coeffs[0] == pytest.approx(np.trace(mat).real, abs=1e-12)
        assert np.abs(from_pauli_coefficients(coeffs) - mat).max() < 1e-14


def test_coefficients_of_a_canonical_string():
    # one coefficient, Tr(P P) = N, at the string's own index
    q = 3
    for letters, index in (("XYZ", 0b110_011), ("IYI", 0b010_010), ("ZZX", 0b001_110), ("III", 0)):
        p = PauliString.from_site_letters(q, [(i, c) for i, c in enumerate(letters) if c != "I"])
        assert coefficient_index(p) == index
        expected = np.zeros(4**q)
        expected[index] = 2**q
        assert np.abs(pauli_coefficients(canonical_dense(p)) - expected).max() < 1e-14


def test_transfer_matches_dense_generator():
    rng = np.random.default_rng(1)
    for rep in sampled_reps():
        rho = random_hermitian(rep.dim, rng)
        via_transfer = from_pauli_coefficients(transfer_matrix(rep) @ pauli_coefficients(rho))
        assert np.abs(via_transfer - apply_generator(rep, rho)).max() < 1e-12


def test_transposed_transfer_matches_dense_adjoint():
    rng = np.random.default_rng(2)
    for rep in sampled_reps():
        obs = random_hermitian(rep.dim, rng)
        via_transfer = from_pauli_coefficients(transfer_matrix(rep).T @ pauli_coefficients(obs))
        assert np.abs(via_transfer - apply_generator_adjoint(rep, obs)).max() < 1e-12


def test_transfer_identity_row_vanishes():
    for rep in sampled_reps():
        transfer = transfer_matrix(rep)
        assert transfer.dtype == np.float64 and transfer.indices.dtype == np.int32
        assert transfer.shape == (rep.dim**2, rep.dim**2)
        row = transfer[[0]].toarray()
        assert np.abs(row).max(initial=0.0) <= 1e-15


def dense_rk4_energies(rep, t, steps, at_steps):
    """Energies Tr(rho H) of a plain RK4 over apply_generator at the given steps."""
    rho = maximally_mixed(rep.instance.qubits)
    dt = t / steps
    energies = {0: float(np.trace(rho @ rep.h_dense).real)}
    for step in range(1, steps + 1):
        k1 = apply_generator(rep, rho)
        k2 = apply_generator(rep, rho + 0.5 * dt * k1)
        k3 = apply_generator(rep, rho + 0.5 * dt * k2)
        k4 = apply_generator(rep, rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step in at_steps:
            energies[step] = float(np.trace(rho @ rep.h_dense).real)
    return energies


@pytest.mark.parametrize("model, n, k, m", C08_CELLS)
def test_c08_cells_evolve_like_dense_rk4(model, n, k, m):
    inst = draw(model, n, k, m=m, seed=3)
    sched = schedule(inst)
    rep = build_lindbladian(inst, sched.y)
    rows = []
    steps = rk4_reference_steps(rep, sched.t)
    evolve(rep, maximally_mixed(inst.qubits), EvolutionConfig(t_final=sched.t, steps=steps), trajectory=rows)
    assert rows[-1]["step"] == steps
    every = max(1, steps // 8)
    expected_steps = [0] + [s for s in range(1, steps + 1) if s % every == 0 or s == steps]
    assert [row["step"] for row in rows] == expected_steps
    assert [row["time"] for row in rows] == [s * (sched.t / steps) for s in expected_steps]
    dense = dense_rk4_energies(rep, sched.t, steps, set(expected_steps))
    for row in rows:
        assert abs(row["energy"] - dense[row["step"]]) < 1e-12


@pytest.fixture
def transfer_builds(monkeypatch):
    """The reps evolve builds a transfer matrix for, in call order."""
    built = []

    def recording(rep):
        built.append(rep)
        return transfer_matrix(rep)

    monkeypatch.setattr(dissip.evolution, "transfer_matrix", recording)
    return built


def test_gaussian_evolution_never_builds_transfer(transfer_builds):
    for model, n, k in (("gaussian_pauli", 3, 2), ("syk", 6, 4)):
        inst = draw(model, n, k, seed=0)
        sched = schedule(inst)
        rep = build_lindbladian(inst, sched.y)
        evolve(rep, maximally_mixed(inst.qubits), EvolutionConfig(t_final=sched.t))
        assert "k_stack_dag" in vars(rep)
    assert transfer_builds == []


def test_sampled_evolution_never_builds_dense_stacks(transfer_builds):
    # the default path needs no step count, so not even the norm bound
    # (|A| dense jumps and their SVDs) is built
    rep = build_lindbladian(draw("sparse_pauli", 3, 2, m=5, seed=0), -0.1)
    evolve(rep, maximally_mixed(3), EvolutionConfig(t_final=0.2))
    evolve(rep, maximally_mixed(3), EvolutionConfig(t_final=0.2), trajectory=[])
    assert transfer_builds == [rep, rep]
    assert not {"norm_bound", "k_stack", "k_stack_dag", "kdagk_sum"} & set(vars(rep))


def test_rep_is_instance_and_coupling():
    assert [f.name for f in dataclasses.fields(LindbladianRep)] == ["instance", "y"]
    rep = build_lindbladian(draw("syk", 6, 4, seed=0), -0.1)
    assert vars(rep) == {"instance": rep.instance, "y": -0.1}


@pytest.mark.parametrize("model, n, k, m", [("sparse_pauli", 3, 2, 5), ("gaussian_pauli", 3, 2, None)])
def test_evolve_checks_bytes_before_spectral_work(monkeypatch, model, n, k, m):
    # the operator's byte checks come before the SVD step bound and the
    # checkpoint eigvalsh, so an oversized run fails before O(N^3) work
    rep = build_lindbladian(draw(model, n, k, m=m, seed=0), -0.1)
    rho0 = maximally_mixed(n)
    spectral = []
    monkeypatch.setattr(dissip.lindblad, "spectral_norm", lambda *a, **kw: spectral.append("svd"))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **kw: spectral.append("eigvalsh"))
    monkeypatch.setattr(dissip.densemat, "MEMORY_BUDGET_BYTES", 1_000)
    with pytest.raises(CapacityError, match="bytes"):
        evolve(rep, rho0, EvolutionConfig(t_final=0.2))
    assert spectral == []


def test_lazy_forms_of_different_reps_build_concurrently(monkeypatch):
    # functools.cached_property holds one lock per property for the whole
    # class on Python < 3.12, which would keep the second build waiting
    reps = [build_lindbladian(draw("syk", 6, 4, seed=seed), -0.1) for seed in (0, 1)]
    inside, second_built = threading.Event(), threading.Event()
    waited = []
    check = dissip.lindblad.check_dense_budget

    def hold_first(what, dim, count):
        # hold only the first thread's first check; its later ones (the jump
        # stack the adjoint stack is made from) run after the second build
        if threading.current_thread().name == "first" and not inside.is_set():
            inside.set()
            waited.append(second_built.wait(timeout=10))
        check(what, dim, count)

    monkeypatch.setattr(dissip.lindblad, "check_dense_budget", hold_first)
    first = threading.Thread(target=lambda: reps[0].k_stack_dag, name="first")
    first.start()
    assert inside.wait(timeout=10)
    reps[1].k_stack_dag
    second_built.set()
    first.join()
    assert waited == [True]
    assert all("k_stack_dag" in vars(rep) for rep in reps)


def test_transfer_path_rejects_non_hermitian_state():
    rep = build_lindbladian(draw("sparse_pauli", 2, 2, m=3, seed=0), -0.1)
    rho = random_density(4, np.random.default_rng(3)).astype(complex)
    rho[0, 1] += 1e-3
    with pytest.raises(ValidationError, match="not Hermitian"):
        evolve(rep, rho, EvolutionConfig(t_final=0.1))


LAZY_FORMS = {
    "transfer": transfer_matrix,
    "h_dense": lambda rep: rep.h_dense,
    "k_stack": lambda rep: rep.k_stack,
    "norm_bound": lambda rep: rep.norm_bound,
    "k_stack_dag": lambda rep: rep.k_stack_dag,
    "kdagk_sum": lambda rep: rep.kdagk_sum,
}


@pytest.mark.parametrize("form", list(LAZY_FORMS))
def test_lazy_forms_check_the_byte_budget_first(monkeypatch, form):
    rep = build_lindbladian(draw("sparse_pauli", 6, 2, m=12, seed=0), -0.1)
    monkeypatch.setattr(dissip.densemat, "MEMORY_BUDGET_BYTES", 10_000)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="bytes"):
            LAZY_FORMS[form](rep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
