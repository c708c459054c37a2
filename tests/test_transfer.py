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
from helpers import apply_generator_adjoint, draw, random_density, single_z_instance
from hypothesis import given, settings
from hypothesis import strategies as st

import dissip.densemat
import dissip.evolution
import dissip.lindblad
from dissip.analysis import schedule
from dissip.densemat import random_hermitian
from dissip.ensembles import MODELS, SAMPLED_MODELS, is_fermionic, make_instance
from dissip.errors import CapacityError, ValidationError
from dissip.evolution import CHECKPOINTS, EvolutionConfig, evolve, maximally_mixed
from dissip.lindblad import (
    LindbladianRep,
    apply_generator,
    build_lindbladian,
    transfer_matrix,
)
from dissip.operators import (
    PauliString,
    canonical_dense,
    from_pauli_coefficients,
    pauli_coefficients,
    string_key,
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
        # a shift on eight strings of the jumps, whose table takes nine index bits
        yield build_lindbladian(draw(*C08_CELLS[1], seed=0), y)


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
        assert string_key(p) == (index, 1)
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


@st.composite
def small_reps(data):
    """A generator at N <= 16 on any of the four models: a drawn instance,
    or (single-term and duplicate-term instances) a list of its terms picked
    with repetition, at a coupling that is sometimes zero."""
    model = data(st.sampled_from(MODELS))
    if is_fermionic(model):
        n = data(st.sampled_from([2, 4, 6, 8]))
        k = data(st.sampled_from(range(2, n + 1, 2)))
    else:
        n = data(st.integers(1, 4))
        k = data(st.integers(1, n))
    m = data(st.integers(1, 8)) if model in SAMPLED_MODELS else None
    inst = draw(model, n, k, m=m, seed=data(st.integers(0, 2**16)))
    pick = data(st.none() | st.lists(st.integers(0, len(inst.terms) - 1), min_size=1, max_size=4))
    if pick is not None:
        inst = make_instance(model, n, k, [inst.terms[i] for i in pick], inst.seed)
    y = data(st.floats(-0.5, -0.01) | st.floats(0.01, 0.5) | st.just(0.0))
    return build_lindbladian(inst, y)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(small_reps(), st.integers(0, 2**16))
def test_transfer_matches_dense_forms_on_random_draws(rep, seed):
    rng = np.random.default_rng(seed)
    transfer = transfer_matrix(rep)
    rho, obs = random_hermitian(rep.dim, rng), random_hermitian(rep.dim, rng)
    via_transfer = from_pauli_coefficients(transfer @ pauli_coefficients(rho))
    assert np.abs(via_transfer - apply_generator(rep, rho)).max() < 1e-12
    via_transposed = from_pauli_coefficients(transfer.T @ pauli_coefficients(obs))
    assert np.abs(via_transposed - apply_generator_adjoint(rep, obs)).max() < 1e-12


def test_transfer_identity_row_vanishes():
    for rep in sampled_reps():
        transfer = transfer_matrix(rep)
        assert transfer.dtype == np.float64 and transfer.indices.dtype == np.int32
        assert transfer.shape == (rep.dim**2, rep.dim**2)
        row = transfer[[0]].toarray()
        assert np.abs(row).max(initial=0.0) <= 1e-15


@pytest.mark.parametrize("block", [1, 1 << 30], ids=["one-grid-row", "one-block"])
@pytest.mark.parametrize("model, n, k, m", C08_CELLS)
def test_transfer_blocks_join_without_seams(monkeypatch, model, n, k, m, block):
    # blocks of one grid row each, or all rows in one block, give the same
    # arrays as the default block size
    rep = build_lindbladian(draw(model, n, k, m=m, seed=0), -0.1)
    default = transfer_matrix(rep)
    monkeypatch.setattr(dissip.lindblad, "_TRANSFER_BLOCK", block)
    blocked = transfer_matrix(rep)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(blocked, part), getattr(default, part))
        assert getattr(blocked, part).dtype == getattr(default, part).dtype


@pytest.mark.parametrize("model, n, k, m", C08_CELLS)
def test_transfer_byte_check_bounds_the_build(monkeypatch, model, n, k, m):
    # the build's one byte check covers everything it allocates on the way
    inst = draw(model, n, k, m=m, seed=0)
    rep = build_lindbladian(inst, schedule(inst).y)
    transfer_matrix(rep)  # imports happen outside the traced build
    checked = []
    check = dissip.lindblad.check_budget
    monkeypatch.setattr(dissip.lindblad, "check_budget",
                        lambda what, needed: (checked.append(needed), check(what, needed)))
    tracemalloc.start()
    try:
        transfer_matrix(rep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(checked) == 1
    assert peak <= checked[0]


@pytest.mark.parametrize("model, n, k, m", C08_CELLS)
def test_c08_cells_evolve_like_the_dense_jump_stacks(monkeypatch, model, n, k, m):
    # the default path on T against the same path on the dense jump stacks,
    # the vector form of the Gaussian models
    inst = draw(model, n, k, m=m, seed=3)
    sched = schedule(inst)
    rep = build_lindbladian(inst, sched.y)
    mu = maximally_mixed(inst.qubits)
    cfg = EvolutionConfig(t_final=sched.t)
    on_transfer, on_stacks = [], []
    rho_transfer = evolve(rep, mu, cfg, trajectory=on_transfer)
    monkeypatch.setattr(dissip.evolution, "SAMPLED_MODELS", ())
    rho_stacks = evolve(rep, mu, cfg, trajectory=on_stacks)
    assert len(on_transfer) == len(on_stacks) == CHECKPOINTS + 1
    assert [row["time"] for row in on_transfer] == [row["time"] for row in on_stacks]
    for row, oracle in zip(on_transfer, on_stacks):
        assert abs(row["energy"] - oracle["energy"]) < 1e-12
    assert np.abs(rho_transfer - rho_stacks).max() < 1e-12


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


@pytest.mark.parametrize("model, n, k, m, method, match",
                         [("sparse_pauli", 3, 2, 5, "rk4", "bytes"), ("gaussian_pauli", 3, 2, None, "rk4", "bytes"),
                          ("sparse_pauli", 7, 2, 3, "expm", "N <= 64")],
                         ids=["sparse_pauli-3-2-5", "gaussian_pauli-3-2-None", "expm-sparse_pauli-7-2-3"])
def test_evolve_checks_bytes_before_spectral_work(monkeypatch, model, n, k, m, method, match):
    # the operator's byte checks (the propagator's N <= 64 gate) come before
    # the input's and the checkpoints' eigvalsh, so an oversized run fails
    # before O(N^3) work
    rep = build_lindbladian(draw(model, n, k, m=m, seed=0), -0.1)
    rho0 = maximally_mixed(n)
    spectral = []
    monkeypatch.setattr(dissip.lindblad, "spectral_norm", lambda *a, **kw: spectral.append("svd"))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **kw: spectral.append("eigvalsh"))
    monkeypatch.setattr(dissip.densemat, "MEMORY_BUDGET_BYTES", 1_000)
    with pytest.raises(CapacityError, match=match):
        evolve(rep, rho0, EvolutionConfig(t_final=0.2, method=method))
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
