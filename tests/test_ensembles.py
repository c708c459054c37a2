"""Ensemble samplers: term counts, normalization, energies, determinism, JSON."""

import math

import numpy as np
import pytest

from dissip.ensembles import (
    EnsembleSpec,
    HamiltonianTerm,
    instance_from_json,
    instance_to_dense,
    instance_to_json,
    local_global_energies,
    make_instance,
    sample,
    sample_strength_stats,
    with_signs,
)
from dissip.errors import CapacityError, ValidationError
from dissip.operators import MajoranaMonomial, PauliString, canonical_dense


def spec(model, n, k, m=None, seed=0):
    return EnsembleSpec(model=model, n=n, k=k, m=m, seed=seed)


# ---------------------------------------------------------------------------
# term counts and strengths
# ---------------------------------------------------------------------------

def test_gaussian_pauli_term_counts():
    assert len(sample(spec("gaussian_pauli", 2, 1)).terms) == 6
    assert len(sample(spec("gaussian_pauli", 3, 2)).terms) == 27


def test_gaussian_pauli_variance_normalization():
    # each coefficient has variance 1/(3^k C(n,k)); across draws the summed
    # squared strength should average to 1
    totals = [
        sum(t.h**2 for t in sample(spec("gaussian_pauli", 2, 1, seed=s)).terms)
        for s in range(400)
    ]
    mean = np.mean(totals)
    stderr = np.std(totals, ddof=1) / math.sqrt(len(totals))
    assert abs(mean - 1.0) < 3 * stderr + 1e-12


def test_syk_term_counts():
    assert len(sample(spec("syk", 6, 4)).terms) == 15
    inst = sample(spec("syk", 4, 4))
    assert len(inst.terms) == 1


def test_syk_draw_is_hermitian_dense():
    inst = sample(spec("syk", 6, 4, seed=5))
    h = instance_to_dense(inst)
    assert np.abs(h - h.conj().T).max() < 1e-12


def test_sparse_strengths_and_exact_glo():
    inst = sample(spec("sparse_pauli", 4, 2, m=5, seed=1))
    assert len(inst.terms) == 5
    assert all(t.h == 1 / math.sqrt(5) for t in inst.terms)
    assert inst.h_glo == 1.0  # exact on every sampled draw
    loc, glo = local_global_energies(inst)
    assert abs(glo - 1.0) < 1e-12
    assert abs(loc - inst.h_loc) < 1e-12


def test_sparse_single_term_is_unit_norm():
    inst = sample(spec("sparse_pauli", 3, 2, m=1, seed=3))
    h = instance_to_dense(inst)
    evals = np.linalg.eigvalsh(h)
    assert abs(max(abs(evals)) - 1.0) < 1e-12


def test_every_term_has_weight_k_and_unit_square():
    for sp in [
        spec("gaussian_pauli", 4, 2, seed=2),
        spec("syk", 6, 4, seed=2),
        spec("sparse_pauli", 5, 3, m=7, seed=2),
        spec("sparse_fermion", 8, 2, m=7, seed=2),
    ]:
        inst = sample(sp)
        for t in inst.terms:
            assert len(t.support) == sp.k
            dense = canonical_dense(t.op)
            assert np.abs(dense @ dense - np.eye(dense.shape[0])).max() < 1e-12
            assert np.abs(dense - dense.conj().T).max() < 1e-12


# ---------------------------------------------------------------------------
# E[H^2] = I normalization, Monte Carlo
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model,m", [("gaussian_pauli", None), ("sparse_pauli", 24)])
def test_mean_square_trace_is_one(model, m):
    draws = 220
    vals = []
    for s in range(draws):
        inst = sample(spec(model, 8, 2, m=m, seed=s))
        h = instance_to_dense(inst)
        dim = h.shape[0]
        vals.append(float(np.vdot(h, h).real) / dim)  # Tr[H^2]/2^q
    mean = np.mean(vals)
    stderr = np.std(vals, ddof=1) / math.sqrt(draws)
    assert abs(mean - 1.0) < 3 * stderr + 1e-12


# ---------------------------------------------------------------------------
# local/global energies
# ---------------------------------------------------------------------------

def _pauli_term(n, pairs, h, s=1):
    return HamiltonianTerm(PauliString.from_site_letters(n, pairs), h, s)


def test_energies_single_term():
    inst = make_instance("sparse_pauli", 4, 2, [_pauli_term(4, [(0, "X"), (1, "Z")], 1.0)], 0)
    loc, glo = local_global_energies(inst)
    assert loc == glo == 1.0


def test_energies_disjoint_terms():
    h = 1 / math.sqrt(2)
    terms = [
        _pauli_term(4, [(0, "X"), (1, "Z")], h),
        _pauli_term(4, [(2, "Y"), (3, "Y")], h),
    ]
    inst = make_instance("sparse_pauli", 4, 2, terms, 0)
    loc, glo = local_global_energies(inst)
    assert abs(glo - 1.0) < 1e-15
    assert abs(loc - h) < 1e-15


def test_energies_identical_support_terms():
    h = 1 / math.sqrt(2)
    terms = [
        _pauli_term(4, [(0, "X"), (1, "Z")], h),
        _pauli_term(4, [(0, "Y"), (1, "Y")], h),
    ]
    inst = make_instance("sparse_pauli", 4, 2, terms, 0)
    loc, _ = local_global_energies(inst)
    assert abs(loc - 1.0) < 1e-15


def test_loc_bounded_by_glo_on_random_draws():
    for s in range(30):
        inst = sample(spec("sparse_fermion", 8, 4, m=9, seed=s))
        loc, glo = local_global_energies(inst)
        assert loc <= glo + 1e-15


# ---------------------------------------------------------------------------
# dense assembly
# ---------------------------------------------------------------------------

def test_dense_empty_is_zero():
    inst = make_instance("sparse_pauli", 2, 1, [], 0)
    assert np.abs(instance_to_dense(inst)).max() == 0.0


def test_dense_single_z():
    inst = make_instance("sparse_pauli", 1, 1, [_pauli_term(1, [(0, "Z")], 1.0)], 0)
    assert np.allclose(instance_to_dense(inst), np.diag([1.0, -1.0]))


def test_dense_matches_term_by_term_sum():
    inst = sample(spec("sparse_pauli", 2, 2, m=2, seed=9))
    expect = sum(t.s * t.h * canonical_dense(t.op) for t in inst.terms)
    assert np.abs(instance_to_dense(inst) - expect).max() < 1e-14


# ---------------------------------------------------------------------------
# determinism and sign surgery
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "sp",
    [
        spec("gaussian_pauli", 3, 2, seed=11),
        spec("syk", 6, 2, seed=11),
        spec("sparse_pauli", 5, 2, m=9, seed=11),
        spec("sparse_fermion", 6, 4, m=9, seed=11),
    ],
)
def test_same_seed_reproduces_instance(sp):
    assert sample(sp) == sample(sp)


def test_different_seed_changes_instance():
    a = sample(spec("sparse_pauli", 5, 2, m=9, seed=1))
    b = sample(spec("sparse_pauli", 5, 2, m=9, seed=2))
    assert a != b


def test_with_signs():
    inst = sample(spec("sparse_pauli", 4, 2, m=3, seed=0))
    flipped = with_signs(inst, [-1, -1, -1])
    assert all(t.s == -1 for t in flipped.terms)
    assert [t.op for t in flipped.terms] == [t.op for t in inst.terms]
    assert flipped.h_glo == inst.h_glo
    with pytest.raises(ValidationError):
        with_signs(inst, [1, -1])


# ---------------------------------------------------------------------------
# statistics-only path
# ---------------------------------------------------------------------------

def test_stats_path_matches_sparse_sampler_exactly():
    for s in range(20):
        sp = spec("sparse_pauli", 7, 3, m=11, seed=s)
        loc_stats, glo_stats = sample_strength_stats(sp)
        inst = sample(sp)
        loc_full, _ = local_global_energies(inst)
        assert glo_stats == 1.0
        assert abs(loc_stats - loc_full) < 1e-12


def test_stats_path_gaussian_agrees_statistically():
    # aggregated chi-squared draws must reproduce the distribution of h_glo^2
    sp_count = 300
    stats_vals = [sample_strength_stats(spec("gaussian_pauli", 4, 2, seed=s))[1] ** 2 for s in range(sp_count)]
    full_vals = [
        sum(t.h**2 for t in sample(spec("gaussian_pauli", 4, 2, seed=10_000 + s)).terms)
        for s in range(sp_count)
    ]
    se = math.sqrt(np.var(stats_vals, ddof=1) / sp_count + np.var(full_vals, ddof=1) / sp_count)
    assert abs(np.mean(stats_vals) - np.mean(full_vals)) < 4 * se + 1e-12


# ---------------------------------------------------------------------------
# validation and budgets
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValidationError):
        spec("syk", 6, 3)  # odd fermionic k
    with pytest.raises(ValidationError):
        spec("syk", 5, 2)  # odd mode count
    with pytest.raises(ValidationError):
        spec("sparse_pauli", 4, 2)  # missing m
    with pytest.raises(ValidationError):
        spec("sparse_pauli", 4, 2, m=0)
    with pytest.raises(ValidationError):
        spec("gaussian_pauli", 4, 2, m=5)  # m not a Gaussian parameter
    with pytest.raises(ValidationError):
        spec("nope", 4, 2)
    with pytest.raises(ValidationError):
        spec("gaussian_pauli", 4, 5)  # k > n


def test_gaussian_budget_guard():
    with pytest.raises(CapacityError):
        sample(spec("gaussian_pauli", 30, 8))
    with pytest.raises(CapacityError):
        sample(spec("syk", 40, 8))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "sp",
    [
        spec("gaussian_pauli", 3, 2, seed=4),
        spec("syk", 6, 4, seed=4),
        spec("sparse_pauli", 4, 2, m=5, seed=4),
        spec("sparse_fermion", 6, 2, m=5, seed=4),
    ],
)
def test_json_round_trip_byte_identical(sp):
    inst = sample(sp)
    text = instance_to_json(inst)
    again = instance_to_json(instance_from_json(text))
    assert text == again


def test_json_preserves_values():
    inst = sample(spec("sparse_fermion", 6, 2, m=4, seed=8))
    parsed = instance_from_json(instance_to_json(inst))
    assert parsed.model == inst.model
    assert parsed.terms == inst.terms
    assert parsed.h_glo == inst.h_glo
    assert abs(parsed.h_loc - inst.h_loc) < 1e-15


def test_json_encoding_shape():
    inst = make_instance(
        "sparse_fermion",
        6,
        4,
        [HamiltonianTerm(MajoranaMonomial.from_modes(6, (0, 1, 4, 5)), 0.5, -1)],
        0,
        h_glo=1.0,
    )
    text = instance_to_json(inst)
    assert '"op_encoding":"M1 M2 M5 M6"' in text
