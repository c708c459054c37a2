"""Generator construction, commutation ledger, and the sign-polynomial pieces.

The piece code works from the commutation flags and the simplified
piece algebra; the oracles here evaluate the raw commutator formulas on dense
matrices, so the two routes are independent.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (
    apply_generator_adjoint,
    draw,
    random_density,
    sampled_superop_norm_per_probe,
    single_z_instance,
)

from dissip.densemat import random_hermitian, random_hermitian_stack
from dissip.errors import DimensionMismatchError
from dissip.experiment import _VERIFY_MODELS
from dissip.lindblad import (
    apply_generator,
    build_jump_set,
    build_lindbladian,
    commutation_table,
    condition2_max_residual,
    cross_piece_adjoint,
    cross_piece_norm_bound,
    ledger_violations,
    piece_norm_margins,
    sampled_superop_norm,
    single_piece_adjoint,
    weighted_anticommute_margin,
    zero_piece_adjoint,
)
from dissip.operators import commutes, encode_op, to_dense

ALL_MODELS = [
    ("gaussian_pauli", 3, 2, None),
    ("syk", 6, 4, None),
    ("sparse_pauli", 3, 2, 5),
    ("sparse_fermion", 6, 4, 5),
]


# ---------------------------------------------------------------------------
# raw-formula oracles (straight from the commutator definitions)
# ---------------------------------------------------------------------------

def raw_zero_piece(a_denses, hg_denses, y, obs):
    eye = np.eye(obs.shape[0])
    out = np.zeros_like(obs)
    for a in a_denses:
        cs = [a @ hg - hg @ a for hg in hg_denses]
        acc = a @ obs @ a
        gram = eye.astype(complex).copy()
        for c in cs:
            acc = acc + y * y * c.conj().T @ obs @ c
            gram = gram + y * y * c.conj().T @ c
        out += acc - 0.5 * (gram @ obs + obs @ gram)
    return out


def raw_single_piece(a_denses, hg, y, obs):
    out = np.zeros_like(obs)
    for a in a_denses:
        c = a @ hg - hg @ a
        cd = c.conj().T
        cda = cd @ a
        ac = a @ c
        out += (
            y * cd @ obs @ a
            + y * a @ obs @ c
            - 0.5 * y * (cda @ obs + obs @ cda)
            - 0.5 * y * (ac @ obs + obs @ ac)
        )
    return out


def raw_cross_piece(a_denses, hg1, hg2, y, obs):
    # symmetrized over the ordered pair, matching the decomposition convention
    out = np.zeros_like(obs)
    for a in a_denses:
        for u, v in ((hg1, hg2), (hg2, hg1)):
            cu = a @ u - u @ a
            cv = a @ v - v @ a
            prod = cu.conj().T @ cv
            out += y * y * (cu.conj().T @ obs @ cv - 0.5 * (prod @ obs + obs @ prod))
    return out


def signed_term_denses(rep):
    return [t.h * u for t, u in zip(rep.instance.terms, rep.unit_denses)]


# ---------------------------------------------------------------------------
# jump sets and K operators
# ---------------------------------------------------------------------------

def test_jump_set_spin_ordering():
    inst = draw("sparse_pauli", 2, 1, m=1)
    labels = [encode_op(b) for b in build_jump_set(inst)]
    assert labels == ["X1", "Y1", "Z1", "X2", "Y2", "Z2"]


def test_jump_set_fermion():
    inst = draw("sparse_fermion", 4, 2, m=1)
    labels = [encode_op(b) for b in build_jump_set(inst)]
    assert labels == ["M1", "M2", "M3", "M4"]


def test_jump_set_single_spin_site():
    inst = draw("sparse_pauli", 1, 1, m=1)
    assert len(build_jump_set(inst)) == 3


def test_zero_coupling_keeps_bare_jumps():
    inst = draw("sparse_pauli", 2, 2, m=3, seed=4)
    rep = build_lindbladian(inst, y=0.0)
    for k, base in zip(rep.k_stack, build_jump_set(inst), strict=True):
        assert np.abs(k - to_dense(base)).max() == 0.0


def test_k_matrix_single_qubit_oracle():
    # H = Z, y = 0.1: K for A = X is X + 0.1 [X, Z] = X - 0.2 i Y
    rep = build_lindbladian(single_z_instance(), y=0.1)
    k_x = rep.k_stack[0]
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y_mat = np.array([[0, -1j], [1j, 0]])
    assert np.abs(k_x - (x - 0.2j * y_mat)).max() < 1e-12
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    assert np.abs(k_x - (x + 0.1 * (x @ z - z @ x))).max() < 1e-12


# ---------------------------------------------------------------------------
# commutation ledger (Conditions 2 and 3)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model,n,k,m", ALL_MODELS)
def test_b_table_row_sums(model, n, k, m):
    for seed in range(10):
        assert ledger_violations(draw(model, n, k, m=m, seed=seed)) == (0, 0)


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from([
    ("sparse_pauli", 1, 1, 6),  # three strings, so duplicates
    ("sparse_pauli", 4, 2, 5),
    ("sparse_pauli", 40, 3, 8),  # keys past 64 bits
    ("sparse_fermion", 2, 2, 3),  # one subset, every term a duplicate
    ("sparse_fermion", 8, 4, 6),
    ("sparse_fermion", 70, 4, 5),
    ("gaussian_pauli", 1, 1, None),
    ("gaussian_pauli", 3, 2, None),
    ("syk", 2, 2, None),
    ("syk", 6, 4, None),
]), seed=st.integers(0, 2**32 - 1))
def test_commutation_table_matches_the_predicate(shape, seed):
    model, n, k, m = shape
    inst = draw(model, n, k, m=m, seed=seed)
    jumps = build_jump_set(inst)
    table = commutation_table(jumps, inst.terms)
    expected = [[not commutes(a, t.op) for t in inst.terms] for a in jumps]
    assert table.dtype == np.uint8
    assert np.array_equal(table, np.array(expected, dtype=np.uint8))


def test_ledger_flags_a_term_of_the_wrong_weight():
    # negative control: a weight-1 term anticommutes with 2 jumps, not a_ac k = 4
    from dissip.ensembles import HamiltonianTerm, make_instance
    from dissip.operators import PauliString

    terms = [HamiltonianTerm(PauliString.from_site_letters(3, [(0, "X"), (1, "Z")]), 0.6, 1),
             HamiltonianTerm(PauliString.from_site_letters(3, [(2, "Y")]), 0.8, 1)]
    assert ledger_violations(make_instance("sparse_pauli", 3, 2, terms, 0)) == (1, 0)


@pytest.mark.parametrize("model,n,k,m", ALL_MODELS)
def test_condition2_dense(model, n, k, m):
    inst = draw(model, n, k, m=m, seed=3)
    rep = build_lindbladian(inst, y=-0.2)
    assert condition2_max_residual(rep) < 1e-12


def test_jump_support_counts():
    # every site carries a_loc jumps, so any site subset Z sees a_loc |Z| jumps
    inst = draw("sparse_pauli", 4, 2, m=3, seed=0)
    bases = build_jump_set(inst)
    for z in ({0}, {1, 3}, {0, 1, 2, 3}):
        touching = [b for b in bases if b.support() & z]
        assert len(touching) == inst.a_loc * len(z)


# ---------------------------------------------------------------------------
# generator application
# ---------------------------------------------------------------------------

def test_mixed_state_fixed_point_at_zero_coupling():
    inst = draw("sparse_pauli", 2, 2, m=4, seed=1)
    rep = build_lindbladian(inst, y=0.0)
    mu = np.eye(4) / 4
    assert np.abs(apply_generator(rep, mu)).max() < 1e-14


def test_generator_traceless_and_hermiticity_preserving():
    rng = np.random.default_rng(0)
    inst = draw("sparse_fermion", 6, 2, m=4, seed=2)
    rep = build_lindbladian(inst, y=-0.15)
    for _ in range(5):
        rho = random_density(rep.dim, rng)
        out = apply_generator(rep, rho)
        assert abs(np.trace(out)) < 1e-11
        assert np.abs(out - out.conj().T).max() < 1e-11


def test_adjoint_annihilates_identity():
    inst = draw("sparse_pauli", 3, 2, m=4, seed=5)
    rep = build_lindbladian(inst, y=-0.1)
    assert np.abs(apply_generator_adjoint(rep, np.eye(rep.dim))).max() < 1e-11


def test_adjoint_identity_random_pairs():
    rng = np.random.default_rng(42)
    inst = draw("sparse_pauli", 3, 2, m=5, seed=7)
    rep = build_lindbladian(inst, y=-0.12)
    for _ in range(20):
        rho = random_density(rep.dim, rng)
        obs = random_hermitian(rep.dim, rng)
        lhs = np.trace(apply_generator(rep, rho) @ obs)
        rhs = np.trace(rho @ apply_generator_adjoint(rep, obs))
        assert abs(lhs - rhs) < 1e-10


def test_adjoint_zero_coupling_formula():
    rng = np.random.default_rng(9)
    inst = draw("sparse_pauli", 2, 1, m=3, seed=3)
    rep = build_lindbladian(inst, y=0.0)
    obs = random_hermitian(rep.dim, rng)
    expect = sum(a @ obs @ a - obs for a in rep.base_denses)
    assert np.abs(apply_generator_adjoint(rep, obs) - expect).max() < 1e-12


def test_dimension_mismatch_rejected():
    rep = build_lindbladian(draw("sparse_pauli", 2, 1, m=2), y=0.1)
    with pytest.raises(DimensionMismatchError):
        apply_generator(rep, np.eye(8))
    with pytest.raises(DimensionMismatchError):
        apply_generator_adjoint(rep, np.eye(2))


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model,n,k,m", [("sparse_pauli", 3, 2, 3), ("sparse_fermion", 6, 2, 3)])
def test_reassembly_identity(model, n, k, m):
    # Ldag = L0dag + sum_g s_g Lgdag + sum_{g<g'} s_g s_g' Lgg'dag
    rng = np.random.default_rng(17)
    inst = draw(model, n, k, m=m, seed=11)
    rep = build_lindbladian(inst, y=-0.2)
    signs = inst.signs()
    for _ in range(10):
        obs = random_hermitian(rep.dim, rng)
        reassembled = zero_piece_adjoint(rep, obs)
        for g in range(m):
            reassembled = reassembled + signs[g] * single_piece_adjoint(rep, g, obs)
        for g1, g2 in itertools.combinations(range(m), 2):
            reassembled = reassembled + signs[g1] * signs[g2] * cross_piece_adjoint(rep, g1, g2, obs)
        assert np.abs(apply_generator_adjoint(rep, obs) - reassembled).max() < 1e-10


def test_pieces_match_raw_formulas():
    rng = np.random.default_rng(23)
    inst = draw("sparse_pauli", 3, 2, m=3, seed=19)
    y = -0.17
    rep = build_lindbladian(inst, y)
    signed = signed_term_denses(rep)
    obs = random_hermitian(rep.dim, rng)
    assert np.abs(
        zero_piece_adjoint(rep, obs) - raw_zero_piece(rep.base_denses, signed, y, obs)
    ).max() < 1e-11
    for g in range(len(inst.terms)):
        assert np.abs(
            single_piece_adjoint(rep, g, obs) - raw_single_piece(rep.base_denses, signed[g], y, obs)
        ).max() < 1e-11
    for g1 in range(len(inst.terms)):
        for g2 in range(g1 + 1, len(inst.terms)):
            assert np.abs(
                cross_piece_adjoint(rep, g1, g2, obs)
                - raw_cross_piece(rep.base_denses, signed[g1], signed[g2], y, obs)
            ).max() < 1e-11


def test_single_piece_linear_in_y():
    rng = np.random.default_rng(29)
    inst = draw("sparse_fermion", 6, 4, m=2, seed=2)
    rep1 = build_lindbladian(inst, y=0.05)
    rep2 = build_lindbladian(inst, y=0.10)
    obs = random_hermitian(rep1.dim, rng)
    for g in range(len(inst.terms)):
        once = single_piece_adjoint(rep1, g, obs)
        twice = single_piece_adjoint(rep2, g, obs)
        assert np.abs(twice - 2.0 * once).max() < 1e-12


def test_cross_piece_symmetric_in_arguments():
    rng = np.random.default_rng(31)
    rep = build_lindbladian(draw("sparse_pauli", 3, 2, m=3, seed=1), y=-0.1)
    obs = random_hermitian(rep.dim, rng)
    assert np.abs(
        cross_piece_adjoint(rep, 0, 2, obs) - cross_piece_adjoint(rep, 2, 0, obs)
    ).max() < 1e-13


# ---------------------------------------------------------------------------
# stacks of probes
# ---------------------------------------------------------------------------

def verify_rep(model, n, k, m):
    return build_lindbladian(draw(model, n, k, m=m, seed=21), y=-0.2)


def every_piece(rep):
    """(name, piece) for the zero piece, every single and every cross piece."""
    terms = range(len(rep.instance.terms))
    yield "zero", lambda o: zero_piece_adjoint(rep, o)
    for g in terms:
        yield f"single {g}", lambda o, g=g: single_piece_adjoint(rep, g, o)
    for g1, g2 in itertools.combinations(terms, 2):
        yield f"cross {g1} {g2}", lambda o, g1=g1, g2=g2: cross_piece_adjoint(rep, g1, g2, o)


@pytest.mark.parametrize("dim", [1, 2, 8])
def test_hermitian_stack_is_consecutive_draws(dim):
    stacked_rng, single_rng = np.random.default_rng(4), np.random.default_rng(4)
    stack = random_hermitian_stack(dim, 5, stacked_rng)
    singles = np.array([random_hermitian(dim, single_rng) for _ in range(5)])
    assert stack.shape == (5, dim, dim)
    assert stack.tobytes() == singles.tobytes()
    assert stacked_rng.bit_generator.state == single_rng.bit_generator.state


@pytest.mark.parametrize("model,n,k,m", _VERIFY_MODELS)
def test_piece_adjoints_map_a_stack_slice_by_slice(model, n, k, m):
    rep = verify_rep(model, n, k, m)
    stack = random_hermitian_stack(rep.dim, 3, np.random.default_rng(8))
    for name, piece in every_piece(rep):
        per_slice = np.array([piece(obs) for obs in stack])
        assert piece(stack).tobytes() == per_slice.tobytes(), name


def test_stack_with_wrong_trailing_shape_rejected():
    rep = build_lindbladian(draw("sparse_pauli", 2, 2, m=2), y=0.1)
    for bad in (np.zeros((3, 4, 8)), np.zeros((3, 2, 2)), np.zeros(4)):
        for piece in (lambda o: zero_piece_adjoint(rep, o), lambda o: single_piece_adjoint(rep, 0, o),
                      lambda o: cross_piece_adjoint(rep, 0, 1, o)):
            with pytest.raises(DimensionMismatchError):
                piece(bad)
    with pytest.raises(DimensionMismatchError):
        apply_generator(rep, np.zeros((2, 4, 4), dtype=complex))


@pytest.mark.parametrize("model,n,k,m", _VERIFY_MODELS)
def test_sampled_norm_equals_per_probe_oracle(model, n, k, m):
    rep = verify_rep(model, n, k, m)
    stacked_rng, oracle_rng = np.random.default_rng(6), np.random.default_rng(6)
    for name, piece in every_piece(rep):
        stacked = sampled_superop_norm(piece, rep.dim, 7, stacked_rng)
        assert stacked == sampled_superop_norm_per_probe(piece, rep.dim, 7, oracle_rng), name
        assert stacked_rng.bit_generator.state == oracle_rng.bit_generator.state


def test_sampled_norm_of_no_probes_is_zero():
    rng = np.random.default_rng(0)
    assert sampled_superop_norm(lambda o: o, 4, 0, rng) == 0.0


# ---------------------------------------------------------------------------
# norm bounds and combinatorial estimates
# ---------------------------------------------------------------------------

def test_sampled_piece_norms_under_closed_form_bounds():
    rng = np.random.default_rng(37)
    for model, n, k, m in [("sparse_pauli", 3, 2, 4), ("sparse_fermion", 6, 2, 4)]:
        rep = build_lindbladian(draw(model, n, k, m=m, seed=13), y=-0.2)
        assert max(piece_norm_margins(rep, 40, rng)) <= 1e-9


def test_cross_bound_commuting_pair_needs_doubled_constant():
    # X1X2 and Y1Y2 commute with overlapping support; probing with U_g attains
    # exactly twice the single-ordering constant, so the closed form must carry
    # the (2 - b_gg') factor.
    from dissip.densemat import spectral_norm
    from dissip.ensembles import HamiltonianTerm, make_instance
    from dissip.operators import PauliString

    t1 = HamiltonianTerm(PauliString.from_site_letters(2, [(0, "X"), (1, "X")]), 0.7, 1)
    t2 = HamiltonianTerm(PauliString.from_site_letters(2, [(0, "Y"), (1, "Y")]), 0.5, 1)
    rep = build_lindbladian(make_instance("sparse_pauli", 2, 2, [t1, t2], 0), y=-0.3)
    both = int((rep.b_table[:, 0] & rep.b_table[:, 1]).sum())
    single_ordering = 8 * 0.3**2 * both * t1.h * t2.h
    attained = spectral_norm(cross_piece_adjoint(rep, 0, 1, rep.unit_denses[0]))
    assert abs(attained - 2 * single_ordering) < 1e-12
    assert abs(cross_piece_norm_bound(rep, 0, 1) - 2 * single_ordering) < 1e-15


def test_cross_bound_anticommuting_pair_keeps_paper_constant():
    from dissip.ensembles import HamiltonianTerm, make_instance
    from dissip.operators import PauliString

    t1 = HamiltonianTerm(PauliString.from_site_letters(2, [(0, "X"), (1, "X")]), 0.7, 1)
    t2 = HamiltonianTerm(PauliString.from_site_letters(2, [(0, "Z"), (1, "X")]), 0.5, 1)
    rep = build_lindbladian(make_instance("sparse_pauli", 2, 2, [t1, t2], 0), y=-0.3)
    both = int((rep.b_table[:, 0] & rep.b_table[:, 1]).sum())
    assert abs(cross_piece_norm_bound(rep, 0, 1) - 8 * 0.3**2 * both * t1.h * t2.h) < 1e-15
    rng = np.random.default_rng(3)
    observed = sampled_superop_norm(lambda o: cross_piece_adjoint(rep, 0, 1, o), rep.dim, 200, rng)
    assert observed <= cross_piece_norm_bound(rep, 0, 1) + 1e-9


@pytest.mark.parametrize("model,n,k,m", ALL_MODELS)
def test_weighted_anticommute_sum_bound(model, n, k, m):
    for seed in range(5):
        inst = draw(model, n, k, m=m, seed=seed)
        assert weighted_anticommute_margin(build_lindbladian(inst, y=0.1)) <= 1e-12
