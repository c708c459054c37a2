"""Bit-level Pauli/Majorana algebra against dense matrix oracles."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import kron_chain

from dissip.ensembles import EnsembleSpec, instance_to_dense, sample
from dissip.errors import CapacityError, DimensionMismatchError, ValidationError
from dissip.lindblad import build_lindbladian
from dissip.operators import (
    MajoranaMonomial,
    PauliString,
    canonical_dense,
    canonical_phase,
    commutes,
    decode_op,
    encode_op,
    jordan_wigner,
    key_mul,
    majorana_commutes,
    majorana_to_pauli,
    pauli_commutes,
    pauli_mul,
    string_key,
    support,
    to_dense,
)

X1 = PauliString.from_site_letters(1, [(0, "X")])
Y1 = PauliString.from_site_letters(1, [(0, "Y")])
Z1 = PauliString.from_site_letters(1, [(0, "Z")])


def random_pauli(rng, n):
    return PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))


def letters_of(p):
    return "".join(p.letter(i) for i in range(p.n))


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def test_mul_identity_square():
    c, phase = pauli_mul(X1, X1)
    assert c.is_identity and phase == 1


def test_mul_xz_is_minus_i_y():
    # 2x2 oracle: X @ Z = -i Y
    c, phase = pauli_mul(X1, Z1)
    assert c == Y1
    oracle = kron_chain("X") @ kron_chain("Z")
    assert np.allclose(phase * to_dense(c), oracle)
    assert phase == -1j


def test_mul_two_qubit_example():
    # 4x4 oracle: (X o Z) @ (Z o Z) = -i (Y o I)
    a = PauliString.from_site_letters(2, [(0, "X"), (1, "Z")])
    b = PauliString.from_site_letters(2, [(0, "Z"), (1, "Z")])
    c, phase = pauli_mul(a, b)
    assert letters_of(c) == "YI"
    assert np.allclose(phase * to_dense(c), kron_chain("XZ") @ kron_chain("ZZ"))
    assert phase == -1j


def test_every_pauli_squares_to_plus_identity():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = random_pauli(rng, int(rng.integers(1, 9)))
        c, phase = pauli_mul(p, p)
        assert c.is_identity and phase == 1


# ---------------------------------------------------------------------------
# commutation predicates
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "a,b,flag",
    [
        (X1, X1, 0),
        (X1, Z1, 1),
        (
            PauliString.from_site_letters(2, [(0, "X"), (1, "X")]),
            PauliString.from_site_letters(2, [(0, "Z"), (1, "Z")]),
            0,
        ),
    ],
)
def test_commutes_examples(a, b, flag):
    assert pauli_commutes(a, b) == flag
    assert commutes(a, b) == (flag == 0)
    da, db = to_dense(a), to_dense(b)
    comm = da @ db - db @ da
    assert (np.abs(comm).max() < 1e-12) == (flag == 0)


@pytest.mark.parametrize(
    "a_modes,b_modes,flag",
    [
        ((0,), (0, 1, 2, 3), 1),  # jump inside the support anticommutes
        ((4,), (0, 1, 2, 3), 0),  # jump off an even-weight term commutes
        ((0, 1), (2, 3), 0),      # disjoint even-weight terms commute
    ],
)
def test_majorana_commutes_examples(a_modes, b_modes, flag):
    a = MajoranaMonomial.from_modes(6, a_modes)
    b = MajoranaMonomial.from_modes(6, b_modes)
    assert majorana_commutes(a, b) == flag
    assert commutes(a, b) == (flag == 0)
    da, db = to_dense(a), to_dense(b)
    comm = da @ db - db @ da
    assert (np.abs(comm).max() < 1e-12) == (flag == 0)


def test_disjoint_odd_monomials_anticommute():
    a = MajoranaMonomial.from_modes(4, (0,))
    b = MajoranaMonomial.from_modes(4, (1,))
    assert majorana_commutes(a, b) == 1


def test_mismatched_sizes_raise():
    with pytest.raises(DimensionMismatchError):
        pauli_mul(X1, PauliString.identity(2))
    with pytest.raises(DimensionMismatchError):
        pauli_commutes(X1, PauliString.identity(2))
    with pytest.raises(DimensionMismatchError):
        majorana_commutes(MajoranaMonomial.identity(2), MajoranaMonomial.identity(4))


# ---------------------------------------------------------------------------
# dense realization and Jordan-Wigner
# ---------------------------------------------------------------------------

def test_dense_single_x():
    assert np.array_equal(to_dense(X1), np.array([[0, 1], [1, 0]], dtype=complex))


def test_dense_matches_kron_oracle():
    for n in (1, 2, 3):
        for letters in itertools.product("IXYZ", repeat=n):
            p = PauliString.from_site_letters(n, list(enumerate(letters)))
            assert np.allclose(to_dense(p), kron_chain(letters), atol=1e-15)


def test_jw_first_mode_is_x():
    chi0 = MajoranaMonomial.from_modes(2, (0,))
    assert np.allclose(to_dense(chi0), kron_chain("X"))


def test_jw_pair_with_i_phase_is_minus_z():
    pair = MajoranaMonomial.from_modes(2, (0, 1))
    assert np.allclose(to_dense(pair, global_phase=1j), -kron_chain("Z"))


def test_jw_anticommutation_full_table():
    n = 8
    chis = [to_dense(MajoranaMonomial.from_modes(n, (i,))) for i in range(n)]
    eye = np.eye(1 << (n // 2))
    for i in range(n):
        for j in range(n):
            anti = chis[i] @ chis[j] + chis[j] @ chis[i]
            expect = 2 * eye if i == j else 0 * eye
            assert np.abs(anti - expect).max() < 1e-12


def test_jw_monomial_matches_factor_product():
    n = 6
    mono = MajoranaMonomial.from_modes(n, (0, 2, 3, 5))
    product = np.eye(1 << (n // 2), dtype=complex)
    for i in mono.modes():
        product = product @ to_dense(MajoranaMonomial.from_modes(n, (i,)))
    assert np.abs(to_dense(mono) - product).max() < 1e-12


@pytest.mark.parametrize("modes,n", [((0, 1), 4), ((0, 1, 2, 3), 4), ((1, 2, 4, 5), 6), ((0, 1, 2, 3, 4, 5), 6)])
def test_canonical_majorana_terms_hermitian_unit_square(modes, n):
    dense = canonical_dense(MajoranaMonomial.from_modes(n, modes))
    assert np.abs(dense - dense.conj().T).max() < 1e-12
    assert np.abs(dense @ dense - np.eye(dense.shape[0])).max() < 1e-12


def test_canonical_pauli_terms_hermitian_unit_square():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = random_pauli(rng, 4)
        dense = canonical_dense(p)
        assert np.abs(dense - dense.conj().T).max() < 1e-12
        assert np.abs(dense @ dense - np.eye(16)).max() < 1e-12


def test_canonical_phase_values():
    assert canonical_phase(X1) == 1
    assert canonical_phase(MajoranaMonomial.from_modes(4, (0,))) == 1
    assert canonical_phase(MajoranaMonomial.from_modes(4, (0, 1))) == 1j
    assert canonical_phase(MajoranaMonomial.from_modes(4, (0, 1, 2, 3))) == -1
    with pytest.raises(ValidationError):
        canonical_phase(MajoranaMonomial.from_modes(6, (0, 1, 2)))


def test_byte_budget_raises_before_allocating():
    # n = 24 spins: one dense matrix alone takes 16 * 4^24 bytes (4.5 PB)
    inst = sample(EnsembleSpec("sparse_pauli", 24, 2, 3, seed=0))
    builds = (
        lambda: to_dense(PauliString.identity(24)),
        lambda: instance_to_dense(inst),
        lambda: build_lindbladian(inst, -0.1),
    )
    for build in builds:
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="bytes"):
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


# ---------------------------------------------------------------------------
# support and weight
# ---------------------------------------------------------------------------

def test_support_examples():
    p = PauliString.from_site_letters(3, [(0, "X"), (1, "Y")])
    assert support(p) == frozenset({0, 1})
    m = MajoranaMonomial.from_modes(6, (1,))
    assert support(m) == frozenset({1})
    assert support(PauliString.identity(3)) == frozenset()
    assert p.weight == len(support(p)) == 2


# ---------------------------------------------------------------------------
# randomized agreement with the dense oracle
# ---------------------------------------------------------------------------

def test_random_pairs_match_dense_oracle():
    # 10^4 pairs at mixed sizes up to n = 8.  The dense products are probed on
    # a random complex vector: the operators are permutation-phase matrices, so
    # agreement on a continuous random vector pins them down almost surely while
    # keeping the check O(4^n) instead of O(8^n).
    rng = np.random.default_rng(20240817)
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        a, b = random_pauli(rng, n), random_pauli(rng, n)
        da, db = to_dense(a), to_dense(b)
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        ab, ba = da @ (db @ v), db @ (da @ v)
        assert pauli_commutes(a, b) == (0 if np.abs(ab - ba).max() < 1e-10 else 1)
        c, phase = pauli_mul(a, b)
        assert np.abs(ab - phase * (to_dense(c) @ v)).max() < 1e-10


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_commutation_is_symplectic_parity(data):
    n = data.draw(st.integers(1, 10))
    bits = st.integers(0, (1 << n) - 1)
    a = PauliString(n, data.draw(bits), data.draw(bits))
    b = PauliString(n, data.draw(bits), data.draw(bits))
    assert pauli_commutes(a, b) == pauli_commutes(b, a)
    c, _ = pauli_mul(a, b)
    d, _ = pauli_mul(b, a)
    assert c == d  # products agree modulo phase
    assert c.weight <= a.weight + b.weight


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_majorana_flag_matches_dense(data):
    n = data.draw(st.sampled_from([2, 4, 6, 8]))
    bits = st.integers(0, (1 << n) - 1)
    a = MajoranaMonomial(n, data.draw(bits))
    b = MajoranaMonomial(n, data.draw(bits))
    da, db = to_dense(a), to_dense(b)
    comm_is_zero = np.abs(da @ db - db @ da).max() < 1e-12
    assert majorana_commutes(a, b) == (0 if comm_is_zero else 1)


# ---------------------------------------------------------------------------
# string keys
# ---------------------------------------------------------------------------

def key_dense(q, key):
    """P_key from its letters: qubit i reads bit q-1-i of x = key >> q and of z."""
    letters = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
    return kron_chain(letters[(key >> (2 * q - 1 - i)) & 1, (key >> (q - 1 - i)) & 1] for i in range(q))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_key_mul_is_pauli_mul_on_keys(data):
    n = data.draw(st.integers(1, 40))  # past 64 key bits
    bits = st.integers(0, (1 << n) - 1)
    a = PauliString(n, data.draw(bits), data.draw(bits))
    b = PauliString(n, data.draw(bits), data.draw(bits))
    c, phase = pauli_mul(a, b)
    assert string_key(a)[1] == string_key(b)[1] == string_key(c)[1] == 1
    assert key_mul(n, string_key(a)[0], string_key(b)[0]) == (string_key(c)[0], phase)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_string_key_is_the_dense_string(data):
    q = data.draw(st.integers(1, 4))
    bits = st.integers(0, (1 << q) - 1)
    p = PauliString(q, data.draw(bits), data.draw(bits))
    assert np.array_equal(key_dense(q, string_key(p)[0]), kron_chain(letters_of(p)))
    assert np.array_equal(to_dense(p), kron_chain(letters_of(p)))
    m = MajoranaMonomial(2 * q, data.draw(st.integers(0, (1 << (2 * q)) - 1)))
    key, phase = string_key(m)
    pauli, jw_phase = majorana_to_pauli(m)
    assert (key, phase) == (string_key(pauli)[0], jw_phase)
    # the product of the Jordan-Wigner factors, each from its letters
    factors = np.eye(1 << q, dtype=complex)
    for mode in m.modes():
        factors = factors @ kron_chain(letters_of(jordan_wigner(mode, 2 * q)))
    assert np.abs(factors - phase * key_dense(q, key)).max() < 1e-15
    assert np.abs(to_dense(m) - factors).max() < 1e-15


# ---------------------------------------------------------------------------
# text encoding
# ---------------------------------------------------------------------------

def test_encode_examples():
    p = PauliString.from_site_letters(3, [(0, "X"), (2, "Z")])
    assert encode_op(p) == "X1 Z3"
    m = MajoranaMonomial.from_modes(6, (0, 1, 4, 5))
    assert encode_op(m) == "M1 M2 M5 M6"
    assert encode_op(PauliString.identity(2)) == "I"


def test_encode_decode_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        p = random_pauli(rng, n)
        assert decode_op(encode_op(p), n, fermionic=False) == p
    for _ in range(100):
        n = 2 * int(rng.integers(1, 5))
        m = MajoranaMonomial(n, int(rng.integers(0, 1 << n)))
        assert decode_op(encode_op(m), n, fermionic=True) == m


def test_decode_rejects_garbage():
    with pytest.raises(ValidationError):
        decode_op("Q1", 2, fermionic=False)
    with pytest.raises(ValidationError):
        decode_op("X1 X1", 2, fermionic=False)
    with pytest.raises(ValidationError):
        decode_op("X1", 4, fermionic=True)


def test_jordan_wigner_rejects_odd_mode_count():
    with pytest.raises(ValidationError):
        jordan_wigner(0, 3)


def test_majorana_to_pauli_phase_consistency():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = 2 * int(rng.integers(1, 5))
        m = MajoranaMonomial(n, int(rng.integers(0, 1 << n)))
        pauli, phase = majorana_to_pauli(m)
        assert np.abs(to_dense(m) - phase * to_dense(pauli)).max() < 1e-12
