"""Exact algebra of multi-qubit Pauli strings and Majorana monomials.

Pauli strings are stored in the symplectic binary representation: an n-qubit
string is a pair of n-bit masks ``(x_bits, z_bits)`` where qubit ``i`` carries
an X factor iff bit ``i`` of ``x_bits`` is set, a Z factor iff bit ``i`` of
``z_bits`` is set, and a Y factor iff both are set.  The stored object is the
canonical Hermitian string with letters I/X/Y/Z and no phase; products return
their phase explicitly.  Commutation is a popcount parity of the symplectic
form, so predicates never touch dense matrices.

Majorana monomials chi_S = chi_{i1} ... chi_{ik} (i1 < ... < ik) are stored as
an occupation mask over n modes.  Their qubit form uses the Jordan-Wigner
embedding, fixed once and for all as

    chi_{2j-1} = Z^(j-1) X_j,    chi_{2j} = Z^(j-1) Y_j     (1-based j),

which satisfies chi_i chi_j + chi_j chi_i = 2 delta_ij.  Any embedding with
the Clifford relations would do; fixing one keeps tests deterministic.
Results are embedding-invariant up to unitary conjugation.

Every operator has one coefficient-basis form, ``(key, phase)`` from
:func:`string_key`; dense realizations, the jumps' commutation flags and the
generator are derived from keys, and :func:`key_mul` multiplies them.

Site indices are 0-based everywhere in code; the text encodings used for
serialization ("X1 Z3", "M1 M2 M5 M6") are 1-based.

Dense realizations are plain complex numpy arrays.  Qubit 0 is the leftmost
kron factor (most significant bit of the basis index).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .densemat import check_dense_budget
from .errors import DimensionMismatchError, ValidationError

PHASES = (1 + 0j, 1j, -1 + 0j, -1j)  # i**e for e = 0,1,2,3

_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_LETTER = {v: k for k, v in _LETTER_BITS.items()}


@dataclass(frozen=True)
class PauliString:
    """Canonical n-qubit Pauli string, phase-free, in symplectic bit form."""

    n: int
    x_bits: int
    z_bits: int

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"qubit count must be positive, got {self.n}")
        mask = (1 << self.n) - 1
        if self.x_bits & ~mask or self.z_bits & ~mask:
            raise ValidationError("bit masks exceed the qubit count")

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0)

    @classmethod
    def from_site_letters(cls, n: int, site_letters) -> "PauliString":
        """Build from (site, letter) pairs, e.g. [(0, 'X'), (2, 'Z')]."""
        x = z = 0
        for site, letter in site_letters:
            if not 0 <= site < n:
                raise ValidationError(f"site {site} outside [0, {n})")
            xb, zb = _LETTER_BITS[letter]
            if (x | z) & (1 << site) and letter != "I":
                raise ValidationError(f"site {site} assigned twice")
            x |= xb << site
            z |= zb << site
        return cls(n, x, z)

    def letter(self, site: int) -> str:
        return _BITS_LETTER[(self.x_bits >> site) & 1, (self.z_bits >> site) & 1]

    @property
    def weight(self) -> int:
        return (self.x_bits | self.z_bits).bit_count()

    def support(self) -> frozenset:
        occ = self.x_bits | self.z_bits
        return frozenset(i for i in range(self.n) if (occ >> i) & 1)

    @property
    def is_identity(self) -> bool:
        return self.x_bits == 0 and self.z_bits == 0

    def __str__(self) -> str:
        return encode_op(self)


@dataclass(frozen=True)
class MajoranaMonomial:
    """Product chi_{i1}...chi_{ik} over n Majorana modes, factors ascending.

    ``occ`` is the mode occupation mask; no phase is stored.  The canonical
    Hermitian normalization of an even-weight Hamiltonian term is
    (i)^(k/2) chi_S, supplied by :func:`canonical_phase`.
    """

    n: int
    occ: int

    def __post_init__(self):
        if self.n < 2 or self.n % 2:
            raise ValidationError(f"Majorana mode count must be even and >= 2, got {self.n}")
        if self.occ & ~((1 << self.n) - 1):
            raise ValidationError("occupation mask exceeds the mode count")

    @classmethod
    def identity(cls, n: int) -> "MajoranaMonomial":
        return cls(n, 0)

    @classmethod
    def from_modes(cls, n: int, modes) -> "MajoranaMonomial":
        occ = 0
        for i in modes:
            if not 0 <= i < n:
                raise ValidationError(f"mode {i} outside [0, {n})")
            if (occ >> i) & 1:
                raise ValidationError(f"mode {i} repeated")
            occ |= 1 << i
        return cls(n, occ)

    @property
    def weight(self) -> int:
        return self.occ.bit_count()

    def modes(self) -> tuple:
        return tuple(i for i in range(self.n) if (self.occ >> i) & 1)

    def support(self) -> frozenset:
        return frozenset(self.modes())

    @property
    def is_identity(self) -> bool:
        return self.occ == 0

    def __str__(self) -> str:
        return encode_op(self)


Term = Union[PauliString, MajoranaMonomial]


def _require_same_n(a, b):
    if a.n != b.n:
        raise DimensionMismatchError(f"operands act on {a.n} vs {b.n} sites")


def _product_exponent(x1: int, z1: int, x2: int, z2: int) -> int:
    """i-exponent (mod 4) of the product of the canonical strings (x1, z1) and
    (x2, z2), in any one site order.  Writing each letter as i^(x.z) X^x Z^z,
    it accumulates per site as x1 z1 + x2 z2 - x3 z3 + 2 z1 x2."""
    return ((x1 & z1).bit_count() + (x2 & z2).bit_count() - ((x1 ^ x2) & (z1 ^ z2)).bit_count()
            + 2 * (z1 & x2).bit_count()) % 4


def pauli_mul(a: PauliString, b: PauliString) -> tuple[PauliString, complex]:
    """Product of two Pauli strings.

    Returns ``(c, phase)`` with dense(a) @ dense(b) == phase * dense(c) and
    phase in {1, i, -1, -i}.
    """
    _require_same_n(a, b)
    return (PauliString(a.n, a.x_bits ^ b.x_bits, a.z_bits ^ b.z_bits),
            PHASES[_product_exponent(a.x_bits, a.z_bits, b.x_bits, b.z_bits)])


def key_mul(q: int, a: int, b: int) -> tuple[int, complex]:
    """Product of the strings with keys ``a`` and ``b`` (:func:`string_key`)
    on q qubits: ``(a ^ b, phase)`` with P_a P_b == phase * P_(a ^ b)."""
    low = (1 << q) - 1
    return a ^ b, PHASES[_product_exponent(a >> q, a & low, b >> q, b & low)]


def pauli_commutes(a: PauliString, b: PauliString) -> int:
    """0 if the strings commute, 1 if they anticommute (symplectic parity)."""
    _require_same_n(a, b)
    return ((a.x_bits & b.z_bits).bit_count() + (a.z_bits & b.x_bits).bit_count()) % 2


def majorana_commutes(a: MajoranaMonomial, b: MajoranaMonomial) -> int:
    """0 if chi_S chi_T = chi_T chi_S, 1 if they anticommute.

    Reordering gives chi_S chi_T = (-1)^(|S||T| - |S cap T|) chi_T chi_S,
    so the flag is the parity of |S||T| + |S cap T|.
    """
    _require_same_n(a, b)
    overlap = (a.occ & b.occ).bit_count()
    return (a.weight * b.weight + overlap) % 2


def commutes(a, b) -> bool:
    """True if two Pauli strings, or two Majorana monomials, commute."""
    if isinstance(a, MajoranaMonomial):
        return not majorana_commutes(a, b)
    return not pauli_commutes(a, b)


def jordan_wigner(mode: int, n_modes: int) -> PauliString:
    """Single Majorana chi_mode (0-based) as a Pauli string on n_modes/2 qubits."""
    if n_modes % 2:
        raise ValidationError("Jordan-Wigner needs an even mode count")
    if not 0 <= mode < n_modes:
        raise ValidationError(f"mode {mode} outside [0, {n_modes})")
    q = n_modes // 2
    j = mode // 2
    x = 1 << j
    z = (1 << j) - 1  # Z ladder on qubits 0..j-1
    if mode % 2:  # odd modes carry Y = XZ on the target qubit
        z |= 1 << j
    return PauliString(q, x, z)


def majorana_to_pauli(mono: MajoranaMonomial) -> tuple[PauliString, complex]:
    """Pauli string and phase with dense(mono) == phase * dense(pauli)."""
    acc = PauliString.identity(mono.n // 2)
    phase = 1 + 0j
    for i in mono.modes():
        acc, p = pauli_mul(acc, jordan_wigner(i, mono.n))
        phase *= p
    return acc, phase


def canonical_phase(term: Term) -> complex:
    """Global phase making the term Hermitian with square +I.

    Pauli strings and single Majoranas need none; an even-weight Majorana
    monomial takes (i)^(k/2).
    """
    if isinstance(term, PauliString):
        return 1 + 0j
    k = term.weight
    if k % 2 == 0:
        return 1j ** (k // 2)
    if k == 1:
        return 1 + 0j
    raise ValidationError(f"no Hermitian normalization fixed for odd weight {k} > 1")


def support(term: Term) -> frozenset:
    """Set of site (qubit or mode) indices the term acts on nontrivially."""
    return term.support()


def popcount_table(bits: int) -> np.ndarray:
    """popcount(b) for b = 0..2^bits-1, as int8, built by doubling."""
    table = np.zeros(1, dtype=np.int8)
    for _ in range(bits):
        table = np.concatenate((table, table + 1))
    return table


def term_qubits(term: Term) -> int:
    """Qubits of the term: n for a Pauli string, n/2 for a Majorana monomial."""
    return term.n // 2 if isinstance(term, MajoranaMonomial) else term.n


def string_key(term: Term) -> tuple[int, complex]:
    """``(key, phase)`` with dense(term) == phase * P_key, P_key = i^{|x & z|}
    X^x Z^z the canonical string at index key = (x << q) | z of a coefficient
    vector.  Qubit i is bit q-1-i of x and z (qubit 0 is the leftmost kron
    factor); Majorana monomials pass through Jordan-Wigner here."""
    if isinstance(term, MajoranaMonomial):
        q, key, phase = term.n // 2, 0, 1 + 0j
        for mode in term.modes():
            # chi_mode: Z on the qubits before its own, there X (even) or Y (odd)
            bit = q - 1 - mode // 2
            x, z = 1 << bit, ((1 << q) - (2 << bit)) | (mode & 1) << bit
            key, factor = key_mul(q, key, (x << q) | z)
            phase *= factor
        return key, phase
    # the masks' bits reversed, x then z, read as one binary number
    return int("".join(f"{bits:0{term.n}b}"[::-1] for bits in (term.x_bits, term.z_bits)), 2), 1 + 0j


def term_action(term: Term, global_phase: complex = 1.0):
    """Column action (rows, vals) of global_phase * term: M[rows[c], c] = vals[c].

    Every Pauli string or Majorana monomial is a permutation-with-phases
    matrix, so this O(2^q) form is enough to build or accumulate dense
    realizations without materializing intermediates.
    """
    q = term_qubits(term)
    key, phase = string_key(term)
    x, z = key >> q, key & ((1 << q) - 1)
    cols = np.arange(1 << q)
    vals = PHASES[(x & z).bit_count() % 4] * (1.0 - 2.0 * (popcount_table(q)[cols & z] & 1))
    return cols ^ x, (global_phase * phase) * vals


def to_dense(term: Term, global_phase: complex = 1.0) -> np.ndarray:
    """Dense matrix global_phase * term on the full 2^q space.

    q equals the qubit count for Pauli strings and half the mode count
    (via Jordan-Wigner) for Majorana monomials.
    """
    size = 1 << term_qubits(term)
    check_dense_budget("dense realization", size)
    rows, vals = term_action(term, global_phase)
    out = np.zeros((size, size), dtype=complex)
    out[rows, np.arange(size)] = vals
    return out


def canonical_dense(term: Term) -> np.ndarray:
    """Dense matrix of the Hermitian, unit-square normalization of the term."""
    return to_dense(term, canonical_phase(term))


# ---------------------------------------------------------------------------
# Pauli coefficient vectors
# ---------------------------------------------------------------------------
#
# An operator on q qubits is M = (1/N) sum_P r_P P over the N^2 canonical
# strings P = i^{|x & z|} X^x Z^z and r_P = Tr(P M).  P sits at its key
# (x << q) | z (:func:`string_key`) in the vector r, so r[0] = Tr M, and r is
# real when M is Hermitian.

def _walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """sum_c (-1)^popcount(c & z) a[..., c] for every z, along the last axis."""
    shape = a.shape
    size = shape[-1]
    half = 1
    while half < size:
        v = a.reshape(shape[:-1] + (size // (2 * half), 2, half))
        a = np.stack((v[..., 0, :] + v[..., 1, :], v[..., 0, :] - v[..., 1, :]), axis=-2)
        half *= 2
    return a.reshape(shape)


def string_phase_exponents(dim: int) -> np.ndarray:
    """|x & z| mod 4 on the (x, z) grid of an N = dim space, int8."""
    idx = np.arange(dim)
    return popcount_table(dim.bit_length() - 1)[idx[:, None] & idx[None, :]] & 3


def _string_phases(dim: int) -> np.ndarray:
    """i^{|x & z|} on the (x, z) grid."""
    return np.asarray(PHASES)[string_phase_exponents(dim)]


def pauli_coefficients(mat: np.ndarray) -> np.ndarray:
    """r_P = Tr(P M) for every canonical string P, as a real vector of length N^2.

    Imaginary parts, which vanish for Hermitian M, are dropped.
    """
    dim = mat.shape[0]
    idx = np.arange(dim)
    # Tr(P M) = i^{|x & z|} sum_c (-1)^{c.z} M[c, c ^ x]; rows of the grid are x
    sums = _walsh_hadamard(mat[idx[None, :], idx[:, None] ^ idx[None, :]])
    return (_string_phases(dim) * sums).real.ravel()


def from_pauli_coefficients(coeffs: np.ndarray) -> np.ndarray:
    """M = (1/N) sum_P r_P P, the inverse of :func:`pauli_coefficients`."""
    dim = 1 << ((coeffs.size.bit_length() - 1) // 2)
    idx = np.arange(dim)
    # M[c ^ x, c] = (1/N) sum_z (-1)^{c.z} i^{|x & z|} r[x, z]
    shifted = _walsh_hadamard(_string_phases(dim) * coeffs.reshape(dim, dim)) / dim
    return shifted[idx[:, None] ^ idx[None, :], idx[None, :]]


def encode_op(term: Term) -> str:
    """Text encoding: 'X1 Z3' for Paulis, 'M1 M2 M5 M6' for Majoranas (1-based)."""
    if isinstance(term, PauliString):
        parts = [f"{term.letter(i)}{i + 1}" for i in sorted(term.support())]
    else:
        parts = [f"M{i + 1}" for i in term.modes()]
    return " ".join(parts) if parts else "I"


def decode_op(text: str, n: int, fermionic: bool) -> Term:
    """Inverse of :func:`encode_op` given the site count and family."""
    text = text.strip()
    if text == "I":
        return MajoranaMonomial.identity(n) if fermionic else PauliString.identity(n)
    if fermionic:
        modes = []
        for part in text.split():
            if not part.startswith("M"):
                raise ValidationError(f"bad Majorana factor {part!r}")
            modes.append(int(part[1:]) - 1)
        return MajoranaMonomial.from_modes(n, modes)
    pairs = []
    for part in text.split():
        letter, site = part[0], int(part[1:]) - 1
        if letter not in ("X", "Y", "Z"):
            raise ValidationError(f"bad Pauli letter in {part!r}")
        pairs.append((site, letter))
    return PauliString.from_site_letters(n, pairs)
