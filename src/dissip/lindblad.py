"""Jump operators, the dissipative generator, and its sign decomposition.

The generator is the GKSL form built from Hamiltonian-adapted jumps

    K^a = A^a + y [A^a, H],          y real,

where the base jumps {A^a} are all 3n single-site Paulis for spin models and
all n single-site Majoranas for fermionic models.  In the Heisenberg picture

    Ldag(O) = sum_a  K^a_dag O K^a - (1/2) {K^a_dag K^a, O}.

Because H = sum_g s_g H_g with Rademacher signs s_g and H_g^2 = h_g^2 I, the
generator is a degree-two polynomial in the signs,

    Ldag = L0dag + sum_g s_g Lgdag + sum_{g<g'} s_g s_g' Lgg'dag,

with the g = g' diagonal absorbed into L0dag (signs square to one) and the
cross piece symmetrized over the ordered pair.  Using the commutation flags
b_ag ([A^a, H_g] = 2 b_ag A^a H_g) the pieces reduce to

    L0dag(O)  = sum_a (A O A - O) + 4 y^2 sum_{a,g} b_ag h_g^2 (U_g A O A U_g - O)
    Lgdag(O)  = 2 y h_g ( {U_g, sum_{a: b_ag=1} A O A} - (sum_a b_ag) {U_g, O} )
    Lgg'dag(O) = 2 y^2 h_g h_g' ( 2 U_g M U_g' + 2 U_g' M U_g
                                  - c ({U_g U_g', O} + {U_g' U_g, O}) ),
    M = sum_{a: b_ag = b_ag' = 1} A O A,   c = sum_a b_ag b_ag',

where U_g is the unit-square canonical term (H_g = h_g U_g).  The pieces act
on dense matrices or on (..., N, N) stacks of them, slice by slice; the verify
checks probe their norms against closed-form bounds, a whole stack of probes
per piece.

The same structure gives the generator on Pauli coefficient vectors (see
:func:`dissip.operators.pauli_coefficients`).  Each K^a = A^a (I + 2y H_a),
with H_a the terms anticommuting with A^a, is a short sum of canonical
strings, and a pair of its strings P, P' moves a string Q to Q ^ P ^ P'.
The only shifts are therefore 0, g and g ^ g', and the generator is a real
sparse 4^q x 4^q matrix with at most one entry per row and shift
(:func:`transfer_matrix`).  It is built from the strings' integer keys
alone (:func:`dissip.operators.string_key`), in one pass over blocks of rows:
a row's entry at a shift is a phase sign times a table entry indexed by the
commutation bits of the row with the shift's strings.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .densemat import check_budget, check_dense_budget, random_hermitian_stack, spectral_norm
from .ensembles import HamiltonianInstance, instance_to_dense
from .errors import DimensionMismatchError, ValidationError
from .operators import (
    MajoranaMonomial,
    PauliString,
    canonical_dense,
    canonical_phase,
    commutes,
    key_mul,
    popcount_table,
    string_key,
    string_phase_exponents,
    term_qubits,
    to_dense,
)

_LETTERS = ("X", "Y", "Z")


def build_jump_set(instance: HamiltonianInstance) -> tuple:
    """Base jumps A^a, ordered site-major (letters X < Y < Z for spins)."""
    if instance.fermionic:
        return tuple(MajoranaMonomial.from_modes(instance.n, (i,)) for i in range(instance.n))
    return tuple(
        PauliString.from_site_letters(instance.n, [(site, letter)])
        for site in range(instance.n)
        for letter in _LETTERS
    )


def commutation_table(jumps, terms) -> np.ndarray:
    """b_ag flags (|A| x m, uint8): the symplectic parity of the string keys,
    |x_a & z_g| + |z_a & x_g| mod 2, as one product of bit matrices."""
    q = term_qubits(jumps[0])
    positions = np.arange(2 * q).astype(object)  # keys may pass 64 bits

    def bits(ops):
        """(len(ops), 2q) uint8, bit i of each key in column i."""
        keys = np.array([string_key(op)[0] for op in ops], dtype=object).reshape(-1, 1)
        return ((keys >> positions) & 1).astype(np.uint8)

    # with the halves of the term bits swapped the form is a dot product; the
    # uint8 product wraps mod 256, which keeps its parity
    return (bits(jumps) @ np.roll(bits([t.op for t in terms]), q, axis=1).T) & 1


def ledger_violations(instance: HamiltonianInstance) -> tuple[int, int]:
    """Condition 3 on one draw: (1 if some term has sum_a b_ag != a_ac k,
    1 if the jump count is not a_loc n), each 0 when it holds."""
    jumps = build_jump_set(instance)
    table = commutation_table(jumps, instance.terms)
    return (int((table.sum(axis=0) != instance.a_ac * instance.k).any()),
            int(len(jumps) != instance.a_loc * instance.n))


class _cached:
    """functools.cached_property without the class-wide lock it holds while
    computing on Python < 3.12, so threads building forms of different reps
    do not wait on each other."""

    def __init__(self, fn):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


# one jump's dense A, A H, H A, commutator and SVD copy
_JUMP_TEMPORARIES = 5


@dataclass(frozen=True)
class LindbladianRep:
    """The generator of one Hamiltonian draw, ``(instance, y)``.

    Every working form is built on first use and checks its own bytes before
    it allocates.  The evolution of the sampled models runs on
    :func:`transfer_matrix` and never builds a dense jump stack.
    """

    instance: HamiltonianInstance
    y: float

    @property
    def dim(self) -> int:
        return 1 << self.instance.qubits

    @_cached
    def b_table(self) -> np.ndarray:
        """b_ag commutation flags (|A| x m)."""
        jumps = build_jump_set(self.instance)
        check_budget("commutation table", len(jumps) * len(self.instance.terms))
        return commutation_table(jumps, self.instance.terms)

    @_cached
    def h_dense(self) -> np.ndarray:
        """Dense H = sum_g s_g h_g U_g."""
        return instance_to_dense(self.instance)

    def _jumps(self):
        """Each dense K^a = A^a + y [A^a, H], one at a time, in jump-set order."""
        h_dense = self.h_dense
        for base in build_jump_set(self.instance):
            a_dense = to_dense(base)
            yield a_dense + self.y * (a_dense @ h_dense - h_dense @ a_dense)

    @_cached
    def k_stack(self) -> np.ndarray:
        """(|A|, N, N), all K^a stacked."""
        n_jumps = len(self.b_table)
        check_dense_budget("jump stack", self.dim, n_jumps + 1 + _JUMP_TEMPORARIES)
        return np.fromiter(self._jumps(), dtype=(complex, (self.dim, self.dim)), count=n_jumps)

    @_cached
    def norm_bound(self) -> float:
        """sum_a 2 ||K^a||^2, a bound on the generator's operator norm; no stack
        is held.  No package code reads it: the benchmark's traced-``evolve``
        observer (``perfbench/layers.py::_observe_evolve``) is its only reader."""
        check_dense_budget("generator norm bound", self.dim, 1 + _JUMP_TEMPORARIES)
        bound = 0.0
        for k in self._jumps():
            bound += 2.0 * spectral_norm(k) ** 2
        return bound

    @_cached
    def k_stack_dag(self) -> np.ndarray:
        """(|A|, N, N) daggered copies of the jumps."""
        # the stack plus the two (|A|, N, N) temporaries of apply_generator
        check_dense_budget("adjoint jump stack", self.dim, 3 * len(self.b_table))
        return np.ascontiguousarray(self.k_stack.conj().transpose(0, 2, 1))

    @_cached
    def kdagk_sum(self) -> np.ndarray:
        """sum_a K^a_dag K^a."""
        # the (|A|, N, N) stack of products plus their sum
        check_dense_budget("sum of K^dag K", self.dim, len(self.b_table) + 1)
        return (self.k_stack_dag @ self.k_stack).sum(axis=0)

    @_cached
    def base_denses(self) -> tuple:
        """Dense base jumps A^a, in :func:`build_jump_set` order."""
        return tuple(to_dense(b) for b in build_jump_set(self.instance))

    @_cached
    def unit_denses(self) -> tuple:
        """Dense unit-square terms U_g, in term order."""
        return tuple(canonical_dense(t.op) for t in self.instance.terms)


def build_lindbladian(instance: HamiltonianInstance, y: float) -> LindbladianRep:
    """The generator of a draw; it does no dense work, and checks only that
    the dense H plus one jump's temporaries fit."""
    check_dense_budget("generator", 1 << instance.qubits, 1 + _JUMP_TEMPORARIES)
    return LindbladianRep(instance=instance, y=y)


def _check_dim(rep: LindbladianRep, mat: np.ndarray, stacked: bool = False):
    """An N x N operator, or with ``stacked`` a (..., N, N) stack of them."""
    shape = mat.shape[-2:] if stacked else mat.shape
    if shape != (rep.dim, rep.dim):
        raise DimensionMismatchError(
            f"operator shape {mat.shape} does not match generator dimension {rep.dim}"
        )


def apply_generator(rep: LindbladianRep, rho: np.ndarray) -> np.ndarray:
    """Schroedinger picture: L(rho) = sum_a K rho Kdag - (1/2){Kdag K, rho}."""
    _check_dim(rep, rho)
    out = (rep.k_stack @ rho @ rep.k_stack_dag).sum(axis=0)
    out -= 0.5 * (rep.kdagk_sum @ rho + rho @ rep.kdagk_sum)
    return out


# ---------------------------------------------------------------------------
# Pauli-transfer form
# ---------------------------------------------------------------------------

def _jump_components(rep: LindbladianRep):
    """Each K^a = A^a + 2y sum_{g: b_ag = 1} s_g h_g A^a U_g as a list of
    (string key, coefficient), sorted by key, repeated strings merged and
    zero coefficients dropped."""
    q = rep.instance.qubits
    terms = []
    for t in rep.instance.terms:
        key, phase = string_key(t.op)
        terms.append((key, canonical_phase(t.op) * phase, 2.0 * rep.y * t.s * t.h))
    for a, base in enumerate(build_jump_set(rep.instance)):
        key_a, phase_a = string_key(base)
        comps = {key_a: phase_a}
        for g in np.flatnonzero(rep.b_table[a]):
            key_g, phase_g, coeff = terms[g]
            key, phase = key_mul(q, key_a, key_g)
            comps[key] = comps.get(key, 0j) + coeff * phase_a * phase_g * phase
        yield [(key, c) for key, c in sorted(comps.items()) if c != 0]


def _shift_groups(rep: LindbladianRep) -> dict:
    """The generator's action on strings, grouped by shift.

    For K = sum_j c_j P_j the generator sends a string Q to
    sum_{j,l} c_j c_l^* (P_j Q P_l - (1/2) {P_l P_j, Q}).  A diagonal pair
    gives |c_j|^2 (chi_j(Q) - 1) Q, where chi_j(Q) = +-1 as P_j commutes or
    anticommutes with Q.  With P_j P_l = w S (S the string at shift
    s = P_j ^ P_l), v = c_j c_l^* and Q S = phi(Q) (Q ^ s), the ordered pairs
    (j, l) and (l, j) together give (Q ^ s) times

        phi(Q)   (2 Re(v w) chi_j(Q) - 2 Re(v w^*))   if Q commutes with S,
        phi(Q) i  2 Im(v w) chi_j(Q)                   if it anticommutes,

    both real.  Returns {s: {index of P_j: [a, b, c]}}, the sums of
    a = 2 Re(v w), b = -2 Re(v w^*) and c = 2 Im(v w) over the pairs with
    first string P_j (a diagonal pair adds a = -b = |c_j|^2 at s = 0).  At
    Q = S every pair has a chi_j(S) = -b exactly, and so has each sum, which
    keeps the identity row of T exactly zero.
    """
    q = rep.instance.qubits
    groups = {}

    def add(shift, key, a, b, c):
        coeffs = groups.setdefault(shift, {}).setdefault(key, [0.0, 0.0, 0.0])
        coeffs[0] += a
        coeffs[1] += b
        coeffs[2] += c

    for comps in _jump_components(rep):
        for j, (key_j, c_j) in enumerate(comps):
            try:
                weight = abs(c_j) ** 2
            except OverflowError:
                raise ValidationError(f"jump coefficient {c_j!r} at y = {rep.y!r} overflows") from None
            add(0, key_j, weight, -weight, 0.0)
            for key_l, c_l in comps[j + 1:]:
                shift, w = key_mul(q, key_j, key_l)
                v = c_j * c_l.conjugate()
                add(shift, key_j, 2.0 * (v * w).real, -2.0 * (v * w.conjugate()).real,
                    2.0 * (v * w).imag)
    return groups


# row slots (rows times shifts) one block of the transfer build fills at once;
# a block is at least one row of the (x, z) grid
_TRANSFER_BLOCK = 1 << 14


def transfer_matrix(rep: LindbladianRep):
    """Real sparse T with pauli_coefficients(L(rho)) = T pauli_coefficients(rho).

    T[R, R ^ s] is the shift-s entry of row R, from :func:`_shift_groups` and
    the masks alone: a phase sign times an entry of the shift's table, which
    is indexed by an x part XOR a z part of R.  The build fills T in one pass
    over blocks of rows, each a (rows, shifts) array compacted into CSR arrays
    sized by a structural bound on the nonzeros, so every entry is computed
    once and no more than one block is held besides T and the tables.  T^T is
    the Heisenberg-picture generator on the same coefficients.
    """
    from scipy.sparse import csr_matrix  # only the sampled evolution needs it

    q = rep.instance.qubits
    side = 1 << q
    size = side * side
    low = side - 1
    order = sorted(_shift_groups(rep).items())
    n_shifts = len(order)
    # S != I anticommutes with half the strings, and a shift's commuting and
    # anticommuting parts are each nonzero on one half; S = I commutes with all
    bound = sum(size if shift == 0 else
                size // 2 * (any(a or b for a, b, _ in coeffs.values()) + any(c for *_, c in coeffs.values()))
                for shift, coeffs in order)
    # a table over the sign patterns of a shift's strings, or over all strings
    # where that is no longer (shift 0 holds every string of the jumps)
    lengths = [min(2 << len(coeffs), size) for _, coeffs in order]
    x_rows = min(side, max(1, _TRANSFER_BLOCK // (side * n_shifts)))
    # T at the bound; the tables, the working vectors of one over all strings
    # and the index tables; one block's values, columns, phases and nonzeros
    check_budget("transfer matrix", 12 * bound + 8 * (size + 1) + 8 * sum(lengths)
                 + 48 * size * (size in lengths) + 17 * side * n_shifts
                 + 33 * x_rows * side * n_shifts)
    popcount = popcount_table(q)
    half = np.arange(side)

    def parity(mask):
        """|b & mask| mod 2 for b = 0..2^q - 1."""
        return popcount[half & mask] & 1

    def table(shift, coeffs, length):
        """(entries, x index, z index) of one shift: T[R, R ^ shift] is the
        phase sign times entries[x index[x_R] ^ z index[z_R]]."""
        # chi_P(Q) = (-1)^<P, Q>, <P, Q> = |x_Q & z_P| + |z_Q & x_P|, splits
        # into a function of x_Q times one of z_Q; S comes last, as R ^ s
        # anticommutes with S iff R does
        keys = [*coeffs, shift]
        if length < size:
            # bit k of a pattern is <P_k, R> mod 2
            patterns = np.arange(length)
            signs = (1 - 2 * ((patterns >> bit) & 1) for bit in range(len(keys)))
            x_index = sum(parity(key & low).astype(np.int64) << bit for bit, key in enumerate(keys))
            z_index = sum(parity(key >> q).astype(np.int64) << bit for bit, key in enumerate(keys))
        else:
            signs = (np.multiply.outer(1 - 2 * parity(key & low), 1 - 2 * parity(key >> q)).ravel()
                     for key in keys)
            x_index, z_index = half << q, half
        commuting, anticommuting = np.zeros(length), np.zeros(length)
        for key, sign in zip(coeffs, signs):
            a, b, c = coeffs[key]
            # chi_P(R ^ s) = chi_P(R) chi_P(s): the scalar joins the coefficients
            overlap = (key & low & (shift >> q)).bit_count() + ((key >> q) & shift & low).bit_count()
            at = 1 - 2 * (overlap & 1)
            if a or b:
                commuting += (a * at) * sign + b
            if c:
                anticommuting += (c * at) * sign
        anti = next(signs) < 0  # the sign left after the keys' is that of S
        return np.where(anti, anticommuting, commuting), x_index, z_index

    # the tables in one array, longest first, so that each starts at a
    # multiple of its power-of-two length and its offset ORs into the x index
    placed = sorted(range(n_shifts), key=lambda j: -lengths[j])
    offsets = np.zeros(n_shifts, dtype=np.int64)
    offsets[placed] = np.cumsum([0] + [lengths[j] for j in placed[:-1]])
    tables = np.empty(sum(lengths))
    x_index = np.empty((side, n_shifts), dtype=np.int64)
    z_index = np.empty((side, n_shifts), dtype=np.int64)
    for j, (shift, coeffs) in enumerate(order):
        entries, x_index[:, j], z_index[:, j] = table(shift, coeffs, lengths[j])
        tables[offsets[j]:offsets[j] + lengths[j]] = entries
    x_index |= offsets
    # R ^ s times S is i^e R with e = |x & z|(R ^ s) + |x & z|(s) - |x & z|(R)
    # + 2 |z_{R ^ s} & x_S| (mod 4), and its real factor is (-1)^ceil(e/2),
    # -1 iff (e + 1) & 2.  The middle terms, plus one, by z and shift:
    shifts = np.array([shift for shift, _ in order], dtype=np.int64)
    xz = string_phase_exponents(side).ravel()
    z_phase = np.stack([xz[shift] + 2 * (parity(shift >> q) ^ (((shift >> q) & shift & low).bit_count() & 1)) + 1
                        for shift in shifts.tolist()], axis=1)

    data = np.empty(bound)
    indices = np.empty(bound, dtype=np.int32)
    indptr = np.zeros(size + 1, dtype=np.int64)
    nnz = 0
    for x0 in range(0, side, x_rows):
        x_block = slice(x0, min(side, x0 + x_rows))
        rows = np.arange(x0 * side, x_block.stop * side)
        values = tables.take((x_index[x_block, None, :] ^ z_index).reshape(-1, n_shifts))
        columns = rows[:, None] ^ shifts
        phase = xz.take(columns).reshape(-1, side, n_shifts)
        phase -= xz[rows].reshape(-1, side, 1)
        phase += z_phase
        phase &= 2
        np.subtract(1, phase, out=phase)
        values *= phase.reshape(-1, n_shifts)
        del phase
        # compact row-major, so each row keeps its shifts in sorted order
        found = np.flatnonzero(values != 0)
        end = nnz + found.size
        np.take(values, found, out=data[nnz:end])
        np.take(columns, found, out=indices[nnz:end])
        indptr[rows + 1] = nnz + np.searchsorted(found, n_shifts * np.arange(1, rows.size + 1))
        nnz = end
    # shrink in place: the tail of the bound was never written, and holds no
    # page once released
    data.resize(nnz, refcheck=False)
    indices.resize(nnz, refcheck=False)
    return csr_matrix((data, indices, indptr), shape=(size, size))


# ---------------------------------------------------------------------------
# Rademacher decomposition
# ---------------------------------------------------------------------------

def _conjugated_sum(rep, obs, active) -> np.ndarray:
    out = np.zeros_like(obs)
    for a in active:
        base = rep.base_denses[a]
        out += base @ obs @ base
    return out


def zero_piece_adjoint(rep: LindbladianRep, obs: np.ndarray) -> np.ndarray:
    """L0dag(O), including the absorbed g = g' diagonal; like the other pieces
    it maps a (..., N, N) stack slice by slice."""
    _check_dim(rep, obs, stacked=True)
    y2 = rep.y * rep.y
    n_jumps = len(rep.base_denses)
    out = _conjugated_sum(rep, obs, range(n_jumps)) - n_jumps * obs
    for g, term in enumerate(rep.instance.terms):
        active = np.flatnonzero(rep.b_table[:, g])
        if active.size == 0:
            continue
        h2 = term.h * term.h
        u = rep.unit_denses[g]
        inner = _conjugated_sum(rep, obs, active)
        out += 4.0 * y2 * h2 * (u @ inner @ u - active.size * obs)
    return out


def single_piece_adjoint(rep: LindbladianRep, g: int, obs: np.ndarray) -> np.ndarray:
    """Lgdag(O), the coefficient of s_g."""
    _check_dim(rep, obs, stacked=True)
    active = np.flatnonzero(rep.b_table[:, g])
    if active.size == 0:
        return np.zeros_like(obs)
    u = rep.unit_denses[g]
    inner = _conjugated_sum(rep, obs, active)
    anti_inner = u @ inner + inner @ u
    anti_obs = u @ obs + obs @ u
    return 2.0 * rep.y * rep.instance.terms[g].h * (anti_inner - active.size * anti_obs)


def cross_piece_adjoint(rep: LindbladianRep, g1: int, g2: int, obs: np.ndarray) -> np.ndarray:
    """Lgg'dag(O) for g != g', symmetrized over the ordered pair."""
    _check_dim(rep, obs, stacked=True)
    if g1 == g2:
        raise ValueError("cross pieces are defined for distinct terms")
    both = np.flatnonzero(rep.b_table[:, g1] & rep.b_table[:, g2])
    if both.size == 0:
        return np.zeros_like(obs)
    u1, u2 = rep.unit_denses[g1], rep.unit_denses[g2]
    inner = _conjugated_sum(rep, obs, both)
    prod = u1 @ u2
    anti = prod @ obs + obs @ prod
    prod_rev = u2 @ u1
    anti_rev = prod_rev @ obs + obs @ prod_rev
    coeff = 2.0 * rep.y * rep.y * rep.instance.terms[g1].h * rep.instance.terms[g2].h
    return coeff * (
        2.0 * (u1 @ inner @ u2 + u2 @ inner @ u1) - both.size * (anti + anti_rev)
    )


# ---------------------------------------------------------------------------
# norms and combinatorial bounds
# ---------------------------------------------------------------------------

def single_piece_norm_bound(rep: LindbladianRep, g: int) -> float:
    """Closed-form bound on ||Lgdag||: 8 |y| (sum_a b_ag) h_g."""
    return 8.0 * abs(rep.y) * float(rep.b_table[:, g].sum()) * rep.instance.terms[g].h


def cross_piece_norm_bound(rep: LindbladianRep, g1: int, g2: int) -> float:
    """Closed-form bound on the symmetrized ||Lgg'dag||.

    Triangle inequality on the expanded piece gives
    8 y^2 (sum_a b_ag b_ag') h_g h_g' per ordering.  When H_g and H_g'
    anticommute the {H_g H_g', O} parts of the two orderings cancel and the
    single-ordering constant covers the sum; when they commute (duplicate
    terms from with-replacement sampling included) those parts add, the
    constant doubles, and probing with O = U_g attains it.
    """
    t1, t2 = rep.instance.terms[g1], rep.instance.terms[g2]
    both = int((rep.b_table[:, g1] & rep.b_table[:, g2]).sum())
    base = 8.0 * rep.y * rep.y * both * t1.h * t2.h
    return base * (1 + commutes(t1.op, t2.op))


def sampled_superop_norm(apply_fn, dim: int, samples: int, rng: np.random.Generator) -> float:
    """Lower bound on the operator-norm-induced norm of a superoperator.

    Maximizes ||F(O)|| / ||O|| over ``samples`` random Hermitian probes.
    They are drawn as one (samples, N, N) stack, the same draws as
    ``samples`` calls of :func:`~dissip.densemat.random_hermitian`, and
    ``apply_fn`` receives the whole stack (less any zero probe) and returns
    the stack of images.  A sampled
    maximum can only undershoot the true induced norm, so comparing it
    one-sidedly against an upper bound is sound.
    """
    probes = random_hermitian_stack(dim, samples, rng)
    denoms = np.abs(np.linalg.eigvalsh(probes)).max(axis=-1)
    nonzero = denoms != 0.0
    if not nonzero.any():
        return 0.0
    images = apply_fn(probes[nonzero])
    norms = np.linalg.svd(images, compute_uv=False).max(axis=-1)
    return float((norms / denoms[nonzero]).max())


def piece_norm_margins(rep: LindbladianRep, probes: int, rng: np.random.Generator) -> tuple[float, float]:
    """Worst (sampled norm - closed-form bound) over the single pieces, then
    over the cross pieces, -inf where there are none.

    Every single piece is probed before every cross piece, in term order, each
    with ``probes`` draws from ``rng``.
    """
    m = len(rep.instance.terms)
    single = max(
        (sampled_superop_norm(lambda o: single_piece_adjoint(rep, g, o), rep.dim, probes, rng)
         - single_piece_norm_bound(rep, g) for g in range(m)),
        default=-math.inf,
    )
    cross = max(
        (sampled_superop_norm(lambda o: cross_piece_adjoint(rep, g1, g2, o), rep.dim, probes, rng)
         - cross_piece_norm_bound(rep, g1, g2) for g1, g2 in itertools.combinations(range(m), 2)),
        default=-math.inf,
    )
    return single, cross


def weighted_anticommute_sum(rep: LindbladianRep, g_prime: int) -> float:
    """sum_a sum_g b_ag' b_ag h_g^2, bounded by a_loc k h_loc^2."""
    strengths2 = rep.instance.strengths() ** 2
    col = rep.b_table[:, g_prime].astype(float)
    return float(col @ (rep.b_table.astype(float) @ strengths2))


def weighted_anticommute_margin(rep: LindbladianRep) -> float:
    """max over g' of weighted_anticommute_sum - a_loc k h_loc^2, <= 0 by Appendix C."""
    cap = rep.instance.a_loc * rep.instance.k * rep.instance.h_loc**2
    return max(weighted_anticommute_sum(rep, g) - cap for g in range(len(rep.instance.terms)))


def condition1_max_residual(rep: LindbladianRep) -> float:
    """max over g of || U_g^2 - I || in dense form."""
    eye = np.eye(rep.dim)
    return max((float(np.abs(u @ u - eye).max()) for u in rep.unit_denses), default=0.0)


def condition2_max_residual(rep: LindbladianRep) -> float:
    """max over (a, g) of || [A, H_g] - 2 b_ag A H_g || in dense form."""
    worst = 0.0
    for a, base in enumerate(rep.base_denses):
        for g, term in enumerate(rep.instance.terms):
            hg = term.h * rep.unit_denses[g]
            comm = base @ hg - hg @ base
            residual = comm - 2.0 * float(rep.b_table[a, g]) * (base @ hg)
            worst = max(worst, float(np.abs(residual).max()))
    return worst
