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
as closures over dense matrices; nothing of size 4^q x 4^q is materialized
here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .densemat import check_dense_budget, random_hermitian, spectral_norm
from .ensembles import HamiltonianInstance, instance_to_dense
from .errors import CapacityError, DimensionMismatchError
from .operators import (
    MajoranaMonomial,
    PauliString,
    canonical_dense,
    majorana_commutes,
    pauli_commutes,
    to_dense,
)

_LETTERS = ("X", "Y", "Z")

# decomposition produces O(m^2) pieces; keep m desk-sized by default
DECOMPOSE_TERM_BUDGET = 64


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
    """b_ag flags (|A| x m), from the bit-level predicates only."""
    table = np.zeros((len(jumps), len(terms)), dtype=np.uint8)
    for a, base in enumerate(jumps):
        fermionic = isinstance(base, MajoranaMonomial)
        for g, term in enumerate(terms):
            if fermionic:
                table[a, g] = majorana_commutes(base, term.op)
            else:
                table[a, g] = pauli_commutes(base, term.op)
    return table


@dataclass(frozen=True)
class LindbladianRep:
    """Dense working form of the generator for one Hamiltonian draw.

    The fields are what :func:`apply_generator` and
    :func:`apply_generator_adjoint` multiply.  The dense jumps and terms that
    only the piece decomposition and the verify checks read are built from
    the instance on first use.
    """

    instance: HamiltonianInstance
    y: float
    b_table: np.ndarray
    h_dense: np.ndarray
    k_stack: np.ndarray        # (|A|, N, N), all K^a stacked
    k_stack_dag: np.ndarray    # (|A|, N, N), daggered copies
    kdagk_sum: np.ndarray
    norm_bound: float = field(default=0.0)

    @property
    def dim(self) -> int:
        return self.h_dense.shape[0]

    @cached_property
    def base_denses(self) -> tuple:
        """Dense base jumps A^a, in :func:`build_jump_set` order."""
        return tuple(to_dense(b) for b in build_jump_set(self.instance))

    @cached_property
    def unit_denses(self) -> tuple:
        """Dense unit-square terms U_g, in term order."""
        return tuple(canonical_dense(t.op) for t in self.instance.terms)


def build_lindbladian(instance: HamiltonianInstance, y: float) -> LindbladianRep:
    """Materialize the jump stacks, commutation table and cached sums for a draw."""
    bases = build_jump_set(instance)
    # the rep's stacks and sums plus the two (|A|, N, N) temporaries of apply_generator
    check_dense_budget("generator", 1 << instance.qubits, 4 * len(bases) + 2)
    h_dense = instance_to_dense(instance)
    dim = h_dense.shape[0]
    b_table = commutation_table(bases, instance.terms)
    k_stack = np.empty((len(bases), dim, dim), dtype=complex)
    bound = 0.0
    for a, base in enumerate(bases):
        a_dense = to_dense(base)
        k = a_dense + y * (a_dense @ h_dense - h_dense @ a_dense)
        k_stack[a] = k
        bound += 2.0 * spectral_norm(k) ** 2
    k_stack_dag = np.ascontiguousarray(k_stack.conj().transpose(0, 2, 1))
    kdagk = (k_stack_dag @ k_stack).sum(axis=0)
    return LindbladianRep(
        instance=instance,
        y=y,
        b_table=b_table,
        h_dense=h_dense,
        k_stack=k_stack,
        k_stack_dag=k_stack_dag,
        kdagk_sum=kdagk,
        norm_bound=bound,
    )


def _check_dim(rep: LindbladianRep, mat: np.ndarray):
    if mat.shape != (rep.dim, rep.dim):
        raise DimensionMismatchError(
            f"operator shape {mat.shape} does not match generator dimension {rep.dim}"
        )


def apply_generator(rep: LindbladianRep, rho: np.ndarray) -> np.ndarray:
    """Schroedinger picture: L(rho) = sum_a K rho Kdag - (1/2){Kdag K, rho}."""
    _check_dim(rep, rho)
    out = (rep.k_stack @ rho @ rep.k_stack_dag).sum(axis=0)
    out -= 0.5 * (rep.kdagk_sum @ rho + rho @ rep.kdagk_sum)
    return out


def apply_generator_adjoint(rep: LindbladianRep, obs: np.ndarray) -> np.ndarray:
    """Heisenberg picture: Ldag(O) = sum_a Kdag O K - (1/2){Kdag K, O}."""
    _check_dim(rep, obs)
    out = (rep.k_stack_dag @ obs @ rep.k_stack).sum(axis=0)
    out -= 0.5 * (rep.kdagk_sum @ obs + obs @ rep.kdagk_sum)
    return out


# ---------------------------------------------------------------------------
# Rademacher decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorPiece:
    """One coefficient of the generator viewed as a sign polynomial."""

    kind: str              # "L0", "Lgamma", or "Lgammagamma"
    gammas: tuple
    apply_adjoint: Callable[[np.ndarray], np.ndarray]


def _conjugated_sum(rep, obs, active) -> np.ndarray:
    out = np.zeros_like(obs)
    for a in active:
        base = rep.base_denses[a]
        out += base @ obs @ base
    return out


def zero_piece_adjoint(rep: LindbladianRep, obs: np.ndarray) -> np.ndarray:
    """L0dag(O), including the absorbed g = g' diagonal."""
    _check_dim(rep, obs)
    y2 = rep.y * rep.y
    n_jumps = rep.k_stack.shape[0]
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
    _check_dim(rep, obs)
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
    _check_dim(rep, obs)
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


@dataclass(frozen=True)
class DecomposedGenerator:
    rep: LindbladianRep
    l0: GeneratorPiece
    singles: tuple
    crosses: dict

    def apply_adjoint(self, obs: np.ndarray, signs=None) -> np.ndarray:
        """Reassemble Ldag(O) = L0dag + sum s_g Lgdag + sum s_g s_g' Lgg'dag."""
        if signs is None:
            signs = self.rep.instance.signs()
        out = self.l0.apply_adjoint(obs)
        for g, piece in enumerate(self.singles):
            out = out + signs[g] * piece.apply_adjoint(obs)
        for (g1, g2), piece in self.crosses.items():
            out = out + signs[g1] * signs[g2] * piece.apply_adjoint(obs)
        return out


def decompose_generator(rep: LindbladianRep, max_terms: int = DECOMPOSE_TERM_BUDGET) -> DecomposedGenerator:
    """Split the adjoint generator into its sign-polynomial coefficients."""
    m = len(rep.instance.terms)
    if m > max_terms:
        raise CapacityError(f"{m} terms give {m * m} pieces, over the budget of {max_terms}")
    l0 = GeneratorPiece("L0", (), lambda obs: zero_piece_adjoint(rep, obs))
    singles = tuple(
        GeneratorPiece("Lgamma", (g,), (lambda g: lambda obs: single_piece_adjoint(rep, g, obs))(g))
        for g in range(m)
    )
    crosses = {
        (g1, g2): GeneratorPiece(
            "Lgammagamma",
            (g1, g2),
            (lambda g1, g2: lambda obs: cross_piece_adjoint(rep, g1, g2, obs))(g1, g2),
        )
        for g1 in range(m)
        for g2 in range(g1 + 1, m)
    }
    return DecomposedGenerator(rep=rep, l0=l0, singles=singles, crosses=crosses)


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
    if isinstance(t1.op, MajoranaMonomial):
        pair_flag = majorana_commutes(t1.op, t2.op)
    else:
        pair_flag = pauli_commutes(t1.op, t2.op)
    return base * (2 - pair_flag)


def sampled_superop_norm(apply_fn, dim: int, samples: int, rng: np.random.Generator) -> float:
    """Lower bound on the operator-norm-induced norm of a superoperator.

    Maximizes ||F(O)|| / ||O|| over random Hermitian probes.  A sampled
    maximum can only undershoot the true induced norm, so comparing it
    one-sidedly against an upper bound is sound.
    """
    best = 0.0
    for _ in range(samples):
        probe = random_hermitian(dim, rng)
        denom = spectral_norm(probe, hermitian=True)
        if denom == 0.0:
            continue
        image = apply_fn(probe)
        best = max(best, spectral_norm(image) / denom)
    return best


def weighted_anticommute_sum(rep: LindbladianRep, g_prime: int) -> float:
    """sum_a sum_g b_ag' b_ag h_g^2, bounded by a_loc k h_loc^2."""
    strengths2 = rep.instance.strengths() ** 2
    col = rep.b_table[:, g_prime].astype(float)
    return float(col @ (rep.b_table.astype(float) @ strengths2))


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
