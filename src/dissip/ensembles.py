"""Sampling of the four random k-local Hamiltonian families.

Every instance has the shape H = sum_g s_g * h_g * U_g with independent
Rademacher signs s_g, nonnegative strengths h_g, and unit-square Hermitian
terms U_g (canonically normalized Pauli strings or Majorana monomials):

  gaussian_pauli   one term per weight-k Pauli on n qubits; the signed Gaussian
                   coefficient g ~ N(0, 3^-k C(n,k)^-1) is split as h = |g|,
                   s = sign(g)
  syk              one term per size-k mode subset, k even, with the (i)^(k/2)
                   Hermitian normalization; g ~ N(0, C(n,k)^-1)
  sparse_pauli     m uniform weight-k Paulis, drawn with replacement
                   (duplicates kept), each with h = 1/sqrt(m) and a fresh sign
  sparse_fermion   m uniform size-k subsets, same strengths and signs

Normalizations make E[H^2] = I.  The sampled models have squared global
energy exactly 1 on every draw; the instance caches that value analytically
(recomputing from the rounded strengths agrees to float precision).

:func:`sample` draws every model, driven by ``numpy.random.default_rng(seed)``
(PCG64).  The sampled models draw in a fixed batch order (supports, then
letters, then signs) so that the statistics-only path in
:func:`sample_strength_stats` consumes the stream identically to the full
sampler.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace
from hashlib import sha256
from typing import Optional

import numpy as np

from .densemat import check_dense_budget
from .errors import CapacityError, ValidationError
from .operators import (
    MajoranaMonomial,
    PauliString,
    Term,
    canonical_phase,
    decode_op,
    encode_op,
    support,
    term_action,
)

GAUSSIAN_MODELS = ("gaussian_pauli", "syk")
SAMPLED_MODELS = ("sparse_pauli", "sparse_fermion")
MODELS = GAUSSIAN_MODELS + SAMPLED_MODELS

# guard on the number of explicitly enumerated Gaussian terms
GAUSSIAN_TERM_BUDGET = 200_000

_LETTERS = ("X", "Y", "Z")


def is_fermionic(model: str) -> bool:
    return model in ("syk", "sparse_fermion")


def a_loc(model: str) -> int:
    """Jumps per site: 3 for spins (X,Y,Z), 1 for Majoranas."""
    return 1 if is_fermionic(model) else 3


def a_ac(model: str) -> int:
    """Jumps per supported site that anticommute with a term: 2 spin, 1 fermion."""
    return 1 if is_fermionic(model) else 2


def derive_seed(*parts) -> int:
    """Stable 64-bit stream seed from heterogeneous labels (SHA-256 based)."""
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(sha256(text.encode()).digest()[:8], "big")


@dataclass(frozen=True)
class EnsembleSpec:
    """Parameters of one random-Hamiltonian draw."""

    model: str
    n: int
    k: int
    m: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValidationError(f"unknown model {self.model!r}, expected one of {MODELS}")
        if self.n < 1:
            raise ValidationError("n must be positive")
        if not 1 <= self.k <= self.n:
            raise ValidationError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if is_fermionic(self.model):
            if self.n % 2:
                raise ValidationError("fermionic models need an even mode count")
            if self.k % 2:
                raise ValidationError("fermionic models need even k")
        if self.model in SAMPLED_MODELS:
            if self.m is None or self.m < 1:
                raise ValidationError("sampled models need m >= 1")
        elif self.m is not None:
            raise ValidationError("m is only a parameter of the sampled models")

    @property
    def qubits(self) -> int:
        return self.n // 2 if is_fermionic(self.model) else self.n


@dataclass(frozen=True)
class HamiltonianTerm:
    """One summand s * h * U with U a canonical unit-square term."""

    op: Term
    h: float
    s: int

    def __post_init__(self):
        if self.h < 0:
            raise ValidationError("strength must be nonnegative")
        if self.s not in (-1, 1):
            raise ValidationError("sign must be +1 or -1")

    @property
    def support(self) -> frozenset:
        return support(self.op)


@dataclass(frozen=True)
class HamiltonianInstance:
    """A sampled draw: terms plus cached local/global energies."""

    model: str
    n: int
    k: int
    m: int
    terms: tuple
    seed: int
    h_loc: float = field(default=0.0)
    h_glo: float = field(default=0.0)

    @property
    def qubits(self) -> int:
        return self.n // 2 if is_fermionic(self.model) else self.n

    @property
    def fermionic(self) -> bool:
        return is_fermionic(self.model)

    @property
    def a_loc(self) -> int:
        return a_loc(self.model)

    @property
    def a_ac(self) -> int:
        return a_ac(self.model)

    def signs(self) -> np.ndarray:
        return np.array([t.s for t in self.terms], dtype=np.int64)

    def strengths(self) -> np.ndarray:
        return np.array([t.h for t in self.terms], dtype=float)


def make_instance(model, n, k, terms, seed, h_glo=None) -> HamiltonianInstance:
    """Assemble an instance, computing the energy caches from the terms."""
    loc, glo = _loc_glo_from_terms(n, terms)
    return HamiltonianInstance(
        model=model,
        n=n,
        k=k,
        m=len(terms),
        terms=tuple(terms),
        seed=seed,
        h_loc=loc,
        h_glo=glo if h_glo is None else h_glo,
    )


def _loc_glo_from_terms(n, terms):
    per_site = np.zeros(n)
    total = 0.0
    for t in terms:
        h2 = t.h * t.h
        total += h2
        for i in t.support:
            per_site[i] += h2
    return float(np.sqrt(per_site.max(initial=0.0))), float(np.sqrt(total))


def local_global_energies(instance: HamiltonianInstance) -> tuple[float, float]:
    """(h_loc, h_glo) recomputed from the terms.

    h_glo is the root of the summed squared strengths; h_loc takes the sum
    only over terms touching the worst site.
    """
    return _loc_glo_from_terms(instance.n, instance.terms)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _draw_supports(rng, n, k, m) -> np.ndarray:
    """m uniform k-subsets of [0, n), one permutation draw per subset."""
    out = np.empty((m, k), dtype=np.int64)
    for j in range(m):
        out[j] = np.sort(rng.choice(n, size=k, replace=False))
    return out


def sample(spec: EnsembleSpec) -> HamiltonianInstance:
    """One draw of ``spec.model`` from ``numpy.random.default_rng(spec.seed)``.

    Gaussian models: one N(0, 1/count) coefficient per enumerated term, split
    into h = |g| and s = sign(g).  Sampled models: m supports, then (spin
    only) m x k letters, then m signs, each drawn as one batch, with h =
    1/sqrt(m).
    """
    rng = np.random.default_rng(spec.seed)
    n, k = spec.n, spec.k
    if spec.model in GAUSSIAN_MODELS:
        count = math.comb(n, k) * (3**k if spec.model == "gaussian_pauli" else 1)
        if count > GAUSSIAN_TERM_BUDGET:
            raise CapacityError(
                f"{count} terms exceed the Gaussian term budget of {GAUSSIAN_TERM_BUDGET}"
            )
        coeffs = rng.normal(0.0, math.sqrt(1.0 / count), size=count)
        if spec.model == "syk":
            ops = [MajoranaMonomial.from_modes(n, modes)
                   for modes in itertools.combinations(range(n), k)]
        else:
            ops = [PauliString.from_site_letters(n, list(zip(sites, letters)))
                   for sites in itertools.combinations(range(n), k)
                   for letters in itertools.product(_LETTERS, repeat=k)]
        terms = [HamiltonianTerm(op, abs(float(g)), 1 if g >= 0 else -1) for op, g in zip(ops, coeffs)]
        return make_instance(spec.model, n, k, terms, spec.seed)
    supports = _draw_supports(rng, n, k, spec.m)
    if spec.model == "sparse_pauli":
        letters = rng.integers(0, 3, size=(spec.m, k))
        ops = [PauliString.from_site_letters(n, [(int(i), _LETTERS[c]) for i, c in zip(sites, word)])
               for sites, word in zip(supports, letters)]
    else:
        ops = [MajoranaMonomial.from_modes(n, [int(i) for i in sites]) for sites in supports]
    signs = 2 * rng.integers(0, 2, size=spec.m) - 1
    h = 1.0 / math.sqrt(spec.m)
    terms = [HamiltonianTerm(op, h, int(s)) for op, s in zip(ops, signs)]
    # h_glo = 1 holds analytically on every sampled draw; cache it exactly
    return make_instance(spec.model, n, k, terms, spec.seed, h_glo=1.0)


def with_signs(instance: HamiltonianInstance, signs) -> HamiltonianInstance:
    """Same ops and strengths with a replaced sign pattern."""
    if len(signs) != len(instance.terms):
        raise ValidationError("sign pattern length does not match the term count")
    terms = tuple(replace(t, s=int(s)) for t, s in zip(instance.terms, signs))
    return replace(instance, terms=terms)


# ---------------------------------------------------------------------------
# statistics-only sampling (supports and strengths, no operators)
# ---------------------------------------------------------------------------

def sample_strength_stats(spec: EnsembleSpec) -> tuple[float, float]:
    """(h_loc, h_glo) of a draw without constructing any operators.

    Both quantities depend only on term supports and squared strengths.  For
    the sampled models this consumes the RNG stream exactly like
    :func:`sample` up through the support draws, so it reproduces the
    full sampler's values seed for seed.  For the Gaussian models the 3^k
    letter coefficients sharing a support are aggregated into a single
    chi-squared draw of the per-support squared strength, which has exactly
    the same joint distribution for (h_loc, h_glo).
    """
    rng = np.random.default_rng(spec.seed)
    n, k = spec.n, spec.k
    if spec.model in SAMPLED_MODELS:
        supports = _draw_supports(rng, n, k, spec.m)
        counts = np.bincount(supports.ravel(), minlength=n)
        return float(np.sqrt(counts.max() / spec.m)), 1.0
    per_support = 3**k if spec.model == "gaussian_pauli" else 1
    n_supports = math.comb(n, k)
    if n_supports > GAUSSIAN_TERM_BUDGET:
        raise CapacityError(
            f"{n_supports} supports exceed the Gaussian term budget of {GAUSSIAN_TERM_BUDGET}"
        )
    variance = 1.0 / (n_supports * per_support)
    squared = rng.chisquare(per_support, size=n_supports) * variance
    per_site = np.zeros(n)
    for idx, sites in enumerate(itertools.combinations(range(n), k)):
        for i in sites:
            per_site[i] += squared[idx]
    return float(np.sqrt(per_site.max())), float(np.sqrt(squared.sum()))


# ---------------------------------------------------------------------------
# dense realization
# ---------------------------------------------------------------------------

def instance_to_dense(instance: HamiltonianInstance) -> np.ndarray:
    """Dense Hermitian H = sum_g s_g h_g U_g."""
    dim = 1 << instance.qubits
    check_dense_budget("dense Hamiltonian", dim)
    out = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    for t in instance.terms:
        rows, vals = term_action(t.op, t.s * t.h * canonical_phase(t.op))
        out[rows, cols] += vals
    return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def instance_to_json(instance: HamiltonianInstance) -> str:
    doc = {
        "model": instance.model,
        "n": instance.n,
        "k": instance.k,
        "m": instance.m,
        "seed": instance.seed,
        "terms": [
            {"op_encoding": encode_op(t.op), "h": t.h, "s": t.s} for t in instance.terms
        ],
    }
    return json.dumps(doc, separators=(",", ":"))


def instance_from_json(text: str) -> HamiltonianInstance:
    doc = json.loads(text)
    model = doc["model"]
    fermionic = is_fermionic(model)
    terms = [
        HamiltonianTerm(decode_op(t["op_encoding"], doc["n"], fermionic), float(t["h"]), int(t["s"]))
        for t in doc["terms"]
    ]
    h_glo = 1.0 if model in SAMPLED_MODELS else None
    return make_instance(model, doc["n"], doc["k"], terms, doc["seed"], h_glo=h_glo)
