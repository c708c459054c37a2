"""Energies, the exact linear-in-t coefficient, schedules, and bound checks.

Averaging the achieved energy over the Rademacher signs kills the zeroth
order exactly and leaves a linear term that evaluates in closed form,

    T1 = -8 y t ||H||_glo^2 a_ac k,

coming from the per-pair identity normalized_trace(Lgdag(H_g)) =
-8 b_ag h_g^2 y.  The remainder is O(t^2), so with y < 0 and small t the
evolved energy is positive on average.  This module computes the closed
form, enumerates or samples the sign average exactly, scans the residual
for its quadratic scaling, and evaluates the spectral-norm tail bound.

It also holds the two stages of a run that follow sampling: :func:`schedule`
resolves (y, t), checking every given value once for all entry points, and
:func:`evolve_report` evolves the maximally mixed state and reports its energy.
The validity guards of (y, t) are :func:`schedule_guards`.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .ensembles import (
    SAMPLED_MODELS,
    EnsembleSpec,
    HamiltonianInstance,
    derive_seed,
    is_fermionic,
    sample_strength_stats,
    with_signs,
)
from .errors import EnumerationBudgetError, ValidationError
from .evolution import EvolutionConfig, energy, evolve, maximally_mixed
from .lindblad import LindbladianRep, build_lindbladian, single_piece_adjoint

ENUMERATION_BUDGET = 20  # enumerate mode allows at most 2^20 sign patterns


def max_eigenvalue(h_dense: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(h_dense).max())


def first_order_term(instance: HamiltonianInstance, y: float, t: float) -> float:
    """Closed form -8 y t h_glo^2 a_ac k; positive when y < 0."""
    return -8.0 * y * t * instance.h_glo**2 * instance.a_ac * instance.k


def first_order_sum_dense(rep: LindbladianRep) -> float:
    """sum_g normalized_trace(Lgdag(H_g)) evaluated on dense matrices.

    Equals -8 y h_glo^2 a_ac k; the t = 1 slice of the closed form.
    """
    dim = rep.dim
    total = 0.0
    for g, term in enumerate(rep.instance.terms):
        hg = term.h * rep.unit_denses[g]
        total += float(np.trace(single_piece_adjoint(rep, g, hg)).real) / dim
    return total


def t1_identity_error(rep: LindbladianRep) -> float:
    """|first_order_sum_dense(rep) - T1 at t = 1|, zero up to rounding."""
    return abs(first_order_sum_dense(rep) - first_order_term(rep.instance, rep.y, 1.0))


def spectral_tail_bound(model: str, n: int, delta: float) -> float:
    """Energy E with Pr(lambda_max >= E) <= delta from the matrix tail bounds.

    Sampled models: 2N exp(-E^2/8); Gaussian models: 2N exp(-E^2/2), with
    N the Hilbert-space dimension (2^n spin, 2^(n/2) fermion), for a failure
    probability 0 < delta < 1.
    """
    if not 0.0 < delta < 1.0:
        raise ValidationError(f"tail probability delta must lie in (0, 1), got {delta!r}")
    qubits = n // 2 if is_fermionic(model) else n
    dim = 2.0**qubits
    denom = 8.0 if model in SAMPLED_MODELS else 2.0
    return math.sqrt(denom * math.log(2.0 * dim / delta))


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def default_c_y(a_loc: int) -> float:
    return 1.0 / (3.0 * math.sqrt(a_loc))


def default_c_t(a_loc: int) -> float:
    """The branch of the time constant that needs no second-order constant."""
    return 1.0 / (2.0 * a_loc)


class Schedule(NamedTuple):
    """Coupling y and evolution time t of one run."""

    y: float
    t: float


def check_schedule_values(y=None, t=None, c_y=None, c_t=None, prefix: str = "") -> None:
    """Reject a given schedule value that is not a finite number, a negative t,
    or a constant c_y, c_t <= 0; ``prefix`` leads each message."""
    for name, value in (("y", y), ("t", t), ("c_y", c_y), ("c_t", c_t)):
        if value is not None and (isinstance(value, bool) or not isinstance(value, (int, float))
                                  or not math.isfinite(value)):
            raise ValidationError(f"{prefix}{name} must be a finite number, got {value!r}")
    if t is not None and t < 0:
        raise ValidationError(f"{prefix}evolution time must be nonnegative")
    if any(c is not None and c <= 0 for c in (c_y, c_t)):
        raise ValidationError(f"{prefix}schedule constants must be positive")


def schedule_guards(instance: HamiltonianInstance, y: float, t: float) -> tuple[bool, bool]:
    """(a_loc k t < 1, y^2 h_loc^2 a_loc k < 1/8), the validity guards of (y, t)."""
    return (instance.a_loc * instance.k * t < 1.0,
            y * y * instance.h_loc**2 * instance.a_loc * instance.k < 0.125)


def schedule(instance: HamiltonianInstance, *, y=None, t=None, c_y=None, c_t=None) -> Schedule:
    """(y, t) of one run: each given value, checked, and the rest derived as
    y = -c_y/(sqrt(k) h_loc), t = c_t/k, with the default constants where
    c_y, c_t are not given."""
    check_schedule_values(y, t, c_y, c_t)
    if y is None:
        if instance.h_loc <= 0:
            raise ValidationError("schedule needs a nonzero local energy")
        c_y = default_c_y(instance.a_loc) if c_y is None else c_y
        y = -c_y / (math.sqrt(instance.k) * instance.h_loc)
    if t is None:
        t = (default_c_t(instance.a_loc) if c_t is None else c_t) / instance.k
    return Schedule(y, t)


# ---------------------------------------------------------------------------
# sign averaging
# ---------------------------------------------------------------------------

def rademacher_average_energy(
    instance: HamiltonianInstance,
    y: float,
    t: float,
    mode: str = "enumerate",
    samples: int = 0,
    seed: int = 0,
) -> tuple[float, float]:
    """Mean over the sign patterns of the achieved energy Tr[e^(L t)(mu) H],
    each pattern evolved and reported like a draw (:func:`evolve_report`).

    ``enumerate`` averages all 2^m patterns exactly (stderr 0); ``sample``
    draws patterns from a seeded stream and reports the sample stderr.
    The term operators and strengths stay fixed throughout.
    """
    m = len(instance.terms)
    if mode == "enumerate":
        if m > ENUMERATION_BUDGET:
            raise EnumerationBudgetError(f"2^{m} patterns exceed the 2^{ENUMERATION_BUDGET} budget")
        patterns = itertools.product((1, -1), repeat=m)
    elif mode == "sample":
        if samples < 2:
            raise ValidationError("sample mode needs at least 2 patterns")
        patterns = 2 * np.random.default_rng(seed).integers(0, 2, size=(samples, m)) - 1
    else:
        raise ValidationError(f"unknown mode {mode!r}")
    cfg = EvolutionConfig(t_final=t)
    vals = [evolve_report(with_signs(instance, p), y, cfg).achieved for p in patterns]
    stderr = float(np.std(vals, ddof=1) / math.sqrt(len(vals))) if mode == "sample" else 0.0
    return float(np.mean(vals)), stderr


@dataclass(frozen=True)
class ResidualRow:
    t: float
    mean_energy: float
    t1: float
    residual: float
    residual_over_t2: float


def second_order_residual_scan(
    instance: HamiltonianInstance,
    y: float,
    t_grid,
    mode: str = "enumerate",
    **kwargs,
) -> list[ResidualRow]:
    """residual(t) = sign-averaged energy minus T1(t), tabulated over t_grid.

    The residual is the integrated quadratic remainder, so residual/t^2
    approaches a constant as t -> 0.  Its magnitude can be compared against
    the constant-free reference |y| a_loc^2 k^2 h_glo^2.
    """
    rows = []
    for t in t_grid:
        mean, _ = rademacher_average_energy(instance, y, t, mode=mode, **kwargs)
        t1 = first_order_term(instance, y, t)
        residual = mean - t1
        rows.append(
            ResidualRow(
                t=t,
                mean_energy=mean,
                t1=t1,
                residual=residual,
                residual_over_t2=residual / (t * t) if t else 0.0,
            )
        )
    return rows


def residual_reference(instance: HamiltonianInstance, y: float) -> float:
    """|y| a_loc^2 k^2 h_glo^2, the residual scale with the constant left out."""
    return abs(y) * instance.a_loc**2 * instance.k**2 * instance.h_glo**2


# ---------------------------------------------------------------------------
# global/local energy ratio statistics (no dense matrices)
# ---------------------------------------------------------------------------

def concentration_m(n: int, k: int) -> int:
    """Sampled-model term count for the concentration regime, ceil(4 n ln n / k)."""
    return max(1, math.ceil(4.0 * n * math.log(n) / k))


def glo_loc_ratio_stats(spec_grid, draws: int, master_seed: int = 0) -> list[dict]:
    """Mean and stderr of h_glo^2 / h_loc per grid cell, supports-only sampling."""
    if draws < 1:
        raise ValidationError("draws must be positive")
    rows = []
    for spec in spec_grid:
        ratios = np.empty(draws)
        for d in range(draws):
            cell_seed = derive_seed(master_seed, spec.model, spec.n, spec.k, spec.m, "ratio", d)
            loc, glo = sample_strength_stats(
                EnsembleSpec(model=spec.model, n=spec.n, k=spec.k, m=spec.m, seed=cell_seed)
            )
            ratios[d] = glo * glo / loc
        rows.append(
            {
                "model": spec.model,
                "n": spec.n,
                "k": spec.k,
                "m": spec.m,
                "draws": draws,
                "mean_ratio": float(ratios.mean()),
                "stderr": float(ratios.std(ddof=1) / math.sqrt(draws)) if draws > 1 else 0.0,
            }
        )
    return rows


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    return float(np.polyfit(np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float)), 1)[0])


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyReport:
    """Achieved energy of one run against the closed-form prediction."""

    achieved: float
    t1_prediction: float
    residual: float
    lambda_max: float
    ratio: float
    y: float
    t: float

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))


def energy_report(instance, rho_t, h_dense, y, t) -> EnergyReport:
    achieved = energy(rho_t, h_dense)
    t1 = first_order_term(instance, y, t)
    lam = max_eigenvalue(h_dense)
    return EnergyReport(
        achieved=achieved,
        t1_prediction=t1,
        residual=achieved - t1,
        lambda_max=lam,
        ratio=achieved / lam if lam != 0.0 else math.nan,
        y=y,
        t=t,
    )


def evolve_report(instance: HamiltonianInstance, y: float, cfg: EvolutionConfig,
                  trajectory=None) -> EnergyReport:
    """One run: the maximally mixed state evolved under the jumps of (instance, y)
    for cfg, and its energy report; ``trajectory`` as in :func:`evolve`."""
    rep = build_lindbladian(instance, y)
    rho = evolve(rep, maximally_mixed(instance.qubits), cfg, trajectory=trajectory)
    return energy_report(instance, rho, rep.h_dense, y, cfg.t_final)


@dataclass(frozen=True)
class Check:
    """One named inequality lhs <= rhs + tolerance."""

    name: str
    lhs: float
    rhs: float
    tolerance: float
    passed: bool

    @classmethod
    def one_sided(cls, name, lhs, rhs, tolerance) -> "Check":
        return cls(name=name, lhs=float(lhs), rhs=float(rhs), tolerance=float(tolerance),
                   passed=bool(lhs <= rhs + tolerance))


@dataclass(frozen=True)
class BoundCheckReport:
    checks: tuple = field(default_factory=tuple)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    def lines(self) -> list[str]:
        width = max((len(c.name) for c in self.checks), default=0)
        return [
            f"{'PASS' if c.passed else 'FAIL'}  {c.name.ljust(width)}  "
            f"lhs={c.lhs:.6e}  rhs={c.rhs:.6e}  tol={c.tolerance:.1e}"
            for c in self.checks
        ]

    def to_json(self) -> str:
        return json.dumps({"all_passed": self.all_passed, "checks": [asdict(c) for c in self.checks]},
                          separators=(",", ":"))
