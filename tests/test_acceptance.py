"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the suite is the exit gate for the package.
"""

import math
import time

import numpy as np
from helpers import rk4_reference_steps

from dissip.analysis import (
    glo_loc_ratio_stats,
    loglog_slope,
    max_eigenvalue,
    rademacher_average_energy,
    schedule,
    second_order_residual_scan,
    spectral_tail_bound,
    t1_identity_error,
)
from dissip.ensembles import EnsembleSpec, derive_seed, instance_to_dense, sample
from dissip.evolution import (
    EvolutionConfig,
    choi_deviations,
    contraction_excess,
    evolve,
    maximally_mixed,
    propagator,
    required_steps,
)
from dissip.experiment import CellSpec, ExperimentConfig, run_experiment
from dissip.lindblad import build_lindbladian, ledger_violations, piece_norm_margins

SEED = 20250811


def _report(number, name, ok, detail, started):
    elapsed = time.perf_counter() - started
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {verdict} ({detail}; {elapsed:.1f}s)")
    assert ok, f"criterion {number} failed: {detail}"


def _draw(model, n, k, m, tag, index):
    seed = derive_seed(SEED, tag, model, index)
    return sample(EnsembleSpec(model=model, n=n, k=k, m=m, seed=seed))


def test_c01_t1_exactness():
    started = time.perf_counter()
    grid = (
        [("gaussian_pauli", 3 + (i % 2), 2 + (i % 2), None) for i in range(5)]
        + [("syk", 6 + 2 * (i % 2), 4, None) for i in range(5)]
        + [("sparse_pauli", 4, 2, 8) for _ in range(5)]
        + [("sparse_fermion", 8, 4, 8) for _ in range(5)]
    )
    worst = 0.0
    for i, (model, n, k, m) in enumerate(grid):
        inst = _draw(model, n, k, m, "t1", i)
        worst = max(worst, t1_identity_error(build_lindbladian(inst, schedule(inst).y)))
    _report(1, "T1 exactness", worst <= 1e-9,
            f"20 instances, max |sum - closed form| = {worst:.2e} <= 1e-9", started)


def test_c02_zeroth_order_vanishing():
    started = time.perf_counter()
    worst = 0.0
    for model, n, k, m in (("sparse_pauli", 3, 2, 8), ("sparse_fermion", 6, 2, 8)):
        inst = _draw(model, n, k, m, "zeroth", 0)
        mean, _ = rademacher_average_energy(inst, y=-0.2, t=0.0, mode="enumerate")
        worst = max(worst, abs(mean))
    _report(2, "zeroth-order vanishing", worst <= 1e-12,
            f"2^8 sign patterns enumerated, max |mean| = {worst:.2e} <= 1e-12", started)


def test_c03_second_order_scaling():
    started = time.perf_counter()
    inst = _draw("sparse_pauli", 3, 2, 4, "residual", 0)
    y = schedule(inst).y
    rows = second_order_residual_scan(inst, y, [0.08, 0.04, 0.02, 0.01], mode="enumerate")
    ratios = [rows[i].residual_over_t2 / rows[i + 1].residual_over_t2 for i in range(3)]
    final = ratios[-1]
    _report(3, "second-order scaling", 0.8 <= final <= 1.25,
            f"residual/t^2 halving ratios {[f'{r:.3f}' for r in ratios]}, final in [0.8, 1.25]",
            started)


def test_c04_channel_validity():
    started = time.perf_counter()
    rng = np.random.default_rng(derive_seed(SEED, "channel-probes"))
    grid = [("sparse_pauli", 4, 2, 6)] * 5 + [("sparse_fermion", 8, 4, 6)] * 5
    worst_eig = 0.0
    worst_trace = 0.0
    worst_contract = -math.inf
    for i, (model, n, k, m) in enumerate(grid):
        inst = _draw(model, n, k, m, "channel", i)
        rep = build_lindbladian(inst, schedule(inst).y)
        for t in (0.1, 0.5):
            prop = propagator(rep, t)
            eig_dev, trace_dev = choi_deviations(prop)
            worst_eig = max(worst_eig, eig_dev)
            worst_trace = max(worst_trace, trace_dev)
            worst_contract = max(worst_contract, contraction_excess(prop, 25, rng))
    ok = worst_eig <= 1e-8 and worst_trace <= 1e-9 and worst_contract <= 1e-8
    _report(4, "channel validity", ok,
            f"Choi min eig >= -{worst_eig:.2e}, trace dev {worst_trace:.2e}, "
            f"contraction excess {worst_contract:.2e}", started)


def test_c05_conditions_ledger():
    started = time.perf_counter()
    grid = {
        "gaussian_pauli": (5, 2, None),
        "syk": (8, 4, None),
        "sparse_pauli": (6, 2, 10),
        "sparse_fermion": (8, 4, 10),
    }
    violations = 0
    for model, (n, k, m) in grid.items():
        for i in range(100):
            inst = _draw(model, n, k, m, "cond", i)
            violations += sum(ledger_violations(inst))
            expected = (2, 3) if model in ("gaussian_pauli", "sparse_pauli") else (1, 1)
            if (inst.a_ac, inst.a_loc) != expected:
                violations += 1
    _report(5, "conditions ledger", violations == 0,
            f"400 instances, {violations} violations of sum_a b_ag = a_ac k and "
            "jump counts", started)


def test_c06_appendix_bounds():
    started = time.perf_counter()
    rng = np.random.default_rng(derive_seed(SEED, "norm-probes"))
    grid = [("sparse_pauli", 3, 2, 4)] * 10 + [("sparse_fermion", 6, 2, 4)] * 10
    worst_margin = -math.inf
    for i, (model, n, k, m) in enumerate(grid):
        inst = _draw(model, n, k, m, "norms", i)
        rep = build_lindbladian(inst, schedule(inst).y)
        worst_margin = max(worst_margin, *piece_norm_margins(rep, 100, rng))
    _report(6, "piece norm bounds", worst_margin <= 1e-9,
            f"20 instances x 100 probes per piece, worst (sampled - bound) = "
            f"{worst_margin:.2e} <= 1e-9", started)


def test_c07_matrix_hoeffding_tail():
    started = time.perf_counter()
    bound = spectral_tail_bound("sparse_pauli", 8, 0.01)
    violations = 0
    worst = 0.0
    for i in range(100):
        inst = _draw("sparse_pauli", 8, 2, 24, "tail", i)
        lam = max_eigenvalue(instance_to_dense(inst))
        worst = max(worst, lam)
        violations += int(lam > bound)
    _report(7, "matrix Hoeffding tail", violations == 0,
            f"100 draws, max lambda_max {worst:.3f} vs bound {bound:.3f}, "
            f"{violations} violations", started)


def test_c08_positive_achieved_energy():
    started = time.perf_counter()
    config = ExperimentConfig(
        cells=(
            CellSpec(cell_id="spin", model="sparse_pauli", n=6, k=2, m=12),
            CellSpec(cell_id="fermion", model="sparse_fermion", n=12, k=4, m=12),
        ),
        draws=50,
        master_seed=SEED,
    )
    results, stats = run_experiment(config)
    details = []
    ok = True
    for st in stats:
        ok = ok and st.draws_ok == 50 and st.mean_energy > 0.0 and st.ci_low > 0.0
        details.append(
            f"{st.cell_id}: mean {st.mean_energy:.4f}, 95% CI [{st.ci_low:.4f}, "
            f"{st.ci_high:.4f}], mean ratio to lambda_max {st.mean_ratio:.3f}"
        )
    _report(8, "positive achieved energy", ok, "; ".join(details), started)


def test_c09_glo_loc_scaling():
    started = time.perf_counter()
    sizes = (8, 16, 32, 64, 128)
    specs = [
        EnsembleSpec("sparse_pauli", n, 2, max(1, math.ceil(4 * n * math.log(n) / 2)), seed=0)
        for n in sizes
    ]
    rows = glo_loc_ratio_stats(specs, draws=200, master_seed=SEED)
    slope = loglog_slope([r["n"] for r in rows], [r["mean_ratio"] for r in rows])
    _report(9, "h_glo^2/h_loc scaling", 0.35 <= slope <= 0.65,
            f"log-log slope over n in {sizes} = {slope:.3f}, window [0.35, 0.65]", started)


def test_c10_integrator_oracle():
    started = time.perf_counter()
    grid = [("sparse_pauli", 3, 2, 5), ("sparse_pauli", 4, 2, 5),
            ("sparse_fermion", 6, 2, 5), ("sparse_fermion", 8, 4, 5),
            ("sparse_pauli", 4, 3, 5)] * 2
    worst_dev = worst_rk4 = 0.0
    ratios = []
    for i, (model, n, k, m) in enumerate(grid):
        inst = _draw(model, n, k, m, "oracle", i)
        rep = build_lindbladian(inst, schedule(inst).y)
        mu = maximally_mixed(inst.qubits)
        t = 0.4
        exact = evolve(rep, mu, EvolutionConfig(t_final=t, method="expm"))
        default = evolve(rep, mu, EvolutionConfig(t_final=t))
        worst_dev = max(worst_dev, float(np.abs(default - exact).max()))
        rk4 = evolve(rep, mu, EvolutionConfig(t_final=t, steps=rk4_reference_steps(rep, t)))
        worst_rk4 = max(worst_rk4, float(np.abs(rk4 - exact).max()))
        base_steps = max(8, required_steps(rep, t))
        coarse = evolve(rep, mu, EvolutionConfig(t_final=t, steps=base_steps))
        fine = evolve(rep, mu, EvolutionConfig(t_final=t, steps=2 * base_steps))
        err_c = float(np.abs(coarse - exact).max())
        err_f = float(np.abs(fine - exact).max())
        ratios.append(err_c / err_f)
    order_ok = all(8.0 <= r <= 32.0 for r in ratios)
    _report(10, "integrator oracle agreement", max(worst_dev, worst_rk4) <= 1e-7 and order_ok,
            f"10 instances, max |default - expm| = {worst_dev:.2e} <= 1e-7, "
            f"max |rk4 - expm| = {worst_rk4:.2e} <= 1e-7, halving ratios "
            f"{min(ratios):.1f}..{max(ratios):.1f} in [8, 32]", started)
