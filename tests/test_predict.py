"""Turning predictions into cuts and branchings; the parameter search."""

import math

import numpy as np
import pytest

from mippred import bnb
from mippred.core import (BINARY, Constraint, MipInstance, Variable,
                          evaluate_solution)
from mippred.generators import GenSpec, generate
from mippred.metrics import primal_gap
from mippred.predictor import (ApplyConfig, APPROXIMATE, EXACT, DEFAULTS,
                               ETA_GRID, INFEASIBLE_GAP, PHI_GRID,
                               approximate_solve, exact_solve, grid_search,
                               select_S)
from oracles import TINY_SPECS, brute_force_optimum


def chain(n=4):
    """min -x1-...-xn with a slack capacity row; optimum is all ones."""
    return MipInstance.from_constraints(
        "chain", "min",
        [Variable(f"x{j}", BINARY, 0.0, 1.0) for j in range(n)],
        [Constraint("cap", {j: 1.0 for j in range(n)}, -math.inf, float(n))],
        {j: -1.0 for j in range(n)})


def min_form(inst, objective):
    return objective if inst.sense == "min" else -objective


def optimal_binary_values(inst):
    res = bnb.solve(inst)
    assert res.status == bnb.OPTIMAL
    return np.array([res.incumbent.values[j] for j in inst.binary_indices()])


# ---------------------------------------------------------------------------
# Selecting the confident set


def test_select_most_confident_two_thirds():
    S, x_hat = select_S(np.array([0.99, 0.45, 0.02]), eta=2.0 / 3.0)
    assert S == [0, 2]
    np.testing.assert_array_equal(x_hat, [1.0, 0.0, 0.0])


def test_select_everything_at_full_eta():
    S, x_hat = select_S(np.array([0.7, 0.2, 0.5, 0.9]), eta=1.0)
    assert S == [0, 1, 2, 3]
    np.testing.assert_array_equal(x_hat, [1.0, 0.0, 1.0, 1.0])


def test_half_probability_is_least_confident_and_rounds_up():
    S, x_hat = select_S(np.array([0.5, 0.9]), eta=0.5)
    assert S == [1]
    assert x_hat[0] == 1.0


def test_selection_ties_break_by_index():
    S, _ = select_S(np.array([0.3, 0.7]), eta=0.5)
    assert S == [0]


def test_selection_size_is_floored():
    z = np.array([0.1, 0.2, 0.3, 0.4, 0.45])
    S, _ = select_S(z, eta=0.5)
    assert len(S) == 2  # floor(0.5 * 5)


def test_select_rejects_bad_eta():
    for eta in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="eta"):
            select_S(np.array([0.5]), eta)


def test_apply_config_validation():
    for bad in (ApplyConfig(phi=-1), ApplyConfig(eta=0.0),
                ApplyConfig(eta=1.5), ApplyConfig(mode="guess"),
                ApplyConfig(phi=True), ApplyConfig(eta=True)):
        with pytest.raises(ValueError):
            bad.validate()


def test_solvers_reject_wrong_prediction_length():
    inst = chain(4)
    with pytest.raises(ValueError, match="predictions"):
        approximate_solve(inst, np.array([0.5] * 3), ApplyConfig())
    with pytest.raises(ValueError, match="predictions"):
        exact_solve(inst, np.array([0.5] * 5), ApplyConfig())


def test_entry_points_reject_the_other_mode():
    inst = generate(GenSpec("sc", "tiny", seed=3))
    z = optimal_binary_values(inst)
    with pytest.raises(ValueError, match="mode"):
        approximate_solve(inst, z, ApplyConfig(mode=EXACT))
    with pytest.raises(ValueError, match="mode"):
        exact_solve(inst, z, ApplyConfig(mode=APPROXIMATE))
    assert approximate_solve(inst, z, ApplyConfig(mode=APPROXIMATE)).heuristic
    assert not exact_solve(inst, z, ApplyConfig(mode=EXACT)).heuristic


# ---------------------------------------------------------------------------
# Approximate pipeline


def test_perfect_predictions_solve_at_the_root():
    for problem in ("sc", "mk"):
        preset, params = TINY_SPECS[problem]
        inst = generate(GenSpec(problem, preset, params=params, seed=1))
        z = optimal_binary_values(inst)
        ref = bnb.solve(inst)
        res = approximate_solve(inst, z, ApplyConfig(phi=0, eta=1.0))
        assert res.heuristic
        assert res.incumbent is not None
        assert res.objective == pytest.approx(ref.objective, abs=1e-6)
        assert res.nodes <= 2


def test_adversarial_predictions_stay_well_formed():
    inst = generate(GenSpec("sc", "tiny", seed=3))
    z = 1.0 - optimal_binary_values(inst)
    res = approximate_solve(inst, z, ApplyConfig(phi=0, eta=1.0))
    assert res.status in (bnb.OPTIMAL, bnb.INFEASIBLE, bnb.FEASIBLE,
                          bnb.LIMIT_REACHED)
    if res.incumbent is not None:
        check = evaluate_solution(inst, res.incumbent.values)
        assert check.feasible


def test_vacuous_radius_equals_plain_solve():
    for problem in ("sc", "mk"):
        preset, params = TINY_SPECS[problem]
        inst = generate(GenSpec(problem, preset, params=params, seed=2))
        n_bin = len(inst.binary_indices())
        rng = np.random.default_rng(7)
        z = rng.uniform(size=n_bin)
        plain = bnb.solve(inst)
        res = approximate_solve(inst, z, ApplyConfig(phi=n_bin, eta=1.0))
        assert res.objective == pytest.approx(plain.objective, abs=1e-6)


def test_cut_never_beats_the_optimum():
    rng = np.random.default_rng(0)
    for problem in ("sc", "mk", "mis"):
        preset, params = TINY_SPECS[problem]
        for trial in range(6):
            inst = generate(GenSpec(problem, preset, params=params,
                                    seed=trial))
            z = rng.uniform(size=len(inst.binary_indices()))
            phi = int(rng.choice(PHI_GRID))
            eta = float(rng.choice(ETA_GRID))
            res = approximate_solve(inst, z, ApplyConfig(phi=phi, eta=eta))
            if res.objective is None:
                continue
            opt, _ = brute_force_optimum(inst)
            assert (min_form(inst, res.objective)
                    >= min_form(inst, opt) - 1e-9)


# ---------------------------------------------------------------------------
# Exact pipeline


def test_root_branching_preserves_the_optimum():
    rng = np.random.default_rng(1)
    for problem in ("sc", "mis", "cfl"):
        preset, params = TINY_SPECS[problem]
        for seed in range(3):
            inst = generate(GenSpec(problem, preset, params=params,
                                    seed=seed))
            z = rng.uniform(size=len(inst.binary_indices()))
            plain = bnb.solve(inst)
            for phi, eta in ((0, 1.0), (5, 0.5)):
                res = exact_solve(inst, z,
                                  ApplyConfig(phi=phi, eta=eta, mode=EXACT))
                assert res.status == bnb.OPTIMAL
                assert not res.heuristic
                assert res.objective == pytest.approx(plain.objective,
                                                      abs=1e-6)


def test_uninformative_predictions_are_still_exact():
    inst = generate(GenSpec("sc", "tiny", seed=4))
    z = np.full(len(inst.binary_indices()), 0.5)
    plain = bnb.solve(inst)
    res = exact_solve(inst, z, ApplyConfig(phi=0, eta=1.0, mode=EXACT))
    assert res.objective == pytest.approx(plain.objective, abs=1e-6)


def test_radius_beyond_selection_collapses_to_left_child():
    # with |S| = 1 and phi = 5 the right child (distance >= 6) is empty
    inst = chain(3)
    z = np.array([0.9, 0.5, 0.5])
    plain = bnb.solve(inst)
    res = exact_solve(inst, z, ApplyConfig(phi=5, eta=0.34, mode=EXACT))
    assert res.status == bnb.OPTIMAL
    assert res.objective == pytest.approx(plain.objective, abs=1e-9)


# ---------------------------------------------------------------------------
# Calibration


def test_singleton_grid_returns_its_pair():
    inst = chain(3)
    z = np.array([0.9, 0.9, 0.9])
    best = grid_search([(inst, z, -3.0)], (0,), (1.0,), bnb.BnbConfig())
    assert best == (0, 1.0, 0.0)


def test_shipped_defaults():
    assert DEFAULTS["fcnf"] == (0, 0.80)
    assert DEFAULTS["mis"] == (10, 0.90)
    assert DEFAULTS["tsp"] == (0, 0.90)
    assert set(DEFAULTS) == {"fcnf", "cfl", "ga", "mis", "mk", "sc",
                             "tsp", "vrp"}


def test_grid_search_finds_the_better_pair():
    # one badly predicted variable: fixing everything (eta 1) leaves a
    # unit gap while eta 0.75 frees that variable and closes it
    inst = chain(4)
    z = np.array([0.9, 0.9, 0.9, 0.1])
    best = grid_search([(inst, z, -4.0)], (0,), (0.75, 1.0),
                       bnb.BnbConfig())
    assert best == (0, 0.75, 0.0)


def test_grid_search_counts_runs(monkeypatch):
    calls = {"n": 0}
    real = bnb.solve

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(bnb, "solve", counting)
    validation = []
    for seed in range(2):
        inst = generate(GenSpec("sc", "tiny", seed=seed))
        z = np.full(len(inst.binary_indices()), 0.5)
        ref = real(inst).objective
        validation.append((inst, z, ref))
    solver = bnb.BnbConfig(time_limit_s=2.0)
    phi, eta, gap = grid_search(validation, PHI_GRID, ETA_GRID, solver)
    assert calls["n"] == len(PHI_GRID) * len(ETA_GRID) * len(validation)
    # the returned gap is the chosen pair's mean over the validation runs
    gaps = []
    for inst, z, ref in validation:
        res = approximate_solve(inst, z, ApplyConfig(phi=phi, eta=eta,
                                                     solver=solver))
        gaps.append(INFEASIBLE_GAP if res.objective is None
                    else primal_gap(res.objective, ref))
    assert gap == float(np.mean(gaps))


def test_grid_search_rejects_empty_inputs():
    inst = chain(2)
    z = np.array([0.5, 0.5])
    with pytest.raises(ValueError, match="grid"):
        grid_search([(inst, z, -2.0)], (), (1.0,), bnb.BnbConfig())
    with pytest.raises(ValueError, match="validation"):
        grid_search([], PHI_GRID, ETA_GRID, bnb.BnbConfig())
