"""Proximity-search labeling: step semantics, traces, label files."""

import math

import numpy as np
import pytest

from mippred import labeler
from mippred.core import (BINARY, Constraint, MipInstance, Variable,
                          canonicalize, evaluate_solution)
from mippred.generators import GenSpec, generate
from mippred.labeler import (STABLE0, STABLE1, UNSTABLE, LabelConfig,
                             NoFeasibleSolutionError)
from mippred.simplex import OPTIMAL as LP_OPTIMAL
from mippred.simplex import LpWorkspace
from oracles import TINY_SPECS, brute_force_optimum


def two_item_choice():
    """min -5*x1 - 4*x2 subject to x1 + x2 <= 1, both binary."""
    return MipInstance.from_constraints(
        "choice", "min",
        [Variable("x1", BINARY, 0.0, 1.0), Variable("x2", BINARY, 0.0, 1.0)],
        [Constraint("pick_one", {0: 1.0, 1: 1.0}, -math.inf, 1.0)],
        {0: -5.0, 1: -4.0})


def infeasible_binary():
    """One binary forced >= 0.75 and <= 0.25 at the same time."""
    return MipInstance.from_constraints(
        "contradiction", "min",
        [Variable("x", BINARY, 0.0, 1.0)],
        [Constraint("hi", {0: 1.0}, 0.75, math.inf),
         Constraint("lo", {0: 1.0}, -math.inf, 0.25)],
        {0: 1.0})


def canonical_objectives(inst, solutions):
    c = canonicalize(inst).objective_vector()
    return [float(np.dot(c, sol.values)) for sol in solutions]


# ---------------------------------------------------------------------------
# Single proximity rounds


def test_step_moves_to_nearest_improvement():
    inst = two_item_choice()
    x_bar = evaluate_solution(inst, np.array([0.0, 1.0]))
    assert x_bar.feasible
    nxt = labeler.proximity_step(inst, x_bar, 0.5)
    assert nxt is not None
    assert nxt.feasible
    np.testing.assert_allclose(nxt.values, [1.0, 0.0])
    assert nxt.objective == pytest.approx(-5.0, abs=1e-9)


def test_step_from_optimum_returns_none():
    inst = two_item_choice()
    x_opt = evaluate_solution(inst, np.array([1.0, 0.0]))
    assert labeler.proximity_step(inst, x_opt, 0.5) is None


def test_step_rejects_nonpositive_delta():
    inst = two_item_choice()
    x_bar = evaluate_solution(inst, np.array([0.0, 1.0]))
    for delta in (0.0, -1.0):
        with pytest.raises(ValueError, match="delta"):
            labeler.proximity_step(inst, x_bar, delta)


def test_step_rejects_infeasible_start():
    inst = two_item_choice()
    bad = evaluate_solution(inst, np.array([1.0, 1.0]))
    assert not bad.feasible
    with pytest.raises(ValueError, match="feasible"):
        labeler.proximity_step(inst, bad, 0.5)


def test_step_constant_objective_returns_none():
    inst = MipInstance.from_constraints(
        "flat", "min",
        [Variable("x", BINARY, 0.0, 1.0)],
        [], {})
    x_bar = evaluate_solution(inst, np.array([0.0]))
    assert labeler.proximity_step(inst, x_bar, 0.5) is None


def test_step_respects_improvement_threshold():
    # From (0, 1) with objective -4 the only better point is -5, an
    # improvement of exactly 1: delta at 1 keeps it reachable, above
    # shuts it off.
    inst = two_item_choice()
    x_bar = evaluate_solution(inst, np.array([0.0, 1.0]))
    assert labeler.proximity_step(inst, x_bar, 1.0) is not None
    assert labeler.proximity_step(inst, x_bar, 1.5) is None


# ---------------------------------------------------------------------------
# Labels from traces


def test_single_solution_trace_is_all_stable():
    inst = two_item_choice()
    sol = evaluate_solution(inst, np.array([0.0, 1.0]))
    ls = labeler._labels_from_trace(inst, [sol], 0.25)
    assert ls.labels == [STABLE0, STABLE1]
    assert ls.iterations == 1
    assert ls.delta_used == 0.25


def test_flipping_variable_is_unstable():
    inst = MipInstance.from_constraints(
        "three", "min",
        [Variable(f"x{j}", BINARY, 0.0, 1.0) for j in range(3)],
        [], {j: -1.0 for j in range(3)})
    trace = [evaluate_solution(inst, np.array(v, dtype=float))
             for v in [(1, 0, 1), (1, 1, 1)]]
    ls = labeler._labels_from_trace(inst, trace, 1.0)
    assert ls.labels == [STABLE1, UNSTABLE, STABLE1]
    assert list(ls.stable_mask()) == [True, False, True]
    np.testing.assert_allclose(ls.targets(), [1.0, 0.0, 1.0])


def test_labels_skip_continuous_variables():
    inst = generate(GenSpec("fcnf", "tiny", seed=1))
    names = {v.name for v in inst.variables if v.vtype == BINARY}
    sol, _ = labeler.initial_solution(inst, LabelConfig().base_time_limit_s)
    ls = labeler._labels_from_trace(inst, [sol], 1.0)
    assert set(ls.var_names) == names


# ---------------------------------------------------------------------------
# Full labeling runs


def test_initial_solution_is_feasible():
    for seed in range(3):
        inst = generate(GenSpec("sc", "tiny", seed=seed))
        sol, _ = labeler.initial_solution(inst,
                                          LabelConfig().base_time_limit_s)
        assert sol.feasible


@pytest.mark.parametrize("problem", sorted(TINY_SPECS))
def test_initial_solution_hands_back_the_root_lp_bound(problem):
    """The bound that comes back is the canonical root LP's optimum, bit
    for bit, so labeling need not solve that LP again."""
    preset, params = TINY_SPECS[problem]
    for seed in range(2):
        inst = generate(GenSpec(problem, preset, params=params, seed=seed))
        _, lb = labeler.initial_solution(inst, LabelConfig().base_time_limit_s)
        root, _ = LpWorkspace(canonicalize(inst)).solve()
        assert root.status == LP_OPTIMAL
        assert lb == root.objective, (problem, seed)


def test_initial_solution_raises_on_infeasible():
    with pytest.raises(NoFeasibleSolutionError, match="infeasible"):
        labeler.initial_solution(infeasible_binary(),
                                 LabelConfig().base_time_limit_s)


def test_generate_labels_raises_on_infeasible():
    with pytest.raises(NoFeasibleSolutionError):
        labeler.generate_labels(infeasible_binary())


def test_trace_is_feasible_and_strictly_improving():
    rng_seeds = range(4)
    for problem in ("sc", "mk", "cfl"):
        preset, params = TINY_SPECS[problem]
        for seed in rng_seeds:
            inst = generate(GenSpec(problem, preset, params=params,
                                    seed=seed))
            ls = labeler.generate_labels(inst, LabelConfig(max_iters=20))
            assert ls.delta_used > 0.0
            assert len(ls.solutions) == ls.iterations >= 1
            for sol in ls.solutions:
                assert sol.feasible
            objs = canonical_objectives(inst, ls.solutions)
            for prev, cur in zip(objs, objs[1:]):
                assert cur <= prev - ls.delta_used + 1e-9


def test_stable_labels_match_final_solution():
    for problem in ("sc", "mk", "mis"):
        preset, params = TINY_SPECS[problem]
        inst = generate(GenSpec(problem, preset, params=params, seed=2))
        ls = labeler.generate_labels(inst, LabelConfig(max_iters=30))
        final = ls.solutions[-1]
        bins = [j for j, v in enumerate(inst.variables)
                if v.vtype == BINARY]
        for pos, j in enumerate(bins):
            val = round(float(final.values[j]))
            if ls.labels[pos] == STABLE1:
                assert val == 1
            elif ls.labels[pos] == STABLE0:
                assert val == 0


def test_converged_trace_ends_at_optimum():
    # When the rounds stop before the iteration cap, no solution improves
    # by delta anymore, so the last one is within delta of the optimum.
    for seed in range(3):
        inst = generate(GenSpec("sc", "tiny", seed=seed))
        ls = labeler.generate_labels(inst, LabelConfig(max_iters=30))
        assert ls.iterations < 30
        obj, _ = brute_force_optimum(inst)
        final = canonical_objectives(inst, ls.solutions)[-1]
        assert final <= obj + ls.delta_used + 1e-9


def test_iteration_cap_is_respected():
    inst = generate(GenSpec("mk", "tiny", seed=0))
    ls = labeler.generate_labels(inst, LabelConfig(max_iters=1))
    assert ls.iterations <= 2  # start plus at most one round


# ---------------------------------------------------------------------------
# Label files


def test_label_file_round_trip(tmp_path):
    inst = generate(GenSpec("sc", "tiny", seed=7))
    ls = labeler.generate_labels(inst, LabelConfig(max_iters=10))
    path = tmp_path / "labels.json"
    labeler.write_labels(path, ls)
    back = labeler.read_labels(path)
    assert back.instance == ls.instance
    assert back.var_names == ls.var_names
    assert back.labels == ls.labels
    assert back.delta_used == ls.delta_used
    assert back.iterations == ls.iterations
    assert back.trace == pytest.approx(ls.trace)
    assert back.solutions == []


def test_label_file_write_is_deterministic(tmp_path):
    inst = generate(GenSpec("mk", "tiny", seed=3))
    ls = labeler.generate_labels(inst, LabelConfig(max_iters=5))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    labeler.write_labels(a, ls)
    labeler.write_labels(b, ls)
    assert a.read_bytes() == b.read_bytes()


def test_label_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"instance": "i", "delta": 1.0, "iterations": 1, '
                    '"labels": {}, "trace": [], "extra": 0}\n')
    with pytest.raises(ValueError, match="unknown"):
        labeler.read_labels(path)


def test_label_file_rejects_missing_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"instance": "i", "delta": 1.0}\n')
    with pytest.raises(ValueError, match="missing"):
        labeler.read_labels(path)


def test_label_file_rejects_bad_label_value(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"instance": "i", "delta": 1.0, "iterations": 1, '
                    '"labels": {"x": "wobbly"}, "trace": []}\n')
    with pytest.raises(ValueError, match="wobbly"):
        labeler.read_labels(path)


def test_label_file_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="JSON"):
        labeler.read_labels(path)
