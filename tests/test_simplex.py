"""LP solver: spot solutions, strong duality, and an external cross-check."""

import ast
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from mippred import bnb, simplex
from mippred.core import (BINARY, CONTINUOUS, Constraint, MipInstance,
                          RowArrays, Variable, canonicalize)
from mippred.generators import PROBLEMS, GenSpec, generate
from oracles import (TINY_SPECS, brute_force_optimum, dict_walk,
                     record_lp_solves, reference_dual_core,
                     reference_snap_vstat)


def one_var_lp():
    return MipInstance.from_constraints(
        "one", "min",
        [Variable("x", CONTINUOUS, 0.0, math.inf)],
        [Constraint("row", {0: 1.0}, 1.0, math.inf)], {0: 1.0})


def test_one_variable_lp():
    sol = simplex.solve_lp(one_var_lp())
    assert sol.status == simplex.OPTIMAL
    assert sol.x[0] == pytest.approx(1.0)
    assert sol.objective == pytest.approx(1.0)
    assert sol.duals[0] == pytest.approx(1.0)


def test_box_vertex_lp():
    inst = MipInstance.from_constraints(
        "box", "min",
        [Variable("x1", CONTINUOUS, 0.0, 1.0),
         Variable("x2", CONTINUOUS, 0.0, 1.0)],
        [Constraint("cap", {0: 1.0, 1: 1.0}, -math.inf, 1.0)],
        {0: -1.0, 1: -1.0})
    sol = simplex.solve_lp(inst)
    assert sol.status == simplex.OPTIMAL
    assert sol.objective == pytest.approx(-1.0)


def test_infeasible_lp():
    inst = MipInstance.from_constraints(
        "bad", "min",
        [Variable("x", CONTINUOUS, 0.0, math.inf)],
        [Constraint("row", {0: 1.0}, -math.inf, -1.0)], {0: 1.0})
    assert simplex.solve_lp(inst).status == simplex.INFEASIBLE


def test_unbounded_lp():
    inst = MipInstance.from_constraints(
        "unb", "min",
        [Variable("x", CONTINUOUS, 0.0, math.inf)],
        [Constraint("row", {0: 1.0}, 1.0, math.inf)], {0: -1.0})
    assert simplex.solve_lp(inst).status == simplex.UNBOUNDED


def dual_certificate(canon, sol):
    """Certificate value from duals, reduced costs and basis statuses.

    Both the certificate and the returned primal value are in
    minimization form (duals always refer to it).  The two agree
    exactly when the reported basis is optimal with complementary
    slackness; any sign or status error in the solver breaks the match.
    """
    total = 0.0
    n = canon.n_vars
    for i, con in enumerate(canon.constraints):
        if sol.vstat[n + i] == simplex.AT_LOWER:
            total += sol.duals[i] * con.lhs
        elif sol.vstat[n + i] == simplex.AT_UPPER:
            total += sol.duals[i] * con.rhs
    for j in range(n):
        if sol.vstat[j] != simplex.BASIC:
            total += sol.reduced_costs[j] * sol.x[j]
    primal = float(canon.objective_vector() @ sol.x)
    return primal, total


def test_strong_duality_tiny_presets():
    for problem in PROBLEMS:
        for seed in range(5):
            canon = canonicalize(generate(GenSpec(problem, "tiny",
                                                  seed=seed)))
            sol = simplex.solve_lp(canon)
            assert sol.status == simplex.OPTIMAL, (problem, seed)
            primal, dual = dual_certificate(canon, sol)
            assert abs(primal - dual) <= 1e-6 * (1.0 + abs(primal)), \
                (problem, seed)


def relaxation_arrays(inst):
    """(c, A_ub, b_ub, A_eq, b_eq, bounds) of the LP relaxation."""
    canon = canonicalize(inst)
    n = canon.n_vars
    c = canon.objective_vector()
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for con in canon.constraints:
        row = np.zeros(n)
        for j, a in con.coeffs.items():
            row[j] = a
        if con.lhs == con.rhs:
            A_eq.append(row)
            b_eq.append(con.rhs)
            continue
        if math.isfinite(con.rhs):
            A_ub.append(row)
            b_ub.append(con.rhs)
        if math.isfinite(con.lhs):
            A_ub.append(-row)
            b_ub.append(-con.lhs)
    bounds = [(v.lb if math.isfinite(v.lb) else None,
               v.ub if math.isfinite(v.ub) else None)
              for v in canon.variables]
    return (c, np.array(A_ub) if A_ub else None, b_ub or None,
            np.array(A_eq) if A_eq else None, b_eq or None, bounds,
            inst.sense == "max")


def test_matches_scipy_on_generator_relaxations():
    for problem in PROBLEMS:
        for seed in range(5):
            inst = generate(GenSpec(problem, "tiny", seed=seed))
            sol = simplex.solve_lp(inst)
            c, A_ub, b_ub, A_eq, b_eq, bounds, flipped = \
                relaxation_arrays(inst)
            res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                          bounds=bounds, method="highs")
            assert res.status == 0, (problem, seed)
            assert sol.status == simplex.OPTIMAL
            expected = -res.fun if flipped else res.fun
            assert sol.objective == pytest.approx(expected, abs=1e-7), \
                (problem, seed)


def test_statuses_match_scipy_on_random_boxes():
    """Random dense LPs, some infeasible: statuses and objectives agree.

    HiGHS presolve may fold an unbounded LP into 'infeasible'; a
    presolve-free rerun disambiguates before comparing.
    """
    rng = np.random.default_rng(42)
    for trial in range(40):
        n, m = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        c = rng.integers(-5, 6, n).astype(float)
        variables = [Variable(f"x{j}", CONTINUOUS, 0.0,
                              float(rng.integers(1, 4)))
                     for j in range(n)]
        constraints = []
        for i in range(m):
            coeffs = {j: float(rng.integers(-4, 5)) for j in range(n)}
            coeffs = {j: a for j, a in coeffs.items() if a != 0.0}
            if not coeffs:
                coeffs = {0: 1.0}
            rhs = float(rng.integers(-3, 7))
            constraints.append(Constraint(f"r{i}", coeffs, -math.inf, rhs))
        inst = MipInstance.from_constraints(
            f"rand{trial}", "min", variables, constraints,
            {j: c[j] for j in range(n)})
        sol = simplex.solve_lp(inst)
        cc, A_ub, b_ub, A_eq, b_eq, bounds, _ = relaxation_arrays(inst)
        res = linprog(cc, A_ub=A_ub, b_ub=b_ub, bounds=bounds,
                      method="highs")
        if res.status == 2 and sol.status != simplex.INFEASIBLE:
            res = linprog(cc, A_ub=A_ub, b_ub=b_ub, bounds=bounds,
                          method="highs", options={"presolve": False})
        if sol.status == simplex.OPTIMAL:
            assert res.status == 0, trial
            assert sol.objective == pytest.approx(res.fun, abs=1e-7), trial
        elif sol.status == simplex.INFEASIBLE:
            assert res.status == 2, trial


def test_relaxation_bounds_integer_optimum():
    for problem in ("sc", "mk", "mis"):
        preset, params = TINY_SPECS[problem]
        for seed in range(3):
            inst = generate(GenSpec(problem, preset, params=params,
                                    seed=seed))
            canon = canonicalize(inst)
            sol = simplex.solve_lp(canon)
            relax_min = float(canon.objective_vector() @ sol.x)
            obj, _ = brute_force_optimum(inst)
            obj_min = -obj if inst.sense == "max" else obj
            assert relax_min <= obj_min + 1e-6, (problem, seed)


def test_canonical_max_instance_reports_min_sense():
    inst = MipInstance.from_constraints(
        "maxlp", "max",
        [Variable("x", CONTINUOUS, 0.0, 3.0),
         Variable("y", CONTINUOUS, 0.0, 3.0)],
        [Constraint("cap", {0: 2.0, 1: 2.0}, -math.inf, 7.0)],
        {0: 1.0, 1: 1.0})
    assert simplex.solve_lp(inst).objective == pytest.approx(3.5)
    # the canonical copy is a min instance; its value is reported as such
    assert simplex.solve_lp(canonicalize(inst)).objective == \
        pytest.approx(-3.5)


def test_deterministic_pivot_sequence():
    inst = canonicalize(generate(GenSpec("cfl", "tiny", seed=9)))
    a = simplex.solve_lp(inst)
    b = simplex.solve_lp(inst)
    assert a.iterations == b.iterations
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.duals, b.duals)


def test_warm_resolve_matches_cold_after_bound_change():
    """Child re-solves from the parent basis land on the cold optimum."""
    for problem in ("sc", "cfl", "mis"):
        for seed in range(4):
            canon = canonicalize(generate(GenSpec(problem, "tiny",
                                                  seed=seed)))
            ws = simplex.LpWorkspace(canon)
            root, warm = ws.solve()
            assert root.status == simplex.OPTIMAL, (problem, seed)
            ints = [j for j, v in enumerate(canon.variables)
                    if v.vtype != CONTINUOUS]
            frac = np.minimum(root.x - np.floor(root.x),
                              np.ceil(root.x) - root.x)
            j = max(ints, key=lambda jj: frac[jj])
            for down in (True, False):
                low = ws.base_low[:ws.n].copy()
                upp = ws.base_upp[:ws.n].copy()
                if down:
                    upp[j] = math.floor(root.x[j])
                else:
                    low[j] = math.ceil(root.x[j])
                wsol, _ = ws.solve(low, upp, warm)
                csol, _ = ws.solve(low, upp)
                assert wsol.status == csol.status, (problem, seed, down)
                if wsol.status != simplex.OPTIMAL:
                    continue
                assert wsol.objective == pytest.approx(csol.objective,
                                                       abs=1e-7), \
                    (problem, seed, down)
                primal, dual = dual_certificate(canon, wsol)
                assert dual == pytest.approx(
                    primal, abs=1e-6 * (1.0 + abs(primal)))


def test_warm_dive_cheaper_than_cold():
    """Successive fixings re-solved warm cost far fewer pivots each."""
    params = {"sets": 80, "elements": 60, "density": 0.15}
    canon = canonicalize(generate(GenSpec("sc", "custom", params=params,
                                          seed=0)))
    ws = simplex.LpWorkspace(canon)
    sol, warm = ws.solve()
    low = ws.base_low[:ws.n].copy()
    upp = ws.base_upp[:ws.n].copy()
    for _ in range(3):
        frac = np.minimum(sol.x - np.floor(sol.x), np.ceil(sol.x) - sol.x)
        j = int(np.argmax(frac))
        upp[j] = 0.0
        wsol, wwarm = ws.solve(low, upp, warm)
        csol, _ = ws.solve(low, upp)
        assert wsol.status == simplex.OPTIMAL
        assert wsol.objective == pytest.approx(csol.objective, abs=1e-7)
        assert wsol.iterations < csol.iterations
        sol, warm = wsol, wwarm


def test_warm_resolve_detects_infeasible_child():
    inst = MipInstance.from_constraints(
        "pair", "min",
        [Variable("x1", BINARY, 0.0, 1.0),
         Variable("x2", BINARY, 0.0, 1.0)],
        [Constraint("cover", {0: 1.0, 1: 1.0}, 1.0, math.inf)],
        {0: 1.0, 1: 2.0})
    ws = simplex.LpWorkspace(canonicalize(inst))
    root, warm = ws.solve()
    assert root.status == simplex.OPTIMAL
    assert root.objective == pytest.approx(1.0)
    upp = np.zeros(2)  # both forced to zero: the row cannot reach 1
    wsol, _ = ws.solve(None, upp, warm)
    assert wsol.status == simplex.INFEASIBLE
    csol, _ = ws.solve(None, upp)
    assert csol.status == simplex.INFEASIBLE


def test_stale_warm_basis_still_solves(monkeypatch):
    """A basis whose reduced costs do not fit the objective is unusable
    for the bound-change shortcut; the solve must recover on its own."""
    inst = MipInstance.from_constraints(
        "box", "min",
        [Variable("x1", CONTINUOUS, 0.0, 1.0),
         Variable("x2", CONTINUOUS, 0.0, 1.0)],
        [Constraint("cap", {0: 1.0, 1: 1.0}, -math.inf, 1.0)],
        {0: -1.0, 1: -1.0})
    ws = simplex.LpWorkspace(canonicalize(inst))
    basis = np.arange(ws.n, ws.n + ws.m, dtype=np.int64)
    vstat = np.empty(ws.n + ws.m, dtype=np.int8)
    vstat[:ws.n] = simplex.AT_LOWER
    vstat[ws.n:] = simplex.BASIC
    stale = simplex.WarmStart(basis, vstat)
    boxes = _counting_boxes(monkeypatch)
    sol, _ = ws.solve(warm=stale)
    assert sol.status == simplex.OPTIMAL
    assert sol.objective == pytest.approx(-1.0)
    # the dual kernel refused the basis; phase 1 from it, within the same
    # attempt, reached a dual-feasible one
    assert len(boxes) == 1
    assert sol.fallbacks == 0


def test_warm_resolve_puts_free_variable_on_its_new_bound():
    """A free nonbasic sits at 0; once its upper bound becomes -1 the
    re-solve must not keep it there and call the LP optimal."""
    inst = MipInstance.from_constraints(
        "free", "min",
        [Variable("x", CONTINUOUS, -math.inf, math.inf)],
        [Constraint("row", {0: 1.0}, 0.0, math.inf)], {0: 0.0})
    ws = simplex.LpWorkspace(inst)
    root, warm = ws.solve()
    assert root.status == simplex.OPTIMAL
    wsol, _ = ws.solve(None, np.array([-1.0]), warm)
    assert wsol.status == simplex.INFEASIBLE
    wsol, _ = ws.solve(None, np.array([2.0]), warm)
    assert wsol.status == simplex.OPTIMAL
    assert 0.0 <= wsol.x[0] <= 2.0


def test_pivots_count_moves_not_passes():
    """A warm re-solve from the optimal basis under the same bounds makes
    no pivot and reports 0; a cold solve reports its pivots, and a cap
    of that many passes stops the kernel one pass short of proving the
    status."""
    canon = canonicalize(generate(GenSpec("mk", "tiny", seed=0)))
    ws = simplex.LpWorkspace(canon)
    cold, warm = ws.solve()
    assert cold.status == simplex.OPTIMAL and cold.fallbacks == 0
    again, _ = ws.solve(warm=warm)
    assert again.iterations == 0
    assert again.objective == pytest.approx(cold.objective, abs=1e-9)
    assert cold.iterations > 0
    low, upp = ws.base_low.copy(), ws.base_upp.copy()
    for cap, want in ((cold.iterations, simplex.ITER_LIMIT),
                      (cold.iterations + 1, simplex.OPTIMAL)):
        basis, vstat = ws._signed_slack_start(low, upp)
        status, pivots, _, _, _ = simplex.dual_core(
            ws.sparse, ws.c, low, upp, basis, vstat, np.zeros(ws.n + ws.m),
            simplex.FEAS_TOL, simplex.PIVOT_TOL, cap, ws.bland_after,
            simplex.REFACTOR_EVERY)
        assert (status, pivots) == (want, cold.iterations)


def test_rowless_lps_take_the_kernel_path():
    """LPs without rows run the same attempts as any other LP: bounded
    columns end on the bound their cost favours, zero-cost and free
    columns stay where the cold start puts them, and an unbounded LP
    reports -inf in the minimization form (+inf for a max instance)."""
    V = Variable
    bounded = MipInstance.from_constraints(
        "bounded", "min",
        [V("x", CONTINUOUS, 0.0, 2.0), V("y", CONTINUOUS, -1.0, 3.0),
         V("z", CONTINUOUS, -math.inf, 4.0), V("f", CONTINUOUS, -math.inf,
                                                 math.inf),
         V("w", CONTINUOUS, 1.0, 2.0)],
        [], {0: 1.0, 1: -2.0, 2: -1.0})
    calls = []
    real = simplex.dual_core

    def counting(*args, **kwargs):
        calls.append(args[0].m)
        return real(*args, **kwargs)

    with mock.patch.object(simplex, "dual_core", counting):
        sol = simplex.solve_lp(bounded)
    assert calls == [0]
    assert sol.status == simplex.OPTIMAL
    assert (sol.objective, sol.iterations, sol.fallbacks) == (-10.0, 0, 0)
    assert sol.x.tolist() == [0.0, 3.0, 4.0, 0.0, 1.0]
    # no rows, so vstat holds the structurals only; f is free at 0
    assert sol.vstat.tolist() == [simplex.AT_LOWER, simplex.AT_UPPER,
                                  simplex.AT_UPPER, simplex.FREE,
                                  simplex.AT_LOWER]
    assert sol.duals.shape == (0,)
    for sense, want in (("min", -math.inf), ("max", math.inf)):
        unbounded = MipInstance.from_constraints(
            "unbounded", sense,
            [V("x", CONTINUOUS, 0.0, 2.0),
             V("y", CONTINUOUS, -math.inf, math.inf)],
            [], {0: 1.0, 1: 1.0 if sense == "min" else -1.0})
        sol = simplex.solve_lp(unbounded)
        assert sol.status == simplex.UNBOUNDED
        assert sol.objective == want


def test_unbounded_lp_with_rows_reports_minus_inf():
    inst = MipInstance.from_constraints(
        "ray", "min",
        [Variable("x", CONTINUOUS, 0.0, math.inf),
         Variable("y", CONTINUOUS, 0.0, math.inf)],
        [Constraint("r", {0: 1.0, 1: -1.0}, -math.inf, 1.0)],
        {0: -1.0, 1: -1.0})
    sol = simplex.solve_lp(inst)
    assert sol.status == simplex.UNBOUNDED
    assert sol.objective == -math.inf
    inst.sense = "max"
    inst.c = np.array([1.0, 1.0])
    assert simplex.solve_lp(inst).objective == math.inf


def _refuse(*args, **kwargs):
    raise AssertionError("this must not run")


def _counting_boxes(monkeypatch):
    """A list that gains one entry each time a solve enters phase 1 (asks
    for the unit boxes)."""
    calls = []
    real = simplex._boxes

    def counting(low, upp):
        calls.append(len(low))
        return real(low, upp)

    monkeypatch.setattr(simplex, "_boxes", counting)
    return calls


def test_cold_solve_takes_the_dual_path_on_every_class(monkeypatch):
    """Every generated class prices dual feasible from the cost-signed
    slack basis, and every node LP of a 200-node tree from its parent's
    basis, so no solve needs phase 1 and none falls back."""
    monkeypatch.setattr(simplex, "_boxes", _refuse)
    for problem, (preset, params) in TINY_SPECS.items():
        for seed in range(3):
            inst = generate(GenSpec(problem, preset, params=params,
                                    seed=seed))
            canon = canonicalize(inst)
            sol, _ = simplex.LpWorkspace(canon).solve()
            status, fun = highs_status(canon)
            assert status == 0, (problem, seed)
            assert sol.status == simplex.OPTIMAL, (problem, seed)
            assert sol.objective == pytest.approx(fun, abs=1e-7), \
                (problem, seed)
            assert sol.fallbacks == 0, (problem, seed)
            res = bnb.solve(inst, bnb.BnbConfig(node_limit=200))
            assert res.nodes > 0 and res.lp_fallbacks == 0, (problem, seed)


def test_cold_dual_proves_boxed_lp_infeasible(monkeypatch):
    monkeypatch.setattr(simplex, "_boxes", _refuse)
    inst = MipInstance.from_constraints(
        "boxed", "min",
        [Variable("x1", CONTINUOUS, 0.0, 1.0),
         Variable("x2", CONTINUOUS, 0.0, 1.0)],
        [Constraint("cover", {0: 1.0, 1: 1.0}, 3.0, math.inf)],
        {0: 1.0, 1: 2.0})
    sol, _ = simplex.LpWorkspace(inst).solve()
    assert sol.status == simplex.INFEASIBLE
    assert sol.fallbacks == 0


def test_cost_toward_infinite_bound_goes_through_phase_1(monkeypatch):
    """c_j > 0 with lb = -inf: the slack basis is not dual feasible, so
    the cold attempt runs phase 1 and counts no fallback."""
    boxes = _counting_boxes(monkeypatch)
    inst = MipInstance.from_constraints(
        "open", "min",
        [Variable("x", CONTINUOUS, -math.inf, 4.0),
         Variable("y", CONTINUOUS, 0.0, 2.0)],
        [Constraint("row", {0: 1.0, 1: 1.0}, 1.0, math.inf)],
        {0: 1.0, 1: 2.0})
    sol, _ = simplex.LpWorkspace(inst).solve()
    status, fun = highs_status(inst)
    assert status == 0
    assert sol.status == simplex.OPTIMAL
    assert sol.objective == pytest.approx(fun, abs=1e-7)
    assert sol.fallbacks == 0
    assert len(boxes) == 1


def test_primal_and_dual_infeasible_lp_is_infeasible(monkeypatch):
    """min -x1 - x2 with x1 - x2 >= 1 and x2 - x1 >= 1 over x >= 0: the
    rows contradict each other, and so do the dual's.  Phase 1 finds no
    dual-feasible basis, and the solve with zero costs from the slack
    basis proves the LP infeasible, as HiGHS reports."""
    inst = MipInstance.from_constraints(
        "both", "min",
        [Variable("x1", CONTINUOUS, 0.0, math.inf),
         Variable("x2", CONTINUOUS, 0.0, math.inf)],
        [Constraint("a", {0: 1.0, 1: -1.0}, 1.0, math.inf),
         Constraint("b", {0: -1.0, 1: 1.0}, 1.0, math.inf)],
        {0: -1.0, 1: -1.0})
    costs = []
    real = simplex.dual_core

    def recording(sp, c, *args, **kwargs):
        costs.append(c.copy())
        return real(sp, c, *args, **kwargs)

    monkeypatch.setattr(simplex, "dual_core", recording)
    sol = simplex.solve_lp(inst)
    assert sol.status == simplex.INFEASIBLE
    assert highs_status(inst)[0] == 2
    assert sol.fallbacks == 0
    assert not costs[-1].any() and all(c.any() for c in costs[:-1])


def test_cold_dual_failure_raises(monkeypatch):
    """The cold attempt is the last one: a singular basis there raises."""
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular")

    monkeypatch.setattr(simplex, "dual_core", singular)
    with pytest.raises(RuntimeError, match="singular"):
        simplex.LpWorkspace(one_var_lp()).solve()


def prices_dual_feasible(ws, warm):
    """True when the basis of ``warm`` prices dual feasible: no nonbasic
    column could improve the objective by leaving its bound."""
    z = np.zeros(ws.n + ws.m)
    Binv = simplex._factor(ws.sparse, ws.base_low, ws.base_upp, warm.basis,
                            warm.vstat, z)
    _, d = simplex._price(ws.sparse, ws.c, warm.basis, Binv)
    return not simplex._improving(warm.vstat, d, 1e-6).any()


def test_flips_that_absorb_the_violation_still_pivot():
    """x in [0, 1] must reach 1 + 5e-8: flipping x to its upper bound
    leaves less than the tolerance of the violation.  The dual kernel
    must pivot x in rather than end the round on the flip, which would
    leave x at its upper bound with reduced cost +1."""
    inst = MipInstance.from_constraints(
        "edge", "min",
        [Variable("x", CONTINUOUS, 0.0, 1.0)],
        [Constraint("row", {0: 1.0}, 1.0 + 5e-8, math.inf)], {0: 1.0})
    ws = simplex.LpWorkspace(inst)
    sol, warm = ws.solve()
    assert sol.status == simplex.OPTIMAL
    assert sol.fallbacks == 0
    assert sol.objective == pytest.approx(1.0, abs=1e-7)
    assert sol.vstat[0] == simplex.BASIC
    assert prices_dual_feasible(ws, warm)


def test_dual_bland_rule_enters_at_the_smallest_ratio():
    """Row a: flipping x0 leaves 1e-12 of its violation, so x1 enters with
    a degenerate step and (bland_after=0) Bland's rule takes over.  Row b
    then has eligible columns x2 (ratio 5) and x3 (ratio 1): entering x2
    just because it comes first would leave x3 dual infeasible and stop
    at objective 3.5 instead of 1.5."""
    inst = MipInstance.from_constraints(
        "bland", "min",
        [Variable(f"x{j}", CONTINUOUS, 0.0, 1.0) for j in range(4)],
        [Constraint("a", {0: 1.0, 1: 1.0}, 1.0 + 1e-12, math.inf),
         Constraint("b", {2: 1.0, 3: 1.0}, 0.5, math.inf)],
        {0: 1.0, 1: 2.0, 2: 5.0, 3: 1.0})
    ws = simplex.LpWorkspace(inst)
    low, upp = ws.base_low.copy(), ws.base_upp.copy()
    basis, vstat = ws._signed_slack_start(low, upp)
    z = np.zeros(ws.n + ws.m)
    status, _, _, _, _ = simplex.dual_core(
        ws.sparse, ws.c, low, upp, basis, vstat, z, simplex.FEAS_TOL,
        simplex.PIVOT_TOL, ws.max_iter, 0, simplex.REFACTOR_EVERY)
    assert status == simplex.OPTIMAL
    assert float(ws.c @ z) == pytest.approx(highs_status(inst)[1], abs=1e-7)
    assert float(ws.c @ z) == pytest.approx(1.5, abs=1e-7)
    assert prices_dual_feasible(ws, simplex.WarmStart(basis, vstat))


def test_dual_core_rechecks_prices_before_claiming_optimal():
    """Prices that went stale in the loop must not end in OPTIMAL.  The
    first pricing is skewed so that x1 (cost 2) looks cheaper than x0
    (cost 1) and enters; the fresh prices of the basis {x1} then make x0
    improving, so the kernel returns a non-final code and the solve runs
    phase 1 from that basis, in the same attempt, to the true optimum
    1."""
    inst = MipInstance.from_constraints(
        "stale", "min",
        [Variable(f"x{j}", CONTINUOUS, 0.0, 10.0) for j in range(2)],
        [Constraint("cover", {0: 1.0, 1: 1.0}, 1.0, math.inf)],
        {0: 1.0, 1: 2.0})
    real_price = simplex._price
    skewed = []

    def price(sp, c, basis, Binv):
        y, d = real_price(sp, c, basis, Binv)
        if not skewed:
            skewed.append(True)
            d = d + np.array([2.0, 0.0, 0.0])
        return y, d

    ws = simplex.LpWorkspace(inst)
    low, upp = ws.base_low.copy(), ws.base_upp.copy()
    basis, vstat = ws._signed_slack_start(low, upp)
    z = np.zeros(3)
    with mock.patch.object(simplex, "_price", price):
        status, _, _, _, _ = simplex.dual_core(
            ws.sparse, ws.c, low, upp, basis, vstat, z,
            simplex.FEAS_TOL, simplex.PIVOT_TOL, ws.max_iter, ws.bland_after,
            simplex.REFACTOR_EVERY)
    assert status == simplex.NOT_DUAL_FEASIBLE
    assert list(basis) == [1]
    skewed.clear()
    with mock.patch.object(simplex, "_price", price):
        sol, _ = ws.solve()
    assert sol.status == simplex.OPTIMAL
    assert sol.fallbacks == 0
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def _lapack_factor(G, low, upp, basis, vstat):
    """Basis inverse and basic point through ``np.linalg.inv``."""
    Binv = np.ascontiguousarray(np.linalg.inv(G[:, basis]))
    zn = np.where(vstat == simplex.AT_LOWER, low,
                  np.where(vstat == simplex.AT_UPPER, upp, 0.0))
    z = zn.copy()
    z[basis] = -np.dot(Binv, np.dot(G, zn))
    return Binv, z


def _block(G, n):
    """The kernels' ``SparseBlock`` of the first n columns of a dense
    ``G``, entries in row-major order."""
    m = G.shape[0]
    r, q = G[:, :n].nonzero()
    indptr = np.concatenate(([0], np.cumsum(np.bincount(r, minlength=m))))
    return simplex.sparse_block(
        RowArrays(indptr, q, G[r, q], np.zeros(m), np.zeros(m)), n)


def _random_factor_case(rng, m):
    n = int(rng.integers(1, 2 * m + 2))
    A = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.4)
    G = np.ascontiguousarray(np.hstack([A, -np.eye(m)]))
    low = rng.integers(-3, 1, n + m).astype(float)
    upp = low + rng.integers(0, 4, n + m)
    vstat = rng.integers(simplex.AT_LOWER, simplex.FREE + 1,
                         n + m).astype(np.int8)
    return n, G, low, upp, vstat


def _factor_counting_inv(monkeypatch, sp, low, upp, basis, vstat):
    """``_factor`` output (the transposed inverse and the point) and the
    shapes ``np.linalg.inv`` was called on."""
    inv = np.linalg.inv
    calls = []

    def counting_inv(a):
        calls.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    z = np.zeros(sp.n + sp.m)
    T = simplex._factor(sp, low, upp, basis, vstat, z)
    monkeypatch.setattr(np.linalg, "inv", inv)
    return T, z, calls


def _close(got, want):
    """Equal within 1e-12 * max(1, |want|) entrywise."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("m", [1, 5, 76])
def test_all_slack_factor_equals_lapack_bitwise(m, monkeypatch):
    """The all-slack inverse is written, not inverted: its transpose has
    LAPACK's bytes, and the basic point is LAPACK's within 1e-12."""
    rng = np.random.default_rng(m)
    for trial in range(4):
        n, G, low, upp, vstat = _random_factor_case(rng, m)
        order = np.arange(m) if trial == 0 else rng.permutation(m)
        basis = (n + order).astype(np.int64)
        vstat[basis] = simplex.BASIC
        T, z, calls = _factor_counting_inv(monkeypatch, _block(G, n), low,
                                           upp, basis, vstat)
        ref_Binv, ref_z = _lapack_factor(G, low, upp, basis, vstat)
        assert calls == [], trial
        assert T.T.tobytes() == ref_Binv.tobytes(), trial
        _close(z, ref_z)


def test_basis_with_a_structural_is_inverted_by_lapack(monkeypatch):
    """One basic structural: LAPACK inverts only the 1 x 1 kernel."""
    rng = np.random.default_rng(3)
    m = 5
    n, G, low, upp, vstat = _random_factor_case(rng, m)
    G[:, 0] = 1.0  # a column that makes any basis holding it nonsingular
    basis = np.array([0] + [n + i for i in range(1, m)], dtype=np.int64)
    vstat[basis] = simplex.BASIC
    T, z, calls = _factor_counting_inv(monkeypatch, _block(G, n), low, upp,
                                       basis, vstat)
    ref_Binv, ref_z = _lapack_factor(G, low, upp, basis, vstat)
    assert calls == [(1, 1)]
    _close(T.T, ref_Binv)
    _close(z, ref_z)


def _typed_rows_instance(rng, n, m):
    """Binaries under dense random rows of every kind: <=, >=, = and
    ranged."""
    variables = [Variable(f"x{j}", BINARY, 0.0, 1.0) for j in range(n)]
    constraints = []
    for i in range(m):
        coeffs = {j: float(rng.normal()) for j in range(n)
                  if rng.random() < 0.7}
        lhs, rhs = [(-math.inf, 2.0), (-1.0, math.inf), (0.5, 0.5),
                    (-1.0, 1.5)][i % 4]
        constraints.append(Constraint(f"r{i}", coeffs, lhs, rhs))
    return MipInstance.from_constraints(
        "typed", "min", variables, constraints,
        {j: float(rng.normal()) for j in range(n)})


def _random_basis(rng, G, n, k):
    """A basis of the dense ``G`` (n structurals) with k structurals whose
    kernel is well conditioned: the structurals against k rows whose
    slacks are nonbasic, positions shuffled."""
    m = G.shape[0]
    for _ in range(200):
        cols = rng.choice(n, size=k, replace=False)
        live = rng.choice(m, size=k, replace=False)
        if k and np.linalg.cond(G[np.ix_(live, cols)]) > 1e3:
            continue
        slacks = n + np.setdiff1d(np.arange(m), live)
        return rng.permutation(np.concatenate((cols, slacks))).astype(np.int64)
    raise AssertionError("no well-conditioned kernel found")


def test_kernel_factor_matches_lapack_inverse():
    """Random bases with no, some and only structurals, on rows of every
    kind, with and without the distance row: the transposed inverse from
    the kernel equals LAPACK's inverse of the whole basis, and the basic
    point the one it gives, within 1e-12."""
    rng = np.random.default_rng(11)
    canon = canonicalize(_typed_rows_instance(rng, n=12, m=7))
    ball = bnb.HammingBall(x_hat=np.ones(canon.n_vars),
                           S=np.arange(0, canon.n_vars, 2), phi=2)
    for lp_inst in (canon, bnb._with_distance(canon, ball)[0]):
        ws = simplex.LpWorkspace(lp_inst)
        G = dict_walk(lp_inst)[0]
        low, upp = ws.base_low, ws.base_upp
        for k in (0, 1, ws.m // 2, ws.m - 1, ws.m):
            for _ in range(3):
                basis = _random_basis(rng, G, ws.n, k)
                vstat = np.where(np.isfinite(low), simplex.AT_LOWER,
                                 simplex.AT_UPPER).astype(np.int8)
                vstat[rng.random(len(vstat)) < 0.3] = simplex.AT_UPPER
                vstat[~np.isfinite(upp)] = simplex.AT_LOWER
                vstat[basis] = simplex.BASIC
                z = np.zeros(ws.n + ws.m)
                T = simplex._factor(ws.sparse, low, upp, basis, vstat, z)
                ref_Binv, ref_z = _lapack_factor(G, low, upp, basis, vstat)
                _close(T.T, ref_Binv)
                _close(z, ref_z)


@pytest.mark.parametrize("problem", sorted(TINY_SPECS))
def test_sparse_products_match_dense(problem):
    """Pivot row, entering column and bound-flip shift from the sparse
    block and the transposed inverse ``T`` equal the dense products with
    ``G`` and ``Binv = T.T``, with and without the appended distance row,
    for structural and slack columns."""
    preset, params = TINY_SPECS[problem]
    canon = canonicalize(generate(GenSpec(problem, preset, params=params,
                                          seed=0)))
    ball = bnb.HammingBall(x_hat=np.ones(canon.n_vars),
                           S=canon.binary_indices()[::2], phi=1)
    rng = np.random.default_rng(7)
    for lp_inst in (canon, bnb._with_distance(canon, ball)[0]):
        ws = simplex.LpWorkspace(lp_inst)
        G, sp, N = dict_walk(lp_inst)[0], ws.sparse, ws.n + ws.m
        T = rng.standard_normal((ws.m, ws.m))
        Binv = T.T
        for r in range(ws.m):
            _close(simplex._row_times(sp, T[:, r]), Binv[r] @ G)
        for q in range(N):
            _close(simplex._column(sp, T, q), Binv @ G[:, q])
        for size in (1, 3, N // 2, N):
            F = rng.choice(N, size=size, replace=False)
            dz = rng.standard_normal(size)
            dzF = np.zeros(N)
            dzF[F] = dz
            _close(simplex._times(sp, dzF), G[:, F] @ dz)
            _close(simplex._ftran(T, simplex._times(sp, dzF)),
                   Binv @ (G[:, F] @ dz))


# ---------------------------------------------------------------------------
# Property tests on random small LPs against HiGHS and against cold solves


def _bound(draw, finite_share):
    return draw(st.integers(-3, 3)) if draw(st.floats(0, 1)) < finite_share \
        else None


@st.composite
def small_lps(draw):
    """Random LPs with <=, >=, = and ranged rows (or none) and mixed
    bounds."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 5))
    variables = []
    for j in range(n):
        lb = _bound(draw, 0.9)
        ub = _bound(draw, 0.8)
        lb = -math.inf if lb is None else float(lb)
        ub = math.inf if ub is None else float(ub)
        if lb > ub:
            lb, ub = ub, lb
        variables.append(Variable(f"x{j}", CONTINUOUS, lb, ub))
    constraints = []
    for i in range(m):
        coeffs = {j: float(draw(st.integers(-4, 4))) for j in range(n)}
        coeffs = {j: a for j, a in coeffs.items() if a != 0.0} or {0: 1.0}
        kind = draw(st.sampled_from(("le", "ge", "eq", "range")))
        lo = float(draw(st.integers(-6, 6)))
        width = float(draw(st.integers(0, 6)))
        lhs, rhs = {"le": (-math.inf, lo), "ge": (lo, math.inf),
                    "eq": (lo, lo), "range": (lo, lo + width)}[kind]
        constraints.append(Constraint(f"r{i}", coeffs, lhs, rhs))
    c = {j: float(draw(st.integers(-5, 5))) for j in range(n)}
    return MipInstance.from_constraints("prop", "min", variables, constraints, c)


def highs_status(inst):
    """(status, objective) of HiGHS on the instance: 0 optimal, 2
    infeasible, 3 unbounded.  Presolve may report an unbounded LP as
    infeasible; a presolve-free rerun settles it."""
    args = relaxation_arrays(inst)[:6]
    res = linprog(args[0], A_ub=args[1], b_ub=args[2], A_eq=args[3],
                  b_eq=args[4], bounds=args[5], method="highs")
    if res.status in (2, 3):
        res = linprog(args[0], A_ub=args[1], b_ub=args[2], A_eq=args[3],
                      b_eq=args[4], bounds=args[5], method="highs",
                      options={"presolve": False})
    return res.status, res.fun


_STATUS_CODE = {simplex.OPTIMAL: 0, simplex.INFEASIBLE: 2,
                simplex.UNBOUNDED: 3}
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


@PROPERTY
@given(small_lps())
def test_cold_solve_matches_highs(inst):
    ws = simplex.LpWorkspace(inst)
    sol, warm = ws.solve()
    status, fun = highs_status(inst)
    assert _STATUS_CODE[sol.status] == status
    if status == 0:
        assert sol.objective == pytest.approx(fun, abs=1e-7)
        assert prices_dual_feasible(ws, warm)


@PROPERTY
@given(small_lps(), st.data())
def test_warm_resolve_matches_cold_after_tightening(inst, data):
    """A chain of bound tightenings, each re-solved warm from the previous
    basis (as branch and bound does) and cold on the same bounds."""
    ws = simplex.LpWorkspace(inst)
    sol, warm = ws.solve()
    assume(sol.status == simplex.OPTIMAL)
    low = ws.base_low[:ws.n].copy()
    upp = ws.base_upp[:ws.n].copy()
    for _ in range(data.draw(st.integers(1, 4))):
        j = data.draw(st.integers(0, ws.n - 1))
        v = float(data.draw(st.integers(-4, 4)))
        if data.draw(st.booleans()):
            upp[j] = max(min(upp[j], v), low[j])
        else:
            low[j] = min(max(low[j], v), upp[j])
        wsol, wwarm = ws.solve(low, upp, warm)
        csol, _ = ws.solve(low, upp)
        assert wsol.status == csol.status
        # cold solves run the dual kernel too, so HiGHS is the independent
        # check of both
        status, fun = highs_status(with_bounds(inst, low, upp))
        assert _STATUS_CODE[wsol.status] == status
        if csol.status != simplex.OPTIMAL:
            break
        assert wsol.objective == pytest.approx(csol.objective, abs=1e-7)
        assert wsol.objective == pytest.approx(fun, abs=1e-7)
        warm = wwarm


def with_bounds(inst, low, upp):
    """Copy of ``inst`` with the given variable bounds."""
    return replace(inst, lb=np.array(low, dtype=float),
                   ub=np.array(upp, dtype=float))


@PROPERTY
@given(small_lps(), st.sampled_from((1, 3, 100)))
def test_dual_core_refactors_and_rechecks(inst, refactor_every):
    """The dual kernel from the cost-signed slack basis, refactorizing
    every 1, 3 or 100 pivots: HiGHS's status and objective, returned
    reduced costs equal to fresh ones, an optimal basis that prices dual
    feasible, and reduced costs priced from scratch after every
    refactorization and before returning."""
    ws = simplex.LpWorkspace(inst)
    low, upp = ws.base_low.copy(), ws.base_upp.copy()
    basis, vstat = ws._signed_slack_start(low, upp)
    # the slack basis prices d = c; the kernel refuses it when some cost
    # points at an infinite bound
    assume(not simplex._improving(vstat, ws.c, 10.0 * simplex.FEAS_TOL).any())
    z = np.zeros(ws.n + ws.m)
    calls = []
    real_factor, real_price = simplex._factor, simplex._price

    def factor(*args):
        Binv = real_factor(*args)
        calls.append(("factor", Binv))
        return Binv

    def price(sp, c, basis, Binv):
        calls.append(("price", Binv))
        return real_price(sp, c, basis, Binv)

    with mock.patch.object(simplex, "_factor", factor), \
            mock.patch.object(simplex, "_price", price):
        status, iters, _, d, _ = simplex.dual_core(
            ws.sparse, ws.c, low, upp, basis, vstat, z,
            simplex.FEAS_TOL, simplex.PIVOT_TOL, ws.max_iter, ws.bland_after,
            refactor_every)

    assert status in (simplex.OPTIMAL, simplex.INFEASIBLE)
    hstatus, fun = highs_status(inst)
    assert _STATUS_CODE[status] == hstatus
    # the kernel counts pivots, not loop rounds
    pivots = iters
    kinds = [kind for kind, _ in calls]
    assert kinds.count("factor") == 1 + pivots // refactor_every
    assert kinds[-1] == "price"
    for (kind, Binv), (after, priced) in zip(calls, calls[1:]):
        if kind == "factor":
            assert after == "price" and priced is Binv

    Binv = simplex._factor(ws.sparse, low, upp, basis, vstat, z.copy())
    _, fresh = simplex._price(ws.sparse, ws.c, basis, Binv)
    np.testing.assert_allclose(d, fresh, rtol=0.0, atol=1e-9)
    if status == simplex.OPTIMAL:
        assert float(ws.c @ z) == pytest.approx(fun, abs=1e-7)
        assert prices_dual_feasible(ws, simplex.WarmStart(basis, vstat))


# ---------------------------------------------------------------------------
# The trimmed dual loop against the reference loop, and the carried state


def _recorded_dual_calls(monkeypatch, run):
    """Inputs of every ``dual_core`` call made by ``run()``."""
    calls = []
    real = simplex.dual_core

    def recording(sp, c, low, upp, basis, vstat, z, *args, **kwargs):
        calls.append((sp, c, low.copy(), upp.copy(), basis.copy(),
                      vstat.copy(), args))
        return real(sp, c, low, upp, basis, vstat, z, *args, **kwargs)

    monkeypatch.setattr(simplex, "dual_core", recording)
    run()
    monkeypatch.setattr(simplex, "dual_core", real)
    return calls


def _fresh_outcome(kernel, sp, c, low, upp, basis, vstat, args):
    """Status, pivots and the bytes of basis, vstat, z, y and d of one
    kernel call started fresh."""
    basis, vstat, z = basis.copy(), vstat.copy(), np.zeros(sp.n + sp.m)
    status, pivots, y, d = kernel(sp, c, low, upp, basis, vstat, z,
                                  *args)[:4]
    return (status, pivots, basis.tobytes(), vstat.tobytes(), z.tobytes(),
            y.tobytes(), d.tobytes())


@pytest.mark.parametrize("problem", sorted(TINY_SPECS))
def test_dual_kernel_equals_reference_loop_bitwise(problem, monkeypatch):
    """The cold root LP and every node LP of one branch-and-bound tree,
    each replayed from a fresh start: the kernel and the reference loop
    return the same status, pivots, basis, vstat, z, y and d, byte for
    byte."""
    preset, params = TINY_SPECS[problem]
    inst = generate(GenSpec(problem, preset, params=params, seed=0))
    calls = _recorded_dual_calls(monkeypatch, lambda: bnb.solve(inst))
    assert len(calls) > 1
    for sp, c, low, upp, basis, vstat, args in calls:
        want = _fresh_outcome(reference_dual_core, sp, c, low, upp, basis,
                              vstat, args)
        got = _fresh_outcome(simplex.dual_core, sp, c, low, upp, basis,
                             vstat, args)
        assert got == want


# the sc and ga root LPs of the benchmark's infer-mix workload at seed 0:
# (problem, preset, params, item index); the instance seed derives from
# the workload seed as perfbench's item_seed does
INFER_MIX_ROOTS = {
    "sc": ("custom", {"sets": 300, "elements": 200, "density": 0.05}, 0),
    "ga": ("small", {}, 12),
}


@pytest.mark.parametrize("problem", sorted(INFER_MIX_ROOTS))
def test_dual_kernel_equals_reference_loop_bitwise_on_large_roots(
        problem, monkeypatch):
    """A cold root LP of hundreds of pivots, with refactorizations and
    passes that flip several bounds at once, replayed as above."""
    preset, params, index = INFER_MIX_ROOTS[problem]
    seed = int(np.random.SeedSequence([0, 3, index]).generate_state(1)[0])
    inst = generate(GenSpec(problem, preset, params=params, seed=seed))
    ws = simplex.LpWorkspace(canonicalize(inst))
    flips = []
    real_ftran = simplex._ftran

    def counting(T, v):
        # dual_core calls _ftran once per pass that flips bounds
        flips.append(int(np.count_nonzero(v)))
        return real_ftran(T, v)

    monkeypatch.setattr(simplex, "_ftran", counting)
    calls = _recorded_dual_calls(monkeypatch, ws.solve)
    monkeypatch.setattr(simplex, "_ftran", real_ftran)
    (sp, c, low, upp, basis, vstat, args), = calls
    want = _fresh_outcome(reference_dual_core, sp, c, low, upp, basis, vstat,
                          args)
    got = _fresh_outcome(simplex.dual_core, sp, c, low, upp, basis, vstat,
                         args)
    assert got == want
    assert got[1] > 2 * simplex.REFACTOR_EVERY
    assert len(flips) > 20 and max(flips) > 1


# one cold root LP per class of the benchmark's infer-mix workload at
# seed 0, the first of its copies: (preset, params, item index, status,
# pivots).  Any reordered or fused floating-point update in the kernel
# moves some of these pivot paths.
PINNED_ROOTS = {
    "sc": ("custom", {"sets": 300, "elements": 200, "density": 0.05}, 0,
           simplex.OPTIMAL, 465),
    "mis": ("custom", {"nodes": 60, "min_edges": 600, "max_edges": 700}, 3,
            simplex.OPTIMAL, 60),
    "tsp": ("custom", {"min_cities": 20, "max_cities": 20}, 6,
            simplex.OPTIMAL, 66),
    "mk": ("small", {}, 9, simplex.OPTIMAL, 38),
    "ga": ("small", {}, 12, simplex.OPTIMAL, 261),
    "cfl": ("small", {}, 15, simplex.OPTIMAL, 121),
    "vrp": ("custom", {"customers": 8, "vehicles": 3}, 18, simplex.OPTIMAL, 24),
}

PINNED_ROOTS_CODE = """\
import numpy as np
from mippred import simplex
from mippred.core import canonicalize
from mippred.generators import GenSpec, generate
out = {}
for problem, (preset, params, index) in ROOTS.items():
    seed = int(np.random.SeedSequence([0, 3, index]).generate_state(1)[0])
    inst = generate(GenSpec(problem, preset, params=params, seed=seed))
    sol, _ = simplex.LpWorkspace(canonicalize(inst)).solve()
    out[problem] = (sol.status, sol.iterations)
print(out)
"""


def test_infer_mix_root_pivot_counts_are_pinned():
    """The roots solve in a fresh interpreter with one BLAS thread, as
    the benchmark runs them: a threaded BLAS may sum a product in
    another order, and then the sc root takes another pivot path."""
    roots = {p: row[:3] for p, row in PINNED_ROOTS.items()}
    src = str(Path(simplex.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run(
        [sys.executable, "-c", f"ROOTS = {roots!r}\n" + PINNED_ROOTS_CODE],
        env=env, capture_output=True, text=True, check=True)
    assert ast.literal_eval(out.stdout) == {
        p: row[3:] for p, row in PINNED_ROOTS.items()}


def _dive_instance():
    params = {"sets": 80, "elements": 60, "density": 0.15}
    return canonicalize(generate(GenSpec("sc", "custom", params=params,
                                         seed=0)))


def test_carried_state_chain_crosses_refactorizations(monkeypatch):
    """A dive of warm solves, each from the state the previous one carried
    out, long enough that the shared pivot count passes REFACTOR_EVERY at
    least twice: every status equals a cold solve of the same bounds and
    every optimal objective is within 1e-9 relative."""
    ws = simplex.LpWorkspace(_dive_instance())
    sol, warm = ws.solve()
    low = ws.base_low[:ws.n].copy()
    upp = ws.base_upp[:ws.n].copy()
    real_factor = simplex._factor
    factors = []

    def counting(*args):
        factors.append(1)
        return real_factor(*args)

    refactors = 0
    while refactors < 2:
        assert warm.state is not None
        frac = np.minimum(sol.x - np.floor(sol.x), np.ceil(sol.x) - sol.x)
        j = int(np.argmax(frac))
        if frac[j] > 1e-6:
            upp[j] = 0.0
        else:  # integral: fix the first free set into the cover
            j = int(np.flatnonzero(low < upp)[0])
            low[j] = 1.0
        factors.clear()
        monkeypatch.setattr(simplex, "_factor", counting)
        wsol, wwarm = ws.solve(low, upp, warm)
        monkeypatch.setattr(simplex, "_factor", real_factor)
        refactors += len(factors)
        csol, _ = ws.solve(low, upp)
        assert wsol.status == csol.status
        if csol.status != simplex.OPTIMAL:
            break
        assert wsol.fallbacks == 0
        assert wsol.objective == pytest.approx(csol.objective, rel=1e-9,
                                               abs=0.0)
        sol, warm = wsol, wwarm
    assert refactors >= 2


def test_parked_sibling_equals_a_fresh_basis_copy():
    """Solving the sibling after the plunge child took the carried state
    gives the result of solving it from a fresh copy of the parent's
    basis: the child used the state up and left basis and vstat alone."""
    ws = simplex.LpWorkspace(_dive_instance())
    root, warm = ws.solve()
    fresh = simplex.WarmStart(warm.basis.copy(), warm.vstat.copy())
    j = int(np.argmax(np.minimum(root.x - np.floor(root.x),
                                 np.ceil(root.x) - root.x)))
    down = ws.base_upp[:ws.n].copy()
    down[j] = 0.0
    up = ws.base_low[:ws.n].copy()
    up[j] = 1.0
    assert warm.state is not None
    child, _ = ws.solve(None, down, warm)
    assert warm.state is None and child.iterations > 0
    sibling, _ = ws.solve(up, None, warm)
    want, _ = ws.solve(up, None, fresh)
    assert sibling.status == want.status == simplex.OPTIMAL
    assert (sibling.iterations, sibling.fallbacks) == (want.iterations,
                                                       want.fallbacks)
    assert sibling.x.tobytes() == want.x.tobytes()
    assert sibling.objective == want.objective


def test_later_warm_solves_leave_earlier_duals_alone():
    """A solution's duals and reduced costs stay as returned while warm
    solves go on from its snapshot and from theirs, which update the
    carried state in place."""
    ws = simplex.LpWorkspace(_dive_instance())
    sol, warm = ws.solve()
    low = ws.base_low[:ws.n].copy()
    upp = ws.base_upp[:ws.n].copy()
    seen = []
    for _ in range(4):
        assert warm.state is not None
        seen.append((sol, sol.duals.copy(), sol.reduced_costs.copy()))
        j = int(np.argmax(np.minimum(sol.x - np.floor(sol.x),
                                     np.ceil(sol.x) - sol.x)))
        upp[j] = 0.0
        sol, warm = ws.solve(low, upp, warm)
        assert sol.status == simplex.OPTIMAL and sol.iterations > 0
    for old, duals, reduced in seen:
        assert old.duals.tobytes() == duals.tobytes()
        assert old.reduced_costs.tobytes() == reduced.tobytes()


@pytest.mark.parametrize("problem", sorted(TINY_SPECS))
def test_node_lps_resume_like_a_basis_start(problem):
    """Every node LP that started from a carried state, plunge child,
    parked node or the exact mode's far root box, in two
    branch-and-bound trees (plain, and split at distance 1 from the
    all-zero point), solved again from a copy of that state and from its
    basis alone: same status, and optimal objectives within 1e-9
    relative."""
    preset, params = TINY_SPECS[problem]
    inst = generate(GenSpec(problem, preset, params=params, seed=0))
    ball = bnb.HammingBall(np.zeros(inst.n_vars), inst.binary_indices(), 1,
                           exact=True)
    calls = record_lp_solves(lambda: (bnb.solve(inst),
                                      bnb.solve(inst, ball=ball)))
    carried = [call for call in calls
               if call[3] is not None and call[3].state is not None]
    assert len(carried) > 2
    for ws, low, upp, snap in carried:
        resumed, _ = ws.solve(low, upp, simplex.WarmStart(
            snap.basis, snap.vstat, snap.state.copy()))
        based, _ = ws.solve(low, upp, simplex.WarmStart(snap.basis,
                                                        snap.vstat))
        assert resumed.status == based.status
        if based.status == simplex.OPTIMAL:
            assert resumed.objective == pytest.approx(based.objective,
                                                      rel=1e-9, abs=0.0)


def test_snap_table_equals_the_mask_rules():
    """The status snap's table, on all 16 cases of a status code and the
    finiteness of the two bounds, equals the rules stated as masks."""
    code, fin_low, fin_upp = (a.ravel() for a in np.meshgrid(
        np.arange(4, dtype=np.int8), [False, True], [False, True],
        indexing="ij"))
    low = np.where(fin_low, -1.0, -np.inf)
    upp = np.where(fin_upp, 1.0, np.inf)
    want = code.copy()
    reference_snap_vstat(want, low, upp)
    assert simplex._SNAP.tolist() == want.tolist()
    got = code.copy()
    simplex.LpWorkspace._snap_vstat(got, low, upp)
    assert got.dtype == np.int8 and got.tolist() == want.tolist()


def test_carried_dual_failure_falls_back_to_cold(monkeypatch):
    """A warm attempt that fails from a carried state hands over to the
    cold start and counts one fallback."""
    ws = simplex.LpWorkspace(_dive_instance())
    root, warm = ws.solve()
    assert warm.state is not None
    j = int(np.argmax(np.minimum(root.x - np.floor(root.x),
                                 np.ceil(root.x) - root.x)))
    upp = ws.base_upp[:ws.n].copy()
    upp[j] = 0.0
    starts = []
    real = simplex.dual_core

    def singular(*args, start=None, **kwargs):
        starts.append(start)
        if start is not None:
            raise np.linalg.LinAlgError("singular")
        return real(*args, start=start, **kwargs)

    monkeypatch.setattr(simplex, "dual_core", singular)
    sol, _ = ws.solve(None, upp, warm)
    monkeypatch.undo()
    assert len(starts) == 2
    assert starts[0] is not None and starts[1] is None
    csol, _ = ws.solve(None, upp)
    assert sol.status == csol.status == simplex.OPTIMAL
    assert sol.fallbacks == 1
    assert sol.objective == pytest.approx(csol.objective, abs=1e-7)
