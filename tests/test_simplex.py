"""LP solver: spot solutions, strong duality, and an external cross-check."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from mippred import _kernels, bnb, simplex
from mippred.core import (BINARY, CONTINUOUS, Constraint, MipInstance,
                          Variable, canonicalize)
from mippred.generators import PROBLEMS, GenSpec, generate
from oracles import TINY_SPECS, brute_force_optimum


def one_var_lp():
    return MipInstance(
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
    inst = MipInstance(
        "box", "min",
        [Variable("x1", CONTINUOUS, 0.0, 1.0),
         Variable("x2", CONTINUOUS, 0.0, 1.0)],
        [Constraint("cap", {0: 1.0, 1: 1.0}, -math.inf, 1.0)],
        {0: -1.0, 1: -1.0})
    sol = simplex.solve_lp(inst)
    assert sol.status == simplex.OPTIMAL
    assert sol.objective == pytest.approx(-1.0)


def test_infeasible_lp():
    inst = MipInstance(
        "bad", "min",
        [Variable("x", CONTINUOUS, 0.0, math.inf)],
        [Constraint("row", {0: 1.0}, -math.inf, -1.0)], {0: 1.0})
    assert simplex.solve_lp(inst).status == simplex.INFEASIBLE


def test_unbounded_lp():
    inst = MipInstance(
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
    for i, con in enumerate(canon.constraints):
        if sol.row_status[i] == simplex.AT_LOWER:
            total += sol.duals[i] * con.lhs
        elif sol.row_status[i] == simplex.AT_UPPER:
            total += sol.duals[i] * con.rhs
    for j in range(canon.n_vars):
        if sol.var_status[j] != simplex.BASIC:
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
        inst = MipInstance(f"rand{trial}", "min", variables, constraints,
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
    inst = MipInstance(
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
    inst = MipInstance(
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


def test_stale_warm_basis_still_solves():
    """A basis whose reduced costs do not fit the objective is unusable
    for the bound-change shortcut; the solve must recover on its own."""
    inst = MipInstance(
        "box", "min",
        [Variable("x1", CONTINUOUS, 0.0, 1.0),
         Variable("x2", CONTINUOUS, 0.0, 1.0)],
        [Constraint("cap", {0: 1.0, 1: 1.0}, -math.inf, 1.0)],
        {0: -1.0, 1: -1.0})
    ws = simplex.LpWorkspace(canonicalize(inst))
    basis = np.arange(ws.n, ws.n + ws.m, dtype=np.int64)
    vstat = np.empty(ws.n + ws.m, dtype=np.int8)
    vstat[:ws.n] = _kernels.AT_LOWER
    vstat[ws.n:] = _kernels.BASIC
    stale = simplex.WarmStart(basis, vstat)
    sol, _ = ws.solve(warm=stale)
    assert sol.status == simplex.OPTIMAL
    assert sol.objective == pytest.approx(-1.0)
    # the dual re-solve refused the basis; the primal core from it succeeded
    assert sol.fallbacks == 1


def test_warm_resolve_puts_free_variable_on_its_new_bound():
    """A free nonbasic sits at 0; once its upper bound becomes -1 the
    re-solve must not keep it there and call the LP optimal."""
    inst = MipInstance(
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


def _refuse(*args, **kwargs):
    raise AssertionError("this kernel must not run")


def test_cold_solve_takes_the_dual_path_on_every_class(monkeypatch):
    """Every generated class prices dual feasible from the cost-signed
    slack basis, so a cold solve never needs the primal core."""
    monkeypatch.setattr(_kernels, "simplex_core", _refuse)
    for problem, (preset, params) in TINY_SPECS.items():
        for seed in range(3):
            canon = canonicalize(generate(GenSpec(problem, preset,
                                                  params=params, seed=seed)))
            sol, _ = simplex.LpWorkspace(canon).solve()
            status, fun = highs_status(canon)
            assert status == 0, (problem, seed)
            assert sol.status == simplex.OPTIMAL, (problem, seed)
            assert sol.objective == pytest.approx(fun, abs=1e-7), \
                (problem, seed)
            assert sol.fallbacks == 0, (problem, seed)


def test_cold_dual_proves_boxed_lp_infeasible(monkeypatch):
    monkeypatch.setattr(_kernels, "simplex_core", _refuse)
    inst = MipInstance(
        "boxed", "min",
        [Variable("x1", CONTINUOUS, 0.0, 1.0),
         Variable("x2", CONTINUOUS, 0.0, 1.0)],
        [Constraint("cover", {0: 1.0, 1: 1.0}, 3.0, math.inf)],
        {0: 1.0, 1: 2.0})
    sol, _ = simplex.LpWorkspace(inst).solve()
    assert sol.status == simplex.INFEASIBLE
    assert sol.fallbacks == 0


def test_cost_toward_infinite_bound_goes_to_primal(monkeypatch):
    """c_j > 0 with lb = -inf: the slack basis is not dual feasible, so
    the solve starts in the primal core and counts no fallback."""
    monkeypatch.setattr(_kernels, "dual_core", _refuse)
    inst = MipInstance(
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


def test_cold_dual_failure_falls_back_to_primal(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular")

    monkeypatch.setattr(_kernels, "dual_core", singular)
    sol, _ = simplex.LpWorkspace(one_var_lp()).solve()
    assert sol.status == simplex.OPTIMAL
    assert sol.objective == pytest.approx(1.0)
    assert sol.fallbacks == 1


def prices_dual_feasible(ws, warm):
    """True when the basis of ``warm`` prices dual feasible: no nonbasic
    column could improve the objective by leaving its bound."""
    z = np.zeros(ws.n + ws.m)
    Binv = _kernels._factor(ws.G, ws.base_low, ws.base_upp, warm.basis,
                            warm.vstat, z)
    _, d = _kernels._price(ws.sparse, ws.c, warm.basis, Binv)
    return not _kernels._improving(warm.vstat, d, 1e-6).any()


def test_flips_that_absorb_the_violation_still_pivot():
    """x in [0, 1] must reach 1 + 5e-8: flipping x to its upper bound
    leaves less than the tolerance of the violation.  The dual kernel
    must pivot x in rather than end the round on the flip, which would
    leave x at its upper bound with reduced cost +1."""
    inst = MipInstance(
        "edge", "min",
        [Variable("x", CONTINUOUS, 0.0, 1.0)],
        [Constraint("row", {0: 1.0}, 1.0 + 5e-8, math.inf)], {0: 1.0})
    ws = simplex.LpWorkspace(inst)
    sol, warm = ws.solve()
    assert sol.status == simplex.OPTIMAL
    assert sol.fallbacks == 0
    assert sol.objective == pytest.approx(1.0, abs=1e-7)
    assert sol.var_status == [simplex.BASIC]
    assert prices_dual_feasible(ws, warm)


def test_dual_bland_rule_enters_at_the_smallest_ratio():
    """Row a: flipping x0 leaves 1e-12 of its violation, so x1 enters with
    a degenerate step and (bland_after=0) Bland's rule takes over.  Row b
    then has eligible columns x2 (ratio 5) and x3 (ratio 1): entering x2
    just because it comes first would leave x3 dual infeasible and stop
    at objective 3.5 instead of 1.5."""
    inst = MipInstance(
        "bland", "min",
        [Variable(f"x{j}", CONTINUOUS, 0.0, 1.0) for j in range(4)],
        [Constraint("a", {0: 1.0, 1: 1.0}, 1.0 + 1e-12, math.inf),
         Constraint("b", {2: 1.0, 3: 1.0}, 0.5, math.inf)],
        {0: 1.0, 1: 2.0, 2: 5.0, 3: 1.0})
    ws = simplex.LpWorkspace(inst)
    low, upp = ws.base_low.copy(), ws.base_upp.copy()
    basis, vstat = ws._signed_slack_start(low, upp)
    z = np.zeros(ws.n + ws.m)
    status, _, _, _ = _kernels.dual_core(
        ws.G, ws.sparse, ws.c, low, upp, basis, vstat, z, simplex.FEAS_TOL,
        simplex.PIVOT_TOL, ws.max_iter, 0, simplex.REFACTOR_EVERY)
    assert status == _kernels.OPTIMAL
    assert float(ws.c @ z) == pytest.approx(highs_status(inst)[1], abs=1e-7)
    assert float(ws.c @ z) == pytest.approx(1.5, abs=1e-7)
    assert prices_dual_feasible(ws, simplex.WarmStart(basis, vstat))


def test_dual_core_rechecks_prices_before_claiming_optimal():
    """Prices that went stale in the loop must not end in OPTIMAL.  The
    first pricing is skewed so that x1 (cost 2) looks cheaper than x0
    (cost 1) and enters; the fresh prices of the basis {x1} then make x0
    improving, so the kernel returns a non-final code and the solve
    falls back to the primal core for the true optimum 1."""
    inst = MipInstance(
        "stale", "min",
        [Variable(f"x{j}", CONTINUOUS, 0.0, 10.0) for j in range(2)],
        [Constraint("cover", {0: 1.0, 1: 1.0}, 1.0, math.inf)],
        {0: 1.0, 1: 2.0})
    real_price = _kernels._price
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
    with mock.patch.object(_kernels, "_price", price):
        status, _, _, _ = _kernels.dual_core(
            ws.G, ws.sparse, ws.c, low, upp, basis, vstat, z,
            simplex.FEAS_TOL, simplex.PIVOT_TOL, ws.max_iter, ws.bland_after,
            simplex.REFACTOR_EVERY)
    assert status == _kernels.NOT_DUAL_FEASIBLE
    assert list(basis) == [1]
    skewed.clear()
    with mock.patch.object(_kernels, "_price", price):
        sol, _ = ws.solve()
    assert sol.status == simplex.OPTIMAL
    assert sol.fallbacks == 1
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def _lapack_factor(G, low, upp, basis, vstat):
    """Basis inverse and basic point through ``np.linalg.inv``."""
    Binv = np.ascontiguousarray(np.linalg.inv(G[:, basis]))
    zn = np.where(vstat == _kernels.AT_LOWER, low,
                  np.where(vstat == _kernels.AT_UPPER, upp, 0.0))
    z = zn.copy()
    z[basis] = -np.dot(Binv, np.dot(G, zn))
    return Binv, z


def _random_factor_case(rng, m):
    n = int(rng.integers(1, 2 * m + 2))
    A = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.4)
    G = np.ascontiguousarray(np.hstack([A, -np.eye(m)]))
    low = rng.integers(-3, 1, n + m).astype(float)
    upp = low + rng.integers(0, 4, n + m)
    vstat = rng.integers(_kernels.AT_LOWER, _kernels.FREE + 1,
                         n + m).astype(np.int8)
    return n, G, low, upp, vstat


def _factor_counting_inv(monkeypatch, G, low, upp, basis, vstat):
    """``_factor`` output and the shapes ``np.linalg.inv`` was called on."""
    inv = np.linalg.inv
    calls = []

    def counting_inv(a):
        calls.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    z = np.zeros(G.shape[1])
    Binv = _kernels._factor(G, low, upp, basis, vstat, z)
    monkeypatch.setattr(np.linalg, "inv", inv)
    return Binv, z, calls


@pytest.mark.parametrize("m", [1, 5, 76])
def test_all_slack_factor_equals_lapack_bitwise(m, monkeypatch):
    rng = np.random.default_rng(m)
    for trial in range(4):
        n, G, low, upp, vstat = _random_factor_case(rng, m)
        order = np.arange(m) if trial == 0 else rng.permutation(m)
        basis = (n + order).astype(np.int64)
        vstat[basis] = _kernels.BASIC
        Binv, z, calls = _factor_counting_inv(monkeypatch, G, low, upp,
                                              basis, vstat)
        ref_Binv, ref_z = _lapack_factor(G, low, upp, basis, vstat)
        assert calls == [], trial
        assert Binv.tobytes() == ref_Binv.tobytes(), trial
        assert z.tobytes() == ref_z.tobytes(), trial


def test_basis_with_a_structural_is_inverted_by_lapack(monkeypatch):
    rng = np.random.default_rng(3)
    m = 5
    n, G, low, upp, vstat = _random_factor_case(rng, m)
    G[:, 0] = 1.0  # a column that makes any basis holding it nonsingular
    basis = np.array([0] + [n + i for i in range(1, m)], dtype=np.int64)
    vstat[basis] = _kernels.BASIC
    Binv, z, calls = _factor_counting_inv(monkeypatch, G, low, upp, basis,
                                          vstat)
    ref_Binv, ref_z = _lapack_factor(G, low, upp, basis, vstat)
    assert calls == [(m, m)]
    assert Binv.tobytes() == ref_Binv.tobytes()
    assert z.tobytes() == ref_z.tobytes()


def _close(got, want):
    """Equal within 1e-12 * max(1, |want|) entrywise."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("problem", sorted(TINY_SPECS))
def test_sparse_products_match_dense(problem):
    """Pivot row, entering column and bound-flip shift from the sparse
    block equal the dense products with ``G``, with and without the
    appended distance row, for structural and slack columns."""
    preset, params = TINY_SPECS[problem]
    canon = canonicalize(generate(GenSpec(problem, preset, params=params,
                                          seed=0)))
    ball = bnb.HammingBall(x_hat=np.ones(canon.n_vars),
                           S=canon.binary_indices()[::2], phi=1)
    rng = np.random.default_rng(7)
    for lp_inst in (canon, bnb._with_distance(canon, ball)[0]):
        ws = simplex.LpWorkspace(lp_inst)
        G, sp, N = ws.G, ws.sparse, ws.n + ws.m
        Binv = rng.standard_normal((ws.m, ws.m))
        for r in range(ws.m):
            _close(_kernels._row_times(sp, Binv[r]), Binv[r] @ G)
        for q in range(N):
            _close(_kernels._column(sp, Binv, q), Binv @ G[:, q])
        for size in (1, 3, N // 2, N):
            F = rng.choice(N, size=size, replace=False)
            dz = rng.standard_normal(size)
            dzF = np.zeros(N)
            dzF[F] = dz
            _close(_kernels._times(sp, dzF), G[:, F] @ dz)


# ---------------------------------------------------------------------------
# Property tests on random small LPs against HiGHS and against cold solves


def _bound(draw, finite_share):
    return draw(st.integers(-3, 3)) if draw(st.floats(0, 1)) < finite_share \
        else None


@st.composite
def small_lps(draw):
    """Random LPs with <=, >=, = and ranged rows and mixed bounds."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 5))
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
    return MipInstance("prop", "min", variables, constraints, c)


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
    sol = simplex.solve_lp(inst)
    status, fun = highs_status(inst)
    assert _STATUS_CODE[sol.status] == status
    if status == 0:
        assert sol.objective == pytest.approx(fun, abs=1e-7)


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
    variables = [Variable(v.name, v.vtype, float(lo), float(up))
                 for v, lo, up in zip(inst.variables, low, upp)]
    return MipInstance(inst.name, inst.sense, variables, inst.constraints,
                       inst.objective)


@PROPERTY
@given(small_lps())
def test_cold_dual_matches_primal_core(inst):
    """The cold solve (dual kernel from the cost-signed slack basis when
    that basis is dual feasible) agrees with the primal core run from
    ``_cold_start`` on the same bounds."""
    ws = simplex.LpWorkspace(inst)
    sol, warm = ws.solve()
    low, upp = ws.base_low.copy(), ws.base_upp.copy()
    if ws._signed_slack_start(low, upp) is not None:
        assert sol.fallbacks == 0  # the dual kernel gave the answer
    basis, vstat = ws._cold_start(low, upp)
    z = np.zeros(ws.n + ws.m)
    status, _, _, _ = _kernels.simplex_core(
        ws.G, ws.sparse, ws.c, low, upp, basis, vstat, z, simplex.FEAS_TOL,
        simplex.PIVOT_TOL, ws.max_iter, ws.bland_after,
        simplex.REFACTOR_EVERY)
    assert sol.status == simplex._STATUS_NAME[status]
    if status == _kernels.OPTIMAL:
        assert sol.objective == pytest.approx(float(ws.c @ z), abs=1e-7)
        assert prices_dual_feasible(ws, warm)


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
    start = ws._signed_slack_start(low, upp)
    assume(start is not None)
    basis, vstat = start
    z = np.zeros(ws.n + ws.m)
    calls = []
    real_factor, real_price = _kernels._factor, _kernels._price

    def factor(*args):
        Binv = real_factor(*args)
        calls.append(("factor", Binv))
        return Binv

    def price(sp, c, basis, Binv):
        calls.append(("price", Binv))
        return real_price(sp, c, basis, Binv)

    with mock.patch.object(_kernels, "_factor", factor), \
            mock.patch.object(_kernels, "_price", price):
        status, iters, _, d = _kernels.dual_core(
            ws.G, ws.sparse, ws.c, low, upp, basis, vstat, z,
            simplex.FEAS_TOL, simplex.PIVOT_TOL, ws.max_iter, ws.bland_after,
            refactor_every)

    assert status in (_kernels.OPTIMAL, _kernels.INFEASIBLE)
    hstatus, fun = highs_status(inst)
    assert _STATUS_CODE[simplex._STATUS_NAME[status]] == hstatus
    # every loop round but the last made a pivot
    pivots = iters - 1
    kinds = [kind for kind, _ in calls]
    assert kinds.count("factor") == 1 + pivots // refactor_every
    assert kinds[-1] == "price"
    for (kind, Binv), (after, priced) in zip(calls, calls[1:]):
        if kind == "factor":
            assert after == "price" and priced is Binv

    Binv = _kernels._factor(ws.G, low, upp, basis, vstat, z.copy())
    _, fresh = _kernels._price(ws.sparse, ws.c, basis, Binv)
    np.testing.assert_allclose(d, fresh, rtol=0.0, atol=1e-9)
    if status == _kernels.OPTIMAL:
        assert float(ws.c @ z) == pytest.approx(fun, abs=1e-7)
        assert prices_dual_feasible(ws, simplex.WarmStart(basis, vstat))
