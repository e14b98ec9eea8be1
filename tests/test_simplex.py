"""LP solver: spot solutions, strong duality, and an external cross-check."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from mippred import _kernels, simplex
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
        if csol.status != simplex.OPTIMAL:
            break
        assert wsol.objective == pytest.approx(csol.objective, abs=1e-7)
        warm = wwarm
