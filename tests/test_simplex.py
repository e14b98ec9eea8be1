"""LP solver: spot solutions, strong duality, and an external cross-check."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
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


def test_numpy_fallback_matches_numba():
    """The interpreted kernel path returns bitwise-identical results."""
    snippet = (
        "from mippred import simplex\n"
        "from mippred.core import canonicalize\n"
        "from mippred.generators import GenSpec, generate\n"
        "import mippred._kernels as k\n"
        "assert k.ACTIVE_PATH == 'numpy'\n"
        "for problem in ('sc', 'cfl', 'tsp'):\n"
        "    inst = canonicalize(generate(GenSpec(problem, 'tiny', seed=3)))\n"
        "    sol = simplex.solve_lp(inst)\n"
        "    print(repr(sol.objective), sol.iterations)\n"
    )
    env = dict(os.environ, MIPPRED_NO_NUMBA="1")
    out = subprocess.run([sys.executable, "-c", snippet], env=env,
                         capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    for problem, line in zip(("sc", "cfl", "tsp"), lines):
        inst = canonicalize(generate(GenSpec(problem, "tiny", seed=3)))
        sol = simplex.solve_lp(inst)
        obj_text, iters_text = line.split()
        assert repr(sol.objective) == obj_text, problem
        assert sol.iterations == int(iters_text), problem


def _warm_resolve_probe():
    """Root solve plus one warm re-solve; returns (objective, iterations)."""
    params = {"sets": 40, "elements": 30, "density": 0.2}
    canon = canonicalize(generate(GenSpec("sc", "custom", params=params,
                                          seed=3)))
    ws = simplex.LpWorkspace(canon)
    sol, warm = ws.solve()
    frac = np.minimum(sol.x - np.floor(sol.x), np.ceil(sol.x) - sol.x)
    upp = ws.base_upp[:ws.n].copy()
    upp[int(np.argmax(frac))] = 0.0
    wsol, _ = ws.solve(None, upp, warm)
    return wsol.objective, wsol.iterations


def test_numpy_fallback_matches_numba_warm_resolve():
    """Both kernel paths agree on re-solves to solver tolerance.

    Unlike the cold path this cannot be bitwise: the re-solve starts by
    inverting a non-trivial basis, and the two paths use different
    inversion routines whose last-ulp differences can reorder later
    pivots.  The optimum they land on must still match.
    """
    snippet = (
        "import mippred._kernels as k\n"
        "assert k.ACTIVE_PATH == 'numpy'\n"
        "import test_simplex\n"
        "obj, iters = test_simplex._warm_resolve_probe()\n"
        "print(repr(obj), iters)\n"
    )
    env = dict(os.environ, MIPPRED_NO_NUMBA="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(__file__), env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", snippet], env=env,
                         capture_output=True, text=True, check=True)
    obj_text, _ = out.stdout.split()
    obj, _ = _warm_resolve_probe()
    assert obj == pytest.approx(float(obj_text), abs=1e-7)
