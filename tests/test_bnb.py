"""Branch and bound: oracle equality, Hamming balls, root info."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from mippred import bnb, predictor, simplex
from mippred.core import (BINARY, CONTINUOUS, FEAS_TOL, INTEGER, Constraint,
                          MipInstance, RowArrays, Variable, canonicalize,
                          evaluate_solution, hamming_coeffs, row_arrays)
from mippred.generators import GenSpec, generate
from oracles import TINY_SPECS, brute_force_optimum, dict_walk


def binary_chain(n=3):
    """min -x1-...-xn over free binaries, no rows."""
    return MipInstance(
        "chain", "min",
        [Variable(f"x{j}", BINARY, 0.0, 1.0) for j in range(n)],
        [Constraint("cap", {j: 1.0 for j in range(n)}, -math.inf,
                    float(n))],
        {j: -1.0 for j in range(n)})


def test_mk_instance_against_enumeration():
    inst = generate(GenSpec("mk", "custom",
                            params={"min_items": 8, "max_items": 8,
                                    "min_dims": 2, "max_dims": 2},
                            seed=4))
    res = bnb.solve(inst)
    obj, _ = brute_force_optimum(inst)
    assert res.status == bnb.OPTIMAL
    assert res.objective == pytest.approx(obj, abs=1e-6)


def test_oracle_equivalence_sample():
    for problem in ("sc", "ga", "vrp"):
        preset, params = TINY_SPECS[problem]
        for seed in range(4):
            inst = generate(GenSpec(problem, preset, params=params,
                                    seed=seed))
            res = bnb.solve(inst)
            obj, _ = brute_force_optimum(inst)
            assert res.objective == pytest.approx(obj, abs=1e-6), \
                (problem, seed)


def test_integral_root_solves_in_one_node():
    inst = binary_chain(3)  # LP optimum is integral (all ones)
    res = bnb.solve(inst)
    assert res.status == bnb.OPTIMAL
    assert res.objective == pytest.approx(-3.0)
    assert res.nodes == 1


def test_contradictory_rows_infeasible():
    inst = MipInstance(
        "contra", "min",
        [Variable("x1", BINARY, 0.0, 1.0)],
        [Constraint("ge", {0: 1.0}, 1.0, math.inf),
         Constraint("le", {0: 1.0}, -math.inf, 0.0)],
        {0: 1.0})
    res = bnb.solve(inst)
    assert res.status == bnb.INFEASIBLE
    assert res.incumbent is None


def test_first_feasible_mode_stops_early():
    inst = generate(GenSpec("sc", "tiny", seed=1))
    res = bnb.solve(inst, bnb.BnbConfig(mode=bnb.FIRST_FEASIBLE))
    assert res.incumbent is not None
    assert res.incumbent.feasible
    assert evaluate_solution(inst, res.incumbent.values).feasible


def test_cut_row_expansion():
    inst = binary_chain(3)
    x_hat = [1.0, 0.0, 1.0]
    assert hamming_coeffs(x_hat, [0, 1, 2]) == {0: -1.0, 1: 1.0, 2: -1.0}
    aug, dist = bnb._with_distance(inst, bnb.HammingBall(x_hat, [0, 1, 2],
                                                         phi=1))
    row = aug.constraints[-1]
    # d = x1 + (1 - x0) + (1 - x2), kept as -x0 + x1 - x2 - d = -2
    assert row.coeffs == {0: -1.0, 1: 1.0, 2: -1.0, 3: -1.0}
    assert row.lhs == row.rhs == pytest.approx(-2.0)
    d = aug.variables[-1]
    assert (d.vtype, d.lb, d.ub) == (CONTINUOUS, 0.0, 1.0)  # ub(d) = phi
    for x in itertools.product((0.0, 1.0), repeat=3):
        assert dist(np.array(x)) == sum(abs(a - b) for a, b in zip(x, x_hat))


def test_cut_phi_zero_fixes_selection():
    rng = np.random.default_rng(3)
    for trial in range(20):
        inst = generate(GenSpec("sc", "tiny", seed=trial))
        bins = inst.binary_indices()
        size = int(rng.integers(1, len(bins) + 1))
        S = sorted(rng.choice(bins, size=size, replace=False).tolist())
        x_hat = np.zeros(inst.n_vars)
        x_hat[bins] = rng.integers(0, 2, size=len(bins))
        res = bnb.solve(inst, ball=bnb.HammingBall(x_hat, S, phi=0))
        fixed = MipInstance(inst.name, inst.sense,
                            list(inst.variables), inst.constraints,
                            inst.objective)
        for j in S:
            fixed.variables[j] = Variable(inst.variables[j].name, BINARY,
                                          x_hat[j], x_hat[j])
        obj, _ = brute_force_optimum(fixed)
        if obj is None:
            assert res.status == bnb.INFEASIBLE, trial
            continue
        assert res.status == bnb.OPTIMAL, trial
        assert res.objective == pytest.approx(obj, abs=1e-6), trial
        assert np.array_equal(res.incumbent.values[S], x_hat[S]), trial


def test_cut_empty_selection_is_noop():
    inst = generate(GenSpec("mk", "tiny", seed=2))
    plain = bnb.solve(inst)
    for exact in (False, True):
        res = bnb.solve(inst, ball=bnb.HammingBall(
            np.zeros(inst.n_vars), [], phi=0, exact=exact))
        assert res.objective == pytest.approx(plain.objective)
        assert res.nodes == plain.nodes


def test_cut_rejects_non_binary_index():
    inst = generate(GenSpec("tsp", "tiny", seed=0))
    cont = [j for j, v in enumerate(inst.variables)
            if v.vtype == CONTINUOUS]
    for exact in (False, True):
        with pytest.raises(ValueError, match="not a binary"):
            bnb.solve(inst, ball=bnb.HammingBall(
                np.zeros(inst.n_vars), [cont[0]], phi=1, exact=exact))


def test_root_branch_matches_plain_solve():
    rng = np.random.default_rng(11)
    for problem in ("sc", "mis", "cfl"):
        preset, params = TINY_SPECS[problem]
        inst = generate(GenSpec(problem, preset, params=params, seed=7))
        plain = bnb.solve(inst)
        bins = inst.binary_indices()
        z = rng.random(len(bins))
        x_hat = np.zeros(inst.n_vars)
        x_hat[bins] = (z >= 0.5).astype(float)
        for phi in (0, 1, 2):
            res = bnb.solve(inst, ball=bnb.HammingBall(x_hat, bins, phi,
                                                       exact=True))
            assert res.status == bnb.OPTIMAL, (problem, phi)
            assert res.objective == pytest.approx(plain.objective,
                                                  abs=1e-6), \
                (problem, phi)
            assert res.lower_bound == pytest.approx(res.objective,
                                                    abs=1e-6)
            assert len(res.incumbent.values) == inst.n_vars
            assert not res.heuristic


def test_root_branch_large_phi_equals_left_child():
    inst = generate(GenSpec("sc", "tiny", seed=5))
    bins = inst.binary_indices()
    x_hat = np.zeros(inst.n_vars)
    plain = bnb.solve(inst)
    # distance <= |S| always holds, so the far box (>= |S|+1) is empty
    # and the approximate search is not restricted either
    for exact in (False, True):
        res = bnb.solve(inst, ball=bnb.HammingBall(
            x_hat, bins, phi=len(bins), exact=exact))
        assert res.status == bnb.OPTIMAL
        assert res.objective == pytest.approx(plain.objective, abs=1e-6)


def test_root_branch_empty_selection():
    inst = generate(GenSpec("sc", "tiny", seed=6))
    res = bnb.solve(inst, ball=bnb.HammingBall(np.zeros(inst.n_vars), [],
                                               phi=0, exact=True))
    plain = bnb.solve(inst)
    assert res.status == bnb.OPTIMAL
    assert res.objective == pytest.approx(plain.objective, abs=1e-6)


def test_exact_equals_enumeration_on_every_class():
    rng = np.random.default_rng(5)
    for problem, (preset, params) in TINY_SPECS.items():
        for seed in range(2):
            inst = generate(GenSpec(problem, preset, params=params,
                                    seed=seed))
            obj, _ = brute_force_optimum(inst)
            z = rng.random(len(inst.binary_indices()))
            for phi, eta in ((0, 1.0), (2, 0.5)):
                res = predictor.exact_solve(
                    inst, z, predictor.ApplyConfig(phi=phi, eta=eta,
                                                   mode=predictor.EXACT))
                assert res.status == bnb.OPTIMAL, (problem, seed, phi)
                assert res.objective == pytest.approx(obj, rel=1e-6), \
                    (problem, seed, phi)
                assert evaluate_solution(inst,
                                         res.incumbent.values).feasible
    assert {generate(GenSpec(p, pre, params=par, seed=0)).sense
            for p, (pre, par) in TINY_SPECS.items()} == {"min", "max"}


def test_exact_shares_one_node_budget():
    inst = generate(GenSpec("sc", "custom",
                            params={"sets": 100, "elements": 75,
                                    "density": 0.06},
                            seed=0))
    z = np.random.default_rng(0).random(len(inst.binary_indices()))
    cfg = predictor.ApplyConfig(phi=5, eta=0.95, mode=predictor.EXACT,
                                solver=bnb.BnbConfig(node_limit=10))
    res = predictor.exact_solve(inst, z, cfg)
    assert res.nodes <= 10
    assert res.lb_history
    assert res.lower_bound <= res.lb_history[-1] + 1e-9


def test_max_instance_in_canonical_form_reports_min_sense():
    inst = canonicalize(generate(GenSpec("mis", "tiny", seed=1)))
    res = bnb.solve(inst)
    assert inst.sense == "min"
    assert res.status == bnb.OPTIMAL
    assert res.objective < 0.0
    assert res.lower_bound == pytest.approx(res.objective, abs=1e-9)


def test_lock_counts():
    inst = MipInstance(
        "locks", "min",
        [Variable("a", BINARY, 0.0, 1.0),
         Variable("b", BINARY, 0.0, 1.0),
         Variable("c", BINARY, 0.0, 1.0)],
        [Constraint("le", {0: 2.0}, -math.inf, 1.0),
         Constraint("eq", {2: 1.0}, 1.0, 1.0)],
        {0: 1.0, 1: 1.0, 2: 1.0})
    root = bnb.collect_root_info(inst)
    names = [v.name for v in root.instance.variables]
    a, c = names.index("a"), names.index("c")
    assert root.up_locks[a] == 1 and root.down_locks[a] == 0
    assert root.up_locks[c] == 1 and root.down_locks[c] == 1
    if "b" in names:  # absent from every row
        b = names.index("b")
        assert root.up_locks[b] == 0 and root.down_locks[b] == 0


def fixed_variable_instance():
    """x1 is fixed at 1: presolve drops it, shifts row a and drops row b."""
    return MipInstance(
        "fixed", "min",
        [Variable("x0", BINARY, 0.0, 1.0), Variable("x1", BINARY, 1.0, 1.0),
         Variable("x2", CONTINUOUS, 0.0, 4.0)],
        [Constraint("a", {0: 1.0, 1: 2.0, 2: -1.0}, 1.0, 5.0),
         Constraint("b", {1: 3.0}, -math.inf, 3.0)],
        {0: 1.0, 1: 1.0, 2: 1.0})


@pytest.mark.parametrize("problem", sorted(TINY_SPECS) + ["fixed"])
def test_root_rows_equal_row_arrays_of_presolved_instance(problem):
    if problem == "fixed":
        inst = fixed_variable_instance()
    else:
        preset, params = TINY_SPECS[problem]
        inst = generate(GenSpec(problem, preset, params=params, seed=0))
    root = bnb.collect_root_info(inst)
    want = row_arrays(root.instance)
    for field in RowArrays._fields:
        got, ref = getattr(root.rows, field), getattr(want, field)
        assert got.dtype == ref.dtype, field
        assert got.shape == ref.shape, field
        assert got.tobytes() == ref.tobytes(), field


def test_lower_bound_monotone_and_valid():
    for seed in range(5):
        inst = generate(GenSpec("mk", "tiny", seed=seed))
        res = bnb.solve(inst)
        hist = np.asarray(res.lb_history)
        assert np.all(np.diff(hist) >= -1e-9), seed
        # canonical min-sense bound never exceeds the min-sense optimum
        obj_min = -res.objective if inst.sense == "max" else res.objective
        assert hist[-1] <= obj_min + 1e-6, seed


def test_gap_limit_certifies_optimality():
    inst = generate(GenSpec("sc", "tiny", seed=3))
    res = bnb.solve(inst)
    assert res.status == bnb.OPTIMAL
    assert abs(res.objective - res.lower_bound) <= \
        1e-9 * (1.0 + abs(res.objective)) + 1e-9


def test_node_limit_reported():
    inst = generate(GenSpec("tsp", "tiny", seed=2))
    res = bnb.solve(inst, bnb.BnbConfig(node_limit=1))
    assert res.nodes <= 1
    assert res.status in (bnb.OPTIMAL, bnb.LIMIT_REACHED, bnb.FEASIBLE)


def test_solve_deterministic():
    inst = generate(GenSpec("vrp", "tiny", seed=8))
    a = bnb.solve(inst)
    b = bnb.solve(inst)
    assert a.objective == b.objective
    assert a.nodes == b.nodes
    assert np.array_equal(a.incumbent.values, b.incumbent.values)


def cycle_cover(n=5):
    """min sum x over binaries with x_i + x_{i+1} >= 1 around a cycle.

    For odd n the LP optimum is all one-halves, so every node is
    fractional and any integral point must come from rounding.
    """
    return MipInstance(
        "cycle", "min",
        [Variable(f"x{j}", BINARY, 0.0, 1.0) for j in range(n)],
        [Constraint(f"e{i}", {i: 1.0, (i + 1) % n: 1.0}, 1.0, math.inf)
         for i in range(n)],
        {j: 1.0 for j in range(n)})


def test_rounding_probe_feasible_at_fractional_root():
    inst = cycle_cover(5)
    res = bnb.solve(inst, bnb.BnbConfig(mode=bnb.FIRST_FEASIBLE))
    assert res.nodes == 1  # snapped from the root LP, no branching
    assert res.status == bnb.FEASIBLE
    assert evaluate_solution(inst, res.incumbent.values).feasible
    assert res.objective == pytest.approx(5.0)  # halves round to all ones


def test_cycle_cover_optimum_with_probes():
    inst = cycle_cover(5)
    res = bnb.solve(inst)
    obj, _ = brute_force_optimum(inst)
    assert res.status == bnb.OPTIMAL
    assert res.objective == pytest.approx(obj, abs=1e-6)
    assert res.objective == pytest.approx(3.0)


def test_repaired_probe_beats_blanket_cover():
    # LP values sit well below one-half here, so plain rounding gives an
    # infeasible zero vector and ceiling gives the everything cover; the
    # repaired probe should land far below the latter
    inst = generate(GenSpec("sc", "custom",
                            params={"sets": 40, "elements": 30,
                                    "density": 0.15},
                            seed=2))
    res = bnb.solve(inst, bnb.BnbConfig(mode=bnb.FIRST_FEASIBLE))
    assert res.nodes == 1
    assert evaluate_solution(inst, res.incumbent.values).feasible
    total = sum(inst.objective.values())
    assert res.objective < 0.7 * total


def instance_rows(inst):
    canon = canonicalize(inst)
    return bnb._Rows(canon, simplex.LpWorkspace(canon))


@pytest.mark.parametrize("problem", sorted(TINY_SPECS))
def test_workspace_and_repair_rows_equal_dict_walk(problem):
    # with and without the appended distance row, which the repair rows
    # leave out
    preset, params = TINY_SPECS[problem]
    canon = canonicalize(generate(GenSpec(problem, preset, params=params,
                                          seed=0)))
    ball = bnb.HammingBall(x_hat=np.ones(canon.n_vars),
                           S=canon.binary_indices()[::2], phi=1)
    _, _, _, _, int_terms, col_terms = dict_walk(canon)
    rng = np.random.default_rng(5)
    for lp_inst in (canon, bnb._with_distance(canon, ball)[0]):
        ws = simplex.LpWorkspace(lp_inst)
        G, c, low, upp, _, _ = dict_walk(lp_inst)
        sp, n, m = ws.sparse, ws.n, ws.m
        dense = np.zeros((m, n + m))
        dense[sp.rid, sp.cols] = sp.vals
        dense[np.arange(m), n + np.arange(m)] = -1.0
        for got, want in ((dense, G), (ws.c, c), (ws.base_low, low),
                          (ws.base_upp, upp)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        rows = bnb._Rows(canon, ws)
        assert rows.int_terms == int_terms
        assert rows.col_terms == col_terms
        m0, n0 = len(canon.constraints), canon.n_vars
        x = rng.standard_normal(n0)
        np.testing.assert_allclose(rows.activities(x), G[:m0, :n0] @ x,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(rows.l1, np.abs(G[:m0, :n0]).sum(axis=1),
                                   rtol=1e-12)
        np.testing.assert_array_equal(
            rows.lhs, [con.lhs for con in canon.constraints])
        np.testing.assert_array_equal(
            rows.rhs, [con.rhs for con in canon.constraints])


def _held_arrays(obj):
    """Every numpy array an object holds as an attribute, directly or in a
    named tuple (``RowArrays``, ``SparseBlock``)."""
    for value in vars(obj).values():
        parts = value if isinstance(value, tuple) else (value,)
        yield from (a for a in parts if isinstance(a, np.ndarray))


def test_no_dense_matrix_on_a_row_heavy_instance():
    """mis small has m = 1799 rows over n = 125 columns and about two
    entries per row; nothing the workspace or the repair rows hold grows
    with m * n."""
    canon = canonicalize(generate(GenSpec("mis", "small", seed=0)))
    ws = simplex.LpWorkspace(canon)
    rows = bnb._Rows(canon, ws)
    n, m, nnz = ws.n, ws.m, len(ws.rows.cols)
    assert (n, m) == (125, 1799)
    for obj in (ws, rows):
        sizes = [a.size for a in _held_arrays(obj)]
        assert sizes and max(sizes) <= 4 * (nnz + n + m), type(obj)


def test_repair_rows_skip_zero_and_continuous_terms():
    inst = MipInstance(
        "terms", "min",
        [Variable("x", BINARY, 0.0, 1.0), Variable("k", INTEGER, 0.0, 3.0),
         Variable("f", CONTINUOUS, 0.0, 2.0)],
        [Constraint("r0", {2: 1.0, 1: 0.0, 0: -2.0}, -math.inf, 1.0),
         Constraint("r1", {1: 1.0, 2: 4.0}, 1.0, 1.0)],
        {0: 1.0, 1: 1.0, 2: 1.0})
    rows = bnb._Rows(inst, simplex.LpWorkspace(inst))
    _, _, _, _, int_terms, col_terms = dict_walk(inst)
    assert rows.int_terms == int_terms == [[(0, -2.0)], [(1, 1.0)]]
    assert rows.col_terms == col_terms
    assert col_terms[1] == [(0, 0.0), (1, 1.0)]


def test_repair_walks_toward_lp_preference():
    inst = MipInstance(
        "rep", "min",
        [Variable(f"x{j}", BINARY, 0.0, 1.0) for j in range(3)],
        [Constraint("r0", {0: 1.0, 1: 1.0}, 1.0, math.inf),
         Constraint("r1", {1: 1.0, 2: 1.0}, 1.0, math.inf)],
        {j: 1.0 for j in range(3)})
    lp_x = np.array([0.2, 0.9, 0.1])
    x_cand = np.zeros(3)
    ok = bnb._repair_rounding(instance_rows(inst), lp_x, x_cand,
                              np.zeros(3), np.ones(3))
    assert ok
    # one step on the variable both rows share, the LP favourite
    assert x_cand.tolist() == [0.0, 1.0, 0.0]


def test_repair_reports_failure_when_out_of_room():
    inst = MipInstance(
        "hopeless", "min",
        [Variable("x", BINARY, 0.0, 1.0)],
        [Constraint("big", {0: 1.0}, 3.0, math.inf)],
        {0: 1.0})
    x_cand = np.zeros(1)
    ok = bnb._repair_rounding(instance_rows(inst), np.array([0.9]), x_cand,
                              np.zeros(1), np.ones(1))
    assert not ok


def tight_copy(inst, x):
    """``inst`` with every finite row side moved onto the activity of x."""
    constraints = []
    for con in inst.constraints:
        act = sum(a * x[j] for j, a in con.coeffs.items())
        constraints.append(replace(
            con, lhs=act if math.isfinite(con.lhs) else con.lhs,
            rhs=act if math.isfinite(con.rhs) else con.rhs))
    return replace(inst, constraints=constraints)


def edge_points(inst, x):
    """Points whose activity on one row sits on a side of the row, or
    just inside, at, or just outside its FEAS_TOL band; the row's
    largest-coefficient variable moves."""
    for con in inst.constraints:
        j, a = max(con.coeffs.items(), key=lambda item: abs(item[1]))
        act = sum(coef * x[k] for k, coef in con.coeffs.items())
        for bound, outward in ((con.lhs, -1.0), (con.rhs, 1.0)):
            if not math.isfinite(bound):
                continue
            for off in (-1.0, 0.0, 0.999, 1.0, 1.001):
                y = x.copy()
                y[j] += (bound + outward * off * FEAS_TOL - act) / a
                yield y


def test_row_screen_keeps_every_point_evaluate_accepts():
    # max-sense knapsacks, and the equality rows of facility location and
    # tsp; every row side is moved onto the optimum so that it is active
    for problem in ("mk", "cfl", "tsp"):
        preset, params = TINY_SPECS[problem]
        for seed in range(3):
            orig = generate(GenSpec(problem, preset, params=params,
                                    seed=seed))
            x = bnb.solve(orig).incumbent.values
            for inst in (orig, tight_copy(orig, x)):
                rows = instance_rows(inst)
                accepted = 0
                for y in edge_points(inst, x):
                    if evaluate_solution(inst, y).feasible:
                        accepted += 1
                        assert rows.may_hold(y), (problem, seed)
            assert accepted > len(inst.constraints), (problem, seed)
    assert generate(GenSpec("mk", "tiny", seed=0)).sense == "max"
    assert any(con.lhs == con.rhs for con in
               generate(GenSpec("tsp", *TINY_SPECS["tsp"], seed=0)).constraints)


def test_row_screen_rejects_a_clear_row_violation():
    inst = generate(GenSpec("cfl", "tiny", seed=0))
    rows = instance_rows(inst)
    x = bnb.solve(inst).incumbent.values
    assert rows.may_hold(x)
    con = next(con for con in inst.constraints if con.lhs == con.rhs)
    j = next(iter(con.coeffs))
    y = x.copy()
    y[j] += 1e-3 / con.coeffs[j]
    assert not rows.may_hold(y)
    assert not evaluate_solution(inst, y).feasible


def test_solve_sums_lp_pivots_and_fallbacks(monkeypatch):
    seen = []
    solve_lp = simplex.LpWorkspace.solve

    def recording(self, *args):
        out = solve_lp(self, *args)
        seen.append(out[0])
        return out

    monkeypatch.setattr(simplex.LpWorkspace, "solve", recording)
    res = bnb.solve(generate(GenSpec("sc", "custom",
                                     params={"sets": 40, "elements": 30,
                                             "density": 0.15},
                                     seed=2)))
    assert res.nodes == len(seen) > 1
    assert res.lp_pivots == sum(lp.iterations for lp in seen) > 0
    assert res.lp_fallbacks == sum(lp.fallbacks for lp in seen)
