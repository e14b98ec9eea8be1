"""Branch and bound: oracle equality, Hamming balls, root info."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mippred import bnb, labeler, predictor, simplex, trigraph
from mippred.core import (BINARY, CONTINUOUS, FEAS_TOL, INT_TOL, INTEGER,
                          Constraint, MipInstance, Variable, canonicalize,
                          evaluate_solution, hamming_coeffs)
from mippred.generators import GenSpec, generate
from oracles import TINY_SPECS, brute_force_optimum, dict_walk, milp_optimum


def binary_chain(n=3):
    """min -x1-...-xn over free binaries, no rows."""
    return MipInstance.from_constraints(
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
    inst = MipInstance.from_constraints(
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
    assert hamming_coeffs(x_hat, [0, 2]).tolist() == [-1.0, 0.0, -1.0]
    assert hamming_coeffs(x_hat, [0, 1, 2]).tolist() == [-1.0, 1.0, -1.0]
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
        fixed = replace(inst, lb=inst.lb.copy(), ub=inst.ub.copy())
        fixed.lb[S] = fixed.ub[S] = x_hat[S]
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


def test_exact_closes_the_near_box_before_the_far_box(monkeypatch):
    """Each node LP of an exact solve, read by its bounds on ``d``: the
    first one is the near box's root, and after the far root no far-box
    node is solved while a near-box node waits to be solved."""
    boxes = []  # per node LP: whether it lies in the far box
    solve_lp = simplex.LpWorkspace.solve

    def recording(self, low, upp, warm):
        boxes.append(low[-1] > phi)
        return solve_lp(self, low, upp, warm)

    monkeypatch.setattr(simplex.LpWorkspace, "solve", recording)
    near_after_far_root = 0
    for problem, (preset, params) in sorted(TINY_SPECS.items()):
        for seed in range(3):
            inst = generate(GenSpec(problem, preset, params=params,
                                    seed=seed))
            bins = inst.binary_indices()
            x_hat = np.zeros(inst.n_vars)
            x_hat[bins[::2]] = 1.0
            for phi in (0, 1, 2):
                boxes.clear()
                res = bnb.solve(inst, ball=bnb.HammingBall(x_hat, bins, phi,
                                                           exact=True))
                assert res.status == bnb.OPTIMAL
                near = [i for i, far in enumerate(boxes) if not far]
                far = [i for i, far in enumerate(boxes) if far]
                assert near[0] == 0
                if len(far) > 1:
                    assert near[-1] < far[1], (problem, seed, phi, boxes)
                    near_after_far_root += near[-1] > far[0]
    assert near_after_far_root > 0


def test_max_instance_in_canonical_form_reports_min_sense():
    inst = canonicalize(generate(GenSpec("mis", "tiny", seed=1)))
    res = bnb.solve(inst)
    assert inst.sense == "min"
    assert res.status == bnb.OPTIMAL
    assert res.objective < 0.0
    assert res.lower_bound == pytest.approx(res.objective, abs=1e-9)


def test_lock_counts():
    inst = MipInstance.from_constraints(
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
    b = names.index("b")  # absent from every row
    assert root.up_locks[b] == 0 and root.down_locks[b] == 0


def fixed_variable_instance(b_rhs=3.0):
    """x1 is fixed at 1 by its bounds; row b reads ``3 x1 <= b_rhs``."""
    return MipInstance.from_constraints(
        "fixed", "min",
        [Variable("x0", BINARY, 0.0, 1.0), Variable("x1", BINARY, 1.0, 1.0),
         Variable("x2", CONTINUOUS, 0.0, 4.0)],
        [Constraint("a", {0: 1.0, 1: 2.0, 2: -1.0}, 1.0, 5.0),
         Constraint("b", {1: 3.0}, -math.inf, b_rhs)],
        {0: 1.0, 1: 1.0, 2: 1.0})


def zero_row_instance():
    """One binary and the row ``0 x0 >= 1``, which no point meets."""
    return MipInstance.from_constraints(
        "zero_row", "min", [Variable("x0", BINARY, 0.0, 1.0)],
        [Constraint("never", {0: 0.0}, 1.0, math.inf)], {0: 1.0})


@pytest.mark.parametrize("inst", [fixed_variable_instance(b_rhs=2.0),
                                  zero_row_instance()],
                         ids=["fixed_over_rhs", "zero_row"])
def test_root_pass_reports_infeasible_rows_of_fixed_or_zero_entries(inst):
    """A row whose entries are all fixed or zero still holds at the root:
    its status agrees with ``solve_lp`` and the search, and no graph is
    built from it."""
    root = bnb.collect_root_info(inst)
    assert root.lp.status == simplex.INFEASIBLE
    assert simplex.solve_lp(inst).status == simplex.INFEASIBLE
    assert bnb.solve(inst).status == bnb.INFEASIBLE
    with pytest.raises(ValueError, match="relaxation"):
        trigraph.build_trigraph(inst, root)


def test_root_pass_keeps_fixed_variables():
    inst = fixed_variable_instance()
    root = bnb.collect_root_info(inst)
    assert root.lp.status == simplex.OPTIMAL
    assert root.lp.objective == simplex.solve_lp(inst).objective
    assert root.objective_offset == 0.0
    assert root.instance.var_names == ["x0", "x1", "x2"]
    assert root.instance.row_names == ["a", "b"]
    graph = trigraph.build_trigraph(inst, root)
    assert graph.var_names == ["x0", "x1"]


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


@pytest.mark.parametrize("spec", [
    GenSpec("sc", "custom", {"sets": 40, "elements": 30, "density": 0.12},
            seed=10),
    GenSpec("mk", "tiny", seed=0)], ids=["sc", "mk"])
def test_unproved_integral_bound_rounds_to_the_next_integer(spec):
    """Two nodes leave these solves unproved with a fractional LP bound
    (6.5 on the set cover, 340.41 on the max-sense knapsack); with every
    objective value an integer the next integer is reported instead,
    recorded last in the canonical history and still valid for HiGHS's
    optimum (7 and 297)."""
    inst = generate(spec)
    res = bnb.solve(inst, bnb.BnbConfig(node_limit=2))
    assert res.status == bnb.FEASIBLE
    sign = -1.0 if inst.sense == "max" else 1.0
    lb, before = sign * res.lower_bound, res.lb_history[-2]
    assert lb == res.lb_history[-1] == math.ceil(before) > before
    status, opt = milp_optimum(inst)
    assert status == 0 and lb <= sign * opt
    assert (res.lower_bound, opt) == ((7.0, 7.0) if sign > 0 else (340.0, 297.0))


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
    return MipInstance.from_constraints(
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
    total = inst.c.sum()
    assert res.objective < 0.7 * total


def instance_rows(inst):
    canon = canonicalize(inst)
    return bnb._Rows(canon)


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
        rows = bnb._Rows(canon)
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
    rows = bnb._Rows(canon)
    n, m, nnz = ws.n, ws.m, len(canon.rows.cols)
    assert (n, m) == (125, 1799)
    for obj in (ws, rows):
        sizes = [a.size for a in _held_arrays(obj)]
        assert sizes and max(sizes) <= 4 * (nnz + n + m), type(obj)


def test_repair_rows_skip_zero_and_continuous_terms():
    inst = MipInstance.from_constraints(
        "terms", "min",
        [Variable("x", BINARY, 0.0, 1.0), Variable("k", INTEGER, 0.0, 3.0),
         Variable("f", CONTINUOUS, 0.0, 2.0)],
        [Constraint("r0", {2: 1.0, 1: 0.0, 0: -2.0}, -math.inf, 1.0),
         Constraint("r1", {1: 1.0, 2: 4.0}, 1.0, 1.0)],
        {0: 1.0, 1: 1.0, 2: 1.0})
    rows = bnb._Rows(inst)
    _, _, _, _, int_terms, col_terms = dict_walk(inst)
    assert rows.int_terms == int_terms == [[(0, -2.0)], [(1, 1.0)]]
    assert rows.col_terms == col_terms
    assert col_terms[1] == [(0, 0.0), (1, 1.0)]


def test_repair_walks_toward_lp_preference():
    inst = MipInstance.from_constraints(
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
    inst = MipInstance.from_constraints(
        "hopeless", "min",
        [Variable("x", BINARY, 0.0, 1.0)],
        [Constraint("big", {0: 1.0}, 3.0, math.inf)],
        {0: 1.0})
    x_cand = np.zeros(1)
    ok = bnb._repair_rounding(instance_rows(inst), np.array([0.9]), x_cand,
                              np.zeros(1), np.ones(1))
    assert not ok


def reference_repair(rows, lp_x, x_cand, low0, upp0):
    """``bnb._repair_rounding`` without its stop at a repeated pass
    start: (verdict, whether some pass started where an earlier one
    did)."""
    acts = rows.activities(x_cand)
    lo = rows.lhs - INT_TOL
    hi = rows.rhs + INT_TOL
    if not ((acts < lo) | (acts > hi)).any():
        return False, False
    acts, lo, hi = acts.tolist(), lo.tolist(), hi.tolist()
    x, lpx = x_cand.tolist(), lp_x.tolist()
    low, upp = low0.tolist(), upp0.tolist()
    flips, cap, passes = 0, 2 * len(x_cand) + 10, 0
    starts, cycled = set(), False
    changed = True
    while changed and flips < cap and passes < 50:
        start = (tuple(x), tuple(acts))
        cycled = cycled or start in starts
        starts.add(start)
        changed = False
        passes += 1
        for i, terms in enumerate(rows.int_terms):
            if lo[i] <= acts[i] <= hi[i]:
                continue
            need_up = acts[i] < lo[i]
            best_j, best_key, best_up = -1, -np.inf, need_up
            for j, a in terms:
                up = (a > 0.0) == need_up
                room = (upp[j] - x[j]) if up else (x[j] - low[j])
                if room < 1.0:
                    continue
                key = lpx[j] if up else -lpx[j]
                if key > best_key:
                    best_key, best_j, best_up = key, j, up
            if best_j < 0:
                continue
            step = 1.0 if best_up else -1.0
            x[best_j] += step
            for i2, a2 in rows.col_terms[best_j]:
                acts[i2] += a2 * step
            flips += 1
            changed = True
            if flips >= cap:
                break
    x_cand[:] = x
    ok = not any(a < lo_i or a > hi_i for lo_i, a, hi_i in zip(lo, acts, hi))
    return ok, cycled


def checked_repairs(monkeypatch, run):
    """Call ``run()`` with every repair checked against
    ``reference_repair``: the same verdict and, when it holds, the same
    repaired point.  Returns (repairs, repairs that cycled)."""
    seen = {"calls": 0, "cycled": 0}
    repair = bnb._repair_rounding

    def checked(rows, lp_x, x_cand, low0, upp0):
        x_ref = x_cand.copy()
        ref_ok, cycled = reference_repair(rows, lp_x, x_ref, low0, upp0)
        ok = repair(rows, lp_x, x_cand, low0, upp0)
        assert ok == ref_ok
        if ok:
            assert x_cand.tobytes() == x_ref.tobytes()
        seen["calls"] += 1
        seen["cycled"] += cycled
        return ok

    with monkeypatch.context() as mp:
        mp.setattr(bnb, "_repair_rounding", checked)
        run()
    return seen["calls"], seen["cycled"]


@pytest.mark.parametrize("problem", sorted(TINY_SPECS))
def test_repair_stops_cycles_with_the_reference_verdicts(monkeypatch,
                                                         problem):
    preset, params = TINY_SPECS[problem]
    insts = [generate(GenSpec(problem, preset, seed=s, params=params))
             for s in range(3)]
    calls, _ = checked_repairs(
        monkeypatch, lambda: [bnb.solve(inst) for inst in insts])
    assert calls > 0


def test_repair_stops_cycles_on_proximity_problems(monkeypatch):
    # max-sense knapsacks: the proximity cutoff row works against the
    # knapsack rows, and many repairs of these problems cycle
    inst = generate(GenSpec("mk", "custom", seed=0, params={
        "min_items": 20, "max_items": 20, "min_dims": 5, "max_dims": 5}))
    calls, cycled = checked_repairs(
        monkeypatch, lambda: labeler.generate_labels(inst))
    assert cycled > 0
    assert calls > cycled


def tight_copy(inst, x):
    """``inst`` with every finite row side moved onto the activity of x."""
    constraints = []
    for con in inst.constraints:
        act = sum(a * x[j] for j, a in con.coeffs.items())
        constraints.append(replace(
            con, lhs=act if math.isfinite(con.lhs) else con.lhs,
            rhs=act if math.isfinite(con.rhs) else con.rhs))
    return MipInstance.from_constraints(inst.name, inst.sense, inst.variables,
                                        constraints, dict(enumerate(inst.c)))


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


def _small_sc():
    return generate(GenSpec("sc", "custom",
                            params={"sets": 40, "elements": 30,
                                    "density": 0.15},
                            seed=2))


def _node_lps(monkeypatch):
    """Per node LP of one ``bnb.solve`` on a small set cover: (kind, the
    ``since_refactor`` of the state it starts from or None, its
    ``simplex._factor`` calls, its LpSolution).  kind is "root", "plunge"
    for a node given the snapshot the previous LP returned, else
    "parked"."""
    factors = []
    real_factor = simplex._factor

    def counting(*args):
        factors.append(1)
        return real_factor(*args)

    nodes = []
    last = [None]
    solve_lp = simplex.LpWorkspace.solve

    def recording(self, low, upp, warm):
        state = warm.state if warm is not None else None
        since = state.since_refactor if state is not None else None
        kind = ("root" if warm is None
                else "plunge" if warm is last[0] else "parked")
        factors.clear()
        out = solve_lp(self, low, upp, warm)
        nodes.append((kind, since, len(factors), out[0]))
        last[0] = out[1]
        return out

    with monkeypatch.context() as mp:
        mp.setattr(simplex, "_factor", counting)
        mp.setattr(simplex.LpWorkspace, "solve", recording)
        res = bnb.solve(_small_sc())
    assert res.nodes == len(nodes)
    return nodes


def test_parked_nodes_resume_unless_the_cap_is_reached(monkeypatch):
    """``simplex._factor`` calls per node LP over a tree search.  Plunge
    children and parked nodes both resume from a carried state and
    refactorize only where the shared pivot count passes REFACTOR_EVERY;
    with ``STATE_BYTES_CAP`` at 0 a parked node carries no state and
    refactorizes its basis, while plunge children still resume."""
    nodes = _node_lps(monkeypatch)
    resumed = [nd for nd in nodes if nd[0] != "root"]
    assert [nd[0] for nd in nodes].count("root") == 1
    assert any(nd[0] == "parked" for nd in resumed)
    for _, since, n_factor, lp in resumed:
        assert since is not None and lp.fallbacks == 0
        assert n_factor == (since + lp.iterations) // simplex.REFACTOR_EVERY
    assert sum(nd[2] for nd in resumed) < len(resumed)

    monkeypatch.setattr(bnb, "STATE_BYTES_CAP", 0)
    capped = _node_lps(monkeypatch)
    parked = [nd for nd in capped if nd[0] == "parked"]
    plunged = [nd for nd in capped if nd[0] == "plunge"]
    assert parked and plunged
    for _, since, n_factor, _ in parked:
        assert since is None and n_factor >= 1
    for _, since, n_factor, lp in plunged:
        assert since is not None
        assert n_factor == (since + lp.iterations) // simplex.REFACTOR_EVERY


def _cap_instance():
    """A facility location whose tree parks dozens of nodes at once.  Its
    costs sit on continuous flows, so the integral-objective cutoff
    leaves its tree alone."""
    return generate(GenSpec("cfl", "small", seed=0))


def test_parked_state_bytes_stay_within_the_cap(monkeypatch):
    """With a cap of a few states, the state copies held in the heap never
    pass it, measured at every push; some parked nodes still get a copy
    and some are refused one."""
    state_bytes = []
    solve_lp = simplex.LpWorkspace.solve

    def sizing(self, *args):
        out = solve_lp(self, *args)
        if out[1].state is not None:
            state_bytes.append(out[1].state.nbytes)
        return out

    with monkeypatch.context() as mp:
        mp.setattr(simplex.LpWorkspace, "solve", sizing)
        bnb.solve(_cap_instance())
    assert len(set(state_bytes)) == 1
    cap = 3 * state_bytes[0] + state_bytes[0] // 2
    monkeypatch.setattr(bnb, "STATE_BYTES_CAP", cap)

    held, with_state, without = [], [], []
    push = bnb.heapq.heappush

    def watching(heap, entry):
        push(heap, entry)
        warm = entry[2].warm
        (with_state if warm.state is not None else without).append(1)
        held.append(sum(nd.warm.state.nbytes for *_, nd in heap
                        if nd.warm is not None and nd.warm.state is not None))

    with monkeypatch.context() as mp:
        mp.setattr(bnb.heapq, "heappush", watching)
        bnb.solve(_cap_instance())
    assert with_state and without
    assert max(held) <= cap
    assert max(held) > 2 * state_bytes[0]


def test_parked_state_bytes_stay_within_the_cap_with_an_exact_ball(
        monkeypatch):
    """As above for an exact solve, with the held copies summed over the
    heaps of both rings; the ring-1 heap holds copies too."""
    inst = _cap_instance()
    ball = bnb.HammingBall(np.ones(inst.n_vars), inst.binary_indices(), 2,
                           exact=True)
    state_bytes = []
    solve_lp = simplex.LpWorkspace.solve

    def sizing(self, *args):
        out = solve_lp(self, *args)
        if out[1].state is not None:
            state_bytes.append(out[1].state.nbytes)
        return out

    with monkeypatch.context() as mp:
        mp.setattr(simplex.LpWorkspace, "solve", sizing)
        bnb.solve(inst, ball=ball)
    assert len(set(state_bytes)) == 1
    cap = 3 * state_bytes[0] + state_bytes[0] // 2
    monkeypatch.setattr(bnb, "STATE_BYTES_CAP", cap)

    heaps, held, with_state, without = {}, [], [], []
    push = bnb.heapq.heappush

    def watching(heap, entry):
        push(heap, entry)
        heaps.setdefault(id(heap), heap)
        warm = entry[2].warm
        # the far root is pushed before the root LP it starts from
        if warm is not None:
            (with_state if warm.state is not None
             else without).append(list(heaps).index(id(heap)))
        held.append(sum(nd.warm.state.nbytes
                        for h in heaps.values() for *_, nd in h
                        if nd.warm is not None and nd.warm.state is not None))

    with monkeypatch.context() as mp:
        mp.setattr(bnb.heapq, "heappush", watching)
        bnb.solve(inst, ball=ball)
    assert len(heaps) == 2
    assert set(with_state) == set(without) == {0, 1}
    assert max(held) <= cap
    assert max(held) > 2 * state_bytes[0]


# ---------------------------------------------------------------------------
# integral-objective cutoff


def capped_pair(extra=None):
    """max x0 + x1 over binaries with x0 + x1 <= 1.7, optionally plus a
    third column (vtype, cost) in no row.  The root LP reaches 1.7, the
    floor probe finds 1, and every other node's bound lies in (1, 1.7]."""
    variables = [Variable("x0", BINARY, 0.0, 1.0),
                 Variable("x1", BINARY, 0.0, 1.0)]
    objective = {0: 1.0, 1: 1.0}
    if extra is not None:
        vtype, cost = extra
        variables.append(Variable("e", vtype, 0.0, 1.0))
        objective[2] = cost
    return MipInstance.from_constraints(
        "pair", "max", variables,
        [Constraint("cap", {0: 1.0, 1: 1.0}, -math.inf, 1.7)], objective)


def integral_rule_applies(inst):
    canon = canonicalize(inst)
    ints = np.array([j for j, v in enumerate(canon.variables)
                     if v.vtype != CONTINUOUS], dtype=np.int64)
    return bnb._integral_objective(canon.objective_vector(), ints)


def test_integral_objective_closes_a_node_within_one_unit():
    res = bnb.solve(capped_pair())
    assert res.status == bnb.OPTIMAL
    assert res.objective == res.lower_bound == 1.0
    assert res.nodes == 1
    # an integral cost on an extra binary keeps the rule
    res = bnb.solve(capped_pair((BINARY, 1.0)))
    assert (res.status, res.objective, res.nodes) == (bnb.OPTIMAL, 2.0, 1)


@pytest.mark.parametrize("extra", [(BINARY, 0.5), (CONTINUOUS, 1.0)])
def test_fractional_or_continuous_cost_keeps_the_gap_rule(extra):
    """One fractional cost, or a cost on a continuous column, and the
    root's bound 0.7 above the incumbent is no longer enough to close
    it: the search branches and proves the same optimum."""
    inst = capped_pair(extra)
    assert integral_rule_applies(capped_pair())
    assert not integral_rule_applies(inst)
    res = bnb.solve(inst)
    obj, _ = brute_force_optimum(inst)
    assert res.status == bnb.OPTIMAL
    assert res.objective == pytest.approx(obj, abs=1e-9)
    assert res.nodes > 1


def test_integral_objective_needs_integral_costs_on_integer_columns():
    ints = np.array([0, 1], dtype=np.int64)
    assert bnb._integral_objective(np.array([3.0, -2.0, 0.0]), ints)
    assert not bnb._integral_objective(np.array([3.0, -2.5, 0.0]), ints)
    assert not bnb._integral_objective(np.array([3.0, -2.0, 1.0]), ints)
    assert bnb._integral_objective(np.zeros(0), np.zeros(0, dtype=np.int64))


def _node_trace(monkeypatch, inst):
    """Per node LP of ``bnb.solve(inst)`` on a min-sense instance: (its LP
    objective, the best incumbent objective before it, whether its
    rounding probes ran)."""
    events = []
    solve_lp = simplex.LpWorkspace.solve
    probes = bnb._rounding_probes
    evaluate = bnb.evaluate_solution
    best = [math.inf]

    def lp_recording(self, *args):
        out = solve_lp(self, *args)
        events.append([out[0].objective, best[0], False])
        return out

    def probe_recording(*args):
        events[-1][2] = True
        return probes(*args)

    def evaluate_recording(inst, x):
        sol = evaluate(inst, x)
        if sol.feasible:
            best[0] = min(best[0], sol.objective)
        return sol

    with monkeypatch.context() as mp:
        mp.setattr(simplex.LpWorkspace, "solve", lp_recording)
        mp.setattr(bnb, "_rounding_probes", probe_recording)
        mp.setattr(bnb, "evaluate_solution", evaluate_recording)
        res = bnb.solve(inst)
    assert res.nodes == len(events)
    return res, events


def test_node_within_one_unit_of_the_incumbent_is_not_branched(monkeypatch):
    """On set covers (integral costs, min sense), no node whose LP bound
    lies in (inc - 1, inc) runs its probes or branches, and such nodes
    occur; without the rule such nodes are probed and branched.  Both
    runs prove the same optimum.  A bound within 1e-6 relative of inc - 1
    counts as inc - 1, which a node may still reach."""

    def within_one_unit(bound, inc):
        return inc - 1.0 + 1e-6 * (1.0 + abs(inc)) <= bound < inc

    closed = opened = 0
    for seed in range(4):
        inst = generate(GenSpec("sc", "custom",
                                params={"sets": 60, "elements": 45,
                                        "density": 0.12}, seed=seed))
        res, events = _node_trace(monkeypatch, inst)
        assert res.status == bnb.OPTIMAL
        for bound, inc, probed in events:
            if within_one_unit(bound, inc):
                assert not probed, seed
                closed += 1
        monkeypatch.setattr(bnb, "_integral_objective", lambda *a: False)
        plain, plain_events = _node_trace(monkeypatch, inst)
        monkeypatch.undo()
        assert plain.objective == res.objective
        opened += sum(probed for bound, inc, probed in plain_events
                      if within_one_unit(bound, inc))
    assert closed > 0 and opened > 0


@pytest.mark.parametrize("problem", ["cfl", "fcnf"])
def test_continuous_cost_classes_keep_their_trees(problem, monkeypatch):
    """cfl and fcnf put costs on continuous flows: the rule does not
    apply, and every tree equals a run with the rule switched off."""
    preset, params = TINY_SPECS[problem]
    insts = [generate(GenSpec(problem, preset, params=params, seed=seed))
             for seed in range(4)]
    runs = [bnb.solve(inst) for inst in insts]
    monkeypatch.setattr(bnb, "_integral_objective", lambda *a: False)
    for inst, res in zip(insts, runs):
        plain = bnb.solve(inst)
        assert (res.nodes, res.objective, res.lower_bound) == \
            (plain.nodes, plain.objective, plain.lower_bound)
    monkeypatch.undo()
    assert not any(integral_rule_applies(inst) for inst in insts)


def test_first_feasible_solves_ignore_the_rule(monkeypatch):
    """The labeler's first-feasible solves stop at their first incumbent,
    before the cutoff can close a node."""
    for problem in ("sc", "mis", "mk"):
        preset, params = TINY_SPECS[problem]
        inst = generate(GenSpec(problem, preset, params=params, seed=1))
        cfg = bnb.BnbConfig(mode=bnb.FIRST_FEASIBLE)
        res = bnb.solve(inst, cfg)
        monkeypatch.setattr(bnb, "_integral_objective", lambda *a: False)
        plain = bnb.solve(inst, cfg)
        monkeypatch.undo()
        assert (res.status, res.nodes, res.objective) == \
            (plain.status, plain.nodes, plain.objective)
        assert res.incumbent.values.tobytes() == \
            plain.incumbent.values.tobytes()


# ---------------------------------------------------------------------------
# rounding probes that repeat nearest are left out


def every_probe(rows, lp_x, n, ints, low0, upp0):
    """The rounding probes of a node with none left out: nearest, floor,
    ceil, and nearest after the repair, which hands back a nearest point
    that meets every row as it is."""
    x_lp = lp_x[:n]
    xi = x_lp[ints]
    low_i, upp_i = low0[ints], upp0[ints]
    near = np.floor(xi + 0.5) + 0.0
    for mode, r in enumerate((near, np.floor(xi) + 0.0, np.ceil(xi) + 0.0,
                              near)):
        x_cand = x_lp.copy()
        r = np.where(low_i > r, low_i, r)
        x_cand[ints] = np.where(upp_i < r, upp_i, r)
        if mode == 3:
            acts = rows.activities(x_cand)
            meets = not ((acts < rows.lhs - INT_TOL)
                         | (acts > rows.rhs + INT_TOL)).any()
            if not (meets or bnb._repair_rounding(rows, lp_x, x_cand,
                                                  low0, upp0)):
                continue
        yield x_cand


def _counted_solve(monkeypatch, inst, cfg=None, ball=None, probes=None):
    """``bnb.solve`` with its ``may_hold`` and ``evaluate_solution`` calls
    counted, optionally with another probe generator."""
    counts = {"may_hold": 0, "evaluate": 0}
    may_hold = bnb._Rows.may_hold
    evaluate = bnb.evaluate_solution

    def counting_may_hold(self, x):
        counts["may_hold"] += 1
        return may_hold(self, x)

    def counting_evaluate(inst, x):
        counts["evaluate"] += 1
        return evaluate(inst, x)

    with monkeypatch.context() as mp:
        mp.setattr(bnb._Rows, "may_hold", counting_may_hold)
        mp.setattr(bnb, "evaluate_solution", counting_evaluate)
        if probes is not None:
            mp.setattr(bnb, "_rounding_probes", probes)
        res = bnb.solve(inst, cfg, ball)
    return res, counts


def _outputs(res):
    return (res.status, res.objective, res.lower_bound, res.nodes,
            res.lb_history, res.lp_pivots,
            None if res.incumbent is None else res.incumbent.values.tobytes())


def test_repeated_probes_are_skipped_with_equal_outputs(monkeypatch):
    """Over every tiny class, plain and with both kinds of ball, and
    node-limited set covers: outputs equal those of a search that judges
    every probe, with no more ``may_hold`` or ``evaluate_solution``
    calls and, in all, fewer ``may_hold`` calls."""
    runs = []
    for problem, (preset, params) in sorted(TINY_SPECS.items()):
        for seed in range(2):
            inst = generate(GenSpec(problem, preset, params=params,
                                    seed=seed))
            bins = inst.binary_indices()
            x_hat = np.zeros(inst.n_vars)
            x_hat[bins[::2]] = 1.0
            runs.append((inst, None, None))
            for exact in (False, True):
                runs.append((inst, None, bnb.HammingBall(x_hat, bins, 2,
                                                         exact=exact)))
    for seed in range(3):
        inst = generate(GenSpec("sc", "custom",
                                params={"sets": 100, "elements": 75,
                                        "density": 0.06}, seed=seed))
        runs.append((inst, bnb.BnbConfig(node_limit=30), None))
    saved = 0
    for inst, cfg, ball in runs:
        res, counts = _counted_solve(monkeypatch, inst, cfg, ball)
        ref, ref_counts = _counted_solve(monkeypatch, inst, cfg, ball,
                                         every_probe)
        assert _outputs(res) == _outputs(ref), inst.name
        assert counts["may_hold"] <= ref_counts["may_hold"], inst.name
        assert counts["evaluate"] <= ref_counts["evaluate"], inst.name
        saved += ref_counts["may_hold"] - counts["may_hold"]
    assert saved > 0


def test_ceil_equal_to_nearest_is_not_judged_again(monkeypatch):
    """The root LP of the capped pair is (1, 0.7) up to order: nearest
    (1, 1) misses the row, floor finds the optimum, ceil equals nearest
    and is skipped, and the repaired nearest no longer improves."""
    res, counts = _counted_solve(monkeypatch, capped_pair())
    ref, ref_counts = _counted_solve(monkeypatch, capped_pair(),
                                     probes=every_probe)
    assert _outputs(res) == _outputs(ref)
    assert counts == {"may_hold": 2, "evaluate": 1}
    assert ref_counts == {"may_hold": 3, "evaluate": 1}


def test_repair_leaves_a_point_that_meets_every_row():
    inst = cycle_cover(5)
    x = np.ones(5)
    assert not bnb._repair_rounding(instance_rows(inst), np.full(5, 0.5), x,
                                    np.zeros(5), np.ones(5))
    assert x.tolist() == [1.0] * 5


# ---------------------------------------------------------------------------
# property test against HiGHS's MIP solver


@st.composite
def random_mips(draw):
    """Random small MIPs over binary, general integer and continuous
    columns with finite bounds, in either sense.  Rows are <=, >=,
    equality or ranged, with coefficients in multiples of 1/2, mostly
    positive, drawn to hold at one integral point or shifted off it (so
    some instances are infeasible).  Most costs push their column up
    against the rows, as in a knapsack.  Costs are integral or multiples
    of 1/4, on integer columns only or on continuous ones too."""
    n = draw(st.integers(4, 14))
    sense = draw(st.sampled_from(("min", "max")))
    variables, x0 = [], []
    for j in range(n):
        vtype = draw(st.sampled_from((BINARY, BINARY, INTEGER, CONTINUOUS)))
        lb = 0 if vtype == BINARY else draw(st.integers(-3, 1))
        ub = 1 if vtype == BINARY else lb + draw(st.integers(0, 4))
        variables.append(Variable(f"x{j}", vtype, float(lb), float(ub)))
        x0.append(draw(st.integers(lb, ub)))
    constraints = []
    for i in range(draw(st.integers(1, 5))):
        support = draw(st.lists(st.integers(0, n - 1), min_size=2,
                                max_size=n, unique=True))
        coeffs = {j: 0.5 * draw(st.integers(-3, 12)) for j in support}
        coeffs = {j: a for j, a in coeffs.items() if a} or {support[0]: 1.0}
        act = (sum(a * x0[j] for j, a in coeffs.items())
               + draw(st.sampled_from((0, 0, 0, -2, 2))))
        lo = act - draw(st.integers(0, 2))
        hi = act + draw(st.integers(0, 2))
        lhs, rhs = {"le": (-math.inf, hi), "ge": (lo, math.inf),
                    "eq": (act, act), "range": (lo, hi)}[
            draw(st.sampled_from(("le", "le", "le", "ge", "eq", "range")))]
        constraints.append(Constraint(f"r{i}", coeffs, lhs, rhs))
    scale = draw(st.sampled_from((1.0, 0.25)))
    continuous_costs = draw(st.booleans())
    up = 1.0 if sense == "max" else -1.0
    objective = {}
    for j, var in enumerate(variables):
        cost = scale * up * draw(st.integers(-4, 20))
        if continuous_costs or var.vtype != CONTINUOUS:
            objective[j] = cost
    return MipInstance.from_constraints("prop", sense, variables, constraints,
                                        objective)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_mips(), st.data())
def test_solve_matches_milp(inst, data):
    """Status and objective (1e-6 relative) equal HiGHS's, the incumbent
    passes ``evaluate_solution``, and the bound lies on the instance's
    side of the optimum and meets the objective; the same for a search
    split by an exact ball around a drawn point."""
    status, opt = milp_optimum(inst)
    assert status in (0, 2)
    bins = inst.binary_indices()
    x_hat = np.zeros(inst.n_vars)
    x_hat[bins] = data.draw(st.lists(st.sampled_from((0.0, 1.0)),
                                     min_size=len(bins), max_size=len(bins)))
    ball = bnb.HammingBall(x_hat, bins, data.draw(st.integers(0, len(bins))),
                           exact=True)
    for res in (bnb.solve(inst), bnb.solve(inst, ball=ball)):
        if status == 2:
            assert res.status == bnb.INFEASIBLE and res.incumbent is None
            continue
        tol = 1e-6 * (1.0 + abs(opt))
        assert res.status == bnb.OPTIMAL
        assert abs(res.objective - opt) <= tol
        assert evaluate_solution(inst, res.incumbent.values).feasible
        side = 1.0 if inst.sense == "min" else -1.0
        assert side * res.lower_bound <= side * opt + tol
        assert abs(res.lower_bound - res.objective) <= tol
