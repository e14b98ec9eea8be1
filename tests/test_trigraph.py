"""Graph extraction: node/edge layout, feature values, scaling, files."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mippred import bnb, trigraph
from mippred.core import (BINARY, CONTINUOUS, INTEGER, Constraint,
                          MipInstance, Variable)
from mippred.generators import GenSpec, generate
from mippred.trigraph import (N_CONS_FEATURES, N_VAR_FEATURES, apply_scaler,
                              build_trigraph, constraint_features, fit_scaler,
                              variable_features)
from oracles import TINY_SPECS, reference_graph, reference_locks


def graph_of(inst):
    return build_trigraph(inst, bnb.collect_root_info(inst))


def pair_instance():
    """Two binaries sharing one capacity row."""
    return MipInstance(
        "pair", "min",
        [Variable("x1", BINARY, 0.0, 1.0), Variable("x2", BINARY, 0.0, 1.0)],
        [Constraint("cap", {0: 1.0, 1: 1.0}, -math.inf, 1.0)],
        {0: -5.0, 1: -4.0})


# ---------------------------------------------------------------------------
# Graph shape


def test_two_vars_one_row_gives_five_edges():
    g = graph_of(pair_instance())
    assert g.n_vars == 2
    assert g.n_cons == 1
    assert len(g.vc_var) == 2
    assert g.vo_feats.shape == (2, 2)
    assert g.co_feats.shape == (1, 2)
    assert len(trigraph.trigraph_to_dict(g)["edges"]) == 5


def test_zero_coefficient_variable_keeps_objective_edge_only():
    inst = MipInstance(
        "loner", "min",
        [Variable("x1", BINARY, 0.0, 1.0), Variable("x2", BINARY, 0.0, 1.0)],
        [Constraint("cap", {0: 1.0}, -math.inf, 1.0)],
        {0: -1.0, 1: -1.0})
    g = graph_of(inst)
    t = g.var_names.index("x2")
    assert g.vc_cons[g.vc_var == t].size == 0
    assert g.vo_feats.shape[0] == 2  # the v-o edge is still there


def test_continuous_variables_get_no_nodes():
    inst = generate(GenSpec("fcnf", "tiny", seed=0))
    root = bnb.collect_root_info(inst)
    g = build_trigraph(inst, root)
    n_bin = len(root.instance.binary_indices())
    assert g.n_vars == n_bin
    assert n_bin < root.instance.n_vars


def test_node_counts_match_presolved_instance():
    for seed in range(3):
        inst = generate(GenSpec("sc", "tiny", seed=seed))
        root = bnb.collect_root_info(inst)
        g = build_trigraph(inst, root)
        red = root.instance
        assert g.n_vars == len(red.binary_indices())
        assert g.n_cons == len(red.constraints)
        pairs = sum(1 for con in red.constraints
                    for j in con.coeffs if red.variables[j].vtype == BINARY)
        assert len(g.vc_var) == pairs


def test_build_requires_solved_relaxation():
    inst = MipInstance(
        "clash", "min",
        [Variable("x", BINARY, 0.0, 1.0)],
        [Constraint("hi", {0: 1.0}, 0.75, math.inf),
         Constraint("lo", {0: 1.0}, -math.inf, 0.25)],
        {0: 1.0})
    root = bnb.collect_root_info(inst)
    with pytest.raises(ValueError, match="relaxation"):
        build_trigraph(inst, root)


def test_build_rejects_foreign_root_info():
    root = bnb.collect_root_info(pair_instance())
    other = generate(GenSpec("sc", "tiny", seed=0))
    with pytest.raises(ValueError, match="belong"):
        build_trigraph(other, root)


# ---------------------------------------------------------------------------
# Variable features


def test_variable_feature_dimension():
    inst = pair_instance()
    root = bnb.collect_root_info(inst)
    vec = variable_features(root.instance, root, 0)
    assert vec.shape == (N_VAR_FEATURES,) == (57,)


def test_fractional_relaxation_value_triple():
    # min -x with 10x <= 3 puts the root LP at x = 0.3.
    inst = MipInstance(
        "frac", "min",
        [Variable("x", BINARY, 0.0, 1.0)],
        [Constraint("cap", {0: 10.0}, -math.inf, 3.0)],
        {0: -1.0})
    root = bnb.collect_root_info(inst)
    vec = variable_features(root.instance, root, 0)
    assert vec[8] == pytest.approx(0.3)
    assert vec[9] == pytest.approx(0.3)
    assert vec[10] == pytest.approx(0.7)
    assert vec[11] == 1.0


def test_integral_relaxation_value_not_fractional():
    inst = pair_instance()
    root = bnb.collect_root_info(inst)
    t = root.instance.binary_indices()[0]
    vec = variable_features(root.instance, root, t)
    assert vec[11] == 0.0


def test_objective_coefficient_split():
    inst = pair_instance()
    root = bnb.collect_root_info(inst)
    vec = variable_features(root.instance, root, 0)
    assert vec[2] == -5.0
    assert vec[3] == 0.0
    assert vec[4] == 5.0


def test_isolated_variable_has_zero_structure_block():
    inst = MipInstance(
        "iso", "min",
        [Variable("x1", BINARY, 0.0, 1.0), Variable("x2", BINARY, 0.0, 1.0)],
        [Constraint("cap", {0: 1.0}, -math.inf, 1.0)],
        {0: -1.0, 1: -1.0})
    root = bnb.collect_root_info(inst)
    j = next(t for t, v in enumerate(root.instance.variables)
             if v.name == "x2")
    vec = variable_features(root.instance, root, j)
    assert vec[5] == 0.0  # row count
    np.testing.assert_allclose(vec[20:57], 0.0)


def test_lock_counts_in_features():
    # coefficient +10 in a <=-row: moving up can violate it, down cannot
    inst = MipInstance(
        "locks", "min",
        [Variable("x", BINARY, 0.0, 1.0)],
        [Constraint("cap", {0: 10.0}, -math.inf, 3.0)],
        {0: -1.0})
    root = bnb.collect_root_info(inst)
    vec = variable_features(root.instance, root, 0)
    assert vec[6] == 1.0
    assert vec[7] == 0.0


def test_pseudocost_features_zero():
    # features 12-16 are the pseudocost block, zero at the root
    g = graph_of(generate(GenSpec("sc", "tiny", seed=0)))
    assert g.n_vars > 0
    assert np.all(g.var_feats[:, 12:17] == 0.0)


def test_variable_features_reject_continuous():
    inst = MipInstance(
        "mixed", "min",
        [Variable("x", BINARY, 0.0, 1.0),
         Variable("f", CONTINUOUS, 0.0, 2.0)],
        [Constraint("link", {0: 1.0, 1: 1.0}, -math.inf, 2.0)],
        {0: -1.0, 1: 1.0})
    root = bnb.collect_root_info(inst)
    j = next(t for t, v in enumerate(root.instance.variables)
             if v.name == "f")
    with pytest.raises(ValueError, match="binary"):
        variable_features(root.instance, root, j)


@pytest.mark.parametrize("problem", sorted(TINY_SPECS))
def test_graph_rows_equal_one_variable_calls(problem):
    # build_trigraph shares one precomputation across all variables; a
    # lone call must give the same row, so nothing leaks between them
    preset, params = TINY_SPECS[problem]
    inst = generate(GenSpec(problem, preset, dict(params), seed=0))
    root = bnb.collect_root_info(inst)
    g = build_trigraph(inst, root)
    red = root.instance
    for t, j in enumerate(red.binary_indices()):
        np.testing.assert_array_equal(g.var_feats[t],
                                      variable_features(red, root, j))


@pytest.mark.parametrize("problem", sorted(TINY_SPECS))
def test_graph_rows_equal_one_constraint_calls(problem):
    preset, params = TINY_SPECS[problem]
    inst = generate(GenSpec(problem, preset, dict(params), seed=0))
    root = bnb.collect_root_info(inst)
    g = build_trigraph(inst, root)
    red = root.instance
    for i in range(len(red.constraints)):
        np.testing.assert_array_equal(g.cons_feats[i],
                                      constraint_features(red, root, i))


# ---------------------------------------------------------------------------
# Segment reductions against the loop reference

# features that are counts, degree extrema, locks, flags, the type
# one-hot or the basis code; these must match the reference exactly
EXACT_VAR = [0, 1, 5, 6, 7, 11, 22, 23, 32, 37]
EXACT_CONS = list(range(12)) + [14, 15, 16, 18]


def assert_matches_reference(inst):
    root = bnb.collect_root_info(inst)
    g = build_trigraph(inst, root)
    ref = reference_graph(root)
    up, down = reference_locks(root.instance)
    np.testing.assert_array_equal(root.up_locks, up)
    np.testing.assert_array_equal(root.down_locks, down)
    np.testing.assert_array_equal(g.vc_var, ref["vc_var"])
    np.testing.assert_array_equal(g.vc_cons, ref["vc_cons"])
    np.testing.assert_array_equal(g.var_feats[:, EXACT_VAR],
                                  ref["var_feats"][:, EXACT_VAR])
    np.testing.assert_array_equal(g.cons_feats[:, EXACT_CONS],
                                  ref["cons_feats"][:, EXACT_CONS])
    for name in ("var_feats", "cons_feats", "obj_feats", "vc_feats",
                 "vo_feats", "co_feats"):
        got, want = getattr(g, name), ref[name]
        assert got.shape == want.shape, name
        assert np.all(np.abs(got - want)
                      <= 1e-12 * np.maximum(1.0, np.abs(want))), name


@st.composite
def small_mips(draw):
    """Random small MIPs with a feasible, bounded root LP.

    Columns are binary, general integer or continuous with finite
    bounds, and the last binary is in no row.  Rows have negative and
    zero coefficients (some rows sum to exactly zero) and are <=, >=,
    equality, ranged or have a zero side, all chosen to hold at one
    drawn integral point.  Coefficients are multiples of 1/4, so row
    sums are exact and the rows' inverse sums are well defined.
    """
    n = draw(st.integers(1, 7))
    variables, x0 = [], []
    for j in range(n):
        vtype = draw(st.sampled_from((BINARY, BINARY, INTEGER, CONTINUOUS)))
        lb = 0 if vtype == BINARY else draw(st.integers(-3, 1))
        ub = 1 if vtype == BINARY else lb + draw(st.integers(0, 4))
        variables.append(Variable(f"x{j}", vtype, float(lb), float(ub)))
        x0.append(float(draw(st.integers(lb, ub))))
    variables.append(Variable(f"x{n}", BINARY, 0.0, 1.0))
    constraints = []
    for i in range(draw(st.integers(1, 6))):
        support = draw(st.lists(st.integers(0, n - 1), min_size=1,
                                max_size=n, unique=True))
        scale = draw(st.sampled_from((1.0, 0.5, 0.25)))
        coeffs = {j: scale * draw(st.integers(-3, 3)) for j in support}
        if len(support) > 1 and draw(st.booleans()):
            last = support[-1]
            coeffs[last] = -sum(a for j, a in coeffs.items() if j != last)
        act = sum(a * x0[j] for j, a in coeffs.items())
        lo = act - draw(st.integers(0, 2))
        hi = act + draw(st.integers(0, 2))
        lhs, rhs = {"le": (-math.inf, hi), "ge": (lo, math.inf),
                    "eq": (act, act), "range": (lo, hi),
                    "zero": (-math.inf, 0.0) if act <= 0.0
                    else (0.0, math.inf)}[
            draw(st.sampled_from(("le", "ge", "eq", "range", "zero")))]
        constraints.append(Constraint(f"r{i}", coeffs, lhs, rhs))
    objective = {j: float(draw(st.integers(-4, 4))) for j in range(n + 1)}
    sense = draw(st.sampled_from(("min", "max")))
    return MipInstance("prop", sense, variables, constraints, objective)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_mips())
def test_build_trigraph_matches_loop_reference(inst):
    assert_matches_reference(inst)


@pytest.mark.parametrize("problem", sorted(TINY_SPECS))
def test_generated_graphs_match_loop_reference(problem):
    preset, params = TINY_SPECS[problem]
    for seed in range(2):
        assert_matches_reference(
            generate(GenSpec(problem, preset, dict(params), seed=seed)))


def test_all_ones_rows_have_zero_deviation():
    # set cover rows are all ones, so every deviation over them is 0
    inst = generate(GenSpec("sc", "tiny", seed=0))
    root = bnb.collect_root_info(inst)
    g = build_trigraph(inst, root)
    assert all(set(con.coeffs.values()) == {1.0}
               for con in root.instance.constraints)
    assert np.all(g.cons_feats[:, 23] == 0.0)
    assert np.all(g.var_feats[:, 34] == 0.0)  # positive coefficients
    assert np.all(g.var_feats[:, 44] == 0.0)  # own, unit weights
    assert np.all(g.var_feats[:, 32] > 0.0)


# ---------------------------------------------------------------------------
# Constraint features


def test_constraint_feature_dimension():
    inst = pair_instance()
    root = bnb.collect_root_info(inst)
    vec = constraint_features(root.instance, root, 0)
    assert vec.shape == (N_CONS_FEATURES,) == (26,)


def test_set_covering_row_is_logicor():
    inst = MipInstance(
        "cover", "min",
        [Variable(f"x{j}", BINARY, 0.0, 1.0) for j in range(3)],
        [Constraint("cov", {0: 1.0, 1: 1.0, 2: 1.0}, 1.0, math.inf)],
        {j: 1.0 for j in range(3)})
    root = bnb.collect_root_info(inst)
    vec = constraint_features(root.instance, root, 0)
    onehot = vec[:12]
    assert onehot[trigraph.CONS_TYPES.index("logicor")] == 1.0
    assert onehot.sum() == 1.0


def test_mixed_sign_row_counts_and_norms():
    inst = MipInstance(
        "signs", "min",
        [Variable("x1", BINARY, 0.0, 1.0), Variable("x2", BINARY, 0.0, 1.0)],
        [Constraint("row", {0: 2.0, 1: -3.0}, -math.inf, 1.0)],
        {0: 1.0, 1: 1.0})
    root = bnb.collect_root_info(inst)
    vec = constraint_features(root.instance, root, 0)
    assert (vec[14], vec[15], vec[16]) == (2.0, 1.0, 1.0)
    assert (vec[19], vec[20], vec[21]) == (5.0, 2.0, 3.0)


def test_infinite_side_clipped_to_sentinel():
    inst = pair_instance()  # lhs is -inf
    root = bnb.collect_root_info(inst)
    vec = constraint_features(root.instance, root, 0)
    assert vec[12] == -trigraph.INF_SENTINEL
    assert vec[13] == 1.0


def test_singleton_row_type():
    inst = MipInstance(
        "single", "min",
        [Variable("x", BINARY, 0.0, 1.0)],
        [Constraint("only", {0: 2.0}, -math.inf, 1.0)],
        {0: -1.0})
    root = bnb.collect_root_info(inst)
    vec = constraint_features(root.instance, root, 0)
    assert vec[trigraph.CONS_TYPES.index("singleton")] == 1.0


def test_knapsack_row_type():
    inst = MipInstance(
        "knap", "max",
        [Variable("x1", BINARY, 0.0, 1.0), Variable("x2", BINARY, 0.0, 1.0)],
        [Constraint("cap", {0: 3.0, 1: 4.0}, -math.inf, 5.0)],
        {0: 1.0, 1: 1.0})
    root = bnb.collect_root_info(inst)
    vec = constraint_features(root.instance, root, 0)
    assert vec[trigraph.CONS_TYPES.index("knapsack")] == 1.0


# ---------------------------------------------------------------------------
# Edge features


def test_edge_coefficient_normalized_by_row_max():
    inst = MipInstance(
        "norm", "min",
        [Variable("x1", BINARY, 0.0, 1.0), Variable("x2", BINARY, 0.0, 1.0)],
        [Constraint("row", {0: 2.0, 1: 4.0}, -math.inf, 4.0)],
        {0: -1.0, 1: -1.0})
    g = graph_of(inst)
    e = next(t for t in range(len(g.vc_var))
             if g.var_names[g.vc_var[t]] == "x1")
    np.testing.assert_allclose(g.vc_feats[e], [2.0, 0.5])


def test_zero_objective_coefficient_edge():
    inst = MipInstance(
        "zeroc", "min",
        [Variable("x1", BINARY, 0.0, 1.0), Variable("x2", BINARY, 0.0, 1.0)],
        [Constraint("cap", {0: 1.0, 1: 1.0}, -math.inf, 1.0)],
        {0: -1.0})
    g = graph_of(inst)
    t = g.var_names.index("x2")
    np.testing.assert_allclose(g.vo_feats[t], [0.0, 0.0])


def test_all_equal_coefficients_normalize_to_unit():
    inst = MipInstance(
        "equal", "min",
        [Variable("x1", BINARY, 0.0, 1.0), Variable("x2", BINARY, 0.0, 1.0)],
        [Constraint("row", {0: 2.0, 1: 2.0}, -math.inf, 2.0)],
        {0: -3.0, 1: -3.0})
    g = graph_of(inst)
    np.testing.assert_allclose(g.vc_feats[:, 1], 1.0)
    np.testing.assert_allclose(g.vo_feats[:, 1], -1.0)
    np.testing.assert_allclose(g.co_feats[0], [2.0, 1.0])


def test_objective_edge_on_geq_row_uses_lhs():
    inst = MipInstance(
        "geq", "min",
        [Variable("x1", BINARY, 0.0, 1.0), Variable("x2", BINARY, 0.0, 1.0)],
        [Constraint("cov", {0: 1.0, 1: 1.0}, 1.0, math.inf)],
        {0: 1.0, 1: 2.0})
    g = graph_of(inst)
    np.testing.assert_allclose(g.co_feats[0], [1.0, 1.0])


def test_objective_node_features():
    g = graph_of(pair_instance())
    np.testing.assert_allclose(g.obj_feats, [9.0, 2.0])


def test_all_features_finite_on_generated_instances():
    for problem in ("sc", "fcnf", "mk"):
        inst = generate(GenSpec(problem, "tiny", seed=1))
        g = graph_of(inst)
        for arr in (g.var_feats, g.cons_feats, g.obj_feats,
                    g.vc_feats, g.vo_feats, g.co_feats):
            assert np.all(np.isfinite(arr))


def test_variable_permutation_permutes_feature_rows():
    base = MipInstance(
        "perm", "min",
        [Variable(f"x{j}", BINARY, 0.0, 1.0) for j in range(3)],
        [Constraint("cap", {0: 1.0, 1: 2.0, 2: 3.0}, -math.inf, 3.0),
         Constraint("cov", {0: 1.0, 1: 1.0, 2: 1.0}, 1.0, math.inf)],
        {0: -3.0, 1: -2.0, 2: -1.0})
    order = [2, 0, 1]
    inv = {old: new for new, old in enumerate(order)}
    shuffled = MipInstance(
        "perm", "min",
        [base.variables[j] for j in order],
        [Constraint(c.name, {inv[j]: a for j, a in c.coeffs.items()},
                    c.lhs, c.rhs) for c in base.constraints],
        {inv[j]: a for j, a in base.objective.items()})
    ga, gb = graph_of(base), graph_of(shuffled)
    rows_a = dict(zip(ga.var_names, ga.var_feats))
    rows_b = dict(zip(gb.var_names, gb.var_feats))
    assert set(rows_a) == set(rows_b)
    for name in rows_a:
        np.testing.assert_allclose(rows_a[name], rows_b[name], atol=1e-12)


# ---------------------------------------------------------------------------
# Scaling


def test_scaler_leaves_constant_columns_unchanged():
    graphs = [graph_of(generate(GenSpec("sc", "tiny", seed=s)))
              for s in range(3)]
    scaler = fit_scaler(graphs)
    scaled = apply_scaler(graphs[0], scaler)
    col = graphs[0].var_feats[:, 0]  # is-binary flag, constant 1
    stacked = np.vstack([g.var_feats[:, 0] for g in graphs])
    assert np.ptp(stacked) == 0.0
    np.testing.assert_allclose(scaled.var_feats[:, 0], col - col.mean())
    assert scaler.scale["var"][0] == 1.0


def test_scaled_training_set_has_zero_means():
    graphs = [graph_of(generate(GenSpec("mk", "tiny", seed=s)))
              for s in range(3)]
    scaler = fit_scaler(graphs)
    scaled = [apply_scaler(g, scaler) for g in graphs]
    allvar = np.vstack([g.var_feats for g in scaled])
    allcons = np.vstack([g.cons_feats for g in scaled])
    assert np.max(np.abs(allvar.mean(axis=0))) <= 1e-9
    assert np.max(np.abs(allcons.mean(axis=0))) <= 1e-9


def test_scaler_transfers_across_sizes():
    train = [graph_of(generate(GenSpec("sc", "tiny", seed=0)))]
    other = graph_of(generate(GenSpec("sc", "small", seed=9)))
    scaler = fit_scaler(train)
    scaled = apply_scaler(other, scaler)
    assert scaled.var_feats.shape == other.var_feats.shape
    assert np.all(np.isfinite(scaled.var_feats))


def test_apply_scaler_is_pure():
    g = graph_of(pair_instance())
    before = g.var_feats.copy()
    scaler = fit_scaler([g])
    apply_scaler(g, scaler)
    np.testing.assert_array_equal(g.var_feats, before)


def test_fit_scaler_needs_graphs():
    with pytest.raises(ValueError, match="at least one"):
        fit_scaler([])


# ---------------------------------------------------------------------------
# Files


def test_graph_file_round_trip(tmp_path):
    g = graph_of(generate(GenSpec("mk", "tiny", seed=2)))
    path = tmp_path / "g.json"
    trigraph.write_trigraph(path, g)
    back = trigraph.read_trigraph(path)
    assert back.name == g.name
    assert back.var_names == g.var_names
    assert back.cons_names == g.cons_names
    np.testing.assert_array_equal(back.var_feats, g.var_feats)
    np.testing.assert_array_equal(back.cons_feats, g.cons_feats)
    np.testing.assert_array_equal(back.obj_feats, g.obj_feats)
    np.testing.assert_array_equal(back.vc_var, g.vc_var)
    np.testing.assert_array_equal(back.vc_cons, g.vc_cons)
    np.testing.assert_array_equal(back.vc_feats, g.vc_feats)
    np.testing.assert_array_equal(back.vo_feats, g.vo_feats)
    np.testing.assert_array_equal(back.co_feats, g.co_feats)


def test_graph_file_write_is_deterministic(tmp_path):
    g = graph_of(generate(GenSpec("sc", "tiny", seed=4)))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    trigraph.write_trigraph(a, g)
    trigraph.write_trigraph(b, g)
    assert a.read_bytes() == b.read_bytes()


def test_graph_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "g", "var_nodes": [], "cons_nodes": [], '
                    '"obj_features": [0, 0], "edges": [], "bogus": 1}\n')
    with pytest.raises(ValueError, match="unknown"):
        trigraph.read_trigraph(path)


def test_graph_file_rejects_bad_edge_type(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"name": "g", '
        '"var_nodes": [{"name": "x", "features": ' +
        str([0.0] * 57) + '}], '
        '"cons_nodes": [], "obj_features": [0, 0], '
        '"edges": [{"type": "vv", "from": "x", "to": "x", '
        '"features": [0, 0]}]}\n')
    with pytest.raises(ValueError, match="edge type"):
        trigraph.read_trigraph(path)


def test_scaler_file_round_trip(tmp_path):
    g = graph_of(generate(GenSpec("sc", "tiny", seed=0)))
    scaler = fit_scaler([g])
    path = tmp_path / "scaler.json"
    trigraph.write_scaler(path, scaler)
    back = trigraph.read_scaler(path)
    for fam in trigraph._FAMILIES:
        np.testing.assert_array_equal(back.shift[fam], scaler.shift[fam])
        np.testing.assert_array_equal(back.scale[fam], scaler.scale[fam])


def test_scaler_file_rejects_nonpositive_scale(tmp_path):
    g = graph_of(pair_instance())
    data = trigraph.scaler_to_dict(fit_scaler([g]))
    data["var"]["scale"][0] = 0.0
    path = tmp_path / "bad.json"
    import json
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="nonpositive"):
        trigraph.read_scaler(path)
