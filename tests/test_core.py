"""Data model, validation, evaluation and file round-trips."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mippred import bnb
from mippred.core import (BINARY, CONTINUOUS, INTEGER, Constraint,
                          InstanceFormatError, MipInstance, RowArrays, Variable,
                          canonicalize,
                          evaluate_solution, instance_from_dict,
                          instance_to_dict, read_csv, read_instance,
                          validate_instance, write_csv, write_instance,
                          write_json)
from mippred.generators import GenSpec, generate


def tiny_knapsack():
    return MipInstance.from_constraints(
        name="knap",
        sense="min",
        variables=[Variable("x1", BINARY, 0.0, 1.0),
                   Variable("x2", BINARY, 0.0, 1.0)],
        constraints=[Constraint("cap", {0: 1.0, 1: 1.0}, -math.inf, 1.0)],
        objective={0: -5.0, 1: -4.0},
    )


def test_row_arrays_keep_dict_order_and_sides():
    inst = MipInstance.from_constraints(
        "rows", "min",
        [Variable(f"x{j}", BINARY, 0.0, 1.0) for j in range(3)],
        [Constraint("a", {2: 1.5, 0: -1.0}, -math.inf, 4.0),
         Constraint("b", {1: 2.0}, 0.0, 0.0),
         Constraint("c", {0: 1.0, 2: 0.0, 1: 3.0}, 1.0, math.inf)],
        {})
    ra = inst.rows
    assert ra.indptr.tolist() == [0, 2, 3, 6]
    assert ra.cols.tolist() == [2, 0, 1, 0, 2, 1]
    assert ra.vals.tolist() == [1.5, -1.0, 2.0, 1.0, 0.0, 3.0]
    assert ra.lhs.tolist() == [-math.inf, 0.0, 1.0]
    assert ra.rhs.tolist() == [4.0, 0.0, math.inf]
    assert ra.row_ids().tolist() == [0, 0, 1, 2, 2, 2]
    assert inst.row_names == ["a", "b", "c"]
    assert inst.constraints[2] == Constraint("c", {0: 1.0, 2: 0.0, 1: 3.0},
                                             1.0, math.inf)
    empty = MipInstance.from_constraints("none", "min", [], [], {}).rows
    assert empty.indptr.tolist() == [0]
    assert empty.cols.dtype == np.int64 and empty.cols.size == 0


def test_validate_well_formed():
    assert validate_instance(tiny_knapsack()) == []


def test_validate_dangling_index():
    inst = tiny_knapsack()
    inst.rows = inst.rows.with_row([99], [1.0], -math.inf, 1.0)
    inst.row_names.append("bad")
    issues = validate_instance(inst)
    assert len(issues) == 1
    assert "99" in issues[0]


def test_validate_repeated_column_in_a_row():
    """Dict rows cannot repeat a column; array rows can, and a row that
    does is rejected, once per repeated column."""
    inst = tiny_knapsack()
    inst.rows = inst.rows.with_row([1, 0, 1, 1], [1.0, 2.0, 3.0, 4.0],
                                   -math.inf, 1.0)
    inst.row_names.append("twice")
    assert validate_instance(inst) == [
        "constraint 'twice': variable index 1 repeated"]
    with pytest.raises(ValueError, match="repeated"):
        canonicalize(inst)


def test_validate_messages_follow_row_order():
    inst = MipInstance.from_constraints(
        "bad", "min", [Variable("x", BINARY, 0.0, 1.0)],
        [Constraint("ok", {0: 1.0}, 0.0, 1.0),
         Constraint("e", {}, 0.0, 1.0),
         Constraint("r", {0: 1.0, 3: 1.0, -1: 2.0}, 2.0, 1.0),
         Constraint("f", {0: 1.0}, -math.inf, math.inf)], {0: 1.0})
    assert validate_instance(inst) == [
        "constraint 'e': empty coefficients",
        "constraint 'r': variable index 3 out of range",
        "constraint 'r': variable index -1 out of range",
        "constraint 'r': lhs 2.0 > rhs 1.0",
        "constraint 'f': both sides infinite"]


@pytest.mark.parametrize("index", [-1, 1])
def test_objective_index_outside_the_columns_is_rejected(index):
    # a cost array cannot hold it, and -1 would silently name the last column
    with pytest.raises(ValueError,
                       match=f"objective: variable index {index} out of range"):
        MipInstance.from_constraints(
            "bad", "min", [Variable("x", BINARY, 0.0, 1.0)], [], {index: 1.0})


def test_validate_binary_bound():
    inst = tiny_knapsack()
    inst.ub[1] = 2.0
    issues = validate_instance(inst)
    assert len(issues) == 1
    assert "x2" in issues[0]


def test_vtype_takes_any_known_type_in_place():
    inst = tiny_knapsack()  # every column binary
    inst.vtype[0] = CONTINUOUS
    assert inst.vtype.tolist() == [CONTINUOUS, BINARY]
    assert validate_instance(inst) == []


def test_vtype_keeps_a_longer_unknown_name_whole():
    inst = MipInstance.from_constraints(
        "odd", "min", [Variable("x", "semicontinuous", 0.0, 1.0)], [], {})
    assert inst.vtype.tolist() == ["semicontinuous"]
    assert validate_instance(inst) == [
        "variable 'x': unknown vtype 'semicontinuous'"]


def test_canonicalize_flips_max():
    inst = tiny_knapsack()
    inst.sense = "max"
    inst.c = np.array([3.0, 0.0])
    canon = canonicalize(inst)
    assert canon.sense == "min"
    assert canon.c.tolist() == [-3.0, 0.0]
    assert inst.sense == "max" and inst.c.tolist() == [3.0, 0.0]


def test_canonicalize_identity_on_min():
    inst = tiny_knapsack()
    canon = canonicalize(inst)
    assert canon.sense == "min"
    assert canon == inst
    # idempotent
    again = canonicalize(canon)
    assert again.sense == "min"
    assert again == canon


def test_canonicalize_keeps_equality_row():
    knap = tiny_knapsack()
    inst = MipInstance.from_constraints(
        knap.name, knap.sense, knap.variables,
        [Constraint("eq", {0: 1.0, 1: 2.0}, 5.0, 5.0)], dict(enumerate(knap.c)))
    canon = canonicalize(inst)
    assert canon.constraints[0].lhs == 5.0
    assert canon.constraints[0].rhs == 5.0


def test_evaluate_knapsack_corner():
    inst = tiny_knapsack()
    sol = evaluate_solution(inst, [1.0, 0.0])
    assert sol.objective == -5.0
    assert sol.feasible is True
    assert sol.max_violation <= 1e-6


def test_evaluate_violated_row():
    # a violated row, then a violated bound; the flag is a Python bool
    for x in ([1.0, 1.0], [0.0, -1.0]):
        sol = evaluate_solution(tiny_knapsack(), x)
        assert sol.feasible is False
        assert sol.max_violation == pytest.approx(1.0)


def test_evaluate_all_zero_feasible():
    sol = evaluate_solution(tiny_knapsack(), [0.0, 0.0])
    assert sol.feasible
    assert sol.objective == 0.0


def test_evaluate_dimension_mismatch():
    with pytest.raises(ValueError):
        evaluate_solution(tiny_knapsack(), [1.0])


def test_evaluate_rejects_non_finite_points():
    """NaN or infinite entries make a point infeasible with violation
    inf, in continuous and integer variables alike, without raising."""
    lp = MipInstance.from_constraints(
        "lp", "min",
        [Variable("x", CONTINUOUS, 0.0, 10.0),
         Variable("y", CONTINUOUS, 0.0, 10.0)],
        [Constraint("cover", {0: 1.0, 1: 1.0}, 1.0, math.inf)],
        {0: 1.0, 1: 2.0})
    ip = MipInstance.from_constraints(
        "ip", "min",
        [Variable("k", INTEGER, -math.inf, math.inf),
         Variable("x", CONTINUOUS, -math.inf, math.inf)],
        [], {0: 1.0})
    for inst, x in ((lp, [math.nan, math.nan]), (lp, [math.nan, 1.0]),
                    (lp, [math.inf, 0.0]), (ip, [math.nan, 0.0]),
                    (ip, [math.inf, 0.0]), (ip, [0.0, -math.inf])):
        sol = evaluate_solution(inst, x)
        assert sol.feasible is False, (inst.name, x)
        assert sol.max_violation == math.inf, (inst.name, x)


def _walk_evaluation(inst, x):
    """(objective, max violation, feasible) by walking each row's dict and
    each variable, as a reference for the vector evaluation."""
    obj = float(sum(c * x[j] for j, c in enumerate(inst.c.tolist()) if c))
    viol = 0.0
    for con in inst.constraints:
        act = sum(a * x[j] for j, a in con.coeffs.items())
        if math.isfinite(con.lhs):
            viol = max(viol, con.lhs - act)
        if math.isfinite(con.rhs):
            viol = max(viol, act - con.rhs)
    resid = 0.0
    for j, v in enumerate(inst.variables):
        if math.isfinite(v.lb):
            viol = max(viol, v.lb - x[j])
        if math.isfinite(v.ub):
            viol = max(viol, x[j] - v.ub)
        if v.vtype != CONTINUOUS:
            resid = max(resid, abs(x[j] - round(x[j])))
    return obj, max(viol, resid), viol <= 1e-6 and resid <= 1e-6


@pytest.mark.parametrize("problem", ["cfl", "fcnf", "ga", "mis", "mk", "sc",
                                     "tsp", "vrp"])
def test_evaluate_equals_dict_walk(problem):
    """Objective, violation and flag equal the dict walk exactly on
    integral, fractional and out-of-bound points."""
    rng = np.random.default_rng(3)
    inst = generate(GenSpec(problem, "tiny", seed=1))
    for scale in (1, 2, 3):
        for _ in range(10):
            x = rng.integers(0, 2, size=inst.n_vars).astype(float)
            if scale > 1:
                x = x * scale * rng.random(inst.n_vars)
            sol = evaluate_solution(inst, x)
            assert (sol.objective, sol.max_violation, sol.feasible) == \
                _walk_evaluation(inst, x)


def test_feasibility_invariant_under_row_permutation():
    rng = np.random.default_rng(7)
    for trial in range(30):
        inst = generate(GenSpec("sc", "tiny", seed=trial))
        x = rng.integers(0, 2, size=inst.n_vars).astype(float)
        base = evaluate_solution(inst, x)
        cons = inst.constraints
        shuffled = MipInstance.from_constraints(
            inst.name, inst.sense, inst.variables,
            [cons[i] for i in rng.permutation(len(cons))], dict(enumerate(inst.c)))
        assert evaluate_solution(shuffled, x).feasible == base.feasible


def test_round_trip_generated_instance(tmp_path):
    inst = generate(GenSpec("ga", "tiny", seed=3))
    path = tmp_path / "ga.json"
    write_instance(inst, path)
    back = read_instance(path)
    assert back == inst


def test_round_trip_all_generators(tmp_path):
    for problem in ("fcnf", "cfl", "ga", "mis", "mk", "sc", "tsp", "vrp"):
        inst = generate(GenSpec(problem, "tiny", seed=0))
        path = tmp_path / f"{problem}.json"
        write_instance(inst, path)
        assert read_instance(path) == inst


_FINITE = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def instances(draw):
    """Valid instances of up to 5 variables and 4 rows, with infinite
    bounds and sides, signed zeros and rows in any column order."""
    n = draw(st.integers(1, 5))
    variables = []
    for j in range(n):
        vtype = draw(st.sampled_from((BINARY, INTEGER, CONTINUOUS)))
        if vtype == BINARY:
            lb, ub = draw(st.sampled_from(((0.0, 1.0), (0.0, 0.0), (1.0, 1.0))))
        else:
            # a lower bound of +inf or an upper bound of -inf is invalid
            lb, ub = sorted((draw(st.one_of(_FINITE, st.just(-math.inf))),
                             draw(st.one_of(_FINITE, st.just(math.inf)))))
        variables.append(Variable(f"x{j}", vtype, lb, ub))
    constraints = []
    for i in range(draw(st.integers(0, 4))):
        cols = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
        lhs, rhs = sorted(draw(st.lists(_FINITE, min_size=2, max_size=2)))
        lhs = draw(st.sampled_from((lhs, -math.inf)))
        rhs = draw(st.sampled_from((rhs, math.inf))) if lhs > -math.inf else rhs
        constraints.append(Constraint(f"r{i}", {j: draw(_FINITE) for j in cols},
                                      lhs, rhs))
    objective = {j: draw(_FINITE) for j in draw(
        st.lists(st.integers(0, n - 1), unique=True))}
    return MipInstance.from_constraints(
        "h", draw(st.sampled_from(("min", "max"))), variables, constraints,
        objective)


@settings(max_examples=30, deadline=None)
@given(inst=instances())
def test_write_read_write_is_byte_identical(tmp_path_factory, inst):
    assert validate_instance(inst) == []
    d = tmp_path_factory.mktemp("trip")
    write_instance(inst, d / "a.json")
    back = read_instance(d / "a.json")
    write_instance(back, d / "b.json")
    assert (d / "a.json").read_bytes() == (d / "b.json").read_bytes()
    for got, want in zip(back.rows, inst.rows):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert back == inst


def test_bad_vtype_rejected(tmp_path):
    data = instance_to_dict(tiny_knapsack())
    data["variables"][0]["vtype"] = "ternary"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InstanceFormatError, match="vtype"):
        read_instance(path)


@pytest.mark.parametrize("field, value, message", [
    ("lb", math.nan, "variable 'x_0': lb nan is not a lower bound"),
    ("lb", math.inf, "variable 'x_0': lb inf is not a lower bound"),
    ("ub", math.nan, "variable 'x_0': ub nan is not an upper bound"),
    ("ub", -math.inf, "variable 'x_0': ub -inf is not an upper bound"),
    ("vals", math.nan, "constraint 'cap_0': coefficient nan of variable "
                       "index 0 is not finite"),
    ("vals", -math.inf, "constraint 'cap_0': coefficient -inf of variable "
                        "index 0 is not finite"),
    ("lhs", math.nan, "constraint 'cap_0': lhs is not a number"),
    ("rhs", math.nan, "constraint 'cap_0': rhs is not a number"),
    ("c", math.nan, "objective: cost nan of variable 'x_0' is not finite"),
    ("c", math.inf, "objective: cost inf of variable 'x_0' is not finite"),
])
def test_non_finite_data_is_rejected(tmp_path, field, value, message):
    """Each NaN or misplaced infinity in the bounds, rows or costs gets
    one message; the reader refuses the file and the solver the
    instance.  Unchecked, a NaN coefficient made the solver report the
    knapsack infeasible although x = 0 is feasible."""
    inst = generate(GenSpec("mk", "tiny", seed=0))
    if field in ("lb", "ub"):  # a free column: no bound order is broken
        inst.vtype = np.where(np.arange(inst.n_vars) == 0, CONTINUOUS,
                              inst.vtype)
        inst.lb[0], inst.ub[0] = -math.inf, math.inf
    getattr(inst.rows if field in RowArrays._fields else inst, field)[0] = value
    assert validate_instance(inst) == [message]
    write_instance(inst, tmp_path / "bad.json")
    with pytest.raises(InstanceFormatError, match=re.escape(message)):
        read_instance(tmp_path / "bad.json")
    with pytest.raises(ValueError, match=re.escape(message)):
        bnb.solve(inst)


def test_unknown_key_rejected():
    data = instance_to_dict(tiny_knapsack())
    data["extra"] = 1
    with pytest.raises(InstanceFormatError):
        instance_from_dict(data)


def test_empty_constraint_list_round_trips(tmp_path):
    inst = MipInstance.from_constraints(
        "free", "min", [Variable("x", CONTINUOUS, 0.0, 2.0)], [], {0: 1.0})
    path = tmp_path / "free.json"
    write_instance(inst, path)
    assert read_instance(path) == inst


def test_infinite_bounds_round_trip(tmp_path):
    inst = MipInstance.from_constraints(
        "inf", "min",
        [Variable("x", CONTINUOUS, -math.inf, math.inf)],
        [Constraint("row", {0: 1.0}, 1.0, math.inf)], {0: 1.0})
    path = tmp_path / "inf.json"
    write_instance(inst, path)
    back = read_instance(path)
    assert back.variables[0].lb == -math.inf
    assert back.variables[0].ub == math.inf
    assert back.constraints[0].rhs == math.inf


def test_write_is_deterministic(tmp_path):
    inst = generate(GenSpec("mk", "tiny", seed=11))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_instance(inst, a)
    write_instance(inst, b)
    assert a.read_bytes() == b.read_bytes()


def test_write_json_bytes_are_pinned(tmp_path):
    """Floats (shortest round-trip repr, inf and nan as JSON's extension
    tokens), nested lists and non-ASCII names (escaped), indented by one
    space."""
    payload = {"naïve Σ": [0.1, -2.5e-300, [1, [2.0, None]], []],
               "x": {"ü": 1e16, "inf": float("inf"), "nan": float("nan")}}
    path = tmp_path / "p.json"
    write_json(path, payload)
    assert path.read_bytes() == (
        b'{\n "na\\u00efve \\u03a3": [\n  0.1,\n  -2.5e-300,\n  [\n   1,\n'
        b'   [\n    2.0,\n    null\n   ]\n  ],\n  []\n ],\n "x": {\n'
        b'  "\\u00fc": 1e+16,\n  "inf": Infinity,\n  "nan": NaN\n }\n}\n')


def test_write_csv_bytes_are_pinned(tmp_path):
    """Cells joined by commas, lines ending in CRLF, None as an empty cell,
    floats by their shortest round-trip repr, and a cell holding a comma,
    quote or line break quoted."""
    path = tmp_path / "t.csv"
    write_csv(path, ("name", "value"),
              [("a", 0.1), ("b,c", None), ('say "hi"', 1e16), ("x\ny", 2)])
    assert path.read_bytes() == (
        b'name,value\r\na,0.1\r\n"b,c",\r\n"say ""hi""",1e+16\r\n'
        b'"x\ny",2\r\n')


def test_read_csv_returns_the_written_cells(tmp_path):
    path = tmp_path / "t.csv"
    rows = [["a", "0.1"], ["b,c", ""], ['say "hi"', "1e+16"], ["x\ny", "2"]]
    write_csv(path, ("name", "value"), rows)
    assert read_csv(path) == [["name", "value"], *rows]
    path.write_text("h\n\nv\n")
    assert read_csv(path) == [["h"], [], ["v"]]
