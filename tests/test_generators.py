"""Instance generators: determinism, validity, feasibility, and sizes."""

import json

import pytest

from mippred import bnb
from mippred.core import BINARY, CONTINUOUS, instance_to_dict, validate_instance
from mippred.generators import PROBLEMS, GenSpec, generate
from oracles import TINY_SPECS


def test_unknown_problem_rejected():
    with pytest.raises(ValueError, match="unknown problem"):
        generate(GenSpec("qap", "tiny"))


def test_unknown_preset_and_param_rejected():
    with pytest.raises(ValueError, match="unknown preset"):
        generate(GenSpec("sc", "huge"))
    with pytest.raises(ValueError, match="unknown params"):
        generate(GenSpec("sc", "custom", params={"covers": 3}))


def test_determinism_byte_identical():
    for problem in PROBLEMS:
        a = generate(GenSpec(problem, "tiny", seed=5))
        b = generate(GenSpec(problem, "tiny", seed=5))
        assert json.dumps(instance_to_dict(a)) == \
            json.dumps(instance_to_dict(b))


def test_distinct_seeds_differ():
    a = generate(GenSpec("mk", "tiny", seed=0))
    b = generate(GenSpec("mk", "tiny", seed=1))
    assert instance_to_dict(a) != instance_to_dict(b)


def test_all_instances_validate():
    for problem in PROBLEMS:
        for preset in ("tiny", "small"):
            inst = generate(GenSpec(problem, preset, seed=2))
            assert validate_instance(inst) == [], (problem, preset)


def test_tiny_instances_feasible():
    """Every generator promises at least one feasible point."""
    for problem in PROBLEMS:
        preset, params = TINY_SPECS[problem]
        for seed in range(5):
            inst = generate(GenSpec(problem, preset, params=params,
                                    seed=seed))
            res = bnb.solve(inst, bnb.BnbConfig(mode=bnb.FIRST_FEASIBLE))
            assert res.incumbent is not None, (problem, seed)
            assert res.incumbent.feasible


def test_tiny_specs_enumeration_sized():
    for problem in PROBLEMS:
        preset, params = TINY_SPECS[problem]
        for seed in range(5):
            inst = generate(GenSpec(problem, preset, params=params,
                                    seed=seed))
            assert len(inst.binary_indices()) <= 16, (problem, seed)


def test_ga_small_counts():
    inst = generate(GenSpec("ga", "small", seed=0))
    assert inst.n_vars == 1152
    assert all(v.vtype == BINARY for v in inst.variables)
    assert len(inst.constraints) == 108


def test_mis_small_counts():
    for seed in range(5):
        inst = generate(GenSpec("mis", "small", seed=seed))
        assert inst.n_vars == 125
        assert 1734 <= len(inst.constraints) <= 1929, seed


def test_sc_small_counts():
    inst = generate(GenSpec("sc", "small", seed=0))
    assert inst.n_vars == 750
    assert len(inst.constraints) == 550


def test_mk_small_counts():
    for seed in range(5):
        inst = generate(GenSpec("mk", "small", seed=seed))
        assert 315 <= inst.n_vars <= 350, seed
        assert 19 <= len(inst.constraints) <= 21, seed
        # full density: every item appears in every dimension row
        for con in inst.constraints:
            assert len(con.coeffs) == inst.n_vars


def test_tsp_tiny_counts():
    inst = generate(GenSpec("tsp", "tiny", seed=0))
    bins = [v for v in inst.variables if v.vtype == BINARY]
    cont = [v for v in inst.variables if v.vtype == CONTINUOUS]
    assert len(bins) == 30  # 6*5 directed arcs
    assert len(cont) == 5   # MTZ order variables for cities 2..6
    assert len(inst.constraints) == 32  # 12 assignment + 20 MTZ rows


def test_vrp_small_counts():
    inst = generate(GenSpec("vrp", "small", seed=0))
    bins = [v for v in inst.variables if v.vtype == BINARY]
    assert inst.n_vars == 196  # 182 directed arcs + 14 node loads
    assert len(bins) == 182


def test_objective_senses():
    # covering/flow problems minimize; packing/revenue problems maximize
    assert generate(GenSpec("sc", "tiny", seed=0)).sense == "min"
    assert generate(GenSpec("fcnf", "tiny", seed=0)).sense == "min"
    assert generate(GenSpec("mk", "tiny", seed=0)).sense == "max"
    assert generate(GenSpec("mis", "tiny", seed=0)).sense == "max"
    assert generate(GenSpec("ga", "tiny", seed=0)).sense == "max"
