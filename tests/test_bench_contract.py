"""The benchmark under perfbench/ looks program callables up by name.

These checks fail when renaming or deleting a public callable, or a
config keyword, would break a benchmark run.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from mippred import bnb
from mippred.generators import PROBLEMS, GenSpec, generate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("simplex", "bnb", "cli", "gcn", "generators", "labeler",
           "predictor", "trigraph")


def test_traced_and_caught_callables_resolve():
    mods = {name: importlib.import_module(f"mippred.{name}")
            for name in MODULES}
    for owner, attr, span, _ in tracing.program_targets(mods):
        assert callable(getattr(owner, attr, None)), span
    for owner, attr in workloads.PipelineMk.RUN_SOLVES:
        assert callable(getattr(owner, attr, None)), attr


def test_solve_sc_configs_are_accepted():
    inst = generate(GenSpec("sc", "tiny", seed=0))
    z = np.full(len(inst.binary_indices()), 0.5)
    for mode in tracing.RUN_MODES:
        res = workloads.SolveSc()._solve(mode, inst, z)
        assert res.status in (bnb.OPTIMAL, bnb.FEASIBLE, bnb.INFEASIBLE,
                              bnb.LIMIT_REACHED), mode


@pytest.mark.parametrize("problem", PROBLEMS)
def test_reference_reads_the_instance_record_views(problem):
    """``reference.highs_optimum`` reads an instance through its record
    views (``variables``, ``constraints``, ``objective_vector()``): its
    optimum equals the one ``bnb.solve`` proves, and its relaxation the
    root LP value read as infer-mix reads it."""
    inst = generate(GenSpec(problem, "tiny", seed=0))
    res = bnb.solve(inst)
    assert res.status == bnb.OPTIMAL
    assert reference.same_objective(reference.highs_optimum(inst).objective,
                                    res.objective)
    root = bnb.collect_root_info(inst)
    value = root.lp.objective + root.objective_offset
    if inst.sense == "max":
        value = -value
    assert reference.same_objective(
        reference.highs_optimum(inst, relax=True).objective, value)
