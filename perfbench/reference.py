"""Independent reference and correctness checks for the benchmark.

The reference optimum comes from HiGHS through ``scipy.optimize.milp``,
never from the in-house solver.  The checks and the gap arithmetic here
are pure functions of numbers, so the unit tests can pin them down.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp

#: relative tolerance for "the same objective": |a - b| <= RTOL * max(1, |b|)
RTOL = 1e-6

#: primal gap charged to a run that found no solution (Berthold's maximum)
NO_SOLUTION_GAP = 100.0

STATUSES = ("optimal", "feasible", "infeasible", "limit_reached")


class ReferenceError(RuntimeError):
    """HiGHS could not give a reference, so nothing can be checked."""


@dataclass
class Reference:
    """HiGHS optimum of one instance, objective in the instance's own sense."""

    objective: float
    x: np.ndarray


def _arrays(inst):
    rows, cols, vals = [], [], []
    for i, con in enumerate(inst.constraints):
        for j, a in con.coeffs.items():
            rows.append(i)
            cols.append(j)
            vals.append(a)
    A = sp.csr_matrix((vals, (rows, cols)),
                      shape=(len(inst.constraints), inst.n_vars))
    lhs = [con.lhs for con in inst.constraints]
    rhs = [con.rhs for con in inst.constraints]
    sign = -1.0 if inst.sense == "max" else 1.0
    c = sign * inst.objective_vector()
    bounds = Bounds([v.lb for v in inst.variables], [v.ub for v in inst.variables])
    return c, sign, LinearConstraint(A, lhs, rhs), bounds


def highs_optimum(inst, relax: bool = False) -> Reference:
    """Optimum of the MIP (or of its LP relaxation when ``relax``).

    Raises ReferenceError unless HiGHS proves optimality.
    """
    c, sign, rows, bounds = _arrays(inst)
    integrality = np.zeros(inst.n_vars) if relax else np.array(
        [0 if v.vtype == "continuous" else 1 for v in inst.variables])
    res = milp(c, constraints=rows, integrality=integrality, bounds=bounds,
               options={"mip_rel_gap": 0.0, "time_limit": 120.0})
    if res.status != 0:
        raise ReferenceError(f"HiGHS on {inst.name!r}: {res.message}")
    return Reference(objective=sign * float(res.fun), x=np.asarray(res.x))


def same_objective(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(1.0, abs(b))


def primal_gap_pct(objective, optimum: float) -> float:
    """Primal gap in percent (Berthold 2013): 0 at the optimum, 100 when
    no solution was found or the signs differ."""
    if objective is None:
        return NO_SOLUTION_GAP
    if same_objective(objective, optimum):
        return 0.0
    if objective * optimum < 0:
        return NO_SOLUTION_GAP
    return 100.0 * abs(objective - optimum) / max(abs(objective), abs(optimum))


def mean_gaps(rows) -> dict[str, float]:
    """Mean primal gap per mode over (mode, gap) pairs."""
    by_mode: dict[str, list[float]] = {}
    for mode, gap in rows:
        by_mode.setdefault(mode, []).append(gap)
    return {mode: statistics.fmean(gaps) for mode, gaps in by_mode.items()}


def check_solve(sense: str, approx: bool, status: str, objective, bound,
                optimum: float, time_limited: bool = False) -> list[str]:
    """Problems with one solver outcome, judged against the HiGHS optimum.

    ``approx`` marks a heuristic (cut-restricted) solve: its status and
    bound refer to the restricted problem, so only "never beats the
    optimum" applies.  ``time_limited`` says the solve could only have
    stopped early on a time limit, which the workload forbids.
    """
    problems = []
    if status not in STATUSES:
        return [f"unknown status {status!r}"]
    if time_limited and status in ("feasible", "limit_reached"):
        problems.append(f"status {status} came from a time limit")
    tol = RTOL * max(1.0, abs(optimum))
    better = (lambda a, b: a > b + tol) if sense == "max" else (lambda a, b: a < b - tol)
    if objective is not None and better(objective, optimum):
        problems.append(f"objective {objective!r} beats the optimum {optimum!r}")
    if approx:
        return problems
    if status == "infeasible":
        problems.append(f"claims infeasible; HiGHS optimum {optimum!r}")
    if status == "optimal" and (objective is None
                                or not same_objective(objective, optimum)):
        problems.append(f"'optimal' objective {objective!r} != HiGHS {optimum!r}")
    if bound is not None and math.isfinite(bound) and better(optimum, bound):
        problems.append(f"bound {bound!r} is on the wrong side of the "
                        f"optimum {optimum!r} for sense {sense}")
    return problems


def count_failures(items) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over (item name, problems) pairs."""
    attempted = failed = 0
    messages = []
    for name, problems in items:
        attempted += 1
        if problems:
            failed += 1
            messages.append(f"{name}: " + "; ".join(problems))
    return attempted, failed, messages
