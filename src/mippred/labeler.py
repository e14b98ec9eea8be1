"""Stability labels for binary variables via iterated proximity search.

Starting from a first feasible solution, each round solves an auxiliary
problem that asks for the nearest solution (in Hamming distance over the
binaries) whose objective improves on the current one by at least delta.
The rounds stop when no such solution exists or an iteration cap is hit.
A binary variable that keeps one value across the whole trace is labeled
stable at that value; variables that flip at least once are unstable and
are excluded from training downstream.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    BINARY,
    Constraint,
    MipInstance,
    Solution,
    canonicalize,
    evaluate_solution,
    hamming_coeffs,
)
from . import bnb
from .simplex import OPTIMAL as LP_OPTIMAL
from .simplex import LpWorkspace

STABLE0 = "stable0"
STABLE1 = "stable1"
UNSTABLE = "unstable"

_LABEL_VALUES = (STABLE0, STABLE1, UNSTABLE)


class NoFeasibleSolutionError(RuntimeError):
    """Raised when no feasible starting solution is found in the budget."""


@dataclass
class LabelConfig:
    max_iters: int = 40
    base_time_limit_s: float = 5.0


@dataclass
class LabelSet:
    """Labels for every binary variable of one instance plus the trace.

    ``var_names`` lists the binary variables in instance index order and
    ``labels`` is aligned with it.  ``solutions`` holds the full trace
    when produced in-process; a set read back from disk keeps only the
    objective trace.
    """

    instance: str
    var_names: list[str]
    labels: list[str]
    delta_used: float
    iterations: int
    trace: list[float] = field(default_factory=list)
    solutions: list[Solution] = field(default_factory=list)

    def as_dict(self) -> dict[str, str]:
        return dict(zip(self.var_names, self.labels))

    def stable_mask(self) -> np.ndarray:
        return np.array([lab != UNSTABLE for lab in self.labels], dtype=bool)

    def targets(self) -> np.ndarray:
        """0/1 targets aligned with var_names; unstable entries are 0 and
        only meaningful under the stable mask."""
        return np.array([1.0 if lab == STABLE1 else 0.0 for lab in self.labels])


def initial_solution(inst: MipInstance, base_time_limit_s: float = 5.0) -> Solution:
    """First feasible solution within 63 times ``base_time_limit_s``.

    The budget is that of an attempt at the base limit followed by five
    retries, each with double the last one's limit; as the search is
    deterministic, one search under the whole budget finds the same
    solution no later.  A proved-infeasible instance fails as soon as
    the search proves it.
    """
    res = bnb.solve(inst, bnb.BnbConfig(time_limit_s=63.0 * base_time_limit_s,
                                        mode=bnb.FIRST_FEASIBLE))
    if res.incumbent is not None:
        return res.incumbent
    if res.status == bnb.INFEASIBLE:
        raise NoFeasibleSolutionError(f"instance {inst.name!r} is infeasible")
    raise NoFeasibleSolutionError(
        f"no feasible solution for {inst.name!r} within the capped budget")


def proximity_step(inst: MipInstance, x_bar: Solution, delta: float,
                   time_limit_s: float = math.inf) -> Solution | None:
    """One proximity round: nearest improving solution, or None.

    The auxiliary problem keeps the original rows and bounds, replaces
    the objective with the Hamming distance to ``x_bar`` over the binary
    variables, and adds a cutoff row forcing an objective improvement of
    at least ``delta``.  It is solved in first-feasible mode; the result
    is re-evaluated under the original objective.
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    if not x_bar.feasible:
        raise ValueError("x_bar must be feasible")
    canon = canonicalize(inst)
    c = canon.objective_vector()
    cut_coeffs = {j: float(c[j]) for j in range(canon.n_vars) if c[j] != 0.0}
    if not cut_coeffs:
        return None  # constant objective: nothing can improve
    obj_bar = float(np.dot(c, x_bar.values))
    cutoff = Constraint(name="prox_cutoff", coeffs=cut_coeffs,
                        lhs=-math.inf, rhs=obj_bar - delta)
    aux = MipInstance(
        name=f"{canon.name}-prox",
        sense="min",
        variables=list(canon.variables),
        constraints=list(canon.constraints) + [cutoff],
        objective=hamming_coeffs(x_bar.values, canon.binary_indices()),
    )
    res = bnb.solve(aux, bnb.BnbConfig(time_limit_s=time_limit_s,
                                       mode=bnb.FIRST_FEASIBLE))
    if res.incumbent is None:
        return None
    return evaluate_solution(inst, res.incumbent.values)


def generate_labels(inst: MipInstance,
                    cfg: LabelConfig | None = None) -> LabelSet:
    """Full labeling run: initial solution, delta, rounds, labels.

    Delta is one percent of the gap between the starting objective and
    the root relaxation bound, floored at 1e-6*(1+|obj|) when that gap
    is nonpositive or the bound is not finite.
    """
    if cfg is None:
        cfg = LabelConfig()
    x0 = initial_solution(inst, cfg.base_time_limit_s)
    canon = canonicalize(inst)
    c = canon.objective_vector()
    obj0 = float(np.dot(c, x0.values))
    root_lp, _ = LpWorkspace(canon).solve()
    lb = root_lp.objective if root_lp.status == LP_OPTIMAL else -math.inf
    delta = 0.01 * (obj0 - lb)
    if not math.isfinite(delta) or delta <= 0.0:
        delta = 1e-6 * (1.0 + abs(obj0))
    solutions = [x0]
    current = x0
    for _ in range(cfg.max_iters):
        nxt = proximity_step(inst, current, delta,
                             time_limit_s=cfg.base_time_limit_s)
        if nxt is None:
            break
        solutions.append(nxt)
        current = nxt
    return _labels_from_trace(inst, solutions, delta)


def _labels_from_trace(inst: MipInstance, solutions: list[Solution],
                       delta: float) -> LabelSet:
    bins = [j for j, v in enumerate(inst.variables) if v.vtype == BINARY]
    names = [inst.variables[j].name for j in bins]
    vals = np.array([[round(float(sol.values[j])) for j in bins]
                     for sol in solutions], dtype=np.int8)
    labels = []
    for b in range(len(bins)):
        col = vals[:, b]
        if np.all(col == col[0]):
            labels.append(STABLE1 if col[0] == 1 else STABLE0)
        else:
            labels.append(UNSTABLE)
    return LabelSet(
        instance=inst.name,
        var_names=names,
        labels=labels,
        delta_used=float(delta),
        iterations=len(solutions),
        trace=[float(sol.objective) for sol in solutions],
        solutions=solutions,
    )


# ---------------------------------------------------------------------------
# Label files


def labelset_to_dict(ls: LabelSet) -> dict:
    return {
        "instance": ls.instance,
        "delta": ls.delta_used,
        "iterations": ls.iterations,
        "labels": ls.as_dict(),
        "trace": list(ls.trace),
    }


def labelset_from_dict(data: dict) -> LabelSet:
    expected = {"instance", "delta", "iterations", "labels", "trace"}
    unknown = set(data) - expected
    if unknown:
        raise ValueError(f"unknown label file keys: {sorted(unknown)}")
    missing = expected - set(data)
    if missing:
        raise ValueError(f"missing label file keys: {sorted(missing)}")
    labels = data["labels"]
    for name, lab in labels.items():
        if lab not in _LABEL_VALUES:
            raise ValueError(f"bad label {lab!r} for variable {name!r}")
    return LabelSet(
        instance=data["instance"],
        var_names=list(labels),
        labels=list(labels.values()),
        delta_used=float(data["delta"]),
        iterations=int(data["iterations"]),
        trace=[float(v) for v in data["trace"]],
    )


def write_labels(path, ls: LabelSet) -> None:
    with open(path, "w") as fh:
        json.dump(labelset_to_dict(ls), fh, indent=1)
        fh.write("\n")


def read_labels(path) -> LabelSet:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    try:
        return labelset_from_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
