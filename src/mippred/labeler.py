"""Stability labels for binary variables via iterated proximity search.

Starting from a first feasible solution, each round solves an auxiliary
problem whose objective is the Hamming distance to the current solution
over the binaries and whose feasible points improve on its objective by
at least delta.  The search stops at its first incumbent, so a round
takes an improving solution, not necessarily the nearest one.  The
rounds stop when no improving solution is found or an iteration cap is
hit.
A binary variable that keeps one value across the whole trace is labeled
stable at that value; variables that flip at least once are unstable and
are excluded from training downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    MipInstance,
    Solution,
    canonicalize,
    check_keys,
    evaluate_solution,
    hamming_coeffs,
    read_json,
    write_json,
)
from . import bnb

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


def initial_solution(inst: MipInstance, base_time_limit_s: float = 5.0):
    """(first feasible solution within 63 times ``base_time_limit_s``, root
    LP bound of the canonical instance).

    The budget is that of an attempt at the base limit followed by five
    retries, each with double the last one's limit; as the search is
    deterministic, one search under the whole budget finds the same
    solution no later, and its first recorded bound is the root LP's.
    A proved-infeasible instance fails as soon as the search proves it.
    """
    res = bnb.solve(inst, bnb.BnbConfig(time_limit_s=63.0 * base_time_limit_s,
                                        mode=bnb.FIRST_FEASIBLE))
    if res.incumbent is not None:
        return res.incumbent, res.lb_history[0]
    if res.status == bnb.INFEASIBLE:
        raise NoFeasibleSolutionError(f"instance {inst.name!r} is infeasible")
    raise NoFeasibleSolutionError(
        f"no feasible solution for {inst.name!r} within the capped budget")


def proximity_step(inst: MipInstance, x_bar: Solution, delta: float,
                   time_limit_s: float = math.inf) -> Solution | None:
    """One proximity round: an improving solution, or None.

    The auxiliary problem keeps the original rows and bounds, replaces
    the objective with the Hamming distance to ``x_bar`` over the binary
    variables, and adds a cutoff row forcing an objective improvement of
    at least ``delta``.  It is solved in first-feasible mode, so the
    result is the search's first incumbent, which need not be the
    nearest improving solution; it is re-evaluated under the original
    objective.
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    if not x_bar.feasible:
        raise ValueError("x_bar must be feasible")
    canon = canonicalize(inst)
    c = canon.c
    cut_cols = np.flatnonzero(c)
    if not cut_cols.size:
        return None  # constant objective: nothing can improve
    obj_bar = float(np.dot(c, x_bar.values))
    aux = replace(
        canon,
        name=f"{canon.name}-prox",
        rows=canon.rows.with_row(cut_cols, c[cut_cols], -math.inf,
                                 obj_bar - delta),
        row_names=canon.row_names + ["prox_cutoff"],
        c=hamming_coeffs(x_bar.values, canon.binary_indices()),
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
    x0, lb = initial_solution(inst, cfg.base_time_limit_s)
    obj0 = float(np.dot(canonicalize(inst).c, x0.values))
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
    bins = inst.binary_indices()
    vals = np.rint([sol.values[bins] for sol in solutions])
    stable = (vals == vals[0]).all(axis=0)
    return LabelSet(
        instance=inst.name,
        var_names=[inst.var_names[j] for j in bins],
        labels=np.where(stable, np.where(vals[0] == 1.0, STABLE1, STABLE0),
                        UNSTABLE).tolist(),
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
    check_keys(data, {"instance", "delta", "iterations", "labels", "trace"},
               "label file")
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
    write_json(path, labelset_to_dict(ls))


def read_labels(path) -> LabelSet:
    return read_json(path, labelset_from_dict)
