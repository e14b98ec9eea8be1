"""Applying predicted solution values inside the solver.

The predictions z give, per binary variable, the estimated probability
of taking value 1.  The most confident eta-fraction of variables forms
the set S with rounded values x_hat, and ``bnb.solve`` measures the
Hamming distance to x_hat on S with one distance variable d.  The
approximate pipeline bounds d by phi (a heuristic restriction, so the
resulting bound is not globally valid); the exact pipeline splits the
root of the same tree into d <= phi and d >= phi + 1, which keeps every
feasible region and only guides the search: apart from the far box's
root LP, solved once so that the bound stays finite, every node of
d <= phi is closed before any node below d >= phi + 1 is solved.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import bnb
from .core import MipInstance
from .metrics import primal_gap

APPROXIMATE = "approximate"
EXACT = "exact"

PHI_GRID = (0, 5, 10, 15, 20)
ETA_GRID = (0.8, 0.9, 0.95, 0.99, 1.0)

# tuned (phi, eta) per problem family, used when no search is run
DEFAULTS = {
    "fcnf": (0, 0.80),
    "cfl": (0, 0.95),
    "ga": (5, 0.99),
    "mis": (10, 0.90),
    "mk": (10, 0.80),
    "sc": (0, 0.90),
    "tsp": (0, 0.90),
    "vrp": (5, 0.95),
}

# mean primal gap assigned to a run that found no solution; the formula's
# attainable maximum, so any feasible outcome beats it
INFEASIBLE_GAP = 200.0


@dataclass
class ApplyConfig:
    phi: int = 0
    eta: float = 1.0
    solver: bnb.BnbConfig = field(default_factory=bnb.BnbConfig)
    mode: str = APPROXIMATE

    def validate(self) -> None:
        bnb.check_radius(self.phi)
        # a bool (a JSON true or false) is not taken as 1 or 0
        if isinstance(self.eta, bool) or not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        if self.mode not in (APPROXIMATE, EXACT):
            raise ValueError(f"unknown mode {self.mode!r}")


def select_S(z, eta: float):
    """(selected positions, rounded values) for the confident fraction.

    Positions are sorted ascending; the selection keeps the floor of
    eta*n entries with the smallest min(z_j, 1-z_j), ties by index.
    Rounding maps z_j >= 0.5 to 1.  The returned x_hat covers every
    position; only the selected entries are meant to be used.
    """
    z = np.asarray(z, float)
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    n = len(z)
    keys = np.minimum(z, 1.0 - z)
    order = np.lexsort((np.arange(n), keys))
    k = int(math.floor(eta * n))
    S = sorted(int(p) for p in order[:k])
    x_hat = (z >= 0.5).astype(float)
    return S, x_hat


def _ball(inst: MipInstance, z, cfg: ApplyConfig, exact: bool) -> bnb.HammingBall:
    cfg.validate()
    bins = inst.binary_indices()
    if len(z) != len(bins):
        raise ValueError(
            f"{len(z)} predictions for {len(bins)} binary variables")
    wanted = EXACT if exact else APPROXIMATE
    if cfg.mode != wanted:
        raise ValueError(f"ApplyConfig.mode is {cfg.mode!r}; this entry "
                         f"point runs the {wanted} pipeline")
    S_pos, x_hat_pos = select_S(z, cfg.eta)
    x_hat = np.zeros(inst.n_vars)
    x_hat[bins] = x_hat_pos
    return bnb.HammingBall(x_hat, [bins[p] for p in S_pos], cfg.phi, exact)


def approximate_solve(inst: MipInstance, z, cfg: ApplyConfig) -> bnb.SolveResult:
    """Solve inside the Hamming ball; the result is heuristic.

    ``cfg.mode`` must be ``APPROXIMATE``.  An infeasible outcome is
    legitimate: the ball may exclude every solution when the predictions
    are bad and phi is small.
    """
    return bnb.solve(inst, cfg.solver, _ball(inst, z, cfg, exact=False))


def exact_solve(inst: MipInstance, z, cfg: ApplyConfig) -> bnb.SolveResult:
    """One tree split at the root on the predicted distance; bounds stay valid.

    ``cfg.mode`` must be ``EXACT``.
    """
    return bnb.solve(inst, cfg.solver, _ball(inst, z, cfg, exact=True))


def grid_search(validation, phi_grid, eta_grid, solver: bnb.BnbConfig):
    """Best (phi, eta) by mean primal gap on the validation runs, and
    that gap: a (phi, eta, mean gap) triple.

    ``validation`` holds (instance, predictions, reference objective)
    triples.  Every pair of ``phi_grid`` x ``eta_grid`` runs the
    approximate pipeline on every instance under the budget ``solver``;
    ties prefer the smaller phi, then the larger eta.
    """
    if not phi_grid or not eta_grid:
        raise ValueError("empty parameter grid")
    if not validation:
        raise ValueError("empty validation set")
    best = None
    for phi, eta in itertools.product(phi_grid, eta_grid):
        cfg = ApplyConfig(phi=phi, eta=eta, solver=solver)
        gaps = []
        for inst, z, ref_obj in validation:
            res = approximate_solve(inst, z, cfg)
            if res.objective is None:
                gaps.append(INFEASIBLE_GAP)
            else:
                gaps.append(primal_gap(res.objective, ref_obj))
        mean_gap = float(np.mean(gaps))
        key = (mean_gap, phi, -eta)
        if best is None or key < best[0]:
            best = (key, phi, eta)
    (mean_gap, _, _), phi, eta = best
    return phi, eta, mean_gap
