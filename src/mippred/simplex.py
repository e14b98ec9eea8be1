"""Bounded-variable dual and primal simplex for LP relaxations.

``solve_lp`` is the one-shot entry point; ``LpWorkspace`` keeps the
constraint matrix of one instance around so branch and bound can
re-solve under changed variable bounds with warm starts.  A solve tries,
in order, until one attempt proves a status:

- warm (a basis from an earlier solve is given): the dual simplex from
  that basis, then the primal core from it, then a cold primal start;
- cold: the dual simplex from the slack basis with each structural on
  the bound its cost favours (dual feasible by construction; skipped
  when some cost points at an infinite bound), then a cold primal start.

Each failed attempt counts one fallback; a dual attempt also fails when
its final basis does not price dual feasible from scratch.  The kernels
in ``_kernels`` are one interpreted numpy path with deterministic pivot
rules; nothing selects between implementations.  They read the
structural block only through its nonzeros, so a pivot row or a pricing
costs O(nnz + m), and the dual kernel updates its reduced costs pivot by
pivot between refactorizations.  The explicit m x m basis inverse
stays: the steepest-edge product ``Binv @ Binv[r]`` and the rank-1
update are O(m^2) per pivot, a refactorization O(m^3).

Conventions: the relaxation is solved in minimization form (maximize
instances are canonicalized internally and the reported objective is
negated back to the original sense).  Row duals and reduced costs
always refer to the minimization form.  A ranged row ``lhs <= a.x <=
rhs`` reports status AtLower/AtUpper when active at the corresponding
side and Basic when slack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import MAXIMIZE, MipInstance, canonicalize, row_arrays

FEAS_TOL = 1e-7
PIVOT_TOL = 1e-9
REFACTOR_EVERY = 100

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

BASIC = "basic"
AT_LOWER = "at_lower"
AT_UPPER = "at_upper"

_STATUS_NAME = {
    _kernels.OPTIMAL: OPTIMAL,
    _kernels.INFEASIBLE: INFEASIBLE,
    _kernels.UNBOUNDED: UNBOUNDED,
}
_VSTAT_NAME = {
    _kernels.BASIC: BASIC,
    _kernels.AT_LOWER: AT_LOWER,
    _kernels.AT_UPPER: AT_UPPER,
    # nonbasic free variables sit at value 0; reported as at_lower
    _kernels.FREE: AT_LOWER,
}


@dataclass
class LpSolution:
    status: str
    x: np.ndarray
    objective: float
    duals: np.ndarray
    reduced_costs: np.ndarray
    var_status: list[str]
    row_status: list[str]
    iterations: int
    # failed attempts before this one: dual -> primal, warm -> cold, and
    # tries lost to a singular basis or non-convergence
    fallbacks: int = 0


@dataclass
class WarmStart:
    """Basis snapshot reusable by a later solve on the same workspace."""

    basis: np.ndarray
    vstat: np.ndarray


class LpWorkspace:
    """LP data for one minimization instance, reusable across solves.

    ``rows`` keeps the instance's ``core.row_arrays``.  From them come
    ``sparse``, the structural block as the kernels' ``SparseBlock`` (the
    slack block ``-I`` is implicit), and the dense ``G`` (the rows, then
    minus the identity for the row activities), which is read only to
    refactorize a basis and by branch and bound's row checks.
    """

    def __init__(self, inst: MipInstance):
        if inst.sense != "min":
            raise ValueError("LpWorkspace expects a canonical (min) instance")
        self.inst = inst
        n = inst.n_vars
        m = len(inst.constraints)
        self.n = n
        self.m = m
        N = n + m
        self.rows = rows = row_arrays(inst)
        self.sparse = sp = _kernels.sparse_block(rows, n)
        G = np.zeros((m, N))
        G[sp.rid, sp.cols] = sp.vals
        G[np.arange(m), n + np.arange(m)] = -1.0
        self.G = G
        self.c = np.concatenate((inst.objective_vector(), np.zeros(m)))
        self.base_low = np.concatenate(
            ([v.lb for v in inst.variables], rows.lhs))
        self.base_upp = np.concatenate(
            ([v.ub for v in inst.variables], rows.rhs))
        self.max_iter = 2000 + 30 * N
        self.bland_after = 10 * N
        # warm re-solves from a dual-feasible basis should take few pivots;
        # past this cap the primal fallback is the better bet
        self.dual_max_iter = 500 + 2 * m

    def _cold_start(self, low, upp):
        n, m = self.n, self.m
        basis = np.arange(n, n + m, dtype=np.int64)
        vstat = np.where(np.isfinite(low), _kernels.AT_LOWER,
                         np.where(np.isfinite(upp), _kernels.AT_UPPER,
                                  _kernels.FREE)).astype(np.int8)
        vstat[n:] = _kernels.BASIC
        return basis, vstat

    def _signed_slack_start(self, low, upp):
        """The slack basis with each structural at its lower bound if its
        cost is positive and at its upper bound if negative (zero-cost
        ones as in ``_cold_start``).  It prices d = c, so it is dual
        feasible; None when some cost points at an infinite bound."""
        n = self.n
        c = self.c[:n]
        if (((c > 0.0) & ~np.isfinite(low[:n]))
                | ((c < 0.0) & ~np.isfinite(upp[:n]))).any():
            return None
        basis, vstat = self._cold_start(low, upp)
        vstat[:n] = np.where(c > 0.0, _kernels.AT_LOWER,
                             np.where(c < 0.0, _kernels.AT_UPPER, vstat[:n]))
        return basis, vstat

    @staticmethod
    def _snap_vstat(vstat, low, upp):
        """Put every nonbasic status on a finite bound where one exists.

        A status whose bound is no longer finite moves to the other
        bound, or to free; a free nonbasic (which sits at 0) moves to a
        bound that has become finite, since 0 may lie outside it now.
        """
        fin_low = np.isfinite(low)
        fin_upp = np.isfinite(upp)
        off_low = (vstat == _kernels.AT_LOWER) & ~fin_low
        off_upp = (vstat == _kernels.AT_UPPER) & ~fin_upp
        free = vstat == _kernels.FREE
        vstat[off_low] = np.where(fin_upp[off_low], _kernels.AT_UPPER, _kernels.FREE)
        vstat[off_upp] = np.where(fin_low[off_upp], _kernels.AT_LOWER, _kernels.FREE)
        vstat[free & fin_low] = _kernels.AT_LOWER
        vstat[free & ~fin_low & fin_upp] = _kernels.AT_UPPER

    def _package(self, status, basis, vstat, z, y, d, iters, fallbacks):
        n = self.n
        sol = LpSolution(
            status=_STATUS_NAME[status],
            x=z[:n].copy(),
            objective=float(np.dot(self.c, z)),
            duals=np.asarray(y, dtype=float).copy(),
            reduced_costs=np.asarray(d[:n], dtype=float).copy(),
            var_status=[_VSTAT_NAME[int(s)] for s in vstat[:n]],
            row_status=[_VSTAT_NAME[int(s)] for s in vstat[n:]],
            iterations=int(iters),
            fallbacks=fallbacks,
        )
        return sol, WarmStart(basis.copy(), vstat.copy())

    def solve(self, low_struct=None, upp_struct=None, warm: WarmStart | None = None):
        """Solve under optional structural bound arrays; return (LpSolution, WarmStart)."""
        n, m = self.n, self.m
        low = self.base_low.copy()
        upp = self.base_upp.copy()
        if low_struct is not None:
            low[:n] = low_struct
        if upp_struct is not None:
            upp[:n] = upp_struct
        if m == 0:
            return self._solve_unconstrained(low, upp)

        # (kernel, basis, vstat, iteration cap), tried in order until one
        # proves a status; each failed try counts one fallback.
        attempts = []
        if warm is not None:
            # bound changes keep the old optimal basis dual feasible, so a
            # dual re-solve is usually a handful of pivots; then the primal
            # core from that basis
            attempts.append((_kernels.dual_core, warm.basis.copy(),
                             warm.vstat.copy(), self.dual_max_iter))
            attempts.append((_kernels.simplex_core, warm.basis.copy(),
                             warm.vstat.copy(), self.max_iter))
        else:
            # cold: the dual kernel from the cost-signed slack basis first
            start = self._signed_slack_start(low, upp)
            if start is not None:
                attempts.append((_kernels.dual_core, *start, self.max_iter))
        attempts.append((_kernels.simplex_core, *self._cold_start(low, upp),
                         self.max_iter))

        fallbacks = 0
        last_exc = None
        for core, basis, vstat, max_iter in attempts:
            self._snap_vstat(vstat, low, upp)
            z = np.zeros(n + m)
            try:
                status, iters, y, d = core(
                    self.G, self.sparse, self.c, low, upp, basis, vstat, z,
                    FEAS_TOL, PIVOT_TOL, max_iter, self.bland_after,
                    REFACTOR_EVERY,
                )
            except np.linalg.LinAlgError as exc:
                last_exc = exc
                fallbacks += 1
                continue
            if status in _STATUS_NAME:
                return self._package(status, basis, vstat, z, y, d, iters,
                                     fallbacks)
            # NOT_DUAL_FEASIBLE, ITER_LIMIT or NUMERICAL
            last_exc = RuntimeError(f"simplex did not converge (code {status})")
            fallbacks += 1
        raise RuntimeError(f"simplex failed: {last_exc}")

    def _solve_unconstrained(self, low, upp):
        n = self.n
        x = np.zeros(n)
        stat = []
        for j in range(n):
            cj = self.c[j]
            if cj > 0.0 or (cj == 0.0 and np.isfinite(low[j])):
                tgt, s = low[j], AT_LOWER
            elif cj < 0.0 or np.isfinite(upp[j]):
                tgt, s = upp[j], AT_UPPER
            else:
                tgt, s = 0.0, AT_LOWER
            if not np.isfinite(tgt):
                if cj == 0.0:
                    tgt, s = 0.0, AT_LOWER
                else:
                    sol = LpSolution(UNBOUNDED, x, -np.inf, np.zeros(0), self.c[:n].copy(),
                                     [AT_LOWER] * n, [], 0)
                    return sol, WarmStart(np.zeros(0, dtype=np.int64),
                                          np.zeros(n, dtype=np.int8))
            x[j] = tgt
            stat.append(s)
        sol = LpSolution(OPTIMAL, x, float(np.dot(self.c[:n], x)), np.zeros(0),
                         self.c[:n].copy(), stat, [], 0)
        return sol, WarmStart(np.zeros(0, dtype=np.int64), np.zeros(n, dtype=np.int8))


def solve_lp(inst: MipInstance) -> LpSolution:
    """Solve the LP relaxation of an instance.

    The objective is reported in ``inst.sense``; duals and reduced costs
    refer to the minimization form.
    """
    ws = LpWorkspace(canonicalize(inst))
    sol, _ = ws.solve()
    if inst.sense == MAXIMIZE:
        sol.objective = -sol.objective
    return sol
