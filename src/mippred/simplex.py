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
its final basis does not price dual feasible from scratch.  A start is
built only when its attempt comes up.  An LP without rows takes the
same path.  The kernels in ``_kernels`` are one interpreted numpy path
with deterministic pivot rules; nothing selects between
implementations.  They read the constraint matrix only through the
nonzeros of its structural block, so a pivot row or a pricing costs
O(nnz + m), and the dual kernel updates its reduced costs pivot by
pivot between refactorizations.  The explicit basis inverse is stored
transposed and sized by its live part, the k rows whose slack is
nonbasic (k basic structurals): the steepest-edge product and the
rank-1 update are O(m k) per pivot, a refactorization inverts only the
k x k kernel.  A solve that the dual kernel settles hands its end
state (``_kernels.DualState``: the transposed inverse, reduced costs,
steepest-edge weights and pivots since the last refactorization) out
in its ``WarmStart``; the next warm solve given that snapshot starts
its dual attempt from the state instead of refactorizing, and takes
the state out of the snapshot, since the kernel updates it in place.
A caller that means to start two solves from one snapshot gives the
second a ``WarmStart`` of its own state copy (``DualState.copy()``),
as branch and bound does for a parked sibling.  Every other attempt
starts by refactorizing its basis: cold ones, the primal core, and a
warm dual attempt whose snapshot holds no state.
``LpSolution.iterations`` counts the pivots (basis changes and bound
flips) of the attempt that proved the status.

Conventions: the relaxation is solved in minimization form (maximize
instances are canonicalized internally and the reported objective is
negated back to the original sense); an unbounded LP reports objective
-inf in that form.  Row duals and reduced costs
always refer to the minimization form.  A ranged row ``lhs <= a.x <=
rhs`` reports status AtLower/AtUpper when active at the corresponding
side and Basic when slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

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
# status names indexed by vstat code; nonbasic free variables sit at
# value 0 and are reported as at_lower
_VSTAT_NAME = np.empty(4, dtype=object)
_VSTAT_NAME[[_kernels.BASIC, _kernels.AT_LOWER, _kernels.AT_UPPER,
             _kernels.FREE]] = [BASIC, AT_LOWER, AT_UPPER, AT_LOWER]
# the status _snap_vstat gives, indexed by 4 * vstat + 2 * (lower bound
# finite) + (upper bound finite); one line per vstat code, in code order
_B, _L, _U, _F = (_kernels.BASIC, _kernels.AT_LOWER, _kernels.AT_UPPER,
                  _kernels.FREE)
_SNAP = np.array([
    # finite: neither, upper, lower, both
    _B, _B, _B, _B,  # basic
    _F, _U, _L, _L,  # at lower
    _F, _U, _L, _U,  # at upper
    _F, _U, _L, _L,  # free
], dtype=np.int8)


@dataclass
class LpSolution:
    """One LP result.  ``vstat`` holds the kernel's status codes of the
    n structurals followed by the m row slacks; ``var_status`` and
    ``row_status`` name them on demand."""

    status: str
    x: np.ndarray
    objective: float
    duals: np.ndarray
    reduced_costs: np.ndarray
    vstat: np.ndarray
    iterations: int
    # failed attempts before this one: dual -> primal, warm -> cold, and
    # tries lost to a singular basis or non-convergence
    fallbacks: int = 0

    @property
    def var_status(self) -> list[str]:
        return _VSTAT_NAME[self.vstat[:len(self.x)]].tolist()

    @property
    def row_status(self) -> list[str]:
        return _VSTAT_NAME[self.vstat[len(self.x):]].tolist()


@dataclass
class WarmStart:
    """Basis snapshot reusable by a later solve on the same workspace.

    ``state`` is the dual kernel's end state for this basis when a dual
    attempt proved the snapshot's solve, else None.  The solve given the
    snapshot takes the state out (sets it to None) and resumes from it;
    later solves from the same snapshot refactorize.  So a second solve
    that should resume too gets its own snapshot, ``WarmStart(basis,
    vstat, state.copy())``, made before the first solve runs; a
    snapshot holding only the basis is ``WarmStart(basis, vstat)``.
    """

    basis: np.ndarray
    vstat: np.ndarray
    state: _kernels.DualState | None = None


class LpWorkspace:
    """LP data for one minimization instance, reusable across solves.

    ``rows`` keeps the instance's ``core.row_arrays``, and ``sparse`` is
    the same entries as the kernels' ``SparseBlock``: the constraint
    matrix ``G = [A | -I]`` exists only in these forms, the slack block
    ``-I`` implicit.  The workspace keeps no basis inverse; one lives on
    only in the ``WarmStart.state`` a dual solve hands out.
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
        self.sparse = _kernels.sparse_block(rows, n)
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
        bound that has become finite (the lower one when both have),
        since 0 may lie outside it now.  One lookup in ``_SNAP``.
        """
        vstat[:] = _SNAP[4 * vstat + 2 * np.isfinite(low) + np.isfinite(upp)]

    def _package(self, status, basis, vstat, z, y, d, iters, fallbacks,
                 end):
        n = self.n
        # the solution and the snapshot share one vstat copy; neither
        # changes it (a solve from the snapshot works on its own copy).
        # y is priced afresh by either kernel; d is the carried state's
        # reduced costs, which the next solve from it updates in place
        vstat = vstat.copy()
        sol = LpSolution(
            status=_STATUS_NAME[status],
            x=z[:n].copy(),
            objective=(-np.inf if status == _kernels.UNBOUNDED
                       else float(np.dot(self.c, z))),
            duals=y,
            reduced_costs=d[:n].copy(),
            vstat=vstat,
            iterations=int(iters),
            fallbacks=fallbacks,
        )
        return sol, WarmStart(basis.copy(), vstat, *end)

    def solve(self, low_struct=None, upp_struct=None, warm: WarmStart | None = None):
        """Solve under optional structural bound arrays; return (LpSolution, WarmStart)."""
        n, m = self.n, self.m
        low = self.base_low.copy()
        upp = self.base_upp.copy()
        if low_struct is not None:
            low[:n] = low_struct
        if upp_struct is not None:
            upp[:n] = upp_struct

        fallbacks = 0
        last_exc = None
        for core, basis, vstat, max_iter in self._attempts(low, upp, warm):
            self._snap_vstat(vstat, low, upp)
            z = np.zeros(n + m)
            try:
                # the dual kernel also returns its end state
                status, iters, y, d, *end = core(
                    self.sparse, self.c, low, upp, basis, vstat, z,
                    FEAS_TOL, PIVOT_TOL, max_iter, self.bland_after,
                    REFACTOR_EVERY,
                )
            except np.linalg.LinAlgError as exc:
                last_exc = exc
                fallbacks += 1
                continue
            if status in _STATUS_NAME:
                return self._package(status, basis, vstat, z, y, d, iters,
                                     fallbacks, end)
            # NOT_DUAL_FEASIBLE, ITER_LIMIT or NUMERICAL
            last_exc = RuntimeError(f"simplex did not converge (code {status})")
            fallbacks += 1
        raise RuntimeError(f"simplex failed: {last_exc}")

    def _attempts(self, low, upp, warm):
        """(kernel, basis, vstat, iteration cap) in the order tried; each
        start is built only when its attempt comes up."""
        if warm is not None:
            # bound changes keep the old optimal basis dual feasible, so a
            # dual re-solve is usually a handful of pivots, resumed from
            # the carried state when the snapshot holds one; then the
            # primal core from that basis
            state, warm.state = warm.state, None
            dual = (_kernels.dual_core if state is None
                    else partial(_kernels.dual_core, start=state))
            yield (dual, warm.basis.copy(), warm.vstat.copy(),
                   self.dual_max_iter)
            yield (_kernels.simplex_core, warm.basis.copy(),
                   warm.vstat.copy(), self.max_iter)
        else:
            # cold: the dual kernel from the cost-signed slack basis first
            start = self._signed_slack_start(low, upp)
            if start is not None:
                yield (_kernels.dual_core, *start, self.max_iter)
        yield (_kernels.simplex_core, *self._cold_start(low, upp),
               self.max_iter)


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
