"""Bounded-variable dual simplex for LP relaxations.

``solve_lp`` is the one-shot entry point; ``LpWorkspace`` keeps the
constraint matrix of one instance around so branch and bound can
re-solve under changed variable bounds with warm starts.  Every solve
runs the one kernel, ``_kernels.dual_core``, from up to two starts in
order until one proves a status: a given warm basis, resumed from the
dual state its snapshot carries when it holds one; then the slack basis
with each structural on the bound its cost favours.  A warm attempt that
fails (iteration cap, tiny pivot, singular basis) counts one fallback
and hands over to the cold start; a failed cold attempt raises.

Phase 1 is the subproblem method (Fourer 1994; compared by Koberstein &
Suhl 2007).  When the kernel refuses a basis that does not price dual
feasible (a cost toward an infinite bound, a stale warm basis, fresh
prices that drifted at the end), one more call from that basis and
state solves the LP with the same costs under unit boxes (``_boxes``).
That LP is feasible at z = 0, and the basis is dual feasible for it once
each nonbasic column takes the side its reduced cost favours.  Its
optimal basis prices dual feasible under the true bounds exactly when
some basis does; the solve then resumes from phase 1's state, since a
change of bounds keeps the inverse and the reduced costs.  Otherwise the
LP is infeasible or unbounded, and a last call with zero costs from the
slack basis (dual feasible for any bounds) proves which.  No box size
and no enlarging loop: every reported status is a proof.  No generated
class needs phase 1.

A solve that a call with the true costs proved hands that call's end
state (``_kernels.DualState``) out in its ``WarmStart``; the next warm
solve given that snapshot starts from the state instead of
refactorizing, and takes the state out of the snapshot, since the
kernel updates it in place.  A caller that means to start two solves
from one snapshot gives the second a ``WarmStart`` of its own state copy
(``DualState.copy()``), as branch and bound does for a parked sibling.
``LpSolution.iterations`` counts the pivots (basis changes and bound
flips) of the attempt that proved the status, phase 1 included.

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

import numpy as np

from . import _kernels
from .core import MAXIMIZE, MipInstance, canonicalize

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
    # failed attempts before this one: 1 when a warm attempt failed (the
    # iteration cap, a tiny pivot, a singular basis, or prices that drifted
    # again after phase 1) and the cold start proved the status, else 0;
    # phase 1 is part of an attempt, not a fallback
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

    ``state`` is the kernel's end state for this basis, None when the
    zero-cost call after phase 1 proved the snapshot's solve.  The solve
    given the snapshot takes the state out (sets it to None) and resumes
    from it; later solves from the same snapshot refactorize.  So a second solve
    that should resume too gets its own snapshot, ``WarmStart(basis,
    vstat, state.copy())``, made before the first solve runs; a
    snapshot holding only the basis is ``WarmStart(basis, vstat)``.
    """

    basis: np.ndarray
    vstat: np.ndarray
    state: _kernels.DualState | None = None


def _boxes(low, upp):
    """Phase 1 bounds: [-1, 1] for a free column, [0, 1] for a lower
    bound alone, [-1, 0] for an upper bound alone, [0, 0] for two."""
    return (np.where(np.isfinite(low), 0.0, -1.0),
            np.where(np.isfinite(upp), 0.0, 1.0))


class LpWorkspace:
    """LP data for one minimization instance, reusable across solves.

    ``sparse`` holds the entries the instance stores (``inst.rows``) as
    the kernels' ``SparseBlock``: the constraint matrix ``G = [A | -I]``
    exists only in these two forms, the slack block ``-I`` implicit.
    The workspace keeps no basis inverse; one lives on only in the
    ``WarmStart.state`` a dual solve hands out.
    """

    def __init__(self, inst: MipInstance):
        if inst.sense != "min":
            raise ValueError("LpWorkspace expects a canonical (min) instance")
        ra = inst.rows
        self.n, self.m = n, m = inst.n_vars, len(inst.row_names)
        self.sparse = _kernels.sparse_block(ra, n)
        self.c = np.concatenate((inst.objective_vector(), np.zeros(m)))
        self.base_low = np.concatenate(([v.lb for v in inst.variables], ra.lhs))
        self.base_upp = np.concatenate(([v.ub for v in inst.variables], ra.rhs))
        self.max_iter = 2000 + 30 * (n + m)
        self.bland_after = 10 * (n + m)

    def _signed_slack_start(self, low, upp):
        """The slack basis with each structural at its lower bound if its
        cost is positive and at its upper bound if negative, then snapped
        onto finite bounds (``_snap_vstat``): a zero-cost column takes its
        lower bound where finite, else its upper, else free.  It prices d
        = c, so it is dual feasible unless some cost points at an
        infinite bound."""
        n, m = self.n, self.m
        vstat = np.full(n + m, _kernels.BASIC, dtype=np.int8)
        vstat[:n] = np.where(self.c[:n] < 0.0, _kernels.AT_UPPER,
                             _kernels.AT_LOWER)
        self._snap_vstat(vstat, low, upp)
        return np.arange(n, n + m, dtype=np.int64), vstat

    @staticmethod
    def _snap_vstat(vstat, low, upp):
        """Put every nonbasic status on a finite bound where one exists.

        A status whose bound is no longer finite moves to the other
        bound, or to free; a free nonbasic (which sits at 0) moves to a
        bound that has become finite (the lower one when both have),
        since 0 may lie outside it now.  One lookup in ``_SNAP``.
        """
        vstat[:] = _SNAP[4 * vstat + 2 * np.isfinite(low) + np.isfinite(upp)]

    def _package(self, status, iters, basis, vstat, z, y, d, state,
                 fallbacks):
        n = self.n
        # the solution and the snapshot share one vstat copy; neither
        # changes it (a solve from the snapshot works on its own copy).
        # y is priced afresh; d is the carried state's reduced costs, which
        # the next solve from it updates in place
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
        return sol, WarmStart(basis.copy(), vstat, state)

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
        for basis, vstat, state in self._starts(low, upp, warm):
            try:
                out = self._attempt(low, upp, basis, vstat, state)
            except np.linalg.LinAlgError as exc:
                last_exc = exc
            else:
                if out[0] in _STATUS_NAME:
                    return self._package(*out, fallbacks)
                # ITER_LIMIT, NUMERICAL, or prices that drifted again
                last_exc = RuntimeError(
                    f"simplex did not converge (code {out[0]})")
            fallbacks += 1
        raise RuntimeError(f"simplex failed: {last_exc}")

    def _starts(self, low, upp, warm):
        """(basis, vstat, dual state) of each attempt in the order tried:
        the snapshot's basis, resumed from its carried state when it holds
        one (taken out of the snapshot), then the cost-signed slack basis,
        built only when its attempt comes up."""
        if warm is not None:
            # bound changes keep the old optimal basis dual feasible, so a
            # dual re-solve is usually a handful of pivots
            state, warm.state = warm.state, None
            yield warm.basis.copy(), warm.vstat.copy(), state
        yield (*self._signed_slack_start(low, upp), None)

    def _run(self, c, low, upp, basis, vstat, z, state=None):
        return _kernels.dual_core(
            self.sparse, c, low, upp, basis, vstat, z, FEAS_TOL, PIVOT_TOL,
            self.max_iter, self.bland_after, REFACTOR_EVERY, start=state)

    def _attempt(self, low, upp, basis, vstat, state):
        """The dual kernel from one start, through phase 1 when the start
        (or the basis it ends on) does not price dual feasible; return
        (status, pivots, basis, vstat, z, y, d, end state).  pivots sum
        over the kernel calls; the end state is None when no call with the
        true costs proved the status."""
        self._snap_vstat(vstat, low, upp)
        z = np.zeros(self.n + self.m)
        status, iters, y, d, state = self._run(self.c, low, upp, basis,
                                               vstat, z, state)
        if status != _kernels.NOT_DUAL_FEASIBLE:
            return status, iters, basis, vstat, z, y, d, state
        # phase 1: the same basis, costs and state under unit boxes, each
        # nonbasic column on the side its reduced cost favours
        nonbasic = vstat != _kernels.BASIC
        vstat[nonbasic] = np.where(d[nonbasic] < 0.0, _kernels.AT_UPPER,
                                   _kernels.AT_LOWER)
        status, pivots, y, d, state = self._run(self.c, *_boxes(low, upp),
                                                basis, vstat, z, state)
        iters += pivots
        if status != _kernels.OPTIMAL:
            # the boxed LP has an optimum, so no other status is a proof
            if status in _STATUS_NAME:
                status = _kernels.NUMERICAL
            return status, iters, basis, vstat, z, y, d, None
        self._snap_vstat(vstat, low, upp)
        if not _kernels._improving(vstat, d, 10.0 * FEAS_TOL).any():
            # a bound change keeps T and d valid: no refactorization
            status, pivots, y, d, state = self._run(self.c, low, upp, basis,
                                                    vstat, z, state)
            return status, iters + pivots, basis, vstat, z, y, d, state
        # no basis prices dual feasible, so the LP is infeasible or
        # unbounded; zero costs make the slack basis dual feasible, and
        # that solve tells which
        basis, vstat = self._signed_slack_start(low, upp)
        status, pivots, _, _, state = self._run(np.zeros_like(self.c), low,
                                                upp, basis, vstat, z)
        if status == _kernels.OPTIMAL:
            status = _kernels.UNBOUNDED
        y, d = _kernels._price(self.sparse, self.c, basis, state.T)
        return status, iters + pivots, basis, vstat, z, y, d, None


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
