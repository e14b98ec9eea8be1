"""Bounded-variable dual simplex for LP relaxations.

``solve_lp`` is the one-shot entry point; ``LpWorkspace`` keeps the
constraint matrix of one instance around so branch and bound can
re-solve under changed variable bounds with warm starts.  Every solve
runs the one simplex loop, ``dual_core``, from up to two starts in
order until one proves a status: a given warm basis, resumed from the
dual state its snapshot carries when it holds one; then the slack basis
with each structural on the bound its cost favours.  A warm attempt that
fails (iteration cap, tiny pivot, singular basis) counts one fallback
and hands over to the cold start; a failed cold attempt raises.

Statuses are strings: a solve reports ``OPTIMAL``, ``INFEASIBLE`` or
``UNBOUNDED``, each a proof, and ``dual_core`` may also end on
``ITER_LIMIT``, ``NUMERICAL`` or ``NOT_DUAL_FEASIBLE``.  Basis statuses
are the int8 codes ``BASIC``, ``AT_LOWER``, ``AT_UPPER`` and ``FREE`` in
``vstat``: the n structurals, then the m row slacks.

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
state (``DualState``) out in its ``WarmStart``; the next warm solve
given that snapshot starts from the state instead of refactorizing, and
takes the state out of the snapshot, since the kernel updates it in
place.  A caller that means to start two solves from one snapshot gives
the second a ``WarmStart`` of its own state copy
(``DualState.copy()``), as branch and bound does for a parked sibling.
``LpSolution.iterations`` counts the pivots (basis changes and bound
flips) of the attempt that proved the status, phase 1 included.

In the kernel, ``dual_core`` and its helpers, basis assembly, the
nonbasic point, pricing, the leaving-row scores and the eligibility
scans are array operations; a Python loop remains only where a rule is
sequential: the bound-flipping walk of the ratio test.  Every choice
is made with first-index ``argmax``/``argsort`` tie breaks on the same
inputs, so pivot sequences are deterministic.

A pass writes its vectors of length m or N (violations and scores,
the pricing row and its per-entry products, the eligibility mask, the
dual step and the steepest-edge update) into buffers allocated once per
call, with ufuncs in the association order of the plain expressions,
so every result is the same to the byte.  What a pass still allocates
has no fixed size or no numpy output argument: the column sums of the
pricing row (``np.bincount``), the eligible columns and their ratios,
the entering column, the gathered rows of ``T`` and the rank-1
update's outer product.  That update stays a ufunc product: a BLAS
rank-1 routine (``dger``) fuses the multiply and add, which rounds
differently and moves pivot paths, and with them labels.

The core works on the computational form ``G z = 0`` with
``G = [A | -I]``: one slack per ranged row, slack bounds equal to the
row's (lhs, rhs).  The loop reads the structural block ``A`` only
through its nonzeros (``SparseBlock``: the CSR entries plus a
column-major index) and handle ``-I`` analytically, so a pivot row
``Binv[r] @ G`` costs O(nnz + m) and ``G^T y`` O(nnz + m).  No dense
copy of ``G`` exists: a refactorization scatters the basic structural
columns from the block's entries and forms ``G @ z_N`` in O(nnz + m).

The basis inverse is kept explicit but transposed: ``T = Binv.T``, so
column i of ``Binv`` is the contiguous row ``T[i]``.  A basis with k
basic structurals leaves m - k slacks basic; the row ``T[i]`` of such
a slack's row i is exactly ``-e_p`` (p its basis position), and only
the k live rows, those whose slack is nonbasic, carry information.
``_invert`` inverts only the k x k kernel ``A[live rows, basic
structurals]`` with LAPACK (O(k^3), nothing for the all-slack basis)
and writes the rest with an O(m^2) fill and an O(m k^2) product.  Every
product with ``Binv`` goes over the live rows or over the nonzeros of
its vector, and the rank-1 update and the steepest-edge product ``Binv
@ Binv[r]`` gather only the rows of ``T`` where ``Binv[r]`` is nonzero:
O(m k) per pivot.  A column ``Binv @ G[:, q]`` adds one contiguous row
of ``T`` per entry of column q.  The update leaves the rows of basic
slacks exactly ``-e_p``, so the structure holds between
refactorizations too.

The loop starts from a dual-feasible basis: after bound changes the
optimal basis of the parent problem (it stays dual feasible when only
bounds move, so driving the handful of out-of-bound basics to their
bounds takes few pivots), and on a cold solve the slack basis with each
structural on the bound its cost favours.  Its entering choice is the
bound-flipping ratio test of the dual revised simplex (Huangfu & Hall
2018).  Its reduced costs are updated with the dual step of each pivot
(Koberstein 2005) and priced from scratch only at each refactorization
and before returning; an optimal basis whose fresh prices are not dual
feasible is not reported as optimal.  A start basis that does not price
dual feasible is refused (NOT_DUAL_FEASIBLE) with the state it was
priced in; phase 1 above reaches dual feasibility with one more call on
boxed bounds.  Pricing switches to Bland's rule after a run of
degenerate pivots, and the basis inverse is refactorized from scratch
at a fixed pivot interval.

A bound change leaves the basis matrix and the costs alone, so a
re-solve from the basis an earlier dual solve ended on need not
refactorize, reprice or recompute its steepest-edge weights: that solve
returns its end state (``DualState``: ``T``, the reduced costs, the
weights and the pivots since the last refactorization), and a
re-solve given it only places the new nonbasic point and the basic
values it implies, then resumes the loop with refactorizations on the
shared pivot count (as Huangfu & Hall and Koberstein keep the
factorization across the search tree).  The loop updates ``T``, the
reduced costs and the weights in place, so a state serves one
re-solve; a second re-solve from the same basis starts from a
``DualState.copy()``.  Without a state the kernel refactorizes.

The kernel counts pivots as moves: a pass that changes the basis or
flips a bound counts, the final pass that only proves the status does
not.  A rowless LP (m = 0) runs the same loop on empty arrays.

Conventions: the relaxation is solved in minimization form (maximize
instances are canonicalized internally and the reported objective is
negated back to the original sense); an unbounded LP reports objective
-inf in that form.  Row duals and reduced costs always refer to the
minimization form.  The slack of a ranged row ``lhs <= a.x <= rhs`` is
AT_LOWER or AT_UPPER when the row is active at that side and BASIC when
the row is slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import MAXIMIZE, MipInstance, canonicalize

FEAS_TOL = 1e-7
PIVOT_TOL = 1e-9
REFACTOR_EVERY = 100

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITER_LIMIT = "iteration_limit"
NUMERICAL = "numerical"
NOT_DUAL_FEASIBLE = "not_dual_feasible"

# nonbasic / basic codes in vstat
BASIC = 0
AT_LOWER = 1
AT_UPPER = 2
FREE = 3

# by vstat code: -1 for a column at its lower bound, +1 at its upper
# bound, 0 for basic and free columns
_SIDE = np.array([0.0, -1.0, 1.0, 0.0])
# the status _snap_vstat gives, indexed by 4 * vstat + 2 * (lower bound
# finite) + (upper bound finite); one line per vstat code, in code order
_SNAP = np.array([
    # finite: neither, upper, lower, both
    BASIC, BASIC, BASIC, BASIC,              # basic
    FREE, AT_UPPER, AT_LOWER, AT_LOWER,      # at lower
    FREE, AT_UPPER, AT_LOWER, AT_UPPER,      # at upper
    FREE, AT_UPPER, AT_LOWER, AT_LOWER,      # free
], dtype=np.int8)


class SparseBlock(NamedTuple):
    """The structural block ``A`` (m x n) of ``G = [A | -I]`` by its entries.

    ``rid``, ``cols`` and ``vals`` give each entry's row, column and
    coefficient in row-major (CSR) order; column ``q``'s entries, in
    ascending row order, are ``crow``/``cval`` at ``cptr[q]:cptr[q + 1]``.
    """

    n: int
    m: int
    rid: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    cptr: np.ndarray
    crow: np.ndarray
    cval: np.ndarray


def sparse_block(rows, n: int) -> SparseBlock:
    """``SparseBlock`` of the rows ``rows`` (a ``core.RowArrays``) over n
    structural columns."""
    rid = rows.row_ids()
    order = np.argsort(rows.cols, kind="stable")
    cptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows.cols, minlength=n), out=cptr[1:])
    return SparseBlock(n, len(rows.lhs), rid, rows.cols, rows.vals, cptr,
                       rid[order], rows.vals[order])


def _row_times(sp, u):
    """``u @ G`` for a length-m vector ``u``."""
    out = np.empty(sp.n + sp.m)
    out[:sp.n] = np.bincount(sp.cols, sp.vals * u[sp.rid], minlength=sp.n)
    out[sp.n:] = -u
    return out


def _times(sp, v):
    """``G @ v`` for a length-N vector ``v``."""
    return np.bincount(sp.rid, sp.vals * v[sp.cols], minlength=sp.m) - v[sp.n:]


def _column(sp, T, q):
    """``Binv @ G[:, q]`` as a new array."""
    if q >= sp.n:
        return -T[q - sp.n]
    lo, hi = sp.cptr[q], sp.cptr[q + 1]
    return np.dot(sp.cval[lo:hi], T.take(sp.crow[lo:hi], axis=0))


def _slack_rows(basis, n, m):
    """The slack structure of a basis: ``slack`` marks the positions that
    hold slacks, ``rows`` gives those slacks' rows in position order, and
    ``live`` marks the rows whose slack is nonbasic."""
    s = basis - n
    slack = s >= 0
    rows = s[slack]
    return slack, rows, np.bincount(rows, minlength=m) == 0


def _invert(sp, basis, sl):
    """The transposed inverse ``T`` of the basis ``G[:, basis]`` with the
    slack structure ``sl`` (``_slack_rows``).

    Ordered as (live rows, slack rows) by (structural, slack) columns,
    the basis is ``[[K, 0], [A_SK, -I]]`` with the k x k kernel ``K =
    A[live, basic structurals]``, so its inverse is ``[[K^-1, 0],
    [A_SK K^-1, -I]]``.  The k basic structural columns are scattered
    from the block's entries into one m x k array, whose live rows are
    ``K`` and whose slack rows are ``A_SK``.  LAPACK inverts only ``K``;
    the slack block is written exactly, -1 and -0.0, so the all-slack
    inverse (k = 0) has the same bytes as LAPACK's ``inv`` and takes no
    LAPACK call.
    """
    m = sp.m
    slack, rows, live = sl
    T = np.full((m, m), -0.0)
    T[rows, slack.nonzero()[0]] = -1.0
    if rows.size < m:
        struct = ~slack
        cols = basis[struct]
        pos = np.full(sp.n, -1)
        pos[cols] = np.arange(cols.size)
        p = pos[sp.cols]
        hit = p >= 0
        B = np.zeros((m, cols.size))
        B[sp.rid[hit], p[hit]] = sp.vals[hit]
        Kinv = np.linalg.inv(B[live])
        block = np.empty((m - rows.size, m))
        block[:, struct] = Kinv.T
        block[:, slack] = np.dot(B[rows], Kinv).T
        T[live] = block
    return T


def _place(sp, low, upp, basis, vstat, z, T):
    """Put ``z`` on the basic solution of the basis whose transposed
    inverse is ``T``.

    Nonbasic entries of ``z`` move to the bound named by ``vstat`` (0
    for free ones); basic entries are ``z_B = -Binv @ (G @ z_N)``, with
    ``G @ z_N`` from the block's entries in O(nnz + m).
    """
    zn = np.where(vstat == AT_LOWER, low, np.where(vstat == AT_UPPER, upp, 0.0))
    z[:] = zn
    z[basis] = -np.dot(_times(sp, zn), T)


def _factor(sp, low, upp, basis, vstat, z):
    """Invert the basis matrix (``_invert``) and put ``z`` on the basic
    solution (``_place``); return the transposed inverse."""
    T = _invert(sp, basis, _slack_rows(basis, sp.n, sp.m))
    _place(sp, low, upp, basis, vstat, z, T)
    return T


def _btran(T, cb):
    """``cb @ Binv`` over the nonzeros of ``cb``: those columns of ``T``."""
    nz = cb.nonzero()[0]
    return np.dot(T[:, nz], cb[nz])


def _ftran(T, v):
    """``Binv @ v`` over the nonzeros of ``v``."""
    nz = v.nonzero()[0]
    return np.dot(v[nz], T[nz])


def _price(sp, c, basis, T):
    """Duals and reduced costs (zero on the basis) under the true costs."""
    y = _btran(T, c[basis])
    d = c - _row_times(sp, y)
    d[basis] = 0.0
    return y, d


def _row_norms(T, sl):
    """Squared norm of each row of ``Binv`` for the slack structure
    ``sl``: the live rows' share of each column of ``T``, plus 1 at the
    positions of basic slacks."""
    slack, _, live = sl
    rows = T[live]
    return np.einsum("ij,ij->j", rows, rows) + slack


def _update(T, r, w, nz, rows):
    """Rank-1 update of ``T`` for the column ``w = Binv @ a_q`` entering
    at basis position r.  ``rows = T[nz]`` are the rows where ``Binv[r]``
    is nonzero; no other row changes."""
    f = rows[:, r] / w[r]
    rows -= np.multiply.outer(f, w)
    rows[:, r] = f
    T[nz] = rows


def _improving(vstat, g, tol):
    """Nonbasic columns whose move off their bound goes down the slope
    ``g``: side * g past ``tol`` at a bound, |g| past ``tol`` when free."""
    mask = _SIDE[vstat] * g > tol
    free = vstat == FREE
    if free.any():
        mask |= free & ((g < -tol) | (g > tol))
    return mask


class DualState(NamedTuple):
    """Where a dual solve ended, for the basis it ended on: the transposed
    inverse ``T``, the reduced costs ``d`` (priced from scratch), the
    steepest-edge weights ``beta`` and the pivots since the last
    refactorization.  A later ``dual_core`` call on the same basis and
    costs may start from it; that call updates ``T``, ``d`` and ``beta``
    in place, so a state serves one start, and a second start from the
    same basis needs its own ``copy()``, made before the first one runs."""

    T: np.ndarray
    d: np.ndarray
    beta: np.ndarray
    since_refactor: int

    def copy(self) -> DualState:
        """A state with its own arrays, for a second start."""
        return DualState(self.T.copy(), self.d.copy(), self.beta.copy(),
                         self.since_refactor)

    @property
    def nbytes(self) -> int:
        """Bytes of the state's arrays (``T`` is m x m of them)."""
        return self.T.nbytes + self.d.nbytes + self.beta.nbytes


def dual_core(sp, c, low, upp, basis, vstat, z,
              feas_tol, piv_tol, max_iter, bland_after, refactor_every,
              start=None):
    """Dual simplex from a dual-feasible basis; return (status, pivots, y,
    d, state).

    sp is the structural block of ``G`` (``SparseBlock``), c the cost
    over all N = n + m columns (slacks cost 0).  basis (m,), vstat (N,)
    and z (N,) describe the starting point: nonbasic entries of z are
    placed on the bound named by vstat; basic entries are recomputed.
    All three are updated in place so callers can warm-start the next
    call.  y and d are the duals and reduced costs priced with c (y is
    None when a carried start is refused).  pivots counts the passes
    that moved: a basis change or a bound flip, not the final pass that
    proves the status; max_iter caps the passes.

    Without ``start`` the basis is refactorized, priced and its
    steepest-edge weights computed; with ``start``, the ``DualState`` of
    an earlier solve that ended on this basis with the same costs, only
    ``z`` is placed and the loop resumes from that state, refactorizing
    on the shared pivot count.  The start basis must price dual feasible
    with c, otherwise NOT_DUAL_FEASIBLE comes back at once; so it does
    when the final basis is primal feasible but its fresh prices are not
    dual feasible.  INFEASIBLE is proved: some out-of-bound basic row
    admits no entering column, and bound flips cannot absorb the
    violation either.  state is the end state (``DualState``), the
    start's own when the start is refused.
    """
    if start is None:
        T = _factor(sp, low, upp, basis, vstat, z)
        y, d = _price(sp, c, basis, T)
        # steepest-edge row weights beta_k = ||row k of Binv||^2
        beta = _row_norms(T, _slack_rows(basis, sp.n, sp.m))
        since_refactor = 0
    else:
        T, d, beta, since_refactor = start
        _place(sp, low, upp, basis, vstat, z, T)
        y = None

    if _improving(vstat, d, 10.0 * feas_tol).any():
        return (NOT_DUAL_FEASIBLE, 0, y, d,
                DualState(T, d, beta, since_refactor))

    n, m = sp.n, sp.m
    span = upp - low
    # kept in step across pivots: the basic values and bounds by basis
    # position (the basic entries of z go stale in the loop; a
    # refactorization recomputes them and the end writes zb back), and
    # _SIDE[vstat] for the eligibility test; the free nonbasic set only
    # shrinks, so without one at the start none appears
    zb = z[basis]
    lowb = low[basis]
    uppb = upp[basis]
    side = _SIDE[vstat]
    any_free = bool((vstat == FREE).any())
    # the buffers every pass writes into: by basis position, over all
    # N = n + m columns, and one entry per nonzero of the block
    v_low, v_upp, viol, score, scale, tmp_m = np.empty((6, m))
    rho, g, tmp_big = np.empty((3, n + m))
    quiet = np.empty(m, dtype=bool)
    mask = np.empty(n + m, dtype=bool)
    row_terms = np.empty(len(sp.vals))

    pivots = 0
    degen = 0
    bland = False
    status = ITER_LIMIT

    while pivots < max_iter:
        # leaving choice: steepest-edge score viol^2 / beta, first maximum;
        # a row under its lower bound wins a tie with its own upper side
        # (with lower <= upper only one side can be violated).  Scores are
        # positive where a row is violated, so a zero maximum means none is
        if not m:
            status = OPTIMAL
            break
        np.subtract(lowb, zb, out=v_low)
        np.subtract(zb, uppb, out=v_upp)
        np.fmax(v_low, v_upp, out=viol)
        np.multiply(viol, viol, out=score)
        np.divide(score, beta, out=score)
        np.greater(viol, feas_tol, out=quiet)
        np.logical_not(quiet, out=quiet)
        np.copyto(score, 0.0, where=quiet)
        r = int(score.argmax())
        if score[r] == 0.0:
            status = OPTIMAL
            break
        below = bool(v_low[r] >= v_upp[r])

        # the pricing row rho = Binv[r] @ G, as _row_times forms it; the
        # block's row ids are in range, and "clip" spares take the copy
        # that bounds checking an out= argument costs
        tr = T[:, r]
        tr.take(sp.rid, out=row_terms, mode="clip")
        np.multiply(sp.vals, row_terms, out=row_terms)
        rho[:n] = np.bincount(sp.cols, row_terms, minlength=n)
        np.negative(tr, out=rho[n:])
        lv = basis[r]

        # entering choice: the columns whose move off their bound shrinks
        # the violation.  Walk their dual-ratio breakpoints |d_j|/|rho_j|
        # in increasing order; bounded columns passed on the way are
        # bound-flipped (each absorbs |rho_j|*range of the violation with
        # no basis change) and the breakpoint that exhausts the violation
        # enters.  Bland = first column at the smallest ratio, no flips.
        np.multiply(side, rho, out=g)
        if below:
            np.greater(g, piv_tol, out=mask)
        else:
            np.less(g, -piv_tol, out=mask)
        if any_free:
            mask |= (vstat == FREE) & ((rho < -piv_tol) | (rho > piv_tol))
        elig = mask.nonzero()[0]
        if elig.size == 0:
            status = INFEASIBLE
            break

        piv = np.abs(rho.take(elig))
        ratio = np.abs(d.take(elig))
        ratio /= piv
        flips = elig[:0]
        if bland:
            enter = int(elig[ratio.argmin()])
        else:
            # piv > 0, so an infinite span caps at inf
            cap = span.take(elig)
            cap *= piv
            order = ratio.argsort()
            rem = (lowb[r] - zb[r]) if below else (zb[r] - uppb[r])
            kk = 0
            enter = -1
            for capk in cap.take(order).tolist():
                if not capk < rem:
                    enter = int(elig[order[kk]])
                    break
                rem -= capk
                kk += 1
            if enter < 0:
                if rem > feas_tol:
                    # every breakpoint flipped yet real violation remains:
                    # the dual ray is unbounded, so the primal has no
                    # feasible point
                    status = INFEASIBLE
                    break
                # the flips alone absorb the violation up to the tolerance,
                # but without a dual step the flipped columns would sit on
                # their new bounds with the wrong reduced-cost sign; the
                # last breakpoint enters instead
                kk -= 1
                enter = int(elig[order[kk]])
            flips = elig[order[:kk]]

        if flips.size:
            up = vstat[flips] == AT_LOWER
            tmp_big.fill(0.0)
            tmp_big[flips] = np.where(up, span[flips], low[flips] - upp[flips])
            vstat[flips] = np.where(up, AT_UPPER, AT_LOWER)
            side[flips] = np.where(up, 1.0, -1.0)
            z[flips] = np.where(up, upp[flips], low[flips])
            zb -= _ftran(T, _times(sp, tmp_big))

        w = _column(sp, T, enter)
        alpha = w[r]
        if alpha <= piv_tol and alpha >= -piv_tol:
            status = NUMERICAL
            break
        pivots += 1

        bnd = lowb[r] if below else uppb[r]
        dz = (zb[r] - bnd) / alpha
        ze = z[enter] + dz
        np.multiply(w, dz, out=tmp_m)
        zb -= tmp_m
        zb[r] = ze
        lowb[r] = low[enter]
        uppb[r] = upp[enter]
        z[lv] = bnd
        vstat[lv] = AT_LOWER if below else AT_UPPER
        side[lv] = -1.0 if below else 1.0
        basis[r] = enter
        vstat[enter] = BASIC
        side[enter] = 0.0

        # dual step: the entering reduced cost goes to zero and the
        # leaving column takes -theta (its rho entry is 1)
        theta = d[enter] / rho[enter]
        np.multiply(rho, theta, out=tmp_big)
        d -= tmp_big
        d[basis] = 0.0
        d[lv] = -theta

        if dz <= 1e-10 and dz >= -1e-10:
            degen += 1
            if degen > bland_after:
                bland = True
        else:
            degen = 0

        # steepest-edge weight update (exact, using the old Binv), in
        # place as beta - ((2 * w/alpha) * tau) + ((w/alpha)^2 * beta_r),
        # and the rank-1 update, sharing one gather of the rows of T where
        # Binv[r] is nonzero
        nz = tr.nonzero()[0]
        rows = T.take(nz, axis=0)
        tau = np.dot(rows[:, r], rows)
        br = beta[r]
        np.divide(w, alpha, out=scale)
        np.multiply(scale, 2.0, out=tmp_m)
        tmp_m *= tau
        beta -= tmp_m
        np.multiply(scale, scale, out=tmp_m)
        tmp_m *= br
        beta += tmp_m
        beta[r] = br / (alpha * alpha)
        np.maximum(beta, 1e-12, out=beta)
        _update(T, r, w, nz, rows)

        since_refactor += 1
        if since_refactor >= refactor_every:
            since_refactor = 0
            T = _factor(sp, low, upp, basis, vstat, z)
            zb = z[basis]
            beta = _row_norms(T, _slack_rows(basis, n, m))
            d = _price(sp, c, basis, T)[1]

    z[basis] = zb
    y, d = _price(sp, c, basis, T)
    if status == OPTIMAL and _improving(vstat, d, 10.0 * feas_tol).any():
        status = NOT_DUAL_FEASIBLE
    return status, pivots, y, d, DualState(T, d, beta, since_refactor)


@dataclass
class LpSolution:
    """One LP result.  ``vstat`` holds the basis status codes of the n
    structurals followed by the m row slacks."""

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
    state: DualState | None = None


def _boxes(low, upp):
    """Phase 1 bounds: [-1, 1] for a free column, [0, 1] for a lower
    bound alone, [-1, 0] for an upper bound alone, [0, 0] for two."""
    return (np.where(np.isfinite(low), 0.0, -1.0),
            np.where(np.isfinite(upp), 0.0, 1.0))


class LpWorkspace:
    """LP data for one minimization instance, reusable across solves.

    ``sparse`` holds the entries the instance stores (``inst.rows``) as
    a ``SparseBlock``: the constraint matrix ``G = [A | -I]``
    exists only in these two forms, the slack block ``-I`` implicit.
    The workspace keeps no basis inverse; one lives on only in the
    ``WarmStart.state`` a dual solve hands out.
    """

    def __init__(self, inst: MipInstance):
        if inst.sense != "min":
            raise ValueError("LpWorkspace expects a canonical (min) instance")
        ra = inst.rows
        self.n, self.m = n, m = inst.n_vars, len(inst.row_names)
        self.sparse = sparse_block(ra, n)
        self.c = np.concatenate((inst.c, np.zeros(m)))
        self.base_low = np.concatenate((inst.lb, ra.lhs))
        self.base_upp = np.concatenate((inst.ub, ra.rhs))
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
        vstat = np.full(n + m, BASIC, dtype=np.int8)
        vstat[:n] = np.where(self.c[:n] < 0.0, AT_UPPER, AT_LOWER)
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
            status=status,
            x=z[:n].copy(),
            objective=(-np.inf if status == UNBOUNDED
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
                if out[0] in (OPTIMAL, INFEASIBLE, UNBOUNDED):
                    return self._package(*out, fallbacks)
                # ITER_LIMIT, NUMERICAL, or prices that drifted again
                last_exc = RuntimeError(
                    f"simplex did not converge ({out[0]})")
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
        return dual_core(
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
        if status != NOT_DUAL_FEASIBLE:
            return status, iters, basis, vstat, z, y, d, state
        # phase 1: the same basis, costs and state under unit boxes, each
        # nonbasic column on the side its reduced cost favours
        nonbasic = vstat != BASIC
        vstat[nonbasic] = np.where(d[nonbasic] < 0.0, AT_UPPER, AT_LOWER)
        status, pivots, y, d, state = self._run(self.c, *_boxes(low, upp),
                                                basis, vstat, z, state)
        iters += pivots
        if status != OPTIMAL:
            # the boxed LP has an optimum, so no other status is a proof
            if status in (INFEASIBLE, UNBOUNDED):
                status = NUMERICAL
            return status, iters, basis, vstat, z, y, d, None
        self._snap_vstat(vstat, low, upp)
        if not _improving(vstat, d, 10.0 * FEAS_TOL).any():
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
        if status == OPTIMAL:
            status = UNBOUNDED
        y, d = _price(self.sparse, self.c, basis, state.T)
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
