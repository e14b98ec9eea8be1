"""Branch and bound over the simplex LP relaxation.

Branching is most-fractional (ties to the lowest index), node selection
is best-bound with depth-first plunging: after branching, the child on
the rounded side of the fractional value is explored next and the
sibling parked in a best-bound heap.  Node LPs warm-start from the
parent basis and resume from the parent's dual end state
(``simplex.WarmStart.state``: the transposed basis inverse, reduced
costs, steepest-edge weights and pivot count) instead of refactorizing
it.  The plunge child, solved next, takes the parent's state itself;
the parked sibling, and the exact mode's far root box from the root
LP, get a copy made before the plunge child runs.  The copies that
parked nodes hold in one solve are capped at ``STATE_BYTES_CAP``; a
sibling whose copy would pass the cap parks with only the basis and
variable statuses and refactorizes when it is popped, and a popped
node gives its bytes back.  Correctness depends on none of this.

A node is closed, and the incumbent proved optimal once every open
node is, when its bound lies within a relative ``GAP_LIMIT`` of the
incumbent.  When every solution's objective is an integer (every
nonzero cost is integral and sits on a binary or integer variable),
the cutoff is instead a whole unit below the incumbent, less a 1e-6
relative tolerance: a bound above it leaves no room for a better
integer value.  This is decided once per solve and holds for baseline,
approx and exact alike, since ``d`` costs nothing.  First-feasible
solves stop at their first incumbent, before any cutoff applies.

Predictions enter as a ``HammingBall``: one continuous variable ``d``
appended to the LP with the row ``d = sum_{j in S, x_hat_j = 0} x_j +
sum_{j in S, x_hat_j = 1} (1 - x_j)``.  ``d`` is integral whenever the
binaries are, so it is never branched on.  The approximate search is
the same tree with ``ub(d) = phi``.  The exact search splits the root
into the near box ``d <= phi`` and the far box ``d >= phi + 1``, which
share warm starts, the incumbent, the deadline and the node budget.  It
plunges into the near box, solves the far root's LP next, so that the
reported bound is finite, and then closes the near box before it solves
any node below the far root.  So there is one heap per ring: ring 0
for the near box (and the far root, at bound -inf, until it is popped)
and ring 1 for the nodes below the far root.  A solve without an exact
ball has one ring, and one without a ball has no ``d``.

Also here: the root-information pass used by feature extraction
(root LP, up/down locks).
"""

from __future__ import annotations

import heapq
import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    CONTINUOUS,
    FEAS_TOL,
    INT_TOL,
    MAXIMIZE,
    MipInstance,
    Solution,
    canonicalize,
    evaluate_solution,
    hamming_coeffs,
)
from .simplex import INFEASIBLE as LP_INFEASIBLE
from .simplex import UNBOUNDED as LP_UNBOUNDED
from .simplex import LpSolution, LpWorkspace, WarmStart

OPTIMIZE = "optimize"
FIRST_FEASIBLE = "first_feasible"

OPTIMAL = "optimal"
FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
LIMIT_REACHED = "limit_reached"

# relative gap at which a node is pruned and an incumbent proved optimal,
# unless every objective value is an integer (see the module docstring)
GAP_LIMIT = 1e-9

# Bytes of the dual-state copies (``simplex.DualState``) the parked
# nodes of one solve may hold.  A state is dominated by its m x m
# float64 inverse: 45 kB for a 75-row set cover, so a heap of hundreds
# of parked nodes fits, and 24.7 MiB at m = 1799 (the largest row count
# of the small presets, mis), which is also the share of that root LP's
# own memory peak the inverse takes.  So 32 MiB lets every preset park
# at least one copy, and keeps a deep search's heap from adding more
# than about one root LP's worth of memory to the solve.
STATE_BYTES_CAP = 32 * 2**20


@dataclass
class BnbConfig:
    time_limit_s: float = math.inf
    node_limit: int | None = None
    mode: str = OPTIMIZE


@dataclass
class HammingBall:
    """Predicted values ``x_hat`` (indexed like the instance) on the binary
    indices ``S`` and a radius ``phi``.

    With ``exact`` False the search keeps only ``d(x, x_hat) <= phi``, a
    heuristic restriction whose bound is not valid for the instance.
    With ``exact`` True the root is split into ``d <= phi`` and ``d >=
    phi + 1``, which together keep every solution.
    """

    x_hat: Sequence[float]
    S: Sequence[int]
    phi: int
    exact: bool = False


@dataclass
class SolveResult:
    """Outcome of one solve, objective and bound in the instance's own sense.

    For maximization instances ``lower_bound`` is the corresponding dual
    (upper) bound.  ``lb_history`` records the canonical minimization
    bound each time it improves, so it is nondecreasing for either
    sense.  ``heuristic`` marks results whose bound is not valid for the
    original instance (set for solves with a non-exact Hamming ball).
    A proved bound is reported equal to the objective.  When every
    objective value is an integer, the proof needs the open bounds only
    less than one unit below the incumbent (the integral cutoff of the
    module docstring; first-feasible solves stop before any cutoff), and
    an unproved canonical bound b is reported as ceil(b - 1e-6 (1 + |b|)).
    ``lp_pivots`` and ``lp_fallbacks`` sum ``LpSolution.iterations`` (the
    pivots of each node LP: basis changes and bound flips) and
    ``LpSolution.fallbacks`` over the node LPs.
    """

    status: str
    incumbent: Solution | None
    objective: float | None
    lower_bound: float
    nodes: int
    wall_time_s: float
    heuristic: bool = False
    lb_history: list = field(default_factory=list)
    lp_pivots: int = 0
    lp_fallbacks: int = 0


@dataclass
class RootInfo:
    """Canonical instance plus everything features need at the root.

    ``objective_offset`` is always 0.0, as ``instance`` is the canonical
    instance itself; it stays for callers that add it to ``lp.objective``.
    """

    instance: MipInstance
    lp: LpSolution
    up_locks: np.ndarray
    down_locks: np.ndarray
    objective_offset: float


class _Node:
    """An open box of the tree; ``ring`` is the heap its children go to."""

    __slots__ = ("bound", "low", "upp", "warm", "ring")

    def __init__(self, bound, low, upp, warm, ring=0):
        self.bound = bound
        self.low = low
        self.upp = upp
        self.warm = warm
        self.ring = ring


class _Rows:
    """The rows ``lhs <= A x <= rhs`` of an instance, built once per solve.

    The instance's stored entries give the activities and the screen as
    segment sums.  The repair walks each row's integer terms and each
    column's terms in the rows' own order.
    """

    def __init__(self, inst: MipInstance):
        n, m, ra = inst.n_vars, len(inst.row_names), inst.rows
        self.rid, self.cols, self.vals = ra.row_ids(), ra.cols, ra.vals
        self.lhs, self.rhs = ra.lhs, ra.rhs
        self.l1 = np.bincount(self.rid, np.abs(self.vals), minlength=m)
        is_int = (inst.vtype != CONTINUOUS).tolist()
        terms = list(zip(self.cols.tolist(), self.vals.tolist()))
        ptr = ra.indptr.tolist()
        self.int_terms = [[(j, a) for j, a in terms[lo:hi]
                           if a != 0.0 and is_int[j]]
                          for lo, hi in zip(ptr, ptr[1:])]
        self.col_terms = [[] for _ in range(n)]
        for i, (j, a) in zip(self.rid.tolist(), terms):
            self.col_terms[j].append((i, a))

    def activities(self, x) -> np.ndarray:
        """``A @ x``, each row summed in its entries' order."""
        return np.bincount(self.rid, self.vals * x[self.cols],
                           minlength=len(self.lhs))

    def may_hold(self, x) -> bool:
        """False only when ``x`` misses a row by more than ``FEAS_TOL`` plus
        a slack that covers the rounding of any summation order, so that
        ``evaluate_solution`` would reject ``x`` as well."""
        acts = self.activities(x)
        slack = FEAS_TOL + 1e-9 * (1.0 + self.l1 * np.max(np.abs(x), initial=0.0))
        return not ((acts < self.lhs - slack) | (acts > self.rhs + slack)).any()


def _repair_rounding(rows: _Rows, lp_x, x_cand, low0, upp0):
    """Greedy repair of a rounded point: while a row is violated, move one
    integer variable a unit step in the direction that shrinks the
    violation, preferring the variable the LP likes most for that
    direction (large LP value for up-steps, small for down-steps).
    Returns True when every row ended inside its range; the attempt is
    capped, not exhaustive.  A point that already meets every row has
    nothing to repair: it is left as it is and False comes back.  So
    does a walk whose pass starts from an ``(x, activities)`` state an
    earlier pass started from: a pass depends on its start state alone,
    so the walk would repeat that cycle up to the cap, and since every
    pass of the cycle flips, no state in it meets every row (a state
    that did would flip nothing more).  The walk is sequential, so it
    runs on Python floats; only the starting activities and that first
    check are vectorized."""
    acts = rows.activities(x_cand)
    lo = rows.lhs - INT_TOL
    hi = rows.rhs + INT_TOL
    if not ((acts < lo) | (acts > hi)).any():
        return False
    acts, lo, hi = acts.tolist(), lo.tolist(), hi.tolist()
    x, lpx = x_cand.tolist(), lp_x.tolist()
    low, upp = low0.tolist(), upp0.tolist()
    flips = 0
    cap = 2 * len(x_cand) + 10
    passes = 0
    changed = True
    starts = set()
    while changed and flips < cap and passes < 50:
        # one entry per pass so far unless this pass's start repeats
        starts.add(tuple(x + acts))
        if len(starts) == passes:
            return False
        changed = False
        passes += 1
        for i, terms in enumerate(rows.int_terms):
            if acts[i] < lo[i]:
                need_up = True
            elif acts[i] > hi[i]:
                need_up = False
            else:
                continue
            best_j = -1
            best_key = -np.inf
            best_up = need_up
            for j, a in terms:
                up = (a > 0.0) == need_up
                room = (upp[j] - x[j]) if up else (x[j] - low[j])
                if room < 1.0:
                    continue
                key = lpx[j] if up else -lpx[j]
                if key > best_key:
                    best_key = key
                    best_j = j
                    best_up = up
            if best_j < 0:
                continue
            step = 1.0 if best_up else -1.0
            x[best_j] += step
            for i2, a2 in rows.col_terms[best_j]:
                acts[i2] += a2 * step
            flips += 1
            changed = True
            if flips >= cap:
                break
    x_cand[:] = x
    return not any(a < lo_i or a > hi_i for lo_i, a, hi_i in zip(lo, acts, hi))


def _rounding_probes(rows: _Rows, lp_x, n, ints, low0, upp0):
    """Integral candidates snapped from a node LP point ``lp_x``: its
    first ``n`` entries with the integer ones rounded to nearest, down
    and up (clamped to the root bounds), then nearest after
    ``_repair_rounding``.  A candidate equal to nearest is left out, as
    it would only get nearest's verdict again: floor or ceil equal to
    it, and nearest itself when it meets every row, which the repair
    hands back unchanged."""
    x_lp = lp_x[:n]
    xi = x_lp[ints]
    low_i, upp_i = low0[ints], upp0[ints]
    near = None
    for r in (np.floor(xi + 0.5), np.floor(xi), np.ceil(xi)):
        # + 0.0 turns a rounded -0.0 into 0.0
        r = r + 0.0
        r = np.where(low_i > r, low_i, r)
        r = np.where(upp_i < r, upp_i, r)
        if near is None:
            near = r
        elif np.array_equal(r, near):
            continue
        x_cand = x_lp.copy()
        x_cand[ints] = r
        yield x_cand
    x_cand = x_lp.copy()
    x_cand[ints] = near
    if _repair_rounding(rows, lp_x, x_cand, low0, upp0):
        yield x_cand


def _integral_objective(c_min, ints) -> bool:
    """Whether every solution's objective is an integer: every cost is
    integral and only integer variables carry nonzero ones."""
    cont = np.ones(len(c_min), dtype=bool)
    cont[ints] = False
    return bool((c_min == np.floor(c_min)).all() and not c_min[cont].any())


def _with_distance(canon: MipInstance, ball: HammingBall):
    """``canon`` plus the distance variable ``d`` at index n and the row
    defining it, and the distance as a function of the first n entries.
    Without ``ball.exact``, ``d`` gets the upper bound ``phi``."""
    if ball.phi < 0:
        raise ValueError("phi must be nonnegative")
    binaries = set(canon.binary_indices())
    for j in ball.S:
        if j not in binaries:
            raise ValueError(f"index {j} in S is not a binary variable")
    S = list(dict.fromkeys(int(j) for j in ball.S))  # each index once
    coef = hamming_coeffs(ball.x_hat, S)
    n_ones, n = float(np.count_nonzero(coef < 0.0)), canon.n_vars
    d_ub = len(S) if ball.exact else min(ball.phi, len(S))
    aug = replace(
        canon,
        var_names=canon.var_names + ["d"], vtype=np.append(canon.vtype, CONTINUOUS),
        lb=np.append(canon.lb, 0.0), ub=np.append(canon.ub, float(d_ub)),
        c=np.append(canon.c, 0.0),
        rows=canon.rows.with_row(S + [n], np.append(coef[S], -1.0),
                                 -n_ones, -n_ones),
        row_names=canon.row_names + ["hamming_distance"],
    )
    return aug, lambda x: float(np.dot(coef, x)) + n_ones


def solve(inst: MipInstance, cfg: BnbConfig | None = None,
          ball: HammingBall | None = None) -> SolveResult:
    """Solve a MIP to the configured limits, optionally around a ball.

    Status optimal/infeasible are proved (inside the ball when it is not
    exact); feasible means an incumbent exists but optimality was not
    proved (limit hit, or first-feasible mode); limit_reached means a
    limit hit before any incumbent.  Incumbents are evaluated on
    ``inst``, and objective and bound are in ``inst.sense``.  A ball
    with an empty ``S`` changes nothing.
    """
    cfg = cfg or BnbConfig()
    t0 = time.perf_counter()
    canon = canonicalize(inst)
    n = canon.n_vars
    lp_inst, dist = canon, None
    if ball is not None and len(ball.S):
        lp_inst, dist = _with_distance(canon, ball)
    ws = LpWorkspace(lp_inst)
    ints = np.flatnonzero(canon.vtype != CONTINUOUS)
    low0 = ws.base_low[:ws.n].copy()
    upp0 = ws.base_upp[:ws.n].copy()
    # the probes see the instance's own rows; d follows the binaries
    rows = _Rows(canon)

    # (bound, seq, node) entries of ring 0 and ring 1; a node is popped
    # from ring 1 only while ring 0 is empty
    heaps: tuple[list, list] = ([], [])
    seq = 0
    # the node solved next, ahead of the heaps: the root, then the plunge
    # child of the node just branched on
    plunge = _Node(-math.inf, low0, upp0, None)
    far = None
    if dist is not None and ball.exact and ball.phi < upp0[n]:
        plunge.upp = upp0.copy()
        plunge.upp[n] = ball.phi
        # at bound -inf in ring 0, the far root is popped right after the
        # first plunge; its children go to ring 1
        far = _Node(-math.inf, low0.copy(), upp0, None, ring=1)
        far.low[n] = ball.phi + 1.0
        heapq.heappush(heaps[0], (far.bound, seq, far))
    held = 0  # bytes of the state copies that parked nodes hold

    def parked(warm: WarmStart) -> WarmStart:
        """A snapshot of ``warm`` for a node that waits in the heap: with
        a copy of its state while the copies stay within the cap."""
        nonlocal held
        state = warm.state
        if state is None or held + state.nbytes > STATE_BYTES_CAP:
            return WarmStart(warm.basis, warm.vstat)
        held += state.nbytes
        return WarmStart(warm.basis, warm.vstat, state.copy())

    incumbent: Solution | None = None
    inc_min = math.inf
    nodes_done = 0
    lp_pivots = 0
    lp_fallbacks = 0
    lb_history: list[float] = []
    proved = False
    node_limit = cfg.node_limit if cfg.node_limit is not None else math.inf
    # with an integral objective a node must promise a whole unit below
    # the incumbent to stay open
    unit = 1.0 if _integral_objective(canon.c, ints) else 0.0

    def gap():
        """How far below the incumbent a bound must lie for its node to
        stay open: a relative ``GAP_LIMIT``, or a whole unit less a 1e-6
        relative tolerance when every objective value is an integer."""
        scale = 1.0 + abs(inc_min)
        return max(GAP_LIMIT * scale, unit - 1e-6 * scale)

    def open_lb():
        lb = min((heap[0][0] for heap in heaps if heap), default=math.inf)
        return lb if plunge is None else min(lb, plunge.bound)

    def record_lb(value):
        # the reported global bound is capped at the incumbent value, so
        # it can never pass the optimum once the best subtree is closed
        value = min(value, inc_min)
        if value > (lb_history[-1] if lb_history else -math.inf):
            lb_history.append(value)

    stop = None
    while any(heaps) or plunge is not None:
        if time.perf_counter() - t0 > cfg.time_limit_s:
            stop = "time"
            break
        if nodes_done >= node_limit:
            stop = "nodes"
            break
        if plunge is not None:
            node, plunge = plunge, None
        else:
            node = heapq.heappop(heaps[0] or heaps[1])[2]
            if node.warm is not None and node.warm.state is not None:
                held -= node.warm.state.nbytes
        prune_eps = gap() if incumbent else 0.0
        if node.bound >= inc_min - prune_eps:
            continue
        lp, warm = ws.solve(node.low, node.upp, node.warm)
        if far is not None:
            # the far root box starts from the end of the first root LP
            far.warm, far = parked(warm), None
        nodes_done += 1
        lp_pivots += lp.iterations
        lp_fallbacks += lp.fallbacks
        if lp.status == LP_INFEASIBLE:
            record_lb(open_lb())
            continue
        if lp.status == LP_UNBOUNDED:
            raise RuntimeError("unbounded LP relaxation; instance out of scope")
        node.bound = lp.objective
        record_lb(min(open_lb(), node.bound))
        if lp.objective >= inc_min - prune_eps:
            continue

        for x_cand in _rounding_probes(rows, lp.x, n, ints, low0, upp0):
            cand_min = float(np.dot(canon.c, x_cand))
            if cand_min >= inc_min:
                continue
            # a point outside the approximate ball is no solution of the
            # restricted problem, even when it is feasible for inst
            if dist is not None and dist(x_cand) > upp0[n] + INT_TOL:
                continue
            if not rows.may_hold(x_cand):
                continue
            cand = evaluate_solution(inst, x_cand)
            if cand.feasible:
                incumbent = cand
                inc_min = cand_min
        if incumbent is not None and cfg.mode == FIRST_FEASIBLE:
            stop = "first_feasible"
            break

        # most fractional integer variable, ties to the lowest index
        xi = lp.x[ints]
        frac = xi - np.floor(xi)
        frac = np.minimum(frac, 1.0 - frac)
        k = int(np.argmax(frac)) if ints.size else 0
        if not ints.size or not frac[k] > INT_TOL:
            # an integral leaf: rounding probe 0 has judged its point
            continue

        frac_j = int(ints[k])
        f = lp.x[frac_j] - math.floor(lp.x[frac_j])
        lo_child = _Node(lp.objective, node.low.copy(), node.upp.copy(), None)
        lo_child.upp[frac_j] = math.floor(lp.x[frac_j])
        hi_child = _Node(lp.objective, node.low.copy(), node.upp.copy(), None)
        hi_child.low[frac_j] = math.floor(lp.x[frac_j]) + 1.0
        first, second = (hi_child, lo_child) if f >= 0.5 else (lo_child, hi_child)
        first.ring = second.ring = node.ring
        # copy the state for the sibling before the plunge child uses it
        second.warm = parked(warm)
        if node.ring and heaps[0]:
            # the far root's plunge child waits while ring 0 is open
            first.warm = parked(warm)
            seq += 1
            heapq.heappush(heaps[1], (first.bound, seq, first))
        else:
            first.warm = warm
            plunge = first
        seq += 1
        heapq.heappush(heaps[node.ring], (second.bound, seq, second))

        if incumbent is not None:
            if inc_min - open_lb() <= gap():
                proved = True
                break

    if stop is None and not proved and not any(heaps) and plunge is None:
        proved = True

    if proved:
        lb_min = inc_min if incumbent is not None else math.inf
        status = OPTIMAL if incumbent is not None else INFEASIBLE
    else:
        lb_min = min(open_lb(), inc_min)
        if unit and math.isfinite(lb_min):  # so is the integer above it
            lb_min = float(math.ceil(lb_min - 1e-6 * (1.0 + abs(lb_min))))
        status = FEASIBLE if incumbent is not None else LIMIT_REACHED
    record_lb(lb_min)

    lower_bound = -lb_min if inst.sense == MAXIMIZE else lb_min
    return SolveResult(
        status=status,
        incumbent=incumbent,
        objective=incumbent.objective if incumbent is not None else None,
        lower_bound=lower_bound,
        nodes=nodes_done,
        wall_time_s=time.perf_counter() - t0,
        heuristic=ball is not None and not ball.exact,
        lb_history=lb_history,
        lp_pivots=lp_pivots,
        lp_fallbacks=lp_fallbacks,
    )


# ---------------------------------------------------------------------------
# root information for feature extraction


def collect_root_info(inst: MipInstance) -> RootInfo:
    """Solve the root LP of the canonical instance and compute locks.

    Locks count the rows that can be violated by moving a variable up
    respectively down (an equality row counts for both directions).
    """
    canon = canonicalize(inst)
    lp, _ = LpWorkspace(canon).solve()
    n, ra = canon.n_vars, canon.rows
    rid = ra.row_ids()
    fin_lhs, fin_rhs = (np.isfinite(side)[rid] for side in (ra.lhs, ra.rhs))
    pos, neg = ra.vals > 0.0, ra.vals < 0.0
    up = np.bincount(ra.cols[(pos & fin_rhs) | (neg & fin_lhs)], minlength=n)
    down = np.bincount(ra.cols[(pos & fin_lhs) | (neg & fin_rhs)], minlength=n)
    return RootInfo(
        instance=canon,
        lp=lp,
        up_locks=up,
        down_locks=down,
        objective_offset=0.0,
    )

