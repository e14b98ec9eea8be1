"""Branch and bound over the simplex LP relaxation.

Branching is most-fractional (ties to the lowest index), node selection
is best-bound with depth-first plunging: after branching, the child on
the rounded side of the fractional value is explored next and the
sibling parked in a best-bound heap.  Node LPs warm-start from the
parent basis; correctness does not depend on that.

Predictions enter as a ``HammingBall``: one continuous variable ``d``
appended to the LP with the row ``d = sum_{j in S, x_hat_j = 0} x_j +
sum_{j in S, x_hat_j = 1} (1 - x_j)``.  ``d`` is integral whenever the
binaries are, so it is never branched on.  The approximate search is
the same tree with ``ub(d) = phi``; the exact search seeds the open
list with two root boxes, ``d <= phi`` (plunged first) and ``d >= phi +
1``, which share warm starts, the incumbent, the deadline and the node
budget.  A solve without a ball has no ``d``.

Also here: the root-information pass used by feature extraction
(presolve, root LP, up/down locks).
"""

from __future__ import annotations

import heapq
import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    BINARY,
    CONTINUOUS,
    FEAS_TOL,
    INT_TOL,
    INTEGER,
    MAXIMIZE,
    Constraint,
    MipInstance,
    RowArrays,
    Solution,
    Variable,
    canonicalize,
    evaluate_solution,
    hamming_coeffs,
)
from .simplex import INFEASIBLE as LP_INFEASIBLE
from .simplex import UNBOUNDED as LP_UNBOUNDED
from .simplex import LpSolution, LpWorkspace

OPTIMIZE = "optimize"
FIRST_FEASIBLE = "first_feasible"

OPTIMAL = "optimal"
FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
LIMIT_REACHED = "limit_reached"

# relative gap at which a node is pruned and an incumbent proved optimal
GAP_LIMIT = 1e-9


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
    original instance (set for solves restricted to a Hamming ball).
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
    """Presolved canonical instance plus everything features need at the root.

    ``rows`` are the instance's ``core.row_arrays``, as the root LP's
    workspace built them.
    """

    instance: MipInstance
    lp: LpSolution
    up_locks: np.ndarray
    down_locks: np.ndarray
    objective_offset: float
    rows: RowArrays


class _Node:
    __slots__ = ("bound", "low", "upp", "warm", "depth")

    def __init__(self, bound, low, upp, warm, depth):
        self.bound = bound
        self.low = low
        self.upp = upp
        self.warm = warm
        self.depth = depth


class _Rows:
    """The rows ``lhs <= A x <= rhs`` of an instance, built once per solve.

    The instance's rows are the first ``m`` rows of the workspace's
    ``SparseBlock`` (the workspace may append the distance row); their
    entries give the activities and the screen as segment sums.  The
    repair walks each row's integer terms and each column's terms in
    the rows' own order.
    """

    def __init__(self, inst: MipInstance, ws: LpWorkspace):
        n, m = inst.n_vars, len(inst.constraints)
        ra, sp = ws.rows, ws.sparse
        end = int(ra.indptr[m])
        self.rid, self.cols = sp.rid[:end], sp.cols[:end]
        self.vals = sp.vals[:end]
        self.lhs, self.rhs = ra.lhs[:m], ra.rhs[:m]
        self.l1 = np.bincount(self.rid, np.abs(self.vals), minlength=m)
        is_int = [v.vtype in (BINARY, INTEGER) for v in inst.variables]
        terms = list(zip(self.cols.tolist(), self.vals.tolist()))
        ptr = ra.indptr[:m + 1].tolist()
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
    capped, not exhaustive.  The walk is sequential, so it runs on
    Python floats; only the starting activities are a segment sum."""
    acts = rows.activities(x_cand).tolist()
    lo = (rows.lhs - INT_TOL).tolist()
    hi = (rows.rhs + INT_TOL).tolist()
    x, lpx = x_cand.tolist(), lp_x.tolist()
    low, upp = low0.tolist(), upp0.tolist()
    flips = 0
    cap = 2 * len(x_cand) + 10
    passes = 0
    changed = True
    while changed and flips < cap and passes < 50:
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
    coeffs = hamming_coeffs(ball.x_hat, ball.S)
    n_ones = float(sum(1 for a in coeffs.values() if a < 0.0))
    n = canon.n_vars
    d_ub = len(coeffs) if ball.exact else min(ball.phi, len(coeffs))
    aug = replace(
        canon,
        variables=canon.variables + [Variable("d", CONTINUOUS, 0.0, float(d_ub))],
        constraints=canon.constraints + [
            Constraint("hamming_distance", {**coeffs, n: -1.0}, -n_ones, -n_ones)],
    )
    coef = np.zeros(n)
    coef[list(coeffs)] = list(coeffs.values())
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
    c_min = canon.objective_vector()
    ints = np.array([j for j, v in enumerate(canon.variables)
                     if v.vtype in (BINARY, INTEGER)], dtype=np.int64)
    low0 = ws.base_low[:ws.n].copy()
    upp0 = ws.base_upp[:ws.n].copy()
    low_i, upp_i = low0[ints], upp0[ints]
    # the probes see the instance's own rows; d follows the binaries
    rows = _Rows(canon, ws)

    heap: list[tuple[float, int, _Node]] = []
    plunge: list[_Node] = []
    seq = 0
    root = _Node(-math.inf, low0, upp0, None, 0)
    plunge.append(root)
    if dist is not None and ball.exact and ball.phi < upp0[n]:
        root.upp = upp0.copy()
        root.upp[n] = ball.phi
        far = _Node(-math.inf, low0.copy(), upp0, None, 0)
        far.low[n] = ball.phi + 1.0
        heapq.heappush(heap, (far.bound, seq, far))
    root_warm = None

    incumbent: Solution | None = None
    inc_min = math.inf
    nodes_done = 0
    lp_pivots = 0
    lp_fallbacks = 0
    lb_history: list[float] = []
    proved = False
    node_limit = cfg.node_limit if cfg.node_limit is not None else math.inf

    def open_lb():
        lb = math.inf
        if heap:
            lb = heap[0][0]
        for nd in plunge:
            lb = min(lb, nd.bound)
        return lb

    def record_lb(value):
        # the reported global bound is capped at the incumbent value, so
        # it can never pass the optimum once the best subtree is closed
        value = min(value, inc_min)
        if value > (lb_history[-1] if lb_history else -math.inf):
            lb_history.append(value)

    stop = None
    while heap or plunge:
        if time.perf_counter() - t0 > cfg.time_limit_s:
            stop = "time"
            break
        if nodes_done >= node_limit:
            stop = "nodes"
            break
        node = plunge.pop() if plunge else heapq.heappop(heap)[2]
        prune_eps = GAP_LIMIT * (1.0 + abs(inc_min)) if incumbent else 0.0
        if node.bound >= inc_min - prune_eps:
            continue
        # the far root box starts from the basis of the first root LP
        lp, warm = ws.solve(node.low, node.upp, node.warm or root_warm)
        root_warm = root_warm or warm
        nodes_done += 1
        lp_pivots += lp.iterations
        lp_fallbacks += lp.fallbacks
        if lp.status == LP_INFEASIBLE:
            record_lb(open_lb() if (heap or plunge) else inc_min)
            continue
        if lp.status == LP_UNBOUNDED:
            raise RuntimeError("unbounded LP relaxation; instance out of scope")
        node.bound = lp.objective
        record_lb(min(open_lb(), node.bound))
        if lp.objective >= inc_min - prune_eps:
            continue

        # rounding probes: integral candidates snapped from the node LP
        # (nearest / floor / ceil / nearest-with-repair), kept when
        # feasible and improving; + 0.0 turns a rounded -0.0 into 0.0
        x_lp = lp.x[:n]
        xi = x_lp[ints]
        near = np.floor(xi + 0.5) + 0.0
        for mode, r in enumerate((near, np.floor(xi) + 0.0,
                                  np.ceil(xi) + 0.0, near)):
            x_cand = x_lp.copy()
            r = np.where(low_i > r, low_i, r)
            x_cand[ints] = np.where(upp_i < r, upp_i, r)
            if mode == 3 and not _repair_rounding(rows, lp.x, x_cand,
                                                  low0, upp0):
                continue
            cand_min = float(np.dot(c_min, x_cand))
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
        frac = xi - np.floor(xi)
        frac = np.minimum(frac, 1.0 - frac)
        k = int(np.argmax(frac)) if ints.size else 0
        if not ints.size or not frac[k] > INT_TOL:
            # an integral leaf: rounding probe 0 has judged its point
            continue

        frac_j = int(ints[k])
        f = lp.x[frac_j] - math.floor(lp.x[frac_j])
        lo_child = _Node(lp.objective, node.low.copy(), node.upp.copy(), warm, node.depth + 1)
        lo_child.upp[frac_j] = math.floor(lp.x[frac_j])
        hi_child = _Node(lp.objective, node.low.copy(), node.upp.copy(), warm, node.depth + 1)
        hi_child.low[frac_j] = math.floor(lp.x[frac_j]) + 1.0
        first, second = (hi_child, lo_child) if f >= 0.5 else (lo_child, hi_child)
        seq += 1
        heapq.heappush(heap, (second.bound, seq, second))
        plunge.append(first)

        if incumbent is not None:
            lb_now = open_lb()
            if inc_min - lb_now <= GAP_LIMIT * (1.0 + abs(inc_min)):
                proved = True
                break

    if stop is None and not proved and not heap and not plunge:
        proved = True

    if proved:
        lb_min = inc_min if incumbent is not None else math.inf
        status = OPTIMAL if incumbent is not None else INFEASIBLE
    else:
        lb_min = min(open_lb(), inc_min)
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
        lb_history=lb_history,
        lp_pivots=lp_pivots,
        lp_fallbacks=lp_fallbacks,
    )


# ---------------------------------------------------------------------------
# root information for feature extraction


def _presolve(canon: MipInstance):
    """Drop empty rows and substitute fixed variables; return the reduced
    instance and the objective offset of the fixed variables."""
    keep_vars = []
    fixed: dict[int, float] = {}
    for j, v in enumerate(canon.variables):
        if v.lb == v.ub:
            fixed[j] = v.lb
        else:
            keep_vars.append(j)
    remap = {j: k for k, j in enumerate(keep_vars)}
    offset = 0.0
    objective = {}
    for j, cj in canon.objective.items():
        if j in fixed:
            offset += cj * fixed[j]
        else:
            objective[remap[j]] = cj
    constraints = []
    for con in canon.constraints:
        shift = sum(a * fixed[j] for j, a in con.coeffs.items() if j in fixed)
        coeffs = {remap[j]: a for j, a in con.coeffs.items() if j not in fixed and a != 0.0}
        if not coeffs:
            continue
        lhs = con.lhs - shift if math.isfinite(con.lhs) else con.lhs
        rhs = con.rhs - shift if math.isfinite(con.rhs) else con.rhs
        constraints.append(Constraint(con.name, coeffs, lhs, rhs))
    variables = [canon.variables[j] for j in keep_vars]
    reduced = MipInstance(canon.name, canon.sense, variables, constraints,
                          objective)
    return reduced, offset


def collect_root_info(inst: MipInstance) -> RootInfo:
    """Presolve, solve the root LP, and compute locks.

    Locks count the rows that can be violated by moving a variable up
    respectively down (an equality row counts for both directions).
    """
    canon = canonicalize(inst)
    reduced, offset = _presolve(canon)
    ws = LpWorkspace(reduced)
    lp, _ = ws.solve()
    n = reduced.n_vars
    ra = ws.rows
    rid = ra.row_ids()
    fin_lhs, fin_rhs = (np.isfinite(side)[rid] for side in (ra.lhs, ra.rhs))
    pos, neg = ra.vals > 0.0, ra.vals < 0.0
    up = np.bincount(ra.cols[(pos & fin_rhs) | (neg & fin_lhs)], minlength=n)
    down = np.bincount(ra.cols[(pos & fin_lhs) | (neg & fin_rhs)], minlength=n)
    return RootInfo(
        instance=reduced,
        lp=lp,
        up_locks=up,
        down_locks=down,
        objective_offset=offset,
        rows=ra,
    )

