"""Independent reference implementations used to check the solver paths.

The enumerator must not share code with the package's simplex or branch
and bound: binary assignments are enumerated exhaustively with numpy,
rows touching only binaries are checked vectorized, and any continuous
remainder is completed with scipy's HiGHS interface.

``milp_optimum`` hands a whole instance, integrality included, to
scipy's HiGHS MIP solver with a zero gap tolerance, as the reference
for property tests of the branch and bound.

The featurization reference walks each row's ``coeffs`` dict and calls
numpy's ``mean``/``std``/``min``/``max`` once per variable and per row,
so it shares no arithmetic with the segment reductions in ``trigraph``.
Each function reads the instance's ``constraints`` records once, since
every read rebuilds them.

The reference dual loop is the dual simplex kernel with nothing kept
in step across passes: every pass gathers the basic values and bounds
and derives the eligibility signs from ``vstat`` anew.  It shares the
kernel's factorization, pricing, sparse products and rank-1 update, so
the kernel, started fresh, must return its results byte for byte.
``reference_snap_vstat`` states the warm-start status snap as masks,
one rule at a time, against the workspace's table lookup.
``record_lp_solves`` keeps the inputs of every LP solve of a run, so a
test can solve each node LP again from another start.

The GCN's neighbor aggregation in its gather form, ``GatherSum``, is
the sum of the per-edge rows ``a_e * X[e's column]`` by a sparse
indicator matrix over the edges; ``reference_halves`` puts it in place of
the weighted edge patterns, so the network's passes run on it unchanged.
"""

import math

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.sparse import csr_matrix

from mippred import gcn, simplex
from mippred.core import BINARY, CONTINUOUS, INTEGER, canonicalize
from mippred.trigraph import (CONS_TYPES, INF_SENTINEL, N_CONS_FEATURES,
                              N_VAR_FEATURES)

# Per-problem parameterizations that keep every instance at <= 16 binary
# variables so exhaustive enumeration stays cheap.
TINY_SPECS = {
    "fcnf": ("tiny", {}),
    "cfl": ("tiny", {}),
    "ga": ("custom", {"agents": 2}),
    "mis": ("tiny", {}),
    "mk": ("tiny", {}),
    "sc": ("tiny", {}),
    "tsp": ("custom", {"min_cities": 4, "max_cities": 4}),
    "vrp": ("custom", {"customers": 2}),
}


def dict_walk(inst):
    """(G, c, low, upp, int_terms, col_terms) of ``inst`` built by walking
    each row's ``coeffs`` dict: the dense ``G = [A | -I]`` of the LP's
    computational form, its costs and bounds, and each row's nonzero
    integer terms and each column's terms in the rows' own order."""
    cons = inst.constraints
    n, m = inst.n_vars, len(cons)
    G = np.zeros((m, n + m))
    for i, con in enumerate(cons):
        for j, a in con.coeffs.items():
            G[i, j] = a
        G[i, n + i] = -1.0
    c = np.zeros(n + m)
    c[:n] = inst.c
    low = np.array([v.lb for v in inst.variables]
                   + [con.lhs for con in cons])
    upp = np.array([v.ub for v in inst.variables]
                   + [con.rhs for con in cons])
    is_int = [v.vtype in (BINARY, INTEGER) for v in inst.variables]
    int_terms = [[(j, a) for j, a in con.coeffs.items()
                  if a != 0.0 and is_int[j]] for con in cons]
    col_terms = [[] for _ in range(n)]
    for i, con in enumerate(cons):
        for j, a in con.coeffs.items():
            col_terms[j].append((i, a))
    return G, c, low, upp, int_terms, col_terms


def _enumerate_binaries(k):
    combos = np.zeros((2**k, k), dtype=np.int8)
    for b in range(k):
        combos[:, b] = (np.arange(2**k) >> b) & 1
    return combos


def binary_feasible_mask(inst, feas_tol=1e-6):
    """Enumerate binary assignments; keep those passing bounds and all rows
    that involve only binary variables.  Returns (combos, mask).
    """
    bins = inst.binary_indices()
    k = len(bins)
    assert k <= 20, "enumeration only meant for tiny instances"
    combos = _enumerate_binaries(k)
    pos = {j: b for b, j in enumerate(bins)}
    mask = np.ones(2**k, dtype=bool)
    for j in bins:
        v = inst.variables[j]
        if v.lb > feas_tol:
            mask &= combos[:, pos[j]] == 1
        if v.ub < 1.0 - feas_tol:
            mask &= combos[:, pos[j]] == 0
    for con in inst.constraints:
        if any(inst.variables[j].vtype != BINARY for j in con.coeffs):
            continue
        a = np.zeros(k)
        for j, coeff in con.coeffs.items():
            a[pos[j]] = coeff
        act = combos @ a
        if math.isfinite(con.lhs):
            mask &= act >= con.lhs - feas_tol
        if math.isfinite(con.rhs):
            mask &= act <= con.rhs + feas_tol
    return combos, mask


def brute_force_optimum(inst, feas_tol=1e-6):
    """Exhaustive optimum of a tiny binary+continuous MIP.

    Returns (objective, x) in the instance's own sense, or (None, None)
    if infeasible.  Continuous completion per surviving binary
    assignment is done with scipy linprog (HiGHS).
    """
    canon = canonicalize(inst)
    bins = canon.binary_indices()
    pos = {j: b for b, j in enumerate(bins)}
    cont = [j for j, v in enumerate(canon.variables) if v.vtype != BINARY]
    assert all(canon.variables[j].vtype == CONTINUOUS for j in cont)
    combos, mask = binary_feasible_mask(canon, feas_tol)
    c = canon.objective_vector()
    best_obj = None
    best_x = None

    if not cont:
        for idx in np.flatnonzero(mask):
            xb = combos[idx]
            obj_bin = sum(c[j] * xb[pos[j]] for j in bins)
            if best_obj is None or obj_bin < best_obj:
                best_obj = obj_bin
                x = np.zeros(canon.n_vars)
                for j in bins:
                    x[j] = xb[pos[j]]
                best_x = x
        if best_obj is None:
            return None, None
        if inst.sense == "max":
            best_obj = -best_obj
        return float(best_obj), best_x

    # Assemble the LP over all columns once; each surviving combo only
    # pins the binary columns through their bounds, which keeps the per
    # combo work down to a single linprog call.
    mixed_rows = [con for con in canon.constraints
                  if any(canon.variables[j].vtype != BINARY for j in con.coeffs)]
    n = canon.n_vars
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for con in mixed_rows:
        row = np.zeros(n)
        for j, a in con.coeffs.items():
            row[j] = a
        if con.lhs == con.rhs:
            A_eq.append(row)
            b_eq.append(con.lhs)
        else:
            if math.isfinite(con.rhs):
                A_ub.append(row)
                b_ub.append(con.rhs + feas_tol)
            if math.isfinite(con.lhs):
                A_ub.append(-row)
                b_ub.append(-(con.lhs - feas_tol))
    A_ub = np.array(A_ub) if A_ub else None
    b_ub = np.array(b_ub) if b_ub else None
    A_eq = np.array(A_eq) if A_eq else None
    b_eq = np.array(b_eq) if b_eq else None
    bounds = [
        (
            v.lb if math.isfinite(v.lb) else None,
            v.ub if math.isfinite(v.ub) else None,
        )
        for v in canon.variables
    ]

    for idx in np.flatnonzero(mask):
        xb = combos[idx]
        for j in bins:
            bit = float(xb[pos[j]])
            bounds[j] = (bit, bit)
        res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                      bounds=bounds, method="highs")
        if res.status != 0:
            continue
        if best_obj is None or res.fun < best_obj:
            best_obj = res.fun
            best_x = res.x.copy()
            for j in bins:
                best_x[j] = xb[pos[j]]
    if best_obj is None:
        return None, None
    if inst.sense == "max":
        best_obj = -best_obj
    return float(best_obj), best_x


def milp_optimum(inst):
    """(status, objective) of ``scipy.optimize.milp`` (HiGHS) on the
    instance, objective in its own sense: status 0 is optimal, 2
    infeasible.  The gap tolerance is zero, so an optimal status is the
    optimum."""
    n = inst.n_vars
    sign = -1.0 if inst.sense == "max" else 1.0
    constraints = ()
    cons = inst.constraints
    if cons:
        A = np.zeros((len(cons), n))
        for i, con in enumerate(cons):
            for j, a in con.coeffs.items():
                A[i, j] = a
        constraints = LinearConstraint(
            A, [con.lhs for con in cons], [con.rhs for con in cons])
    res = milp(sign * inst.objective_vector(), constraints=constraints,
               integrality=[v.vtype != CONTINUOUS for v in inst.variables],
               bounds=Bounds([v.lb for v in inst.variables],
                             [v.ub for v in inst.variables]),
               options={"mip_rel_gap": 0.0})
    return res.status, (None if res.fun is None else sign * res.fun)


def average_precision_reference(scores, labels):
    """Plain-loop average precision: sort by score descending (ties by
    index), sum precision at each positive rank divided by positives.
    """
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    n_pos = sum(labels)
    assert n_pos > 0
    hits = 0
    total = 0.0
    for rank, i in enumerate(order, start=1):
        if labels[i]:
            hits += 1
            total += hits / rank
    return total / n_pos


# ---------------------------------------------------------------------------
# Loop featurization of the tripartite graph

def _stats(values):
    """(mean, std, min, max), all zero for an empty array."""
    if values.size == 0:
        return 0.0, 0.0, 0.0, 0.0
    return (float(values.mean()), float(values.std()),
            float(values.min()), float(values.max()))


def reference_locks(inst):
    """(up, down) lock counts: rows that moving a variable up respectively
    down can violate; an equality row counts for both directions."""
    up = np.zeros(inst.n_vars, dtype=np.int64)
    down = np.zeros(inst.n_vars, dtype=np.int64)
    for con in inst.constraints:
        fin_lhs = math.isfinite(con.lhs)
        fin_rhs = math.isfinite(con.rhs)
        for j, a in con.coeffs.items():
            if a > 0.0:
                up[j] += fin_rhs
                down[j] += fin_lhs
            elif a < 0.0:
                up[j] += fin_lhs
                down[j] += fin_rhs
    return up, down


def _classify(inst, con):
    items = sorted(con.coeffs.items())
    if len(items) == 1:
        return "singleton"
    all_binary = all(inst.variables[j].vtype == BINARY for j, _ in items)
    if (all_binary and all(a == 1.0 for _, a in items)
            and con.lhs == 1.0 and not math.isfinite(con.rhs)):
        return "logicor"
    if (all_binary and all(a > 0.0 for _, a in items)
            and math.isfinite(con.rhs) and not math.isfinite(con.lhs)):
        return "knapsack"
    if len(items) == 2:
        n_cont = sum(inst.variables[j].vtype == CONTINUOUS for j, _ in items)
        if n_cont == 1:
            return "variable_bound"
    return "general_linear"


def reference_variable_rows(inst, root, cols):
    """The 57 variable features of each binary in ``cols``, one row each,
    with the locks recounted from the rows."""
    c = inst.objective_vector()
    up_locks, down_locks = reference_locks(inst)
    cons = inst.constraints
    rows_of = {j: [] for j in cols}
    for i, con in enumerate(cons):
        for k in con.coeffs:
            if k in rows_of:
                rows_of[k].append(i)
    row_coeffs = [np.array(list(con.coeffs.values())) for con in cons]
    row_sums = [sum(con.coeffs.values()) for con in cons]
    feats = np.zeros((len(cols), N_VAR_FEATURES))
    for j, out in zip(cols, feats):
        rows = rows_of[j]
        var = inst.variables[j]
        assert var.vtype == BINARY
        out[0] = 1.0
        out[1] = 0.0
        cj = float(c[j])
        out[2] = cj
        out[3] = max(cj, 0.0)
        out[4] = max(-cj, 0.0)
        out[5] = len(rows)
        out[6] = up_locks[j]
        out[7] = down_locks[j]

        xj = float(root.lp.x[j])
        out[8] = xj
        out[9] = xj - math.floor(xj)
        out[10] = math.ceil(xj) - xj
        out[11] = 1.0 if min(out[9], out[10]) > 1e-6 else 0.0
        out[12:17] = 0.0  # pseudocosts, zero at the root
        out[17] = var.lb
        out[18] = var.ub
        out[19] = float(root.lp.reduced_costs[j])

        degrees = np.array([row_coeffs[i].size for i in rows], float)
        out[20:24] = _stats(degrees)

        pos_lhs, neg_lhs, pos_rhs, neg_rhs = [], [], [], []
        for i in rows:
            con = cons[i]
            a = con.coeffs[j]
            if math.isfinite(con.lhs) and con.lhs != 0.0:
                (pos_lhs if con.lhs > 0 else neg_lhs).append(a / con.lhs)
            if math.isfinite(con.rhs) and con.rhs != 0.0:
                (pos_rhs if con.rhs > 0 else neg_rhs).append(a / con.rhs)
        for k, ratios in enumerate((pos_lhs, neg_lhs, pos_rhs, neg_rhs)):
            if ratios:
                out[24 + 2 * k] = max(ratios)
                out[25 + 2 * k] = min(ratios)

        allc = (np.concatenate([row_coeffs[i] for i in rows]) if rows
                else np.array([]))
        pos = allc[allc > 0] if allc.size else allc
        neg = allc[allc < 0] if allc.size else allc
        out[32] = pos.size
        if pos.size:
            out[33:37] = _stats(pos)
        out[37] = neg.size
        if neg.size:
            out[38:42] = _stats(neg)

        own = np.array([cons[i].coeffs[j] for i in rows])
        duals = np.array([float(root.lp.duals[i]) for i in rows])
        inv = np.zeros(len(rows))
        for t, i in enumerate(rows):
            s = row_sums[i]
            inv[t] = 1.0 / s if s != 0.0 else 0.0
        base = 42
        for weights in (np.ones(len(rows)), duals, inv):
            vals = own * weights
            if vals.size:
                out[base] = vals.sum()
                mean, std, mn, mx = _stats(vals)
                out[base + 1], out[base + 2] = mean, std
                out[base + 3], out[base + 4] = mx, mn
            base += 5
    return feats


def reference_constraint_row(inst, root, i):
    """The 26 features of row ``i``."""
    con = inst.constraints[i]
    coeffs = np.array([a for _, a in sorted(con.coeffs.items())])
    out = np.zeros(N_CONS_FEATURES)
    out[CONS_TYPES.index(_classify(inst, con))] = 1.0
    out[12] = float(np.clip(con.lhs, -INF_SENTINEL, INF_SENTINEL))
    out[13] = float(np.clip(con.rhs, -INF_SENTINEL, INF_SENTINEL))
    out[14] = coeffs.size
    out[15] = int((coeffs > 0).sum())
    out[16] = int((coeffs < 0).sum())
    out[17] = float(root.lp.duals[i])
    # the basis code of the row's slack, a free one read as at lower
    code = int(root.lp.vstat[inst.n_vars + i])
    out[18] = float(simplex.AT_LOWER if code == simplex.FREE else code)
    out[19] = float(np.abs(coeffs).sum())
    out[20] = float(coeffs[coeffs > 0].sum())
    out[21] = float(-coeffs[coeffs < 0].sum())
    out[22:26] = _stats(coeffs)
    return out


def reference_graph(root):
    """Every feature and edge array of the graph of ``root.instance``,
    computed by walking the rows' ``coeffs`` dicts."""
    red = root.instance
    bins = red.binary_indices()
    node_of = {j: t for t, j in enumerate(bins)}
    c = red.objective_vector()
    cbin = np.abs(c[bins]) if bins else np.zeros(0)

    cons = red.constraints
    vc_var, vc_cons, vc_feats = [], [], []
    for i, con in enumerate(cons):
        items = sorted(con.coeffs.items())
        row_max = max(abs(a) for _, a in items)
        for j, a in items:
            if j not in node_of:
                continue
            vc_var.append(node_of[j])
            vc_cons.append(i)
            vc_feats.append((a, a / row_max if row_max > 0 else 0.0))

    cmax = float(np.abs(c).max()) if c.size else 0.0
    vo_feats = np.zeros((len(bins), 2))
    for t, j in enumerate(bins):
        vo_feats[t, 0] = c[j]
        vo_feats[t, 1] = c[j] / cmax if cmax > 0 else 0.0

    co_feats = np.zeros((len(cons), 2))
    for i, con in enumerate(cons):
        b = con.rhs if math.isfinite(con.rhs) else con.lhs
        row_max = max(abs(a) for a in con.coeffs.values())
        co_feats[i, 0] = b
        co_feats[i, 1] = b / row_max if row_max > 0 else 0.0

    return {
        "var_feats": reference_variable_rows(red, root, bins),
        "cons_feats": np.array(
            [reference_constraint_row(red, root, i) for i in range(len(cons))]
        ).reshape(len(cons), N_CONS_FEATURES),
        "obj_feats": np.array([float(cbin.sum()), float(len(bins))]),
        "vc_var": np.array(vc_var, dtype=np.int64),
        "vc_cons": np.array(vc_cons, dtype=np.int64),
        "vc_feats": np.array(vc_feats, float).reshape(len(vc_var), 2),
        "vo_feats": vo_feats,
        "co_feats": co_feats,
    }


# ---------------------------------------------------------------------------
# Reference dual simplex loop


def reference_dual_core(sp, c, low, upp, basis, vstat, z,
                        feas_tol, piv_tol, max_iter, bland_after,
                        refactor_every):
    """``simplex.dual_core`` started fresh, one pass at a time: return
    (status, pivots, y, d) and update basis, vstat and z in place."""
    T = simplex._factor(sp, low, upp, basis, vstat, z)
    y, d = simplex._price(sp, c, basis, T)

    if simplex._improving(vstat, d, 10.0 * feas_tol).any():
        return simplex.NOT_DUAL_FEASIBLE, 0, y, d

    beta = simplex._row_norms(T, simplex._slack_rows(basis, sp.n, sp.m))
    span = upp - low
    bounded = np.isfinite(span)

    pivots = 0
    degen = 0
    bland = False
    since_refactor = 0
    status = simplex.ITER_LIMIT

    while pivots < max_iter:
        zb = z[basis]
        v_low = low[basis] - zb
        v_upp = zb - upp[basis]
        viol = np.fmax(v_low, v_upp)
        score = np.where(viol > feas_tol, viol * viol / beta, 0.0)
        if not score.any():
            status = simplex.OPTIMAL
            break
        r = int(np.argmax(score))
        below = bool(v_low[r] >= v_upp[r])

        rho = simplex._row_times(sp, T[:, r])
        lv = basis[r]

        elig = simplex._improving(vstat, rho if below else -rho,
                            piv_tol).nonzero()[0]
        if elig.size == 0:
            status = simplex.INFEASIBLE
            break

        piv = np.abs(rho[elig])
        ratio = np.abs(d[elig]) / piv
        flips = elig[:0]
        if bland:
            enter = int(elig[np.argmin(ratio)])
        else:
            cap = np.where(bounded[elig], piv * span[elig], np.inf)
            order = np.argsort(ratio)
            rem = (low[lv] - z[lv]) if below else (z[lv] - upp[lv])
            kk = 0
            enter = -1
            for capk in cap[order].tolist():
                if not capk < rem:
                    enter = int(elig[order[kk]])
                    break
                rem -= capk
                kk += 1
            if enter < 0:
                if rem > feas_tol:
                    status = simplex.INFEASIBLE
                    break
                kk -= 1
                enter = int(elig[order[kk]])
            flips = elig[order[:kk]]

        if flips.size:
            up = vstat[flips] == simplex.AT_LOWER
            dzF = np.zeros(len(z))
            dzF[flips] = np.where(up, span[flips], low[flips] - upp[flips])
            vstat[flips] = np.where(up, simplex.AT_UPPER, simplex.AT_LOWER)
            z[flips] = np.where(up, upp[flips], low[flips])
            z[basis] = z[basis] - simplex._ftran(T, simplex._times(sp, dzF))

        w = simplex._column(sp, T, enter)
        alpha = w[r]
        if alpha <= piv_tol and alpha >= -piv_tol:
            status = simplex.NUMERICAL
            break
        pivots += 1

        bnd = low[lv] if below else upp[lv]
        dz = (z[lv] - bnd) / alpha
        z[enter] = z[enter] + dz
        z[basis] = z[basis] - dz * w
        z[lv] = bnd
        vstat[lv] = simplex.AT_LOWER if below else simplex.AT_UPPER
        basis[r] = enter
        vstat[enter] = simplex.BASIC

        theta = d[enter] / rho[enter]
        d -= theta * rho
        d[basis] = 0.0
        d[lv] = -theta

        if dz <= 1e-10 and dz >= -1e-10:
            degen += 1
            if degen > bland_after:
                bland = True
        else:
            degen = 0

        nz = T[:, r].nonzero()[0]
        rows = T[nz]
        tau = np.dot(rows[:, r], rows)
        br = beta[r]
        ratio = w / alpha
        beta = beta - 2.0 * ratio * tau + ratio * ratio * br
        beta[r] = br / (alpha * alpha)
        beta = np.where(beta < 1e-12, 1e-12, beta)
        simplex._update(T, r, w, nz, rows)

        since_refactor += 1
        if since_refactor >= refactor_every:
            since_refactor = 0
            T = simplex._factor(sp, low, upp, basis, vstat, z)
            beta = simplex._row_norms(T, simplex._slack_rows(basis, sp.n, sp.m))
            d = simplex._price(sp, c, basis, T)[1]

    y, d = simplex._price(sp, c, basis, T)
    if status == simplex.OPTIMAL and simplex._improving(
            vstat, d, 10.0 * feas_tol).any():
        status = simplex.NOT_DUAL_FEASIBLE
    return status, pivots, y, d


# ---------------------------------------------------------------------------
# Warm-start status snap, and recorded LP solves


def reference_snap_vstat(vstat, low, upp):
    """The nonbasic statuses of ``vstat`` put on finite bounds, in place,
    by masks taken from the statuses as given: an at-lower status whose
    lower bound is infinite goes to the upper bound if finite, else free;
    at-upper mirrors that; a free status goes to a finite lower bound,
    else to a finite upper bound."""
    fin_low = np.isfinite(low)
    fin_upp = np.isfinite(upp)
    off_low = (vstat == simplex.AT_LOWER) & ~fin_low
    off_upp = (vstat == simplex.AT_UPPER) & ~fin_upp
    free = vstat == simplex.FREE
    vstat[off_low] = np.where(fin_upp[off_low], simplex.AT_UPPER, simplex.FREE)
    vstat[off_upp] = np.where(fin_low[off_upp], simplex.AT_LOWER, simplex.FREE)
    vstat[free & fin_low] = simplex.AT_LOWER
    vstat[free & ~fin_low & fin_upp] = simplex.AT_UPPER


def record_lp_solves(run):
    """Every ``LpWorkspace.solve`` call made by ``run()``, as (workspace,
    structural lower bounds, structural upper bounds, snapshot).  The
    bounds are copies (None where the call passed none); the snapshot is
    a ``WarmStart`` with copies of the given basis, vstat and state
    (None without a snapshot), taken before the call could use it up."""
    real = simplex.LpWorkspace.solve
    calls = []

    def recording(self, low=None, upp=None, warm=None):
        snap = None
        if warm is not None:
            state = None if warm.state is None else warm.state.copy()
            snap = simplex.WarmStart(warm.basis.copy(), warm.vstat.copy(),
                                     state)
        calls.append((self, None if low is None else low.copy(),
                      None if upp is None else upp.copy(), snap))
        return real(self, low, upp, warm)

    simplex.LpWorkspace.solve = recording
    try:
        run()
    finally:
        simplex.LpWorkspace.solve = real
    return calls


class GatherSum:
    """Per-edge weights summed into rows in the gather form: ``weighted(
    a_e) @ X`` is ``S @ (a_e[:, None] * X[cols])``, with ``S`` the
    n_rows x E indicator matrix of the edges ``rows[k] -> cols[k]``."""

    def __init__(self, rows, cols, n_rows):
        ne = len(rows)
        self.indicator = csr_matrix((np.ones(ne), (rows, np.arange(ne))),
                                    shape=(n_rows, ne))
        self.cols = cols
        self.a_e = None

    def weighted(self, a_e):
        self.a_e = a_e
        return self

    def __matmul__(self, X):
        return self.indicator @ (self.a_e[:, None] * X[self.cols])


def reference_halves(graph):
    """``gcn._halves(graph)`` with both aggregations in the gather form."""
    by_cons = GatherSum(graph.vc_cons, graph.vc_var, graph.n_cons)
    by_var = GatherSum(graph.vc_var, graph.vc_cons, graph.n_vars)
    return (
        gcn._Half("v", "c", graph.n_vars, graph.n_cons, graph.vc_var,
                  graph.vc_cons, by_var, by_cons,
                  np.bincount(graph.vc_cons, minlength=graph.n_cons),
                  graph.vo_feats, graph.vc_feats),
        gcn._Half("c", "v", graph.n_cons, graph.n_vars, graph.vc_cons,
                  graph.vc_var, by_cons, by_var,
                  np.bincount(graph.vc_var, minlength=graph.n_vars),
                  graph.co_feats, graph.vc_feats))


def reference_loss_and_gradients(graph, params, hyper, labels):
    """(z, loss, gradients) of ``gcn.loss_and_gradients``'s passes over
    ``reference_halves``."""
    z, tape = gcn._forward_tape(graph, reference_halves(graph), params, hyper)
    y, mask = gcn.targets_for(graph, labels)
    grads = {name: np.zeros(shape)
             for name, shape in gcn.param_shapes(hyper).items()}
    gcn._backward(graph, params, hyper, tape, gcn._bce_grad(z, y, mask),
                  grads)
    return z, gcn._bce(z, y, mask), grads
