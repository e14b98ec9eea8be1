"""Independent reference implementations used to check the solver paths.

The enumerator must not share code with the package's simplex or branch
and bound: binary assignments are enumerated exhaustively with numpy,
rows touching only binaries are checked vectorized, and any continuous
remainder is completed with scipy's HiGHS interface.

The featurization reference walks each row's ``coeffs`` dict and calls
numpy's ``mean``/``std``/``min``/``max`` once per variable and per row,
so it shares no arithmetic with the segment reductions in ``trigraph``.
"""

import math

import numpy as np
from scipy.optimize import linprog

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
    n, m = inst.n_vars, len(inst.constraints)
    G = np.zeros((m, n + m))
    for i, con in enumerate(inst.constraints):
        for j, a in con.coeffs.items():
            G[i, j] = a
        G[i, n + i] = -1.0
    c = np.zeros(n + m)
    for j, cj in inst.objective.items():
        c[j] = cj
    low = np.array([v.lb for v in inst.variables]
                   + [con.lhs for con in inst.constraints])
    upp = np.array([v.ub for v in inst.variables]
                   + [con.rhs for con in inst.constraints])
    is_int = [v.vtype in (BINARY, INTEGER) for v in inst.variables]
    int_terms = [[(j, a) for j, a in con.coeffs.items()
                  if a != 0.0 and is_int[j]] for con in inst.constraints]
    col_terms = [[] for _ in range(n)]
    for i, con in enumerate(inst.constraints):
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

_BASIS_CODE = {"basic": 0.0, "at_lower": 1.0, "at_upper": 2.0}


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


def _classify(inst, i):
    con = inst.constraints[i]
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
    rows_of = {j: [] for j in cols}
    for i, con in enumerate(inst.constraints):
        for k in con.coeffs:
            if k in rows_of:
                rows_of[k].append(i)
    row_coeffs = [np.array(list(con.coeffs.values()))
                  for con in inst.constraints]
    row_sums = [sum(con.coeffs.values()) for con in inst.constraints]
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
            con = inst.constraints[i]
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

        own = np.array([inst.constraints[i].coeffs[j] for i in rows])
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
    out[CONS_TYPES.index(_classify(inst, i))] = 1.0
    out[12] = float(np.clip(con.lhs, -INF_SENTINEL, INF_SENTINEL))
    out[13] = float(np.clip(con.rhs, -INF_SENTINEL, INF_SENTINEL))
    out[14] = coeffs.size
    out[15] = int((coeffs > 0).sum())
    out[16] = int((coeffs < 0).sum())
    out[17] = float(root.lp.duals[i])
    out[18] = _BASIS_CODE[root.lp.row_status[i]]
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

    vc_var, vc_cons, vc_feats = [], [], []
    for i, con in enumerate(red.constraints):
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

    co_feats = np.zeros((len(red.constraints), 2))
    for i, con in enumerate(red.constraints):
        b = con.rhs if math.isfinite(con.rhs) else con.lhs
        row_max = max(abs(a) for a in con.coeffs.values())
        co_feats[i, 0] = b
        co_feats[i, 1] = b / row_max if row_max > 0 else 0.0

    return {
        "var_feats": reference_variable_rows(red, root, bins),
        "cons_feats": np.array(
            [reference_constraint_row(red, root, i)
             for i in range(len(red.constraints))]
        ).reshape(len(red.constraints), N_CONS_FEATURES),
        "obj_feats": np.array([float(cbin.sum()), float(len(bins))]),
        "vc_var": np.array(vc_var, dtype=np.int64),
        "vc_cons": np.array(vc_cons, dtype=np.int64),
        "vc_feats": np.array(vc_feats, float).reshape(len(vc_var), 2),
        "vo_feats": vo_feats,
        "co_feats": co_feats,
    }
