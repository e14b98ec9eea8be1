"""Independent reference implementations used to check the solver paths.

The enumerator must not share code with the package's simplex or branch
and bound: binary assignments are enumerated exhaustively with numpy,
rows touching only binaries are checked vectorized, and any continuous
remainder is completed with scipy's HiGHS interface.
"""

import math

import numpy as np
from scipy.optimize import linprog

from mippred.core import BINARY, CONTINUOUS, canonicalize

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
