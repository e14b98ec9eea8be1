"""Tripartite graph extraction for the learned solution predictor.

One node per binary variable, one per constraint row, and a single
objective node.  A variable-constraint edge exists where the variable
has a nonzero coefficient in the row; every variable and every row is
also linked to the objective node.  Features are collected from the
canonical instance and its root relaxation, so the caller supplies the
root information produced by the solver.

Every per-variable and per-row statistic is a segment reduction over
the CSR entries the instance stores (``inst.rows``): sums by
``np.bincount`` (in entry order), extrema by ``np.minimum.at``/
``np.maximum.at``, deviations two-pass so that equal values deviate by
exactly 0.  Statistics over every coefficient in a variable's rows pool
the per-row count ``n_i``, mean ``mu_i`` and squared deviation ``M2_i``
by the parallel-axis form ``M2 = sum(M2_i + n_i (mu_i - mean)**2)``; no
row is expanded per variable.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core import (BINARY, CONTINUOUS, MipInstance, check_keys, read_json,
                   write_json)
from .bnb import RootInfo
from .simplex import AT_LOWER, FREE, OPTIMAL

N_VAR_FEATURES = 57
N_CONS_FEATURES = 26
N_OBJ_FEATURES = 2

INF_SENTINEL = 1e10

# one-hot slots for the constraint type, in feature order
CONS_TYPES = ("singleton", "aggregation", "precedence", "knapsack",
              "logicor", "general_linear", "and", "or", "xor",
              "linking", "cardinality", "variable_bound")


@dataclass(eq=False)
class TriGraph:
    """Node features plus typed edge lists for one instance.

    ``vc_var``/``vc_cons`` give, per variable-constraint edge, the index
    of the variable node and the constraint node; both arrays follow row
    major order (all edges of row 0, then row 1, ...), and within a row
    ascending variable index.  The v-o and c-o edges are implicit (one
    per node) and carry only their features.
    """

    name: str
    var_names: list[str]
    cons_names: list[str]
    var_feats: np.ndarray
    cons_feats: np.ndarray
    obj_feats: np.ndarray
    vc_var: np.ndarray
    vc_cons: np.ndarray
    vc_feats: np.ndarray
    vo_feats: np.ndarray
    co_feats: np.ndarray

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    @property
    def n_cons(self) -> int:
        return len(self.cons_names)


def _extreme(ufunc, values, key, n):
    """np.minimum or np.maximum over each segment of ``values`` grouped
    by ``key`` in 0..n-1; +inf respectively -inf for an empty segment."""
    out = np.full(n, np.inf if ufunc is np.minimum else -np.inf)
    ufunc.at(out, key, values)
    return out


def _moments(values, key, n):
    """Per-segment (count, sum, mean, sum of squared deviations from the
    mean), all zero for an empty segment."""
    count = np.bincount(key, minlength=n)
    total = np.bincount(key, values, n)
    mean = np.divide(total, count, out=np.zeros(n), where=count > 0)
    dev = values - mean[key]
    return count, total, mean, np.bincount(key, dev * dev, n)


def _summary(count, mean, m2, lo, hi):
    """Per-segment [mean, std, min, max], all zero where ``count`` is 0."""
    return np.where((count > 0)[:, None], np.column_stack(
        (mean, np.sqrt(m2 / np.maximum(count, 1)), lo, hi)), 0.0)


def _stats(values, key, n):
    """Per-segment (count, sum, [mean, std, min, max])."""
    count, total, mean, m2 = _moments(values, key, n)
    lo, hi = (_extreme(f, values, key, n) for f in (np.minimum, np.maximum))
    return count, total, _summary(count, mean, m2, lo, hi)


def _variable_feature_rows(inst: MipInstance, root: RootInfo) -> np.ndarray:
    """57 features of every column of ``inst`` as if it were binary, one
    row each.

    Layout: 8 basic (type flags, objective coefficient split, row count,
    locks), 12 relaxation (LP value triple, fractionality, zero pseudocost
    block, bounds, reduced cost), 37 structural (degrees, side ratios,
    signed coefficient statistics, weighted coefficient statistics under
    unit, dual and inverse-row-sum weights).
    """
    n, m, ra = inst.n_vars, len(inst.row_names), inst.rows
    rid, col, a = ra.row_ids(), ra.cols, ra.vals

    c, x = inst.c, root.lp.x
    up, down = x - np.floor(x), np.ceil(x) - x
    feats = np.zeros((n, N_VAR_FEATURES))
    # 12-16 are the pseudocost block, all zero at the root
    feats[:, :12] = np.column_stack((
        np.ones(n), np.zeros(n),           # binary, not general integer
        c, np.where(0.0 > c, 0.0, c), np.where(0.0 > -c, 0.0, -c),
        np.bincount(col, minlength=n), root.up_locks, root.down_locks,
        x, up, down, np.minimum(up, down) > 1e-6))
    feats[:, 17:20] = np.column_stack((inst.lb, inst.ub, root.lp.reduced_costs))
    feats[:, 20:24] = _stats(np.diff(ra.indptr)[rid].astype(float), col,
                             n)[2]

    # side ratios a_ij / side, split by the sign of the finite side
    for base, side in ((24, ra.lhs[rid]), (28, ra.rhs[rid])):
        for k, sel in enumerate((np.isfinite(side) & (side > 0.0),
                                 np.isfinite(side) & (side < 0.0))):
            st = _stats(a[sel] / side[sel], col[sel], n)[2]
            feats[:, base + 2 * k:base + 2 * k + 2] = st[:, [3, 2]]

    # signed statistics over every coefficient in the variable's rows,
    # pooled from per-row moments
    for base, sign in ((32, a > 0.0), (37, a < 0.0)):
        n_i, s_i, mu_i, m2_i = (v[rid] for v in
                                _moments(a[sign], rid[sign], m))
        count = np.bincount(col, n_i, n)
        mean = np.divide(np.bincount(col, s_i, n), count, out=np.zeros(n),
                         where=count > 0)
        dev = mu_i - mean[col]
        m2 = np.bincount(col, m2_i + n_i * dev * dev, n)
        lo, hi = (_extreme(f, _extreme(f, a[sign], rid[sign], m)[rid], col, n)
                  for f in (np.minimum, np.maximum))
        feats[:, base] = count
        feats[:, base + 1:base + 5] = _summary(count, mean, m2, lo, hi)

    # the variable's own coefficients weighted three ways: unit, dual and
    # inverse row sum (0 for a row summing to 0)
    row_sum = np.bincount(rid, a, m)
    inv = np.divide(1.0, row_sum, out=np.zeros(m), where=row_sum != 0.0)
    for base, weights in ((42, 1.0), (47, root.lp.duals[rid]),
                          (52, inv[rid])):
        _, total, st = _stats(a * weights, col, n)
        feats[:, base:base + 5] = np.column_stack((total, st[:, [0, 1, 3, 2]]))
    return feats


def _constraint_feature_rows(inst: MipInstance, root: RootInfo) -> np.ndarray:
    """26 features of every row of ``inst``, one row each: 17 basic (type
    one-hot, clipped sides, signed counts), 2 relaxation (dual value,
    basis code of the row's slack, free read as at lower), 7 structural
    (sum norms and coefficient statistics)."""
    ra, m = inst.rows, len(inst.row_names)
    rid, col, a, lhs, rhs = ra.row_ids(), ra.cols, ra.vals, ra.lhs, ra.rhs
    vtype = inst.vtype[col]

    def count(flags):
        return np.bincount(rid, flags, m)

    n, _, st = _stats(a, rid, m)
    all_bin = count(vtype != BINARY) == 0
    kind = np.select(
        [n == 1,
         all_bin & (count(a != 1.0) == 0) & (lhs == 1.0) & ~np.isfinite(rhs),
         all_bin & (count(~(a > 0.0)) == 0) & np.isfinite(rhs)
         & ~np.isfinite(lhs),
         (n == 2) & (count(vtype == CONTINUOUS) == 1)],
        [CONS_TYPES.index(t) for t in
         ("singleton", "logicor", "knapsack", "variable_bound")],
        CONS_TYPES.index("general_linear"))

    slack = root.lp.vstat[inst.n_vars:]
    feats = np.zeros((m, N_CONS_FEATURES))
    feats[np.arange(m), kind] = 1.0
    feats[:, 12:26] = np.column_stack((
        np.clip(lhs, -INF_SENTINEL, INF_SENTINEL),
        np.clip(rhs, -INF_SENTINEL, INF_SENTINEL),
        n, count(a > 0.0), count(a < 0.0), root.lp.duals,
        np.where(slack == FREE, AT_LOWER, slack),
        count(np.abs(a)), count(np.where(a > 0.0, a, 0.0)),
        -count(np.where(a < 0.0, a, 0.0)), st))
    return feats


def build_trigraph(inst: MipInstance, root: RootInfo) -> TriGraph:
    """Assemble the graph for ``inst`` from its root information.

    Nodes and features come from the canonical instance inside ``root``.
    Fails if the root relaxation was not solved to optimality.
    """
    if root.lp.status != OPTIMAL:
        raise ValueError(
            f"root relaxation of {inst.name!r} is {root.lp.status}; "
            "features need a solved relaxation")
    red = root.instance
    if inst.name != red.name:
        raise ValueError("root info does not belong to this instance")
    ra, m = red.rows, len(red.row_names)
    bins = np.flatnonzero(red.vtype == BINARY)
    c = red.c
    cmax = float(np.abs(c).max()) if c.size else 0.0

    # v-c edges, row major with ascending variable index inside each row;
    # edge and c-o features divide by the row's largest |coefficient|
    rid = ra.row_ids()
    row_max = _extreme(np.maximum, np.abs(ra.vals), rid, m)
    node_of = np.full(red.n_vars, -1, dtype=np.int64)
    node_of[bins] = np.arange(len(bins))
    order = np.lexsort((ra.cols, rid))
    order = order[node_of[ra.cols[order]] >= 0]
    a, vc_cons = ra.vals[order], rid[order]
    side = np.where(np.isfinite(ra.rhs), ra.rhs, ra.lhs)

    def ratio(num, den):
        return np.divide(num, den, out=np.zeros(len(num)), where=den > 0)

    graph = TriGraph(
        name=red.name,
        var_names=[red.var_names[j] for j in bins.tolist()],
        cons_names=list(red.row_names),
        var_feats=_variable_feature_rows(red, root)[bins],
        cons_feats=_constraint_feature_rows(red, root),
        obj_feats=np.array([float(np.abs(c[bins]).sum()), float(len(bins))]),
        vc_var=node_of[ra.cols[order]],
        vc_cons=vc_cons,
        vc_feats=np.column_stack((a, ratio(a, row_max[vc_cons]))),
        vo_feats=np.column_stack(
            (c[bins], ratio(c[bins], np.full(len(bins), cmax)))),
        co_feats=np.column_stack((side, ratio(side, row_max))),
    )
    for arr in (graph.var_feats, graph.cons_feats, graph.obj_feats,
                graph.vc_feats, graph.vo_feats, graph.co_feats):
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError(f"non-finite features for {inst.name!r}")
    return graph


# ---------------------------------------------------------------------------
# Standardization

_FAMILIES = ("var", "cons", "obj", "vc", "vo", "co")
_WIDTHS = dict(zip(_FAMILIES, (N_VAR_FEATURES, N_CONS_FEATURES,
                               N_OBJ_FEATURES, 2, 2, 2)))


@dataclass
class FeatureScaler:
    """Per-feature shift/scale for each node and edge family."""

    shift: dict[str, np.ndarray]
    scale: dict[str, np.ndarray]


def _family_arrays(graph: TriGraph) -> dict[str, np.ndarray]:
    return {
        "var": graph.var_feats,
        "cons": graph.cons_feats,
        "obj": graph.obj_feats.reshape(1, -1),
        "vc": graph.vc_feats,
        "vo": graph.vo_feats,
        "co": graph.co_feats,
    }


def fit_scaler(graphs: list[TriGraph]) -> FeatureScaler:
    """Column means and deviations over the training graphs; constant
    columns keep scale 1 so they pass through unchanged."""
    if not graphs:
        raise ValueError("need at least one graph to fit a scaler")
    shift, scale = {}, {}
    for fam in _FAMILIES:
        stacked = [_family_arrays(g)[fam] for g in graphs]
        stacked = [a for a in stacked if a.size]
        if not stacked:
            shift[fam] = np.zeros(_WIDTHS[fam])
            scale[fam] = np.ones(_WIDTHS[fam])
            continue
        allrows = np.vstack(stacked)
        mu = allrows.mean(axis=0)
        sd = allrows.std(axis=0)
        sd = np.where(sd > 1e-12, sd, 1.0)
        shift[fam] = mu
        scale[fam] = sd
    return FeatureScaler(shift=shift, scale=scale)


def apply_scaler(graph: TriGraph, scaler: FeatureScaler) -> TriGraph:
    def tx(fam, arr):
        if arr.size == 0:
            return arr.copy()
        return (arr - scaler.shift[fam]) / scaler.scale[fam]

    return TriGraph(
        name=graph.name,
        var_names=list(graph.var_names),
        cons_names=list(graph.cons_names),
        var_feats=tx("var", graph.var_feats),
        cons_feats=tx("cons", graph.cons_feats),
        obj_feats=tx("obj", graph.obj_feats.reshape(1, -1)).ravel(),
        vc_var=graph.vc_var.copy(),
        vc_cons=graph.vc_cons.copy(),
        vc_feats=tx("vc", graph.vc_feats),
        vo_feats=tx("vo", graph.vo_feats),
        co_feats=tx("co", graph.co_feats),
    )


# ---------------------------------------------------------------------------
# Files


def trigraph_to_dict(graph: TriGraph) -> dict:
    """The fields of ``graph`` under their own names, arrays as (nested)
    lists."""
    out = {}
    for f in fields(TriGraph):
        value = getattr(graph, f.name)
        out[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return out


def _array(data: dict, key: str, shape: tuple, bound: int | None = None):
    """``data[key]`` as an array of ``shape``: finite floats, or with a
    ``bound`` integer indices in ``[0, bound)``."""
    arr = np.array(data[key], dtype=float if bound is None else None)
    if arr.size == 0:
        arr = arr.reshape(0, *shape[1:])
    if arr.shape != shape:
        raise ValueError(f"{key} has shape {arr.shape}, expected {shape}")
    if bound is None:
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{key} has non-finite values")
        return arr
    if arr.size and (arr.dtype.kind != "i" or arr.min() < 0
                     or arr.max() >= bound):
        raise ValueError(f"{key} holds a value that is not an index "
                         f"in [0, {bound})")
    return arr.astype(np.int64)


def trigraph_from_dict(data: dict) -> TriGraph:
    check_keys(data, {f.name for f in fields(TriGraph)}, "graph file")
    for key in ("var_names", "cons_names"):
        if not (isinstance(data[key], list)
                and all(isinstance(s, str) for s in data[key])):
            raise ValueError(f"{key} must be a list of strings")
    n, m = len(data["var_names"]), len(data["cons_names"])
    n_edges = len(data["vc_var"])
    return TriGraph(
        name=data["name"],
        var_names=data["var_names"],
        cons_names=data["cons_names"],
        var_feats=_array(data, "var_feats", (n, N_VAR_FEATURES)),
        cons_feats=_array(data, "cons_feats", (m, N_CONS_FEATURES)),
        obj_feats=_array(data, "obj_feats", (N_OBJ_FEATURES,)),
        vc_var=_array(data, "vc_var", (n_edges,), bound=n),
        vc_cons=_array(data, "vc_cons", (n_edges,), bound=m),
        vc_feats=_array(data, "vc_feats", (n_edges, 2)),
        vo_feats=_array(data, "vo_feats", (n, 2)),
        co_feats=_array(data, "co_feats", (m, 2)),
    )


def write_trigraph(path, graph: TriGraph) -> None:
    write_json(path, trigraph_to_dict(graph))


def read_trigraph(path) -> TriGraph:
    return read_json(path, trigraph_from_dict)


def scaler_to_dict(scaler: FeatureScaler) -> dict:
    return {fam: {"shift": [float(v) for v in scaler.shift[fam]],
                  "scale": [float(v) for v in scaler.scale[fam]]}
            for fam in _FAMILIES}


def scaler_from_dict(data: dict) -> FeatureScaler:
    check_keys(data, set(_FAMILIES), "scaler file")
    shift, scale = {}, {}
    for fam in _FAMILIES:
        check_keys(data[fam], {"shift", "scale"}, f"scaler family {fam!r}")
        shift[fam] = np.array(data[fam]["shift"], float)
        scale[fam] = np.array(data[fam]["scale"], float)
        if not shift[fam].shape == scale[fam].shape == (_WIDTHS[fam],):
            raise ValueError(f"scaler family {fam!r} is not "
                             f"{_WIDTHS[fam]} features wide")
        if not (np.all(np.isfinite(shift[fam]))
                and np.all(np.isfinite(scale[fam]))):
            raise ValueError(f"non-finite value in scaler family {fam!r}")
        if np.any(scale[fam] <= 0):
            raise ValueError(f"nonpositive scale in family {fam!r}")
    return FeatureScaler(shift=shift, scale=scale)


def write_scaler(path, scaler: FeatureScaler) -> None:
    write_json(path, scaler_to_dict(scaler))


def read_scaler(path) -> FeatureScaler:
    return read_json(path, scaler_from_dict)
