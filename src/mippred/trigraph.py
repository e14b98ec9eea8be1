"""Tripartite graph extraction for the learned solution predictor.

One node per binary variable, one per constraint row, and a single
objective node.  A variable-constraint edge exists where the variable
has a nonzero coefficient in the row; every variable and every row is
also linked to the objective node.  Features are collected from the
presolved instance and its root relaxation, so the caller supplies the
root information produced by the solver.

Every per-variable and per-row statistic is a segment reduction over
the CSR entries of ``core.row_arrays``: sums by ``np.bincount`` (in entry
order), extrema by ``np.minimum.at``/``np.maximum.at``, deviations
two-pass so that equal values deviate by exactly 0.  Statistics over
every coefficient in a variable's rows pool the per-row count ``n_i``,
mean ``mu_i`` and squared deviation ``M2_i`` by the parallel-axis form
``M2 = sum(M2_i + n_i (mu_i - mean)**2)``; no row is expanded per variable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import BINARY, CONTINUOUS, MipInstance, RowArrays, row_arrays
from .bnb import RootInfo

N_VAR_FEATURES = 57
N_CONS_FEATURES = 26
N_OBJ_FEATURES = 2

INF_SENTINEL = 1e10

# one-hot slots for the constraint type, in feature order
CONS_TYPES = ("singleton", "aggregation", "precedence", "knapsack",
              "logicor", "general_linear", "and", "or", "xor",
              "linking", "cardinality", "variable_bound")

_BASIS_CODE = {"basic": 0.0, "at_lower": 1.0, "at_upper": 2.0}


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


def _variable_feature_rows(inst: MipInstance, root: RootInfo,
                           ra: RowArrays) -> np.ndarray:
    """``variable_features`` of every column of ``inst`` as if it were
    binary, one row each, from the rows ``ra`` of ``inst``."""
    n, m = inst.n_vars, len(ra.lhs)
    rid, col, a = ra.row_ids(), ra.cols, ra.vals

    c = inst.objective_vector()
    x = root.lp.x
    up, down = x - np.floor(x), np.ceil(x) - x
    feats = np.zeros((n, N_VAR_FEATURES))
    # 12-16 are the pseudocost block, all zero at the root
    feats[:, :12] = np.column_stack((
        np.ones(n), np.zeros(n),           # binary, not general integer
        c, np.where(0.0 > c, 0.0, c), np.where(0.0 > -c, 0.0, -c),
        np.bincount(col, minlength=n), root.up_locks, root.down_locks,
        x, up, down, np.minimum(up, down) > 1e-6))
    feats[:, 17:20] = np.column_stack((
        [v.lb for v in inst.variables], [v.ub for v in inst.variables],
        root.lp.reduced_costs))
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


def variable_features(inst: MipInstance, root: RootInfo, j: int) -> np.ndarray:
    """57 features for one binary variable of the presolved instance.

    Layout: 8 basic (type flags, objective coefficient split, row count,
    locks), 12 relaxation (LP value triple, fractionality, zero pseudocost
    block, bounds, reduced cost), 37 structural (degrees, side ratios,
    signed coefficient statistics, weighted coefficient statistics under
    unit, dual and inverse-row-sum weights).
    """
    if inst.variables[j].vtype != BINARY:
        raise ValueError(f"variable {inst.variables[j].name!r} is not binary")
    return _variable_feature_rows(inst, root, row_arrays(inst))[j]


def _constraint_feature_rows(inst: MipInstance, root: RootInfo,
                             ra: RowArrays) -> np.ndarray:
    """``constraint_features`` of every row, from the rows ``ra`` of
    ``inst``."""
    m = len(ra.lhs)
    rid, col, a, lhs, rhs = ra.row_ids(), ra.cols, ra.vals, ra.lhs, ra.rhs
    vtype = np.array([v.vtype for v in inst.variables], dtype=str)[col]

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

    feats = np.zeros((m, N_CONS_FEATURES))
    feats[np.arange(m), kind] = 1.0
    feats[:, 12:26] = np.column_stack((
        np.clip(lhs, -INF_SENTINEL, INF_SENTINEL),
        np.clip(rhs, -INF_SENTINEL, INF_SENTINEL),
        n, count(a > 0.0), count(a < 0.0), root.lp.duals,
        [_BASIS_CODE[status] for status in root.lp.row_status],
        count(np.abs(a)), count(np.where(a > 0.0, a, 0.0)),
        -count(np.where(a < 0.0, a, 0.0)), st))
    return feats


def constraint_features(inst: MipInstance, root: RootInfo, i: int) -> np.ndarray:
    """26 features for one row: 17 basic (type one-hot, clipped sides,
    signed counts), 2 relaxation (dual value, basis code), 7 structural
    (sum norms and coefficient statistics)."""
    return _constraint_feature_rows(inst, root, row_arrays(inst))[i]


def build_trigraph(inst: MipInstance, root: RootInfo) -> TriGraph:
    """Assemble the graph for ``inst`` from its root information.

    Nodes and features come from the presolved instance inside ``root``
    (variable names survive presolve, so downstream consumers match by
    name).  Fails if the root relaxation was not solved to optimality.
    """
    if root.lp.status != "optimal":
        raise ValueError(
            f"root relaxation of {inst.name!r} is {root.lp.status}; "
            "features need a solved relaxation")
    red = root.instance
    if inst.name != red.name:
        raise ValueError("root info does not belong to this instance")
    ra = root.rows
    m = len(red.constraints)
    bins = np.array(red.binary_indices(), dtype=np.int64)
    c = red.objective_vector()
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
        var_names=[red.variables[j].name for j in bins],
        cons_names=[con.name for con in red.constraints],
        var_feats=_variable_feature_rows(red, root, ra)[bins],
        cons_feats=_constraint_feature_rows(red, root, ra),
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
    widths = {"var": N_VAR_FEATURES, "cons": N_CONS_FEATURES,
              "obj": N_OBJ_FEATURES, "vc": 2, "vo": 2, "co": 2}
    shift, scale = {}, {}
    for fam in _FAMILIES:
        stacked = [_family_arrays(g)[fam] for g in graphs]
        stacked = [a for a in stacked if a.size]
        if not stacked:
            shift[fam] = np.zeros(widths[fam])
            scale[fam] = np.ones(widths[fam])
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
    edges = []
    for e in range(len(graph.vc_var)):
        edges.append({"type": "vc",
                      "from": graph.var_names[graph.vc_var[e]],
                      "to": graph.cons_names[graph.vc_cons[e]],
                      "features": [float(v) for v in graph.vc_feats[e]]})
    for t, name in enumerate(graph.var_names):
        edges.append({"type": "vo", "from": name, "to": "obj",
                      "features": [float(v) for v in graph.vo_feats[t]]})
    for i, name in enumerate(graph.cons_names):
        edges.append({"type": "co", "from": name, "to": "obj",
                      "features": [float(v) for v in graph.co_feats[i]]})
    return {
        "name": graph.name,
        "var_nodes": [{"name": n, "features": [float(v) for v in row]}
                      for n, row in zip(graph.var_names, graph.var_feats)],
        "cons_nodes": [{"name": n, "features": [float(v) for v in row]}
                       for n, row in zip(graph.cons_names, graph.cons_feats)],
        "obj_features": [float(v) for v in graph.obj_feats],
        "edges": edges,
    }


def trigraph_from_dict(data: dict) -> TriGraph:
    expected = {"name", "var_nodes", "cons_nodes", "obj_features", "edges"}
    unknown = set(data) - expected
    if unknown:
        raise ValueError(f"unknown graph file keys: {sorted(unknown)}")
    missing = expected - set(data)
    if missing:
        raise ValueError(f"missing graph file keys: {sorted(missing)}")
    var_names = [n["name"] for n in data["var_nodes"]]
    cons_names = [n["name"] for n in data["cons_nodes"]]
    vpos = {n: t for t, n in enumerate(var_names)}
    cpos = {n: i for i, n in enumerate(cons_names)}
    var_feats = np.array([n["features"] for n in data["var_nodes"]]
                         ).reshape(len(var_names), N_VAR_FEATURES)
    cons_feats = np.array([n["features"] for n in data["cons_nodes"]]
                          ).reshape(len(cons_names), N_CONS_FEATURES)
    vc_var, vc_cons, vc_feats = [], [], []
    vo_feats = np.zeros((len(var_names), 2))
    co_feats = np.zeros((len(cons_names), 2))
    for e in data["edges"]:
        if e["type"] == "vc":
            vc_var.append(vpos[e["from"]])
            vc_cons.append(cpos[e["to"]])
            vc_feats.append(e["features"])
        elif e["type"] == "vo":
            vo_feats[vpos[e["from"]]] = e["features"]
        elif e["type"] == "co":
            co_feats[cpos[e["from"]]] = e["features"]
        else:
            raise ValueError(f"unknown edge type {e['type']!r}")
    return TriGraph(
        name=data["name"],
        var_names=var_names,
        cons_names=cons_names,
        var_feats=var_feats,
        cons_feats=cons_feats,
        obj_feats=np.array(data["obj_features"], float),
        vc_var=np.array(vc_var, dtype=np.int64),
        vc_cons=np.array(vc_cons, dtype=np.int64),
        vc_feats=np.array(vc_feats, float).reshape(len(vc_var), 2),
        vo_feats=vo_feats,
        co_feats=co_feats,
    )


def write_trigraph(path, graph: TriGraph) -> None:
    with open(path, "w") as fh:
        json.dump(trigraph_to_dict(graph), fh, indent=1)
        fh.write("\n")


def read_trigraph(path) -> TriGraph:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    try:
        return trigraph_from_dict(data)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def scaler_to_dict(scaler: FeatureScaler) -> dict:
    return {fam: {"shift": [float(v) for v in scaler.shift[fam]],
                  "scale": [float(v) for v in scaler.scale[fam]]}
            for fam in _FAMILIES}


def scaler_from_dict(data: dict) -> FeatureScaler:
    unknown = set(data) - set(_FAMILIES)
    if unknown:
        raise ValueError(f"unknown scaler keys: {sorted(unknown)}")
    shift, scale = {}, {}
    for fam in _FAMILIES:
        if fam not in data:
            raise ValueError(f"missing scaler family {fam!r}")
        shift[fam] = np.array(data[fam]["shift"], float)
        scale[fam] = np.array(data[fam]["scale"], float)
        if np.any(scale[fam] <= 0):
            raise ValueError(f"nonpositive scale in family {fam!r}")
    return FeatureScaler(shift=shift, scale=scale)


def write_scaler(path, scaler: FeatureScaler) -> None:
    with open(path, "w") as fh:
        json.dump(scaler_to_dict(scaler), fh, indent=1)
        fh.write("\n")


def read_scaler(path) -> FeatureScaler:
    with open(path) as fh:
        data = json.load(fh)
    try:
        return scaler_from_dict(data)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
