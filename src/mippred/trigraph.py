"""Tripartite graph extraction for the learned solution predictor.

One node per binary variable, one per constraint row, and a single
objective node.  A variable-constraint edge exists where the variable
has a nonzero coefficient in the row; every variable and every row is
also linked to the objective node.  Features are collected from the
presolved instance and its root relaxation, so the caller supplies the
root information produced by the solver.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import BINARY, CONTINUOUS, MipInstance
from .bnb import RootInfo

N_VAR_FEATURES = 57
N_CONS_FEATURES = 26
N_OBJ_FEATURES = 2
N_EDGE_FEATURES = 2

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
    major order (all edges of row 0, then row 1, ...).  The v-o and c-o
    edges are implicit (one per node) and carry only their features.
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

    def cons_of_var(self, j: int) -> np.ndarray:
        return self.vc_cons[self.vc_var == j]


def _stats(values: np.ndarray) -> tuple[float, float, float, float]:
    """(mean, std, min, max), all zero for an empty array."""
    if values.size == 0:
        return 0.0, 0.0, 0.0, 0.0
    return (float(values.mean()), float(values.std()),
            float(values.min()), float(values.max()))


def _classify(inst: MipInstance, i: int) -> str:
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


def variable_features(inst: MipInstance, root: RootInfo, j: int) -> np.ndarray:
    """57 features for one binary variable of the presolved instance.

    Layout: 8 basic (type flags, objective coefficient split, row count,
    locks), 12 relaxation (LP value triple, fractionality, pseudocost
    block, bounds, reduced cost), 37 structural (degrees, side ratios,
    signed coefficient statistics, weighted coefficient statistics under
    unit, dual and inverse-row-sum weights).
    """
    return _variable_feature_rows(inst, root, [j])[0]


def _variable_feature_rows(inst: MipInstance, root: RootInfo,
                           cols) -> np.ndarray:
    """``variable_features`` for each variable in ``cols``, one row each.

    The objective vector, the rows of each variable, one coefficient
    array per row and the row sums are built once for all of them.
    """
    for j in cols:
        var = inst.variables[j]
        if var.vtype != BINARY:
            raise ValueError(f"variable {var.name!r} is not binary")
    c = inst.objective_vector()
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
        out[0] = 1.0                       # is binary
        out[1] = 0.0                       # is general integer
        cj = float(c[j])
        out[2] = cj
        out[3] = max(cj, 0.0)
        out[4] = max(-cj, 0.0)
        out[5] = len(rows)
        out[6] = root.up_locks[j]
        out[7] = root.down_locks[j]

        xj = float(root.lp.x[j])
        out[8] = xj
        out[9] = xj - math.floor(xj)
        out[10] = math.ceil(xj) - xj
        out[11] = 1.0 if min(out[9], out[10]) > 1e-6 else 0.0
        pc_up = float(root.pseudocost_up[j])
        pc_down = float(root.pseudocost_down[j])
        out[12] = pc_up
        out[13] = pc_down
        out[14] = pc_up / (pc_down + 1.0)
        out[15] = pc_up + pc_down
        out[16] = pc_up * pc_down
        out[17] = var.lb
        out[18] = var.ub
        out[19] = float(root.lp.reduced_costs[j])

        degrees = np.array([row_coeffs[i].size for i in rows], float)
        out[20:24] = _stats(degrees)

        # side ratios a_ij / side, split by the sign of the finite side
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

        # signed statistics over every coefficient appearing in those rows
        allc = (np.concatenate([row_coeffs[i] for i in rows]) if rows
                else np.array([]))
        pos = allc[allc > 0] if allc.size else allc
        neg = allc[allc < 0] if allc.size else allc
        out[32] = pos.size
        if pos.size:
            mean, std, mn, mx = _stats(pos)
            out[33], out[34], out[35], out[36] = mean, std, mn, mx
        out[37] = neg.size
        if neg.size:
            mean, std, mn, mx = _stats(neg)
            out[38], out[39], out[40], out[41] = mean, std, mn, mx

        # the variable's own coefficients weighted three ways
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


def constraint_features(inst: MipInstance, root: RootInfo, i: int) -> np.ndarray:
    """26 features for one row: 17 basic (type one-hot, clipped sides,
    signed counts), 2 relaxation (dual value, basis code), 7 structural
    (sum norms and coefficient statistics)."""
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
    mean, std, mn, mx = _stats(coeffs)
    out[22], out[23], out[24], out[25] = mean, std, mn, mx
    return out


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
    bins = red.binary_indices()
    node_of = {j: t for t, j in enumerate(bins)}
    var_names = [red.variables[j].name for j in bins]
    cons_names = [con.name for con in red.constraints]

    var_feats = _variable_feature_rows(red, root, bins)
    cons_feats = np.array([constraint_features(red, root, i)
                           for i in range(len(red.constraints))]
                          ).reshape(len(cons_names), N_CONS_FEATURES)

    c = red.objective_vector()
    cbin = np.abs(c[bins]) if bins else np.zeros(0)
    obj_feats = np.array([float(cbin.sum()), float(len(bins))])

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

    co_feats = np.zeros((len(cons_names), 2))
    for i, con in enumerate(red.constraints):
        b = con.rhs if math.isfinite(con.rhs) else con.lhs
        row_max = max(abs(a) for a in con.coeffs.values())
        co_feats[i, 0] = b
        co_feats[i, 1] = b / row_max if row_max > 0 else 0.0

    graph = TriGraph(
        name=red.name,
        var_names=var_names,
        cons_names=cons_names,
        var_feats=var_feats,
        cons_feats=cons_feats,
        obj_feats=obj_feats,
        vc_var=np.array(vc_var, dtype=np.int64),
        vc_cons=np.array(vc_cons, dtype=np.int64),
        vc_feats=np.array(vc_feats, float).reshape(len(vc_var), 2),
        vo_feats=vo_feats,
        co_feats=co_feats,
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
