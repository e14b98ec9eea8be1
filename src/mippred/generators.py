"""Seeded generators for eight binary-MIP problem classes.

Each generator produces a valid, feasible instance deterministically
from (problem, preset, params, seed).  Two presets exist per problem:
``tiny`` keeps the binary count small enough for brute-force
enumeration in tests, ``small`` matches the desk-scale variable counts
of the reference benchmark (constraint counts may differ where the
benchmark's figures do not decompose into formulation parameters).

Coefficient distributions: costs, profits and weights are uniform
integers in [1, 100]; geometric classes draw points uniformly in the
unit square and use Euclidean distances rounded after scaling by 100.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from .core import (
    BINARY,
    CONTINUOUS,
    Constraint,
    MipInstance,
    Variable,
)

PROBLEMS = ("fcnf", "cfl", "ga", "mis", "mk", "sc", "tsp", "vrp")

_PRESETS: dict[str, dict[str, dict]] = {
    "fcnf": {
        "tiny": {"layers": 2, "width": 2},
        "small": {"layers": 5, "width": 16},
    },
    "cfl": {
        "tiny": {"facilities": 5, "customers": 8},
        "small": {"facilities": 12, "customers": 100},
    },
    "ga": {
        "tiny": {"agents": 3, "tasks": 8},
        "small": {"agents": 12, "tasks": 96},
    },
    "mis": {
        "tiny": {"nodes": 12, "min_edges": 18, "max_edges": 25},
        "small": {"nodes": 125, "min_edges": 1734, "max_edges": 1929},
    },
    "mk": {
        "tiny": {"min_items": 10, "max_items": 10, "min_dims": 3, "max_dims": 3},
        "small": {"min_items": 315, "max_items": 350, "min_dims": 19, "max_dims": 21},
    },
    "sc": {
        "tiny": {"sets": 12, "elements": 10, "density": 0.3},
        "small": {"sets": 750, "elements": 550, "density": 0.05},
    },
    "tsp": {
        "tiny": {"min_cities": 6, "max_cities": 6},
        "small": {"min_cities": 37, "max_cities": 40},
    },
    "vrp": {
        "tiny": {"customers": 3, "vehicles": 2},
        "small": {"customers": 12, "vehicles": 4},
    },
}


@dataclass
class GenSpec:
    problem: str
    preset: str = "tiny"
    params: dict = field(default_factory=dict)
    seed: int = 0


def _rng(problem: str, seed: int) -> np.random.Generator:
    # crc32 is stable across processes (unlike hash()), keeping instances
    # byte-identical between runs
    return np.random.default_rng(
        np.random.SeedSequence([zlib.crc32(problem.encode()), seed & 0xFFFFFFFF])
    )


def merged_params(problem: str, preset: str, params: dict) -> dict:
    """The parameters of ``preset`` (``tiny``'s for ``custom``) updated
    with ``params``; ValueError for an unknown problem, preset or
    parameter name."""
    if problem not in _PRESETS:
        raise ValueError(f"unknown problem {problem!r}; choose from {PROBLEMS}")
    if preset == "custom":
        base: dict = dict(_PRESETS[problem]["tiny"])
    elif preset in _PRESETS[problem]:
        base = dict(_PRESETS[problem][preset])
    else:
        raise ValueError(f"unknown preset {preset!r} for problem {problem!r}")
    unknown = set(params) - set(base)
    if unknown:
        raise ValueError(f"unknown params {sorted(unknown)} for problem {problem!r}")
    base.update(params)
    return base


def generate(spec: GenSpec) -> MipInstance:
    """Generate one instance; identical specs give identical instances."""
    problem = spec.problem.lower()
    params = merged_params(problem, spec.preset, spec.params)
    rng = _rng(problem, spec.seed)
    builder = _BUILDERS[problem]
    inst = builder(params, rng)
    inst.name = f"{problem}-{spec.preset}-s{spec.seed}"
    return inst


# ---------------------------------------------------------------------------
# helpers


def _int(rng, lo, hi):
    return int(rng.integers(lo, hi + 1))

def _ints(rng, lo, hi, size):
    return rng.integers(lo, hi + 1, size=size)


# ---------------------------------------------------------------------------
# fixed charge network flow: layered digraph source -> L layers -> sink


def _fcnf_arcs(layers: int, width: int):
    nodes = ["s"] + [f"n{l}_{k}" for l in range(1, layers + 1) for k in range(width)] + ["t"]
    arcs = []
    for k in range(width):
        arcs.append(("s", f"n1_{k}"))
    for l in range(1, layers):
        for i in range(width):
            for j in range(width):
                arcs.append((f"n{l}_{i}", f"n{l+1}_{j}"))
    for k in range(width):
        arcs.append((f"n{layers}_{k}", "t"))
    return nodes, arcs


def _gen_fcnf(params, rng) -> MipInstance:
    layers, width = params["layers"], params["width"]
    nodes, arcs = _fcnf_arcs(layers, width)
    E = len(arcs)
    demand = _int(rng, 10, 50)
    fixed = _ints(rng, 1, 100, E)
    flow_cost = _ints(rng, 1, 100, E)
    cap = _ints(rng, max(1, demand // 3), demand, E)
    # the first-node chain gets capacity >= demand so a route always exists
    chain = {("s", "n1_0")} | {(f"n{l}_0", f"n{l+1}_0") for l in range(1, layers)} \
        | {(f"n{layers}_0", "t")}
    cap = cap.astype(np.int64)
    for e, arc in enumerate(arcs):
        if arc in chain:
            cap[e] = max(cap[e], demand)

    variables = [Variable(f"y_{u}_{v}", BINARY, 0.0, 1.0) for u, v in arcs]
    variables += [Variable(f"x_{u}_{v}", CONTINUOUS, 0.0, math.inf) for u, v in arcs]
    x0 = E  # index offset of flow variables
    objective = {e: float(fixed[e]) for e in range(E)}
    objective.update({x0 + e: float(flow_cost[e]) for e in range(E)})

    constraints = []
    for v in nodes:
        coeffs = {}
        for e, (a, b) in enumerate(arcs):
            if b == v:
                coeffs[x0 + e] = 1.0
            elif a == v:
                coeffs[x0 + e] = -1.0
        d = -float(demand) if v == "s" else float(demand) if v == "t" else 0.0
        constraints.append(Constraint(f"flow_{v}", coeffs, d, d))
    for e, (u, v) in enumerate(arcs):
        constraints.append(
            Constraint(f"cap_{u}_{v}", {x0 + e: 1.0, e: -float(cap[e])}, -math.inf, 0.0)
        )
    return MipInstance.from_constraints("fcnf", "min", variables, constraints, objective)


# ---------------------------------------------------------------------------
# capacitated facility location


def _gen_cfl(params, rng) -> MipInstance:
    m, n = params["facilities"], params["customers"]
    demand = _ints(rng, 5, 30, n)
    raw = _ints(rng, 10, 50, m)
    scale = 1.5 * demand.sum() / raw.sum()
    cap = np.ceil(raw * scale).astype(np.int64)
    open_cost = _ints(rng, 1, 100, m)
    ship = _ints(rng, 1, 100, (m, n))

    variables = [Variable(f"x_{i}", BINARY, 0.0, 1.0) for i in range(m)]
    variables += [
        Variable(f"y_{i}_{j}", CONTINUOUS, 0.0, 1.0) for i in range(m) for j in range(n)
    ]
    yidx = lambda i, j: m + i * n + j
    objective = {i: float(open_cost[i]) for i in range(m)}
    objective.update(
        {yidx(i, j): float(ship[i, j]) for i in range(m) for j in range(n)}
    )
    constraints = [
        Constraint(f"demand_{j}", {yidx(i, j): 1.0 for i in range(m)}, 1.0, 1.0)
        for j in range(n)
    ]
    for i in range(m):
        coeffs = {yidx(i, j): float(demand[j]) for j in range(n)}
        coeffs[i] = -float(cap[i])
        constraints.append(Constraint(f"cap_{i}", coeffs, -math.inf, 0.0))
    return MipInstance.from_constraints("cfl", "min", variables, constraints, objective)


# ---------------------------------------------------------------------------
# generalized assignment


def _gen_ga(params, rng) -> MipInstance:
    m, n = params["agents"], params["tasks"]
    profit = _ints(rng, 1, 100, (m, n))
    weight = _ints(rng, 1, 100, (m, n))
    assign = rng.integers(0, m, size=n)
    mult = rng.uniform(1.1, 1.4, size=m)
    load = np.zeros(m)
    for j in range(n):
        load[assign[j]] += weight[assign[j], j]
    capacity = np.zeros(m, dtype=np.int64)
    for i in range(m):
        if load[i] > 0:
            capacity[i] = int(math.ceil(load[i] * mult[i]))
        else:
            capacity[i] = _int(rng, 20, 80)

    variables = [
        Variable(f"x_{i}_{j}", BINARY, 0.0, 1.0) for i in range(m) for j in range(n)
    ]
    vidx = lambda i, j: i * n + j
    objective = {vidx(i, j): float(profit[i, j]) for i in range(m) for j in range(n)}
    constraints = [
        Constraint(
            f"cap_{i}",
            {vidx(i, j): float(weight[i, j]) for j in range(n)},
            -math.inf,
            float(capacity[i]),
        )
        for i in range(m)
    ]
    constraints += [
        Constraint(f"assign_{j}", {vidx(i, j): 1.0 for i in range(m)}, 1.0, 1.0)
        for j in range(n)
    ]
    return MipInstance.from_constraints("ga", "max", variables, constraints, objective)


# ---------------------------------------------------------------------------
# maximum independent set


def _gen_mis(params, rng) -> MipInstance:
    n = params["nodes"]
    n_edges = _int(rng, params["min_edges"], params["max_edges"])
    iu, iv = np.triu_indices(n, 1)
    pick = rng.choice(iu.shape[0], size=n_edges, replace=False)
    pick.sort()
    variables = [Variable(f"x_{v}", BINARY, 0.0, 1.0) for v in range(n)]
    objective = {v: 1.0 for v in range(n)}
    constraints = [
        Constraint(f"e_{iu[p]}_{iv[p]}", {int(iu[p]): 1.0, int(iv[p]): 1.0}, -math.inf, 1.0)
        for p in pick
    ]
    return MipInstance.from_constraints("mis", "max", variables, constraints, objective)


# ---------------------------------------------------------------------------
# multidimensional knapsack


def _gen_mk(params, rng) -> MipInstance:
    n = _int(rng, params["min_items"], params["max_items"])
    m = _int(rng, params["min_dims"], params["max_dims"])
    weight = _ints(rng, 1, 100, (m, n))
    profit = _ints(rng, 1, 100, n)
    capacity = (weight.sum(axis=1) * 0.5).astype(np.int64)
    variables = [Variable(f"x_{j}", BINARY, 0.0, 1.0) for j in range(n)]
    objective = {j: float(profit[j]) for j in range(n)}
    constraints = [
        Constraint(
            f"cap_{i}",
            {j: float(weight[i, j]) for j in range(n)},
            -math.inf,
            float(capacity[i]),
        )
        for i in range(m)
    ]
    return MipInstance.from_constraints("mk", "max", variables, constraints, objective)


# ---------------------------------------------------------------------------
# set covering


def _gen_sc(params, rng) -> MipInstance:
    n_sets, n_elems, density = params["sets"], params["elements"], params["density"]
    member = rng.random((n_elems, n_sets)) < density
    for i in range(n_elems):
        if not member[i].any():
            member[i, _int(rng, 0, n_sets - 1)] = True
    variables = [Variable(f"x_{j}", BINARY, 0.0, 1.0) for j in range(n_sets)]
    objective = {j: 1.0 for j in range(n_sets)}
    constraints = [
        Constraint(
            f"cover_{i}",
            {int(j): 1.0 for j in np.flatnonzero(member[i])},
            1.0,
            math.inf,
        )
        for i in range(n_elems)
    ]
    return MipInstance.from_constraints("sc", "min", variables, constraints, objective)


# ---------------------------------------------------------------------------
# traveling salesman, Miller-Tucker-Zemlin form


def _gen_tsp(params, rng) -> MipInstance:
    n = _int(rng, params["min_cities"], params["max_cities"])
    pts = rng.random((n, 2))
    dist = np.round(
        100.0 * np.hypot(pts[:, None, 0] - pts[None, :, 0], pts[:, None, 1] - pts[None, :, 1])
    )
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    aidx = {a: k for k, a in enumerate(arcs)}
    variables = [Variable(f"x_{i}_{j}", BINARY, 0.0, 1.0) for i, j in arcs]
    variables += [
        Variable(f"u_{i}", CONTINUOUS, 0.0, float(n - 1)) for i in range(1, n)
    ]
    uidx = lambda i: len(arcs) + i - 1
    objective = {aidx[(i, j)]: float(dist[i, j]) for i, j in arcs}
    constraints = [
        Constraint(f"out_{i}", {aidx[(i, j)]: 1.0 for j in range(n) if j != i}, 1.0, 1.0)
        for i in range(n)
    ]
    constraints += [
        Constraint(f"in_{j}", {aidx[(i, j)]: 1.0 for i in range(n) if i != j}, 1.0, 1.0)
        for j in range(n)
    ]
    for i in range(1, n):
        for j in range(1, n):
            if i == j:
                continue
            constraints.append(
                Constraint(
                    f"order_{i}_{j}",
                    {uidx(i): 1.0, uidx(j): -1.0, aidx[(i, j)]: float(n)},
                    -math.inf,
                    float(n - 1),
                )
            )
    return MipInstance.from_constraints("tsp", "min", variables, constraints, objective)


# ---------------------------------------------------------------------------
# capacitated vehicle routing (single depot split into start node 0 and
# end node n+1, load-propagation linking rows)


def vrp_route_split(demands, capacity):
    """Greedy contiguous split of customers into routes of load <= capacity."""
    routes, cur, load = [], [], 0
    for j, q in enumerate(demands, start=1):
        if cur and load + q > capacity:
            routes.append(cur)
            cur, load = [], 0
        cur.append(j)
        load += q
    if cur:
        routes.append(cur)
    return routes


def _gen_vrp(params, rng) -> MipInstance:
    n, K = params["customers"], params["vehicles"]
    pts = np.vstack([rng.random((n + 1, 2)), np.zeros((1, 2))])
    pts[n + 1] = pts[0]  # end depot shares the start depot location
    demand = _ints(rng, 1, 30, n)
    Q = max(int(math.ceil(1.25 * demand.sum() / K)), int(demand.max()))
    while len(vrp_route_split(demand, Q)) > K:
        Q = int(math.ceil(Q * 1.1))
    dist = np.round(
        100.0 * np.hypot(pts[:, None, 0] - pts[None, :, 0], pts[:, None, 1] - pts[None, :, 1])
    )
    V = n + 2
    arcs = [(i, j) for i in range(V) for j in range(V) if i != j]
    aidx = {a: k for k, a in enumerate(arcs)}
    q = np.zeros(V)
    q[1 : n + 1] = demand
    variables = [Variable(f"x_{i}_{j}", BINARY, 0.0, 1.0) for i, j in arcs]
    variables += [Variable(f"y_{i}", CONTINUOUS, 0.0, float(Q)) for i in range(V)]
    yidx = lambda i: len(arcs) + i
    objective = {aidx[(i, j)]: float(dist[i, j]) for i, j in arcs}
    constraints = [
        Constraint(
            f"out_{i}",
            {aidx[(i, j)]: 1.0 for j in range(1, n + 2) if j != i},
            1.0,
            1.0,
        )
        for i in range(1, n + 1)
    ]
    constraints += [
        Constraint(
            f"flow_{h}",
            {
                **{aidx[(i, h)]: 1.0 for i in range(0, n + 1) if i != h},
                **{aidx[(h, j)]: -1.0 for j in range(1, n + 2) if j != h},
            },
            0.0,
            0.0,
        )
        for h in range(1, n + 1)
    ]
    constraints.append(
        Constraint(
            "vehicles",
            {aidx[(0, j)]: 1.0 for j in range(1, n + 1)},
            -math.inf,
            float(K),
        )
    )
    for i, j in arcs:
        constraints.append(
            Constraint(
                f"load_{i}_{j}",
                {yidx(i): 1.0, yidx(j): -1.0, aidx[(i, j)]: float(q[j]) + Q},
                -math.inf,
                float(Q),
            )
        )
    return MipInstance.from_constraints("vrp", "min", variables, constraints, objective)


_BUILDERS = {
    "fcnf": _gen_fcnf,
    "cfl": _gen_cfl,
    "ga": _gen_ga,
    "mis": _gen_mis,
    "mk": _gen_mk,
    "sc": _gen_sc,
    "tsp": _gen_tsp,
    "vrp": _gen_vrp,
}
