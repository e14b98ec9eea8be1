"""Tripartite graph convolutional network with edge attention.

The forward pass embeds variable, constraint and objective nodes into a
shared hidden dimension and then runs T transitions.  A transition is
two mirrored halves: variables -> objective -> constraints, then
constraints -> objective -> variables, whose sources are the
constraints the first half just updated.  One half, from source to
target nodes,
1. aggregates every source into the objective node by global attention
   (the paper's step 1, respectively 3),
2. aggregates each target's source neighbors by per-edge attention,
3. refreshes the objective from the targets and updates each target
   from the objective and its aggregate (step 2, respectively 4).
Every aggregation is a convex combination whose weights come from a
sigmoid scoring of (center embedding, raw edge features, neighbor
embedding), normalized per neighborhood.  The output layer turns the
concatenation of a variable's initial and final embeddings into a
probability.

Two modes exist for the objective refresh.  The default refreshes the
objective embedding once with the mean over the targets' embeddings,
which makes the network permutation equivariant.  The literal mode
instead re-updates the objective embedding inside a sequential loop
over the targets, reproducing the pseudocode form of the update
order-dependently.  The half is written once, as a forward and a
hand-derived reverse-mode backward covering both modes; correctness is
pinned by finite-difference tests.

The public entry points (``forward``, ``loss_and_gradients``,
``gradients``, ``train``) check the hyperparameters and, where the
caller passes them, the parameter shapes once per call; the inner
passes trust them.  A forward pass that a backward pass follows keeps
the attention inputs and per-edge gathers on its tape, so the backward
pass reads them instead of rebuilding them.  Training keeps the
parameters, gradients and Adam moments in flat buffers updated in
place, with the same per-element arithmetic as a per-array update.
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .labeler import LabelSet, STABLE1, UNSTABLE
from .trigraph import (
    N_CONS_FEATURES,
    N_OBJ_FEATURES,
    N_VAR_FEATURES,
    TriGraph,
)

FORMAT_VERSION = 1
Z_CLIP = 1e-7
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# elements per in-place Adam pass: the six slices of one pass (1.5 MB)
# stay in cache, and the two scratch buffers stay this small
ADAM_CHUNK = 32768


@dataclass
class GcnHyper:
    hidden_dim: int = 64
    transitions: int = 2
    output_hidden: int = 64
    learning_rate: float = 1e-3
    epochs: int = 200
    seed: int = 0
    attention: bool = True
    literal_loops: bool = False

    def validate(self) -> None:
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        if self.transitions < 1:
            raise ValueError("transitions must be >= 1")
        if self.output_hidden < 1:
            raise ValueError("output_hidden must be >= 1")


def param_shapes(hyper: GcnHyper) -> dict[str, tuple]:
    """Parameter name -> shape, in a fixed deterministic order."""
    d = hyper.hidden_dim
    shapes: dict[str, tuple] = {
        "emb_var_w": (d, N_VAR_FEATURES), "emb_var_b": (d,),
        "emb_cons_w": (d, N_CONS_FEATURES), "emb_cons_b": (d,),
        "emb_obj_w": (d, N_OBJ_FEATURES), "emb_obj_b": (d,),
    }
    for t in range(1, hyper.transitions + 1):
        for role in ("vo", "oc", "vc", "co", "ov", "cv"):
            shapes[f"w_{role}_{t}"] = (d, 2 * d)
    for pair in ("v_to_o", "v_to_c", "c_to_o", "c_to_v"):
        shapes[f"att_{pair}"] = (2 * d + 2,)
    shapes["out_w1"] = (hyper.output_hidden, 2 * d)
    shapes["out_b1"] = (hyper.output_hidden,)
    shapes["out_w2"] = (1, hyper.output_hidden)
    shapes["out_b2"] = (1,)
    return shapes


def init_params(hyper: GcnHyper, seed: int | None = None) -> dict[str, np.ndarray]:
    """Uniform fan-balanced weights, zero biases, deterministic per seed."""
    hyper.validate()
    rng = np.random.default_rng(hyper.seed if seed is None else seed)
    params = {}
    for name, shape in param_shapes(hyper).items():
        if name.endswith("_b") or name in ("out_b1", "out_b2"):
            params[name] = np.zeros(shape)
            continue
        if len(shape) == 1:
            fan_in, fan_out = shape[0], 1
        else:
            fan_out, fan_in = shape
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        params[name] = rng.uniform(-limit, limit, size=shape)
    return params


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


# ---------------------------------------------------------------------------
# Segment helpers (variable-constraint edges grouped by either endpoint)


class _Half(NamedTuple):
    """Graph data of one half-transition from source nodes ``src`` to
    target nodes ``dst`` (the letters ``v``/``c`` of the parameter names).

    ``e_src``/``e_dst`` give each variable-constraint edge's source and
    target index; ``sum_src``/``sum_dst`` are sparse indicator matrices
    summing per-edge rows per source and per target node; ``counts_dst``
    are the target segment sizes; ``obj_feats`` are the features of the
    source-objective edges, ``edge_feats`` those of the
    variable-constraint edges.  One-dimensional segment sums use
    ``np.bincount`` instead, which adds in edge order exactly like the
    CSR product; numpy's 2-D ``np.add.reduceat`` does not, so the 2-D
    sums stay CSR.
    """

    src: str
    dst: str
    n_src: int
    n_dst: int
    e_src: np.ndarray
    e_dst: np.ndarray
    sum_src: object
    sum_dst: object
    counts_dst: np.ndarray
    obj_feats: np.ndarray
    edge_feats: np.ndarray


_HALF_CACHE: "weakref.WeakKeyDictionary[TriGraph, tuple]" = \
    weakref.WeakKeyDictionary()


def _halves(graph: TriGraph) -> tuple[_Half, _Half]:
    """The two halves of a transition, variables -> constraints and
    constraints -> variables, cached per graph object."""
    hit = _HALF_CACHE.get(graph)
    if hit is not None:
        return hit
    # imported here so that importing the package does not load scipy
    import scipy.sparse as sp
    ne = len(graph.vc_var)
    ones = np.ones(ne)
    s_cons = sp.csr_matrix((ones, (graph.vc_cons, np.arange(ne))),
                           shape=(graph.n_cons, ne))
    s_var = sp.csr_matrix((ones, (graph.vc_var, np.arange(ne))),
                          shape=(graph.n_vars, ne))
    counts_c = np.bincount(graph.vc_cons, minlength=graph.n_cons)
    counts_v = np.bincount(graph.vc_var, minlength=graph.n_vars)
    hit = _HALF_CACHE[graph] = (
        _Half("v", "c", graph.n_vars, graph.n_cons, graph.vc_var,
              graph.vc_cons, s_var, s_cons, counts_c, graph.vo_feats,
              graph.vc_feats),
        _Half("c", "v", graph.n_cons, graph.n_vars, graph.vc_cons,
              graph.vc_var, s_cons, s_var, counts_v, graph.co_feats,
              graph.vc_feats))
    return hit


def _global_attention(center, neighbors, edges, att_vec, enabled,
                      keep=False):
    """(raw, alpha, stacked) for one center aggregating every row of
    neighbors; ``stacked`` is the scoring input if ``keep``, else None."""
    n = neighbors.shape[0]
    if n == 0:
        return None, np.zeros(0), None
    if not enabled:
        return None, np.full(n, 1.0 / n), None
    stacked = np.concatenate(
        [np.broadcast_to(center, (n, center.shape[0])), edges, neighbors],
        axis=1)
    raw = _sigmoid(stacked @ att_vec)
    e = np.exp(raw)
    return raw, e / e.sum(), stacked if keep else None


def _edge_attention(centers, neighbors, edges, att_vec, counts, idx,
                    enabled, keep=False):
    """(raw, alpha, stacked) per edge with softmax inside each segment.

    ``centers``/``neighbors`` are already gathered per edge; ``counts``
    are the segment sizes of the grouping side and ``idx`` the per-edge
    segment index.  ``stacked`` is the scoring input if ``keep``, else
    None.
    """
    ne = centers.shape[0]
    if ne == 0:
        return None, np.zeros(0), None
    if not enabled:
        return None, 1.0 / counts[idx], None
    stacked = np.concatenate([centers, edges, neighbors], axis=1)
    raw = _sigmoid(stacked @ att_vec)
    e = np.exp(raw)
    denom = np.bincount(idx, weights=e, minlength=len(counts))
    return raw, e / denom[idx], stacked if keep else None


def _softmax_backward(alpha, d_alpha, idx=None, n_seg=0):
    """Gradient through a softmax given d loss / d alpha; segmented by
    the per-edge segment index ``idx`` over ``n_seg`` segments if given."""
    if idx is None:
        return alpha * (d_alpha - np.dot(alpha, d_alpha))
    mixed = np.bincount(idx, weights=alpha * d_alpha, minlength=n_seg)
    return alpha * (d_alpha - mixed[idx])


# ---------------------------------------------------------------------------
# Forward


def forward(graph: TriGraph, params: dict, hyper: GcnHyper) -> np.ndarray:
    """Predicted probability per variable node, strictly inside (0,1)."""
    hyper.validate()
    _check_shapes(params, hyper)
    z, _ = _forward_tape(graph, params, hyper, for_backward=False)
    return z


def _forward_tape(graph: TriGraph, params, hyper: GcnHyper, for_backward):
    """(z, tape) for checked ``params`` and ``hyper``.

    With ``for_backward`` the tape also keeps the attention inputs and
    the per-edge gathers the backward pass reads; inference never holds
    an attention input past its scoring, which keeps its peak memory at
    that of a pass that keeps none.
    """
    Hv0 = graph.var_feats @ params["emb_var_w"].T + params["emb_var_b"]
    emb = {"v": Hv0,
           "c": graph.cons_feats @ params["emb_cons_w"].T
           + params["emb_cons_b"]}
    ho = params["emb_obj_w"] @ graph.obj_feats + params["emb_obj_b"]
    halves = []
    for t in range(1, hyper.transitions + 1):
        for h in _halves(graph):
            rec = _half_forward(h, emb[h.src], emb[h.dst], ho, params, t,
                                hyper, for_backward)
            emb[h.dst], ho = rec["Hd_new"], rec["ho_new"]
            halves.append((t, h, rec))

    u = np.concatenate([Hv0, emb["v"]], axis=1)
    a_out = u @ params["out_w1"].T + params["out_b1"]
    r_out = np.maximum(a_out, 0.0)
    z = _sigmoid(r_out @ params["out_w2"][0] + params["out_b2"][0])
    return z, {"halves": halves, "u": u, "a_out": a_out, "r_out": r_out,
               "z": z}


def _half_forward(h: _Half, Hs, Hd, ho, params, t, hyper: GcnHyper, keep):
    """The record of one half-transition of transition ``t`` from the
    source embeddings ``Hs`` to the target embeddings ``Hd``, ending in
    the new target embeddings ``Hd_new`` and objective ``ho_new``.

    Steps 1 and 3 of the paper's four: the source informs the objective
    by global attention.  Then each target aggregates its source
    neighbors by per-edge attention, centred on its previous embedding.
    Steps 2 and 4: the objective is refreshed from the targets and every
    target is updated from the objective and its aggregate.  With
    ``keep`` the record also holds the attention inputs and the source
    gather for the backward pass.
    """
    d = hyper.hidden_dim
    s, dst = h.src, h.dst
    r_o, a_o, st_o = _global_attention(ho, Hs, h.obj_feats,
                                       params[f"att_{s}_to_o"],
                                       hyper.attention, keep)
    agg_o = a_o @ Hs if h.n_src else np.zeros(d)
    pre_o = params[f"w_{s}o_{t}"] @ np.concatenate([ho, agg_o])
    ho_o = np.maximum(pre_o, 0.0)

    Hs_e = Hs[h.e_src]
    r_e, a_e, st_e = _edge_attention(Hd[h.e_dst], Hs_e, h.edge_feats,
                                     params[f"att_{s}_to_{dst}"],
                                     h.counts_dst, h.e_dst, hyper.attention,
                                     keep)
    agg = h.sum_dst @ (a_e[:, None] * Hs_e) if len(h.e_src) \
        else np.zeros((h.n_dst, d))
    rec = dict(Hs=Hs, Hd=Hd, ho=ho, r_o=r_o, a_o=a_o, agg_o=agg_o,
               pre_o=pre_o, ho_o=ho_o, r_e=r_e, a_e=a_e, agg=agg)

    w_od, w_sd = params[f"w_o{dst}_{t}"], params[f"w_{s}{dst}_{t}"]
    if hyper.literal_loops:
        # the objective is re-updated after each target in turn
        chain = np.zeros((h.n_dst + 1, d))
        chain[0] = ho_o
        pre_a = np.zeros((h.n_dst, d))
        pre_d = np.zeros((h.n_dst, d))
        for i in range(h.n_dst):
            pre_a[i] = w_od @ np.concatenate([chain[i], Hd[i]])
            chain[i + 1] = np.maximum(pre_a[i], 0.0)
            pre_d[i] = w_sd @ np.concatenate([chain[i + 1], agg[i]])
        ho_new = chain[h.n_dst]
        rec.update(chain=chain, pre_a=pre_a)
    else:
        if h.n_dst:
            hdmean = Hd.mean(axis=0)
            pre_m = w_od @ np.concatenate([ho_o, hdmean])
            ho_new = np.maximum(pre_m, 0.0)
        else:
            hdmean, pre_m, ho_new = None, None, ho_o
        rows = np.concatenate(
            [np.broadcast_to(ho_new, (h.n_dst, d)), agg], axis=1)
        pre_d = rows @ w_sd.T
        rec.update(hdmean=hdmean, pre_m=pre_m, rows=rows)
    rec.update(pre_d=pre_d, Hd_new=np.maximum(pre_d, 0.0), ho_new=ho_new)
    if keep:
        rec.update(st_o=st_o, st_e=st_e, Hs_e=Hs_e)
    return rec


def _check_shapes(params, hyper: GcnHyper) -> None:
    for name, shape in param_shapes(hyper).items():
        if name not in params:
            raise ValueError(f"missing parameter {name!r}")
        if params[name].shape != shape:
            raise ValueError(
                f"parameter {name!r} has shape {params[name].shape}, "
                f"expected {shape}")


# ---------------------------------------------------------------------------
# Loss


def targets_for(graph: TriGraph, labels: LabelSet):
    """(0/1 targets, stable mask) aligned with the graph's variables.

    Labels are matched by variable name; labels for variables that were
    presolved out of the graph are ignored.
    """
    lab = labels.as_dict()
    y = np.zeros(graph.n_vars)
    mask = np.zeros(graph.n_vars, dtype=bool)
    for t, name in enumerate(graph.var_names):
        if name not in lab:
            raise KeyError(f"no label for variable {name!r}")
        mask[t] = lab[name] != UNSTABLE
        y[t] = 1.0 if lab[name] == STABLE1 else 0.0
    return y, mask


def bce_loss(z: np.ndarray, labels: LabelSet) -> float:
    """Mean cross entropy over the stable-labeled variables."""
    y = labels.targets()
    mask = labels.stable_mask()
    return _bce(np.asarray(z, float), y, mask)


def _bce(z, y, mask):
    if len(z) != len(y):
        raise ValueError(f"prediction length {len(z)} != label length {len(y)}")
    if not mask.any():
        raise ValueError("loss undefined: no stable labels")
    zc = np.clip(z, Z_CLIP, 1.0 - Z_CLIP)
    terms = -(y * np.log(zc) + (1.0 - y) * np.log(1.0 - zc))
    return float(terms[mask].mean())


def _bce_grad(z, y, mask):
    zc = np.clip(z, Z_CLIP, 1.0 - Z_CLIP)
    inside = (z > Z_CLIP) & (z < 1.0 - Z_CLIP)
    g = np.zeros_like(z)
    n = int(mask.sum())
    g[mask] = (zc[mask] - y[mask]) / (zc[mask] * (1.0 - zc[mask])) / n
    return g * inside


# ---------------------------------------------------------------------------
# Backward


def gradients(graph: TriGraph, params, hyper: GcnHyper,
              labels: LabelSet) -> dict[str, np.ndarray]:
    """Exact loss gradients for every parameter."""
    _, grads = loss_and_gradients(graph, params, hyper, labels)
    return grads


def loss_and_gradients(graph: TriGraph, params, hyper: GcnHyper,
                       labels: LabelSet):
    hyper.validate()
    _check_shapes(params, hyper)
    z, tape = _forward_tape(graph, params, hyper, for_backward=True)
    if len(labels.var_names) == graph.n_vars and \
            labels.var_names == graph.var_names:
        y, mask = labels.targets(), labels.stable_mask()
    else:
        y, mask = targets_for(graph, labels)
    loss = _bce(z, y, mask)
    dz = _bce_grad(z, y, mask)
    grads = {name: np.zeros(shape)
             for name, shape in param_shapes(hyper).items()}
    _backward(graph, params, hyper, tape, dz, grads)
    return loss, grads


def _backward(graph: TriGraph, params, hyper: GcnHyper, tape, dz, grads):
    """Add the loss gradients to ``grads``, zero arrays keyed like
    ``params``, from a tape recorded with ``for_backward``."""
    d = hyper.hidden_dim
    z = tape["z"]
    dlogits = dz * z * (1.0 - z)
    grads["out_b2"][0] = dlogits.sum()
    grads["out_w2"][0] = tape["r_out"].T @ dlogits
    dr_out = dlogits[:, None] * params["out_w2"][0]
    da_out = dr_out * (tape["a_out"] > 0)
    grads["out_w1"] += da_out.T @ tape["u"]
    grads["out_b1"] += da_out.sum(axis=0)
    du = da_out @ params["out_w1"]

    g_emb = {"v": du[:, d:], "c": np.zeros((graph.n_cons, d))}
    gho = np.zeros(d)
    for t, h, rec in reversed(tape["halves"]):
        g_emb[h.dst], gho = _half_backward(h, rec, params, t, hyper,
                                           g_emb[h.dst], gho, g_emb[h.src],
                                           grads)

    gHv0 = g_emb["v"] + du[:, :d]
    grads["emb_var_w"] += gHv0.T @ graph.var_feats
    grads["emb_var_b"] += gHv0.sum(axis=0)
    grads["emb_cons_w"] += g_emb["c"].T @ graph.cons_feats
    grads["emb_cons_b"] += g_emb["c"].sum(axis=0)
    grads["emb_obj_w"] += gho[:, None] * graph.obj_feats
    grads["emb_obj_b"] += gho


def _half_backward(h: _Half, rec, params, t, hyper: GcnHyper, gHd_new,
                   gho_new, gHs, grads):
    """Reverse ``_half_forward`` from the gradients of its outputs,
    ``gHd_new`` and ``gho_new``: add the parameter gradients to ``grads``
    and the source embeddings' gradient to ``gHs`` in place, and return
    the gradients of the previous target embeddings and of the incoming
    objective embedding.
    """
    d = hyper.hidden_dim
    s, dst = h.src, h.dst
    k_so, k_od, k_sd = f"w_{s}o_{t}", f"w_o{dst}_{t}", f"w_{s}{dst}_{t}"
    k_att_o, k_att_e = f"att_{s}_to_o", f"att_{s}_to_{dst}"
    w_so, w_od, w_sd = params[k_so], params[k_od], params[k_sd]
    gHd_prev = np.zeros((h.n_dst, d))

    # objective refresh and target update
    d_pre = gHd_new * (rec["pre_d"] > 0)
    d_agg = d_pre @ w_sd[:, d:]
    if hyper.literal_loops:
        chain, pre_a = rec["chain"], rec["pre_a"]
        agg, Hd = rec["agg"], rec["Hd"]
        gh = gho_new.copy()
        for i in range(h.n_dst - 1, -1, -1):
            gh += w_sd[:, :d].T @ d_pre[i]
            grads[k_sd] += d_pre[i][:, None] * np.concatenate(
                [chain[i + 1], agg[i]])
            d_pa = gh * (pre_a[i] > 0)
            grads[k_od] += d_pa[:, None] * np.concatenate([chain[i], Hd[i]])
            gHd_prev[i] += w_od[:, d:].T @ d_pa
            gh = w_od[:, :d].T @ d_pa
        gho_o = gh
    else:
        grads[k_sd] += d_pre.T @ rec["rows"]
        gho_new = gho_new + (d_pre @ w_sd[:, :d]).sum(axis=0)
        if h.n_dst:
            d_pm = gho_new * (rec["pre_m"] > 0)
            grads[k_od] += d_pm[:, None] * np.concatenate(
                [rec["ho_o"], rec["hdmean"]])
            gho_o = w_od[:, :d].T @ d_pm
            gHd_prev += (w_od[:, d:].T @ d_pm) / h.n_dst
        else:
            gho_o = gho_new

    # agg = sum over edges of a_e * Hs[source], grouped by target
    if len(h.e_src):
        gathered = d_agg[h.e_dst]
        gHs += h.sum_src @ (rec["a_e"][:, None] * gathered)
        if hyper.attention:
            d_a = np.einsum("ed,ed->e", gathered, rec["Hs_e"])
            d_r = _softmax_backward(rec["a_e"], d_a, h.e_dst, h.n_dst)
            d_sc = d_r * rec["r_e"] * (1.0 - rec["r_e"])
            att = params[k_att_e]
            grads[k_att_e] += rec["st_e"].T @ d_sc
            gHd_prev += np.bincount(h.e_dst, weights=d_sc,
                                    minlength=h.n_dst)[:, None] * att[:d]
            gHs += np.bincount(h.e_src, weights=d_sc,
                               minlength=h.n_src)[:, None] * att[d + 2:]

    # source -> objective
    d_pre_o = gho_o * (rec["pre_o"] > 0)
    grads[k_so] += d_pre_o[:, None] * np.concatenate([rec["ho"], rec["agg_o"]])
    gho = w_so[:, :d].T @ d_pre_o
    d_agg_o = w_so[:, d:].T @ d_pre_o
    if h.n_src:
        d_a = rec["Hs"] @ d_agg_o
        gHs += rec["a_o"][:, None] * d_agg_o
        if hyper.attention:
            d_r = _softmax_backward(rec["a_o"], d_a)
            d_sc = d_r * rec["r_o"] * (1.0 - rec["r_o"])
            att = params[k_att_o]
            grads[k_att_o] += rec["st_o"].T @ d_sc
            gho += d_sc.sum() * att[:d]
            gHs += d_sc[:, None] * att[d + 2:]
    return gHd_prev, gho


# ---------------------------------------------------------------------------
# Training


def train(dataset, hyper: GcnHyper):
    """Adam over per-graph full-batch steps; returns (params, history).

    Each epoch visits the graphs once in a freshly shuffled order; the
    history records the mean training loss per epoch.  Fully determined
    by the seed, the hyperparameters and the dataset order.

    Parameters, gradients and both Adam moments each live in one flat
    float64 buffer; the named arrays are views into it in
    ``param_shapes`` order.  A step zero-fills the gradient buffer,
    accumulates the backward pass into it and updates the buffers with
    in-place ufuncs, ``ADAM_CHUNK`` elements at a time.  Per element
    this is the textbook expression in a fixed order,
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g``,
    ``p -= (lr*(m/c1)) / (sqrt(v/c2) + eps)``, so the result does not
    depend on the buffer layout or the chunking.  The hyperparameters
    are checked once per call, not once per step.
    """
    hyper.validate()
    if not dataset:
        raise ValueError("empty training set")
    aligned = []
    any_stable = False
    for graph, labels in dataset:
        y, mask = targets_for(graph, labels)
        any_stable = any_stable or bool(mask.any())
        aligned.append((graph, y, mask))
    if not any_stable:
        raise ValueError("no stable labels anywhere in the training set")

    rng = np.random.default_rng(hyper.seed)
    shapes = param_shapes(hyper)
    size = sum(math.prod(shape) for shape in shapes.values())
    flat_p, flat_g, m, v = np.zeros((4, size))
    s1, s2 = np.zeros((2, min(size, ADAM_CHUNK)))
    params, grads = {}, {}
    start = 0
    for name, shape in shapes.items():
        stop = start + math.prod(shape)
        params[name] = flat_p[start:stop].reshape(shape)
        grads[name] = flat_g[start:stop].reshape(shape)
        start = stop
    for name, arr in init_params(hyper).items():
        params[name][...] = arr

    step = 0
    history = []
    for _ in range(hyper.epochs):
        order = rng.permutation(len(aligned))
        losses = []
        for idx in order:
            graph, y, mask = aligned[idx]
            if not mask.any():
                continue
            z, tape = _forward_tape(graph, params, hyper, for_backward=True)
            losses.append(_bce(z, y, mask))
            flat_g.fill(0.0)
            _backward(graph, params, hyper, tape, _bce_grad(z, y, mask),
                      grads)
            step += 1
            c1 = 1.0 - ADAM_BETA1 ** step
            c2 = 1.0 - ADAM_BETA2 ** step
            for lo in range(0, size, ADAM_CHUNK):
                part = slice(lo, lo + ADAM_CHUNK)
                _adam_update(flat_p[part], flat_g[part], m[part], v[part],
                             s1, s2, hyper.learning_rate, c1, c2)
        history.append(float(np.mean(losses)))
    return params, history


def _adam_update(p, g, m, v, s1, s2, lr, c1, c2):
    """One Adam step on ``p`` in place, with moments ``m``/``v`` and
    bias corrections ``c1``/``c2``; ``s1``/``s2`` are scratch at least
    as long as ``p``.  Each ufunc writes into an existing array, and the
    element-wise order is that of the textbook expressions."""
    s1, s2 = s1[:len(p)], s2[:len(p)]
    np.multiply(m, ADAM_BETA1, out=m)
    np.multiply(g, 1.0 - ADAM_BETA1, out=s1)
    np.add(m, s1, out=m)
    np.multiply(v, ADAM_BETA2, out=v)
    np.multiply(g, 1.0 - ADAM_BETA2, out=s1)
    np.multiply(s1, g, out=s1)
    np.add(v, s1, out=v)
    np.divide(m, c1, out=s1)
    np.multiply(s1, lr, out=s1)
    np.divide(v, c2, out=s2)
    np.sqrt(s2, out=s2)
    np.add(s2, ADAM_EPS, out=s2)
    np.divide(s1, s2, out=s1)
    np.subtract(p, s1, out=p)


# ---------------------------------------------------------------------------
# Model files


def _hyper_to_dict(hyper: GcnHyper) -> dict:
    return {
        "hidden_dim": hyper.hidden_dim,
        "transitions": hyper.transitions,
        "output_hidden": hyper.output_hidden,
        "learning_rate": hyper.learning_rate,
        "epochs": hyper.epochs,
        "seed": hyper.seed,
        "attention": hyper.attention,
        "literal_loops": hyper.literal_loops,
    }


def _hyper_from_dict(data: dict) -> GcnHyper:
    expected = set(_hyper_to_dict(GcnHyper()))
    unknown = set(data) - expected
    if unknown:
        raise ValueError(f"unknown hyperparameter keys: {sorted(unknown)}")
    missing = expected - set(data)
    if missing:
        raise ValueError(f"missing hyperparameter keys: {sorted(missing)}")
    return GcnHyper(**data)


def save_params(path, params: dict, hyper: GcnHyper) -> None:
    blob = {"format_version": FORMAT_VERSION,
            "hyper": _hyper_to_dict(hyper), "params": {}}
    for name, arr in params.items():
        mat = arr if arr.ndim == 2 else arr.reshape(-1, 1)
        blob["params"][name] = {
            "rows": mat.shape[0], "cols": mat.shape[1],
            "data": [float(x) for x in mat.ravel()],
        }
    with open(path, "w") as fh:
        json.dump(blob, fh)
        fh.write("\n")


def load_params(path):
    """(params, hyper) from a model file, with shape validation."""
    with open(path) as fh:
        try:
            blob = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if blob.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported format version {blob.get('format_version')!r}")
    hyper = _hyper_from_dict(blob["hyper"])
    shapes = param_shapes(hyper)
    params = {}
    stored = blob["params"]
    unknown = set(stored) - set(shapes)
    if unknown:
        raise ValueError(f"{path}: unknown parameters {sorted(unknown)}")
    for name, shape in shapes.items():
        if name not in stored:
            raise ValueError(f"{path}: missing parameter {name!r}")
        entry = stored[name]
        rows, cols = entry["rows"], entry["cols"]
        want = shape if len(shape) == 2 else (shape[0], 1)
        if (rows, cols) != want:
            raise ValueError(
                f"{path}: parameter {name!r} is {rows}x{cols}, "
                f"expected {want[0]}x{want[1]}")
        arr = np.array(entry["data"], float)
        if arr.size != rows * cols:
            raise ValueError(f"{path}: parameter {name!r} has "
                             f"{arr.size} values, expected {rows * cols}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{path}: parameter {name!r} has non-finite values")
        params[name] = arr.reshape(rows, cols) if len(shape) == 2 \
            else arr.reshape(shape)
    return params, hyper
