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

Training stops early on a validation set: after every epoch the mean
loss over the validation graphs with stable labels is computed, and
training ends once ``PATIENCE`` epochs in a row have not lowered it
strictly.  The parameters of the epoch with the lowest validation loss
are the ones returned (Prechelt, "Early Stopping -- But When?", 1998).
The number of epochs in the hyperparameters is only a cap.

The public entry points (``forward``, ``loss_and_gradients``,
``train``) check the hyperparameters and, where the caller passes them,
the parameter shapes once per call; the inner passes trust them.
``train`` builds each graph's edge patterns (``_halves``) once, the
other entry points once per call; nothing outlives a call.  A pattern
is a CSR matrix with one entry per variable-constraint edge, grouped
by one endpoint with the edges of each group in their own order.  A
pass writes the attention weights into its entries, so the aggregation
is one sparse product, ``agg = W @ Hs`` with W grouped by target, and
its reverse is ``W^T @ d_agg`` from the pattern grouped by source; no
per-edge copy of the embeddings is built.  Each sum adds the same
products in the same order as summing the weighted gathered rows
would, so the results are those of that form to the byte.
Attention scores come from per-node projections, as in GAT
(Velickovic et al., ICLR 2018): ``a . [center, edge, neighbor]`` is
``center . a[:d] + edge . a[d:d+2] + neighbor . a[d+2:]``, the node
terms taken once per node and gathered per edge, so no per-edge input
wider than the two edge features is built.  The tape keeps the node
embeddings and, per edge, only the scores and weights; with attention
on, the backward pass gathers the embeddings and aggregate gradients
per edge again for the attention gradient.  Training keeps
the parameters, gradients and Adam moments in flat buffers updated in
place, with the same per-element arithmetic as a per-array update.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from .core import check_keys, decode_array, encode_array, read_json, write_json
from .labeler import LabelSet, STABLE1, UNSTABLE
from .trigraph import (
    N_CONS_FEATURES,
    N_OBJ_FEATURES,
    N_VAR_FEATURES,
    TriGraph,
)

FORMAT_VERSION = 2
Z_CLIP = 1e-7
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# elements per in-place Adam pass: the six slices of one pass (1.5 MB)
# stay in cache, and the two scratch buffers stay this small
ADAM_CHUNK = 32768
# epochs without a strictly lower validation loss before training stops
PATIENCE = 10


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
        """Raise ValueError naming the field on a count or seed that is
        not an int, a flag that is not a bool, a learning rate that is
        not a real number (a bool is none of these), or a value out of
        range."""
        for names, kinds, word in (
                (("hidden_dim", "transitions", "output_hidden", "epochs",
                  "seed"), int, "an integer"),
                (("learning_rate",), (int, float), "a real number"),
                (("attention", "literal_loops"), bool, "a bool")):
            for name in names:
                value = getattr(self, name)
                if (isinstance(value, bool) != (kinds is bool)
                        or not isinstance(value, kinds)):
                    raise ValueError(f"{name} must be {word}, got {value!r}")
        for name in ("hidden_dim", "transitions", "output_hidden", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not (math.isfinite(self.learning_rate)
                and self.learning_rate >= 0.0):
            raise ValueError("learning_rate must be finite and >= 0, "
                             f"got {self.learning_rate}")


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


def init_params(hyper: GcnHyper) -> dict[str, np.ndarray]:
    """Uniform fan-balanced weights, zero biases, deterministic per
    ``hyper.seed``."""
    hyper.validate()
    rng = np.random.default_rng(hyper.seed)
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


class _Pattern(NamedTuple):
    """The sparsity pattern of one half's edges grouped by one endpoint:
    a CSR matrix ``mat`` with one stored entry per edge, the edges of each
    row in their own order, and ``order`` the edge behind each stored
    entry.  ``weighted`` writes per-edge weights into the entries, so
    ``mat @ X`` sums ``a_e * X[e's column]`` over each row's edges in edge
    order."""

    mat: object
    order: np.ndarray

    def weighted(self, a_e):
        """``mat`` with each edge's entry set to its weight in ``a_e``."""
        np.take(a_e, self.order, out=self.mat.data)
        return self.mat


def _pattern(rows, cols, n_rows, n_cols) -> _Pattern:
    """``_Pattern`` of the edges ``rows[k] -> cols[k]`` grouped by row."""
    # imported here so that importing the package does not load scipy
    import scipy.sparse as sp
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    mat = sp.csr_matrix((np.zeros(len(rows)), cols[order], indptr),
                        shape=(n_rows, n_cols))
    return _Pattern(mat, order)


class _Half(NamedTuple):
    """Graph data of one half-transition from source nodes ``src`` to
    target nodes ``dst`` (the letters ``v``/``c`` of the parameter names).

    ``e_src``/``e_dst`` give each variable-constraint edge's source and
    target index; ``by_dst`` is the edge pattern with one row per target
    (n_dst x n_src) and ``by_src`` the one with one row per source
    (n_src x n_dst), so the attention-weighted aggregation is
    ``by_dst.weighted(a_e) @ Hs`` and its reverse ``by_src.weighted(a_e)
    @ d_agg``; ``counts_dst`` are the target segment sizes; ``obj_feats``
    are the features of the source-objective edges, ``edge_feats`` those
    of the variable-constraint edges.  The two halves share their two
    patterns, each half's ``by_dst`` being the other's ``by_src``.
    """

    src: str
    dst: str
    n_src: int
    n_dst: int
    e_src: np.ndarray
    e_dst: np.ndarray
    by_src: _Pattern
    by_dst: _Pattern
    counts_dst: np.ndarray
    obj_feats: np.ndarray
    edge_feats: np.ndarray


def _halves(graph: TriGraph) -> tuple[_Half, _Half]:
    """The two halves of a transition, variables -> constraints and
    constraints -> variables."""
    by_cons = _pattern(graph.vc_cons, graph.vc_var, graph.n_cons,
                       graph.n_vars)
    by_var = _pattern(graph.vc_var, graph.vc_cons, graph.n_vars,
                      graph.n_cons)
    counts_c = np.bincount(graph.vc_cons, minlength=graph.n_cons)
    counts_v = np.bincount(graph.vc_var, minlength=graph.n_vars)
    return (
        _Half("v", "c", graph.n_vars, graph.n_cons, graph.vc_var,
              graph.vc_cons, by_var, by_cons, counts_c, graph.vo_feats,
              graph.vc_feats),
        _Half("c", "v", graph.n_cons, graph.n_vars, graph.vc_cons,
              graph.vc_var, by_cons, by_var, counts_v, graph.co_feats,
              graph.vc_feats))


def _global_attention(center, neighbors, edges, att_vec, enabled):
    """(raw, alpha) for one center aggregating every row of neighbors."""
    n = neighbors.shape[0]
    if n == 0:
        return None, np.zeros(0)
    if not enabled:
        return None, np.full(n, 1.0 / n)
    d = center.shape[0]
    raw = _sigmoid(center @ att_vec[:d] + edges @ att_vec[d:d + 2]
                   + neighbors @ att_vec[d + 2:])
    e = np.exp(raw)
    return raw, e / e.sum()


def _edge_attention(h: _Half, Hs, Hd, att_vec, enabled):
    """(raw, alpha) per edge of ``h`` with softmax among the edges of
    each target; ``Hs``/``Hd`` are the source and target embeddings,
    projected on their slices of ``att_vec`` per node and then gathered
    per edge."""
    if len(h.e_src) == 0:
        return None, np.zeros(0)
    if not enabled:
        return None, 1.0 / h.counts_dst[h.e_dst]
    d = Hd.shape[1]
    raw = _sigmoid((Hd @ att_vec[:d])[h.e_dst]
                   + h.edge_feats @ att_vec[d:d + 2]
                   + (Hs @ att_vec[d + 2:])[h.e_src])
    e = np.exp(raw)
    denom = np.bincount(h.e_dst, weights=e, minlength=h.n_dst)
    return raw, e / denom[h.e_dst]


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
    z, _ = _forward_tape(graph, _halves(graph), params, hyper)
    return z


def _forward_tape(graph: TriGraph, halves, params, hyper: GcnHyper):
    """(z, tape) of ``graph`` and its ``halves``, for checked params and hyper.

    Inference and training record the same tape.  Per edge it holds
    only one-dimensional arrays, the attention scores and weights, so
    keeping it costs little more than the node embeddings it holds.
    """
    Hv0 = graph.var_feats @ params["emb_var_w"].T + params["emb_var_b"]
    emb = {"v": Hv0,
           "c": graph.cons_feats @ params["emb_cons_w"].T
           + params["emb_cons_b"]}
    ho = params["emb_obj_w"] @ graph.obj_feats + params["emb_obj_b"]
    records = []
    for t in range(1, hyper.transitions + 1):
        for h in halves:
            rec = _half_forward(h, emb[h.src], emb[h.dst], ho, params, t,
                                hyper)
            emb[h.dst], ho = rec["Hd_new"], rec["ho_new"]
            records.append((t, h, rec))

    u = np.concatenate([Hv0, emb["v"]], axis=1)
    a_out = u @ params["out_w1"].T + params["out_b1"]
    r_out = np.maximum(a_out, 0.0)
    z = _sigmoid(r_out @ params["out_w2"][0] + params["out_b2"][0])
    return z, {"halves": records, "u": u, "a_out": a_out, "r_out": r_out,
               "z": z}


def _half_forward(h: _Half, Hs, Hd, ho, params, t, hyper: GcnHyper):
    """The record of one half-transition of transition ``t`` from the
    source embeddings ``Hs`` to the target embeddings ``Hd``, ending in
    the new target embeddings ``Hd_new`` and objective ``ho_new``.

    Steps 1 and 3 of the paper's four: the source informs the objective
    by global attention.  Then each target aggregates its source
    neighbors by per-edge attention, centred on its previous embedding.
    Steps 2 and 4: the objective is refreshed from the targets and every
    target is updated from the objective and its aggregate.  The record
    keeps the inputs ``Hs``, ``Hd`` and ``ho``; the only per-edge
    entries are the attention scores ``r_e`` and weights ``a_e``.
    """
    d = hyper.hidden_dim
    s, dst = h.src, h.dst
    r_o, a_o = _global_attention(ho, Hs, h.obj_feats,
                                 params[f"att_{s}_to_o"], hyper.attention)
    agg_o = a_o @ Hs if h.n_src else np.zeros(d)
    pre_o = params[f"w_{s}o_{t}"] @ np.concatenate([ho, agg_o])
    ho_o = np.maximum(pre_o, 0.0)

    r_e, a_e = _edge_attention(h, Hs, Hd, params[f"att_{s}_to_{dst}"],
                               hyper.attention)
    agg = h.by_dst.weighted(a_e) @ Hs
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

    Labels are matched by variable name; labels for variables the graph
    has no node for are ignored.
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


def loss_and_gradients(graph: TriGraph, params, hyper: GcnHyper,
                       labels: LabelSet):
    """(loss, exact loss gradients for every parameter) of one graph."""
    hyper.validate()
    _check_shapes(params, hyper)
    z, tape = _forward_tape(graph, _halves(graph), params, hyper)
    y, mask = targets_for(graph, labels)
    loss = _bce(z, y, mask)
    dz = _bce_grad(z, y, mask)
    grads = {name: np.zeros(shape)
             for name, shape in param_shapes(hyper).items()}
    _backward(graph, params, hyper, tape, dz, grads)
    return loss, grads


def _backward(graph: TriGraph, params, hyper: GcnHyper, tape, dz, grads):
    """Add the loss gradients to ``grads``, zero arrays keyed like
    ``params``, from the tape of ``_forward_tape``."""
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
        gHs += h.by_src.weighted(rec["a_e"]) @ d_agg
        if hyper.attention:
            d_a = np.einsum("ed,ed->e", d_agg[h.e_dst], rec["Hs"][h.e_src])
            d_r = _softmax_backward(rec["a_e"], d_a, h.e_dst, h.n_dst)
            d_sc = d_r * rec["r_e"] * (1.0 - rec["r_e"])
            seg_dst = np.bincount(h.e_dst, weights=d_sc, minlength=h.n_dst)
            seg_src = np.bincount(h.e_src, weights=d_sc, minlength=h.n_src)
            att, g_att = params[k_att_e], grads[k_att_e]
            g_att[:d] += rec["Hd"].T @ seg_dst
            g_att[d:d + 2] += h.edge_feats.T @ d_sc
            g_att[d + 2:] += rec["Hs"].T @ seg_src
            gHd_prev += seg_dst[:, None] * att[:d]
            gHs += seg_src[:, None] * att[d + 2:]

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
            att, g_att = params[k_att_o], grads[k_att_o]
            g_att[:d] += d_sc.sum() * rec["ho"]
            g_att[d:d + 2] += h.obj_feats.T @ d_sc
            g_att[d + 2:] += rec["Hs"].T @ d_sc
            gho += d_sc.sum() * att[:d]
            gHs += d_sc[:, None] * att[d + 2:]
    return gHd_prev, gho


# ---------------------------------------------------------------------------
# Training


def train(dataset, hyper: GcnHyper, valid=()):
    """Adam over per-graph full-batch steps with early stopping on
    ``valid``; returns (params, history, valid_history).

    Each epoch visits the graphs once in a freshly shuffled order; the
    history records the mean training loss per epoch.  After each epoch
    the mean loss over the ``valid`` graphs with stable labels, from the
    same forward pass as inference, goes to ``valid_history``.  Training
    stops after ``PATIENCE`` epochs without a strictly lower validation
    loss, or after ``hyper.epochs`` epochs, and returns the parameters
    of the epoch with the lowest one; the shuffles and Adam steps do not
    depend on ``valid``, so these are bit for bit the parameters that
    training with ``epochs`` set to that epoch's number plus one ends
    with.  Without a valid graph that has stable labels
    ``valid_history`` stays empty and all ``hyper.epochs`` epochs run.
    Fully determined by the seed, the hyperparameters and the dataset
    order.

    Parameters, gradients and both Adam moments each live in one flat
    float64 buffer; the named arrays are views into it in
    ``param_shapes`` order.  A step zero-fills the gradient buffer,
    accumulates the backward pass into it and updates the buffers with
    in-place ufuncs, ``ADAM_CHUNK`` elements at a time.  Per element
    this is the textbook expression in a fixed order,
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g``,
    ``p -= (lr*(m/c1)) / (sqrt(v/c2) + eps)``, so the result does not
    depend on the buffer layout or the chunking.  The best epoch's
    parameters are kept in one more buffer of the same size.  The
    hyperparameters are checked once per call, not once per step.
    """
    hyper.validate()
    if not dataset:
        raise ValueError("empty training set")
    aligned = []
    any_stable = False
    for graph, labels in dataset:
        y, mask = targets_for(graph, labels)
        any_stable = any_stable or bool(mask.any())
        aligned.append((graph, _halves(graph), y, mask))
    if not any_stable:
        raise ValueError("no stable labels anywhere in the training set")
    checks = []
    for graph, labels in valid:
        y, mask = targets_for(graph, labels)
        if mask.any():
            checks.append((graph, _halves(graph), y, mask))

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
    best_p = flat_p.copy()
    best_loss, kept = math.inf, -1

    step = 0
    history, valid_history = [], []
    for epoch in range(hyper.epochs):
        order = rng.permutation(len(aligned))
        losses = []
        for idx in order:
            graph, halves, y, mask = aligned[idx]
            if not mask.any():
                continue
            z, tape = _forward_tape(graph, halves, params, hyper)
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
        if not checks:
            continue
        valid_history.append(float(np.mean([
            _bce(_forward_tape(graph, halves, params, hyper)[0], y, mask)
            for graph, halves, y, mask in checks])))
        if valid_history[-1] < best_loss:
            best_loss, kept = valid_history[-1], epoch
            best_p[...] = flat_p
        elif epoch - kept >= PATIENCE:
            break
    if checks:
        flat_p[...] = best_p
    return params, history, valid_history


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


def save_params(path, params: dict, hyper: GcnHyper) -> None:
    """Write the parameters and hyperparameters to ``path`` in model
    file format 2: each parameter, in ``param_shapes`` order, is its
    ``core.encode_array`` text (base64 of its little-endian float64
    bytes in C order), and its shape follows from the hyperparameters."""
    _check_shapes(params, hyper)
    write_json(path, {
        "format_version": FORMAT_VERSION, "hyper": asdict(hyper),
        "params": {name: encode_array(params[name])
                   for name in param_shapes(hyper)}})


def _params_from_dict(blob: dict):
    check_keys(blob, {"format_version", "hyper", "params"}, "model file")
    if blob["format_version"] != FORMAT_VERSION:
        raise ValueError(
            f"unsupported format version {blob['format_version']!r}")
    check_keys(blob["hyper"], {f.name for f in fields(GcnHyper)},
               "hyperparameters")
    hyper = GcnHyper(**blob["hyper"])
    hyper.validate()
    shapes = param_shapes(hyper)
    check_keys(blob["params"], set(shapes), "parameters")
    return {name: decode_array(blob["params"][name], shape,
                               f"parameter {name!r}")
            for name, shape in shapes.items()}, hyper


def load_params(path):
    """(params, hyper) from a model file of format 2 (``save_params``);
    ValueError naming the file on any other version, on hyperparameters
    of the wrong type or range, and on a parameter that
    ``core.decode_array`` refuses: one that is not base64 text, has the
    wrong number of values or a non-finite one."""
    return read_json(path, _params_from_dict)
