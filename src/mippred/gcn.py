"""Tripartite graph convolutional network with edge attention.

The forward pass embeds variable, constraint and objective nodes into a
shared hidden dimension and then runs T transitions, each a four-step
exchange: variables inform the objective node, the objective and the
variables inform each constraint, constraints inform the objective, and
finally the objective and the constraints inform each variable.  Every
aggregation is a convex combination whose weights come from a sigmoid
scoring of (center embedding, raw edge features, neighbor embedding),
normalized per neighborhood.  The output layer turns the concatenation
of a variable's initial and final embeddings into a probability.

Two aggregation modes exist.  The default refreshes the objective
embedding once per step with the mean over the other side's embeddings,
which makes the network permutation equivariant.  The literal mode
instead re-updates the objective embedding inside a sequential loop
over constraints respectively variables, reproducing the pseudocode
form of the update order-dependently.  Gradients are hand-derived
reverse mode for both modes; correctness is pinned by finite-difference
tests.

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

_SEG_CACHE: "weakref.WeakKeyDictionary[TriGraph, tuple]" = weakref.WeakKeyDictionary()


def _segments(graph: TriGraph):
    """(s_cons, s_var, counts_c, counts_v), cached per graph object.

    ``s_cons``/``s_var`` are sparse indicator matrices summing per-edge
    rows per constraint and per variable; the counts are the segment
    sizes.  One-dimensional segment sums use ``np.bincount`` instead,
    which adds in edge order exactly like the CSR product; numpy's 2-D
    ``np.add.reduceat`` does not, so the 2-D sums stay CSR.
    """
    hit = _SEG_CACHE.get(graph)
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
    hit = _SEG_CACHE[graph] = (s_cons, s_var, counts_c, counts_v)
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
    d = hyper.hidden_dim
    nv, nc = graph.n_vars, graph.n_cons
    s_cons, s_var, counts_c, counts_v = _segments(graph)
    ev, ec = graph.vc_var, graph.vc_cons

    Hv = graph.var_feats @ params["emb_var_w"].T + params["emb_var_b"]
    Hc = graph.cons_feats @ params["emb_cons_w"].T + params["emb_cons_b"]
    ho = params["emb_obj_w"] @ graph.obj_feats + params["emb_obj_b"]
    Hv0 = Hv
    tape = {"Hv0": Hv0, "Hc0": Hc, "ho0": ho, "steps": []}

    for t in range(1, hyper.transitions + 1):
        rec = {"Hv_prev": Hv, "Hc_prev": Hc, "ho_prev": ho}

        # step 1: variables -> objective
        r1, a1, st1 = _global_attention(ho, Hv, graph.vo_feats,
                                        params["att_v_to_o"], hyper.attention,
                                        for_backward)
        agg1 = a1 @ Hv if nv else np.zeros(d)
        pre1 = params[f"w_vo_{t}"] @ np.concatenate([ho, agg1])
        ho_s1 = np.maximum(pre1, 0.0)
        rec.update(r1=r1, a1=a1, agg1=agg1, pre1=pre1, ho_s1=ho_s1)

        # per-edge attention for the constraint updates (center is the
        # previous constraint embedding)
        Hv_ev = Hv[ev]
        r2, a2, st2 = _edge_attention(Hc[ec], Hv_ev, graph.vc_feats,
                                      params["att_v_to_c"], counts_c, ec,
                                      hyper.attention, for_backward)
        aggc = s_cons @ (a2[:, None] * Hv_ev) if len(ev) else np.zeros((nc, d))
        rec.update(r2=r2, a2=a2, aggc=aggc)

        # step 2: objective refresh plus constraint updates
        if hyper.literal_loops:
            chain = np.zeros((nc + 1, d))
            chain[0] = ho_s1
            pre2a = np.zeros((nc, d))
            preC = np.zeros((nc, d))
            for i in range(nc):
                pre2a[i] = params[f"w_oc_{t}"] @ np.concatenate([chain[i], Hc[i]])
                chain[i + 1] = np.maximum(pre2a[i], 0.0)
                preC[i] = params[f"w_vc_{t}"] @ np.concatenate(
                    [chain[i + 1], aggc[i]])
            Hc_new = np.maximum(preC, 0.0)
            ho_s2 = chain[nc]
            rec.update(chain2=chain, pre2a=pre2a, preC=preC, Hc_new=Hc_new,
                       ho_s2=ho_s2)
        else:
            if nc:
                hcmean = Hc.mean(axis=0)
                pre2 = params[f"w_oc_{t}"] @ np.concatenate([ho_s1, hcmean])
                ho_s2 = np.maximum(pre2, 0.0)
            else:
                hcmean, pre2, ho_s2 = None, None, ho_s1
            rows2 = np.concatenate(
                [np.broadcast_to(ho_s2, (nc, d)), aggc], axis=1)
            preC = rows2 @ params[f"w_vc_{t}"].T
            Hc_new = np.maximum(preC, 0.0)
            rec.update(hcmean=hcmean, pre2=pre2, ho_s2=ho_s2, rows2=rows2,
                       preC=preC, Hc_new=Hc_new)

        # step 3: constraints -> objective (center is the current h_o)
        r3, a3, st3 = _global_attention(ho_s2, Hc_new, graph.co_feats,
                                        params["att_c_to_o"], hyper.attention,
                                        for_backward)
        agg3 = a3 @ Hc_new if nc else np.zeros(d)
        pre3 = params[f"w_co_{t}"] @ np.concatenate([ho_s2, agg3])
        ho_s3 = np.maximum(pre3, 0.0)
        rec.update(r3=r3, a3=a3, agg3=agg3, pre3=pre3, ho_s3=ho_s3)

        # per-edge attention for the variable updates (center is the
        # previous variable embedding, neighbors the fresh constraints)
        Hc_ec = Hc_new[ec]
        r4, a4, st4 = _edge_attention(Hv_ev, Hc_ec, graph.vc_feats,
                                      params["att_c_to_v"], counts_v, ev,
                                      hyper.attention, for_backward)
        aggv = s_var @ (a4[:, None] * Hc_ec) if len(ev) else np.zeros((nv, d))
        rec.update(r4=r4, a4=a4, aggv=aggv)

        # step 4: objective refresh plus variable updates
        if hyper.literal_loops:
            chain = np.zeros((nv + 1, d))
            chain[0] = ho_s3
            pre4a = np.zeros((nv, d))
            preV = np.zeros((nv, d))
            for j in range(nv):
                pre4a[j] = params[f"w_ov_{t}"] @ np.concatenate([chain[j], Hv[j]])
                chain[j + 1] = np.maximum(pre4a[j], 0.0)
                preV[j] = params[f"w_cv_{t}"] @ np.concatenate(
                    [chain[j + 1], aggv[j]])
            Hv_new = np.maximum(preV, 0.0)
            ho_s4 = chain[nv]
            rec.update(chain4=chain, pre4a=pre4a, preV=preV, Hv_new=Hv_new,
                       ho_s4=ho_s4)
        else:
            if nv:
                hvmean = Hv.mean(axis=0)
                pre4 = params[f"w_ov_{t}"] @ np.concatenate([ho_s3, hvmean])
                ho_s4 = np.maximum(pre4, 0.0)
            else:
                hvmean, pre4, ho_s4 = None, None, ho_s3
            rows4 = np.concatenate(
                [np.broadcast_to(ho_s4, (nv, d)), aggv], axis=1)
            preV = rows4 @ params[f"w_cv_{t}"].T
            Hv_new = np.maximum(preV, 0.0)
            rec.update(hvmean=hvmean, pre4=pre4, ho_s4=ho_s4, rows4=rows4,
                       preV=preV, Hv_new=Hv_new)

        if for_backward:
            rec.update(st1=st1, st2=st2, st3=st3, st4=st4, Hv_ev=Hv_ev,
                       Hc_ec=Hc_ec)
        # inference frees the per-edge gathers before the next transition
        del Hv_ev, Hc_ec
        Hv, Hc, ho = rec["Hv_new"], rec["Hc_new"], rec["ho_s4"]
        tape["steps"].append(rec)

    u = np.concatenate([Hv0, Hv], axis=1)
    a_out = u @ params["out_w1"].T + params["out_b1"]
    r_out = np.maximum(a_out, 0.0)
    logits = r_out @ params["out_w2"][0] + params["out_b2"][0]
    z = _sigmoid(logits)
    tape.update(u=u, a_out=a_out, r_out=r_out, logits=logits, z=z, HvT=Hv)
    return z, tape


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
    nv, nc = graph.n_vars, graph.n_cons
    s_cons, s_var, _, _ = _segments(graph)
    ev, ec = graph.vc_var, graph.vc_cons
    att_on = hyper.attention

    z = tape["z"]
    dlogits = dz * z * (1.0 - z)
    grads["out_b2"][0] = dlogits.sum()
    grads["out_w2"][0] = tape["r_out"].T @ dlogits
    dr_out = dlogits[:, None] * params["out_w2"][0]
    da_out = dr_out * (tape["a_out"] > 0)
    grads["out_w1"] += da_out.T @ tape["u"]
    grads["out_b1"] += da_out.sum(axis=0)
    du = da_out @ params["out_w1"]
    gHv0_out = du[:, :d]
    gHv = du[:, d:].copy()
    gHc = np.zeros((nc, d))
    gho = np.zeros(d)

    for t in range(hyper.transitions, 0, -1):
        rec = tape["steps"][t - 1]
        Hv_prev, Hc_prev, ho_prev = rec["Hv_prev"], rec["Hc_prev"], rec["ho_prev"]
        gHv_prev = np.zeros((nv, d))
        gHc_prev = np.zeros((nc, d))
        gHc_new = gHc
        gho_s2 = np.zeros(d)

        # ---- step 4 backward
        if hyper.literal_loops:
            chain, pre4a, preV = rec["chain4"], rec["pre4a"], rec["preV"]
            d_preV = gHv * (preV > 0)
            d_aggv = d_preV @ params[f"w_cv_{t}"][:, d:]
            gh = gho.copy()
            for j in range(nv - 1, -1, -1):
                gh += params[f"w_cv_{t}"][:, :d].T @ d_preV[j]
                grads[f"w_cv_{t}"] += d_preV[j][:, None] * np.concatenate(
                    [chain[j + 1], rec["aggv"][j]])
                d_pa = gh * (pre4a[j] > 0)
                grads[f"w_ov_{t}"] += d_pa[:, None] * np.concatenate(
                    [chain[j], Hv_prev[j]])
                gHv_prev[j] += params[f"w_ov_{t}"][:, d:].T @ d_pa
                gh = params[f"w_ov_{t}"][:, :d].T @ d_pa
            gho_s3 = gh
        else:
            d_preV = gHv * (rec["preV"] > 0)
            grads[f"w_cv_{t}"] += d_preV.T @ rec["rows4"]
            gho_s4 = gho + (d_preV @ params[f"w_cv_{t}"][:, :d]).sum(axis=0)
            d_aggv = d_preV @ params[f"w_cv_{t}"][:, d:]
            if nv:
                d_pre4 = gho_s4 * (rec["pre4"] > 0)
                grads[f"w_ov_{t}"] += d_pre4[:, None] * np.concatenate(
                    [rec["ho_s3"], rec["hvmean"]])
                gho_s3 = params[f"w_ov_{t}"][:, :d].T @ d_pre4
                gHv_prev += (params[f"w_ov_{t}"][:, d:].T @ d_pre4) / nv
            else:
                gho_s3 = gho_s4

        # aggv = sum over edges of a4 * Hc_new[neighbor], grouped by var
        if len(ev):
            gathered = d_aggv[ev]
            gHc_new = gHc_new + s_cons @ (rec["a4"][:, None] * gathered)
            if att_on:
                d_a4 = np.einsum("ed,ed->e", gathered, rec["Hc_ec"])
                d_r4 = _softmax_backward(rec["a4"], d_a4, ev, nv)
                d_s4 = d_r4 * rec["r4"] * (1.0 - rec["r4"])
                att = params["att_c_to_v"]
                grads["att_c_to_v"] += rec["st4"].T @ d_s4
                gHv_prev += np.bincount(ev, weights=d_s4,
                                        minlength=nv)[:, None] * att[:d]
                gHc_new = gHc_new + np.bincount(
                    ec, weights=d_s4, minlength=nc)[:, None] * att[d + 2:]

        # ---- step 3 backward
        d_pre3 = gho_s3 * (rec["pre3"] > 0)
        grads[f"w_co_{t}"] += d_pre3[:, None] * np.concatenate(
            [rec["ho_s2"], rec["agg3"]])
        gho_s2 += params[f"w_co_{t}"][:, :d].T @ d_pre3
        d_agg3 = params[f"w_co_{t}"][:, d:].T @ d_pre3
        if nc:
            d_a3 = rec["Hc_new"] @ d_agg3
            gHc_new = gHc_new + rec["a3"][:, None] * d_agg3
            if att_on:
                d_r3 = _softmax_backward(rec["a3"], d_a3)
                d_s3 = d_r3 * rec["r3"] * (1.0 - rec["r3"])
                att = params["att_c_to_o"]
                grads["att_c_to_o"] += rec["st3"].T @ d_s3
                gho_s2 += d_s3.sum() * att[:d]
                gHc_new = gHc_new + d_s3[:, None] * att[d + 2:]

        # ---- step 2 backward
        if hyper.literal_loops:
            chain, pre2a, preC = rec["chain2"], rec["pre2a"], rec["preC"]
            d_preC = gHc_new * (preC > 0)
            d_aggc = d_preC @ params[f"w_vc_{t}"][:, d:]
            gh = gho_s2.copy()
            for i in range(nc - 1, -1, -1):
                gh += params[f"w_vc_{t}"][:, :d].T @ d_preC[i]
                grads[f"w_vc_{t}"] += d_preC[i][:, None] * np.concatenate(
                    [chain[i + 1], rec["aggc"][i]])
                d_pa = gh * (pre2a[i] > 0)
                grads[f"w_oc_{t}"] += d_pa[:, None] * np.concatenate(
                    [chain[i], Hc_prev[i]])
                gHc_prev[i] += params[f"w_oc_{t}"][:, d:].T @ d_pa
                gh = params[f"w_oc_{t}"][:, :d].T @ d_pa
            gho_s1 = gh
        else:
            d_preC = gHc_new * (rec["preC"] > 0)
            grads[f"w_vc_{t}"] += d_preC.T @ rec["rows2"]
            gho_s2 += (d_preC @ params[f"w_vc_{t}"][:, :d]).sum(axis=0)
            d_aggc = d_preC @ params[f"w_vc_{t}"][:, d:]
            if nc:
                d_pre2 = gho_s2 * (rec["pre2"] > 0)
                grads[f"w_oc_{t}"] += d_pre2[:, None] * np.concatenate(
                    [rec["ho_s1"], rec["hcmean"]])
                gho_s1 = params[f"w_oc_{t}"][:, :d].T @ d_pre2
                gHc_prev += (params[f"w_oc_{t}"][:, d:].T @ d_pre2) / nc
            else:
                gho_s1 = gho_s2

        # aggc = sum over edges of a2 * Hv_prev[neighbor], grouped by cons
        if len(ev):
            gathered = d_aggc[ec]
            gHv_prev += s_var @ (rec["a2"][:, None] * gathered)
            if att_on:
                d_a2 = np.einsum("ed,ed->e", gathered, rec["Hv_ev"])
                d_r2 = _softmax_backward(rec["a2"], d_a2, ec, nc)
                d_s2 = d_r2 * rec["r2"] * (1.0 - rec["r2"])
                att = params["att_v_to_c"]
                grads["att_v_to_c"] += rec["st2"].T @ d_s2
                gHc_prev += np.bincount(ec, weights=d_s2,
                                        minlength=nc)[:, None] * att[:d]
                gHv_prev += np.bincount(ev, weights=d_s2,
                                        minlength=nv)[:, None] * att[d + 2:]

        # ---- step 1 backward
        d_pre1 = gho_s1 * (rec["pre1"] > 0)
        grads[f"w_vo_{t}"] += d_pre1[:, None] * np.concatenate(
            [ho_prev, rec["agg1"]])
        gho_prev = params[f"w_vo_{t}"][:, :d].T @ d_pre1
        d_agg1 = params[f"w_vo_{t}"][:, d:].T @ d_pre1
        if nv:
            d_a1 = Hv_prev @ d_agg1
            gHv_prev += rec["a1"][:, None] * d_agg1
            if att_on:
                d_r1 = _softmax_backward(rec["a1"], d_a1)
                d_s1 = d_r1 * rec["r1"] * (1.0 - rec["r1"])
                att = params["att_v_to_o"]
                grads["att_v_to_o"] += rec["st1"].T @ d_s1
                gho_prev += d_s1.sum() * att[:d]
                gHv_prev += d_s1[:, None] * att[d + 2:]

        gHv, gHc, gho = gHv_prev, gHc_prev, gho_prev

    gHv0 = gHv + gHv0_out
    grads["emb_var_w"] += gHv0.T @ graph.var_feats
    grads["emb_var_b"] += gHv0.sum(axis=0)
    grads["emb_cons_w"] += gHc.T @ graph.cons_feats
    grads["emb_cons_b"] += gHc.sum(axis=0)
    grads["emb_obj_w"] += gho[:, None] * graph.obj_feats
    grads["emb_obj_b"] += gho


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
