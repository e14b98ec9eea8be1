"""Network forward/backward: attention, loss, gradients, training, files."""

import base64
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from mippred import bnb, gcn, labeler
from mippred.core import BINARY, Constraint, MipInstance, Variable
from mippred.gcn import GcnHyper, bce_loss, forward, init_params, train
from mippred.generators import GenSpec, generate
from mippred.labeler import STABLE0, STABLE1, UNSTABLE, LabelSet
from mippred.trigraph import (
    N_CONS_FEATURES,
    N_OBJ_FEATURES,
    N_VAR_FEATURES,
    TriGraph,
    apply_scaler,
    build_trigraph,
    fit_scaler,
)
from oracles import reference_halves, reference_loss_and_gradients

HYPER = GcnHyper(hidden_dim=4, transitions=2, output_hidden=5, seed=0)


def toy_graph():
    """Scaled graph of a 3-variable, 2-row instance."""
    inst = MipInstance.from_constraints(
        "toy", "min",
        [Variable(f"x{j}", BINARY, 0.0, 1.0) for j in range(3)],
        [Constraint("cap", {0: 2.0, 1: 1.0, 2: 3.0}, -math.inf, 3.0),
         Constraint("cov", {0: 1.0, 1: 1.0, 2: 1.0}, 1.0, math.inf)],
        {0: -3.0, 1: -2.0, 2: -1.0})
    g = build_trigraph(inst, bnb.collect_root_info(inst))
    return apply_scaler(g, fit_scaler([g]))


def toy_labels(graph):
    return LabelSet(instance=graph.name, var_names=list(graph.var_names),
                    labels=[STABLE1, UNSTABLE, STABLE0],
                    delta_used=0.1, iterations=3)


def generic_params(hyper, seed=11):
    """Initialized parameters nudged off the zero-bias point.

    Fresh biases are exactly zero, which parks relu pre-activations on
    the kink where finite differences and the analytic gradient may
    legitimately disagree; a small random offset moves every coordinate
    to a generic point.
    """
    rng = np.random.default_rng(seed)
    params = init_params(hyper)
    for name in params:
        params[name] = params[name] + rng.uniform(-0.3, 0.3,
                                                  size=params[name].shape)
    return params


def fd_gradient_gap(graph, labels, hyper, params, step=1e-4):
    """Worst relative gap between analytic and central-difference grads.

    The loss at each probe runs the forward pass on edge sums built once
    for the graph; ``forward`` would rebuild them at every call."""
    _, grads = gcn.loss_and_gradients(graph, params, hyper, labels)
    halves = gcn._halves(graph)

    def loss():
        z, _ = gcn._forward_tape(graph, halves, params, hyper)
        return bce_loss(z, labels)

    worst = 0.0
    for name, arr in params.items():
        flat = arr.ravel()
        ana = grads[name].ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            up = loss()
            flat[k] = orig - step
            dn = loss()
            flat[k] = orig
            fd = (up - dn) / (2.0 * step)
            denom = max(abs(fd), abs(ana[k]), 1.0)
            worst = max(worst, abs(fd - ana[k]) / denom)
    return worst


# ---------------------------------------------------------------------------
# Initialization


def test_init_same_seed_identical():
    hyper = dataclasses.replace(HYPER, seed=3)
    a = init_params(hyper)
    b = init_params(hyper)
    assert set(a) == set(b)
    for name in a:
        np.testing.assert_array_equal(a[name], b[name])


def test_init_minimal_network():
    hyper = GcnHyper(hidden_dim=1, transitions=1, output_hidden=1)
    params = init_params(hyper)
    g = toy_graph()
    z = forward(g, params, hyper)
    assert z.shape == (3,)


def test_init_biases_zero_weights_bounded():
    params = init_params(HYPER)
    shapes = gcn.param_shapes(HYPER)
    for name, arr in params.items():
        assert arr.shape == shapes[name]
        if name.endswith("_b") or name in ("out_b1", "out_b2"):
            np.testing.assert_array_equal(arr, 0.0)
        else:
            if arr.ndim == 1:
                fan_in, fan_out = arr.shape[0], 1
            else:
                fan_out, fan_in = arr.shape
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            assert limit > 0.0
            assert np.all(np.abs(arr) <= limit)
            assert np.any(arr != 0.0)


def test_hyper_validation():
    for bad in (GcnHyper(hidden_dim=0), GcnHyper(transitions=0),
                GcnHyper(output_hidden=0)):
        with pytest.raises(ValueError):
            bad.validate()


BAD_TRAINING_VALUES = [
    pytest.param({"epochs": 0}, "epochs", id="epochs_0"),
    pytest.param({"epochs": -3}, "epochs", id="epochs_negative"),
    pytest.param({"learning_rate": math.nan}, "learning_rate", id="lr_nan"),
    pytest.param({"learning_rate": math.inf}, "learning_rate", id="lr_inf"),
    pytest.param({"learning_rate": -1e-3}, "learning_rate",
                 id="lr_negative"),
    pytest.param({"seed": -1}, "seed", id="seed_negative"),
    pytest.param({"epochs": 2.5}, "epochs", id="epochs_float"),
    pytest.param({"hidden_dim": True}, "hidden_dim", id="hidden_dim_bool"),
    pytest.param({"transitions": "2"}, "transitions", id="transitions_str"),
    pytest.param({"seed": 1.5}, "seed", id="seed_float"),
    pytest.param({"learning_rate": True}, "learning_rate", id="lr_bool"),
    pytest.param({"learning_rate": "0.1"}, "learning_rate", id="lr_str"),
    pytest.param({"attention": "false"}, "attention", id="attention_str"),
    pytest.param({"attention": None}, "attention", id="attention_null"),
    pytest.param({"literal_loops": 1}, "literal_loops",
                 id="literal_loops_int")]


@pytest.mark.parametrize("changes, field", BAD_TRAINING_VALUES)
def test_hyper_rejects_bad_training_values(changes, field):
    with pytest.raises(ValueError, match=field):
        GcnHyper(**changes).validate()


# ---------------------------------------------------------------------------
# Attention


def edge_attention(centers, neighbors, edges, att, segment):
    """Production per-edge attention with ``segment[k]`` the target of
    edge k, ``centers`` one row per target, ``neighbors`` one per edge."""
    segment = np.asarray(segment)
    ne, n_dst = len(neighbors), len(centers)
    half = gcn._Half("v", "c", ne, n_dst, np.arange(ne), segment, None, None,
                     np.bincount(segment, minlength=n_dst), None, edges)
    return gcn._edge_attention(half, neighbors, centers, att, True)[1]


def test_single_neighbor_gets_full_attention():
    rng = np.random.default_rng(0)
    att = rng.normal(size=10)
    h = rng.normal(size=4)
    _, alpha = gcn._global_attention(h, rng.normal(size=(1, 4)),
                                     rng.normal(size=(1, 2)), att,
                                     enabled=True)
    np.testing.assert_allclose(alpha, [1.0])
    alpha = edge_attention(h[None, :], rng.normal(size=(1, 4)),
                           rng.normal(size=(1, 2)), att, [0])
    np.testing.assert_allclose(alpha, [1.0])


def test_identical_neighbors_split_attention_evenly():
    rng = np.random.default_rng(1)
    att = rng.normal(size=10)
    h = rng.normal(size=4)
    nb = rng.normal(size=4)
    edge = rng.normal(size=2)
    _, alpha = gcn._global_attention(h, np.stack([nb, nb]),
                                     np.stack([edge, edge]), att,
                                     enabled=True)
    np.testing.assert_allclose(alpha, [0.5, 0.5])
    alpha = edge_attention(h[None, :], np.stack([nb, nb]),
                           np.stack([edge, edge]), att, [0, 0])
    np.testing.assert_allclose(alpha, [0.5, 0.5])


def test_attention_sums_to_one():
    rng = np.random.default_rng(2)
    for trial in range(20):
        n = int(rng.integers(1, 7))
        _, alpha = gcn._global_attention(
            rng.normal(size=4), rng.normal(size=(n, 4)),
            rng.normal(size=(n, 2)), rng.normal(size=10), enabled=True)
        assert alpha.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(alpha > 0.0)
        segment = np.sort(rng.integers(0, 3, size=n))
        segment = np.unique(segment, return_inverse=True)[1]
        alpha = edge_attention(rng.normal(size=(segment[-1] + 1, 4)),
                               rng.normal(size=(n, 4)),
                               rng.normal(size=(n, 2)), rng.normal(size=10),
                               segment)
        np.testing.assert_allclose(np.bincount(segment, weights=alpha), 1.0,
                                   atol=1e-12)
        assert np.all(alpha > 0.0)


def test_disabled_attention_is_uniform():
    rng = np.random.default_rng(3)
    _, alpha = gcn._global_attention(
        rng.normal(size=4), rng.normal(size=(5, 4)),
        rng.normal(size=(5, 2)), rng.normal(size=10), enabled=False)
    np.testing.assert_allclose(alpha, 0.2)


def random_graph(seed):
    """Six variables and five rows with random features.  Row 0 and
    variables 3 and 4 have one edge each; row 4 and variable 5 none."""
    rng = np.random.default_rng(seed)
    vc_cons = np.array([0, 1, 1, 1, 2, 2, 3, 3, 3, 3])
    vc_var = np.array([0, 1, 2, 3, 0, 2, 0, 1, 2, 4])
    return TriGraph(
        name="random", var_names=[f"x{j}" for j in range(6)],
        cons_names=[f"r{i}" for i in range(5)],
        var_feats=rng.normal(size=(6, N_VAR_FEATURES)),
        cons_feats=rng.normal(size=(5, N_CONS_FEATURES)),
        obj_feats=rng.normal(size=N_OBJ_FEATURES),
        vc_var=vc_var, vc_cons=vc_cons,
        vc_feats=rng.normal(size=(len(vc_var), 2)),
        vo_feats=rng.normal(size=(6, 2)), co_feats=rng.normal(size=(5, 2)))


def concatenated_scores(center_rows, edges, neighbor_rows, att):
    """The attention score as the paper writes it: a sigmoid of the
    attention vector times ``[center, edge, neighbor]`` per row."""
    stacked = np.concatenate([center_rows, edges, neighbor_rows], axis=1)
    return 1.0 / (1.0 + np.exp(-(stacked @ att)))


def test_attention_scores_equal_the_concatenated_form():
    g = random_graph(0)
    rng = np.random.default_rng(8)
    d = 3
    for h in gcn._halves(g):
        sizes = np.bincount(h.e_dst, minlength=h.n_dst)
        assert 0 in sizes and 1 in sizes
        for _ in range(5):
            Hs = rng.normal(size=(h.n_src, d))
            Hd = rng.normal(size=(h.n_dst, d))
            ho = rng.normal(size=d)
            att = rng.normal(size=2 * d + 2)
            raw, alpha = gcn._edge_attention(h, Hs, Hd, att, True)
            want = concatenated_scores(Hd[h.e_dst], h.edge_feats,
                                       Hs[h.e_src], att)
            np.testing.assert_allclose(raw, want, rtol=0.0, atol=1e-12)
            for k in range(h.n_dst):
                mine = h.e_dst == k
                np.testing.assert_allclose(
                    alpha[mine], np.exp(want[mine]) / np.exp(want[mine]).sum(),
                    rtol=0.0, atol=1e-12)
            raw, alpha = gcn._global_attention(ho, Hs, h.obj_feats, att, True)
            want = concatenated_scores(np.tile(ho, (h.n_src, 1)),
                                       h.obj_feats, Hs, att)
            np.testing.assert_allclose(raw, want, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(alpha, np.exp(want) / np.exp(want).sum(),
                                       rtol=0.0, atol=1e-12)


def test_forward_tape_keeps_no_per_edge_matrix():
    g = toy_graph()
    ne = len(g.vc_var)
    assert ne not in (g.n_vars, g.n_cons)
    params = generic_params(HYPER)
    _, tape = gcn._forward_tape(g, gcn._halves(g), params, HYPER)
    arrays = [tape[k] for k in ("u", "a_out", "r_out", "z")]
    for _, _, rec in tape["halves"]:
        arrays += [v for v in rec.values() if isinstance(v, np.ndarray)]
    assert any(a.shape == (ne,) for a in arrays)
    assert not [a.shape for a in arrays if a.ndim == 2 and len(a) == ne]


def shuffled_random_graph(seed):
    """Random features over seven variables and six rows, with random
    edges in a shuffled order.  Row 5 and variable 6 have no edge."""
    rng = np.random.default_rng(seed)
    n, m = 7, 6
    pairs = np.array([(j, i) for i in range(m - 1) for j in range(n - 1)])
    pairs = pairs[rng.random(len(pairs)) < 0.4]
    pairs = pairs[rng.permutation(len(pairs))]
    return TriGraph(
        name="shuffled", var_names=[f"x{j}" for j in range(n)],
        cons_names=[f"r{i}" for i in range(m)],
        var_feats=rng.normal(size=(n, N_VAR_FEATURES)),
        cons_feats=rng.normal(size=(m, N_CONS_FEATURES)),
        obj_feats=rng.normal(size=N_OBJ_FEATURES),
        vc_var=pairs[:, 0], vc_cons=pairs[:, 1],
        vc_feats=rng.normal(size=(len(pairs), 2)),
        vo_feats=rng.normal(size=(n, 2)), co_feats=rng.normal(size=(m, 2)))


def test_halves_hold_no_per_edge_matrix_or_indicator():
    g = shuffled_random_graph(0)
    ne = len(g.vc_var)
    for h in gcn._halves(g):
        for value in h:
            if isinstance(value, np.ndarray):
                assert value.ndim == 1 or value.shape[1] == 2
        assert h.by_dst.mat.shape == (h.n_dst, h.n_src)
        assert h.by_src.mat.shape == (h.n_src, h.n_dst)
        assert h.by_dst.mat.nnz == h.by_src.mat.nnz == ne


@pytest.mark.parametrize("changes", [
    {}, {"attention": False}, {"literal_loops": True},
    {"attention": False, "literal_loops": True}],
    ids=["default", "no_attention", "literal_loops",
         "literal_loops_no_attention"])
def test_passes_equal_the_gather_form_bitwise(changes):
    """Predictions, loss and every gradient equal those of the same
    passes over the gather-form aggregation, byte for byte."""
    hyper = dataclasses.replace(HYPER, hidden_dim=8, **changes)
    for seed in range(5):
        g = shuffled_random_graph(seed)
        assert 0 in np.bincount(g.vc_cons, minlength=g.n_cons)
        assert 0 in np.bincount(g.vc_var, minlength=g.n_vars)
        params = generic_params(hyper, seed=seed)
        labels = LabelSet(instance=g.name, var_names=list(g.var_names),
                          labels=[STABLE1, UNSTABLE, STABLE0] * 2 + [STABLE0],
                          delta_used=0.1, iterations=3)
        z_ref, loss_ref, grads_ref = reference_loss_and_gradients(
            g, params, hyper, labels)
        assert forward(g, params, hyper).tobytes() == z_ref.tobytes()
        loss, grads = gcn.loss_and_gradients(g, params, hyper, labels)
        assert loss == loss_ref
        for name, grad in grads_ref.items():
            assert grads[name].tobytes() == grad.tobytes(), name


def test_training_equals_the_gather_form_bitwise(monkeypatch):
    data = sc_dataset(3)
    hyper = GcnHyper(hidden_dim=8, transitions=2, output_hidden=6,
                     epochs=4, seed=5)
    params, history, _ = train(data[:2], hyper, valid=data[2:])
    monkeypatch.setattr(gcn, "_halves", reference_halves)
    ref_params, ref_history, _ = train(data[:2], hyper, valid=data[2:])
    assert history == ref_history
    for name, value in ref_params.items():
        assert params[name].tobytes() == value.tobytes(), name


# ---------------------------------------------------------------------------
# Forward pass


def test_predictions_strictly_inside_unit_interval():
    g = toy_graph()
    for seed in range(5):
        params = generic_params(HYPER, seed=seed)
        z = forward(g, params, HYPER)
        assert np.all(z > 0.0)
        assert np.all(z < 1.0)


def test_forward_on_generated_instance():
    inst = generate(GenSpec("sc", "tiny", seed=0))
    g = build_trigraph(inst, bnb.collect_root_info(inst))
    g = apply_scaler(g, fit_scaler([g]))
    z = forward(g, init_params(HYPER), HYPER)
    assert z.shape == (g.n_vars,)
    assert np.all((z > 0.0) & (z < 1.0))


def test_forward_handles_graph_without_rows():
    inst = MipInstance.from_constraints(
        "free", "min",
        [Variable("x1", BINARY, 0.0, 1.0), Variable("x2", BINARY, 0.0, 1.0)],
        [], {0: -1.0, 1: 1.0})
    g = build_trigraph(inst, bnb.collect_root_info(inst))
    g = apply_scaler(g, fit_scaler([g]))
    z = forward(g, generic_params(HYPER), HYPER)
    assert np.all((z > 0.0) & (z < 1.0))


def test_forward_is_pure():
    g = toy_graph()
    params = generic_params(HYPER)
    z1 = forward(g, params, HYPER)
    z2 = forward(g, params, HYPER)
    np.testing.assert_array_equal(z1, z2)


def test_permuting_variable_nodes_permutes_predictions():
    g = toy_graph()
    params = generic_params(HYPER)
    rng = np.random.default_rng(5)
    for _ in range(5):
        perm = rng.permutation(g.n_vars)
        inv = np.argsort(perm)
        shuffled = TriGraph(
            name=g.name,
            var_names=[g.var_names[p] for p in perm],
            cons_names=list(g.cons_names),
            var_feats=g.var_feats[perm],
            cons_feats=g.cons_feats.copy(),
            obj_feats=g.obj_feats.copy(),
            vc_var=inv[g.vc_var],
            vc_cons=g.vc_cons.copy(),
            vc_feats=g.vc_feats.copy(),
            vo_feats=g.vo_feats[perm],
            co_feats=g.co_feats.copy(),
        )
        z = forward(g, params, HYPER)
        zs = forward(shuffled, params, HYPER)
        np.testing.assert_allclose(zs, z[perm], atol=1e-9)


def test_forward_rejects_wrong_shapes():
    g = toy_graph()
    params = init_params(HYPER)
    params["out_w1"] = params["out_w1"][:, :-1]
    with pytest.raises(ValueError, match="shape"):
        forward(g, params, HYPER)
    params = init_params(HYPER)
    del params["emb_var_w"]
    with pytest.raises(ValueError, match="missing"):
        forward(g, params, HYPER)


def test_checks_hold_for_gradients_and_train():
    g = toy_graph()
    labels = toy_labels(g)
    params = init_params(HYPER)
    params["out_w1"] = params["out_w1"][:, :-1]
    with pytest.raises(ValueError, match="shape"):
        gcn.loss_and_gradients(g, params, HYPER, labels)
    params = init_params(HYPER)
    del params["emb_var_w"]
    with pytest.raises(ValueError, match="missing"):
        gcn.loss_and_gradients(g, params, HYPER, labels)
    bad = GcnHyper(hidden_dim=4, transitions=0, output_hidden=5)
    params = init_params(HYPER)
    with pytest.raises(ValueError, match="transitions"):
        forward(g, params, bad)
    with pytest.raises(ValueError, match="transitions"):
        gcn.loss_and_gradients(g, params, bad, labels)
    with pytest.raises(ValueError, match="transitions"):
        train([(g, labels)], bad)


def test_literal_loop_mode_runs():
    g = toy_graph()
    hyper = GcnHyper(hidden_dim=4, transitions=2, output_hidden=5,
                     literal_loops=True)
    z = forward(g, generic_params(hyper), hyper)
    assert np.all((z > 0.0) & (z < 1.0))


# ---------------------------------------------------------------------------
# Loss


def test_loss_at_half_with_balanced_labels():
    labels = LabelSet(instance="t", var_names=list("abcd"),
                      labels=[STABLE1, STABLE1, STABLE0, STABLE0],
                      delta_used=0.0, iterations=1)
    z = np.full(4, 0.5)
    assert bce_loss(z, labels) == pytest.approx(math.log(2.0), abs=1e-12)


def test_loss_near_zero_for_confident_correct_predictions():
    labels = LabelSet(instance="t", var_names=list("ab"),
                      labels=[STABLE1, STABLE0], delta_used=0.0, iterations=1)
    z = np.array([1.0 - 1e-9, 1e-9])
    assert bce_loss(z, labels) <= 1e-6


def test_loss_ignores_unstable_entries():
    labels = LabelSet(instance="t", var_names=list("abc"),
                      labels=[STABLE1, UNSTABLE, STABLE0],
                      delta_used=0.0, iterations=1)
    za = np.array([0.8, 0.01, 0.2])
    zb = np.array([0.8, 0.99, 0.2])
    assert bce_loss(za, labels) == pytest.approx(bce_loss(zb, labels))


def test_loss_requires_a_stable_label():
    labels = LabelSet(instance="t", var_names=list("ab"),
                      labels=[UNSTABLE, UNSTABLE], delta_used=0.0,
                      iterations=1)
    with pytest.raises(ValueError, match="stable"):
        bce_loss(np.array([0.5, 0.5]), labels)


def test_loss_rejects_length_mismatch():
    labels = LabelSet(instance="t", var_names=list("ab"),
                      labels=[STABLE1, STABLE0], delta_used=0.0, iterations=1)
    with pytest.raises(ValueError, match="length"):
        bce_loss(np.array([0.5]), labels)


# ---------------------------------------------------------------------------
# Gradients


def test_gradients_match_finite_differences():
    g = toy_graph()
    labels = toy_labels(g)
    gap = fd_gradient_gap(g, labels, HYPER, generic_params(HYPER))
    assert gap <= 1e-4


def test_gradients_match_finite_differences_without_attention():
    g = toy_graph()
    labels = toy_labels(g)
    hyper = GcnHyper(hidden_dim=4, transitions=2, output_hidden=5,
                     attention=False)
    gap = fd_gradient_gap(g, labels, hyper, generic_params(hyper))
    assert gap <= 1e-4


def test_gradients_match_finite_differences_literal_loops():
    g = toy_graph()
    labels = toy_labels(g)
    hyper = GcnHyper(hidden_dim=4, transitions=2, output_hidden=5,
                     literal_loops=True)
    gap = fd_gradient_gap(g, labels, hyper, generic_params(hyper))
    assert gap <= 1e-4


def test_gradients_match_finite_differences_edgeless_constraint():
    g = with_edgeless_constraint(toy_graph())
    gap = fd_gradient_gap(g, toy_labels(g), HYPER, generic_params(HYPER))
    assert gap <= 1e-4


def test_attention_gradients_match_finite_differences_on_a_random_graph():
    # on the scaled toy graph the attention-vector gradients are at most
    # 6e-4 (those of the objective attention about 1e-9), below what
    # fd_gradient_gap's gap resolves; here each entry is checked on its own
    g = random_graph(1)
    labels = LabelSet(instance=g.name, var_names=list(g.var_names),
                      labels=[STABLE1, STABLE0, UNSTABLE, STABLE1, STABLE0,
                              STABLE1], delta_used=0.1, iterations=3)
    params = generic_params(HYPER)
    _, grads = gcn.loss_and_gradients(g, params, HYPER, labels)
    halves = gcn._halves(g)
    step = 1e-5
    for name in ("att_v_to_o", "att_v_to_c", "att_c_to_o", "att_c_to_v"):
        att = params[name]
        fd = np.zeros_like(att)
        for k in range(att.size):
            orig = att[k]
            losses = []
            for probe in (orig + step, orig - step):
                att[k] = probe
                z, _ = gcn._forward_tape(g, halves, params, HYPER)
                losses.append(bce_loss(z, labels))
            att[k] = orig
            fd[k] = (losses[0] - losses[1]) / (2.0 * step)
        assert np.abs(grads[name]).max() > 1e-5
        np.testing.assert_allclose(grads[name], fd, rtol=1e-5, atol=1e-9,
                                   err_msg=name)


def test_every_parameter_receives_gradient():
    # Scaling a lone graph zeroes its objective features (single row per
    # column), which would starve the objective embedding of gradient;
    # fitting the scaler over two different instances keeps every input
    # generic.
    insts = [generate(GenSpec("sc", "tiny", seed=0)),
             generate(GenSpec("mk", "tiny", seed=0))]
    graphs = [build_trigraph(i, bnb.collect_root_info(i)) for i in insts]
    scaler = fit_scaler(graphs)
    g = apply_scaler(graphs[0], scaler)
    assert np.any(g.obj_feats != 0.0)
    labels = labeler.generate_labels(insts[0])
    # A rectifier stage can go dark for one particular draw, so sum
    # magnitudes over a few parameter seeds; only a structurally
    # disconnected parameter stays at zero across all of them.
    total = None
    for seed in range(5):
        grads = gcn.loss_and_gradients(
            g, generic_params(HYPER, seed=seed), HYPER, labels)[1]
        if total is None:
            total = {name: np.abs(arr) for name, arr in grads.items()}
        else:
            for name, arr in grads.items():
                total[name] += np.abs(arr)
    for name, arr in total.items():
        assert np.any(arr != 0.0), f"all-zero gradient for {name}"


def test_gradients_add_over_repeated_graphs():
    g = toy_graph()
    labels = toy_labels(g)
    params = generic_params(HYPER)
    _, single = gcn.loss_and_gradients(g, params, HYPER, labels)
    total = {name: np.zeros_like(arr) for name, arr in single.items()}
    for _ in range(2):
        _, grads = gcn.loss_and_gradients(g, params, HYPER, labels)
        for name, arr in grads.items():
            total[name] += arr
    for name in single:
        np.testing.assert_allclose(total[name], 2.0 * single[name],
                                   rtol=1e-12)


# ---------------------------------------------------------------------------
# Training


def sc_dataset(n=10):
    insts = [generate(GenSpec("sc", "tiny", seed=s)) for s in range(n)]
    graphs = [build_trigraph(i, bnb.collect_root_info(i)) for i in insts]
    scaler = fit_scaler(graphs)
    graphs = [apply_scaler(g, scaler) for g in graphs]
    labels = [labeler.generate_labels(i) for i in insts]
    return list(zip(graphs, labels))


def test_training_reduces_loss():
    data = sc_dataset(10)
    hyper = GcnHyper(hidden_dim=8, transitions=2, output_hidden=8,
                     epochs=50, seed=0)
    _, history, _ = train(data, hyper)
    assert len(history) == 50
    assert history[-1] < history[0]


def test_zero_learning_rate_changes_nothing():
    data = sc_dataset(2)
    hyper = GcnHyper(hidden_dim=4, transitions=1, output_hidden=4,
                     epochs=3, learning_rate=0.0, seed=1)
    params, _, _ = train(data, hyper)
    fresh = init_params(hyper)
    for name in fresh:
        np.testing.assert_array_equal(params[name], fresh[name])


def reference_train(dataset, hyper):
    """Adam per parameter name over ``gcn.loss_and_gradients``, with
    fresh arrays every step: the plain form ``gcn.train`` must match."""
    rng = np.random.default_rng(hyper.seed)
    params = init_params(hyper)
    m = {k: np.zeros_like(a) for k, a in params.items()}
    v = {k: np.zeros_like(a) for k, a in params.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    history = []
    for _ in range(hyper.epochs):
        order = rng.permutation(len(dataset))
        losses = []
        for idx in order:
            graph, labels = dataset[idx]
            if not gcn.targets_for(graph, labels)[1].any():
                continue
            loss, grads = gcn.loss_and_gradients(graph, params, hyper, labels)
            losses.append(loss)
            step += 1
            c1 = 1.0 - beta1 ** step
            c2 = 1.0 - beta2 ** step
            for name in params:
                g = grads[name]
                m[name] = beta1 * m[name] + (1.0 - beta1) * g
                v[name] = beta2 * v[name] + (1.0 - beta2) * g * g
                params[name] = params[name] - hyper.learning_rate * (
                    m[name] / c1) / (np.sqrt(v[name] / c2) + eps)
        history.append(float(np.mean(losses)))
    return params, history


def with_edgeless_constraint(graph):
    """``graph`` plus one constraint node that no variable touches."""
    return TriGraph(
        name=graph.name,
        var_names=list(graph.var_names),
        cons_names=list(graph.cons_names) + ["edgeless"],
        var_feats=graph.var_feats.copy(),
        cons_feats=np.vstack([graph.cons_feats, graph.cons_feats[:1] + 0.5]),
        obj_feats=graph.obj_feats.copy(),
        vc_var=graph.vc_var.copy(),
        vc_cons=graph.vc_cons.copy(),
        vc_feats=graph.vc_feats.copy(),
        vo_feats=graph.vo_feats.copy(),
        co_feats=np.vstack([graph.co_feats, [[0.3, -0.2]]]),
    )


@pytest.mark.parametrize("changes", [
    {}, {"attention": False}, {"transitions": 1}, {"literal_loops": True},
    {"hidden_dim": 64, "output_hidden": 64}],
    ids=["default", "no_attention", "one_transition", "literal_loops",
         "several_adam_chunks"])
def test_training_equals_reference_adam_bitwise(changes):
    g = toy_graph()
    unstable = LabelSet(instance=g.name, var_names=list(g.var_names),
                        labels=[UNSTABLE] * 3, delta_used=0.0, iterations=2)
    edgeless = with_edgeless_constraint(g)
    assert np.bincount(edgeless.vc_cons, minlength=edgeless.n_cons)[-1] == 0
    data = sc_dataset(2) + [(g, unstable), (edgeless, toy_labels(edgeless))]
    hyper = GcnHyper(**{**dict(hidden_dim=4, transitions=2, output_hidden=5,
                               epochs=3, seed=4), **changes})
    if "hidden_dim" in changes:
        shapes = gcn.param_shapes(hyper).values()
        assert sum(math.prod(s) for s in shapes) > 3 * gcn.ADAM_CHUNK
    params, history, _ = train(data, hyper)
    ref_params, ref_history = reference_train(data, hyper)
    assert history == ref_history
    assert list(params) == list(ref_params)
    for name in ref_params:
        np.testing.assert_array_equal(params[name], ref_params[name])


def test_training_is_deterministic():
    data = sc_dataset(3)
    hyper = GcnHyper(hidden_dim=4, transitions=1, output_hidden=4,
                     epochs=8, seed=2)
    p1, h1, _ = train(data, hyper)
    p2, h2, _ = train(data, hyper)
    assert h1 == h2
    for name in p1:
        np.testing.assert_array_equal(p1[name], p2[name])


@pytest.fixture(scope="module")
def mis_split():
    """(train, valid): three mis tiny graphs each, scaled on the train
    graphs.  At ``EARLY`` the validation loss turns upward within the
    epoch cap."""
    insts = [generate(GenSpec("mis", "tiny", seed=s)) for s in range(6)]
    graphs = [build_trigraph(i, bnb.collect_root_info(i)) for i in insts]
    scaler = fit_scaler(graphs[:3])
    pairs = [(apply_scaler(g, scaler), labeler.generate_labels(i))
             for g, i in zip(graphs, insts)]
    return pairs[:3], pairs[3:]


EARLY = GcnHyper(hidden_dim=8, transitions=1, output_hidden=8, epochs=40,
                 learning_rate=0.02, seed=0)


def test_early_stop_keeps_the_best_epoch_bitwise(mis_split):
    data, valid = mis_split
    params, history, valid_history = train(data, EARLY, valid)
    kept = int(np.argmin(valid_history))
    assert len(history) == len(valid_history) == kept + 1 + gcn.PATIENCE
    assert len(history) < EARLY.epochs
    assert min(valid_history[kept + 1:]) >= valid_history[kept]

    # the kept parameters are those of a run capped at the kept epoch
    ref_params, ref_history = reference_train(
        data, dataclasses.replace(EARLY, epochs=kept + 1))
    assert history[:kept + 1] == ref_history
    assert list(params) == list(ref_params)
    for name in ref_params:
        np.testing.assert_array_equal(params[name], ref_params[name])

    # and they give the kept validation loss
    losses = []
    for g, labels in valid:
        assert labels.var_names == list(g.var_names)
        losses.append(bce_loss(forward(g, params, EARLY), labels))
    assert valid_history[kept] == float(np.mean(losses))

    # without a valid set the same epochs run first, then the rest
    _, full_history, full_valid = train(data, EARLY)
    assert full_valid == []
    assert len(full_history) == EARLY.epochs
    assert history == full_history[:len(history)]


def test_flat_validation_loss_stops_at_the_first_epoch(mis_split):
    # at learning rate 0 every epoch ties; only a strictly lower loss
    # counts as progress
    data, valid = mis_split
    frozen = dataclasses.replace(EARLY, learning_rate=0.0)
    _, history, valid_history = train(data, frozen, valid)
    assert len(history) == 1 + gcn.PATIENCE
    assert valid_history == [valid_history[0]] * len(history)


def test_unstable_valid_set_changes_nothing(mis_split):
    data, valid = mis_split
    unstable = [(g, LabelSet(instance=g.name, var_names=list(g.var_names),
                             labels=[UNSTABLE] * g.n_vars, delta_used=0.0,
                             iterations=1))
                for g, _ in valid]
    params, history, valid_history = train(data, EARLY, unstable)
    ref_params, ref_history, ref_valid = train(data, EARLY)
    assert valid_history == ref_valid == []
    assert history == ref_history
    for name in ref_params:
        np.testing.assert_array_equal(params[name], ref_params[name])


def test_training_rejects_empty_or_unstable_sets():
    with pytest.raises(ValueError, match="empty"):
        train([], HYPER)
    g = toy_graph()
    labels = LabelSet(instance=g.name, var_names=list(g.var_names),
                      labels=[UNSTABLE] * 3, delta_used=0.0, iterations=2)
    with pytest.raises(ValueError, match="stable"):
        train([(g, labels)], HYPER)


def test_targets_align_by_name():
    g = toy_graph()
    labels = LabelSet(instance=g.name,
                      var_names=[g.var_names[2], g.var_names[0],
                                 g.var_names[1]],
                      labels=[STABLE0, STABLE1, UNSTABLE],
                      delta_used=0.0, iterations=2)
    y, mask = gcn.targets_for(g, labels)
    np.testing.assert_array_equal(y, [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(mask, [True, False, True])


def test_targets_require_every_graph_variable():
    g = toy_graph()
    labels = LabelSet(instance=g.name, var_names=[g.var_names[0]],
                      labels=[STABLE1], delta_used=0.0, iterations=1)
    with pytest.raises(KeyError, match="label"):
        gcn.targets_for(g, labels)


# ---------------------------------------------------------------------------
# Model files


def test_model_file_round_trip_is_bitwise(tmp_path):
    g = toy_graph()
    params = generic_params(HYPER)
    path = tmp_path / "model.json"
    gcn.save_params(path, params, HYPER)
    loaded, hyper = gcn.load_params(path)
    assert hyper == HYPER
    np.testing.assert_array_equal(forward(g, loaded, hyper),
                                  forward(g, params, HYPER))


def test_model_file_rejects_wrong_width(tmp_path):
    path = tmp_path / "model.json"
    gcn.save_params(path, init_params(HYPER), HYPER)
    blob = json.loads(path.read_text())
    blob["hyper"]["hidden_dim"] = 8
    path.write_text(json.dumps(blob))
    with pytest.raises(ValueError, match="expected"):
        gcn.load_params(path)


def test_model_file_rejects_truncation(tmp_path):
    path = tmp_path / "model.json"
    gcn.save_params(path, init_params(HYPER), HYPER)
    text = path.read_text()
    path.write_text(text[:len(text) // 2])
    with pytest.raises(ValueError, match="JSON"):
        gcn.load_params(path)


@pytest.mark.parametrize("changes, field", BAD_TRAINING_VALUES)
def test_model_file_rejects_bad_hyperparameters(tmp_path, changes, field):
    path = tmp_path / "model.json"
    gcn.save_params(path, init_params(HYPER), HYPER)
    blob = json.loads(path.read_text())
    blob["hyper"].update(changes)
    path.write_text(json.dumps(blob))
    with pytest.raises(ValueError, match=field):
        gcn.load_params(path)


def test_model_file_stores_each_parameter_as_base64_float64_bytes(tmp_path):
    path = tmp_path / "model.json"
    params = generic_params(HYPER)
    gcn.save_params(path, params, HYPER)
    blob = json.loads(path.read_text())
    assert blob["format_version"] == 2
    assert list(blob["params"]) == list(gcn.param_shapes(HYPER))
    for name, text in blob["params"].items():
        assert base64.b64decode(text) == params[name].astype("<f8").tobytes()


def edited_model_file(tmp_path, name, text):
    """A saved model file whose parameter ``name`` reads ``text``."""
    path = tmp_path / "model.json"
    gcn.save_params(path, init_params(HYPER), HYPER)
    blob = json.loads(path.read_text())
    blob["params"][name] = text
    path.write_text(json.dumps(blob))
    return path


def b64_floats(*values):
    return base64.b64encode(np.array(values, "<f8").tobytes()).decode()


@pytest.mark.parametrize("text, problem", [
    ("not base64!", "not base64"),
    (b64_floats(1.0, 2.0)[:-1], "not base64"),
    (b64_floats(*range(5)), "40 bytes, expected 32"),
    (b64_floats(*range(3)), "24 bytes, expected 32"),
    (b64_floats(0.0, math.nan, 0.0, 0.0), "non-finite"),
    (b64_floats(0.0, 0.0, -math.inf, 0.0), "non-finite"),
    ([0.0, 0.0, 0.0, 0.0], "expected base64 text, got list"),
    (None, "expected base64 text, got NoneType"),
], ids=["alphabet", "padding", "extra_bytes", "short", "nan", "inf", "list",
        "null"])
def test_model_file_rejects_a_bad_parameter_naming_it(tmp_path, text,
                                                      problem):
    # emb_var_b has shape (hidden_dim,) = (4,): 32 bytes
    path = edited_model_file(tmp_path, "emb_var_b", text)
    with pytest.raises(ValueError) as err:
        gcn.load_params(path)
    assert str(path) in str(err.value)
    assert "'emb_var_b'" in str(err.value) and problem in str(err.value)


def test_model_file_save_and_load_peak_below_four_times_the_parameters(
        tmp_path):
    """Neither direction holds a Python float per value: each peaks
    below four times the parameters' float64 bytes (4 x 0.86 MiB for the
    default network)."""
    hyper = GcnHyper()
    params = init_params(hyper)
    limit = 4 * sum(arr.nbytes for arr in params.values())
    path = tmp_path / "model.json"
    peaks = []
    for step in (lambda: gcn.save_params(path, params, hyper),
                 lambda: gcn.load_params(path)):
        tracemalloc.start()
        try:
            step()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < limit, (peaks, limit)


def test_model_file_rejects_format_version_1(tmp_path):
    # version 1 stored each parameter as rows, cols and a list of floats
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "format_version": 1, "hyper": dataclasses.asdict(HYPER),
        "params": {name: {"rows": len(arr), "cols": arr[0].size,
                          "data": arr.ravel().tolist()}
                   for name, arr in init_params(HYPER).items()}}))
    with pytest.raises(ValueError, match="unsupported format version 1"):
        gcn.load_params(path)


def test_model_file_rejects_unknown_version(tmp_path):
    path = tmp_path / "model.json"
    gcn.save_params(path, init_params(HYPER), HYPER)
    blob = json.loads(path.read_text())
    blob["format_version"] = 99
    path.write_text(json.dumps(blob))
    with pytest.raises(ValueError, match="version"):
        gcn.load_params(path)
