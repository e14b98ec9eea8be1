"""In-memory spans around the program's public callables.

A traced run swaps module and class attributes where the program's
callers look them up, so every call through them opens a span with a
name, start, end and parent.  Nothing private is wrapped and no program
file changes; the originals are restored when the run ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

RUN_MODES = ("approx", "exact", "baseline")
STAGES = ("gen", "label", "featurize", "train", "predict", "gridsearch",
          "run_approx", "run_exact", "run_baseline", "eval")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans; one per call of a wrapped callable."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def _open(self, name: str, attrs: dict) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sp = self._open(name, {})
        try:
            yield sp
        finally:
            self._close(sp)

    def wrap(self, name: str, fn, annotate=None):
        """``fn`` with a span per call; ``annotate(args, kwargs, result)``
        may add attributes after the span has closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sp = self._open(name, {})
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sp)
            if annotate is not None:
                sp.attrs.update(annotate(args, kwargs, out))
            return out

        return traced


@contextmanager
def patched(tracer: Tracer, targets):
    """Swap each (owner, attribute, span name, annotate) for a traced
    wrapper; restore every original on exit."""
    saved = []
    try:
        for owner, attr, name, annotate in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, annotate))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        covered = 0.0
        cursor = sp.start
        for ch in sorted(children.get(sp.id, ()), key=lambda s: s.start):
            lo = max(ch.start, cursor)
            hi = min(ch.end, sp.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sp.id] = sp.duration - covered
    return out


def subtree(spans: list[Span], root_id: int) -> list[Span]:
    """The root span and all its descendants (spans are in start order)."""
    keep = {root_id}
    out = []
    for sp in spans:
        if sp.id == root_id or sp.parent in keep:
            keep.add(sp.id)
            out.append(sp)
    return out


def _lp_attrs(args, kwargs, out):
    warm = kwargs.get("warm", args[3] if len(args) > 3 else None)
    return {"warm": warm is not None, "pivots": out[0].iterations}


def _stage(argv) -> str:
    argv = list(argv)
    if argv and argv[0] == "run" and "--mode" in argv:
        return "run_" + argv[argv.index("--mode") + 1]
    return argv[0] if argv else "?"


def program_targets(m) -> list[tuple]:
    """Public callables of each layer, patched where callers look them up.

    ``m`` maps module names to the imported ``mippred`` modules.
    ``LpWorkspace.solve`` is a class attribute, so bnb and every other
    user of the class see the wrapper; ``evaluate_solution`` is wrapped
    in bnb's namespace and the instance I/O in cli's, where they are
    imported by name.
    """
    return [
        (m["simplex"].LpWorkspace, "solve", "simplex.solve", _lp_attrs),
        (m["bnb"], "solve", "bnb.solve",
         lambda a, k, out: {"nodes": out.nodes}),
        (m["bnb"], "collect_root_info", "bnb.collect_root_info", None),
        (m["bnb"], "evaluate_solution", "core.evaluate_solution", None),
        (m["cli"], "read_instance", "core.read_instance", None),
        (m["cli"], "write_instance", "core.write_instance", None),
        (m["generators"], "generate", "generators.generate", None),
        (m["labeler"], "generate_labels", "labeler.generate_labels", None),
        (m["labeler"], "initial_solution", "labeler.initial_solution", None),
        (m["labeler"], "proximity_step", "labeler.proximity_step", None),
        (m["trigraph"], "build_trigraph", "trigraph.build_trigraph", None),
        (m["trigraph"], "apply_scaler", "trigraph.apply_scaler", None),
        (m["trigraph"], "fit_scaler", "trigraph.fit_scaler", None),
        (m["trigraph"], "read_trigraph", "trigraph.io", None),
        (m["trigraph"], "write_trigraph", "trigraph.io", None),
        (m["trigraph"], "read_scaler", "trigraph.io", None),
        (m["trigraph"], "write_scaler", "trigraph.io", None),
        (m["gcn"], "forward", "gcn.forward", None),
        (m["gcn"], "train", "gcn.train",
         lambda a, k, out: {"epochs": len(out[1])}),
        (m["predictor"], "approximate_solve", "predictor.approximate_solve", None),
        (m["predictor"], "exact_solve", "predictor.exact_solve", None),
        (m["predictor"], "grid_search", "predictor.grid_search", None),
        (m["cli"], "main", "cli.main",
         lambda a, k, out: {"stage": _stage(a[0] if a else k["argv"])}),
    ]


def _total(spans, name):
    return sum(sp.duration for sp in spans if sp.name == name)


def _count(spans, name):
    return sum(1 for sp in spans if sp.name == name)


def _per_call_ms(spans, name):
    n = _count(spans, name)
    return 1000.0 * _total(spans, name) / n if n else 0.0


def layer_metrics(spans: list[Span], round_id: int, setup_id: int,
                  baseline_s: float) -> dict[str, float]:
    """Per-layer figures of one traced round and one traced set-up.

    ``baseline_s`` is the traced round's baseline solve seconds, the base
    of ``predictor.exact_over_baseline``.
    """
    rnd = subtree(spans, round_id)
    selfs = self_times(rnd)
    by_id = {sp.id: sp for sp in rnd}

    def in_gridsearch(sp):
        p = sp.parent
        while p is not None and p in by_id:
            if by_id[p].attrs.get("stage") == "gridsearch":
                return True
            p = by_id[p].parent
        return False

    lp = [sp for sp in rnd if sp.name == "simplex.solve"]
    cold = [sp for sp in lp if not sp.attrs["warm"]]
    warm = [sp for sp in lp if sp.attrs["warm"]]
    cold_s = sum(sp.duration for sp in cold)
    cold_piv = sum(sp.attrs["pivots"] for sp in cold)
    warm_piv = sum(sp.attrs["pivots"] for sp in warm)
    bnb_s = _total(rnd, "bnb.solve")
    nodes = sum(sp.attrs["nodes"] for sp in rnd if sp.name == "bnb.solve")
    train_s = _total(rnd, "gcn.train")
    epochs = sum(sp.attrs["epochs"] for sp in rnd if sp.name == "gcn.train")
    exact_s = _total(rnd, "predictor.exact_solve")
    # the run stage's approx solves only, as in solve_s.approx: the
    # gridsearch stage's grid and validation solves are left out
    approx_s = sum(sp.duration for sp in rnd
                   if sp.name == "predictor.approximate_solve"
                   and not in_gridsearch(sp))
    out = {
        "simplex.cold.calls": len(cold),
        "simplex.cold.s": cold_s,
        "simplex.cold.pivots": cold_piv,
        "simplex.cold.ms_per_pivot": 1000.0 * cold_s / cold_piv if cold_piv else 0.0,
        "simplex.warm.calls": len(warm),
        "simplex.warm.ms": _per_call_ms(warm, "simplex.solve"),
        "simplex.warm.pivots_per_call": warm_piv / len(warm) if warm else 0.0,
        "bnb.solves": _count(rnd, "bnb.solve"),
        "bnb.nodes": nodes,
        "bnb.nodes_per_s": nodes / bnb_s if bnb_s else 0.0,
        "bnb.self_s": sum(selfs[sp.id] for sp in rnd if sp.name == "bnb.solve"),
        "bnb.root_info_s": _total(rnd, "bnb.collect_root_info"),
        "core.evaluate.calls": _count(rnd, "core.evaluate_solution"),
        "core.evaluate.s": _total(rnd, "core.evaluate_solution"),
        "core.io_s": _total(rnd, "core.read_instance") + _total(rnd, "core.write_instance"),
        "labeler.label_s": _total(rnd, "labeler.generate_labels"),
        "labeler.first_feasible_s": _total(rnd, "labeler.initial_solution"),
        "labeler.prox_steps": _count(rnd, "labeler.proximity_step"),
        "labeler.prox_step_ms": _per_call_ms(rnd, "labeler.proximity_step"),
        "trigraph.build_ms": _per_call_ms(rnd, "trigraph.build_trigraph"),
        "trigraph.scale_s": _total(rnd, "trigraph.apply_scaler") + _total(rnd, "trigraph.fit_scaler"),
        "trigraph.io_s": _total(rnd, "trigraph.io"),
        "gcn.forward_ms": _per_call_ms(rnd, "gcn.forward"),
        "gcn.train_s": train_s,
        "gcn.epoch_s": train_s / epochs if epochs else 0.0,
        "predictor.approx_s": approx_s,
        "predictor.exact_s": exact_s,
        "predictor.exact_over_baseline": exact_s / baseline_s if baseline_s else 0.0,
        "generators.gen_s": _total(subtree(spans, setup_id), "generators.generate"),
    }
    stages = {st: 0.0 for st in STAGES}
    for sp in rnd:
        if sp.name == "cli.main":
            stages[sp.attrs["stage"]] += sp.duration
    out.update({f"cli.{st}_s": s for st, s in stages.items()})
    program = sum(selfs[sp.id] for sp in rnd if "." in sp.name)
    out["trace.round_s"] = by_id[round_id].duration
    out["trace.program_self_s"] = program
    out["trace.harness_self_s"] = sum(selfs.values()) - program
    return out
