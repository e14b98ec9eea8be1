"""The three benchmark workloads.

Each workload has a ``setup`` (inputs, HiGHS references, predictions;
timed as ``setup_s``), a ``work`` step that is the measured fixed work,
timed part by part, and calls only public functions of ``mippred``
through their module attributes (so a traced run sees every call), and
a ``judge`` step, outside the timing, that checks the outputs against
the references.
Why each workload exists is in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mippred import bnb, cli, core, gcn, generators, predictor, trigraph
from reference import (
    check_solve,
    highs_optimum,
    mean_gaps,
    primal_gap_pct,
    same_objective,
)
from tracing import RUN_MODES, Tracer, patched

clock = time.perf_counter


class SetupError(RuntimeError):
    """The workload's inputs or references could not be made."""


@dataclass
class Judged:
    """What one round of work produced, checked.

    ``item_s`` times the round's items (see README.md).  ``fingerprint``
    holds every deterministic output (statuses, objectives, bounds,
    nodes, hashes); it must repeat exactly across rounds, traced or not.
    """

    item_s: list[float]
    solve_s: dict[str, float]
    checks: list[tuple[str, list[str]]]
    quality: dict[str, float]
    fingerprint: list


def item_seed(seed: int, salt: int, index: int) -> int:
    """Instance seed derived from the workload seed, stable across runs."""
    ss = np.random.SeedSequence([seed % 2**32, salt, index])
    return int(ss.generate_state(1)[0])


def synthetic_predictions(x_opt, rng, flip_share: float) -> np.ndarray:
    """Predictions from a known optimum: confident and correct, except a
    ``flip_share`` of the binaries, which are wrong and unconfident."""
    x = np.round(np.asarray(x_opt, float))
    z = np.where(x > 0.5, 0.9, 0.1)
    flip = rng.choice(len(z), size=round(flip_share * len(z)), replace=False)
    z[flip] = np.where(x[flip] > 0.5, 0.4, 0.6)
    return z


def _solution_problems(inst, res) -> list[str]:
    """Re-evaluate a returned incumbent on the original instance."""
    if res.incumbent is None:
        return [] if res.objective is None else ["objective without incumbent"]
    ev = core.evaluate_solution(inst, res.incumbent.values)
    problems = []
    if not ev.feasible:
        problems.append(f"incumbent infeasible (violation {ev.max_violation:.3g})")
    if not same_objective(ev.objective, res.objective):
        problems.append(f"reported objective {res.objective!r} != "
                        f"re-evaluated {ev.objective!r}")
    return problems


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# solve-sc: tree search at a fixed node budget


class SolveSc:
    name = "solve-sc"
    COUNT = 16
    PARAMS = {"sets": 100, "elements": 75, "density": 0.06}
    NODE_LIMIT = 30
    PHI, ETA = 5, 0.95
    FLIP_SHARE = 0.1

    def setup(self, seed: int, workdir: Path):
        items = []
        for i in range(self.COUNT):
            inst = generators.generate(generators.GenSpec(
                "sc", "custom", dict(self.PARAMS), seed=item_seed(seed, 1, i)))
            ref = highs_optimum(inst)
            bins = inst.binary_indices()
            z = synthetic_predictions(ref.x[bins], np.random.default_rng(
                item_seed(seed, 2, i)), self.FLIP_SHARE)
            items.append((inst, ref, z))
        return items

    def _solve(self, mode, inst, z):
        solver = bnb.BnbConfig(node_limit=self.NODE_LIMIT)
        if mode == "baseline":
            return bnb.solve(inst, solver)
        cfg = predictor.ApplyConfig(
            phi=self.PHI, eta=self.ETA, solver=solver,
            mode=predictor.APPROXIMATE if mode == "approx" else predictor.EXACT)
        if mode == "approx":
            return predictor.approximate_solve(inst, z, cfg)
        return predictor.exact_solve(inst, z, cfg)

    def work(self, items, timer):
        out = []
        for inst, _, z in items:
            per_mode = {}
            with timer.part():
                for mode in RUN_MODES:
                    t = clock()
                    try:
                        res, err = self._solve(mode, inst, z), None
                    except Exception as exc:  # a failing solve is an item, not the end
                        res, err = None, f"{type(exc).__name__}: {exc}"
                    per_mode[mode] = (res, err, clock() - t)
            out.append(per_mode)
        return out

    def judge(self, items, raw) -> Judged:
        solve_s = {mode: 0.0 for mode in RUN_MODES}
        checks, gaps, fingerprint, item_s = [], [], [], []
        for (inst, ref, _), per_mode in zip(items, raw):
            item_s.append(sum(dt for _, _, dt in per_mode.values()))
            for mode, (res, err, dt) in per_mode.items():
                solve_s[mode] += dt
                label = f"{inst.name}/{mode}"
                if err is not None:
                    checks.append((label, [err]))
                    gaps.append((mode, primal_gap_pct(None, ref.objective)))
                    fingerprint.append((label, "error"))
                    continue
                problems = check_solve(inst.sense, mode == "approx", res.status,
                                       res.objective, res.lower_bound,
                                       ref.objective)
                checks.append((label, problems + _solution_problems(inst, res)))
                gaps.append((mode, primal_gap_pct(res.objective, ref.objective)))
                fingerprint.append((label, res.status, res.objective,
                                    res.lower_bound, res.nodes))
        quality = {f"primal_gap_pct.{m}": g for m, g in mean_gaps(gaps).items()}
        return Judged(item_s, solve_s, checks, quality, fingerprint)


# ---------------------------------------------------------------------------
# infer-mix: unseen instance -> predictions, no tree search


class InferMix:
    name = "infer-mix"
    MIX = (
        ("sc", "custom", {"sets": 300, "elements": 200, "density": 0.05}),
        ("mis", "custom", {"nodes": 60, "min_edges": 600, "max_edges": 700}),
        ("tsp", "custom", {"min_cities": 20, "max_cities": 20}),
        ("mk", "small", {}),
        ("ga", "small", {}),
        ("cfl", "small", {}),
        ("vrp", "custom", {"customers": 8, "vehicles": 3}),
    )
    COPIES = 3
    SCALER_GRAPHS = 2  # tiny instances per problem class the scaler is fit on

    def setup(self, seed: int, workdir: Path):
        items, tiny = [], []
        for k, (problem, preset, params) in enumerate(self.MIX):
            for c in range(self.COPIES):
                inst = generators.generate(generators.GenSpec(
                    problem, preset, dict(params),
                    seed=item_seed(seed, 3, k * self.COPIES + c)))
                items.append((inst, highs_optimum(inst, relax=True)))
            for c in range(self.SCALER_GRAPHS):
                small = generators.generate(generators.GenSpec(
                    problem, "tiny", seed=item_seed(seed, 4, k * self.COPIES + c)))
                tiny.append(trigraph.build_trigraph(
                    small, bnb.collect_root_info(small)))
        hyper = gcn.GcnHyper()
        return {"items": items, "scaler": trigraph.fit_scaler(tiny),
                "hyper": hyper, "params": gcn.init_params(hyper)}

    def work(self, state, timer):
        out = []
        for inst, _ in state["items"]:
            with timer.part():
                t = clock()
                try:
                    root = bnb.collect_root_info(inst)
                    graph = trigraph.build_trigraph(inst, root)
                    z = gcn.forward(trigraph.apply_scaler(graph, state["scaler"]),
                                    state["params"], state["hyper"])
                    row = (root, graph, z, None)
                except Exception as exc:
                    row = (None, None, None, f"{type(exc).__name__}: {exc}")
                dt = clock() - t
            out.append(row + (dt,))
        return out

    def judge(self, state, raw) -> Judged:
        checks, fingerprint, item_s = [], [], []
        for (inst, ref), (root, graph, z, err, dt) in zip(state["items"], raw):
            item_s.append(dt)
            if err is not None:
                checks.append((inst.name, [err]))
                fingerprint.append((inst.name, "error"))
                continue
            problems = []
            value = None
            if root.lp.status != "optimal":
                problems.append(f"root LP {root.lp.status}")
            else:
                # the root pass works on the canonical (min) presolved form
                value = root.lp.objective + root.objective_offset
                if inst.sense == "max":
                    value = -value
                if not same_objective(value, ref.objective):
                    problems.append(f"root LP {value!r} != HiGHS LP "
                                    f"{ref.objective!r}")
            z = np.asarray(z)
            if z.shape != (len(graph.var_names),) or not len(z):
                problems.append(f"{z.shape} predictions for "
                                f"{len(graph.var_names)} variables")
            elif not (np.all(np.isfinite(z)) and z.min() >= 0.0 and z.max() <= 1.0):
                problems.append("predictions outside [0, 1]")
            checks.append((inst.name, problems))
            fingerprint.append((inst.name, root.lp.status, value,
                                root.lp.iterations, _digest(z.tobytes())))
        return Judged(item_s, {}, checks, {}, fingerprint)


# ---------------------------------------------------------------------------
# pipeline-mk: every CLI stage in process


class PipelineMk:
    name = "pipeline-mk"
    CONFIG = """\
[experiment]
problem = mk
preset = custom
params = {{"min_items": 20, "max_items": 20, "min_dims": 5, "max_dims": 5}}
train = 8
valid = 4
test = 8
seed = {seed}

[labeler]
time_limit_s = 60

[predictor]
phi_grid = 0 5
eta_grid = 0.9 0.95
time_limit_s = 60

[eval]
ref_time_limit_s = 60
"""
    STAGES = (["gen"], ["label"], ["featurize"], ["train"], ["predict"],
              ["gridsearch"], ["run", "--mode", "approx"],
              ["run", "--mode", "exact"], ["run", "--mode", "baseline"],
              ["eval"])
    #: what a run stage calls per test instance, where cli looks it up
    RUN_SOLVES = ((predictor, "approximate_solve"), (predictor, "exact_solve"),
                  (bnb, "solve"))

    @staticmethod
    def _stage(argv, config: Path, workdir: Path):
        """Run one CLI stage in process; (exit code, captured output)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli.main(list(argv) + ["--config", str(config),
                                        "--workdir", str(workdir)])
        return rc, buf.getvalue()

    def setup(self, seed: int, workdir: Path):
        config = workdir / "pipeline-mk.ini"
        config.write_text(self.CONFIG.format(seed=seed % 2**32))
        gen_dir = workdir / "setup-gen"
        shutil.rmtree(gen_dir, ignore_errors=True)
        rc, log = self._stage(["gen"], config, gen_dir)
        if rc != 0:
            raise SetupError(f"gen stage exited {rc}: {log.strip()}")
        refs = {}
        for path in sorted((gen_dir / "instances" / "test").glob("*.json")):
            inst = core.read_instance(path)
            refs[inst.name] = (inst.sense, highs_optimum(inst).objective)
        shutil.rmtree(gen_dir)
        return {"config": config, "refs": refs, "workdir": workdir}

    @staticmethod
    def _keep_result(args, kwargs, out):
        return {"inst": args[0], "result": out}

    def work(self, state, timer):
        """One pass of the stages; also (mode -> {instance name: (instance,
        SolveResult)}) of each run stage, since the CLI writes no solutions."""
        wd = Path(tempfile.mkdtemp(prefix="round-", dir=state["workdir"]))
        stages, solved = [], {}
        for argv in self.STAGES:
            recorder = Tracer()
            targets = [(owner, attr, attr, self._keep_result)
                       for owner, attr in self.RUN_SOLVES] if argv[0] == "run" else []
            with patched(recorder, targets), timer.part():
                rc, log = self._stage(argv, state["config"], wd)
            stages.append(("_".join(a for a in argv if a != "--mode"), rc, log))
            if argv[0] == "run":
                # outermost calls only: approximate_solve calls bnb.solve too
                solved[argv[-1]] = {
                    sp.attrs["inst"].name: (sp.attrs["inst"], sp.attrs["result"])
                    for sp in recorder.spans
                    if sp.parent is None and "result" in sp.attrs}
        return wd, stages, solved

    def judge(self, state, raw) -> Judged:
        wd, stages, solved = raw
        try:
            return self._judge(state, wd, stages, solved)
        finally:
            shutil.rmtree(wd, ignore_errors=True)

    def _judge(self, state, wd: Path, stages, solved) -> Judged:
        checks = [(f"stage {name}",
                   [] if rc == 0 else [f"exit {rc}: {log.strip()[-300:]}"])
                  for name, rc, log in stages]
        solve_s = {mode: 0.0 for mode in RUN_MODES}
        per_instance: dict[str, float] = {}
        gaps, fingerprint = [], []
        for mode in RUN_MODES:
            path = wd / f"results_{mode}.csv"
            if not path.is_file():
                checks.append((f"results_{mode}.csv", ["missing"]))
                continue
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            for row in rows:
                name = row["instance"]
                label = f"{name}/{mode}"
                if name not in state["refs"]:
                    checks.append((label, ["unknown instance"]))
                    continue
                sense, opt = state["refs"][name]
                obj = float(row["objective"]) if row["objective"] else None
                problems = check_solve(
                    sense, mode == "approx", row["status"], obj,
                    float(row["lower_bound"]), opt, time_limited=True)
                caught = solved.get(mode, {}).get(name)
                if caught is None:
                    problems.append("no solve result caught")
                else:
                    inst, res = caught
                    problems += _solution_problems(inst, res)
                    if res.objective != obj:
                        problems.append(f"results row objective {obj!r} != "
                                        f"returned {res.objective!r}")
                checks.append((label, problems))
                gaps.append((mode, primal_gap_pct(obj, opt)))
                seconds = float(row["wall_time_s"])
                solve_s[mode] += seconds
                per_instance[name] = per_instance.get(name, 0.0) + seconds
                fingerprint.append((label, row["status"], row["objective"],
                                    row["lower_bound"], row["nodes"]))
        quality = {f"primal_gap_pct.{m}": g for m, g in mean_gaps(gaps).items()}
        labels = sorted((wd / "labels").glob("*.json"))
        fingerprint.append(("labels", _digest(*(p.name + p.read_text() for p in labels))))
        history = wd / "history.csv"
        if history.is_file():
            with open(history, newline="") as fh:
                quality["train_loss"] = float(list(csv.DictReader(fh))[-1]["loss"])
        report = wd / "report.json"
        if report.is_file():
            ap = json.loads(report.read_text())["summary"]["validation"]["mean_ap"]
            quality["val_ap"] = 0.0 if ap is None else float(ap)
        tuned = wd / "tuned.json"
        fingerprint.append(("tuned", tuned.read_text() if tuned.is_file() else None))
        fingerprint.append(("quality", sorted(quality.items())))
        return Judged(list(per_instance.values()), solve_s, checks, quality,
                      fingerprint)


WORKLOADS = {w.name: w for w in (SolveSc, InferMix, PipelineMk)}
