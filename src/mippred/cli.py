"""Command-line pipeline chaining generation, labeling, training and solving.

Every subcommand works inside one experiment directory (``--workdir``):

    instances/{train,valid,test}/*.json   written by  gen
    labels/*.json                         written by  label     (train+valid)
    graphs/*.json, scaler.json            written by  featurize (all splits)
    model.json, history.csv               written by  train
    predictions/*.csv                     written by  predict   (valid+test)
    tuned.json                            written by  gridsearch
    results_{mode}.csv                    written by  run
    report.json, report.csv, curves/      written by  eval

Graph and scaler files hold each array as base64 text
(``core.encode_array``); those written as nested lists by earlier
versions exit 4 and need ``featurize`` rerun.

``train`` reads the graphs and labels of the train and valid splits: it
fits the model on the train split and stops early on the valid split's
loss, keeping the epoch where that loss was lowest (``gcn.train``).
history.csv holds one row per epoch run, with the columns ``epoch``,
``loss`` (mean training loss) and ``valid_loss`` (mean validation loss,
empty when no valid instance has a stable label).

``gridsearch`` keeps the (phi, eta) pair of the grids whose approx
solves of the valid split have the least mean primal gap, measured
against one baseline solve per valid instance under ``ref_time_limit_s``.

``eval`` measures each mode's primal gap against a reference objective
per test instance: the baseline's objective where results_baseline.csv
reports it optimal, else a baseline solve under ``ref_time_limit_s``.
It scores the predictions on the valid split only, as the test split
has no labels.  The report's validation AP is therefore an
in-sample figure: the same split picks the kept epoch in ``train`` and
(phi, eta) in ``gridsearch``.  Beside each AP stands ``ap_baseline``,
the positive share of the stable binaries: about the AP of a random
ranking.  For each valid instance it also writes
curves/{instance}.csv: the accuracy of the rounded predictions on the
stable binaries when only the most confident 0.25, 0.5, 0.75, 0.9 and
1.0 fractions of them are kept (``metrics.accuracy_at_fraction``).

The configuration is an INI file (``--config``).  Every key may be left
out and then takes its default; an unknown section or key, a value that
does not parse, or one out of its range exits 3.  Lists are separated
by spaces or commas.  The keys, with their defaults and ranges:

    [experiment]
    problem           sc        fcnf, cfl, ga, mis, mk, sc, tsp or vrp
    preset            tiny      a preset of the problem, or custom
    params            {}        JSON object over the preset's parameters
    train             140       >= 1, instances in the train split
    valid             20        >= 1, instances in the valid split
    test              40        >= 1, instances in the test split
    seed              0         >= 0
    [labeler]
    max_iters         40        >= 1, proximity-search rounds
    time_limit_s      5.0       > 0, seconds per proximity solve (63
                                times this for the first solution)
    [gcn]                       checked by gcn.GcnHyper.validate
    hidden_dim        64        >= 1
    transitions       2         >= 1, message-passing rounds
    output_hidden     64        >= 1
    learning_rate     0.001     finite and >= 0
    epochs            200       >= 1, the cap on training epochs
    seed              0         >= 0
    attention         true      boolean
    literal_loops     false     boolean
    [predictor]
    phi_grid          0 5 10 15 20           integers >= 0
    eta_grid          0.8 0.9 0.95 0.99 1.0  values in (0, 1]
    time_limit_s      5.0       > 0, seconds per gridsearch or run solve
    node_limit        (empty)   empty for none, or >= 1
    [eval]
    ref_time_limit_s  60.0      > 0, seconds per reference solve

Stages only read earlier outputs and only write their own files, so any
stage can be rerun in place; identical configuration and seeds give
byte-identical outputs apart from the wall-clock timings, which are the
``wall_time_s`` column of results_{mode}.csv and the ``runtimes`` key
of report.json.  Exit codes: 2 when a required earlier output is
missing, 3 for an invalid configuration or command line, 4 for a
runtime failure inside a stage, such as a predictions file that does
not name exactly its instance's binaries.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import sys
import time
from concurrent import futures
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bnb, gcn, generators, labeler, metrics, predictor, trigraph
from .core import (MipInstance, check_keys, read_csv, read_instance, read_json,
                   write_csv, write_instance, write_json)

EXIT_MISSING_INPUT = 2
EXIT_BAD_CONFIG = 3
EXIT_RUNTIME = 4

SPLITS = ("train", "valid", "test")
RUN_MODES = ("approx", "exact", "baseline")

_SPLIT_CODE = {"train": 0, "valid": 1, "test": 2}
_RESULT_FIELDS = ("instance", "mode", "phi", "eta", "status", "objective",
                  "lower_bound", "nodes", "wall_time_s")
_REPORT_FIELDS = ("instance", "mode", "status", "objective", "reference",
                  "primal_gap", "optimality_gap", "nodes")
# the kept fractions of the accuracy curves eval writes
_CURVE_FRACTIONS = (0.25, 0.5, 0.75, 0.9, 1.0)


class MissingInputError(RuntimeError):
    """An earlier stage's output that this stage needs is absent."""


class ConfigError(ValueError):
    """The experiment configuration or command line is invalid."""


# ---------------------------------------------------------------------------
# Configuration


@dataclass
class ExperimentConfig:
    """Everything a pipeline run needs besides the working directory."""

    problem: str = "sc"
    preset: str = "tiny"
    gen_params: dict = field(default_factory=dict)
    n_train: int = 140
    n_valid: int = 20
    n_test: int = 40
    seed: int = 0
    labeling: labeler.LabelConfig = field(default_factory=labeler.LabelConfig)
    hyper: gcn.GcnHyper = field(default_factory=gcn.GcnHyper)
    phi_grid: tuple = predictor.PHI_GRID
    eta_grid: tuple = predictor.ETA_GRID
    solver: bnb.BnbConfig = field(
        default_factory=lambda: bnb.BnbConfig(time_limit_s=5.0))
    reference: bnb.BnbConfig = field(
        default_factory=lambda: bnb.BnbConfig(time_limit_s=60.0))
    workdir: Path = field(default_factory=Path)
    jobs: int = 1


def _json_object(raw: str) -> dict:
    parsed = json.loads(raw)
    if not isinstance(parsed, dict):
        raise ValueError("must be a JSON object")
    return parsed


def _list_of(conv):
    def parse(raw: str) -> tuple:
        tokens = raw.replace(",", " ").split()
        if not tokens:
            raise ValueError("empty list")
        return tuple(conv(tok) for tok in tokens)
    return parse


def _boolean(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"Not a boolean: {raw}") from None


# (test, rule) of a value as read; a comparison with NaN is false, so
# "> 0" also rejects NaN
_POSITIVE = (lambda v: v > 0, "> 0")
_AT_LEAST_ONE = (lambda v: v >= 1, ">= 1")

# One row per INI key: section, key, the path below ExperimentConfig of
# the attribute it sets, the parser of its text, and the (test, rule) of
# its value.  Rows with no test: problem, preset and params are checked
# together by the generators, the [gcn] keys by GcnHyper.validate, and
# each value of the two grids by predictor.ApplyConfig.validate.
_KEYS = (
    ("experiment", "problem", "problem", str.lower, None),
    ("experiment", "preset", "preset", str.lower, None),
    ("experiment", "params", "gen_params", _json_object, None),
    ("experiment", "train", "n_train", int, _AT_LEAST_ONE),
    ("experiment", "valid", "n_valid", int, _AT_LEAST_ONE),
    ("experiment", "test", "n_test", int, _AT_LEAST_ONE),
    ("experiment", "seed", "seed", int, (lambda v: v >= 0, ">= 0")),
    ("labeler", "max_iters", "labeling.max_iters", int, _AT_LEAST_ONE),
    ("labeler", "time_limit_s", "labeling.base_time_limit_s", float,
     _POSITIVE),
    ("gcn", "hidden_dim", "hyper.hidden_dim", int, None),
    ("gcn", "transitions", "hyper.transitions", int, None),
    ("gcn", "output_hidden", "hyper.output_hidden", int, None),
    ("gcn", "learning_rate", "hyper.learning_rate", float, None),
    ("gcn", "epochs", "hyper.epochs", int, None),
    ("gcn", "seed", "hyper.seed", int, None),
    ("gcn", "attention", "hyper.attention", _boolean, None),
    ("gcn", "literal_loops", "hyper.literal_loops", _boolean, None),
    ("predictor", "phi_grid", "phi_grid", _list_of(int), None),
    ("predictor", "eta_grid", "eta_grid", _list_of(float), None),
    ("predictor", "time_limit_s", "solver.time_limit_s", float, _POSITIVE),
    ("predictor", "node_limit", "solver.node_limit",
     lambda raw: int(raw) if raw.strip() else None,
     (lambda v: v is None or v >= 1, "empty or >= 1")),
    ("eval", "ref_time_limit_s", "reference.time_limit_s", float, _POSITIVE),
)


def _resolve(cfg: ExperimentConfig, path: str):
    """(object, attribute name) of the dotted ``path`` below ``cfg``."""
    *parents, attr = path.split(".")
    return functools.reduce(getattr, parents, cfg), attr


def _apply_config(cfg: ExperimentConfig, cp: configparser.ConfigParser) -> None:
    for section in cp.sections():
        keys = {row[1] for row in _KEYS if row[0] == section}
        if not keys:
            raise ConfigError(f"unknown config section [{section}]")
        unknown = set(cp[section]) - keys
        if unknown:
            raise ConfigError(
                f"unknown keys {sorted(unknown)} in section [{section}]")
    for section, key, path, parse, _ in _KEYS:
        if cp.has_option(section, key):
            try:
                value = parse(cp.get(section, key))
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None
            setattr(*_resolve(cfg, path), value)


def _validate_config(cfg: ExperimentConfig) -> None:
    for section, key, path, _, check in _KEYS:
        value = getattr(*_resolve(cfg, path))
        if check is not None and not check[0](value):
            raise ConfigError(
                f"[{section}] {key} must be {check[1]}, got {value!r}")
    for key, name in (("phi_grid", "phi"), ("eta_grid", "eta")):
        try:
            for value in getattr(cfg, key):
                predictor.ApplyConfig(**{name: value}).validate()
        except ValueError as exc:
            raise ConfigError(
                f"[predictor] {key}: {exc}, got {value!r}") from None
    try:
        generators.merged_params(cfg.problem, cfg.preset, cfg.gen_params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:
        cfg.hyper.validate()
    except ValueError as exc:
        raise ConfigError(f"[gcn] {exc}") from None
    if cfg.jobs < 1:
        raise ConfigError("--jobs must be at least 1")


def load_config(path, workdir, jobs: int = 1) -> ExperimentConfig:
    """Experiment configuration from an INI file plus command-line knobs.

    A missing or malformed file, an unknown key, or an out-of-range value
    raises ConfigError.
    """
    cfg = ExperimentConfig(workdir=Path(workdir), jobs=int(jobs))
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file {path} does not exist")
        cp = configparser.ConfigParser()
        try:
            with open(path) as fh:
                cp.read_file(fh)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from None
        _apply_config(cfg, cp)
    _validate_config(cfg)
    return cfg


# ---------------------------------------------------------------------------
# Shared stage helpers


def _fmt(x: float) -> str:
    """17-significant-digit decimal; round-trips any float exactly."""
    return format(float(x), ".17g")


def _require(path: Path, producer: str) -> Path:
    """``path``, which the stage ``producer`` writes; MissingInputError if
    it is absent."""
    if not path.exists():
        raise MissingInputError(
            f"missing {path} (run the '{producer}' stage first)")
    return path


def _split_instances(cfg: ExperimentConfig, split: str) -> list[Path]:
    base = _require(cfg.workdir / "instances", "gen")
    d = _require(base / split, "gen")
    paths = sorted(d.glob("*.json"))
    if not paths:
        raise MissingInputError(
            f"no instance files in {d} (run the 'gen' stage first)")
    return paths


def _instance_seed(base_seed: int, split: str, index: int) -> int:
    ss = np.random.SeedSequence([base_seed, _SPLIT_CODE[split], index])
    return int(ss.generate_state(1)[0])


def _pmap(fn, items, jobs: int) -> list:
    """Order-preserving map, optionally over a process pool."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _read_predictions(path: Path, names: list[str]) -> np.ndarray:
    """z of a predictions file for the binaries ``names``, in their order;
    the file names each of them once, with z in [0, 1], and nothing else."""
    rows = read_csv(path)
    if rows[:1] != [["varname", "z"]]:
        raise ValueError(f"{path}: expected a 'varname,z' header, "
                         f"got {rows[:1]}")
    pred, known = {}, set(names)
    for line, row in enumerate(rows[1:], start=2):
        try:
            name, z = row
            if name in pred or not 0.0 <= float(z) <= 1.0:
                raise ValueError
        except ValueError:
            raise ValueError(f"{path}: line {line}: expected 'varname,z' "
                             f"with z in [0, 1], each variable once, "
                             f"got {row}") from None
        if name not in known:
            raise ValueError(f"{path}: line {line}: {name!r} is not a "
                             f"binary of the instance")
        pred[name] = float(z)
    for name in names:
        if name not in pred:
            raise ValueError(f"{path}: no prediction for binary {name!r}")
    return np.array([pred[name] for name in names])


# ---------------------------------------------------------------------------
# Stage commands


def cmd_gen(cfg: ExperimentConfig) -> None:
    counts = {"train": cfg.n_train, "valid": cfg.n_valid, "test": cfg.n_test}
    for split in SPLITS:
        d = cfg.workdir / "instances" / split
        d.mkdir(parents=True, exist_ok=True)
        for i in range(counts[split]):
            spec = generators.GenSpec(cfg.problem, cfg.preset,
                                      params=cfg.gen_params,
                                      seed=_instance_seed(cfg.seed, split, i))
            inst = generators.generate(spec)
            inst.name = f"{cfg.problem}-{cfg.preset}-{split}-{i:04d}"
            write_instance(inst, d / f"{inst.name}.json")
    total = sum(counts.values())
    print(f"gen: wrote {total} instances "
          f"({counts['train']}/{counts['valid']}/{counts['test']}) "
          f"under {cfg.workdir / 'instances'}")


def _label_one(task) -> str:
    inst_path, out_path, label_cfg = task
    ls = labeler.generate_labels(read_instance(inst_path), label_cfg)
    labeler.write_labels(out_path, ls)
    return ls.instance


def cmd_label(cfg: ExperimentConfig) -> None:
    out = cfg.workdir / "labels"
    out.mkdir(parents=True, exist_ok=True)
    tasks = [(path, out / path.name, cfg.labeling)
             for split in ("train", "valid")
             for path in _split_instances(cfg, split)]
    done = _pmap(_label_one, tasks, cfg.jobs)
    print(f"label: wrote {len(done)} label sets under {out}")


def _featurize_one(task) -> str:
    inst_path, out_path = task
    inst = read_instance(inst_path)
    root = bnb.collect_root_info(inst)
    trigraph.write_trigraph(out_path, trigraph.build_trigraph(inst, root))
    return inst.name


def cmd_featurize(cfg: ExperimentConfig) -> None:
    out = cfg.workdir / "graphs"
    out.mkdir(parents=True, exist_ok=True)
    tasks, train_graphs = [], []
    for split in SPLITS:
        for path in _split_instances(cfg, split):
            tasks.append((path, out / path.name))
            if split == "train":
                train_graphs.append(out / path.name)
    _pmap(_featurize_one, tasks, cfg.jobs)
    scaler = trigraph.fit_scaler(
        [trigraph.read_trigraph(p) for p in train_graphs])
    trigraph.write_scaler(cfg.workdir / "scaler.json", scaler)
    print(f"featurize: wrote {len(tasks)} graphs under {out} "
          f"and {cfg.workdir / 'scaler.json'}")


def _labelled_graphs(cfg: ExperimentConfig, split: str, graphs_dir: Path,
                     labels_dir: Path, scaler) -> list:
    """(scaled graph, labels) of every instance in ``split``."""
    pairs = []
    for path in _split_instances(cfg, split):
        graph = trigraph.read_trigraph(
            _require(graphs_dir / path.name, "featurize"))
        labels = labeler.read_labels(_require(labels_dir / path.name, "label"))
        pairs.append((trigraph.apply_scaler(graph, scaler), labels))
    return pairs


def cmd_train(cfg: ExperimentConfig) -> None:
    graphs_dir = _require(cfg.workdir / "graphs", "featurize")
    labels_dir = _require(cfg.workdir / "labels", "label")
    scaler = trigraph.read_scaler(
        _require(cfg.workdir / "scaler.json", "featurize"))
    dataset = _labelled_graphs(cfg, "train", graphs_dir, labels_dir, scaler)
    valid = _labelled_graphs(cfg, "valid", graphs_dir, labels_dir, scaler)
    params, history, valid_history = gcn.train(dataset, cfg.hyper, valid)
    gcn.save_params(cfg.workdir / "model.json", params, cfg.hyper)
    write_csv(cfg.workdir / "history.csv", ("epoch", "loss", "valid_loss"),
              ((epoch, _fmt(loss), _fmt(valid_history[epoch])
                if valid_history else "")
               for epoch, loss in enumerate(history)))
    if valid_history:
        kept = int(np.argmin(valid_history))
        kept_text = (f"kept epoch {kept}, validation loss "
                     f"{valid_history[kept]:.6f}")
    else:
        kept_text = "no stable validation labels, kept the last epoch"
    print(f"train: {len(dataset)} graphs, {len(history)} epochs run, "
          f"final loss {history[-1]:.6f}, {kept_text}; "
          f"wrote {cfg.workdir / 'model.json'}")


def cmd_predict(cfg: ExperimentConfig) -> None:
    params, hyper = gcn.load_params(
        _require(cfg.workdir / "model.json", "train"))
    scaler = trigraph.read_scaler(
        _require(cfg.workdir / "scaler.json", "featurize"))
    graphs_dir = _require(cfg.workdir / "graphs", "featurize")
    out = cfg.workdir / "predictions"
    out.mkdir(parents=True, exist_ok=True)
    n = 0
    for split in ("valid", "test"):
        for path in _split_instances(cfg, split):
            graph = trigraph.read_trigraph(
                _require(graphs_dir / path.name, "featurize"))
            z = gcn.forward(trigraph.apply_scaler(graph, scaler), params,
                            hyper)
            write_csv(out / f"{path.stem}.csv", ("varname", "z"),
                      ((name, _fmt(zj))
                       for name, zj in zip(graph.var_names, z)))
            n += 1
    print(f"predict: wrote {n} prediction files under {out}")


def _reference_objective(cfg: ExperimentConfig, inst: MipInstance) -> float:
    """Objective of the baseline solve under ``ref_time_limit_s``, the
    reference of the primal gaps."""
    ref = bnb.solve(inst, cfg.reference)
    if ref.objective is None:
        raise RuntimeError(f"no reference solution for {inst.name!r} "
                           f"within {cfg.reference.time_limit_s} s")
    return ref.objective


def _validation_triples(cfg: ExperimentConfig):
    preds_dir = _require(cfg.workdir / "predictions", "predict")
    triples = []
    for path in _split_instances(cfg, "valid"):
        inst = read_instance(path)
        z = _read_predictions(
            _require(preds_dir / f"{path.stem}.csv", "predict"),
            [inst.var_names[j] for j in inst.binary_indices()])
        triples.append((inst, z, _reference_objective(cfg, inst)))
    return triples


def cmd_gridsearch(cfg: ExperimentConfig) -> None:
    phi, eta, mean_gap = predictor.grid_search(
        _validation_triples(cfg), cfg.phi_grid, cfg.eta_grid, cfg.solver)
    write_json(cfg.workdir / "tuned.json",
               {"phi": int(phi), "eta": float(eta),
                "mean_primal_gap": mean_gap})
    print(f"gridsearch: phi={phi} eta={eta} "
          f"mean primal gap {mean_gap:.4f}% on validation")


def _tuned_from_dict(data: dict) -> tuple[int, float]:
    check_keys(data, {"phi", "eta", "mean_primal_gap"}, "tuned settings")
    predictor.ApplyConfig(phi=data["phi"], eta=data["eta"]).validate()
    return int(data["phi"]), float(data["eta"])


def _tuned_pair(cfg: ExperimentConfig) -> tuple[int, float]:
    path = cfg.workdir / "tuned.json"
    if path.is_file():
        return read_json(path, _tuned_from_dict)
    return predictor.DEFAULTS.get(cfg.problem, (0, 1.0))


def _run_one(task) -> dict:
    inst_path, pred_path, mode, phi, eta, solver = task
    inst = read_instance(inst_path)
    if mode == "baseline":
        res = bnb.solve(inst, solver)
        phi_out = eta_out = ""
    else:
        z = _read_predictions(
            pred_path, [inst.var_names[j] for j in inst.binary_indices()])
        apply_cfg = predictor.ApplyConfig(
            phi=phi, eta=eta, solver=solver,
            mode=predictor.APPROXIMATE if mode == "approx"
            else predictor.EXACT)
        solve = (predictor.approximate_solve if mode == "approx"
                 else predictor.exact_solve)
        res = solve(inst, z, apply_cfg)
        phi_out, eta_out = phi, _fmt(eta)
    return {
        "instance": inst.name,
        "mode": mode,
        "phi": phi_out,
        "eta": eta_out,
        "status": res.status,
        "objective": "" if res.objective is None else _fmt(res.objective),
        "lower_bound": _fmt(res.lower_bound),
        "nodes": res.nodes,
        "wall_time_s": _fmt(res.wall_time_s),
    }


def cmd_run(cfg: ExperimentConfig, mode: str) -> None:
    if mode not in RUN_MODES:
        raise ConfigError(f"unknown run mode {mode!r}; "
                          f"choose from {RUN_MODES}")
    paths = _split_instances(cfg, "test")
    phi, eta = _tuned_pair(cfg)
    tasks = []
    for path in paths:
        pred_path = None
        if mode != "baseline":
            preds_dir = _require(cfg.workdir / "predictions", "predict")
            pred_path = _require(preds_dir / f"{path.stem}.csv", "predict")
        tasks.append((path, pred_path, mode, phi, eta, cfg.solver))
    rows = _pmap(_run_one, tasks, cfg.jobs)
    out = cfg.workdir / f"results_{mode}.csv"
    write_csv(out, _RESULT_FIELDS,
              ([row[key] for key in _RESULT_FIELDS] for row in rows))
    solved = sum(1 for row in rows if row["objective"] != "")
    print(f"run[{mode}]: {solved}/{len(rows)} instances with a solution; "
          f"wrote {out}")


def _read_results(path: Path) -> list[dict]:
    """The rows of a results file, each keyed by the header's columns;
    blank lines are skipped."""
    header, *lines = read_csv(path) or [[]]
    rows = [dict(zip(header, row)) for row in lines if row]
    missing = set(_RESULT_FIELDS) - set(header)
    if rows and missing:
        raise RuntimeError(f"{path}: results row missing columns "
                           f"{sorted(missing)}")
    return rows


def _prediction_quality(cfg: ExperimentConfig) -> dict:
    """The report's validation summary: AP of the validation predictions;
    their accuracy curves go to curves/."""
    labels_dir = _require(cfg.workdir / "labels", "label")
    preds_dir = _require(cfg.workdir / "predictions", "predict")
    curves_dir = cfg.workdir / "curves"
    curves_dir.mkdir(parents=True, exist_ok=True)
    per_instance = []
    for path in _split_instances(cfg, "valid"):
        name = path.stem
        ls = labeler.read_labels(_require(labels_dir / path.name, "label"))
        mask = ls.stable_mask()
        y = ls.targets()[mask]
        z = _read_predictions(_require(preds_dir / f"{name}.csv",
                                       "predict"), ls.var_names)[mask]
        row = {"instance": name, "n_binary": len(ls.var_names),
               "n_stable": int(mask.sum()), "ap": None, "ap_baseline": None,
               "accuracy": None}
        if len(y) and (y == 1).any():
            row["ap"] = metrics.average_precision(z, y)
            row["ap_baseline"] = float(np.mean(y == 1))
        if len(y):
            curve = metrics.accuracy_at_fraction(z, y, _CURVE_FRACTIONS)
            write_csv(curves_dir / f"{name}.csv", ("fraction", "accuracy"),
                      curve)
            row["accuracy"] = curve[-1][1]
        per_instance.append(row)
    scored = [row for row in per_instance if row["ap"] is not None]
    return {
        "instances": len(per_instance),
        "mean_ap": (float(np.mean([row["ap"] for row in scored]))
                    if scored else None),
        "mean_ap_baseline": (float(np.mean([row["ap_baseline"]
                                            for row in scored]))
                             if scored else None),
        "per_instance": per_instance,
    }


def _solver_quality(cfg: ExperimentConfig, runtimes: dict):
    """(per-mode summary, per-row gaps) of every results_{mode}.csv
    present; each row's solve time goes to ``runtimes``."""
    present = [(mode, cfg.workdir / f"results_{mode}.csv")
               for mode in RUN_MODES
               if (cfg.workdir / f"results_{mode}.csv").is_file()]
    if not present:
        raise MissingInputError(
            f"no results_*.csv under {cfg.workdir} "
            f"(run the 'run' stage first)")
    # a baseline row proved optimal already holds the reference solve's
    # result: both run the same tree until it closes, and the objective
    # column round-trips exactly
    baseline = dict(present).get("baseline")
    optima = {} if baseline is None else {
        row["instance"]: float(row["objective"])
        for row in _read_results(baseline) if row["status"] == bnb.OPTIMAL}
    references = {}
    for path in _split_instances(cfg, "test"):
        inst = read_instance(path)
        references[inst.name] = (optima[inst.name] if inst.name in optima
                                 else _reference_objective(cfg, inst))
    mode_summary, report_rows = {}, []
    for mode, path in present:
        gaps, opt_gaps, solved = [], [], 0
        for row in _read_results(path):
            name = row["instance"]
            if name not in references:
                raise RuntimeError(f"{path}: unknown test instance {name!r}")
            obj = float(row["objective"]) if row["objective"] else None
            lb = float(row["lower_bound"])
            out = {"instance": name, "mode": mode, "status": row["status"],
                   "objective": row["objective"],
                   "reference": _fmt(references[name]),
                   "primal_gap": None, "optimality_gap": None,
                   "nodes": int(row["nodes"])}
            runtimes[f"{mode}:{name}"] = float(row["wall_time_s"])
            if obj is None:
                gaps.append(predictor.INFEASIBLE_GAP)
            else:
                solved += 1
                gap = metrics.primal_gap(obj, references[name])
                gaps.append(gap)
                out["primal_gap"] = gap
                # the cut-augmented bound of the approximate mode is not
                # valid for the original instance, so no gap is claimed
                if mode != "approx" and np.isfinite(lb):
                    out["optimality_gap"] = metrics.optimality_gap(obj, lb)
                    opt_gaps.append(out["optimality_gap"])
            report_rows.append(out)
        mode_summary[mode] = {
            "instances": len(gaps),
            "with_solution": solved,
            "mean_primal_gap": float(np.mean(gaps)) if gaps else None,
            "mean_optimality_gap": (float(np.mean(opt_gaps))
                                    if opt_gaps else None),
        }
    return mode_summary, report_rows


def cmd_eval(cfg: ExperimentConfig) -> None:
    started = time.perf_counter()
    runtimes: dict[str, float] = {}
    summary = {"validation": _prediction_quality(cfg)}
    summary["modes"], rows = _solver_quality(cfg, runtimes)
    runtimes["eval_s"] = time.perf_counter() - started
    write_json(cfg.workdir / "report.json",
               {"summary": summary, "rows": rows, "runtimes": runtimes})
    write_csv(cfg.workdir / "report.csv", _REPORT_FIELDS,
              ([row[key] for key in _REPORT_FIELDS] for row in rows))
    print("mode      instances  with_solution  mean_primal_gap%")
    for mode, stats in summary["modes"].items():
        gap = stats["mean_primal_gap"]
        print(f"{mode:<9} {stats['instances']:>9}  "
              f"{stats['with_solution']:>13}  "
              f"{'-' if gap is None else format(gap, '.4f'):>16}")
    val = summary["validation"]
    if val["mean_ap"] is not None:
        print(f"validation mean AP {val['mean_ap']:.4f} "
              f"(positive share {val['mean_ap_baseline']:.4f})")
    print(f"eval: wrote {cfg.workdir / 'report.json'} and report.csv")


# ---------------------------------------------------------------------------
# Entry point


class _Parser(argparse.ArgumentParser):
    # route usage errors through the invalid-config exit code instead of
    # argparse's bare exit(2)
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mippred",
                     description="Solution-prediction pipeline for mixed "
                                 "integer programs")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, default=None,
                       help="INI experiment file (defaults apply if omitted)")
        p.add_argument("--workdir", type=Path, default=Path("."),
                       help="experiment directory (default: current)")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for per-instance work")
        return p

    add("gen", "generate train/valid/test instances")
    add("label", "run proximity-search labeling over train+valid")
    add("featurize", "build graphs for all splits and fit the scaler")
    add("train", "train the prediction model on the train split")
    add("predict", "write per-variable predictions for valid+test")
    add("gridsearch", "tune (phi, eta) on the validation split")
    run_p = add("run", "solve the test split under the configured budget")
    run_p.add_argument("--mode", choices=RUN_MODES, required=True,
                       help="approx: local-branching cut; exact: root "
                            "branching; baseline: plain solve")
    add("eval", "report prediction quality and solver gaps")
    return parser


_COMMANDS = {
    "gen": cmd_gen,
    "label": cmd_label,
    "featurize": cmd_featurize,
    "train": cmd_train,
    "predict": cmd_predict,
    "gridsearch": cmd_gridsearch,
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config, args.workdir, jobs=args.jobs)
        if args.command == "run":
            cmd_run(cfg, args.mode)
        else:
            _COMMANDS[args.command](cfg)
    except MissingInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return 0


if __name__ == "__main__":
    sys.exit(main())
