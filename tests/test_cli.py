"""Pipeline commands: stage chaining, artifacts, exit codes, determinism."""

import csv
import json
import math
import shutil

import numpy as np
import pytest

from mippred import bnb, cli, labeler
from mippred.core import (BINARY, Constraint, MipInstance, Variable,
                          read_instance, write_instance)

SMOKE_CONFIG = """\
[experiment]
problem = sc
preset = tiny
train = 3
valid = 2
test = 2
seed = 0

[labeler]
max_iters = 5
time_limit_s = 2.0

[gcn]
hidden_dim = 8
output_hidden = 8
epochs = 5
learning_rate = 0.005

[predictor]
phi_grid = 0
eta_grid = 0.9 1.0
time_limit_s = 2.0

[eval]
ref_time_limit_s = 10.0
"""


def run(workdir, *argv):
    return cli.main([*argv, "--workdir", str(workdir)])


def write_config(workdir, text=SMOKE_CONFIG):
    path = workdir / "exp.ini"
    path.write_text(text)
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One fully executed pipeline shared by the artifact checks."""
    wd = tmp_path_factory.mktemp("pipeline")
    cfgf = write_config(wd)
    for stage in ("gen", "label", "featurize", "train", "predict",
                  "gridsearch"):
        assert run(wd, stage, "--config", str(cfgf)) == 0, stage
    for mode in ("approx", "exact", "baseline"):
        assert run(wd, "run", "--mode", mode, "--config", str(cfgf)) == 0
    assert run(wd, "eval", "--config", str(cfgf)) == 0
    return wd


# ---------------------------------------------------------------------------
# Artifacts of a full run


def test_instance_layout(pipeline):
    for split, n in (("train", 3), ("valid", 2), ("test", 2)):
        files = sorted((pipeline / "instances" / split).glob("*.json"))
        assert len(files) == n
        for i, path in enumerate(files):
            inst = read_instance(path)
            assert inst.name == f"sc-tiny-{split}-{i:04d}"
            assert path.stem == inst.name


def test_labels_cover_train_and_valid(pipeline):
    names = {p.stem for p in (pipeline / "labels").glob("*.json")}
    assert names == {f"sc-tiny-train-{i:04d}" for i in range(3)} | \
        {f"sc-tiny-valid-{i:04d}" for i in range(2)}


def test_graphs_cover_every_split_plus_scaler(pipeline):
    assert len(list((pipeline / "graphs").glob("*.json"))) == 7
    assert (pipeline / "scaler.json").is_file()


def test_model_and_history(pipeline):
    assert (pipeline / "model.json").is_file()
    lines = (pipeline / "history.csv").read_text().splitlines()
    assert lines[0] == "epoch,loss,valid_loss"
    assert len(lines) == 6  # header + 5 epochs


def test_history_records_validation_loss(pipeline):
    with open(pipeline / "history.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["epoch"]) for row in rows] == list(range(5))
    for row in rows:
        assert math.isfinite(float(row["loss"]))
        assert math.isfinite(float(row["valid_loss"]))


def test_predictions_are_probabilities(pipeline):
    files = sorted((pipeline / "predictions").glob("*.csv"))
    assert len(files) == 4  # valid + test splits
    for path in files:
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["varname", "z"]
        assert len(rows) > 1
        for _, z in rows[1:]:
            assert 0.0 < float(z) < 1.0


def test_tuned_parameters_file(pipeline):
    tuned = json.loads((pipeline / "tuned.json").read_text())
    assert set(tuned) == {"phi", "eta", "mean_primal_gap"}
    assert tuned["phi"] == 0
    assert tuned["eta"] in (0.9, 1.0)


def test_results_files(pipeline):
    for mode in ("approx", "exact", "baseline"):
        with open(pipeline / f"results_{mode}.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            assert row["mode"] == mode
            assert row["instance"].startswith("sc-tiny-test-")
            assert float(row["wall_time_s"]) >= 0.0


def test_report_structure(pipeline):
    report = json.loads((pipeline / "report.json").read_text())
    assert set(report) == {"summary", "rows", "runtimes"}
    val = report["summary"]["validation"]
    assert val["instances"] == 2
    assert 0.0 <= val["mean_ap"] <= 1.0
    assert (pipeline / "report.csv").is_file()
    assert len(list((pipeline / "curves").glob("*.csv"))) == 2


def test_report_ap_baseline_is_the_positive_share(pipeline):
    # a constant score ranks the binaries by index, so its AP would
    # depend on the variable order; the positive share does not
    val = json.loads((pipeline / "report.json").read_text())["summary"][
        "validation"]
    shares = []
    for row in val["per_instance"]:
        ls = labeler.read_labels(pipeline / "labels"
                                 / f"{row['instance']}.json")
        y = ls.targets()[ls.stable_mask()]
        if row["ap"] is None:
            assert row["ap_baseline"] is None
            continue
        assert row["ap_baseline"] == float(np.mean(y == 1))
        shares.append(row["ap_baseline"])
    assert shares and val["mean_ap_baseline"] == float(np.mean(shares))


def test_report_csv_and_curves_layout(pipeline):
    report = json.loads((pipeline / "report.json").read_text())
    lines = (pipeline / "report.csv").read_bytes().split(b"\r\n")
    assert lines[0] == (b"instance,mode,status,objective,reference,"
                        b"primal_gap,optimality_gap,nodes")
    assert lines[-1] == b"" and len(lines) == len(report["rows"]) + 2
    for path in sorted((pipeline / "curves").glob("*.csv")):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["fraction", "accuracy"]
        assert [float(f) for f, _ in rows[1:]] == [0.25, 0.5, 0.75, 0.9, 1.0]
        for _, acc in rows[1:]:
            assert 0.0 <= float(acc) <= 1.0


def test_eval_prints_comparison_table(pipeline, capsys):
    cfgf = pipeline / "exp.ini"
    assert run(pipeline, "eval", "--config", str(cfgf)) == 0
    out = capsys.readouterr().out
    for mode in ("approx", "exact", "baseline"):
        assert mode in out


# ---------------------------------------------------------------------------
# Determinism and rerunnability


def test_regenerated_instances_are_byte_identical(pipeline, tmp_path):
    cfgf = write_config(tmp_path)
    assert run(tmp_path, "gen", "--config", str(cfgf)) == 0
    for split in ("train", "valid", "test"):
        for path in sorted((tmp_path / "instances" / split).glob("*.json")):
            twin = pipeline / "instances" / split / path.name
            assert path.read_bytes() == twin.read_bytes()


def _results_without_times(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        del row["wall_time_s"]
    return rows


def test_process_pool_stages_equal_serial_ones(pipeline, tmp_path):
    # --jobs 2 maps each stage's instances over a process pool; the
    # outputs must equal the serial fixture's
    cfgf = write_config(tmp_path)
    shutil.copytree(pipeline / "instances", tmp_path / "instances")
    for stage in ("label", "featurize"):
        assert run(tmp_path, stage, "--config", str(cfgf),
                   "--jobs", "2") == 0, stage
    for sub in ("labels", "graphs"):
        names = sorted(p.name for p in (pipeline / sub).iterdir())
        assert sorted(p.name for p in (tmp_path / sub).iterdir()) == names
        for name in names:
            assert (tmp_path / sub / name).read_bytes() == \
                (pipeline / sub / name).read_bytes(), f"{sub}/{name}"
    assert (tmp_path / "scaler.json").read_bytes() == \
        (pipeline / "scaler.json").read_bytes()

    shutil.copytree(pipeline / "predictions", tmp_path / "predictions")
    shutil.copy(pipeline / "tuned.json", tmp_path / "tuned.json")
    for mode in ("approx", "exact", "baseline"):
        assert run(tmp_path, "run", "--mode", mode, "--config", str(cfgf),
                   "--jobs", "2") == 0, mode
        name = f"results_{mode}.csv"
        assert _results_without_times(tmp_path / name) == \
            _results_without_times(pipeline / name)


def test_rerun_train_and_predict_are_byte_identical(pipeline, tmp_path):
    cfgf = write_config(tmp_path)
    copy_stage_outputs(pipeline, tmp_path, "instances", "labels", "graphs",
                       "scaler.json")
    for stage in ("train", "predict"):
        assert run(tmp_path, stage, "--config", str(cfgf)) == 0, stage
    assert (tmp_path / "model.json").read_bytes() == \
        (pipeline / "model.json").read_bytes()
    names = sorted(p.name for p in (pipeline / "predictions").iterdir())
    assert names and sorted(
        p.name for p in (tmp_path / "predictions").iterdir()) == names
    for name in names:
        assert (tmp_path / "predictions" / name).read_bytes() == \
            (pipeline / "predictions" / name).read_bytes(), name


def test_custom_preset_with_parameters(tmp_path):
    cfgf = tmp_path / "exp.ini"
    cfgf.write_text(
        "[experiment]\n"
        "problem = sc\n"
        "preset = custom\n"
        'params = {"sets": 30, "elements": 25, "density": 0.2}\n'
        "train = 1\nvalid = 1\ntest = 1\n")
    assert run(tmp_path, "gen", "--config", str(cfgf)) == 0
    inst = read_instance(tmp_path / "instances" / "train"
                         / "sc-custom-train-0000.json")
    assert inst.n_vars == 30
    assert len(inst.constraints) == 25


# ---------------------------------------------------------------------------
# Exit codes


def test_missing_stage_input_exits_2(tmp_path, capsys):
    cfgf = write_config(tmp_path)
    assert run(tmp_path, "gen", "--config", str(cfgf)) == 0
    assert run(tmp_path, "label", "--config", str(cfgf)) == 0
    rc = run(tmp_path, "train", "--config", str(cfgf))
    err = capsys.readouterr().err
    assert rc == 2
    assert "graphs" in err
    assert "featurize" in err


def test_train_requires_valid_labels_exits_2(pipeline, tmp_path, capsys):
    cfgf = write_config(tmp_path)
    for sub in ("instances", "labels", "graphs"):
        shutil.copytree(pipeline / sub, tmp_path / sub)
    shutil.copy(pipeline / "scaler.json", tmp_path / "scaler.json")
    (tmp_path / "labels" / "sc-tiny-valid-0001.json").unlink()
    rc = run(tmp_path, "train", "--config", str(cfgf))
    err = capsys.readouterr().err
    assert rc == 2
    assert "sc-tiny-valid-0001.json" in err
    assert "'label' stage" in err
    assert not (tmp_path / "model.json").exists()


def test_eval_requires_all_run_modes(tmp_path, capsys):
    cfgf = write_config(tmp_path)
    rc = run(tmp_path, "eval", "--config", str(cfgf))
    assert rc == 2


def test_unknown_problem_exits_3(tmp_path, capsys):
    cfgf = tmp_path / "exp.ini"
    cfgf.write_text("[experiment]\nproblem = sudoku\n")
    rc = run(tmp_path, "gen", "--config", str(cfgf))
    assert rc == 3
    assert "sudoku" in capsys.readouterr().err


def test_unknown_config_key_exits_3(tmp_path, capsys):
    cfgf = tmp_path / "exp.ini"
    cfgf.write_text("[experiment]\nflavor = mild\n")
    assert run(tmp_path, "gen", "--config", str(cfgf)) == 3
    assert "flavor" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["epochs = 0", "learning_rate = nan"])
def test_bad_training_hyperparameter_exits_3(tmp_path, capsys, line):
    key = line.split()[0]
    text = "\n".join(line if row.startswith(key) else row
                     for row in SMOKE_CONFIG.splitlines())
    assert line in text
    cfgf = write_config(tmp_path, text)
    assert run(tmp_path, "train", "--config", str(cfgf)) == 3
    assert f"[gcn] {key}" in capsys.readouterr().err


def with_line(section, line, text=SMOKE_CONFIG):
    """``text`` with ``line`` as the first key of ``[section]``."""
    assert f"[{section}]\n" in text
    return text.replace(f"[{section}]\n", f"[{section}]\n{line}\n", 1)


@pytest.mark.parametrize("section, key, value", [
    ("experiment", "train", "0"),
    ("experiment", "valid", "-2"),
    ("experiment", "test", "0"),
    ("experiment", "seed", "-1"),
    ("gcn", "seed", "-1"),
    ("labeler", "time_limit_s", "nan"),
    ("predictor", "time_limit_s", "nan"),
    ("eval", "ref_time_limit_s", "nan"),
    ("predictor", "phi_grid", "0 -1"),
    ("predictor", "eta_grid", "0.9 0"),
    ("predictor", "eta_grid", "nan"),
])
def test_out_of_range_value_exits_3(tmp_path, capsys, section, key, value):
    text = "".join(row for row in SMOKE_CONFIG.splitlines(keepends=True)
                   if not row.startswith(f"{key} ="))
    cfgf = write_config(tmp_path, with_line(section, f"{key} = {value}",
                                            text))
    assert run(tmp_path, "gen", "--config", str(cfgf)) == 3
    assert f"[{section}] {key}" in capsys.readouterr().err
    assert not (tmp_path / "instances").exists()


def test_config_loads_every_key(tmp_path):
    text = SMOKE_CONFIG
    for section, line in (("experiment", 'params = {"sets": 12}'),
                          ("gcn", "attention = off"),
                          ("gcn", "literal_loops = yes"),
                          ("predictor", "node_limit = 7")):
        text = with_line(section, line, text)
    cfg = cli.load_config(write_config(tmp_path, text), tmp_path)
    assert (cfg.problem, cfg.preset, cfg.gen_params) == ("sc", "tiny",
                                                         {"sets": 12})
    assert (cfg.n_train, cfg.n_valid, cfg.n_test, cfg.seed) == (3, 2, 2, 0)
    assert (cfg.labeling.max_iters, cfg.labeling.base_time_limit_s) == (5, 2.0)
    assert (cfg.hyper.hidden_dim, cfg.hyper.output_hidden, cfg.hyper.epochs,
            cfg.hyper.learning_rate, cfg.hyper.attention,
            cfg.hyper.literal_loops) == (8, 8, 5, 0.005, False, True)
    assert (cfg.phi_grid, cfg.eta_grid) == ((0,), (0.9, 1.0))
    assert (cfg.solver.time_limit_s, cfg.solver.node_limit) == (2.0, 7)
    assert (cfg.reference.time_limit_s, cfg.reference.node_limit) == (10.0,
                                                                      None)


def test_absent_config_file_exits_3(tmp_path):
    assert run(tmp_path, "gen", "--config",
               str(tmp_path / "nope.ini")) == 3


@pytest.mark.parametrize("argv, text", [
    (["--scale", "0.4"], SMOKE_CONFIG),
    ([], with_line("eval", "fractions = 0.5 1.0")),
], ids=["scale_flag", "fractions_key"])
def test_removed_settings_exit_3(tmp_path, capsys, argv, text):
    # the split counts come from the config alone, and the curve
    # fractions are fixed
    cfgf = write_config(tmp_path, text)
    assert run(tmp_path, "gen", "--config", str(cfgf), *argv) == 3
    assert ("--scale" if argv else "fractions") in capsys.readouterr().err
    assert not (tmp_path / "instances").exists()


def test_run_requires_mode_exits_3(tmp_path, capsys):
    cfgf = write_config(tmp_path)
    assert run(tmp_path, "run", "--config", str(cfgf)) == 3
    capsys.readouterr()


def test_corrupt_instance_file_exits_4(tmp_path, capsys):
    cfgf = write_config(tmp_path)
    assert run(tmp_path, "gen", "--config", str(cfgf)) == 0
    victim = tmp_path / "instances" / "train" / "sc-tiny-train-0000.json"
    victim.write_text("{broken")
    rc = run(tmp_path, "label", "--config", str(cfgf))
    assert rc == 4
    capsys.readouterr()


def test_featurize_infeasible_root_exits_4_naming_it(tmp_path, capsys):
    cfgf = write_config(tmp_path)
    assert run(tmp_path, "gen", "--config", str(cfgf)) == 0
    bad = MipInstance.from_constraints(
        "bad", "min", [Variable("x0", BINARY, 0.0, 1.0)],
        [Constraint("never", {0: 0.0}, 1.0, math.inf)], {0: 1.0})
    write_instance(bad, tmp_path / "instances" / "train" / "bad.json")
    capsys.readouterr()
    rc = run(tmp_path, "featurize", "--config", str(cfgf))
    err = capsys.readouterr().err
    assert rc == 4
    assert "'bad'" in err and "infeasible" in err
    assert not (tmp_path / "graphs" / "bad.json").exists()


def copy_stage_outputs(src, dst, *names):
    for name in names:
        if (src / name).is_dir():
            shutil.copytree(src / name, dst / name)
        else:
            shutil.copy(src / name, dst / name)


def test_corrupt_scaler_file_exits_4_naming_it(pipeline, tmp_path, capsys):
    cfgf = write_config(tmp_path)
    copy_stage_outputs(pipeline, tmp_path, "instances", "graphs",
                       "model.json")
    (tmp_path / "scaler.json").write_text("{broken")
    assert run(tmp_path, "predict", "--config", str(cfgf)) == 4
    assert "scaler.json: not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("text, problem", [
    ("{broken", "not valid JSON"),
    ('{"phi": 2.7, "eta": 0.9, "mean_primal_gap": 0.0}', "phi"),
    ('{"phi": 0, "eta": 1.5, "mean_primal_gap": 0.0}', "eta"),
    ('{"phi": 0, "eta": 0.9}', "missing keys"),
    ('{"phi": true, "eta": true, "mean_primal_gap": 0.0}', "phi"),
    ('{"phi": 1, "eta": true, "mean_primal_gap": 0.0}', "eta"),
], ids=["json", "fractional_phi", "eta_above_1", "missing_key", "bool_phi",
        "bool_eta"])
def test_bad_tuned_file_exits_4_naming_it(pipeline, tmp_path, capsys, text,
                                          problem):
    cfgf = write_config(tmp_path)
    copy_stage_outputs(pipeline, tmp_path, "instances", "predictions")
    (tmp_path / "tuned.json").write_text(text)
    assert run(tmp_path, "run", "--mode", "approx", "--config",
               str(cfgf)) == 4
    err = capsys.readouterr().err
    assert "tuned.json: " in err
    assert problem in err
    assert not (tmp_path / "results_approx.csv").exists()


@pytest.mark.parametrize("row", ["x_0,abc", "x_0,0.5,0.5", "x_0", "x_0,nan",
                                 "x_0,1.5", "x_0,-0.25", "x_0,inf", "x_1,0.1"])
def test_bad_prediction_row_is_rejected_naming_the_file(tmp_path, row):
    path = tmp_path / "p.csv"
    path.write_text(f"varname,z\nx_1,0.5\n{row}\n")
    with pytest.raises(ValueError, match=r"p\.csv: line 3"):
        cli._read_predictions(path, ["x_0", "x_1"])


def test_bad_prediction_file_fails_run_naming_it(pipeline, tmp_path,
                                                 capsys):
    cfgf = write_config(tmp_path)
    copy_stage_outputs(pipeline, tmp_path, "instances", "predictions",
                       "tuned.json")
    victim = tmp_path / "predictions" / "sc-tiny-test-0000.csv"
    victim.write_text(victim.read_text() + "x_0,1.5\n")
    assert run(tmp_path, "run", "--mode", "exact", "--config",
               str(cfgf)) == 4
    assert "sc-tiny-test-0000.csv: line" in capsys.readouterr().err


@pytest.mark.parametrize("stage, split", [
    (["gridsearch"], "valid"), (["run", "--mode", "approx"], "test"),
    (["eval"], "valid")], ids=["gridsearch", "run", "eval"])
@pytest.mark.parametrize("change", ["missing", "extra"])
def test_prediction_file_must_name_exactly_the_binaries(
        pipeline, tmp_path, capsys, stage, split, change):
    # a stale or foreign predictions file fails each stage that reads it,
    # naming the file and the variable
    cfgf = write_config(tmp_path)
    copy_stage_outputs(pipeline, tmp_path, "instances", "labels",
                       "predictions", "tuned.json",
                       *(f"results_{mode}.csv" for mode in cli.RUN_MODES))
    victim = tmp_path / "predictions" / f"sc-tiny-{split}-0001.csv"
    lines = victim.read_text().splitlines(keepends=True)
    if change == "missing":
        name = lines.pop(2).split(",")[0]
    else:
        name = "ghost"
        lines.append("ghost,0.5\n")
    victim.write_text("".join(lines))
    assert run(tmp_path, *stage, "--config", str(cfgf)) == 4
    err = capsys.readouterr().err
    assert f"sc-tiny-{split}-0001.csv" in err and f"'{name}'" in err


def test_stages_solve_under_the_configured_budgets(pipeline, tmp_path,
                                                   monkeypatch):
    # gridsearch and run solve under [predictor] time_limit_s and
    # node_limit; each reference solve, the one solve without a ball in
    # gridsearch and every solve of eval, under [eval] ref_time_limit_s.
    # With no results_baseline.csv, eval solves every test reference.
    cfgf = write_config(tmp_path, with_line("predictor", "node_limit = 1"))
    copy_stage_outputs(pipeline, tmp_path, "instances", "predictions",
                       "labels")
    seen = []
    real = bnb.solve

    def recording(inst, cfg=None, ball=None):
        seen.append((stage[0], ball is not None, cfg.time_limit_s,
                     cfg.node_limit, cfg.mode))
        return real(inst, cfg, ball)

    monkeypatch.setattr(bnb, "solve", recording)
    stages = [["gridsearch"]] + [["run", "--mode", mode]
                                 for mode in cli.RUN_MODES] + [["eval"]]
    for stage in stages:
        if stage == ["eval"]:
            (tmp_path / "results_baseline.csv").unlink()
        assert run(tmp_path, *stage, "--config", str(cfgf)) == 0, stage
    solver = (2.0, 1, bnb.OPTIMIZE)
    reference = (10.0, None, bnb.OPTIMIZE)
    counts = {}
    for name, in_ball, *budget in seen:
        is_reference = name == "eval" or (name == "gridsearch"
                                          and not in_ball)
        assert tuple(budget) == (reference if is_reference else solver)
        counts[name, is_reference] = counts.get((name, is_reference), 0) + 1
    # 2 valid instances, 2 grid pairs, 2 test instances in each mode
    assert counts == {("gridsearch", True): 2, ("gridsearch", False): 4,
                      ("run", False): 6, ("eval", True): 2}


def _eval_with_recorded_references(
        pipeline, tmp_path, monkeypatch,
                                   feasible=()):
    """Run eval on a copy of the fixture's outputs, with the baseline rows
    of the instances in ``feasible`` rewritten from optimal to feasible;
    return the instances whose reference was solved and the report."""
    cfgf = write_config(tmp_path)
    copy_stage_outputs(pipeline, tmp_path, "instances", "labels",
                       "predictions", *(f"results_{mode}.csv"
                                        for mode in cli.RUN_MODES))
    path = tmp_path / "results_baseline.csv"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(row["status"] == "optimal" for row in rows)
    for row in rows:
        if row["instance"] in feasible:
            row["status"] = "feasible"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    solved = []
    real = cli._reference_objective

    def recording(cfg, inst):
        solved.append(inst.name)
        return real(cfg, inst)

    monkeypatch.setattr(cli, "_reference_objective", recording)
    assert run(tmp_path, "eval", "--config", str(cfgf)) == 0
    return solved, json.loads((tmp_path / "report.json").read_text())


def _report_without_runtimes(report):
    return {key: value for key, value in report.items() if key != "runtimes"}


def test_eval_takes_optimal_baseline_objectives_without_solving(
        pipeline, tmp_path, monkeypatch):
    # every baseline row is optimal, so no reference solve runs, and each
    # reference is the objective a reference solve gives
    solved, report = _eval_with_recorded_references(pipeline, tmp_path,
                                                    monkeypatch)
    assert solved == []
    cfg = cli.load_config(pipeline / "exp.ini", pipeline)
    for path in sorted((pipeline / "instances" / "test").glob("*.json")):
        inst = read_instance(path)
        want = cli._fmt(cli._reference_objective(cfg, inst))
        refs = {row["reference"] for row in report["rows"]
                if row["instance"] == inst.name}
        assert refs == {want}
    assert _report_without_runtimes(report) == _report_without_runtimes(
        json.loads((pipeline / "report.json").read_text()))


def test_eval_solves_the_reference_of_a_feasible_baseline_row(
        pipeline, tmp_path, monkeypatch):
    name = read_instance(sorted(
        (pipeline / "instances" / "test").glob("*.json"))[0]).name
    solved, report = _eval_with_recorded_references(
        pipeline, tmp_path, monkeypatch, feasible={name})
    assert solved == [name]
    baseline = [row for row in report["rows"]
                if row["mode"] == "baseline" and row["instance"] == name]
    assert [row["status"] for row in baseline] == ["feasible"]
    assert baseline[0]["reference"] == baseline[0]["objective"]
