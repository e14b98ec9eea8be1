"""Pipeline commands: stage chaining, artifacts, exit codes, determinism."""

import csv
import json
import shutil

import pytest

from mippred import cli
from mippred.core import read_instance

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
fractions = 0.5 1.0
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
    assert lines[0] == "epoch,loss"
    assert len(lines) == 6  # header + 5 epochs


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


def test_scale_flag_shrinks_counts(tmp_path):
    cfgf = write_config(tmp_path)
    assert run(tmp_path, "gen", "--config", str(cfgf), "--scale", "0.4") == 0
    # 3/2/2 at scale 0.4 -> round to 1/1/1, floored at one per split
    for split in ("train", "valid", "test"):
        assert len(list((tmp_path / "instances" / split).glob("*.json"))) == 1


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


def test_absent_config_file_exits_3(tmp_path):
    assert run(tmp_path, "gen", "--config",
               str(tmp_path / "nope.ini")) == 3


def test_bad_scale_exits_3(tmp_path):
    cfgf = write_config(tmp_path)
    assert run(tmp_path, "gen", "--config", str(cfgf), "--scale", "0") == 3


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
