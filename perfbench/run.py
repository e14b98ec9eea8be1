"""Benchmark of the mippred pipeline: one workload per run.

Usage, from the repository root:

    python3 perfbench/run.py --workload solve-sc --seed 0 --seconds 24 --trace 0

Set-up (a fresh-interpreter import of ``mippred.cli``, instance
generation, HiGHS references, predictions) runs several times and is
reported as the median ``setup_s``, at reference speed like
``wall_ref_s`` below.  The workload's fixed work (a
round) then repeats at least three times and while another round still
fits in ``--seconds``.  Each part of a round (an instance or a CLI
stage) is timed with the speed probe of ``speed.py`` around it;
``wall_s`` adds up each part's median seconds across rounds, so a slow
spell of the machine during one round does not move it, and
``wall_ref_s`` does the same with the seconds rescaled to reference
speed.  With ``--trace 1`` one more round runs with every public layer
callable wrapped, and the per-layer figures are reported instead of the
end-to-end ones.  Every solver result is checked against HiGHS; the
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# one BLAS thread: the runs are single-process on a small shared machine,
# and a second BLAS thread only adds contention noise (set before numpy)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
MIN_ROUNDS = 3
DEFAULT_SEED = 0
HELD_OUT_SEED = 1009

clock = time.perf_counter


def median_of_items(rounds: list[list[float]]) -> float:
    """Median over items of each item's median over rounds."""
    return statistics.median(statistics.median(per_item)
                             for per_item in zip(*rounds))


def sum_of_medians(rounds: list[list[float]]) -> float:
    """Sum over parts of each part's median over rounds."""
    return sum(statistics.median(per_part) for per_part in zip(*rounds))


def declared_metrics():
    """(end-to-end, per-layer) lists of (name, unit) from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def import_seconds() -> float:
    """``import mippred.cli`` in a fresh interpreter, timed inside it."""
    code = ("import time; t = time.perf_counter(); import mippred.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.split()[-1])


def run(args, workdir: Path) -> tuple[dict, dict, list]:
    """Measure one workload; (JSON result, full record, spans)."""
    from mippred import bnb, cli, gcn, generators, labeler, predictor
    from mippred import simplex, trigraph
    import reference
    import speed
    import tracing
    import workloads

    mods = {"simplex": simplex, "bnb": bnb, "cli": cli, "gcn": gcn,
            "generators": generators, "labeler": labeler,
            "predictor": predictor, "trigraph": trigraph}
    workload = workloads.WORKLOADS[args.workload]()
    tracer = tracing.Tracer()
    targets = tracing.program_targets(mods)

    probe = speed.SpeedProbe()
    setup_parts, import_s, setup_id = [], [], None
    for rep in range(SETUP_REPEATS):
        timer = speed.PartTimer(probe)
        with timer.part():
            imp = import_seconds()
            if args.trace and rep == 0:
                with tracing.patched(tracer, targets), tracer.span("setup") as sp:
                    state = workload.setup(args.seed, workdir)
                setup_id = sp.id
            else:
                state = workload.setup(args.seed, workdir)
        import_s.append(imp)
        setup_parts.extend(timer.parts)

    rounds, parts = [], []
    started = clock()
    while True:
        t = clock()
        timer = speed.PartTimer(probe)
        raw = workload.work(state, timer)
        wall = clock() - t
        rounds.append((wall, workload.judge(state, raw)))
        parts.append(timer.parts)
        if len(rounds) >= MIN_ROUNDS and clock() - started + wall > args.seconds:
            break

    traced = None
    if args.trace:
        timer = speed.PartTimer(probe)
        with tracing.patched(tracer, targets), tracer.span("round") as sp:
            raw = workload.work(state, timer)
        traced = (sp.id, workload.judge(state, raw))

    checks = []
    first = rounds[0][1]
    for k, (_, judged) in enumerate(rounds):
        checks.extend(judged.checks)
        if k:
            checks.append((f"round {k + 1} deterministic outputs",
                           [] if judged.fingerprint == first.fingerprint
                           else ["differ from round 1"]))
    if traced:
        checks.extend(traced[1].checks)
        checks.append(("traced round deterministic outputs",
                       [] if traced[1].fingerprint == first.fingerprint
                       else ["differ from the untraced rounds"]))
    attempted, failed, failures = reference.count_failures(checks)

    walls = [w for w, _ in rounds]
    values = {
        "wall_s": sum_of_medians([[s for s, _ in p] for p in parts]),
        "wall_ref_s": sum_of_medians([speed.rescaled(p) for p in parts]),
        "item_s.p50": median_of_items([j.item_s for _, j in rounds]),
        "setup_s": statistics.median(speed.rescaled(setup_parts)),
        "setup_raw_s": statistics.median(s for s, _ in setup_parts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cli.import_s": statistics.median(import_s),
        "failed_frac": failed / attempted,
    }
    for mode in tracing.RUN_MODES:
        values[f"solve_s.{mode}"] = statistics.median(
            j.solve_s.get(mode, 0.0) for _, j in rounds)
    values.update(first.quality)
    if traced:
        values.update(tracing.layer_metrics(
            tracer.spans, traced[0], setup_id,
            traced[1].solve_s.get("baseline", 0.0)))
        values["trace.wall_s"] = sum(s for s, _ in timer.parts)
        values["trace.overhead_s"] = values["trace.wall_s"] - values["wall_s"]

    end_to_end, per_layer = declared_metrics()
    declared = per_layer if args.trace else end_to_end
    # a layer or quality figure the workload does not exercise reads 0
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in declared}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "rounds": len(rounds), "round_wall_s": walls, "parts": parts,
        "setup_parts": setup_parts,
        "import_s": import_s, "values": values, "failures": failures,
        "result": result,
        "notes": {
            "simplex pivots": "LpSolution.iterations counts only the last "
                              "attempt after a fallback",
            "predictor.exact_over_baseline": "base: baseline solve seconds "
                                             "of the traced round",
        },
    }
    spans = [[s.id, s.name, s.start, s.end, s.parent, s.attrs]
             for s in tracer.spans]
    return result, record, spans


def _print_report(record: dict) -> None:
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"rounds {record['rounds']}  trace {record['trace']}")
    print("environment " + json.dumps(env, sort_keys=True))
    units = dict(sum(declared_metrics(), []))
    for name, value in sorted(record["values"].items()):
        print(f"  {name:<32} {value:>14.6g} {units.get(name, '')}")
    res = record["result"]
    print(f"  attempted {res['attempted']}  failed {res['failed']}  "
          f"failed_frac {res['failed'] / res['attempted']:.4f}")
    for line in record["failures"]:
        print(f"  FAILED {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve-sc", "infer-mix", "pipeline-mk"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"held-out seed for checking claims: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=24.0,
                        help=f"measuring time; at least {MIN_ROUNDS} rounds run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mippred" / "__init__.py").is_file():
        print(f"error: no mippred sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        result, record, spans = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if spans:
        # one [id, name, start, end, parent, attrs] list per span
        (OUT / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n")
    _print_report(record)
    print(f"record written to {OUT / (stem + '.json')}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
