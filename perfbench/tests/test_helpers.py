"""Unit tests for the benchmark's pure helpers.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def test_self_time_subtracts_children():
    spans = [Span(0, "round", 0.0, 10.0, None),
             Span(1, "a.x", 1.0, 4.0, 0),
             Span(2, "b.y", 2.0, 3.0, 1),
             Span(3, "a.x", 5.0, 9.0, 0)]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})
    assert sum(selfs.values()) == pytest.approx(spans[0].duration)


def test_self_time_counts_overlapping_children_once():
    spans = [Span(0, "p", 0.0, 10.0, None),
             Span(1, "c", 1.0, 6.0, 0),
             Span(2, "c", 4.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_nests_and_restores_patched_attributes():
    class Owner:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Owner.inner(x) * 2

    original = Owner.inner
    tracer = tracing.Tracer()
    targets = [(Owner, "outer", "m.outer", None),
               (Owner, "inner", "m.inner", lambda a, k, out: {"out": out})]
    with tracing.patched(tracer, targets), tracer.span("round"):
        assert Owner.outer(1) == 4
    assert Owner.inner is original
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("round", None), ("m.outer", 0), ("m.inner", 1)]
    assert tracer.spans[2].attrs == {"out": 2}
    assert [s.id for s in tracing.subtree(tracer.spans, 1)] == [1, 2]


def test_median_of_items_takes_each_items_median_first():
    rounds = [[1.0, 10.0, 5.0], [3.0, 30.0, 5.0], [2.0, 20.0, 500.0]]
    # per-item medians 2, 20, 5 -> median 5
    assert run.median_of_items(rounds) == 5.0
    assert run.median_of_items([[4.0, 1.0]]) == 2.5


def test_sum_of_medians_ignores_one_slow_round():
    rounds = [[1.0, 2.0], [1.2, 2.2], [9.0, 9.0]]
    assert run.sum_of_medians(rounds) == pytest.approx(3.4)


def test_rescaled_divides_out_the_probe():
    ref = speed.REFERENCE_S
    parts = [(2.0, ref), (3.0, 2 * ref), (1.0, 0.5 * ref)]
    assert speed.rescaled(parts) == pytest.approx([2.0, 1.5, 2.0])


def test_part_timer_brackets_each_part_with_the_probe():
    class FakeProbe:
        def __init__(self):
            self.calls = 0

        def seconds(self):
            self.calls += 1
            return 0.01 * self.calls

    timer = speed.PartTimer(FakeProbe())
    for _ in range(2):
        with timer.part():
            pass
    # probes 0.01 | part | 0.02 | part | 0.03
    assert [p for _, p in timer.parts] == pytest.approx([0.015, 0.025])


def test_primal_gap_follows_berthold():
    assert reference.primal_gap_pct(18.0, 18.0) == 0.0
    assert reference.primal_gap_pct(20.0, 18.0) == pytest.approx(10.0)
    assert reference.primal_gap_pct(900.0, 1000.0) == pytest.approx(10.0)
    assert reference.primal_gap_pct(None, 5.0) == 100.0
    assert reference.primal_gap_pct(-1.0, 2.0) == 100.0
    assert reference.primal_gap_pct(18.0 + 1e-9, 18.0) == 0.0


def test_mean_gaps_groups_by_mode():
    rows = [("baseline", 0.0), ("approx", 10.0), ("baseline", 4.0),
            ("approx", 100.0)]
    assert reference.mean_gaps(rows) == {"baseline": 2.0, "approx": 55.0}


def test_count_failures():
    items = [("a", []), ("b", ["bad"]), ("c", ["x", "y"]), ("d", [])]
    attempted, failed, messages = reference.count_failures(items)
    assert (attempted, failed) == (4, 2)
    assert messages == ["b: bad", "c: x; y"]


@pytest.mark.parametrize("sense,approx,status,obj,bound,opt,expect", [
    ("min", False, "optimal", 18.0, 18.0, 18.0, 0),
    ("min", False, "optimal", 19.0, 19.0, 18.0, 2),   # wrong optimum, bad bound
    ("min", False, "feasible", 19.0, 17.5, 18.0, 0),
    ("min", False, "infeasible", None, np.inf, 18.0, 1),
    ("min", True, "optimal", 19.0, 19.0, 18.0, 0),    # cut bound is not global
    ("min", True, "optimal", 17.0, 17.0, 18.0, 1),    # approx beat the optimum
    ("min", True, "infeasible", None, np.inf, 18.0, 0),
    ("max", False, "optimal", 1000.0, 1000.0, 1000.0, 0),
    ("max", False, "feasible", 990.0, 995.0, 1000.0, 1),  # upper bound too low
    ("max", True, "optimal", 1001.0, 1001.0, 1000.0, 1),
    ("max", False, "mystery", 1000.0, 1000.0, 1000.0, 1),
])
def test_check_solve(sense, approx, status, obj, bound, opt, expect):
    problems = reference.check_solve(sense, approx, status, obj, bound, opt)
    assert len(problems) == expect, problems


def test_check_solve_flags_time_limited_statuses():
    assert reference.check_solve("max", False, "feasible", 990.0, 1005.0,
                                 1000.0, time_limited=True)
    assert not reference.check_solve("max", False, "optimal", 1000.0, 1000.0,
                                     1000.0, time_limited=True)


def test_synthetic_predictions_flip_a_share_unconfidently():
    x = np.array([1.0, 0.0] * 10)
    z = workloads.synthetic_predictions(x, np.random.default_rng(0), 0.1)
    wrong = (z >= 0.5) != (x > 0.5)
    assert wrong.sum() == 2
    assert np.all(np.minimum(z, 1 - z)[wrong] > np.minimum(z, 1 - z)[~wrong].max())


def test_item_seed_is_stable_and_distinct():
    assert workloads.item_seed(0, 1, 2) == workloads.item_seed(0, 1, 2)
    assert len({workloads.item_seed(s, 1, i) for s in range(3) for i in range(3)}) == 9


def test_declared_metrics_match_what_the_runs_report():
    end_to_end, per_layer = run.declared_metrics()
    assert [n for n, _ in end_to_end] == ["wall_ref_s", "setup_s", "peak_rss_mb"]
    names = {n for n, _ in per_layer}
    assert names >= {f"cli.{s}_s" for s in tracing.STAGES}
    assert names >= {f"primal_gap_pct.{m}" for m in tracing.RUN_MODES}
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
