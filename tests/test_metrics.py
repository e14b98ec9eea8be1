"""Evaluation metrics against hand values and a brute-force AP oracle."""

import numpy as np
import pytest

from mippred import metrics
from mippred.core import write_csv
from mippred.metrics import (accuracy_at_fraction, average_precision,
                             optimality_gap, primal_gap)
from oracles import average_precision_reference


# ---------------------------------------------------------------------------
# Average precision


def test_ap_hand_example():
    ap = average_precision([0.9, 0.8, 0.3], [1, 0, 1])
    assert ap == pytest.approx(0.5 * 1.0 + 0.5 * (2.0 / 3.0), abs=1e-12)
    assert ap == pytest.approx(5.0 / 6.0, abs=1e-12)


def test_ap_perfect_ranking():
    assert average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert average_precision([0.3], [1]) == 1.0


def test_ap_matches_reference_on_random_vectors():
    rng = np.random.default_rng(0)
    for trial in range(300):
        n = int(rng.integers(1, 40))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[int(rng.integers(n))] = 1
        scores = np.round(rng.uniform(size=n), 2)  # force some ties
        got = average_precision(scores, labels)
        want = average_precision_reference(scores, labels)
        assert got == pytest.approx(want, abs=1e-12)
        assert 0.0 <= got <= 1.0


def test_ap_random_scores_approach_prevalence():
    # a random ranking scores the prevalence plus an O(log n / n) bias,
    # so the vector must be long enough for the 0.05 window
    rng = np.random.default_rng(1)
    n, prevalence = 200, 0.3
    labels = np.zeros(n, dtype=int)
    labels[: int(n * prevalence)] = 1
    aps = []
    for trial in range(1000):
        rng.shuffle(labels)
        aps.append(average_precision(rng.uniform(size=n), labels))
    assert np.mean(aps) == pytest.approx(prevalence, abs=0.05)


def test_ap_monotone_transform_invariance():
    rng = np.random.default_rng(2)
    for trial in range(20):
        n = int(rng.integers(2, 30))
        scores = rng.uniform(size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[0] = 1
        base = average_precision(scores, labels)
        assert average_precision(3.0 * scores + 2.0, labels) == \
            pytest.approx(base, abs=1e-12)
        assert average_precision(np.exp(scores), labels) == \
            pytest.approx(base, abs=1e-12)


def test_ap_requires_positives_and_equal_lengths():
    with pytest.raises(ValueError, match="positives"):
        average_precision([0.5, 0.5], [0, 0])
    with pytest.raises(ValueError, match="length"):
        average_precision([0.5], [1, 0])


# ---------------------------------------------------------------------------
# Gaps


def test_primal_gap_values():
    assert primal_gap(100.0, 100.0) == 0.0
    assert primal_gap(110.0, 100.0) == pytest.approx(1000.0 / 110.0,
                                                     abs=1e-9)
    assert primal_gap(0.0, 0.0) == 0.0


def test_primal_gap_is_symmetric_and_scale_invariant():
    rng = np.random.default_rng(3)
    for trial in range(50):
        a, b = rng.normal(size=2) * 100.0
        g = primal_gap(a, b)
        assert g >= 0.0
        assert g == pytest.approx(primal_gap(b, a), abs=1e-12)
        assert primal_gap(7.0 * a, 7.0 * b) == pytest.approx(g, rel=1e-6)


def test_optimality_gap_values():
    assert optimality_gap(100.0, 90.0) == pytest.approx(10.0, abs=1e-9)
    assert optimality_gap(5.0, 5.0) == 0.0
    assert optimality_gap(0.0, -1.0) == metrics.OPT_GAP_CAP


def test_gap_zero_iff_equal():
    rng = np.random.default_rng(4)
    for trial in range(30):
        v = float(rng.normal() * 10.0)
        assert primal_gap(v, v) == 0.0
        assert optimality_gap(v, v) == 0.0


# ---------------------------------------------------------------------------
# Accuracy curve


def test_accuracy_hand_example():
    samples = accuracy_at_fraction([0.9, 0.6, 0.1, 0.45], [1, 0, 0, 1],
                                   [0.5])
    assert samples == [(0.5, 1.0)]


def test_accuracy_perfect_predictor():
    z = np.array([0.99, 0.01, 0.93, 0.08])
    labels = np.array([1, 0, 1, 0])
    for f, acc in accuracy_at_fraction(z, labels, [0.25, 0.5, 0.75, 1.0]):
        assert acc == 1.0


def test_accuracy_full_fraction_is_plain_accuracy():
    rng = np.random.default_rng(5)
    for trial in range(20):
        n = int(rng.integers(1, 30))
        z = rng.uniform(size=n)
        labels = rng.integers(0, 2, size=n)
        [(_, acc)] = accuracy_at_fraction(z, labels, [1.0])
        plain = float(np.mean((z >= 0.5).astype(int) == labels))
        assert acc == pytest.approx(plain, abs=1e-12)


def test_accuracy_keeps_ceil_of_fraction():
    z = np.array([0.9, 0.8, 0.7])
    labels = np.array([1, 1, 0])
    samples = accuracy_at_fraction(z, labels, [0.4])  # ceil(1.2) = 2 kept
    assert samples == [(0.4, 1.0)]


def test_accuracy_rejects_bad_inputs():
    with pytest.raises(ValueError, match="empty"):
        accuracy_at_fraction([], [], [1.0])
    with pytest.raises(ValueError, match="fraction"):
        accuracy_at_fraction([0.5], [1], [0.0])
    with pytest.raises(ValueError, match="length"):
        accuracy_at_fraction([0.5, 0.5], [1], [1.0])


# ---------------------------------------------------------------------------
# Constant scores


def test_baseline_ap_matches_oracle():
    rng = np.random.default_rng(6)
    for trial in range(20):
        n = int(rng.integers(2, 25))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[0] = 1
        scores = np.full(n, np.mean(labels == 1))  # all tied: by index
        assert average_precision(scores, labels) == pytest.approx(
            average_precision_reference(scores, labels), abs=1e-12)


# ---------------------------------------------------------------------------
# Report files: eval writes the rows and the curves through core.write_csv


def test_report_csv_layout(tmp_path):
    path = tmp_path / "report.csv"
    write_csv(path, ("instance", "ap"), [("a", 0.5), ("b", 1.0)])
    lines = path.read_text().splitlines()
    assert lines[0] == "instance,ap"
    assert lines[1:] == ["a,0.5", "b,1.0"]


def test_curve_csv_layout(tmp_path):
    path = tmp_path / "curve.csv"
    curve = accuracy_at_fraction([0.9, 0.2, 0.6, 0.5], [1, 0, 0, 1],
                                 (0.25, 1.0))
    write_csv(path, ("fraction", "accuracy"), curve)
    lines = path.read_text().splitlines()
    assert lines == ["fraction,accuracy", "0.25,1.0", "1.0,0.75"]
