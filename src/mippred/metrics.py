"""Evaluation metrics for predictions and solver runs.

Average precision scores a ranking of binary predictions, the primal
gap compares an incumbent against a reference objective, the optimality
gap compares an incumbent against its proven bound, and the accuracy
curve reports how often rounded predictions match labels when only the
most confident fraction of variables is kept.
"""

from __future__ import annotations

import math

import numpy as np

OPT_GAP_CAP = 1e6


def average_precision(scores, labels) -> float:
    """Sum of precision at each positive rank over the positive count.

    Scores are ranked descending with ties broken by index.
    """
    scores = np.asarray(scores, float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have equal length")
    n_pos = int(np.sum(labels == 1))
    if n_pos == 0:
        raise ValueError("average precision undefined without positives")
    order = np.lexsort((np.arange(len(scores)), -scores))
    ranked = labels[order] == 1
    hits = np.cumsum(ranked)
    ranks = np.arange(1, len(scores) + 1)
    return float(np.sum(hits[ranked] / ranks[ranked]) / n_pos)


def primal_gap(obj: float, best_obj: float) -> float:
    """Relative objective distance in percent, guarded near zero."""
    return 100.0 * abs(obj - best_obj) / (max(abs(obj), abs(best_obj)) + 1e-10)


def optimality_gap(obj: float, lb: float) -> float:
    """Incumbent-to-bound distance in percent, capped at 1e6 for display."""
    return min(100.0 * abs(obj - lb) / (abs(obj) + 1e-10), OPT_GAP_CAP)


def accuracy_at_fraction(z, labels, fractions):
    """[(fraction, accuracy)] keeping the most confident variables.

    For each fraction f the ceil(f*n) variables with the largest
    max(z_j, 1-z_j) are kept (ties by index) and the reported accuracy
    is the share whose rounded prediction equals the label.
    """
    z = np.asarray(z, float)
    labels = np.asarray(labels)
    if z.shape != labels.shape:
        raise ValueError("predictions and labels must have equal length")
    n = len(z)
    if n == 0:
        raise ValueError("accuracy undefined on an empty label set")
    confidence = np.maximum(z, 1.0 - z)
    order = np.lexsort((np.arange(n), -confidence))
    rounded = (z >= 0.5).astype(labels.dtype)
    correct = rounded[order] == labels[order]
    out = []
    for f in fractions:
        if not 0.0 < f <= 1.0:
            raise ValueError(f"fraction {f} outside (0, 1]")
        k = math.ceil(f * n)
        out.append((float(f), float(np.mean(correct[:k]))))
    return out

