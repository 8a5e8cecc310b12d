"""Evaluation metrics: AUC via rank statistics and logloss."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MetricError(ValueError):
    pass


@dataclass
class EvalResult:
    auc: float
    logloss: float
    n_instances: int


def auc(scores, labels):
    """Probability a random positive outranks a random negative, ties 0.5.

    Computed from average ranks in O(N log N); exactly equals the O(N^2)
    all-pairs count.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC undefined: need both a positive and a negative label")
    order = np.argsort(scores, kind="stable")
    _, first, counts = np.unique(scores[order], return_index=True, return_counts=True)
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat(first + (counts + 1) / 2.0, counts)  # 1-based mean rank of each tie group
    rank_sum_pos = ranks[labels == 1].sum()
    return float((rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def logloss(scores, labels):
    """Binary cross-entropy; the training loss's clipped formula, evaluated
    in the same order so the two agree bit for bit."""
    y = np.asarray(labels, dtype=np.float64)
    if y.size == 0:
        raise MetricError("logloss undefined: no instances")
    p = np.clip(np.asarray(scores, dtype=np.float64), 1e-7, 1.0 - 1e-7)
    return float((y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).mean() * -1.0)


def evaluate_scores(scores, labels):
    return EvalResult(auc=auc(scores, labels), logloss=logloss(scores, labels), n_instances=len(labels))
