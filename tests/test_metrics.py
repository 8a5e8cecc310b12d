import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delta_ctr import metrics, model
from delta_ctr.metrics import MetricError
from delta_ctr.numerics import Rng, Tensor


def auc_bruteforce(scores, labels):
    """O(N^2) all-pairs oracle: ties count 0.5."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAuc:
    def test_perfect_ranking(self):
        assert metrics.auc([0.9, 0.1], [1, 0]) == 1.0

    def test_all_ties(self):
        assert metrics.auc([0.5] * 10, [1, 0] * 5) == 0.5

    def test_matches_bruteforce_random(self):
        rng = Rng(1)
        for seed in range(20):
            r = Rng(seed)
            n = 50
            scores = np.round(r.random((n,)), 2)  # rounding forces ties
            labels = r.integers(0, 2, (n,))
            if labels.sum() in (0, n):
                continue
            assert metrics.auc(scores, labels) == pytest.approx(
                auc_bruteforce(scores, labels), abs=1e-12
            )

    def test_single_class_error(self):
        with pytest.raises(MetricError):
            metrics.auc([0.1, 0.9], [1, 1])

    def test_monotone_transform_invariance(self):
        r = Rng(5)
        scores = r.random((60,))
        labels = r.integers(0, 2, (60,))
        a = metrics.auc(scores, labels)
        assert metrics.auc(np.exp(3 * scores), labels) == pytest.approx(a, abs=1e-12)
        assert metrics.auc(2 * scores - 7, labels) == pytest.approx(a, abs=1e-12)

    def test_flip_labels_complement(self):
        r = Rng(6)
        scores = np.round(r.random((40,)), 1)
        labels = r.integers(0, 2, (40,))
        a = metrics.auc(scores, labels)
        b = metrics.auc(scores, 1 - labels)
        assert a + b == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 1)), min_size=2, max_size=200
    )
)
def test_rank_auc_equals_bruteforce(data):
    """Property: rank-based AUC equals the all-pairs count exactly,
    including tied scores, for all inputs up to N=200."""
    scores = np.array([s for s, _ in data], dtype=float) / 20.0
    labels = np.array([y for _, y in data])
    if labels.sum() in (0, len(labels)):
        return
    assert metrics.auc(scores, labels) == pytest.approx(
        auc_bruteforce(scores, labels), abs=1e-12
    )


class TestLogloss:
    def test_matches_direct_summation(self):
        r = Rng(7)
        p = r.random((30,)) * 0.9 + 0.05
        y = r.integers(0, 2, (30,))
        expected = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
        assert metrics.logloss(p, y) == pytest.approx(expected, abs=1e-12)

    def test_nonnegative(self):
        assert metrics.logloss([0.5, 0.5], [1, 0]) >= 0

    def test_bit_equal_to_training_loss(self):
        r = Rng(8)
        edge = np.array([0.0, 1.0, 1e-9, 1e-7, 1e-7 * (1 + 1e-9), 1.0 - 1e-7, 1.0 - 1e-9, 0.5])
        for n in (1, 7, 64, 1000):
            # sigmoid outputs, like the model's: unlike uniform draws, 1 - s is not exact
            s = np.concatenate([edge, 1.0 / (1.0 + np.exp(-3.0 * r.normal(size=(n,))))])
            y = r.integers(0, 2, (len(s),))
            want = model.bce_loss(Tensor(s), y).value
            assert metrics.logloss(s, y) == float(want)
            assert metrics.logloss(s, y.astype(np.uint8)) == float(want)

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            metrics.logloss([], [])


def test_evaluate_scores_bundle():
    res = metrics.evaluate_scores([0.9, 0.2, 0.8, 0.1], [1, 0, 1, 0])
    assert res.auc == 1.0
    assert res.n_instances == 4
    assert res.logloss > 0
