"""Finite-difference verification of every analytic backward pass.

Each check builds a small scalar-valued graph, computes reverse-mode
gradients, and compares against central differences (the independent
oracle). Used by the `gradcheck` CLI command and the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from . import numerics as nm
from .numerics import Rng, Tensor

DEFAULT_TOL = 1e-4


@dataclass
class CheckResult:
    name: str
    worst_rel_err: float
    passed: bool


def _check(name, f, params, tol, results, eps=1e-5):
    analytic = nm.grad_of(f, params)
    numeric = nm.finite_difference_grad(f, params, eps=eps)
    err = nm.max_relative_error(analytic, numeric)
    results.append(CheckResult(name=name, worst_rel_err=err, passed=err < tol))


def check_primitives(tol=DEFAULT_TOL, seed=0):
    """One finite-difference check per registered primitive."""
    rng = Rng(seed).split("gradcheck")
    results = []
    a = Tensor(rng.normal(size=(3, 4)))
    b = Tensor(rng.normal(size=(4, 2)))
    c = Tensor(rng.normal(size=(3, 2)))
    _check("matmul", lambda: nm.tsum(nm.mul(nm.matmul(a, b), c.value)), [a, b], tol, results)
    _check("add", lambda: nm.tsum(nm.mul(nm.add(a, a), rng_fixed_weights(a.shape))), [a], tol, results)
    _check("sub", lambda: nm.tsum(nm.mul(nm.sub(a, nm.mul(a, a)), rng_fixed_weights(a.shape))), [a], tol, results)
    _check("mul", lambda: nm.tsum(nm.mul(a, nm.mul(a, a))), [a], tol, results)
    _check("scale", lambda: nm.tsum(nm.mul(nm.scale(a, -0.5), rng_fixed_weights(a.shape))), [a], tol, results)
    # keep relu inputs away from the kink at 0
    r = Tensor(np.where(np.abs(rng.normal(size=(3, 4))) < 0.1, 0.5, rng.normal(size=(3, 4))))
    _check("relu", lambda: nm.tsum(nm.mul(nm.relu(r), rng_fixed_weights(r.shape))), [r], tol, results)
    _check("sigmoid", lambda: nm.tsum(nm.mul(nm.sigmoid(a), rng_fixed_weights(a.shape))), [a], tol, results)
    _check(
        "softmax_rows",
        lambda: nm.tsum(nm.mul(nm.softmax_rows(a), rng_fixed_weights(a.shape))),
        [a],
        tol,
        results,
    )
    _check(
        "dropout",
        lambda: nm.tsum(nm.dropout(a, 0.4, Rng(7).split("drop"), training=True)),
        [a],
        tol,
        results,
    )
    _check("reshape", lambda: nm.tsum(nm.mul(nm.reshape(a, (2, 6)), np.arange(12.0).reshape(2, 6))), [a], tol, results)
    _check("concat", lambda: nm.tsum(nm.mul(nm.concat([a, nm.mul(a, a)], axis=-1), 0.3)), [a], tol, results)
    _check("tsum", lambda: nm.tsum(nm.mul(nm.tsum(a, axis=0), nm.tsum(a, axis=0))), [a], tol, results)
    _check("tmean", lambda: nm.tmean(nm.mul(a, a)), [a], tol, results)
    pos = Tensor(np.abs(rng.normal(size=(3, 4))) + 0.5)
    _check("log", lambda: nm.tsum(nm.log(pos)), [pos], tol, results)
    _check("clip", lambda: nm.tsum(nm.mul(nm.clip(a, -10.0, 10.0), 0.7)), [a], tol, results)
    table = Tensor(rng.normal(size=(6, 3)))
    idx = np.array([[0, 2], [5, 2]])
    _check("gather", lambda: nm.tsum(nm.mul(nm.gather(table, idx), np.ones((2, 2, 3)) * 0.5)), [table], tol, results)
    _check("transpose_last", lambda: nm.tsum(nm.mul(nm.transpose_last(a), b.value[:, :1] @ np.ones((1, 3)))), [a], tol, results)
    w = Tensor(nm.softmax_rows(Tensor(rng.normal(size=(4, 4)) * 2)).value)
    _check("topk_truncate", lambda: nm.tsum(nm.mul(nm.topk_truncate(w, 2)[0], np.arange(16.0).reshape(4, 4))), [w], tol, results)
    # the bias moves the one preactivation near the relu kink (0.014) to 0.51
    bias = Tensor([0.5, 0.0])
    _check("dense", lambda: nm.tsum(nm.mul(nm.dense(a, b, bias), c.value)), [a, b, bias], tol, results)
    # the same mask each call: every call draws from a fresh Rng(7) stream
    _check(
        "dense/dropout",
        lambda: nm.tsum(nm.mul(nm.dense(a, b, bias, 0.4, Rng(7).split("drop")), c.value)),
        [a, b, bias],
        tol,
        results,
    )
    emb = Tensor(rng.normal(size=(2, 4, 3)))
    heads = [Tensor(rng.normal(size=(3, 3))) for _ in range(3)]
    weights = rng_fixed_weights((2, 12))
    for label, k, scope in (("ctm_head", 2, "row"), ("ctm_head/global", 1, "global"), ("ctm_head/k=n", 4, "row")):
        _check(label, lambda k=k, scope=scope: nm.tsum(nm.mul(nm.ctm_head(emb, *heads, k, scope)[0], weights)), [emb] + heads, tol, results)
    # a batch one instance longer than the head's slice: the weight gradients
    # sum over two slices. emb is differenced at the boundary only, on the
    # last 3 instances (2 in the first slice, 1 in the second); differencing
    # all of its entries would take minutes
    wide, b2 = rng.split("slices"), nm.head_slice(3) + 1
    emb2, heads2 = wide.normal(size=(b2, 3, 2)), [Tensor(wide.normal(size=(2, 2))) for _ in range(3)]
    fixed, edge = Tensor(emb2[:-3], requires_grad=False), Tensor(emb2[-3:])
    weights2 = rng_fixed_weights((b2, 6))
    _check(
        "ctm_head/2 slices",
        lambda: nm.tsum(nm.mul(nm.ctm_head(nm.concat([fixed, edge], axis=0), *heads2, 2)[0], weights2)),
        [edge] + heads2,
        tol,
        results,
    )
    gate = Tensor(rng.normal(size=(4,)))
    _check("gate_mix", lambda: nm.tsum(nm.mul(nm.gate_mix(a, nm.mul(a, a), gate), rng_fixed_weights(a.shape))), [a, gate], tol, results)
    probs = Tensor(rng.random((6,)) * 0.8 + 0.1)
    _check("bce", lambda: nm.bce(probs, [1, 0, 0, 1, 1, 0]), [probs], tol, results)
    x0, cross_w, cross_b = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(4,))), Tensor(rng.normal(size=(4,)))
    _check("cross", lambda: nm.tsum(nm.mul(nm.cross(x0, a, cross_w, cross_b), rng_fixed_weights(a.shape))), [x0, a, cross_w, cross_b], tol, results)
    return results


def rng_fixed_weights(shape):
    return (np.arange(int(np.prod(shape))).reshape(shape) + 1.0) / np.prod(shape)


def check_full_model(tol=DEFAULT_TOL, seed=2, variant="full"):
    """Finite differences on the whole network of one variant, per
    parameter, named model/<variant>/<tensor>.

    Tiny configuration: n=4 fields, d=3, towers [8]/[8], cross depth 2,
    dropout disabled (its mask is not differentiable state).
    """
    cfg = model_mod.ModelConfig(
        n_fields=4,
        embed_dim=3,
        tower1_layers=[8],
        tower2_layers=[8],
        dropout_rate=0.0,
        cross_depth=2,
        lam=0.5,
        variant=variant,
    )
    params = model_mod.ModelParams.init(cfg, [5, 5, 5, 5], seed=seed)
    # move relu preactivations off the kink so central differences are valid
    for tower in (params.tower1, params.tower2):
        for _, b in tower.layers:
            b.value = b.value + 0.05
    rng = Rng(seed).split("gradcheck-model")
    idx = rng.integers(0, 5, (3, 4))
    labels = np.array([1, 0, 1])
    results = []

    def loss():
        return model_mod.train_loss(idx, labels, params, 2, Rng(0))

    for name, p in params.named_params():
        _check(f"model/{variant}/{name}", loss, [p], tol, results)
    return results


def run_all(tol=DEFAULT_TOL):
    """Every primitive, then the whole network of every model variant."""
    results = check_primitives(tol)
    for variant in model_mod.VARIANTS:
        results += check_full_model(tol, variant=variant)
    return results
