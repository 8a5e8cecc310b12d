"""DELTA: dynamic embedding learning for CTR prediction with truncated
attention, a curriculum-scheduled bottleneck, gated embedding fusion,
and an auxiliary explicit cross-net loss."""

import os

if os.environ.get("DELTA_DETERMINISTIC") == "1":
    # single-threaded bit-exact mode: pin BLAS reduction order. BLAS reads
    # these when numpy loads, so this must run before any submodule import.
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

from . import data, eeo, gradcheck, layers, metrics, model, numerics, trainer  # noqa: E402

__all__ = ["data", "eeo", "gradcheck", "layers", "metrics", "model", "numerics", "trainer"]
__version__ = "0.1.0"
