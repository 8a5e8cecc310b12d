"""Test-process setup, run before any test module imports numpy.

The acceptance tests train small models (batch 512, layers of at most 80
units) for many steps, so the process makes many short BLAS calls and
allocates and frees thousands of arrays of 0.1 to 4 MB per second. Two
settings keep that cheap; neither changes a result bit.

* BLAS runs on one thread, as under DELTA_DETERMINISTIC=1 and in
  bench/run.py. A second thread mostly spins and waits on calls this short,
  and next to other CPU-bound work the wait grows: on 2 cores beside one
  busy process, one fit of the criterion 10 model took 42 s with OpenBLAS's
  default threads and 23 s with one. A count already in the environment wins.
* glibc keeps freed arrays in the heap (mmap threshold 16 MB, trim threshold
  64 MB) instead of handing each back to the kernel and faulting it in again
  on the next step. A 4-epoch fit of the criterion 10 model at k=4 (one BLAS
  thread, 2 vCPUs, 6 alternating processes of 3 fits a side) took a median
  1.45 s and 9,000-116,000 minor page faults with glibc's defaults, and 1.32 s
  and under 3,600 faults with these.
"""

import ctypes
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

if sys.platform.startswith("linux"):
    _mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if _mallopt is not None:
        _mallopt(-3, 16 << 20)  # M_MMAP_THRESHOLD
        _mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
