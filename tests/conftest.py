"""One BLAS thread for the whole suite.

The pinned report digests depend on the BLAS thread count: OpenBLAS
splits a product differently with more threads, and the last digits of
an eigenvector move with it.  The variables take effect only when set
before numpy is first imported, so this file refuses to run after it.
"""

import os
import sys

assert "numpy" not in sys.modules, "numpy was imported before the BLAS thread count was pinned"
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
