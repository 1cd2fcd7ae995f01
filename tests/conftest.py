"""pytest setup: one BLAS thread, set before numpy loads.

The padding tests compare bits with the padded path, which assumes GEMM rows
computed by one OpenBLAS thread, and criterion 8 compares dense and MoE
inference on one core: with two threads, OpenBLAS splits the dense model's
larger GEMMs over both cores but not the experts' small ones. The benchmark
(``moebench/run.py``) and CI pin the same setting.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
