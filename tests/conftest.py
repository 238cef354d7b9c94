"""Run the suite on one BLAS thread unless the environment already sets a count.

numpy reads these variables once, when it is first imported, so they are set
here, before any test module imports it.  On a 2-core host a second OpenBLAS
thread costs CPU time without saving wall time, and the benchmark in
``perfbench`` measures on one thread as well.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
