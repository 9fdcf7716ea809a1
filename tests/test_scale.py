"""Checks at sizes beyond the other test modules'.  CI also runs this
module on its own under a timeout.  Each check prints its CPU seconds and
the process's peak RSS so far (shown with pytest -s)."""

import resource
import time

from conftest import hyperbolic_metric
from orbitlab.metric import st_matrices


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def test_modular_data_of_hyperbolic_forms_with_625_and_729_elements():
    for args, n in (((5, 1, 2), 625), ((3, 1, 3), 729)):
        start = time.process_time()
        s, t = st_matrices(hyperbolic_metric(*args))
        seconds = time.process_time() - start
        assert len(s) == len(t) == n, (args, len(s))
        print(f"st_matrices on hyperbolic {args} ({n} elements): "
              f"{seconds:.2f} s CPU, peak RSS {_peak_rss_mb():.0f} MB")
