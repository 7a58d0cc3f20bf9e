"""League championship scheduling benchmark for a simulated IaaS cloud.

The pieces: a generic league championship optimizer over box domains
(``lca``), the scheduling problem with its random-key encoding, its
non-preemptive schedule replay, the objectives and an exhaustive oracle
(``problem``), FCFS and LJF dispatch baselines (``baselines``), synthetic
workload and fleet generation with CSV traces (``workload``), and the
reproducible benchmark harness (``bench``) behind the ``lcasched`` command
line.
"""

from . import baselines, bench, lca, problem, workload
from .baselines import *
from .bench import *
from .lca import *
from .problem import *
from .workload import *

__version__ = "0.1.0"

# Each module's __all__ is the one list of what it exports.
__all__ = [
    *lca.__all__,
    *problem.__all__,
    *baselines.__all__,
    *workload.__all__,
    *bench.__all__,
]
