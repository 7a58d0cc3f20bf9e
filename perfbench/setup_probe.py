"""Time one set-up in a fresh interpreter: import lcasched and build a workload's inputs.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORK_DIR
Prints the seconds from before the import to the moment the first cell
could start.
"""

import sys
import time

start = time.perf_counter()
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import workloads  # noqa: E402  (imports lcasched)

workloads.build_config(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]), Path(sys.argv[3]))
print(time.perf_counter() - start)
