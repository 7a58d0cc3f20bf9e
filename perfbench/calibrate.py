"""Host-speed calibration: a fixed kernel timed next to every measured repeat.

On a shared host the speed available to one process drifts by up to 2x
over tens of seconds as other tenants come and go; the drift shows in CPU
time as much as in wall time, so it is not waiting but slower execution.
The kernel below does the same kinds of work as lcasched (small-array
numpy: floor, stable argsort, cumsum, gathers; many calls on tiny arrays:
argmin, scalar random draws; Python: frozen-dataclass construction, keyed
sorts, a greedy min loop) and none of
its code, so a change to lcasched never moves it. Timing it right before
each repeat gives the host's speed of the moment; dividing by it removes
most of the drift. On one 2-core host, 30-second windows of a sweep moved
25% in raw time and 5% once normalized this way.

``REFERENCE_S`` is the kernel's typical time on a 2-core Intel Xeon at
2.1 GHz with numpy 2.4; normalized times read as seconds on that host.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

REFERENCE_S = 0.021


@dataclass(frozen=True)
class _Item:
    key: int
    value: float


_KEYS = np.random.default_rng(7).uniform(0.0, 130.0, 5000)
_VALUES = [float(v) for v in _KEYS[:2000]]


def _kernel(rng: np.random.Generator) -> None:
    for _ in range(25):
        index = np.clip(np.floor(_KEYS).astype(np.int64), 0, 129)
        order = np.argsort(index, kind="stable")
        totals = np.cumsum(_KEYS[order])
        np.maximum(totals - _KEYS[order], 0.0).mean()
    ready_at = np.zeros(50)
    for value in _VALUES:
        slot = int(np.argmin(ready_at))
        ready_at[slot] = max(ready_at[slot], value) + rng.random()
    items = [_Item(i, v) for i, v in enumerate(_VALUES)]
    order = sorted(range(len(items)), key=lambda p: (-items[p].value, items[p].key))
    ready = [0.0] * 50
    for p in order:
        slot = min(range(50), key=ready.__getitem__)
        ready[slot] += items[p].value


def measure() -> float:
    """Seconds one run of the kernel takes right now."""
    rng = np.random.default_rng(0)
    start = perf_counter()
    _kernel(rng)
    return perf_counter() - start
