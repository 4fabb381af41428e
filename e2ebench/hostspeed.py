"""Host-speed probe: a fixed piece of work that uses none of the
program's code, timed next to the program so its timings can be scaled to
one reference speed.

The benchmark's host is shared.  Its single-thread speed moves by up to
about 2x for minutes at a time: one cell took 1.7 s and 3.6 s within five
minutes, and whole runs fell into slow spells.  Cell timings and /topk
latencies are therefore reported at the reference speed: measured time x
``REFERENCE_S`` / probe time around the measurement, probed on the core
that did the work.  A program change moves the measured time and not the
probe, so it moves the metric by the same share.
"""

from __future__ import annotations

import math
import time
from typing import Sequence

import numpy as np

#: The probe's time on an idle core of the machine the bounds were set
#: on (a 2-vCPU Intel Xeon guest); reported times are in seconds at
#: this speed.
REFERENCE_S = 0.020


def _work() -> None:
    # Interpreter loop, Python objects, gathers/scatters on mid-sized
    # arrays and a streaming pass over a large one: the mix of a cell.
    total = 0
    for i in range(60000):
        total += i * i
    groups: dict = {}
    for i in range(15000):
        groups.setdefault(i % 97, []).append((i, i + 1))
    sorted(groups.items())
    values = np.linspace(0.0, 1.0, 20000)
    index = (np.arange(20000) * 7919) % 20000
    for _ in range(20):
        gathered = values[index]
        np.add.at(values, index[:2000], 1.0)
        values = np.sort(gathered)
    # 2 MB, well under the program's own peak, so peak RSS is not the probe's.
    big = np.linspace(0.0, 1.0, 250_000)
    for _ in range(12):
        big = big * 1.0001 + 0.5


def probe(repeats: int = 3) -> float:
    """Fastest of ``repeats`` timings of the probe work, in seconds."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - start)
    return best


def factor(probes: Sequence[float]) -> float:
    """Scale from measured to reference-speed seconds for a measurement
    taken between ``probes`` (geometric mean of their speeds)."""
    return REFERENCE_S / math.exp(sum(math.log(p) for p in probes) / len(probes))
