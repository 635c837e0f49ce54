"""Host-speed probe: a fixed pure-Python loop, timed between commands.

The 2-CPU machine this benchmark was written on is shared, and its speed
wanders by up to ±30% from one run to the next. A run's mean probe time
tracks that speed. In eight 15 s runs of sweep-reference, with an earlier
form of this probe, a run's cells/s and its mean probe speed correlated
at 0.99. The worker samples it at every round boundary (see
``_sample_host`` in worker.py).

So every timing metric of the worker is reported at nominal host speed:
a time is multiplied by the nominal probe time over the run's mean probe
time, and a rate by the inverse. (Set-up has a reference of its own: see
SETUP_REFERENCE in run.py.) The probe runs outside every timed span and
never calls into ``quorum``. A change to the program therefore moves the
scaled metrics exactly as it moves the raw ones. The raw values go to
stderr. At the nominal speed, the scaled metrics equal the raw ones.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time

ITEMS = 1000  # per pass: a table this small stays far below any command's footprint
PASSES = 6
NOMINAL_S = 0.024  # the probe's typical time on the 2-CPU machine the benchmark was written on


def probe() -> float:
    """Seconds one fixed mix of hashing, dict building and JSON takes now.

    The collector is off while it runs, so the time does not depend on
    what else lives on the heap: only on how fast the host is.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for p in range(PASSES):
            table = {}
            for i in range(p * ITEMS, (p + 1) * ITEMS):
                key = hashlib.sha256(str(i).encode()).hexdigest()
                table[key] = {"a": i, "b": [i, str(i)], "c": key[:8]}
            json.loads(json.dumps(list(table.values())))
            del table
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
