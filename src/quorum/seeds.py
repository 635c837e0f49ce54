"""Deterministic seed derivation.

Every random draw in the package descends from a single root seed.  A
component derives its own stream by hashing the root together with a
sequence of string/int labels, so adding a component or reordering calls
never perturbs the streams of its siblings.
"""

from __future__ import annotations

import hashlib
import random

_MASK64 = (1 << 64) - 1


def derive_seed(root: int, *labels: object) -> int:
    """Return a 64-bit seed derived from ``root`` and a label path."""
    h = hashlib.sha256()
    h.update(str(int(root) & _MASK64).encode())
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode())
    return int.from_bytes(h.digest()[:8], "big")


def rng_for(root: int, *labels: object) -> random.Random:
    """A ``random.Random`` seeded from the derived stream id.

    Draw only through ``random()``: for an int seed it is the one method
    whose sequence CPython keeps across versions.
    """
    return random.Random(derive_seed(root, *labels))


def uniform_for(root: int, *labels: object) -> float:
    """One uniform draw in [0, 1) as a pure function of the label path.

    Cheaper than building a ``Random`` when a single variate is needed.
    """
    return derive_seed(root, *labels) / float(1 << 64)
