"""A fixed pure-Python kernel that measures the host's current speed.

The host the benchmark was sized on runs the same code at speeds up to
about two times apart, switching every few seconds (README.md, "Noise").
A round of the engine is a few milliseconds, so a reference timed right
after it ran at the same speed: the ratio of the two times cancels the
host's speed and keeps the round's own cost.

The kernel does what a round does, in the same idiom as the engine but
sharing no code with it: one log-domain forward step over a fixed
random graph, with slotted value objects, dict lookups and
``math.log1p``/``math.exp``.  A change to the library cannot change it.
"""

from __future__ import annotations

import math
import random
from time import perf_counter

_rng = random.Random(20170430)
_STATES = 64
_EDGES = [(_rng.randrange(_STATES), _rng.randrange(_STATES), _rng.random())
          for _ in range(400)]


class _LogValue:
    __slots__ = ("log",)

    def __init__(self, log: float):
        self.log = log

    def scaled(self, factor: float) -> "_LogValue":
        return _LogValue(self.log + factor)

    def __add__(self, other: "_LogValue") -> "_LogValue":
        hi, lo = (self.log, other.log) if self.log >= other.log else (other.log, self.log)
        return _LogValue(hi + math.log1p(math.exp(lo - hi)))


_START = {q: _LogValue(-q / _STATES) for q in range(_STATES)}


def _step() -> dict:
    nxt: dict[int, _LogValue] = {}
    for src, dst, w in _EDGES:
        a = _START[src].scaled(w)
        b = nxt.get(dst)
        nxt[dst] = a if b is None else b + a
    return nxt


def timed() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = perf_counter()
    _step()
    return perf_counter() - t0
