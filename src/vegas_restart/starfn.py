"""Iterated-map numerics: the 3*ln contraction and its star count, tower, log-star.

The star count of a shrinking map f (with respect to a bound b) is the number
of applications of f needed to bring a start value down to b or below.  All
shrink computations run in double precision; comparisons against the bound 5
use exact <= with no epsilon, which is safe because the map's derivative near
5 keeps iterates well separated from the boundary.  tower and log_star are
integer exact and involve no floating point.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# Coefficient of the contraction map: shrink(x) = SHRINK_FACTOR * ln(x).
# With the value 3 the map is strictly increasing and strictly below x for
# all x >= 5, which is what the schedule constructions rely on.
SHRINK_FACTOR = 3.0

# Iteration stops at the first value <= STAR_BOUND.
STAR_BOUND = 5.0


class ShrinkTrace(NamedTuple):
    """Orbit of shrink() from start down to the first value <= 5.

    values[0] == start, values[i+1] == shrink(values[i]); every element but
    the last is > 5, and the last lies in (4, 5].
    """

    values: tuple[float, ...]

    @property
    def star(self) -> int:
        return len(self.values) - 1


def shrink(x: float) -> float:
    """Contraction map 3*ln(x), defined for finite x >= 1."""
    x = float(x)
    if not math.isfinite(x) or x < 1.0:
        raise ValueError(f"shrink requires finite x >= 1, got {x!r}")
    return SHRINK_FACTOR * math.log(x)


def shrink_iter(k: int, x: float) -> float:
    """k-fold application of shrink; shrink_iter(0, x) == x.

    Requires x >= 5.
    """
    k = int(k)
    if k < 0:
        raise ValueError(f"iteration count must be >= 0, got {k}")
    x = float(x)
    if not math.isfinite(x) or x < 5.0:
        raise ValueError(f"shrink_iter requires finite x >= 5, got {x!r}")
    v = x
    for _ in range(k):
        v = shrink(v)
    return v


def shrink_trace(x: float) -> ShrinkTrace:
    """Full shrink orbit of x >= 5 down to the first value <= 5."""
    x = float(x)
    if not math.isfinite(x) or x < 5.0:
        raise ValueError(f"shrink_trace requires finite x >= 5, got {x!r}")
    values = [x]
    while values[-1] > STAR_BOUND:
        values.append(shrink(values[-1]))
    return ShrinkTrace(tuple(values))


def shrink_star(x: float) -> int:
    """Smallest k with shrink applied k times to x being <= 5 (x >= 5)."""
    return shrink_trace(x).star


def tower(n: int) -> int:
    """Iterated power of two: tower(0) = 1, tower(n) = 2**tower(n-1).

    Only n <= 4 is representable in any practical sense; n >= 5 raises
    OverflowError.
    """
    n = int(n)
    if n < 0:
        raise ValueError(f"tower requires n >= 0, got {n}")
    if n >= 5:
        raise OverflowError(f"tower({n}) is astronomically large")
    return 2 ** tower(n - 1) if n else 1


def log_star(n: int) -> int:
    """Discrete inverse of tower: smallest k with tower(k) >= n, for n >= 1.

    Computed exactly on integers by repeated ceiling base-2 logarithms:
    tower(k) >= n iff tower(k-1) >= ceil(log2(n)).
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"log_star requires n >= 1, got {n}")
    count = 0
    while n > 1:
        n = (n - 1).bit_length()  # exact ceil(log2(n)) for n >= 2
        count += 1
    return count
