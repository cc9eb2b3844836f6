"""Splittable counter-based random streams.

Every draw is a pure function of (key, draw index), where the key is mixed
from caller-supplied integer words such as (seed, trial, attempt).  This makes
simulation results reproducible and independent of how trials are split up.
The mixer is the splitmix64 finalizer driven by a Weyl sequence, the same
construction used by splittable PRNGs.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MULT_A = 0xBF58476D1CE4E5B9
_MULT_B = 0x94D049BB133111EB
_WORD_SALTS = (0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0x27220A95FE5CB3A9)


def mix64(z: int) -> int:
    """splitmix64 finalizer: a bijective avalanche on 64-bit integers."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MULT_A) & _MASK
    z = ((z ^ (z >> 27)) * _MULT_B) & _MASK
    return z ^ (z >> 31)


def stream_key(*words: int) -> int:
    """Derive a 64-bit stream key from integer words (order-sensitive)."""
    key = mix64(_GOLDEN)
    for i, w in enumerate(words):
        salt = _WORD_SALTS[i % len(_WORD_SALTS)]
        key = mix64(key ^ ((int(w) * salt) & _MASK))
    return key


class CounterStream:
    """Stateless-in-principle uniform stream: draw i is mix64(key + (i+1)*GOLDEN).

    Exposes the small slice of the numpy Generator API the library needs:
    random() for a float64 in [0, 1), random(n) for a vector of them.
    """

    __slots__ = ("key", "_i")

    def __init__(self, key: int):
        self.key = key & _MASK
        self._i = 0

    def random(self, size: int | None = None):
        if size is None:
            self._i += 1
            return (mix64((self.key + self._i * _GOLDEN) & _MASK) >> 11) * 2.0**-53
        import numpy as np  # once per vector of draws

        start = self._i
        self._i += int(size)
        idx = np.arange(start + 1, start + size + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            z = np.uint64(self.key) + idx * np.uint64(_GOLDEN)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(_MULT_A)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_MULT_B)
            z = z ^ (z >> np.uint64(31))
        return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
