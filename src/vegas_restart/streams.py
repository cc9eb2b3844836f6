"""Splittable counter-based random streams.

Every draw is a pure function of (key, draw index), where the key is mixed
from caller-supplied integer words such as (seed, trial, attempt).  This makes
simulation results reproducible and independent of how trials are split up.
The mixer is the splitmix64 finalizer driven by a Weyl sequence, the same
construction used by splittable PRNGs.
"""

from __future__ import annotations

import functools

_MASK = (1 << 64) - 1
_CHUNK = 1024  # most draws first_in() mixes at once
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


_KEY_START = mix64(_GOLDEN)


def stream_key(*words: int) -> int:
    """Derive a 64-bit stream key from integer words (order-sensitive)."""
    key = _KEY_START
    for i, w in enumerate(words):
        key = _add_word(key, i, w)
    return key


def _add_word(key: int, i: int, w: int) -> int:
    return mix64(key ^ ((int(w) * _WORD_SALTS[i % len(_WORD_SALTS)]) & _MASK))


class CounterStream:
    """Stateless-in-principle uniform stream: draw i = 1, 2, ... is
    mix64(key + i*GOLDEN).  random() returns the next draw as a float64 in
    [0, 1); first_in() scans the next draws for one in an integer range."""

    __slots__ = ("key", "_i")

    def __init__(self, key: int):
        self.key = key & _MASK
        self._i = 0

    def random(self) -> float:
        self._i += 1
        return (mix64((self.key + self._i * _GOLDEN) & _MASK) >> 11) * 2.0**-53

    def first_in(self, n: int, lo: int, hi: int) -> tuple[bool, int]:
        """(done, draws used) for the first of up to n draws whose v = draw >> 11
        (random() is v * 2**-53) has lo <= v < hi.  The stream moves past the
        hit, or past all n draws on a miss.

        Draws are mixed up to _CHUNK at a time in the 128-bit lanes of one
        int, where no 64-bit product spills into the next lane; v < hi and
        v >= lo are the carries into bit 64 of (2**64 - 1 - z) + hi*2**11 and
        z + 2**64 - lo*2**11."""
        n, start, m, last = max(int(n), 0), self._i, 64, 0
        lo, hi = min(max(lo, 0), 1 << 53), min(max(hi, 0), 1 << 53)
        while self._i - start < n:
            r = min(m, n - (self._i - start))
            if r == last:  # another full chunk as wide: step the Weyl lanes
                w = (w + step) & low
            else:
                ones, ramp, low, bit64, step = _lanes(1 << (r - 1).bit_length())
                w = (ramp + ones * ((self.key + self._i * _GOLDEN) & _MASK)) & low
                below_hi, from_lo = ones * (hi << 11), ones * (2**64 - (lo << 11)) if lo else 0
            z = ((w ^ (w >> 30)) & low) * _MULT_A & low
            z = ((z ^ (z >> 27)) & low) * _MULT_B & low
            z ^= z >> 31
            h = ((z ^ low) + below_hi) & bit64
            if h and lo:
                h &= z + from_lo
            j = ((h & -h).bit_length() - 65) >> 7  # -1 when no lane hit
            if 0 <= j < r:
                self._i += j + 1
                return True, self._i - start
            self._i += r
            last, m = r, min(2 * m, _CHUNK)
        return False, n


@functools.lru_cache(maxsize=None)
def _lanes(m: int) -> tuple[int, int, int, int, int]:
    """Per 128-bit lane j < m: 1, (j+1)*GOLDEN % 2**64, 2**64 - 1, 2**64, m*GOLDEN % 2**64."""
    ones = int.from_bytes(bytes([1] + [0] * 15) * m, "little")
    ramp = int.from_bytes(b"".join((j * _GOLDEN & _MASK).to_bytes(16, "little")
                                   for j in range(1, m + 1)), "little")
    return ones, ramp, ones * _MASK, ones << 64, ones * (m * _GOLDEN & _MASK)
