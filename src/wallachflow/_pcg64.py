"""The seeded uniform draws of ``flow --random-starts``, in pure Python.

``Uniform(seed).draw(lo, hi, n)`` returns exactly the floats that
``numpy.random.default_rng(seed).uniform(lo, hi, n)`` returns, and further
calls continue the same stream: numpy's ``SeedSequence`` with its default
pool of four 32-bit words and no spawn key, the PCG64 generator (the 128-bit
LCG with the XSL-RR output; O'Neill 2014, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number
Generation") seeded as numpy seeds it, and numpy's ``lo + (hi - lo) * u``
with ``u`` the top 53 bits of a 64-bit output over ``2**53``.  The starts of
a batch then need no numpy import.
"""

from __future__ import annotations

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
# SeedSequence's hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
# PCG's default 128-bit LCG multiplier
_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed: int) -> list[int]:
    """The eight 32-bit words of ``SeedSequence(seed).generate_state(4, uint64)``."""
    if seed < 0:
        raise ValueError("the seed must be non-negative")
    entropy = []
    while True:
        entropy.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    words, hash_const = [], _INIT_B
    for i in range(8):
        value = pool[i % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        words.append(value ^ value >> 16)
    return words


class Uniform:
    """numpy's ``default_rng(seed).uniform`` stream."""

    def __init__(self, seed: int):
        w = _seed_state(seed)
        # four little-endian uint64 words: the state's high and low halves,
        # then the increment's
        u64 = [w[2 * k] | w[2 * k + 1] << 32 for k in range(4)]
        self._inc = ((u64[2] << 64 | u64[3]) << 1 | 1) & _M128
        self._state = (self._inc + (u64[0] << 64 | u64[1])) * _MULT + self._inc & _M128

    def next64(self) -> int:
        """Advance the LCG, then the XSL-RR output of the new state."""
        s = self._state = (self._state * _MULT + self._inc) & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def draw(self, lo: float, hi: float, n: int) -> list[float]:
        return [lo + (hi - lo) * ((self.next64() >> 11) * 2.0**-53) for _ in range(n)]
