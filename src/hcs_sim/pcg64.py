"""The PCG64 stream of numpy's `Generator(PCG64(seed))`, draw for draw, in
pure Python.

Only the two draws the arrival generator takes are exposed. Behind them:
numpy's `SeedSequence` hashing of the seed into the generator's 256 bits,
the 128-bit LCG with XSL-RR output (O'Neill, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number
Generation", 2014), doubles from the top 53 bits of a 64-bit draw, and
bounded integers by Lemire's rejection ("Fast Random Integer Generation in
an Interval", ACM TOMACS 2019) over 32-bit draws. Like numpy, a 64-bit draw
serves two 32-bit ones: its high half waits for the next 32-bit draw, and
doubles in between leave it waiting.
"""

from __future__ import annotations

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1

# SeedSequence: hash constants and the pool of 4 32-bit words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _mix(x: int, y: int) -> int:
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return r ^ (r >> 16)


def _seed_state(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(8) as 32-bit words: the seed's
    little-endian words hashed into the pool, the pool hashed out again."""
    entropy = [seed & _M32]
    seed >>= 32
    while seed:
        entropy.append(seed & _M32)
        seed >>= 32
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _M32
        value = value * const & _M32
        return value ^ (value >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:  # seeds of more than 128 bits
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    out = []
    const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _M32
        value = value * const & _M32
        out.append(value ^ (value >> 16))
    return out


class Pcg64:
    """A seeded stream of uniform doubles and bounded integers."""

    __slots__ = ("_state", "_inc", "_high")

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        w = _seed_state(seed)
        # four 64-bit words, each from two 32-bit ones, low word first
        s0, s1, s2, s3 = (w[i] | w[i + 1] << 32 for i in range(0, 8, 2))
        self._inc = ((s2 << 64 | s3) << 1 | 1) & _M128
        # PCG's srandom: step from zero, add the initial state, step again
        state = (self._inc + (s0 << 64 | s1)) & _M128
        self._state = (state * _PCG_MULT + self._inc) & _M128
        self._high: int | None = None  # a 64-bit draw's unused high half

    def _next64(self) -> int:
        self._state = state = (self._state * _PCG_MULT + self._inc) & _M128
        x = ((state >> 64) ^ state) & _M64
        rot = state >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        if self._high is not None:
            x, self._high = self._high, None
            return x
        x = self._next64()
        self._high = x >> 32
        return x & _M32

    def random(self) -> float:
        """A double uniform in [0, 1), numpy's `Generator.random()`."""
        return (self._next64() >> 11) * 2.0 ** -53

    def integers(self, n: int) -> int:
        """An integer uniform in [0, n), numpy's `Generator.integers(0, n)`,
        for 1 <= n <= 2**32. n == 1 takes no draw; n == 2**32 takes one
        32-bit draw and never rejects it."""
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"n must be in [1, 2**32], got {n}")
        if n == 1:
            return 0
        m = self._next32() * n
        if m & _M32 < n:
            threshold = ((1 << 32) - n) % n  # 2**32 mod n
            while m & _M32 < threshold:
                m = self._next32() * n
        return m >> 32
