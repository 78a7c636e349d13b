"""Deterministic 64-bit pseudo-random generator (splitmix64).

All randomized behaviour in the package (test-case generation, race
resolution during test execution) draws from this generator, never from
the stdlib ``random`` module, so that a seed reproduces the exact same
results on any platform and Python version.
"""

_MASK = (1 << 64) - 1


class SplitMix64:
    """splitmix64 stream seeded with a 64-bit integer."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection sampling (no modulo bias)."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next64()
            if v < limit:
                return v % n

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next64() >> 11) * (1.0 / (1 << 53))
