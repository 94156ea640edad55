"""Deterministic random streams with splittable substreams.  :func:`check_seed` owns
the seed range and builds no generator, so this module imports numpy only where it
builds one; :class:`RandomStream` owns the seeded-trial rule: trial i runs on
substream i, and a failing comparison names that substream."""

from __future__ import annotations

from typing import Callable, Iterable

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(seed: int, index: int) -> int:
    """Derive a child seed from ``(seed, index)`` with a splitmix64 finalizer.

    The rule is fixed so that replica streams are reproducible across
    platforms and languages:

        z = seed + 0x9E3779B97F4A7C15 * (index + 1)   (mod 2**64)

    followed by the three xor-shift / multiply rounds of splitmix64.
    """
    z = (seed + _GOLDEN * (index + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def check_seed(seed: int) -> int:
    """``seed`` as an int if it lies in [0, 2**64), the seeds of the PRNG; else ``ValueError``."""
    value = int(seed)
    if not 0 <= value < 1 << 64:
        raise ValueError(f"a seed must lie in [0, 2**64), got {seed}")
    return value


class RandomStream:
    """A seeded PCG64 stream; identical seeds give bit-identical draws.

    A seed is an integer in [0, 2**64) (:func:`check_seed`); any other raises ``ValueError``.

    Streams are single-owner: never share one instance across concurrent
    tasks.  Replica parallelism uses ``substream(i)``, which derives an
    independent child stream keyed by ``mix64(seed, i)``.

    Every double costs one 64-bit PCG64 output, so a stream can be read out
    of order: ``ahead(k)`` opens a cursor at the double ``uniforms(k)``
    would reach, and ``skip(k)`` moves past k doubles without drawing them.
    ``ahead(k).uniforms(m)`` equals ``uniforms(k + m)[k:]`` bit for bit.
    """

    __slots__ = ("seed", "_gen")

    def __init__(self, seed: int):
        import numpy as np
        self.seed = check_seed(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def substream(self, index: int) -> RandomStream:
        """Independent stream for replica ``index``; see :func:`mix64`."""
        if index < 0:
            raise ValueError("substream index must be nonnegative")
        return RandomStream(mix64(self.seed, index))

    def trial_failures(self, indices: Iterable[int],
                       trial: Callable[[int, RandomStream], list[tuple]]) -> list[dict]:
        """The failing comparisons of the seeded trials i in ``indices``: trial
        i is ``trial(i, st)`` on ``st = self.substream(i)`` and returns
        ``(error, tolerance, values)`` comparisons, and one fails unless
        ``error <= tolerance`` (NaN fails).  A failure is ``{"substream": i,
        **values}``, in trial order, so one trial call on that substream
        replays it."""
        return [{"substream": i, **values} for i in indices
                for error, tolerance, values in trial(i, self.substream(i))
                if not error <= tolerance]

    def ahead(self, k: int) -> RandomStream:
        """A cursor k doubles ahead of this stream, which does not move.

        The cursor keeps this stream's ``seed``, so its substreams are this
        stream's substreams.
        """
        if k < 0:
            raise ValueError("a cursor cannot open behind its stream")
        import numpy as np
        bits = np.random.PCG64(0)
        bits.state = self._gen.bit_generator.state
        bits.advance(k)
        cursor = RandomStream.__new__(RandomStream)
        cursor.seed = self.seed
        cursor._gen = np.random.Generator(bits)
        return cursor

    def skip(self, k: int) -> None:
        """Move past k doubles, as a discarded ``uniforms(k)`` call would."""
        if k < 0:
            raise ValueError("a stream cannot move backwards")
        self._gen.bit_generator.advance(k)

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` doubles in [0, 1)."""
        return self._gen.random(n)

    def fill(self, out: np.ndarray) -> None:
        """Write the next ``out.size`` doubles over the C-contiguous float64 ``out``,
        in its memory order: ``uniforms(out.size)`` bit for bit, and the stream
        moves the same way."""
        self._gen.random(out=out)

    def uniform(self) -> float:
        return float(self._gen.random())
