"""Deterministic random number generation.

All stochastic choices in the simulator (workload keys, Zipf draws,
back-off jitter) flow through :class:`DeterministicRng` so that a given
experiment seed replays bit-identically.  The implementation is a thin
wrapper over :class:`random.Random` with a few distribution helpers used
by the workloads.
"""

from __future__ import annotations

import random
from typing import List, Sequence, TypeVar

T = TypeVar("T")


class DeterministicRng:
    """Seeded random source with workload-oriented helpers."""

    def __init__(self, seed: int = 0):
        self._seed = seed
        self._random = random.Random(seed)
        #: ``Random._randbelow`` bound once: :meth:`randint` draws
        #: through it as ``Random.randint`` does, in one frame.
        self._randbelow = self._random._randbelow

    @property
    def seed(self) -> int:
        """Seed this generator was created with."""
        return self._seed

    def fork(self, stream: int) -> "DeterministicRng":
        """Derive an independent generator for a numbered stream.

        Used to give each simulated thread its own stream so that the
        outcome of one thread's draws never perturbs another's.
        """
        return DeterministicRng(hash((self._seed, stream)) & 0x7FFF_FFFF_FFFF_FFFF)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive.

        The same stream as ``random.Random(seed).randint``: that method
        returns ``low + _randbelow(high - low + 1)`` for integer bounds.
        """
        if high < low:
            # _randbelow(0) never returns.
            raise ValueError(f"empty range for randint({low}, {high})")
        return low + self._randbelow(high - low + 1)

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._random.random()

    def choice(self, items: Sequence[T]) -> T:
        """Uniform choice from a non-empty sequence."""
        return self._random.choice(items)

    def shuffle(self, items: List[T]) -> None:
        """In-place Fisher-Yates shuffle."""
        self._random.shuffle(items)

    def sample(self, items: Sequence[T], k: int) -> List[T]:
        """k distinct items chosen uniformly."""
        return self._random.sample(items, k)

    def geometric(self, p: float) -> int:
        """Geometric variate (number of trials until first success)."""
        if not 0.0 < p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {p}")
        count = 1
        while self._random.random() >= p:
            count += 1
        return count
