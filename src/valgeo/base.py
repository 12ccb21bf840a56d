"""Small shared numerics: ball volumes, Monte-Carlo estimates and chunking."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .grassmann import SeededSampler

# Rows per Monte-Carlo chunk.  Chunk j draws from ``s.substream(j)``, so this
# constant is part of every seeded result: changing it changes the reports.
MC_CHUNK = 8192


class Estimate(NamedTuple):
    """A scalar together with its Monte-Carlo standard error.

    Exact computations carry ``stderr == 0.0``.
    """

    value: float
    stderr: float = 0.0

    def __float__(self) -> float:
        return float(self.value)


def unit_ball_volume(d: int) -> float:
    """Volume kappa_d of the d-dimensional unit Euclidean ball (kappa_0 = 1)."""
    if d < 0:
        raise ValueError(f"negative dimension {d}")
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def mean_and_stderr(samples: np.ndarray) -> Estimate:
    """Sample mean and standard error of the mean."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n == 0:
        raise ValueError("no samples")
    if n == 1:
        return Estimate(float(x[0]), 0.0)
    return Estimate(float(x.mean()), float(x.std(ddof=1) / math.sqrt(n)))


def mc_chunks(n_samples: int, s: SeededSampler) -> Iterator[tuple[slice, int, SeededSampler]]:
    """Split ``n_samples`` rows into chunks of at most ``MC_CHUNK``.

    Chunk j covers rows ``[j*MC_CHUNK, min((j+1)*MC_CHUNK, n_samples))`` and
    yields ``(rows, count, s.substream(j))``.  The fixed layout makes every
    estimator reproducible independently of how its chunks are scheduled.
    """
    for j, start in enumerate(range(0, n_samples, MC_CHUNK)):
        stop = min(start + MC_CHUNK, n_samples)
        yield slice(start, stop), stop - start, s.substream(j)


def mc_samples(n_samples: int, s: SeededSampler,
               draw: Callable[[int, SeededSampler], np.ndarray]) -> np.ndarray:
    """The per-sample values that every averaging estimator reads: the
    (count, ...) arrays ``draw(count, sub)`` of the chunks of
    ``mc_chunks(n_samples, s)``, stacked in chunk order into one
    (n_samples, ...) array (an empty (0,) array for n_samples = 0)."""
    chunks = [draw(c, sub) for _, c, sub in mc_chunks(n_samples, s)]
    return np.concatenate(chunks) if chunks else np.empty(0)
