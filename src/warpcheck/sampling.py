"""Deterministic low-discrepancy sampling of domain boxes.

Halton points are reproducible across platforms (pure integer radical
inverses, no RNG state), so reports built on them are byte-stable.  The seed
offsets the sequence start; excluded-ball rejections simply advance it.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .jets import DomainBox

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def radical_inverses(indices: np.ndarray, base: int) -> np.ndarray:
    """Van der Corput radical inverses of non-negative integers, each with
    the bits of the digit-by-digit loop (divmod, then denom *= base, then
    inv += digit / denom); an index out of digits adds +0.0."""
    inv, denom = np.zeros(len(indices)), 1.0
    while indices.any():
        indices, digit = np.divmod(indices, base)
        denom *= base
        inv += digit / denom
    return inv


def halton_points(box: DomainBox, n: int, seed: int = 0) -> list[np.ndarray]:
    """First n Halton points inside the box, starting at sequence index
    seed + 1 and rejecting excluded balls; at most 1000 n indices are drawn,
    and an index past int64 raises."""
    if box.dim > len(_PRIMES):
        raise ConfigurationError(f"halton sampler supports dim <= {len(_PRIMES)}")
    lo = np.array(box.lo)
    span = np.array(box.hi) - lo
    out: list[np.ndarray] = []
    start, stop = seed + 1, seed + 1 + 1000 * max(n, 1)
    while len(out) < n:
        if start == stop:
            raise ConfigurationError("excluded regions reject nearly all samples")
        end = min(start + 2 * (n - len(out)) + 8, stop)
        if end > 2**63:  # the radical inverses run on int64 indices
            raise ConfigurationError(f"seed {seed} needs Halton index {end - 1}, past int64")
        indices = np.arange(start, end)
        x = lo + span * np.stack([radical_inverses(indices, p) for p in _PRIMES[:box.dim]], 1)
        inside = ~((x < lo) | (x > np.array(box.hi))).any(axis=1)
        for ball in box.balls:
            d = x[:, list(range(box.dim) if ball.axes is None else ball.axes)] - ball.center
            # each norm as np.linalg.norm takes it: the slice's own dot product
            inside &= ~(np.sqrt((d[:, None] @ d[..., None])[:, 0, 0]) <= ball.radius)
        out += list(x[inside][:n - len(out)])
        start = int(indices[-1]) + 1
    return out
