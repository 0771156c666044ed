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


def radical_inverse(index: int, base: int) -> float:
    """Van der Corput radical inverse of a non-negative integer."""
    inv = 0.0
    denom = 1.0
    while index > 0:
        index, digit = divmod(index, base)
        denom *= base
        inv += digit / denom
    return inv


def halton_point(index: int, dim: int) -> np.ndarray:
    if dim > len(_PRIMES):
        raise ConfigurationError(f"halton sampler supports dim <= {len(_PRIMES)}")
    return np.array([radical_inverse(index, _PRIMES[k]) for k in range(dim)])


def halton_points(box: DomainBox, n: int, seed: int = 0) -> list[np.ndarray]:
    """First n Halton points inside the box, starting at sequence index
    seed + 1 and rejecting excluded balls."""
    lo = np.array(box.lo)
    span = np.array(box.hi) - lo
    out: list[np.ndarray] = []
    index = seed + 1
    guard = 0
    while len(out) < n:
        x = lo + span * halton_point(index, box.dim)
        index += 1
        guard += 1
        if guard > 1000 * max(n, 1):
            raise ConfigurationError("excluded regions reject nearly all samples")
        if box.contains(x):
            out.append(x)
    return out
