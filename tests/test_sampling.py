"""Halton sampling: the vectorized draw gives the points of the one-at-a-time
loop bit for bit, and keeps its rejection guard."""

import numpy as np
import pytest

from warpcheck.errors import ConfigurationError
from warpcheck.gallery import builtin_names, load_builtin
from warpcheck.jets import DomainBox, ExcludedBall
from warpcheck.sampling import _PRIMES, halton_points


def radical_inverse(index: int, base: int) -> float:
    inv, denom = 0.0, 1.0
    while index > 0:
        index, digit = divmod(index, base)
        denom *= base
        inv += digit / denom
    return inv


def scalar_halton_points(box: DomainBox, n: int, seed: int) -> list[np.ndarray]:
    """The reference: one index at a time, each point tested by DomainBox.contains."""
    lo = np.array(box.lo)
    span = np.array(box.hi) - lo
    out, index, guard = [], seed + 1, 0
    while len(out) < n:
        x = lo + span * np.array([radical_inverse(index, _PRIMES[k]) for k in range(box.dim)])
        index += 1
        guard += 1
        if guard > 1000 * max(n, 1):
            raise ConfigurationError("excluded regions reject nearly all samples")
        if box.contains(x):
            out.append(x)
    return out


BOXES = {name: getattr(s, "metric", s).domain
         for name in builtin_names() for s in [load_builtin(name).subject]}
BOXES["two balls"] = DomainBox((-1, -1, 0), (1, 1, 2), (
    ExcludedBall((0, 0), 0.7, (0, 1)), ExcludedBall((0.5, 0.5, 1.0), 0.3)))
BOXES["narrow"] = DomainBox((0,), (1,), (ExcludedBall((0.5,), 0.499),))


@pytest.mark.parametrize("seed", [0, 5, 42])
@pytest.mark.parametrize("name", sorted(BOXES))
def test_points_equal_the_scalar_reference(name, seed):
    box = BOXES[name]
    for n in (1, 70):
        got, want = np.array(halton_points(box, n, seed)), np.array(scalar_halton_points(box, n, seed))
        assert got.shape == want.shape == (n, box.dim)
        assert (got.view(np.int64) == want.view(np.int64)).all(), (name, seed, n)


def test_ball_norms_are_the_norms_of_linalg():
    # the premise of the stacked ball test: each row's dot product is the
    # one np.linalg.norm takes
    rng = np.random.default_rng(11)
    for k in range(1, 6):
        d = rng.standard_normal((20000, k)) * np.exp(rng.uniform(-5, 5, (20000, 1)))
        got = np.sqrt((d[:, None] @ d[..., None])[:, 0, 0])
        want = np.array([float(np.linalg.norm(row)) for row in d])
        assert (got.view(np.int64) == want.view(np.int64)).all(), k


def test_the_rejection_guard_still_raises():
    covered = DomainBox((0, 0), (1, 1), (ExcludedBall((0.5, 0.5), 2.0),))
    for n in (1, 3):
        with pytest.raises(ConfigurationError, match="reject nearly all samples"):
            scalar_halton_points(covered, n, 0)
        with pytest.raises(ConfigurationError, match="reject nearly all samples"):
            halton_points(covered, n, 0)
    # only the corners lie outside this ball: no draw of the first 1,000
    # does, so one point raises, while two are found within 2,000 draws
    rare = DomainBox((0, 0), (1, 1), (ExcludedBall((0.5, 0.5), 0.684),))
    with pytest.raises(ConfigurationError, match="reject nearly all samples"):
        scalar_halton_points(rare, 1, 0)
    with pytest.raises(ConfigurationError, match="reject nearly all samples"):
        halton_points(rare, 1, 0)
    got, want = np.array(halton_points(rare, 2, 0)), np.array(scalar_halton_points(rare, 2, 0))
    assert (got.view(np.int64) == want.view(np.int64)).all()
