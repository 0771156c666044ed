"""Metamorphic relations: an immersion composed with an isometry of its
ambient that preserves the ambient structure has the same geometry, so its
report keeps every record and verdict, and its values up to rounding.

- e5 composed with a Heisenberg translation, an automorphism of the standard
  Sasakian structure on R^5;
- e1 composed with U in U(2), a holomorphic isometry of flat C^2: a real
  rotation of (z1, z2) by 0.7, then a phase of 1.3 on z1.
"""

import math
from importlib import resources

import numpy as np
import pytest

from warpcheck.cli import RunConfig, run

E1_COMPONENTS = ["x1*cos(x3)", "x2*cos(x3)", "x1*sin(x3)", "x2*sin(x3)"]
E5_COMPONENTS = ["x1*cos(x4)", "x1*sin(x4)", "x2*cos(x4)", "x2*sin(x4)", "x3"]
HEISENBERG = ["x1*cos(x4) + 0.3", "x1*sin(x4) - 0.2", "x2*cos(x4) + 0.25", "x2*sin(x4) - 0.4",
              "x3 + 0.7 + 0.25*x1*cos(x4) - 0.4*x1*sin(x4)"]

# The two charts compute one geometry through different sums, so a value
# differs by rounding alone: at most 1.2e-13 on values of order 1 over these
# runs (a flag of 7.04 by one ulp).  The bound leaves a margin of about 10,
# and stays below every tolerance the records use but 'reduction', whose
# value depends on the seed alone.
REL = 1e-12


def _u2() -> np.ndarray:
    """U on (Re z1, Im z1, Re z2, Im z2): rotate (z1, z2) by 0.7, then multiply z1 by e^{1.3 i}."""
    c, s = math.cos(0.7), math.sin(0.7)
    rotate = np.array([[c, 0, -s, 0], [0, c, 0, -s], [s, 0, c, 0], [0, s, 0, c]])
    c, s = math.cos(1.3), math.sin(1.3)
    phase = np.array([[c, -s, 0, 0], [s, c, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    return phase @ rotate


def _combination(row) -> str:
    """The expression sum_j row[j] * E1_COMPONENTS[j] over the nonzero row[j]."""
    return " + ".join(f"({float(v)!r})*{e}" for v, e in zip(row, E1_COMPONENTS) if v != 0)


def _composed(tmp_path, config: str, old: list[str], new: list[str]) -> str:
    text = resources.files("warpcheck").joinpath("data", config).read_text()
    quoted = [", ".join(f'"{e}"' for e in components) for components in (old, new)]
    assert quoted[0] in text
    path = tmp_path / config
    path.write_text(text.replace(*quoted))
    return str(path)


RELATIONS = {
    "e5-heisenberg": ("e5", "e5_sasakian_cr.cfg", E5_COMPONENTS, HEISENBERG),
    "e1-u2": ("e1", "e1_chen_cr.cfg", E1_COMPONENTS, [_combination(row) for row in _u2()]),
}


@pytest.mark.parametrize("seed", [42, 5])
@pytest.mark.parametrize("relation", RELATIONS)
def test_an_ambient_automorphism_keeps_the_report(tmp_path, relation, seed):
    name, config, old, new = RELATIONS[relation]
    composed = _composed(tmp_path, config, old, new)
    (code, doc, _), (moved_code, moved_doc, _) = (
        run(RunConfig(target=target, points=64, seed=seed)) for target in (name, composed))
    assert code == moved_code == 0
    records, moved = doc["checks"], moved_doc["checks"]
    assert [r["name"] for r in records] == [r["name"] for r in moved]
    assert [r["pass"] for r in records] == [r["pass"] for r in moved]
    for a, b in zip(records, moved):
        scale = max(1.0, abs(a["worst"]), abs(b["worst"]))
        assert abs(a["worst"] - b["worst"]) <= REL * scale, (a["name"], a["worst"], b["worst"])
