"""Shared fixture builders: ambient structures and the benchmark immersions.

These mirror the shipped gallery configs; gallery tests cross-check that the
config-loaded objects agree with these builders numerically.
"""

import numpy as np

from warpcheck.expr import parse
from warpcheck.jets import DomainBox, ExcludedBall
from warpcheck.riemann import MetricField
from warpcheck.structures import AlmostComplexStructure, AlmostContactStructure
from warpcheck.subman import Immersion, ImmersionBlock, WarpedDecl


def block_at(im, *points) -> ImmersionBlock:
    """An immersion block of the given points, in order."""
    return ImmersionBlock(im, np.array(points, dtype=float))


def flat_metric(dim, name="flat"):
    rows = [["1" if i == j else "0" for j in range(dim)] for i in range(dim)]
    return MetricField.from_strings(rows, name=name)


def _parse_rows(rows, dim):
    return [[parse(s, dim) for s in row] for row in rows]


def standard_complex_structure(dim):
    """Block rotation J pairing coordinates (1,2), (3,4), ... on a flat chart."""
    rows = [["0"] * dim for _ in range(dim)]
    for k in range(dim // 2):
        rows[2 * k][2 * k + 1] = "-1"
        rows[2 * k + 1][2 * k] = "1"
    return AlmostComplexStructure(flat_metric(dim, name=f"flat-c{dim // 2}"),
                                  _parse_rows(rows, dim))


SASAKIAN_G_ROWS = [
    ["0.25 + 0.25*x3^2", "0.25*x3*x4", "0", "0", "-0.25*x3"],
    ["0.25*x3*x4", "0.25 + 0.25*x4^2", "0", "0", "-0.25*x4"],
    ["0", "0", "0.25", "0", "0"],
    ["0", "0", "0", "0.25", "0"],
    ["-0.25*x3", "-0.25*x4", "0", "0", "0.25"],
]
SASAKIAN_PHI_ROWS = [
    ["0", "0", "-1", "0", "0"],
    ["0", "0", "0", "-1", "0"],
    ["1", "0", "0", "0", "0"],
    ["0", "1", "0", "0", "0"],
    ["0", "0", "-1*x3", "-1*x4", "0"],
]
SASAKIAN_XI = ["0", "0", "0", "0", "2"]
SASAKIAN_ETA = ["-0.5*x3", "-0.5*x4", "0", "0", "0.5"]


def standard_sasakian_r5():
    metric = MetricField.from_strings(SASAKIAN_G_ROWS, name="sasakian-r5")
    return AlmostContactStructure(
        metric=metric,
        phi_entries=_parse_rows(SASAKIAN_PHI_ROWS, 5),
        xi_entries=[parse(s, 5) for s in SASAKIAN_XI],
        eta_entries=[parse(s, 5) for s in SASAKIAN_ETA],
        name="standard-sasakian-r5",
    )


def line_metric(name="line"):
    return MetricField.from_strings([["1"]], name=name)


def chen_cr_immersion():
    """Complex plane times a rotation circle in flat C^2; warping r = |z|."""
    comps = ["x1*cos(x3)", "x2*cos(x3)", "x1*sin(x3)", "x2*sin(x3)"]
    box = DomainBox(lo=(-2.2, -2.2, 0.1), hi=(2.2, 2.2, 1.4),
                    balls=(ExcludedBall(center=(0.0, 0.0), radius=0.1, axes=(0, 1)),))
    return Immersion(
        dim=3,
        components=[parse(c, 3) for c in comps],
        ambient=flat_metric(4, name="flat-c2"),
        structure=standard_complex_structure(4),
        warped=WarpedDecl(n1=2, n2=1, f=parse("sqrt(x1^2 + x2^2)", 2),
                          g2=line_metric("circle")),
        domain=box,
        name="chen-cr",
    )


def perturbed_chen_immersion(eps=0.1):
    """chen-cr with a normal bending eps*u^2 in a fresh coordinate pair of
    flat C^3 (the ambient stays Kahler; the extra pair is unused by the base)."""
    comps = ["x1*cos(x3)", "x2*cos(x3)", "x1*sin(x3)", "x2*sin(x3)",
             f"{eps}*x1^2", "0"]
    box = DomainBox(lo=(-2.2, -2.2, 0.1), hi=(2.2, 2.2, 1.4),
                    balls=(ExcludedBall(center=(0.0, 0.0), radius=0.1, axes=(0, 1)),))
    return Immersion(
        dim=3,
        components=[parse(c, 3) for c in comps],
        ambient=flat_metric(6, name="flat-c3"),
        structure=standard_complex_structure(6),
        warped=WarpedDecl(n1=2, n2=1, f=parse("sqrt(x1^2 + x2^2)", 2),
                          g2=line_metric("circle")),
        domain=box,
        name="perturbed-chen",
    )


def trivial_product_immersion():
    """Affine plane in flat C^2 with constant warping: every residual is zero."""
    comps = ["x1", "x2", "0", "0"]
    return Immersion(
        dim=2,
        components=[parse(c, 2) for c in comps],
        ambient=flat_metric(4, name="flat-c2"),
        structure=standard_complex_structure(4),
        warped=WarpedDecl(n1=1, n2=1, f=parse("1", 1), g2=line_metric()),
        domain=DomainBox(lo=(-1.0, -1.0), hi=(1.0, 1.0)),
        name="trivial-product",
    )


def sphere_immersion():
    """Unit round sphere in flat R^3, poles excluded with margin 0.1."""
    comps = ["sin(x1)*cos(x2)", "sin(x1)*sin(x2)", "cos(x1)"]
    return Immersion(
        dim=2,
        components=[parse(c, 2) for c in comps],
        ambient=flat_metric(3, name="flat-r3"),
        domain=DomainBox(lo=(0.1, 0.1), hi=(3.0415926, 6.1831853)),
        name="round-s2",
    )


def sphere_warped_immersion():
    """The round sphere as a warped product: polar-angle leaf, rotation fiber."""
    im = sphere_immersion()
    im.warped = WarpedDecl(n1=1, n2=1, f=parse("sin(x1)", 1),
                           g2=line_metric("circle"))
    im.name = "round-s2-warped"
    return im


def torus_immersion():
    """Standard torus (radii 2 and 1) in flat R^3 as a warped product with
    leaf the tube angle; the rotation fiber is not minimal in the ambient."""
    comps = ["(2 + cos(x1))*cos(x2)", "(2 + cos(x1))*sin(x2)", "sin(x1)"]
    return Immersion(
        dim=2,
        components=[parse(c, 2) for c in comps],
        ambient=flat_metric(3, name="flat-r3"),
        warped=WarpedDecl(n1=1, n2=1, f=parse("2 + cos(x1)", 1),
                          g2=line_metric("circle")),
        domain=DomainBox(lo=(0.2, 0.1), hi=(2.9, 6.2)),
        name="torus",
    )


def sasakian_cr_immersion():
    """Contact CR-warped product in the standard Sasakian 5-chart: the leaf
    carries the invariant pair and the Reeb direction, the fiber rotates both
    coordinate pairs simultaneously; warping is half the orbit radius."""
    s = standard_sasakian_r5()
    comps = ["x1*cos(x4)", "x1*sin(x4)", "x2*cos(x4)", "x2*sin(x4)", "x3"]
    return Immersion(
        dim=4,
        components=[parse(c, 4) for c in comps],
        ambient=s.metric,
        structure=s,
        warped=WarpedDecl(n1=3, n2=1, f=parse("0.5*sqrt(x1^2 + x2^2)", 3),
                          g2=line_metric("circle")),
        domain=DomainBox(lo=(0.6, 0.4, -0.5, 0.1), hi=(1.6, 1.4, 0.5, 1.3)),
        name="sasakian-cr",
    )


def cylinder_immersion():
    comps = ["cos(x1)", "sin(x1)", "x2"]
    return Immersion(dim=2, components=[parse(c, 2) for c in comps],
                     ambient=flat_metric(3), name="cylinder",
                     domain=DomainBox(lo=(0.0, -1.0), hi=(6.2, 1.0)))


def box_points(box: DomainBox, n, seed=0):
    """Random points inside a domain box (tests only; the CLI uses Halton)."""
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        x = rng.uniform(np.array(box.lo), np.array(box.hi))
        if box.contains(x):
            pts.append(x)
    return pts
