"""Plain-text sectioned config files declaring metrics, structures, warped
products and immersions.

Format (stability contract, no nested includes)::

    # comment
    [metric flat_c2]
    dim = 4
    row_1 = "1", "0", "0", "0"
    ...
    domain_lo = -1, -1, -1, -1        # optional box
    domain_hi = 1, 1, 1, 1
    exclude_center = 0, 0             # optional excluded ball
    exclude_radius = 0.1
    exclude_axes = 1, 2               # 1-based axes the ball lives in

    [structure kahler_c2]
    kind = complex                    # or: contact
    metric = flat_c2
    j_row_1 = "0", "-1", "0", "0"     # complex: j_row_i
    # contact: phi_row_i, xi = ..., eta = ..., and optionally
    # expected_class = sasakian     # or kenmotsu, cosymplectic, nearly_cosymplectic

    [warped hyperbolic]
    leaf = line_t
    fiber = line_s
    f = "exp(x1)"

    [immersion chen_cr]
    dim = 3
    ambient = flat_c2
    components = "x1*cos(x3)", ...
    structure = kahler_c2             # optional
    warp_n1 = 2                       # optional warped declaration
    warp_n2 = 1
    warp_f = "sqrt(x1^2 + x2^2)"
    warp_fiber_metric = circle        # optional, identity if omitted
    domain_lo = ...
    domain_hi = ...

    [subject]
    kind = immersion                  # metric | structure | warped | immersion
    target = chen_cr

Values are comma-separated items: quoted expression strings, numbers, or
bare identifiers.  Expressions use the package grammar with variables
x1..xn of the owning chart.  A key that the section's builder does not read
(a misspelt key, or an optional key whose companion is missing) is an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from . import expr as dsl
from .errors import ConfigurationError
from .expr import ParseError
from .jets import DomainBox, ExcludedBall
from .riemann import MetricField
from .structures import CLASS_NAMES, AlmostComplexStructure, AlmostContactStructure
from .subman import Immersion, WarpedDecl
from .warped import WarpedMetric, assemble


@dataclass
class Section:
    kind: str
    name: str
    line: int
    values: dict[str, list] = field(default_factory=dict)
    lines: dict[str, int] = field(default_factory=dict)
    read: set[str] = field(default_factory=set)  # the keys its builder looked up


@dataclass
class BuiltConfig:
    """A loaded config: the metric, structure, warped metric or immersion
    that its [subject] section names."""

    subject: object


# ---------------------------------------------------------------------------
# Line-level parsing
# ---------------------------------------------------------------------------


def _split_items(raw: str, line_no: int) -> list:
    """Split a value string on commas outside quotes; items are quoted
    strings, numbers, or bare identifiers."""
    items: list = []
    buf = []
    in_quote = False
    pieces = []
    for ch in raw:
        if ch == '"':
            in_quote = not in_quote
            buf.append(ch)
        elif ch == "," and not in_quote:
            pieces.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    if in_quote:
        raise ConfigurationError(f"line {line_no}: unterminated string")
    pieces.append("".join(buf))
    for piece in pieces:
        tok = piece.strip()
        if not tok:
            raise ConfigurationError(f"line {line_no}: empty value item")
        if tok.startswith('"') and tok.endswith('"') and len(tok) >= 2:
            items.append(("expr", tok[1:-1]))
            continue
        try:
            items.append(("num", float(tok)))
            continue
        except ValueError:
            pass
        if all(c.isalnum() or c in "_-" for c in tok):
            items.append(("word", tok))
        else:
            raise ConfigurationError(f"line {line_no}: bad value item {tok!r}")
    return items


def _strip_comment(line: str) -> str:
    out = []
    in_quote = False
    for ch in line:
        if ch == '"':
            in_quote = not in_quote
        if ch == "#" and not in_quote:
            break
        out.append(ch)
    return "".join(out)


def parse_config_text(text: str) -> list[Section]:
    sections: list[Section] = []
    current: Section | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigurationError(f"line {line_no}: malformed section header")
            head = line[1:-1].split()
            if len(head) == 1 and head[0] == "subject":
                current = Section("subject", "", line_no)
            elif len(head) == 2 and head[0] != "subject":
                current = Section(head[0], head[1], line_no)
            else:
                raise ConfigurationError(f"line {line_no}: section header needs "
                                         f"'[kind name]' or '[subject]'")
            sections.append(current)
            continue
        if current is None:
            raise ConfigurationError(f"line {line_no}: key outside any section")
        if "=" not in line:
            raise ConfigurationError(f"line {line_no}: expected 'key = value'")
        key, _, raw_val = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigurationError(f"line {line_no}: empty key")
        if key in current.values:
            raise ConfigurationError(f"line {line_no}: duplicate key {key!r}")
        current.values[key] = _split_items(raw_val, line_no)
        current.lines[key] = line_no
    return sections


# ---------------------------------------------------------------------------
# Section builders
# ---------------------------------------------------------------------------


def _want(sec: Section, key: str, kinds: tuple[str, ...] | None = None) -> list:
    sec.read |= {key}
    if key not in sec.values:
        raise ConfigurationError(
            f"[{sec.kind} {sec.name}] (line {sec.line}): missing key {key!r}")
    items = sec.values[key]
    if kinds is not None:
        for k, _ in items:
            if k not in kinds:
                raise ConfigurationError(
                    f"[{sec.kind} {sec.name}] key {key!r}: expected {kinds}")
    return items


def _numbers(sec: Section, key: str) -> list[float]:
    return [v for _, v in _want(sec, key, ("num",))]


def _integers(sec: Section, key: str, lo: int, hi: int | None = None) -> list[int]:
    """The key's numbers, each an integer of at least lo (and at most hi)."""
    vals = _numbers(sec, key)
    if not all(v.is_integer() and lo <= v and (hi is None or v <= hi) for v in vals):
        bound = f">= {lo}" if hi is None else f"from {lo} to {hi}"
        raise ConfigurationError(
            f"[{sec.kind} {sec.name}] key {key!r}: integers {bound} expected")
    return [int(v) for v in vals]


def _one(sec: Section, key: str, vals: list):
    """The key's one value, read by the caller; any other count raises."""
    if len(vals) != 1:
        raise ConfigurationError(f"[{sec.kind} {sec.name}] {key}: one entry expected")
    return vals[0]


def _word(sec: Section, key: str) -> str:
    items = _want(sec, key, ("word",))
    if len(items) != 1:
        raise ConfigurationError(f"[{sec.kind} {sec.name}] key {key!r}: one name expected")
    return items[0][1]


def _expr_items(sec: Section, key: str, dim: int) -> list:
    out = []
    for kind, v in _want(sec, key):
        if kind == "expr":
            try:
                out.append(dsl.parse(v, dim))
            except ParseError as err:
                raise ConfigurationError(
                    f"[{sec.kind} {sec.name}] key {key!r} "
                    f"(line {sec.lines[key]}): {err}") from err
        elif kind == "num":
            out.append(dsl.const(v))
        else:
            raise ConfigurationError(
                f"[{sec.kind} {sec.name}] key {key!r}: expression or number expected")
    return out


def _expr_row(sec: Section, key: str, dim: int, count: int) -> list:
    """The key's expressions in x1..x_dim, exactly count of them."""
    items = _expr_items(sec, key, dim)
    if len(items) != count:
        entries = "one entry" if count == 1 else f"{count} entries"
        raise ConfigurationError(f"[{sec.kind} {sec.name}] {key}: {entries} expected")
    return items


def _domain(sec: Section, dim: int) -> DomainBox | None:
    if "domain_lo" not in sec.values and "domain_hi" not in sec.values:
        return None
    lo = _numbers(sec, "domain_lo")
    hi = _numbers(sec, "domain_hi")
    where = f"[{sec.kind} {sec.name}]"
    if len(lo) != dim or len(hi) != dim:
        raise ConfigurationError(f"{where}: domain bounds must have {dim} entries")
    if not all(a < b and math.isfinite(b - a) for a, b in zip(lo, hi)):
        raise ConfigurationError(f"{where}: domain_lo must lie below domain_hi, "
                                 f"a finite distance apart, on every axis")
    balls = ()
    if "exclude_center" in sec.values:
        center = _numbers(sec, "exclude_center")
        radius = _one(sec, "exclude_radius", _numbers(sec, "exclude_radius"))
        if not 0 < radius < math.inf:
            raise ConfigurationError(f"{where}: exclude_radius must be positive and finite")
        if "exclude_axes" in sec.values:
            axes = _integers(sec, "exclude_axes", 1, dim)
        else:
            axes = list(range(1, len(center) + 1))
        if len(center) != len(axes) or len(center) > dim \
                or not all(map(math.isfinite, center)):
            raise ConfigurationError(f"{where}: exclude_center needs one finite entry per "
                                     f"excluded axis, at most {dim}")
        balls = (ExcludedBall(center=tuple(center), radius=radius,
                              axes=tuple(a - 1 for a in axes)),)
    return DomainBox(lo=tuple(lo), hi=tuple(hi), balls=balls)


def _build_metric(sec: Section) -> MetricField:
    dim = _one(sec, "dim", _integers(sec, "dim", 1))
    rows = [_expr_row(sec, f"row_{i}", dim, dim) for i in range(1, dim + 1)]
    return MetricField(dim, rows, domain=_domain(sec, dim), name=sec.name)


def _build_structure(sec: Section, metrics: dict[str, MetricField]):
    kind = _word(sec, "kind")
    metric = metrics.get(_word(sec, "metric"))
    if metric is None:
        raise ConfigurationError(f"[structure {sec.name}]: unknown metric")
    dim = metric.dim
    if kind == "complex":
        rows = [_expr_row(sec, f"j_row_{i}", dim, dim) for i in range(1, dim + 1)]
        return AlmostComplexStructure(metric, rows, name=sec.name)
    if kind == "contact":
        rows = [_expr_row(sec, f"phi_row_{i}", dim, dim) for i in range(1, dim + 1)]
        xi = _expr_row(sec, "xi", dim, dim)
        eta = _expr_row(sec, "eta", dim, dim)
        klass = _word(sec, "expected_class") if "expected_class" in sec.values else None
        if klass not in (None, *CLASS_NAMES):
            raise ConfigurationError(f"[structure {sec.name}]: unknown structure class {klass!r}")
        return AlmostContactStructure(metric, rows, xi, eta, name=sec.name, klass=klass)
    raise ConfigurationError(f"[structure {sec.name}]: kind must be complex or contact")


def _build_warped(sec: Section, metrics: dict[str, MetricField]) -> WarpedMetric:
    leaf = metrics.get(_word(sec, "leaf"))
    fiber = metrics.get(_word(sec, "fiber"))
    if leaf is None or fiber is None:
        raise ConfigurationError(f"[warped {sec.name}]: unknown factor metric")
    f = _expr_row(sec, "f", leaf.dim, 1)[0]
    return assemble(leaf, fiber, f, name=sec.name)


def _build_immersion(sec: Section, metrics, structures) -> Immersion:
    dim = _one(sec, "dim", _integers(sec, "dim", 1))
    ambient = metrics.get(_word(sec, "ambient"))
    if ambient is None:
        raise ConfigurationError(f"[immersion {sec.name}]: unknown ambient metric")
    comps = _expr_items(sec, "components", dim)
    if len(comps) != ambient.dim:
        raise ConfigurationError(
            f"[immersion {sec.name}]: {ambient.dim} components expected")
    structure = None
    if "structure" in sec.values:
        structure = structures.get(_word(sec, "structure"))
        if structure is None:
            raise ConfigurationError(f"[immersion {sec.name}]: unknown structure")
        if structure.dim != ambient.dim:
            raise ConfigurationError(f"[immersion {sec.name}]: structure of dimension "
                                     f"{structure.dim} on an ambient of {ambient.dim}")
    warped = None
    if "warp_n1" in sec.values:
        n1 = _one(sec, "warp_n1", _integers(sec, "warp_n1", 1))
        n2 = _one(sec, "warp_n2", _integers(sec, "warp_n2", 1))
        if n1 + n2 != dim:
            raise ConfigurationError(
                f"[immersion {sec.name}]: warp blocks must fill the chart")
        f = _expr_row(sec, "warp_f", n1, 1)[0]
        g2 = None
        if "warp_fiber_metric" in sec.values:
            g2 = metrics.get(_word(sec, "warp_fiber_metric"))
            if g2 is None:
                raise ConfigurationError(
                    f"[immersion {sec.name}]: unknown fiber metric")
            if g2.dim != n2:
                raise ConfigurationError(f"[immersion {sec.name}]: fiber metric of "
                                         f"dimension {g2.dim} for a fiber of {n2}")
        warped = WarpedDecl(n1=n1, n2=n2, f=f, g2=g2)
    return Immersion(dim=dim, components=comps, ambient=ambient,
                     structure=structure, warped=warped,
                     domain=_domain(sec, dim), name=sec.name)


def build_config(sections: list[Section]) -> BuiltConfig:
    pools: dict[str, dict] = {"metric": {}, "structure": {}, "warped": {}, "immersion": {}}
    metrics, structures = pools["metric"], pools["structure"]
    subject_kind = subject_name = None
    first: dict[tuple[str, str], int] = {}  # (kind, name) -> line of its section

    for sec in sections:
        if (sec.kind, sec.name) in first:
            label = f"{sec.kind} {sec.name}".strip()
            raise ConfigurationError(f"line {sec.line}: duplicate section [{label}] "
                                     f"(first at line {first[sec.kind, sec.name]})")
        first[sec.kind, sec.name] = sec.line
        if sec.kind == "metric":
            metrics[sec.name] = _build_metric(sec)
        elif sec.kind == "structure":
            structures[sec.name] = _build_structure(sec, metrics)
        elif sec.kind == "warped":
            pools["warped"][sec.name] = _build_warped(sec, metrics)
        elif sec.kind == "immersion":
            pools["immersion"][sec.name] = _build_immersion(sec, metrics, structures)
        elif sec.kind == "subject":
            subject_kind = _word(sec, "kind")
            subject_name = _word(sec, "target")
        else:
            raise ConfigurationError(
                f"line {sec.line}: unknown section kind {sec.kind!r}")
        unread = [key for key in sec.values if key not in sec.read]
        if unread:
            raise ConfigurationError(f"line {sec.lines[unread[0]]}: [{sec.kind} {sec.name}] "
                                     f"does not read key {unread[0]!r}")

    if subject_kind is None:
        raise ConfigurationError("config declares no [subject] section")
    if subject_kind not in pools:
        raise ConfigurationError(f"subject kind {subject_kind!r} unknown")
    if subject_name not in pools[subject_kind]:
        raise ConfigurationError(
            f"subject {subject_name!r} not found among {subject_kind} sections")
    return BuiltConfig(pools[subject_kind][subject_name])


def load_config(path: str | Path) -> BuiltConfig:
    """The config in the UTF-8 file at path, a byte-order mark skipped."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as err:
        reason = getattr(err, "strerror", None) or err
        raise ConfigurationError(f"cannot read config {str(path)!r}: {reason}") from None
    return build_config(parse_config_text(text))


def load_config_text(text: str) -> BuiltConfig:
    return build_config(parse_config_text(text))
