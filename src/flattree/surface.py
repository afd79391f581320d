"""Metrized half-trees: horizontally periodic surfaces with exact arithmetic.

A surface is a half-tree whose ports carry saddle lengths and whose vertices
carry cylinder heights and twists, all ``fractions.Fraction``.  The layout
convention, fixed once here and relied on everywhere:

* the bottom circle of cylinder ``v`` lists its ports in stored order at
  cumulative positions ``a_p`` starting from 0;
* the top circle carries the rotation-by-pi image: port ``p`` occupies
  ``[(L - a_p - len_p) mod L, (L - a_p) mod L)``;
* vertical flow inside ``v`` sends bottom ``x`` to top ``(x + t_v) mod L``;
* the saddle of port ``p`` ("seam p") is the bottom copy of ``p`` glued by
  translation onto the top copy of ``partner(p)``, left end to left end.

With this marking, bottom ``x`` maps to top ``(-x) mod L`` under the
involution for every twist, which is what makes rotation by pi an involution
of the glued surface and the whole hyperelliptic bookkeeping twist-free.

The convention is written once, in integers, by :func:`_convention`:
:func:`_layout` scales every position by ``D``, the lcm of the denominators
of all lengths, twists and mark offsets, and keeps the result on the
surface, never rescaled.  Every walk over many positions (the corner walk,
the vertical flow, both collapses, covers, :func:`area`) reads that layout,
and results become ``Fraction`` again, as ``x / D``, only at the API edge;
the methods ``port_start`` and ``top_start`` are such views of one seam.
:func:`_on` is the one scaler and :func:`_circles` the one circle table.  The
corner walk, its sorted classes and the Weierstrass report are kept next to
the layout.  Certification is one integer kernel, :func:`_certify`: every
surface certifies on its own layout, and each collapse on the one layout it
builds from that; no other representation of a surface exists here.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, fields
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .halftree import (
    HalfTree,
    SkeletonError,
    Stratum,
    _find,
    canonical_form,
    halftree_from_json,
    halftree_to_json,
    stratum_of,
    validate,
)


class MetricError(ValueError):
    """Raised when metric data violates a surface precondition."""


# the schemas' rational literal; ``Fraction`` would also expand exponents
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def fraction_from_string(s: object) -> Fraction:
    if type(s) is int:
        return Fraction(s)
    if not isinstance(s, str):
        raise MetricError(f"rational value must be a string like '3/4', got {s!r}")
    if _RATIONAL.fullmatch(s) is None:
        raise MetricError(f"bad rational literal {s!r}: expected an integer or 'p/q'")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise MetricError(f"bad rational literal {s!r}: {exc}") from None


def fraction_to_string(x: Fraction) -> str:
    return str(x)


@dataclass(frozen=True, order=True)
class Mark:
    """A marked point on the saddle of ``port``, ``offset`` from its left end."""

    port: int
    offset: Fraction


@dataclass(frozen=True)
class HyperellipticSurface:
    """Immutable surface presentation; use :func:`build` rather than the raw constructor."""

    skeleton: HalfTree
    lengths: dict[int, Fraction]
    heights: dict[int, Fraction]
    twists: dict[int, Fraction]
    marks: tuple[Mark, ...] = ()

    def __getstate__(self) -> dict:
        """The fields only: values kept by :func:`_kept` stay out of copies and pickles."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def circumference(self, v: int) -> Fraction:
        return sum((self.lengths[p] for p in self.skeleton.ports(v)), Fraction(0))

    def port_start(self, p: int) -> Fraction:
        """Bottom-circle position where the copy of ``p`` begins, read off :func:`_layout`."""
        lay = _layout(self)
        if p not in lay.seams:
            raise SkeletonError(f"unknown port {p}")
        return Fraction(lay.seams[p][0][1], lay.scale)

    def top_start(self, p: int) -> Fraction:
        """Top-circle position where the rotation image of ``p`` begins, read off :func:`_layout`.

        That image is the top side of the seam of ``p``'s partner (of ``p``
        itself when self-glued).
        """
        q = self.skeleton.partner(p)
        lay = _layout(self)
        return Fraction(lay.seams[p if q is None else q][1][1], lay.scale)


@dataclass(frozen=True)
class DisjointSurface:
    """A finite disjoint union, as produced by degeneration."""

    components: tuple[HyperellipticSurface, ...]
    notices: tuple[str, ...] = ()


@dataclass(frozen=True)
class _Layout:
    """The layout convention of one surface, every position multiplied by ``scale``.

    ``seams[p]`` is ((vertex above, bottom start), (vertex below, top start))
    of seam ``p``, in ``all_ports`` order, and ``marks`` are sorted.  In the
    layout a horizontal collapse reglues, keys are surviving cylinders and
    new seam ids, and ``twist`` holds each cylinder's flow drift.
    """

    scale: int
    circumference: dict[int, int]
    twist: dict[int, int]
    length: dict[int, int]
    seams: dict[int, tuple[tuple[int, int], tuple[int, int]]]
    marks: tuple[tuple[int, int], ...]


def _kept(s: HyperellipticSurface, name: str, make: Callable[[], object]):
    """``make()`` on first use, kept in ``s.__dict__`` outside the fields (``==``, ``repr``, JSON)."""
    if name not in s.__dict__:
        s.__dict__[name] = make()
    return s.__dict__[name]


def _layout(s: HyperellipticSurface) -> _Layout:
    """Integer layout of ``s`` on ``D``, the lcm of all length, twist and mark offset denominators.

    Built on first use and kept on ``s``; it is the only layout of ``s``.
    Read by the corner walk, certification, flow, collapse, covers, canonical
    metrics, :func:`area` and the position views ``port_start`` and ``top_start``.
    """
    return _kept(s, "_lay", lambda: _new_layout(s))


def _on(x: Fraction, D: int) -> int:
    """``x * D`` as an int, for an ``x`` whose denominator divides ``D``: the one scaler."""
    return x.numerator * (D // x.denominator)


def _new_layout(s: HyperellipticSurface) -> _Layout:
    t = s.skeleton
    values = [*s.lengths.values(), *s.twists.values(), *(m.offset for m in s.marks)]
    D = math.lcm(*(x.denominator for x in values))
    length = {p: _on(x, D) for p, x in s.lengths.items()}
    twist = {v: _on(x, D) for v, x in s.twists.items()}
    marks = tuple(sorted((m.port, _on(m.offset, D)) for m in s.marks))
    return _convention(t, {v: t.ports(v) for v in t.vertices}, D, length, twist, marks)


def _convention(
    t: HalfTree,
    ports: Mapping[int, Sequence[int]],
    D: int,
    length: dict[int, int],
    twist: dict[int, int],
    marks: tuple[tuple[int, int], ...],
) -> _Layout:
    """The layout on scale ``D`` of cylinders ``ports`` (all of ``t``, or a part closed under partners)."""
    circumference: dict[int, int] = {}
    bottom: dict[int, int] = {}
    for v, plist in ports.items():
        a = 0
        for p in plist:
            bottom[p], a = a, a + length[p]
        circumference[v] = a
    seams = {}
    for p, a in bottom.items():
        q = t.partner(p)
        q = p if q is None else q
        w = t.vertex_of(q)
        L = circumference[w]
        seams[p] = ((t.vertex_of(p), a), (w, (L - bottom[q] - length[q]) % L))
    return _Layout(D, circumference, twist, length, seams, marks)


def _circles(lay: _Layout) -> tuple[dict[int, list[tuple[int, int]]], dict[int, list[tuple[int, int]]]]:
    """Per cylinder, the ``(start, seam)`` lists of its bottom and top circles, stably sorted by start.

    Sides on cylinders that ``lay`` lacks go to a list no one reads; :func:`_certify` reports them.
    """
    bottoms = {v: [] for v in lay.circumference}
    tops = {v: [] for v in lay.circumference}
    unknown: list[tuple[int, int]] = []
    for p, ((v, a), (w, b)) in lay.seams.items():
        bottoms.get(v, unknown).append((a, p))
        tops.get(w, unknown).append((b, p))
    for table in (bottoms, tops):
        for segs in table.values():
            segs.sort(key=itemgetter(0))
    return bottoms, tops


def _seam_marks(lay: _Layout) -> dict[int, list[int]]:
    """The ascending mark offsets of ``lay`` on each seam that carries marks."""
    marks: dict[int, list[int]] = {}
    for p, u in lay.marks:
        marks.setdefault(p, []).append(u)
    return marks


def _exact(x: object) -> Fraction:
    """``x`` itself when it is exactly a ``Fraction``, else ``Fraction(x)``."""
    return x if type(x) is Fraction else Fraction(x)


def build(
    skeleton: HalfTree,
    lengths: Mapping[int, Fraction],
    heights: Mapping[int, Fraction],
    twists: Mapping[int, Fraction],
    marks: Iterable[Mark] = (),
) -> HyperellipticSurface:
    """Validate and normalize a surface presentation.

    Lengths must be positive and equal across each full edge (the involution
    exchanges the two copies isometrically); heights positive; twists are
    reduced into ``[0, circumference)``.  Marks must avoid saddle endpoints
    and be closed under the involution ``(p, u) <-> (partner(p), len - u)``.
    """
    diag = validate(skeleton)
    if not diag.ok:
        raise SkeletonError(f"invalid skeleton: {diag.first}")
    lens: dict[int, Fraction] = {}
    for p in skeleton.all_ports:
        if p not in lengths:
            raise MetricError(f"no length for port {p}")
        val = _exact(lengths[p])
        if val.numerator <= 0:
            raise MetricError(f"length of port {p} must be positive, got {val}")
        lens[p] = val
    extra = set(lengths) - set(skeleton.all_ports)
    if extra:
        raise MetricError(f"lengths given for unknown ports {sorted(extra)}")
    for p, q in skeleton.edges():
        if lens[p] != lens[q]:
            raise MetricError(
                f"paired ports {p} and {q} have different lengths {lens[p]} != {lens[q]}"
            )
    hts: dict[int, Fraction] = {}
    tws: dict[int, Fraction] = {}
    for v in skeleton.vertices:
        if v not in heights:
            raise MetricError(f"no height for vertex {v}")
        h = _exact(heights[v])
        if h.numerator <= 0:
            raise MetricError(f"height of vertex {v} must be positive, got {h}")
        hts[v] = h
    known = set(skeleton.vertices)
    for v in set(heights) | set(twists):
        if v not in known:
            raise MetricError(f"metric given for unknown vertex {v}")
    for v in skeleton.vertices:
        tw = _exact(twists.get(v, 0))
        d = math.lcm(tw.denominator, *(lens[p].denominator for p in skeleton.ports(v)))
        n = _on(tw, d)
        L = sum(_on(lens[p], d) for p in skeleton.ports(v))
        tws[v] = tw if 0 <= n < L else Fraction(n % L, d)
    mark_list = tuple(sorted(Mark(m.port, _exact(m.offset)) for m in marks))
    mark_set = set(mark_list)
    if len(mark_set) != len(mark_list):
        raise MetricError("duplicate marks")
    port_set = set(skeleton.all_ports)
    for m in mark_list:
        if m.port not in port_set:
            raise MetricError(f"mark on unknown port {m.port}")
        if not 0 < m.offset < lens[m.port]:
            raise MetricError(f"mark offset {m.offset} outside the open saddle (0, {lens[m.port]})")
        q = skeleton.partner(m.port)
        q = m.port if q is None else q
        if Mark(q, lens[m.port] - m.offset) not in mark_set:
            raise MetricError(
                f"marks not involution-closed: missing partner of ({m.port}, {m.offset})"
            )
    return HyperellipticSurface(skeleton, lens, hts, tws, mark_list)


def with_marks(s: HyperellipticSurface, marks: Iterable[Mark]) -> HyperellipticSurface:
    return build(s.skeleton, s.lengths, s.heights, s.twists, tuple(s.marks) + tuple(marks))


def involution_orbit(s: HyperellipticSurface, mark: Mark) -> tuple[Mark, ...]:
    """The mark together with its involution image (a singleton at a midpoint)."""
    q = s.skeleton.partner(mark.port)
    q = mark.port if q is None else q
    other = Mark(q, s.lengths[mark.port] - mark.offset)
    return (mark,) if other == mark else tuple(sorted((mark, other)))


def area(s: HyperellipticSurface) -> Fraction:
    """Total area, one integer sum over the circumferences of the kept layout."""
    return _area(_layout(s), s.heights, s.skeleton.vertices)


def _area(lay: _Layout, heights: Mapping[int, Fraction], cylinders: Sequence[int]) -> Fraction:
    """Area of ``cylinders`` of ``lay``: ``sum(h_v * L_v)`` in ints, then one ``Fraction``."""
    H = math.lcm(*(heights[v].denominator for v in cylinders))
    L = lay.circumference
    total = sum(L[v] * _on(heights[v], H) for v in cylinders)
    return Fraction(total, lay.scale * H)


def random_metric(
    skeleton: HalfTree, seed: int, *, max_numerator: int = 8, max_denominator: int = 8
) -> HyperellipticSurface:
    """Deterministic pseudo-random surface on a skeleton, for sweeps.

    Paired ports share one length draw, keeping the metric involution-valid;
    twists are drawn beyond one circumference and rely on normalization.
    """
    try:
        encoding = canonical_form(skeleton).encoding
    except SkeletonError:
        # canonical_form has validated it and kept the verdict; report it as build does
        raise SkeletonError(f"invalid skeleton: {validate(skeleton).first}") from None
    rng = random.Random(f"{seed}:{encoding}")

    def frac() -> Fraction:
        return Fraction(rng.randint(1, max_numerator), rng.randint(1, max_denominator))

    lengths: dict[int, Fraction] = {}
    for obj in skeleton.edge_objects():
        val = frac()
        for p in obj:
            lengths[p] = val
    heights = {v: frac() for v in skeleton.vertices}
    twists = {v: frac() * rng.randint(0, 6) for v in skeleton.vertices}
    return build(skeleton, lengths, heights, twists)


# -- singularity structure ---------------------------------------------------

Corner = tuple[int, str, Fraction]


@dataclass(frozen=True)
class SingularityProfile:
    """Zero orders of the glued surface; order 0 means a regular marked point."""

    orders: tuple[int, ...]
    corner_orders: tuple[int, ...]
    corner_classes: tuple[tuple[Corner, ...], ...]
    decoration_count: int
    genus: int


def _corner_walk(lay: _Layout) -> list[list[tuple[int, str, int]]]:
    """Identification classes of boundary-circle corner points under regluing, in layout units."""
    parent: dict[tuple[int, str, int], tuple[int, str, int]] = {}

    def union(x, y) -> None:
        for z in (x, y):
            parent.setdefault(z, z)
        rx, ry = _find(parent, x), _find(parent, y)
        if rx != ry:
            parent[rx] = ry

    L = lay.circumference
    for p, ((v, a), (w, ts)) in lay.seams.items():
        ell = lay.length[p]
        union((v, "b", a), (w, "t", ts))
        union((v, "b", (a + ell) % L[v]), (w, "t", (ts + ell) % L[w]))
    groups: dict[tuple[int, str, int], list[tuple[int, str, int]]] = {}
    for x in parent:
        groups.setdefault(_find(parent, x), []).append(x)
    return list(groups.values())


def _corners(s: HyperellipticSurface) -> list[list[tuple[int, str, int]]]:
    """The corner walk of ``_layout(s)``, kept on ``s``."""
    return _kept(s, "_walk", lambda: _corner_walk(_layout(s)))


def _profile_classes(t: HalfTree, lay: _Layout, walk: Sequence) -> tuple[list[tuple], Stratum]:
    """Sorted corner classes of ``walk``, the corner walk of ``lay``, in profile order, and the stratum.

    A class of odd size, or zero orders other than the stratum's, raise
    :class:`MetricError`.
    """
    classes = sorted((tuple(sorted(g)) for g in walk), key=lambda g: (-len(g), g))
    for g in classes:
        if len(g) % 2 != 0:
            g = tuple((v, e, Fraction(x, lay.scale)) for v, e, x in g)
            raise MetricError(f"corner class of odd size {len(g)}: {g}")
    corner_orders = [len(g) // 2 - 1 for g in classes]
    expected = stratum_of(t)
    if corner_orders != sorted(expected.orders, reverse=True):
        raise MetricError(
            f"corner walk produced orders {corner_orders}, stratum expects {expected.orders}"
        )
    return classes, expected


def _classes(s: HyperellipticSurface) -> tuple[list[tuple], Stratum]:
    """The corner classes of ``s`` in profile order and layout units, and its stratum, kept on ``s``."""
    return _kept(s, "_classes", lambda: _profile_classes(s.skeleton, _layout(s), _corners(s)))


def singularity_profile(s: HyperellipticSurface) -> SingularityProfile:
    """Walk the corners and read off cone angles.

    Each identification class of ``k`` corner points has cone angle ``k * pi``
    and zero order ``k/2 - 1``.  Decoration marks contribute extra order-0
    entries.  The result is cross-checked against the stratum formula before
    returning; a mismatch would mean the gluing conventions are broken, so it
    raises rather than reports.
    """
    classes, expected = _classes(s)
    D = _layout(s).scale
    corner_orders = tuple(len(g) // 2 - 1 for g in classes)
    return SingularityProfile(
        orders=corner_orders + (0,) * len(s.marks),
        corner_orders=corner_orders,
        corner_classes=tuple(tuple((v, e, Fraction(x, D)) for v, e, x in g) for g in classes),
        decoration_count=len(s.marks),
        genus=expected.genus,
    )


# -- involution and Weierstrass data ----------------------------------------


@dataclass(frozen=True)
class WeierstrassReport:
    points: tuple[tuple, ...]
    count: int
    expected: int
    formula_residual: int

    @property
    def ok(self) -> bool:
        return self.count == self.expected and self.formula_residual == 0


def _fixed_classes(lay: _Layout, classes: Sequence[Sequence[tuple[int, str, int]]]) -> list[int]:
    """Indices of the corner classes, in layout units, that rotation by pi maps onto themselves.

    On a broken presentation the image of a corner may be no corner at all;
    its class then counts as not fixed.
    """
    index = {c: i for i, g in enumerate(classes) for c in g}
    L = lay.circumference
    flip = {"b": "t", "t": "b"}
    return [
        i
        for i, g in enumerate(classes)
        if {index.get((v, flip[side], (-x) % L[v])) for v, side, x in g} == {i}
    ]


def weierstrass_points(s: HyperellipticSurface) -> WeierstrassReport:
    """Fixed points of the rotation-by-pi involution.

    Two interior points per cylinder on the half-height circle, one midpoint
    per self-glued saddle, plus every corner class invariant under the
    involution.  The count is compared against ``2g + 2`` and against the
    closed formula ``sum(deg_v + 2) - 2 * #edges + #fixed corner classes``.
    Kept on ``s``; ``"corner-class"`` indices are those of the raw corner walk.
    """
    return _kept(s, "_weierstrass", lambda: _weierstrass(s))


def _weierstrass(s: HyperellipticSurface) -> WeierstrassReport:
    t = s.skeleton
    lay = _layout(s)
    D2 = 2 * lay.scale
    points: list[tuple] = []
    for v in t.vertices:
        L2 = 2 * lay.circumference[v]
        h = s.heights[v] / 2
        # -twist / 2 and the point half a circumference on, mod L, over 2D
        x0 = -lay.twist[v] % L2
        points.append(("core", v, Fraction(x0, D2), h))
        points.append(("core", v, Fraction((x0 + L2 // 2) % L2, D2), h))
    for p in t.half_edge_ports():
        points.append(("midpoint", p, s.lengths[p] / 2))
    classes = _corners(s)
    fixed = _fixed_classes(lay, classes)
    for i in fixed:
        v, e, x = min(classes[i])
        points.append(("corner-class", i, (v, e, Fraction(x, lay.scale))))
    g_ = stratum_of(t).genus
    count = len(points)
    residual = (
        sum(t.degree(v) + 2 for v in t.vertices) - 2 * len(t.edges()) + len(fixed)
    ) - (2 * g_ + 2)
    return WeierstrassReport(
        points=tuple(points), count=count, expected=2 * g_ + 2, formula_residual=residual
    )


@dataclass(frozen=True)
class InvolutionReport:
    ok: bool
    fixed_point_count: int
    expected_fixed_points: int
    failures: tuple[str, ...]


def involution_check(s: HyperellipticSurface) -> InvolutionReport:
    """Certify the rotation involution on a built surface.

    Runs the glued-level certification (which searches for per-cylinder
    alignments and checks global seam consistency) and the Weierstrass count,
    both kept on ``s`` with the layout and corner walk.  Distances need
    no separate check: inside a cylinder the involution is
    ``j(x, y) = (-tw - x mod L, h - y)``, which only flips the sign of
    differences, so ``min(dx, L - dx)`` and ``|y1 - y2|`` are preserved for
    every ``L``, ``h`` and ``tw``.
    """
    failures = list(_certified(s).failures)
    wr = weierstrass_points(s)
    if not wr.ok:
        failures.append(
            f"fixed point count {wr.count} != {wr.expected} or formula residual {wr.formula_residual}"
        )
    return InvolutionReport(
        ok=not failures,
        fixed_point_count=wr.count,
        expected_fixed_points=wr.expected,
        failures=tuple(failures),
    )


# -- certification -----------------------------------------------------------


@dataclass(frozen=True)
class CertifyResult:
    """Outcome of certifying one layout.

    When ``ok``, each connected component has been re-expressed as a built
    surface and the seam involution is recorded; otherwise ``failures`` names
    the obstruction, including the offending saddle pair when the per-cylinder
    alignments cannot be made globally consistent.
    """

    ok: bool
    components: tuple[HyperellipticSurface, ...]
    seam_involution: dict[int, int]
    alignments: dict[int, Fraction]
    failures: tuple[str, ...]


def _certify(lay: _Layout, heights: Mapping[int, Fraction]) -> CertifyResult:
    """Decide whether a layout is a disjoint union of rotation-symmetric surfaces.

    Cylinders are the keys of ``lay.circumference``, ``lay.twist`` is each
    cylinder's flow drift and ``heights`` its height.  Per cylinder, candidate
    alignments ``kappa`` (bottom ``x`` pairs with top ``(kappa - x) mod L``)
    match the bottom partition onto the top one with lengths reversed and
    marks onto marks.  A backtracking pass then forces every seam's two
    induced images to agree; the first consistent assignment in ascending
    ``kappa`` order wins, so certifying a built surface reproduces its twists
    exactly.  Positions become ``Fraction`` again, over ``lay.scale``, only in
    the alignments, the rebuilt components and failure text.
    """
    D = lay.scale
    L, drifts, length, seams, marks = lay.circumference, lay.twist, lay.length, lay.seams, lay.marks

    def refuse(failure: str) -> CertifyResult:
        return CertifyResult(False, (), {}, {}, (failure,))

    # each circle must be tiled exactly by the seams that start on it
    bottoms, tops = _circles(lay)
    failures: list[str] = []
    for sid, sides in seams.items():
        if length[sid] <= 0:
            failures.append(f"seam {sid} has nonpositive length")
        failures += [f"seam {sid} references unknown cylinder {cyl}" for cyl, _ in sides if cyl not in L]
    for cyl, circ in L.items():
        if circ <= 0 or heights[cyl] <= 0:
            failures.append(f"cylinder {cyl} has nonpositive dimensions")
        for table, side in ((bottoms, "bottom"), (tops, "top")):
            segs = table[cyl]
            pos = 0
            for start, sid in segs:
                if start != pos:
                    failures.append(
                        f"{side} circle of cylinder {cyl} is not tiled at position {Fraction(pos, D)}"
                    )
                    break
                pos += length[sid]
            else:
                if segs and pos != circ:
                    failures.append(
                        f"{side} circle of cylinder {cyl} covers {Fraction(pos, D)} "
                        f"of circumference {Fraction(circ, D)}"
                    )
                if not segs:
                    failures.append(f"{side} circle of cylinder {cyl} carries no seams")
    if failures:
        return CertifyResult(False, (), {}, {}, tuple(failures))

    bottom_marks: dict[int, set[int]] = {c: set() for c in L}
    top_marks: dict[int, set[int]] = {c: set() for c in L}
    for sid, u in marks:
        if sid not in seams:
            return refuse(f"mark on unknown seam {sid}")
        if not 0 < u < length[sid]:
            return refuse(f"mark offset {Fraction(u, D)} outside seam {sid}")
        (a, x), (b, y) = seams[sid]
        bottom_marks[a].add(x + u)
        top_marks[b].add(y + u)

    # candidate alignments per cylinder, ascending
    bottom_at = {c: dict(bottoms[c]) for c in L}
    top_at = {c: dict(tops[c]) for c in L}
    candidates: dict[int, list[int]] = {}
    for cyl, circ in L.items():
        x0, first = bottoms[cyl][0]
        ell, top = length[first], top_at[cyl]
        opts = []
        for y, tid in tops[cyl]:
            if length[tid] != ell:
                continue
            kappa = (y + x0 + ell) % circ
            if all(
                length.get(top.get((kappa - x - length[sid]) % circ)) == length[sid]
                for x, sid in bottoms[cyl]
            ) and {(kappa - x) % circ for x in bottom_marks[cyl]} == top_marks[cyl]:
                opts.append(kappa)
        if not opts:
            return refuse(f"cylinder {cyl}: no rotation aligns its bottom onto its top")
        candidates[cyl] = sorted(opts)

    parent = {c: c for c in L}

    touching: dict[int, list[int]] = {c: [] for c in L}
    for sid, ((a, _), (b, _)) in seams.items():
        touching[a].append(sid)
        if b != a:
            touching[b].append(sid)
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for c in L:
        groups.setdefault(_find(parent, c), []).append(c)
    components = [sorted(g) for g in sorted(groups.values())]

    kappas: dict[int, int] = {}

    def image(sid: int) -> int:
        """The seam whose top copy rotation by pi puts the bottom copy of ``sid`` on."""
        a, x = seams[sid][0]
        return top_at[a][(kappas[a] - x - length[sid]) % L[a]]

    def clash(sid: int) -> str | None:
        (a, _), (b, y) = seams[sid]
        if a not in kappas or b not in kappas:
            return None
        t1, t2 = image(sid), bottom_at[b][(kappas[b] - y - length[sid]) % L[b]]
        if t1 == t2:
            return None
        return f"seam {sid}: involution images disagree, saddle pair ({t1}, {t2})"

    # backtracking per component over its sorted cylinders, on an explicit
    # stack: ``tried[i]`` counts the candidates of ``comp[i]`` tried so far
    for comp in components:
        conflict = None
        tried = [0] * len(comp)
        i = 0
        while 0 <= i < len(comp):
            cyl = comp[i]
            opts = candidates[cyl]
            while tried[i] < len(opts):
                kappas[cyl] = opts[tried[i]]
                tried[i] += 1
                for sid in touching[cyl]:
                    msg = clash(sid)
                    if msg is not None:
                        conflict = msg
                        break
                else:
                    i += 1
                    break
                del kappas[cyl]
            else:
                tried[i] = 0
                i -= 1
                if i >= 0:
                    del kappas[comp[i]]
        if i < 0:
            return refuse(conflict or f"component {comp}: no consistent alignment")

    involution = {sid: image(sid) for sid in seams}
    for sid, tid in involution.items():
        if involution[tid] != sid:
            return refuse(f"seam map not involutive at ({sid}, {tid})")

    alignments = {c: Fraction(kappas[c], D) for comp in components for c in comp}
    surfaces = []
    for comp in components:
        ports_of = {c: [sid for _, sid in bottoms[c]] for c in comp}
        comp_seams = {sid for c in comp for sid in ports_of[c]}
        pairs = [(sid, involution[sid]) for sid in comp_seams if sid < involution[sid]]
        skeleton = HalfTree(ports_of, pairs)
        diag = validate(skeleton)
        if not diag.ok:
            error = f"reglued component {comp} is not a half-tree: {diag.first}"
            return CertifyResult(False, (), involution, alignments, (error,))
        comp_marks = sorted((sid, u) for sid, u in marks if sid in comp_seams)
        failure = _unchecked_build_failure(comp_marks, involution, length, D)
        if failure is not None:
            error = f"component {comp} fails to rebuild: {failure}"
            return CertifyResult(False, (), involution, alignments, (error,))
        # what ``build`` would return, in its dict orders; each twist is
        # already below L[c], which the tiling made the sum of c's lengths
        surfaces.append(
            HyperellipticSurface(
                skeleton,
                {sid: Fraction(length[sid], D) for c in comp for sid in ports_of[c]},
                {c: _exact(heights[c]) for c in comp},
                {c: Fraction((drifts[c] - kappas[c]) % L[c], D) for c in comp},
                tuple(Mark(sid, Fraction(u, D)) for sid, u in comp_marks),
            )
        )
    return CertifyResult(True, tuple(surfaces), involution, alignments, ())


def _unchecked_build_failure(
    marks: list[tuple[int, int]], involution: Mapping[int, int], length: Mapping[int, int], D: int
) -> str | None:
    """The text of :func:`build`'s first failing check that certification has not made.

    ``marks`` are one reglued component's sorted ``(seam, offset)`` pairs.
    :func:`_certify` made ``build``'s other checks, or implies them: an
    alignment maps each seam onto one of its own length, which the involution
    pairs it with.  Its mark check implies involution closure too, so no
    layout is known to reach that check; it stays as ``build`` makes it.
    """
    present = set(marks)
    if len(present) != len(marks):
        return "duplicate marks"
    for sid, u in marks:
        if (involution[sid], length[sid] - u) not in present:
            return f"marks not involution-closed: missing partner of ({sid}, {Fraction(u, D)})"
    return None


def _certified(s: HyperellipticSurface) -> CertifyResult:
    """``_certify(_layout(s), s.heights)``, kept on ``s``."""
    return _kept(s, "_cert", lambda: _certify(_layout(s), s.heights))


def extract_skeleton(s: HyperellipticSurface) -> HalfTree:
    """Recover the half-tree of a built surface through full certification.

    Deliberately certifies the surface's integer layout and reads the
    skeleton off the reglued component instead of reading ``s.skeleton``
    back, so the layout conventions are exercised end to end.  When the two
    are equal, ``s.skeleton`` itself is returned, so a canonical form kept
    on it is reused.
    """
    cert = _certified(s)
    if not cert.ok:
        raise MetricError(f"surface failed certification: {cert.failures[0]}")
    if len(cert.components) != 1:
        raise MetricError(f"expected one component, found {len(cert.components)}")
    skeleton = cert.components[0].skeleton
    return s.skeleton if skeleton == s.skeleton else skeleton


# -- isomorphism -------------------------------------------------------------


def canonical_metric(s: HyperellipticSurface):
    """Canonical total invariant: relabel by each minimizing flag, take the least.

    Rotating a port list so that the port at index ``r`` comes first requires
    the twist correction ``t -> t + 2 * (start of port r)``: the involution
    conjugates a bottom rotation into the opposite top rotation, so twists
    shift by twice the length moved past the origin.
    """
    t = s.skeleton
    cf = canonical_form(t)
    lay = _layout(s)  # shifts, twists and circumferences in ints over lay.scale
    outcomes = []
    for lab in cf.labelings:
        lengths = [None] * t.n_ports
        for p, np in lab.port_map.items():
            lengths[np] = s.lengths[p]
        heights = [None] * len(t.vertices)
        twists = [None] * len(t.vertices)
        for v, nv in lab.vertex_map.items():
            shift = lay.seams[t.ports(v)[lab.rotation[v]]][0][1]
            heights[nv] = s.heights[v]
            twists[nv] = Fraction((lay.twist[v] + 2 * shift) % lay.circumference[v], lay.scale)
        marks = tuple(sorted((lab.port_map[m.port], m.offset) for m in s.marks))
        outcomes.append((cf.encoding, tuple(lengths), tuple(heights), tuple(twists), marks))
    return min(outcomes)


def surfaces_isomorphic(a: HyperellipticSurface, b: HyperellipticSurface) -> bool:
    """Exact isomorphism as decorated surfaces (skeleton, metric, twists, marks)."""
    return canonical_metric(a) == canonical_metric(b)


# -- serialization -----------------------------------------------------------


def surface_to_json(s: HyperellipticSurface) -> dict:
    data = halftree_to_json(s.skeleton)
    data["lengths"] = {str(p): fraction_to_string(x) for p, x in sorted(s.lengths.items())}
    data["heights"] = {str(v): fraction_to_string(x) for v, x in sorted(s.heights.items())}
    data["twists"] = {str(v): fraction_to_string(x) for v, x in sorted(s.twists.items())}
    if s.marks:
        data["marks"] = [
            {"port": m.port, "offset": fraction_to_string(m.offset)} for m in s.marks
        ]
    return data


def _json_label(x: object, where: str) -> int:
    """An integer label from JSON: an int, or a string key such as ``"3"``."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str):
        try:
            return int(x)
        except ValueError:
            pass
    raise MetricError(f"{where}: label {x!r} is not an integer")


# the keys the shipped ``surface`` schema lists, at the top and in a mark
_SURFACE_KEYS = ("vertices", "pairs", "lengths", "heights", "twists", "marks")
_MARK_KEYS = ("port", "offset")


def _unknown_key(data: dict, known: Sequence[str], where: str) -> None:
    """Refuse the first key of ``data`` outside ``known``, so a misspelt one is not read as absent."""
    for key in data:
        if key not in known:
            raise MetricError(f"{where} has an unknown key {key!r}")


def surface_from_json(data: object) -> HyperellipticSurface:
    if not isinstance(data, dict):
        raise MetricError("surface JSON must be an object")
    _unknown_key(data, _SURFACE_KEYS, "surface JSON")
    skeleton = halftree_from_json(data)
    for key in ("lengths", "heights", "twists"):
        if key not in data or not isinstance(data[key], dict):
            raise MetricError(f"surface JSON needs a '{key}' object")
    lengths, heights, twists = (
        {_json_label(k, key): fraction_from_string(x) for k, x in data[key].items()}
        for key in ("lengths", "heights", "twists")
    )
    mark_entries = data.get("marks", [])
    if not isinstance(mark_entries, list):
        raise MetricError("surface JSON 'marks' must be a list")
    marks = []
    for m in mark_entries:
        if isinstance(m, dict):
            _unknown_key(m, _MARK_KEYS, f"mark {m!r}")
        if not isinstance(m, dict) or "port" not in m or "offset" not in m:
            raise MetricError(f"mark {m!r} needs a 'port' and an 'offset'")
        marks.append(Mark(_json_label(m["port"], "marks"), fraction_from_string(m["offset"])))
    return build(skeleton, lengths, heights, twists, marks)


def surface_to_dot(s: HyperellipticSurface, name: str = "surface") -> str:
    """Graphviz rendering: one rectangle per cylinder, saddles on its edges.

    Each record node stacks the top boundary row over the bottom one; the
    top row is the bottom row reversed, which is the rotation-by-pi boundary
    identification every hyperelliptic cylinder carries.  One seam line per
    port joins its bottom label to the top label of its partner (to its own
    top label when self-glued).
    """
    t = s.skeleton
    lines = [f"graph {name} {{", "  node [shape=record];"]
    for v in t.vertices:
        top = " | ".join(f"<t{p}> {p}" for p in reversed(t.ports(v)))
        mid = f"cylinder {v}  h={s.heights[v]}  t={s.twists[v]}"
        bottom = " | ".join(f"<b{p}> {p} len={s.lengths[p]}" for p in t.ports(v))
        lines.append(f'  v{v} [label="{{ {{{top}}} | {mid} | {{{bottom}}} }}"];')
    for p in t.all_ports:
        q = t.partner(p)
        target = p if q is None else q
        lines.append(f"  v{t.vertex_of(p)}:b{p} -- v{t.vertex_of(target)}:t{target};")
    lines.append("}")
    return "\n".join(lines) + "\n"
