"""Degenerations: shrink saddle classes to zero, or delete whole cylinders.

Both collapses certify one ``_Layout`` built from the surface's kept one.
Vertical collapse rescales saddle classes by (1 - p), on the kept scale times
the factors' denominators, and drops the fully collapsed edges; certification
hands back one rebuilt surface per surviving subtree.  Horizontal collapse
removes cylinders and reglues their boundary circles along vertical lines,
strip by strip.  Areas are integer sums over the layout's circumferences.

Cylinders that lose their whole boundary collapse to points and are dropped
with a notice rather than an error; only a collapse that leaves nothing at
all is rejected.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .deform import SaddlePartition, _validate_saddle_partition
from .halftree import _find
from .surface import (
    CertifyResult,
    DisjointSurface,
    HyperellipticSurface,
    _area,
    _certified,
    _certify,
    _circles,
    _convention,
    _exact,
    _Layout,
    _layout,
    _seam_marks,
    fraction_to_string,
    surface_to_json,
)


class CollapseError(ValueError):
    """A degeneration precondition failed."""


def certify_hyperelliptic(obj: HyperellipticSurface | DisjointSurface) -> CertifyResult:
    """Certify that a surface, or each component of a disjoint union, is rotation-symmetric.

    Per cylinder, the top boundary pattern must be the reversed bottom
    pattern; globally the seam alignments must cohere and the reglued diagram
    must be a half-tree.  The verdicts of the components are concatenated.
    """
    if isinstance(obj, HyperellipticSurface):
        return _certified(obj)
    if not isinstance(obj, DisjointSurface):
        raise TypeError(f"cannot certify {type(obj).__name__}")
    results = [_certified(comp) for comp in obj.components]
    return CertifyResult(
        all(r.ok for r in results),
        tuple(c for r in results for c in r.components),
        {sid: tid for r in results for sid, tid in r.seam_involution.items()},
        {c: kappa for r in results for c, kappa in r.alignments.items()},
        tuple(f for r in results for f in r.failures),
    )


# -- vertical collapse --------------------------------------------------------


@dataclass(frozen=True)
class VerticalCollapseResult:
    surfaces: DisjointSurface
    collapsed_area: Fraction
    area_before: Fraction
    area_after: Fraction
    deleted_edges: tuple[tuple[int, ...], ...]
    dropped_cylinders: tuple[int, ...]
    certification: CertifyResult

    @property
    def notices(self) -> tuple[str, ...]:
        return self.surfaces.notices


def vertical_collapse(
    s: HyperellipticSurface,
    sp: SaddlePartition,
    proportions: Sequence[Fraction] | Mapping[int, Fraction],
) -> VerticalCollapseResult:
    """Shrink each saddle class by its proportion; delete what reaches zero.

    ``proportions[i]`` applies to ``sp.classes[i]``; p = 0 leaves the class
    alone, p = 1 removes its edges from the skeleton.  Fully collapsed
    classes must consist of full edges: a self-glued saddle of length zero
    would pinch its own cylinder rather than split the surface.
    """
    t = s.skeleton
    _validate_saddle_partition(t, sp)
    props: dict[int, Fraction] = {}
    for i, group in enumerate(sp.classes):
        try:
            p = _exact(proportions[i])
        except (KeyError, IndexError):
            raise CollapseError(f"no proportion for saddle class {i}") from None
        if not 0 <= p <= 1:
            raise CollapseError(f"proportion {p} for class {group} outside [0, 1]")
        for e in group:
            props[e] = p

    # port p keeps factor[p] / B of its length, B the lcm of the denominators
    B = math.lcm(*(p.denominator for p in props.values()))
    factor: dict[int, int] = {}
    deleted_edges = []
    for obj in t.edge_objects():
        p = props[obj[0]]
        if p == 1:
            if len(obj) == 1:
                raise CollapseError(f"cannot fully collapse self-glued saddle {obj[0]}")
            deleted_edges.append(obj)
        for port in obj:
            factor[port] = (p.denominator - p.numerator) * (B // p.denominator)

    notices: list[str] = []
    new_ports: dict[int, list[int]] = {}
    dropped: list[int] = []
    for v in t.vertices:
        remaining = [p for p in t.ports(v) if factor[p]]
        if remaining:
            new_ports[v] = remaining
        else:
            dropped.append(v)
            notices.append(f"cylinder {v} collapsed to a point and was dropped")
    if not new_ports:
        raise CollapseError("every cylinder collapsed to a point; nothing survives")

    lay = _layout(s)
    marks = tuple((p, u * factor[p]) for p, u in lay.marks if factor[p])
    notices += [f"mark on collapsed saddle {p} was dropped" for p, _ in lay.marks if not factor[p]]
    # the surviving forest in one layout: twists may exceed the shrunken
    # circumferences, and certification reduces them as it rebuilds each tree
    length = {p: lay.length[p] * factor[p] for ports in new_ports.values() for p in ports}
    forest = _convention(t, new_ports, lay.scale * B, length, {v: lay.twist[v] * B for v in new_ports}, marks)
    cert = _certify(forest, s.heights)
    if not cert.ok:
        raise CollapseError(f"collapsed surface failed certification: {cert.failures[0]}")
    before = _area(lay, s.heights, t.vertices)
    after = _area(forest, s.heights, list(new_ports))
    return VerticalCollapseResult(
        surfaces=DisjointSurface(cert.components, tuple(notices)),
        collapsed_area=before - after,
        area_before=before,
        area_after=after,
        deleted_edges=tuple(deleted_edges),
        dropped_cylinders=tuple(dropped),
        certification=cert,
    )


# -- horizontal collapse ------------------------------------------------------


@dataclass(frozen=True)
class StripGluing:
    """One vertical-line gluing: a piece of a lower saddle meets an upper one."""

    deleted: int
    seam_id: int
    lower_seam: int
    upper_seam: int
    start: Fraction
    length: Fraction


@dataclass(frozen=True)
class ForestReport:
    """Regluing adjacency at one deleted cylinder: neighbors joined by strips."""

    deleted: int
    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    half_edge_strips: tuple[int, ...]
    is_forest: bool


@dataclass(frozen=True)
class HorizontalCollapseResult:
    surfaces: DisjointSurface
    certification: CertifyResult
    gluings: tuple[StripGluing, ...]
    junctions: tuple[tuple[int, Fraction, str], ...]
    forests: tuple[ForestReport, ...]
    area_before: Fraction
    area_after: Fraction
    deleted_area: Fraction
    _reglued: _Layout = field(repr=False, compare=False)

    @property
    def notices(self) -> tuple[str, ...]:
        return self.surfaces.notices


def _deleted_set_preconditions(s: HyperellipticSurface, delete: Iterable[int]) -> set[int]:
    t = s.skeleton
    chosen = set(delete)
    if not chosen:
        raise CollapseError("nothing to delete")
    known = set(t.vertices)
    unknown = chosen - known
    if unknown:
        raise CollapseError(f"no cylinder {sorted(unknown)[0]}")
    if chosen == known:
        raise CollapseError("cannot delete every cylinder")
    for c in chosen:
        for p in t.ports(c):
            q = t.partner(p)
            if q is None:
                raise CollapseError(
                    f"cylinder {c} is glued to itself through saddle {p}; the deleted set is self-adjacent"
                )
            if t.vertex_of(q) in chosen:
                raise CollapseError(
                    f"cylinders {c} and {t.vertex_of(q)} are adjacent; the deleted set is self-adjacent"
                )
    return chosen


def horizontal_collapse(
    s: HyperellipticSurface, delete: Iterable[int]
) -> HorizontalCollapseResult:
    """Delete a cylinder set and reglue its boundaries along vertical lines.

    Each deleted cylinder's bottom circle is matched to its top circle by the
    vertical flow; maximal strips between corner shadows become the new
    saddles, joining a piece of the lower boundary to a piece of the upper
    one.  Junction points carry the old zeros into the new surface.  Marks
    riding on the glued boundaries transfer; a mark landing exactly on a
    junction merges with the singularity there and is dropped with a notice.

    The set must not touch itself (no two members adjacent, no self-glued
    saddles) and must contain at least one vertical saddle connection:
    without one, no zeros collide and the degeneration leaves the stratum
    boundary, so the caller is told to shear first.
    """
    chosen = _deleted_set_preconditions(s, delete)
    lay = _layout(s)
    D, L, drift, length, seams = lay.scale, lay.circumference, lay.twist, lay.length, lay.seams
    bottoms, tops = _circles(lay)
    seam_marks = _seam_marks(lay)

    new_seams = {
        sid: sides
        for sid, sides in seams.items()
        if sides[0][0] not in chosen and sides[1][0] not in chosen
    }
    new_length = {sid: length[sid] for sid in new_seams}
    new_marks = {(sid, u) for sid, u in lay.marks if sid in new_seams}
    notices: list[str] = []

    next_id = max(seams) + 1
    gluings: list[StripGluing] = []
    junctions: list[tuple[int, Fraction, str]] = []
    forests: list[ForestReport] = []

    for c in sorted(chosen):
        Lc, dc = L[c], drift[c]
        bottom, top = bottoms[c], tops[c]
        bottom_starts = [x for x, _ in bottom]
        top_starts = [y for y, _ in top]
        corners_b, corners_t = set(bottom_starts), set(top_starts)
        splits = sorted(corners_b | {(y - dc) % Lc for y in top_starts})
        for x in splits:
            on_bottom = x in corners_b
            on_top = (x + dc) % Lc in corners_t
            kind = "both" if on_bottom and on_top else ("bottom" if on_bottom else "top")
            junctions.append((c, Fraction(x, D), kind))

        # alpha -> (strip seam, width, (cylinder above, cylinder below))
        strips: dict[int, tuple[int, int, tuple[int, int]]] = {}
        for i, alpha in enumerate(splits):
            beta = splits[i + 1] if i + 1 < len(splits) else splits[0] + Lc
            width = beta - alpha
            x0, sigma = bottom[bisect_right(bottom_starts, alpha) - 1]
            y = (alpha + dc) % Lc
            y0, tau = top[bisect_right(top_starts, y) - 1]
            (above, a), (below, b) = seams[tau][0], seams[sigma][1]
            sid = next_id
            next_id += 1
            new_seams[sid] = ((above, a + y - y0), (below, b + alpha - x0))
            new_length[sid] = width
            gluings.append(StripGluing(c, sid, sigma, tau, Fraction(alpha, D), Fraction(width, D)))
            strips[alpha] = (sid, width, (above, below))
            for origin, raw in (
                (sigma, [x0 + u for u in seam_marks.get(sigma, ())]),
                (tau, [(y0 + u - dc) % Lc for u in seam_marks.get(tau, ())]),
            ):
                for pos in raw:
                    adj = pos if pos >= alpha else pos + Lc
                    if alpha < adj < beta:
                        new_marks.add((sid, adj - alpha))
                    elif adj == alpha:
                        notices.append(
                            f"mark on saddle {origin} merged into a junction of cylinder {c}"
                        )

        # strips pair under the involution by alpha -> (-alpha - width - drift)
        neighbors = sorted({u for _, _, ends in strips.values() for u in ends})
        parent = {u: u for u in neighbors}
        edges: list[tuple[int, int]] = []
        half_strips: list[int] = []
        is_forest = True
        for alpha in splits:
            sid, width, (u, w) = strips[alpha]
            mate = (-alpha - width - dc) % Lc
            if mate not in strips:
                raise CollapseError(
                    f"strip pairing broke at cylinder {c}: no strip at {Fraction(mate, D)}"
                )
            if strips[mate][1] != width:
                raise CollapseError(f"strip pairing widths differ at cylinder {c}")
            if mate == alpha:
                half_strips.append(sid)
                continue
            if mate < alpha:
                continue
            edges.append((u, w))
            a, b = _find(parent, u), _find(parent, w)
            if a == b:
                is_forest = False
            else:
                parent[a] = b
        forests.append(
            ForestReport(c, tuple(neighbors), tuple(edges), tuple(sorted(half_strips)), is_forest)
        )

    # a junction where a bottom and a top corner meet is a vertical saddle connection
    if not any(kind == "both" for _, _, kind in junctions):
        raise CollapseError(
            "no vertical saddle connection inside the deleted set; shear first"
        )
    bad = [f for f in forests if not f.is_forest]
    if bad:
        raise CollapseError(
            f"regluing at cylinder {bad[0].deleted} closes a cycle; not a forest"
        )

    kept = [v for v in L if v not in chosen]
    reglued = _Layout(
        D,
        {v: L[v] for v in kept},
        {v: drift[v] for v in kept},
        new_length,
        new_seams,
        tuple(sorted(new_marks)),
    )
    cert = _certify(reglued, s.heights)
    if not cert.ok:
        raise CollapseError(f"reglued surface failed certification: {cert.failures[0]}")
    kept_area = _area(lay, s.heights, kept)
    deleted_area = _area(lay, s.heights, sorted(chosen))
    return HorizontalCollapseResult(
        surfaces=DisjointSurface(cert.components, tuple(notices)),
        certification=cert,
        gluings=tuple(gluings),
        junctions=tuple(junctions),
        forests=tuple(forests),
        area_before=kept_area + deleted_area,
        area_after=kept_area,
        deleted_area=deleted_area,
        _reglued=reglued,
    )


# -- reports ------------------------------------------------------------------


def vertical_collapse_report(r: VerticalCollapseResult) -> dict:
    return {
        "kind": "vertical-collapse",
        "deleted_edges": [list(obj) for obj in r.deleted_edges],
        "dropped_cylinders": list(r.dropped_cylinders),
        "area": {
            "before": fraction_to_string(r.area_before),
            "after": fraction_to_string(r.area_after),
            "collapsed": fraction_to_string(r.collapsed_area),
        },
        "components": [surface_to_json(c) for c in r.surfaces.components],
        "certified": r.certification.ok,
        "notices": list(r.notices),
    }


def horizontal_collapse_report(r: HorizontalCollapseResult) -> dict:
    return {
        "kind": "horizontal-collapse",
        "deleted_cylinders": sorted({g.deleted for g in r.gluings}),
        "gluings": [
            {
                "deleted": g.deleted,
                "seam": g.seam_id,
                "lower": g.lower_seam,
                "upper": g.upper_seam,
                "start": fraction_to_string(g.start),
                "length": fraction_to_string(g.length),
            }
            for g in r.gluings
        ],
        "junctions": [
            {"deleted": v, "position": fraction_to_string(x), "touches": kind}
            for v, x, kind in r.junctions
        ],
        "forests": [
            {
                "deleted": f.deleted,
                "nodes": list(f.nodes),
                "edges": [list(e) for e in f.edges],
                "half_edge_strips": list(f.half_edge_strips),
                "is_forest": f.is_forest,
            }
            for f in r.forests
        ],
        "area": {
            "before": fraction_to_string(r.area_before),
            "after": fraction_to_string(r.area_after),
            "deleted": fraction_to_string(r.deleted_area),
        },
        "components": [surface_to_json(c) for c in r.surfaces.components],
        "certified": r.certification.ok,
        "notices": list(r.notices),
    }
