"""Degenerations: shrink saddle classes to zero, or delete whole cylinders.

Vertical collapse rescales saddle classes by (1 - p) and removes the fully
collapsed edges; the rescaled forest is certified once, as one surface, and
certification hands back its pieces, one rebuilt surface per subtree.
Horizontal collapse removes cylinders and reglues their two boundary circles
to each other along vertical lines; the regluing is done on the explicit
seam table, strip by strip, and the result is pushed through the same
certification as everything else.

Cylinders that lose their whole boundary collapse to points and are dropped
with a notice rather than an error; only a collapse that leaves nothing at
all is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .deform import DeformError, SaddlePartition
from .halftree import HalfTree
from .surface import (
    CertifyResult,
    DisjointSurface,
    GluedSurface,
    HyperellipticSurface,
    Mark,
    Seam,
    _certify,
    _layout,
    area,
    certify_glued,
    fraction_to_string,
    lower,
    surface_to_json,
)


class CollapseError(ValueError):
    """A degeneration precondition failed."""


def certify_hyperelliptic(
    obj: HyperellipticSurface | GluedSurface | DisjointSurface,
) -> CertifyResult:
    """Certify that a surface (in any representation) is rotation-symmetric.

    Per cylinder, the top boundary pattern must be the reversed bottom
    pattern; globally the seam alignments must cohere and the reglued diagram
    must be a half-tree.  Disjoint unions are certified componentwise and the
    verdicts concatenated.
    """
    if isinstance(obj, HyperellipticSurface):
        return _certify(_layout(obj), obj.heights)
    if isinstance(obj, GluedSurface):
        return certify_glued(obj)
    if isinstance(obj, DisjointSurface):
        components: list[HyperellipticSurface] = []
        failures: list[str] = []
        involution: dict[int, int] = {}
        alignments: dict[int, Fraction] = {}
        ok = True
        for comp in obj.components:
            res = _certify(_layout(comp), comp.heights)
            ok = ok and res.ok
            components.extend(res.components)
            failures.extend(res.failures)
            involution.update(res.seam_involution)
            alignments.update(res.alignments)
        return CertifyResult(ok, tuple(components), involution, alignments, tuple(failures))
    raise TypeError(f"cannot certify {type(obj).__name__}")


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
    keys = {obj[0] for obj in t.edge_objects()}
    flat = {e for g in sp.classes for e in g}
    if flat != keys:
        raise DeformError("saddle classes do not cover the edge objects exactly")
    props: dict[int, Fraction] = {}
    for i, group in enumerate(sp.classes):
        p = Fraction(proportions[i])
        if not 0 <= p <= 1:
            raise CollapseError(f"proportion {p} for class {group} outside [0, 1]")
        for e in group:
            props[e] = p

    scale: dict[int, Fraction] = {}
    deleted_edges = []
    for obj in t.edge_objects():
        p = props[obj[0]]
        if p == 1:
            if len(obj) == 1:
                raise CollapseError(
                    f"cannot fully collapse self-glued saddle {obj[0]}"
                )
            deleted_edges.append(obj)
        for port in obj:
            scale[port] = 1 - p

    survivors = {p for p in t.all_ports if scale[p] > 0}
    notices: list[str] = []
    new_ports: dict[int, list[int]] = {}
    dropped: list[int] = []
    for v in t.vertices:
        remaining = [p for p in t.ports(v) if p in survivors]
        if remaining:
            new_ports[v] = remaining
        else:
            dropped.append(v)
            notices.append(f"cylinder {v} collapsed to a point and was dropped")
    if not new_ports:
        raise CollapseError("every cylinder collapsed to a point; nothing survives")

    marks: list[Mark] = []
    for m in s.marks:
        if m.port in survivors:
            marks.append(Mark(m.port, m.offset * scale[m.port]))
        else:
            notices.append(f"mark on collapsed saddle {m.port} was dropped")
    # one raw surface on the surviving forest: twists may exceed the shrunken
    # circumferences, and certification reduces them as it rebuilds each tree
    forest = HyperellipticSurface(
        HalfTree(new_ports, [(p, q) for p, q in t.edges() if p in survivors]),
        {p: s.lengths[p] * scale[p] for p in survivors},
        {v: s.heights[v] for v in new_ports},
        {v: s.twists[v] for v in new_ports},
        tuple(marks),
    )
    cert = _certify(_layout(forest), forest.heights)
    if not cert.ok:
        raise CollapseError(f"collapsed surface failed certification: {cert.failures[0]}")
    before = area(s)
    after = sum((area(c) for c in cert.components), Fraction(0))
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
    glued: GluedSurface
    certification: CertifyResult
    gluings: tuple[StripGluing, ...]
    junctions: tuple[tuple[int, Fraction, str], ...]
    forests: tuple[ForestReport, ...]
    area_before: Fraction
    area_after: Fraction
    deleted_area: Fraction

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
    gs = lower(s)

    seam_marks: dict[int, list[Fraction]] = {}
    for m in s.marks:
        seam_marks.setdefault(m.port, []).append(m.offset)

    new_seams: dict[int, Seam] = {}
    new_marks: set[tuple[int, Fraction]] = set()
    notices: list[str] = []
    for seam in gs.seams.values():
        if seam.above[0] in chosen or seam.below[0] in chosen:
            continue
        new_seams[seam.seam_id] = seam
        for off in seam_marks.get(seam.seam_id, ()):
            new_marks.add((seam.seam_id, off))

    next_id = max(gs.seams) + 1
    gluings: list[StripGluing] = []
    junctions: list[tuple[int, Fraction, str]] = []
    forests: list[ForestReport] = []

    for c in sorted(chosen):
        L, _, drift = gs.cylinders[c]
        bottom = sorted(
            (sm for sm in gs.seams.values() if sm.above[0] == c), key=lambda sm: sm.above[1]
        )
        top = sorted(
            (sm for sm in gs.seams.values() if sm.below[0] == c), key=lambda sm: sm.below[1]
        )
        corners_b = [sm.above[1] for sm in bottom]
        corners_t = {sm.below[1] for sm in top}
        splits = sorted(set(corners_b) | {(y - drift) % L for y in corners_t})
        for x in splits:
            on_bottom = x in corners_b
            on_top = (x + drift) % L in corners_t
            kind = "both" if on_bottom and on_top else ("bottom" if on_bottom else "top")
            junctions.append((c, x, kind))

        def seg_at(table, key_side, pos):
            lo, hi = 0, len(table) - 1
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if getattr(table[mid], key_side)[1] <= pos:
                    lo = mid
                else:
                    hi = mid - 1
            return table[lo]

        strip_ids: dict[Fraction, int] = {}
        strip_width: dict[Fraction, Fraction] = {}
        strip_ends: dict[Fraction, tuple[int, int]] = {}
        for i, alpha in enumerate(splits):
            beta = splits[i + 1] if i + 1 < len(splits) else splits[0] + L
            width = beta - alpha
            sigma = seg_at(bottom, "above", alpha)
            off_lo = alpha - sigma.above[1]
            y = (alpha + drift) % L
            tau = seg_at(top, "below", y)
            off_hi = y - tau.below[1]
            sid = next_id
            next_id += 1
            new_seams[sid] = Seam(
                seam_id=sid,
                above=(tau.above[0], tau.above[1] + off_hi),
                below=(sigma.below[0], sigma.below[1] + off_lo),
                length=width,
            )
            gluings.append(StripGluing(c, sid, sigma.seam_id, tau.seam_id, alpha, width))
            strip_ids[alpha] = sid
            strip_width[alpha] = width
            strip_ends[alpha] = (tau.above[0], sigma.below[0])
            for origin, raw in (
                (sigma.seam_id, [sigma.above[1] + off for off in seam_marks.get(sigma.seam_id, ())]),
                (tau.seam_id, [(tau.below[1] + off - drift) % L for off in seam_marks.get(tau.seam_id, ())]),
            ):
                for pos in raw:
                    adj = pos if pos >= alpha else pos + L
                    if alpha < adj < beta:
                        new_marks.add((sid, adj - alpha))
                    elif adj == alpha:
                        notices.append(
                            f"mark on saddle {origin} merged into a junction of cylinder {c}"
                        )

        # strips pair under the involution by alpha -> (-alpha - width - drift)
        parent = {}
        neighbors = sorted({u for pair in strip_ends.values() for u in pair})
        for u in neighbors:
            parent[u] = u

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        edges: list[tuple[int, int]] = []
        half_strips: list[int] = []
        is_forest = True
        for alpha in splits:
            mate = (-alpha - strip_width[alpha] - drift) % L
            if mate not in strip_ids:
                raise CollapseError(
                    f"strip pairing broke at cylinder {c}: no strip at {mate}"
                )
            if strip_width[mate] != strip_width[alpha]:
                raise CollapseError(f"strip pairing widths differ at cylinder {c}")
            if mate == alpha:
                half_strips.append(strip_ids[alpha])
                continue
            if mate < alpha:
                continue
            u, w = strip_ends[alpha]
            edges.append((u, w))
            a, b = find(u), find(w)
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

    reglued = GluedSurface(
        cylinders={v: gs.cylinders[v] for v in gs.cylinders if v not in chosen},
        seams=new_seams,
        marks=tuple(sorted(new_marks)),
    )
    cert = certify_glued(reglued)
    if not cert.ok:
        raise CollapseError(f"reglued surface failed certification: {cert.failures[0]}")
    out = DisjointSurface(cert.components, tuple(notices))
    after = sum((area(comp) for comp in cert.components), Fraction(0))
    deleted_area = sum((gs.cylinders[c][0] * gs.cylinders[c][1] for c in chosen), Fraction(0))
    return HorizontalCollapseResult(
        surfaces=out,
        glued=reglued,
        certification=cert,
        gluings=tuple(gluings),
        junctions=tuple(junctions),
        forests=tuple(forests),
        area_before=area(s),
        area_after=after,
        deleted_area=deleted_area,
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
