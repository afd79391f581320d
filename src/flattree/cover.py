"""Combinatorial translation coverings between half-tree surfaces.

A covering is specified cylinder by cylinder: each covering cylinder wraps
its image an integer number of times, boundary saddles lift isometrically in
the same cyclic order, and twists lift to representatives of the same class
modulo the base circumference.  ``pullback`` materializes a covering surface
from such a blueprint; ``quotient`` goes the other way, collapsing a verified
candidate partition onto its common base; ``certify_cover`` rechecks a
claimed quotient from scratch.

The graph-level sanity check is the half-edge-aware Euler count
chi = V - E - H/2 with vertex ramification equal to the wrap numbers.  Branch
behaviour is read off the corner-class projection, whose local degrees must be
integers summing to the degree over every base class.  That check and the
involution-equivariance check run in integers.  They read each surface's kept
layout and kept corner classes, and compare the two surfaces on one common
scale through two integer factors: no cover call lays out or walks a surface
that has been laid out or walked before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .deform import (
    CandidateReport,
    CylinderPartition,
    SaddlePartition,
    check_candidate,
)
from .halftree import HalfTree, SkeletonError, stratum_of
from .surface import (
    HyperellipticSurface,
    MetricError,
    _classes,
    _fixed_classes,
    _Layout,
    _layout,
    _on,
    area,
    build,
    fraction_to_string,
    surface_to_json,
)


class CoverError(ValueError):
    """A covering blueprint or quotient construction is inconsistent."""


# -- blueprints ---------------------------------------------------------------


@dataclass(frozen=True)
class FiberCylinder:
    """One covering cylinder: which base cylinder it wraps, and how often.

    ``ports`` lists the covering ports in cyclic order; position ``m`` lifts
    the base port at position ``m mod deg`` of the wrapped cylinder, so order
    compatibility is structural rather than checked after the fact.
    """

    cylinder: int
    base: int
    wrap: int
    twist: Fraction
    ports: tuple[int, ...]


@dataclass(frozen=True)
class CoverBlueprint:
    base: HyperellipticSurface
    fibers: tuple[FiberCylinder, ...]
    pairs: tuple[tuple[int, int], ...]


def _blueprint_lifts(b: CoverBlueprint) -> dict[int, int]:
    """Validate a blueprint; return the derived fiber-port -> base-port map."""
    base = b.base
    t = base.skeleton
    if base.marks:
        raise CoverError("decorated bases are not supported")
    seen_cyl: set[int] = set()
    lifts: dict[int, int] = {}
    degree_at: dict[int, int] = {v: 0 for v in t.vertices}
    for f in b.fibers:
        if f.cylinder in seen_cyl:
            raise CoverError(f"fiber cylinder {f.cylinder} listed twice")
        seen_cyl.add(f.cylinder)
        if f.base not in degree_at:
            raise CoverError(f"fiber cylinder {f.cylinder} wraps unknown cylinder {f.base}")
        if not isinstance(f.wrap, int) or f.wrap < 1:
            raise CoverError(f"wrap multiplicity {f.wrap!r} must be a positive integer")
        degree_at[f.base] += f.wrap
        base_ports = t.ports(f.base)
        if len(f.ports) != f.wrap * len(base_ports):
            raise CoverError(
                f"fiber cylinder {f.cylinder} has {len(f.ports)} ports; "
                f"wrapping {f.wrap} times needs {f.wrap * len(base_ports)}"
            )
        for m, fp in enumerate(f.ports):
            if fp in lifts:
                raise CoverError(f"fiber port {fp} listed twice")
            lifts[fp] = base_ports[m % len(base_ports)]
        L = base.circumference(f.base)
        if (Fraction(f.twist) - base.twists[f.base]) % L != 0:
            raise CoverError(
                f"twist lift {f.twist} of cylinder {f.cylinder} is not congruent "
                f"to the base twist modulo {L}"
            )
    degrees = set(degree_at.values())
    if len(degrees) != 1:
        raise CoverError(f"wrap multiplicities sum to different degrees: {degree_at}")
    paired: set[int] = set()
    for fp, fq in b.pairs:
        for x in (fp, fq):
            if x not in lifts:
                raise CoverError(f"pair uses unknown fiber port {x}")
            if x in paired:
                raise CoverError(f"fiber port {x} paired twice")
            paired.add(x)
        p, q = lifts[fp], lifts[fq]
        partner = t.partner(p)
        if partner is None:
            if p != q:
                raise CoverError(
                    f"fiber pair ({fp}, {fq}) joins lifts of unrelated saddles {p} and {q}"
                )
        elif q != partner:
            raise CoverError(
                f"fiber pair ({fp}, {fq}) does not lift the base pair ({p}, {partner})"
            )
    for fp, p in lifts.items():
        if fp not in paired and t.partner(p) is not None:
            raise CoverError(
                f"fiber port {fp} lifts one side of the base pair at {p} but is unpaired"
            )
    return lifts


def pullback(b: CoverBlueprint) -> HyperellipticSurface:
    """Materialize the covering surface a blueprint describes.

    Saddle lengths and cylinder heights lift unchanged, circumferences
    multiply by the wrap numbers, and the assembled skeleton must come out a
    connected half-tree.  Before returning, the covering relation itself is
    checked: integral branching concentrated over the singularities, and
    commutation with both rotation involutions.
    """
    lifts = _blueprint_lifts(b)
    skeleton = HalfTree(
        {f.cylinder: f.ports for f in b.fibers},
        b.pairs,
    )
    try:
        surface = build(
            skeleton,
            {fp: b.base.lengths[p] for fp, p in lifts.items()},
            {f.cylinder: b.base.heights[f.base] for f in b.fibers},
            {f.cylinder: Fraction(f.twist) for f in b.fibers},
        )
    except SkeletonError as exc:
        raise CoverError(f"lifted skeleton is not a half-tree: {exc}") from exc
    cyl_map = {f.cylinder: f.base for f in b.fibers}
    offsets = {f.cylinder: Fraction(0) for f in b.fibers}
    wraps = {f.cylinder: f.wrap for f in b.fibers}
    degree = sum(f.wrap for f in b.fibers if f.base == b.base.skeleton.vertices[0])
    branch, equivariance = _cover_failures(surface, b.base, _scaled(surface, b.base, offsets), cyl_map, degree)
    problems = branch + equivariance
    if problems:
        raise CoverError(f"pullback is not a translation covering: {problems[0]}")
    residual = _chi_residual(skeleton, b.base.skeleton, wraps, degree)
    if residual != 0:
        raise CoverError(f"pullback has Riemann-Hurwitz residual {residual}")
    return surface


def fiber_partitions(b: CoverBlueprint) -> tuple[CylinderPartition, SaddlePartition]:
    """Partitions of the pullback by base cylinder and base saddle."""
    lifts = _blueprint_lifts(b)
    t = b.base.skeleton
    by_vertex: dict[int, list[int]] = {}
    for f in b.fibers:
        by_vertex.setdefault(f.base, []).append(f.cylinder)
    skeleton = HalfTree({f.cylinder: f.ports for f in b.fibers}, b.pairs)
    by_saddle: dict[int, list[int]] = {}
    for obj in skeleton.edge_objects():
        base_key = t.edge_object_of(lifts[obj[0]])[0]
        by_saddle.setdefault(base_key, []).append(obj[0])
    return (
        CylinderPartition.of(by_vertex.values()),
        SaddlePartition.of(by_saddle.values()),
    )


# -- shared covering checks ---------------------------------------------------


def _chi_residual(
    src: HalfTree, base: HalfTree, wraps: Mapping[int, int], degree: int
) -> Fraction:
    """Riemann-Hurwitz residual with half-edges counted as half an edge."""

    def chi(t: HalfTree) -> Fraction:
        return (
            Fraction(len(t.vertices))
            - len(t.edges())
            - Fraction(len(t.half_edge_ports()), 2)
        )

    excess = sum(wraps[v] - 1 for v in src.vertices)
    return chi(src) - (degree * chi(base) - excess)


def _scaled(
    source: HyperellipticSurface, base: HyperellipticSurface, offsets: Mapping[int, Fraction]
) -> tuple[_Layout, _Layout, int, int, dict[int, int]]:
    """The kept layouts of both surfaces, their factors ``ks``, ``kb`` onto one scale ``D``, and the offsets on ``D``.

    ``D`` is twice the lcm of both layout scales and of the offset
    denominators, so half twists, circumferences and lengths are ints on it.
    """
    lay_s, lay_b = _layout(source), _layout(base)
    D = 2 * math.lcm(lay_s.scale, lay_b.scale, *(x.denominator for x in offsets.values()))
    return lay_s, lay_b, D // lay_s.scale, D // lay_b.scale, {v: _on(x, D) for v, x in offsets.items()}


def _cover_failures(
    source: HyperellipticSurface,
    base: HyperellipticSurface,
    scaled: tuple[_Layout, _Layout, int, int, dict[int, int]],
    cyl_map: Mapping[int, int],
    degree: int,
) -> tuple[list[str], list[str]]:
    """Branch and equivariance failures of the projection, on the layouts and factors of :func:`_scaled`.

    Branching only over the zeros: every corner class upstairs projects into
    one class downstairs with an integer cone-angle ratio, and the ratios sum
    to the degree over each base class.  Equivariance: core fixed points,
    half-edge midpoints and rotation-fixed corner classes land on their kind.
    The classes are the kept ones of :func:`surface._classes`, indexed as in
    :func:`singularity_profile`, which also raises here on a broken walk.
    Positions go onto ``D`` only where the two surfaces meet.
    """
    lay_s, lay_b, ks, kb, off = scaled
    t, bt = source.skeleton, base.skeleton
    src, dst = _classes(source)[0], _classes(base)[0]
    where = {(w, side, kb * y): j for j, g in enumerate(dst) for w, side, y in g}
    Ls, Lb = lay_s.circumference, {w: kb * L for w, L in lay_b.circumference.items()}

    def project(v: int, side: str, x: int) -> tuple[int, str, int]:
        w = cyl_map[v]
        return (w, side, (ks * x - off[v] if side == "b" else ks * x + off[v]) % Lb[w])

    branch: list[str] = []
    totals = [0] * len(dst)
    for i, g in enumerate(src):
        hit = {where.get(project(*c)) for c in g}
        if None in hit or len(hit) != 1:
            branch.append(f"corner class {i} does not project into one base class")
            continue
        (j,) = hit
        up, down = len(g) // 2, len(dst[j]) // 2
        if up % down:
            branch.append(f"corner class {i} has cone ratio {up}/{down}, not an integer")
            continue
        totals[j] += up // down
    branch += [
        f"base corner class {j} is covered {total} times, expected {degree}"
        for j, total in enumerate(totals)
        if total != degree
    ]

    equivariance: list[str] = []
    for v in t.vertices:
        w = cyl_map[v]
        half = -kb * lay_b.twist[w] // 2
        fixed = {half % Lb[w], (half + Lb[w] // 2) % Lb[w]}
        L = ks * Ls[v]
        x0 = (-ks * lay_s.twist[v] // 2) % L
        for x in (x0, (x0 + L // 2) % L):
            if (x - off[v]) % Lb[w] not in fixed:
                equivariance.append(
                    f"core fixed point of cylinder {v} projects off the base fixed circle"
                )
    midpoints: dict[int, set[int]] = {}
    for q in bt.half_edge_ports():
        (w, a), _ = lay_b.seams[q]
        midpoints.setdefault(w, set()).add((kb * a + kb * lay_b.length[q] // 2) % Lb[w])
    for p in t.half_edge_ports():
        (v, a), _ = lay_s.seams[p]
        w = cyl_map[v]
        if (ks * a + ks * lay_s.length[p] // 2 - off[v]) % Lb[w] not in midpoints.get(w, ()):
            equivariance.append(f"midpoint of self-glued saddle {p} projects off a base midpoint")
    fixed_dst = set(_fixed_classes(lay_b, dst))
    for i in _fixed_classes(lay_s, src):
        if where.get(project(*src[i][0])) not in fixed_dst:
            equivariance.append(f"fixed corner class {i} projects to a non-fixed class")
    return branch, equivariance


# -- quotients ----------------------------------------------------------------


@dataclass(frozen=True)
class QuotientResult:
    """A verified common base under a candidate partition pair."""

    base: HyperellipticSurface
    degree: int
    cylinder_map: dict[int, int]
    saddle_map: dict[int, int]
    offsets: dict[int, Fraction]
    wraps: dict[int, int]
    candidate: CandidateReport
    residual: Fraction
    area_ratio: Fraction
    source_half_edges: bool
    base_stratum: str
    rel: int
    dichotomy_consistent: bool


def quotient(
    s: HyperellipticSurface, cp: CylinderPartition, sp: SaddlePartition
) -> QuotientResult:
    """Collapse a verified candidate partition onto its base surface.

    One base cylinder per cylinder class, with the class's one-period
    boundary pattern as its port order; one base saddle per saddle class,
    a full edge when the class joins two distinct cylinder classes and a
    self-glued saddle when it joins a class to itself.  Twists must project
    consistently: every member determines the base twist through its pattern
    rotation, and disagreement is an obstruction, not something to average.
    """
    if s.marks:
        raise CoverError("decorated surfaces are not supported")
    report = check_candidate(s, cp, sp)
    if not report.ok:
        raise CoverError(
            "candidate partitions fail verification: " + "; ".join(report.failures)
        )
    t = s.skeleton
    cyl_idx = cp.class_of()
    saddle_idx = sp.class_of()
    port_class = {p: saddle_idx[t.edge_object_of(p)[0]] for p in t.all_ports}

    endpoints: dict[int, frozenset[int]] = {}
    for sigma, group in enumerate(sp.classes):
        ends = {
            frozenset(cyl_idx[t.vertex_of(p)] for p in t.edge_object_of(e))
            for e in group
        }
        if len(ends) != 1:
            raise CoverError(
                f"saddle class {group} joins more than one pair of cylinder classes"
            )
        endpoints[sigma] = ends.pop()

    # rotation offsets aligning each member onto the class pattern
    lay = _layout(s)
    offsets: dict[int, Fraction] = {}
    base_twists: dict[int, Fraction] = {}
    for a, group in enumerate(cp.classes):
        pattern = report.base_pattern[a]
        L_base = report.base_circumference[a]
        twists_seen: dict[Fraction, int] = {}
        for v in group:
            full = tuple((port_class[p], s.lengths[p]) for p in t.ports(v))
            target = pattern * report.wraps[v]
            for r in range(len(full)):
                if full[r:] + full[:r] == target:
                    break
            else:
                raise CoverError(f"cylinder {v} boundary does not wrap its class pattern")
            phi = Fraction(lay.seams[t.ports(v)[r]][0][1], lay.scale)
            offsets[v] = phi
            twists_seen.setdefault((s.twists[v] + 2 * phi) % L_base, v)
        if len(twists_seen) != 1:
            raise CoverError(
                f"twist obstruction: cylinder class {cp.classes[a]} projects to "
                f"distinct base twists {sorted(twists_seen)}"
            )
        base_twists[a] = next(iter(twists_seen))

    # assemble the base skeleton from the patterns
    next_port = 0
    base_ports: dict[int, list[int]] = {}
    occurrence: dict[int, list[tuple[int, int]]] = {sigma: [] for sigma in endpoints}
    base_lengths: dict[int, Fraction] = {}
    for a in range(len(cp.classes)):
        ports = []
        for sigma, length in report.base_pattern[a]:
            if a not in endpoints[sigma]:
                raise CoverError(
                    f"pattern of class {cp.classes[a]} names saddle class {sigma} "
                    "which never touches it"
                )
            occurrence[sigma].append((a, next_port))
            base_lengths[next_port] = length
            ports.append(next_port)
            next_port += 1
        base_ports[a] = ports

    base_pairs: list[tuple[int, int]] = []
    for sigma, ends in endpoints.items():
        occ = occurrence[sigma]
        if len(ends) == 2:
            if len(occ) != 2 or {a for a, _ in occ} != set(ends):
                raise CoverError(
                    f"saddle class {sp.classes[sigma]} occurs {len(occ)} times in the "
                    "class patterns; expected once on each side"
                )
            base_pairs.append((occ[0][1], occ[1][1]))
        else:
            if len(occ) != 1:
                raise CoverError(
                    f"self-adjacent saddle class {sp.classes[sigma]} occurs {len(occ)} "
                    "times in the class patterns; expected once"
                )

    base_skeleton = HalfTree(base_ports, base_pairs)

    degrees = {
        a: sum(report.wraps[v] for v in group) for a, group in enumerate(cp.classes)
    }
    if len(set(degrees.values())) != 1:
        raise CoverError(f"covering degree differs between classes: {degrees}")
    degree = next(iter(degrees.values()))

    try:
        base = build(
            base_skeleton,
            base_lengths,
            {a: s.heights[group[0]] for a, group in enumerate(cp.classes)},
            base_twists,
        )
    except (SkeletonError, MetricError) as exc:
        raise CoverError(f"base surface cannot be assembled: {exc}") from exc

    cylinder_map = dict(cyl_idx)
    saddle_map = {
        e: min(
            base_skeleton.edge_object_of(occurrence[saddle_idx[e]][0][1])
        )
        for group in sp.classes
        for e in group
    }
    residual = _chi_residual(t, base_skeleton, report.wraps, degree)
    branch, equivariance = _cover_failures(s, base, _scaled(s, base, offsets), cylinder_map, degree)
    problems = branch + equivariance
    if residual != 0:
        problems.insert(0, f"Riemann-Hurwitz residual {residual}")
    if problems:
        raise CoverError(f"quotient failed verification: {problems[0]}")

    source_half_edges = bool(t.half_edge_ports())
    stratum = stratum_of(base_skeleton)
    # the check matched the base's corner orders to this stratum, marks aside
    rel = len(stratum.orders) - 1
    dichotomy = source_half_edges == (rel == 0)
    return QuotientResult(
        base=base,
        degree=degree,
        cylinder_map=cylinder_map,
        saddle_map=saddle_map,
        offsets=offsets,
        wraps=dict(report.wraps),
        candidate=report,
        residual=residual,
        area_ratio=area(s) / area(base),
        source_half_edges=source_half_edges,
        base_stratum=stratum.label,
        rel=rel,
        dichotomy_consistent=dichotomy,
    )


# -- certification ------------------------------------------------------------


@dataclass(frozen=True)
class CoverVerdict:
    ok: bool
    checks: dict[str, bool]
    failures: tuple[str, ...]


def certify_cover(source: HyperellipticSurface, result: QuotientResult) -> CoverVerdict:
    """Recheck a claimed covering from scratch.

    Trusts only the maps in ``result`` (cylinder and saddle assignments,
    offsets, wraps, degree), not its verdict fields: local isometry on every
    cylinder, degree constancy over base cylinders and saddles, the
    Riemann-Hurwitz count, involution equivariance on the fixed-point data,
    and exact area multiplicativity.  A cylinder whose image, offset or wrap
    is missing fails local isometry once; the later checks that cannot run
    without it fail with no message of their own.
    """
    t = source.skeleton
    base = result.base
    bt = base.skeleton
    checks = {
        "local_isometry": True,
        "degree_constant": True,
        "riemann_hurwitz": True,
        "involution_equivariance": True,
        "area_multiplicative": True,
    }
    failures: list[str] = []

    def fail(which: str, msg: str) -> None:
        checks[which] = False
        failures.append(msg)

    known = set(bt.vertices)
    scaled = lay_s, lay_b, ks, kb, off = _scaled(source, base, result.offsets)
    for v in t.vertices:
        w = result.cylinder_map.get(v)
        if w not in known:
            fail("local_isometry", f"cylinder {v} maps to unknown base cylinder {w}")
            continue
        if source.heights[v] != base.heights[w]:
            fail("local_isometry", f"cylinder {v} changes height under the projection")
        wrap = result.wraps.get(v)
        if wrap is None:
            fail("local_isometry", f"cylinder {v} has no wrap")
            continue
        L, Lb = lay_s.circumference[v], lay_b.circumference[w]
        if ks * L != wrap * kb * Lb:
            fail(
                "local_isometry",
                f"cylinder {v} has circumference {Fraction(L, lay_s.scale)}, "
                f"not {wrap} x {Fraction(Lb, lay_b.scale)}",
            )
            continue
        ports, base_ports = t.ports(v), bt.ports(w)
        if len(ports) != wrap * len(base_ports):
            fail("local_isometry", f"cylinder {v} port count does not match its wrap")
            continue
        if v not in off:
            fail("local_isometry", f"cylinder {v} has no offset")
            continue
        starts = [ks * lay_s.seams[p][0][1] for p in ports]
        if off[v] not in starts:
            fail("local_isometry", f"offset of cylinder {v} is not a saddle start")
            continue
        r = starts.index(off[v])
        for k, p in enumerate(ports[r:] + ports[:r]):
            q = base_ports[k % len(base_ports)]
            if ks * lay_s.length[p] != kb * lay_b.length[q]:
                fail("local_isometry", f"saddle {p} changes length over base saddle {q}")
            if result.saddle_map.get(t.edge_object_of(p)[0]) != min(bt.edge_object_of(q)):
                fail("local_isometry", f"saddle {p} does not map onto base saddle {q}")

    fiber_sum = {w: 0 for w in bt.vertices}
    for v in t.vertices:
        w = result.cylinder_map.get(v)
        if w in fiber_sum:
            fiber_sum[w] += result.wraps.get(v, 0)
    for w, total in fiber_sum.items():
        if total != result.degree:
            fail("degree_constant", f"wraps over base cylinder {w} sum to {total}")
    lift_count = {min(obj): 0 for obj in bt.edge_objects()}
    for obj in t.edge_objects():
        key = result.saddle_map.get(obj[0])
        if key not in lift_count:
            fail("degree_constant", f"saddle {obj[0]} maps to unknown base saddle {key}")
            continue
        lift_count[key] += len(obj)
    for key, total in lift_count.items():
        expected = result.degree * len(bt.edge_object_of(key))
        if total != expected:
            fail(
                "degree_constant",
                f"base saddle {key} has {total} lifted sides, expected {expected}",
            )

    if all(v in result.wraps for v in t.vertices):
        residual = _chi_residual(t, bt, result.wraps, result.degree)
        if residual != 0:
            fail("riemann_hurwitz", f"residual {residual} != 0")
    else:
        checks["riemann_hurwitz"] = False

    if all(result.cylinder_map.get(v) in known and v in off for v in t.vertices):
        branch, equivariance = _cover_failures(
            source, base, scaled, result.cylinder_map, result.degree
        )
        for msg in equivariance + branch:
            fail("involution_equivariance", msg)
    else:
        checks["involution_equivariance"] = False

    area_s, area_b = area(source), area(base)
    if area_s != result.degree * area_b:
        fail("area_multiplicative", f"area {area_s} != degree {result.degree} x {area_b}")

    return CoverVerdict(ok=not failures, checks=checks, failures=tuple(failures))


# -- fixture library ----------------------------------------------------------


def builtin_blueprints() -> dict[str, CoverBlueprint]:
    """Five stock coverings exercising the constructions end to end.

    identity: degree 1 over a three-saddle one-cylinder surface.
    triple-wrap: one cylinder winding three times over the same base.
    ramified-star: degree 2 over a three-cylinder chain, middle cylinder
        ramified, outer cylinders split; the cover is a five-cylinder star.
    torus-double: degree 2 over a marked torus, branched at its two marked
        points; the cover is a three-cylinder chain of genus 2.
    split-selfglued: degree 2 over the one-cylinder surface with one saddle
        lifted to a connecting edge and the rest kept self-glued.
    """
    F = Fraction
    one_cyl = build(
        HalfTree({0: [0, 1, 2]}, []),
        {0: F(1), 1: F(2), 2: F(3)},
        {0: F(1)},
        {0: F(0)},
    )
    chain = build(
        HalfTree({0: [0], 1: [1, 2], 2: [3]}, [(0, 1), (2, 3)]),
        {0: F(2), 1: F(2), 2: F(1), 3: F(1)},
        {0: F(1), 1: F(2), 2: F(1)},
        {0: F(0), 1: F(0), 2: F(0)},
    )
    torus2 = build(
        HalfTree({0: [0], 1: [1]}, [(0, 1)]),
        {0: F(3, 2), 1: F(3, 2)},
        {0: F(1, 2), 1: F(1)},
        {0: F(0), 1: F(0)},
    )
    return {
        "identity": CoverBlueprint(
            base=one_cyl,
            fibers=(FiberCylinder(10, 0, 1, F(0), (20, 21, 22)),),
            pairs=(),
        ),
        "triple-wrap": CoverBlueprint(
            base=one_cyl,
            fibers=(
                FiberCylinder(10, 0, 3, F(0), (20, 21, 22, 23, 24, 25, 26, 27, 28)),
            ),
            pairs=(),
        ),
        "ramified-star": CoverBlueprint(
            base=chain,
            fibers=(
                FiberCylinder(10, 0, 1, F(0), (30,)),
                FiberCylinder(11, 0, 1, F(0), (31,)),
                FiberCylinder(12, 1, 2, F(3), (40, 41, 42, 43)),
                FiberCylinder(13, 2, 1, F(0), (50,)),
                FiberCylinder(14, 2, 1, F(0), (51,)),
            ),
            pairs=((30, 40), (31, 42), (41, 50), (43, 51)),
        ),
        "torus-double": CoverBlueprint(
            base=torus2,
            fibers=(
                FiberCylinder(10, 0, 1, F(0), (30,)),
                FiberCylinder(11, 0, 1, F(0), (31,)),
                FiberCylinder(12, 1, 2, F(0), (40, 41)),
            ),
            pairs=((30, 40), (31, 41)),
        ),
        "split-selfglued": CoverBlueprint(
            base=one_cyl,
            fibers=(
                FiberCylinder(10, 0, 1, F(0), (30, 31, 32)),
                FiberCylinder(11, 0, 1, F(0), (40, 41, 42)),
            ),
            pairs=((30, 40),),
        ),
    }


# -- serialization ------------------------------------------------------------


def quotient_to_json(r: QuotientResult) -> dict:
    return {
        "base": surface_to_json(r.base),
        "degree": r.degree,
        "cylinder_map": {str(v): a for v, a in sorted(r.cylinder_map.items())},
        "saddle_map": {str(e): k for e, k in sorted(r.saddle_map.items())},
        "offsets": {
            str(v): fraction_to_string(x) for v, x in sorted(r.offsets.items())
        },
        "wraps": {str(v): w for v, w in sorted(r.wraps.items())},
        "verification": {
            "candidate_checks": dict(r.candidate.checks),
            "riemann_hurwitz_residual": fraction_to_string(r.residual),
            "area_ratio": fraction_to_string(r.area_ratio),
            "source_half_edges": r.source_half_edges,
            "base_stratum": r.base_stratum,
            "rel": r.rel,
            "dichotomy_consistent": r.dichotomy_consistent,
        },
    }
