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

Walks over many positions (the corner walk, :func:`lower`, the vertical flow)
evaluate this convention in integers: :func:`_layout` scales every position
by ``D``, the lcm of the denominators of all lengths, twists and mark offsets,
and results become ``Fraction`` again, as ``x / D``, only at the API edge.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .halftree import (
    HalfTree,
    SkeletonError,
    canonical_form,
    halftree_from_json,
    halftree_to_json,
    stratum_of,
    validate,
)


class MetricError(ValueError):
    """Raised when metric data violates a surface precondition."""


def fraction_from_string(s: object) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    if not isinstance(s, str):
        raise MetricError(f"rational value must be a string like '3/4', got {s!r}")
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

    def circumference(self, v: int) -> Fraction:
        return sum((self.lengths[p] for p in self.skeleton.ports(v)), Fraction(0))

    def port_start(self, p: int) -> Fraction:
        """Bottom-circle position where the copy of ``p`` begins."""
        v = self.skeleton.vertex_of(p)
        a = Fraction(0)
        for q in self.skeleton.ports(v):
            if q == p:
                return a
            a += self.lengths[q]
        raise MetricError(f"port {p} missing from vertex {v}")

    def top_start(self, p: int) -> Fraction:
        """Top-circle position where the rotation image of ``p`` begins."""
        L = self.circumference(self.skeleton.vertex_of(p))
        return (L - self.port_start(p) - self.lengths[p]) % L

    def seam_sides(self, p: int) -> tuple[tuple[int, Fraction], tuple[int, Fraction]]:
        """((vertex above, bottom start), (vertex below, top start)) of seam ``p``."""
        q = self.skeleton.partner(p)
        if q is None:
            q = p
        return (
            (self.skeleton.vertex_of(p), self.port_start(p)),
            (self.skeleton.vertex_of(q), self.top_start(q)),
        )


@dataclass(frozen=True)
class DisjointSurface:
    """A finite disjoint union, as produced by degeneration."""

    components: tuple[HyperellipticSurface, ...]
    notices: tuple[str, ...] = ()


@dataclass(frozen=True)
class _Layout:
    """The layout convention of one surface, every position multiplied by ``scale``.

    ``seams[p]`` is ``seam_sides(p)`` in ints, in ``all_ports`` order.
    """

    scale: int
    circumference: dict[int, int]
    twist: dict[int, int]
    length: dict[int, int]
    seams: dict[int, tuple[tuple[int, int], tuple[int, int]]]
    marks: tuple[tuple[int, int], ...]


def _layout(s: HyperellipticSurface, extra: Iterable[Fraction] = ()) -> _Layout:
    """Integer layout of ``s``, on a scale that also makes each ``extra`` value integral.

    Built per call, never stored: on a large surface it outweighs the surface.
    """
    t = s.skeleton
    values = [*s.lengths.values(), *s.twists.values(), *(m.offset for m in s.marks), *extra]
    D = math.lcm(*(x.denominator for x in values))

    def scaled(x: Fraction) -> int:
        return x.numerator * (D // x.denominator)

    length = {p: scaled(x) for p, x in s.lengths.items()}
    circumference: dict[int, int] = {}
    bottom: dict[int, int] = {}
    for v in t.vertices:
        a = 0
        for p in t.ports(v):
            bottom[p], a = a, a + length[p]
        circumference[v] = a
    seams = {}
    for p in t.all_ports:
        q = t.partner(p)
        q = p if q is None else q
        w = t.vertex_of(q)
        L = circumference[w]
        seams[p] = ((t.vertex_of(p), bottom[p]), (w, (L - bottom[q] - length[q]) % L))
    twist = {v: scaled(x) for v, x in s.twists.items()}
    marks = tuple((m.port, scaled(m.offset)) for m in s.marks)
    return _Layout(D, circumference, twist, length, seams, marks)


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
        val = Fraction(lengths[p])
        if val <= 0:
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
        h = Fraction(heights[v])
        if h <= 0:
            raise MetricError(f"height of vertex {v} must be positive, got {h}")
        hts[v] = h
    known = set(skeleton.vertices)
    for v in set(heights) | set(twists):
        if v not in known:
            raise MetricError(f"metric given for unknown vertex {v}")
    for v in skeleton.vertices:
        L = sum((lens[p] for p in skeleton.ports(v)), Fraction(0))
        tws[v] = Fraction(twists.get(v, 0)) % L
    mark_list = tuple(sorted(Mark(m.port, Fraction(m.offset)) for m in marks))
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


def forget_marked_points(s: HyperellipticSurface) -> HyperellipticSurface:
    """Drop decoration marks.

    Order-0 corner classes (the structural marked points of a torus
    presentation, say) are part of the port structure itself; removing one
    merges saddles and changes the skeleton, which is out of scope here.
    """
    return HyperellipticSurface(s.skeleton, s.lengths, s.heights, s.twists, ())


def area(s: HyperellipticSurface) -> Fraction:
    return sum(
        (s.circumference(v) * s.heights[v] for v in s.skeleton.vertices), Fraction(0)
    )


def random_metric(
    skeleton: HalfTree, seed: int, *, max_numerator: int = 8, max_denominator: int = 8
) -> HyperellipticSurface:
    """Deterministic pseudo-random surface on a skeleton, for sweeps.

    Paired ports share one length draw, keeping the metric involution-valid;
    twists are drawn beyond one circumference and rely on normalization.
    """
    rng = random.Random(f"{seed}:{canonical_form(skeleton).encoding}")

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

    @property
    def total_order(self) -> int:
        return sum(self.orders)


def _corner_classes(s: HyperellipticSurface) -> list[tuple[Corner, ...]]:
    """Identification classes of boundary-circle corner points under regluing."""
    parent: dict[Corner, Corner] = {}

    def find(x: Corner) -> Corner:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: Corner, y: Corner) -> None:
        for z in (x, y):
            parent.setdefault(z, z)
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    lay = _layout(s)
    L = lay.circumference
    for p, ((v, a), (w, ts)) in lay.seams.items():
        ell = lay.length[p]
        union((v, "b", a), (w, "t", ts))
        union((v, "b", (a + ell) % L[v]), (w, "t", (ts + ell) % L[w]))
    groups: dict[Corner, list[Corner]] = {}
    for x in parent:
        groups.setdefault(find(x), []).append(x)
    return [tuple(sorted((v, e, Fraction(x, lay.scale)) for v, e, x in g)) for g in groups.values()]


def singularity_profile(s: HyperellipticSurface) -> SingularityProfile:
    """Walk the corners and read off cone angles.

    Each identification class of ``k`` corner points has cone angle ``k * pi``
    and zero order ``k/2 - 1``.  Decoration marks contribute extra order-0
    entries.  The result is cross-checked against the stratum formula before
    returning; a mismatch would mean the gluing conventions are broken, so it
    raises rather than reports.
    """
    classes = sorted(_corner_classes(s), key=lambda g: (-len(g), g))
    corner_orders = []
    for g in classes:
        if len(g) % 2 != 0:
            raise MetricError(f"corner class of odd size {len(g)}: {g}")
        corner_orders.append(len(g) // 2 - 1)
    expected = stratum_of(s.skeleton)
    if tuple(sorted(corner_orders, reverse=True)) != tuple(
        sorted(expected.orders, reverse=True)
    ):
        raise MetricError(
            f"corner walk produced orders {corner_orders}, stratum expects {expected.orders}"
        )
    orders = tuple(sorted(corner_orders, reverse=True)) + (0,) * len(s.marks)
    return SingularityProfile(
        orders=orders,
        corner_orders=tuple(sorted(corner_orders, reverse=True)),
        corner_classes=tuple(classes),
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


def _fixed_corner_classes(
    s: HyperellipticSurface, classes: Sequence[tuple[Corner, ...]]
) -> list[int]:
    """Indices of the corner classes that rotation by pi maps onto themselves."""
    index = {c: i for i, g in enumerate(classes) for c in g}
    L = {v: s.circumference(v) for v in s.skeleton.vertices}
    flip = {"b": "t", "t": "b"}
    return [
        i
        for i, g in enumerate(classes)
        if {index[(v, flip[side], (-x) % L[v])] for v, side, x in g} == {i}
    ]


def weierstrass_points(s: HyperellipticSurface) -> WeierstrassReport:
    """Fixed points of the rotation-by-pi involution.

    Two interior points per cylinder on the half-height circle, one midpoint
    per self-glued saddle, plus every corner class invariant under the
    involution.  The count is compared against ``2g + 2`` and against the
    closed formula ``sum(deg_v + 2) - 2 * #edges + #fixed corner classes``.
    """
    t = s.skeleton
    points: list[tuple] = []
    for v in t.vertices:
        L = s.circumference(v)
        h = s.heights[v]
        x0 = (-s.twists[v] / 2) % L
        points.append(("core", v, x0, h / 2))
        points.append(("core", v, (x0 + L / 2) % L, h / 2))
    for p in t.half_edge_ports():
        points.append(("midpoint", p, s.lengths[p] / 2))
    classes = _corner_classes(s)
    fixed = _fixed_corner_classes(s, classes)
    points.extend(("corner-class", i, classes[i][0]) for i in fixed)
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
    isometry_samples: int
    failures: tuple[str, ...]


def involution_check(s: HyperellipticSurface, samples: int = 5) -> InvolutionReport:
    """Certify the rotation involution on a built surface.

    Runs the glued-level certification (which searches for per-cylinder
    alignments and checks global seam consistency) and spot-checks that the
    involution preserves within-cylinder distances on sample point pairs.
    """
    failures: list[str] = []
    cert = certify_glued(lower(s))
    if not cert.ok:
        failures.extend(cert.failures)
    rng = random.Random(1203 + s.skeleton.n_ports)
    checked = 0
    for v in s.skeleton.vertices:
        L, h, tw = s.circumference(v), s.heights[v], s.twists[v]
        for _ in range(samples):
            x1 = Fraction(rng.randint(0, 97), 98) * L
            x2 = Fraction(rng.randint(0, 97), 98) * L
            s1 = Fraction(rng.randint(1, 97), 98) * h
            s2 = Fraction(rng.randint(1, 97), 98) * h
            dx = (x1 - x2) % L
            dd = min(dx, L - dx)
            j1 = ((-tw - x1) % L, h - s1)
            j2 = ((-tw - x2) % L, h - s2)
            jdx = (j1[0] - j2[0]) % L
            jdd = min(jdx, L - jdx)
            if (dd, abs(s1 - s2)) != (jdd, abs(j1[1] - j2[1])):
                failures.append(f"involution distorted a sample pair in cylinder {v}")
            checked += 1
    wr = weierstrass_points(s)
    if not wr.ok:
        failures.append(
            f"fixed point count {wr.count} != {wr.expected} or formula residual {wr.formula_residual}"
        )
    return InvolutionReport(
        ok=not failures,
        fixed_point_count=wr.count,
        expected_fixed_points=wr.expected,
        isometry_samples=checked,
        failures=tuple(failures),
    )


# -- glued representation ----------------------------------------------------


@dataclass(frozen=True)
class Seam:
    """One saddle connection of a glued surface.

    ``above`` is (cylinder over the seam, start on its bottom circle);
    ``below`` is (cylinder under the seam, start on its top circle).  Points
    are identified by equal offsets from the two start positions.
    """

    seam_id: int
    above: tuple[int, Fraction]
    below: tuple[int, Fraction]
    length: Fraction


@dataclass(frozen=True)
class GluedSurface:
    """Explicit cylinder-and-seam table; the target of :func:`lower`.

    ``cylinders`` maps id -> (circumference, height, flow drift); the drift
    plays the twist's role: vertical flow sends bottom ``x`` to top
    ``(x + drift) mod L``.
    """

    cylinders: dict[int, tuple[Fraction, Fraction, Fraction]]
    seams: dict[int, Seam]
    marks: tuple[tuple[int, Fraction], ...] = ()


def lower(s: HyperellipticSurface) -> GluedSurface:
    """Expand a surface into its explicit seam table (seam ids = port ids)."""
    lay = _layout(s)
    D = lay.scale
    cylinders = {
        v: (Fraction(L, D), s.heights[v], s.twists[v]) for v, L in lay.circumference.items()
    }
    seams = {
        p: Seam(p, (v, Fraction(a, D)), (w, Fraction(b, D)), s.lengths[p])
        for p, ((v, a), (w, b)) in lay.seams.items()
    }
    marks = tuple(sorted((m.port, m.offset) for m in s.marks))
    return GluedSurface(cylinders=cylinders, seams=seams, marks=marks)


@dataclass(frozen=True)
class CertifyResult:
    """Outcome of glued-surface certification.

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


def _circle_partitions(
    gs: GluedSurface,
) -> tuple[dict[int, list[Seam]], dict[int, list[Seam]], list[str]]:
    """Sort seams onto the circles they tile and verify exact tiling."""
    bottoms: dict[int, list[Seam]] = {c: [] for c in gs.cylinders}
    tops: dict[int, list[Seam]] = {c: [] for c in gs.cylinders}
    failures: list[str] = []
    for seam in gs.seams.values():
        if seam.length <= 0:
            failures.append(f"seam {seam.seam_id} has nonpositive length")
        for (cyl, start), table in ((seam.above, bottoms), (seam.below, tops)):
            if cyl not in gs.cylinders:
                failures.append(f"seam {seam.seam_id} references unknown cylinder {cyl}")
            else:
                table[cyl].append(seam)
    for cyl, (L, h, _) in gs.cylinders.items():
        if L <= 0 or h <= 0:
            failures.append(f"cylinder {cyl} has nonpositive dimensions")
        for table, side in ((bottoms, "bottom"), (tops, "top")):
            segs = sorted(table[cyl], key=lambda s: (s.above if side == "bottom" else s.below)[1])
            table[cyl] = segs
            pos = Fraction(0)
            for seam in segs:
                start = (seam.above if side == "bottom" else seam.below)[1]
                if start != pos:
                    failures.append(
                        f"{side} circle of cylinder {cyl} is not tiled at position {pos}"
                    )
                    break
                pos += seam.length
            else:
                if table[cyl] and pos != L:
                    failures.append(
                        f"{side} circle of cylinder {cyl} covers {pos} of circumference {L}"
                    )
                if not table[cyl]:
                    failures.append(f"{side} circle of cylinder {cyl} carries no seams")
    return bottoms, tops, failures


def certify_glued(gs: GluedSurface) -> CertifyResult:
    """Decide whether a seam table is a disjoint union of rotation-symmetric surfaces.

    Per cylinder, candidate alignments ``kappa`` (bottom ``x`` pairs with top
    ``(kappa - x) mod L``) are those matching the bottom partition onto the
    top partition with lengths reversed and marks onto marks.  A backtracking
    pass then forces every seam's two induced images to agree; the first
    consistent assignment in ascending ``kappa`` order wins, which makes
    certification of a lowered surface reproduce its twists exactly.
    """
    bottoms, tops, failures = _circle_partitions(gs)
    if failures:
        return CertifyResult(False, (), {}, {}, tuple(failures))

    mark_sets: dict[int, tuple[set[Fraction], set[Fraction]]] = {
        c: (set(), set()) for c in gs.cylinders
    }
    for seam_id, offset in gs.marks:
        seam = gs.seams.get(seam_id)
        if seam is None:
            return CertifyResult(False, (), {}, {}, (f"mark on unknown seam {seam_id}",))
        if not 0 < offset < seam.length:
            return CertifyResult(
                False, (), {}, {}, (f"mark offset {offset} outside seam {seam_id}",)
            )
        mark_sets[seam.above[0]][0].add(seam.above[1] + offset)
        mark_sets[seam.below[0]][1].add(seam.below[1] + offset)

    candidates: dict[int, list[Fraction]] = {}
    bottom_at: dict[int, dict[Fraction, Seam]] = {}
    top_at: dict[int, dict[Fraction, Seam]] = {}
    for cyl, (L, _, _) in gs.cylinders.items():
        bsegs, tsegs = bottoms[cyl], tops[cyl]
        bottom_at[cyl] = {seg.above[1]: seg for seg in bsegs}
        top_at[cyl] = {seg.below[1]: seg for seg in tsegs}
        first = bsegs[0]
        opts = []
        for tseg in tsegs:
            if tseg.length != first.length:
                continue
            kappa = (tseg.below[1] + first.above[1] + first.length) % L
            good = all(
                top_at[cyl]
                .get((kappa - seg.above[1] - seg.length) % L, _NO_SEAM)
                .length
                == seg.length
                for seg in bsegs
            )
            bmarks, tmarks = mark_sets[cyl]
            if good and {(kappa - x) % L for x in bmarks} == tmarks:
                opts.append(kappa)
        if not opts:
            return CertifyResult(
                False,
                (),
                {},
                {},
                (f"cylinder {cyl}: no rotation aligns its bottom onto its top",),
            )
        candidates[cyl] = sorted(opts)

    comp_of = _components(gs)
    kappas: dict[int, Fraction] = {}
    involution: dict[int, int] = {}
    for comp_cyls in comp_of:
        result = _assign_alignments(gs, comp_cyls, candidates, bottom_at, top_at)
        if isinstance(result, tuple):
            return CertifyResult(False, (), {}, {}, result)
        kappas.update(result)

    for seam in gs.seams.values():
        involution[seam.seam_id] = _jmap_bottom(gs, seam, kappas, top_at).seam_id
    for sid, tid in involution.items():
        if involution[tid] != sid:
            return CertifyResult(
                False, (), {}, {}, (f"seam map not involutive at ({sid}, {tid})",)
            )

    components = []
    for comp_cyls in comp_of:
        surf, errors = _extract_component(gs, comp_cyls, kappas, involution, bottoms)
        if errors:
            return CertifyResult(False, (), involution, kappas, errors)
        components.append(surf)
    return CertifyResult(True, tuple(components), involution, kappas, ())


class _Missing:
    length = None


_NO_SEAM = _Missing()


def _components(gs: GluedSurface) -> list[list[int]]:
    parent = {c: c for c in gs.cylinders}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for seam in gs.seams.values():
        a, b = find(seam.above[0]), find(seam.below[0])
        if a != b:
            parent[a] = b
    groups: dict[int, list[int]] = {}
    for c in gs.cylinders:
        groups.setdefault(find(c), []).append(c)
    return [sorted(g) for g in sorted(groups.values())]


def _jmap_bottom(
    gs: GluedSurface, seam: Seam, kappas: dict[int, Fraction], top_at
) -> Seam:
    cyl, x = seam.above
    L = gs.cylinders[cyl][0]
    return top_at[cyl][(kappas[cyl] - x - seam.length) % L]


def _jmap_top(
    gs: GluedSurface, seam: Seam, kappas: dict[int, Fraction], bottom_at
) -> Seam:
    cyl, y = seam.below
    L = gs.cylinders[cyl][0]
    return bottom_at[cyl][(kappas[cyl] - y - seam.length) % L]


def _assign_alignments(
    gs: GluedSurface,
    comp_cyls: list[int],
    candidates: dict[int, list[Fraction]],
    bottom_at,
    top_at,
) -> dict[int, Fraction] | tuple[str, ...]:
    """Backtracking search for globally consistent alignments on one component."""
    order = comp_cyls
    chosen: dict[int, Fraction] = {}
    touching: dict[int, list[Seam]] = {c: [] for c in comp_cyls}
    for seam in gs.seams.values():
        if seam.above[0] in touching:
            touching[seam.above[0]].append(seam)
        if seam.below[0] in touching and seam.below[0] != seam.above[0]:
            touching[seam.below[0]].append(seam)
    last_conflict: list[str] = []

    def consistent(seam: Seam) -> bool:
        a, b = seam.above[0], seam.below[0]
        if a not in chosen or b not in chosen:
            return True
        t1 = _jmap_bottom(gs, seam, chosen, top_at)
        t2 = _jmap_top(gs, seam, chosen, bottom_at)
        if t1.seam_id != t2.seam_id:
            del last_conflict[:]
            last_conflict.append(
                f"seam {seam.seam_id}: involution images disagree, "
                f"saddle pair ({t1.seam_id}, {t2.seam_id})"
            )
            return False
        return True

    def place(i: int) -> bool:
        if i == len(order):
            return True
        cyl = order[i]
        for kappa in candidates[cyl]:
            chosen[cyl] = kappa
            if all(consistent(seam) for seam in touching[cyl]):
                if place(i + 1):
                    return True
            del chosen[cyl]
        return False

    if place(0):
        return dict(chosen)
    msg = last_conflict[0] if last_conflict else f"component {comp_cyls}: no consistent alignment"
    return (msg,)


def _extract_component(
    gs: GluedSurface,
    comp_cyls: list[int],
    kappas: dict[int, Fraction],
    involution: dict[int, int],
    bottoms: dict[int, list[Seam]],
) -> tuple[HyperellipticSurface | None, tuple[str, ...]]:
    """Rebuild a half-tree presentation from one certified component."""
    ports_of: dict[int, list[int]] = {}
    for cyl in comp_cyls:
        ports_of[cyl] = [seam.seam_id for seam in bottoms[cyl]]
    comp_seams = {sid for cyl in comp_cyls for sid in ports_of[cyl]}
    pairs = []
    for sid in comp_seams:
        tid = involution[sid]
        if tid != sid and sid < tid:
            pairs.append((sid, tid))
    skeleton = HalfTree({c: ports_of[c] for c in comp_cyls}, pairs)
    diag = validate(skeleton)
    if not diag.ok:
        return None, (f"reglued component {comp_cyls} is not a half-tree: {diag.first}",)
    lengths = {sid: gs.seams[sid].length for sid in comp_seams}
    heights = {c: gs.cylinders[c][1] for c in comp_cyls}
    twists = {}
    for c in comp_cyls:
        L, _, drift = gs.cylinders[c]
        twists[c] = (drift - kappas[c]) % L
    marks = [
        Mark(sid, offset) for sid, offset in gs.marks if sid in comp_seams
    ]
    try:
        surf = build(skeleton, lengths, heights, twists, marks)
    except (MetricError, SkeletonError) as exc:
        return None, (f"component {comp_cyls} fails to rebuild: {exc}",)
    return surf, ()


def extract_skeleton(s: HyperellipticSurface) -> HalfTree:
    """Recover the half-tree of a built surface through full certification.

    Deliberately round-trips through the glued seam table instead of reading
    ``s.skeleton`` back, so the layout conventions are exercised end to end.
    """
    cert = certify_glued(lower(s))
    if not cert.ok:
        raise MetricError(f"surface failed certification: {cert.failures[0]}")
    if len(cert.components) != 1:
        raise MetricError(f"expected one component, found {len(cert.components)}")
    return cert.components[0].skeleton


# -- isomorphism -------------------------------------------------------------


def canonical_metric(s: HyperellipticSurface):
    """Canonical total invariant: relabel by each minimizing flag, take the least.

    Rotating a port list so that the port at index ``r`` comes first requires
    the twist correction ``t -> t + 2 * (start of port r)``: the involution
    conjugates a bottom rotation into the opposite top rotation, so twists
    shift by twice the length moved past the origin.
    """
    cf = canonical_form(s.skeleton)
    outcomes = []
    for lab in cf.labelings:
        lengths = [None] * s.skeleton.n_ports
        for p, np in lab.port_map.items():
            lengths[np] = s.lengths[p]
        heights = [None] * len(s.skeleton.vertices)
        twists = [None] * len(s.skeleton.vertices)
        for v, nv in lab.vertex_map.items():
            shift = s.port_start(s.skeleton.ports(v)[lab.rotation[v]])
            heights[nv] = s.heights[v]
            twists[nv] = (s.twists[v] + 2 * shift) % s.circumference(v)
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


def surface_from_json(data: object) -> HyperellipticSurface:
    if not isinstance(data, dict):
        raise MetricError("surface JSON must be an object")
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
