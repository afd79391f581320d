"""Deformations that stay inside the hyperelliptic locus.

Three families: shears (twist moves by amount times height), vertical
dilations (heights scale), and saddle-class dilations (boundary lengths of a
class of saddles scale together).  None of them touch the skeleton, so the
combinatorial invariants of the surface are untouched by construction; the
tests check it anyway.

The module also carries the formal side: cochains dual to cylinder core
curves, the distinguished alternating cochain on half-edge-free trees, and
the battery of necessary conditions a candidate pair of partitions must pass
before the quotient construction will touch it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .halftree import HalfTree, _least_rotation, bipartition, canonical_form
from .surface import HyperellipticSurface, build, fraction_to_string


class DeformError(ValueError):
    """A deformation or partition precondition failed."""


# -- concrete deformations ----------------------------------------------------


def _check_class(s: HyperellipticSurface, cylinders: Iterable[int]) -> tuple[int, ...]:
    chosen = tuple(sorted(set(cylinders)))
    known = set(s.skeleton.vertices)
    for v in chosen:
        if v not in known:
            raise DeformError(f"no cylinder {v}")
    return chosen


def shear_class(
    s: HyperellipticSurface, cylinders: Iterable[int], amount: Fraction
) -> HyperellipticSurface:
    """Horocycle action localized to a cylinder class.

    Each member's twist gains ``amount * height``; everything else is fixed.
    Shearing by the reciprocal of a modulus is a Dehn twist and acts
    trivially, which the normalization absorbs.
    """
    chosen = _check_class(s, cylinders)
    amount = Fraction(amount)
    twists = dict(s.twists)
    for v in chosen:
        twists[v] += amount * s.heights[v]
    return build(s.skeleton, s.lengths, s.heights, twists, s.marks)


def dilate_class(
    s: HyperellipticSurface, cylinders: Iterable[int], factor: Fraction
) -> HyperellipticSurface:
    """Scale the heights of a cylinder class by a positive factor."""
    chosen = _check_class(s, cylinders)
    factor = Fraction(factor)
    if factor <= 0:
        raise DeformError(f"dilation factor must be positive, got {factor}")
    heights = dict(s.heights)
    for v in chosen:
        heights[v] = heights[v] * factor
    return build(s.skeleton, s.lengths, heights, s.twists, s.marks)


def dilate_saddle_class(
    s: HyperellipticSurface, saddles: Iterable[int], factor: Fraction
) -> HyperellipticSurface:
    """Scale every saddle connection in one class by a positive factor.

    Members are named by any port; a port names its whole edge object, so the
    exchanged pair scales together and the metric stays involution-invariant.
    All members must already share one length: the constructions that use
    this action only ever produce such classes, so unequal lengths signal a
    caller error rather than a deformable state.
    """
    factor = Fraction(factor)
    if factor <= 0:
        raise DeformError(f"dilation factor must be positive, got {factor}")
    t = s.skeleton
    port_set = set(t.all_ports)
    objects = set()
    for p in saddles:
        if p not in port_set:
            raise DeformError(f"no saddle {p}")
        objects.add(t.edge_object_of(p))
    ports = [p for obj in objects for p in obj]
    lengths_seen = {s.lengths[p] for p in ports}
    if len(lengths_seen) > 1:
        raise DeformError(
            f"saddle class has unequal lengths {sorted(lengths_seen)}; cannot dilate"
        )
    lengths = dict(s.lengths)
    for p in ports:
        lengths[p] = lengths[p] * factor
    return build(t, lengths, s.heights, s.twists, s.marks)


# -- formal twist vectors ------------------------------------------------------


@dataclass(frozen=True)
class FormalCochain:
    """Rational coefficients on cylinder core-curve duals.

    Evaluation takes signed crossings: a walk through cylinder ``v`` with
    orientation ``sign`` contributes ``sign * coefficient(v)``.
    ``coefficients`` is kept sorted by cylinder, so a coefficient is found by
    bisection.
    """

    coefficients: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", tuple(sorted(self.coefficients)))

    @staticmethod
    def from_map(coeffs: Mapping[int, Fraction]) -> "FormalCochain":
        return FormalCochain(tuple((v, Fraction(c)) for v, c in coeffs.items() if c != 0))

    def coefficient(self, v: int) -> Fraction:
        coeffs = self.coefficients
        i = bisect_left(coeffs, (v,))
        if i < len(coeffs) and coeffs[i][0] == v:
            return coeffs[i][1]
        return Fraction(0)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.coefficients)

    def evaluate(self, crossings: Iterable[tuple[int, int]]) -> Fraction:
        return sum(
            (Fraction(sign) * self.coefficient(v) for v, sign in crossings), Fraction(0)
        )

    def __add__(self, other: "FormalCochain") -> "FormalCochain":
        merged = {v: c for v, c in self.coefficients}
        for v, c in other.coefficients:
            merged[v] = merged.get(v, Fraction(0)) + c
        return FormalCochain.from_map(merged)


def cochain_to_json(c: FormalCochain) -> dict:
    return {"coefficients": {str(v): fraction_to_string(x) for v, x in c.coefficients}}


def standard_shear(s: HyperellipticSurface, cylinders: Iterable[int]) -> FormalCochain:
    """The cochain whose flow is shear_class: height on each member, 0 off it."""
    chosen = _check_class(s, cylinders)
    if not chosen:
        raise DeformError("standard shear of an empty class")
    return FormalCochain.from_map({v: s.heights[v] for v in chosen})


def relative_deformation(s: HyperellipticSurface) -> FormalCochain:
    """The alternating unit cochain, when the skeleton allows one.

    Exists exactly when the skeleton has no half-edges.  Coefficients are
    (-1)^(distance to the root), the root being the vertex that canonical
    relabeling sends to 0; the whole object is only defined up to sign, so
    any deterministic root gives the same line.  Adjacent cylinders receive
    opposite unit coefficients, so every adjacent-pair crossing evaluates
    to zero.
    """
    t = s.skeleton
    if t.half_edge_ports():
        raise DeformError(
            "skeleton has self-glued saddles; no alternating cochain exists"
        )
    labeling = canonical_form(t).labelings[0]
    root = next(v for v, nv in labeling.vertex_map.items() if nv == 0)
    sides = bipartition(t, root)
    return FormalCochain.from_map({v: Fraction(1 - 2 * side) for v, side in sides.items()})


def relative_flow(s: HyperellipticSurface, amount: Fraction) -> HyperellipticSurface:
    """Flow ``amount`` along :func:`relative_deformation`: each twist moves by
    ``amount`` times its cylinder's coefficient."""
    eta = relative_deformation(s)
    amount = Fraction(amount)
    twists = {v: s.twists[v] + amount * eta.coefficient(v) for v in s.skeleton.vertices}
    return build(s.skeleton, s.lengths, s.heights, twists, s.marks)


# -- candidate partitions -----------------------------------------------------


@dataclass(frozen=True)
class _Partition:
    """Classes of members, each class and the tuple of classes sorted."""

    classes: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, groups: Iterable[Iterable[int]]):
        return cls(tuple(sorted(tuple(sorted(set(g))) for g in groups)))

    def class_of(self) -> dict[int, int]:
        """Each member's class index."""
        return {x: i for i, group in enumerate(self.classes) for x in group}


class CylinderPartition(_Partition):
    """A grouping of the cylinders into nonempty classes."""


class SaddlePartition(_Partition):
    """A grouping of the edge objects (saddle orbits) into classes.

    Members are edge keys: the least port of each edge object.  Keeping
    classes on whole objects makes involution-invariance automatic.
    """


def singleton_partitions(t: HalfTree) -> tuple[CylinderPartition, SaddlePartition]:
    return (
        CylinderPartition.of([[v] for v in t.vertices]),
        SaddlePartition.of([[obj[0]] for obj in t.edge_objects()]),
    )


def partitions_to_json(cp: CylinderPartition, sp: SaddlePartition) -> dict:
    return {
        "cylinder_classes": [list(g) for g in cp.classes],
        "saddle_classes": [list(g) for g in sp.classes],
    }


def partitions_from_json(data: object) -> tuple[CylinderPartition, SaddlePartition]:
    if not isinstance(data, dict):
        raise DeformError("partition JSON must be an object")
    for key in ("cylinder_classes", "saddle_classes"):
        if key not in data or not isinstance(data[key], list):
            raise DeformError(f"partition JSON needs a '{key}' array")
        for group in data[key]:
            if not isinstance(group, list) or not all(
                isinstance(x, int) and not isinstance(x, bool) for x in group
            ):
                raise DeformError(
                    f"partition JSON '{key}': class {group!r} is not a list of integers"
                )
    return (
        CylinderPartition.of(data["cylinder_classes"]),
        SaddlePartition.of(data["saddle_classes"]),
    )


def _validate_classes(classes: tuple[tuple[int, ...], ...], members: Iterable[int], kind: str, whole: str):
    """Refuse ``kind`` classes that overlap, miss or exceed ``members`` (the ``whole``), or are empty."""
    flat = [x for g in classes for x in g]
    if len(flat) != len(set(flat)):
        raise DeformError(f"{kind} classes overlap")
    if set(flat) != set(members):
        raise DeformError(f"{kind} classes do not cover the {whole} exactly")
    if any(not g for g in classes):
        raise DeformError(f"empty {kind} class")


def _validate_saddle_partition(t: HalfTree, sp: SaddlePartition) -> None:
    """The saddle half of the partition check: ``sp`` must partition the edge keys of ``t``."""
    _validate_classes(sp.classes, [obj[0] for obj in t.edge_objects()], "saddle", "edge objects")


@dataclass(frozen=True)
class CandidateReport:
    """Verdict of the necessary conditions on a candidate partition pair.

    ``checks`` maps the condition tag (a..f) to pass/fail; ``failures``
    carries one message per violation.  Derived data used by the quotient
    construction: the period of the cyclic class sequence around each
    cylinder, the wrap count (ports over period), and per cylinder class the
    canonical one-period boundary pattern with its circumference.
    """

    checks: dict[str, bool]
    failures: tuple[str, ...]
    period: dict[int, int]
    wraps: dict[int, int]
    base_pattern: dict[int, tuple[tuple[int, Fraction], ...]]
    base_circumference: dict[int, Fraction]

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def _min_rotation(seq: tuple) -> tuple:
    k = _least_rotation(list(seq))
    return seq[k:] + seq[:k]


def check_candidate(
    s: HyperellipticSurface, cp: CylinderPartition, sp: SaddlePartition
) -> CandidateReport:
    """Run the necessary conditions (a)-(f) a quotientable pair must satisfy.

    (a) heights constant on each cylinder class; (b) same-class cylinders
    separated by an even number of class boundaries (edges whose two sides lie
    in different classes); (c) lengths constant on each saddle class; (d) the
    cyclic sequence of saddle classes around each cylinder repeats a pattern
    in which each incident class appears once; (e) that sequence is shared,
    up to rotation, within each cylinder class; (f) the one-period boundary
    patterns agree within each class, exhibiting every member as a wrapping
    of one base cylinder.
    """
    t = s.skeleton
    _validate_classes(cp.classes, t.vertices, "cylinder", "cylinders")
    _validate_saddle_partition(t, sp)
    cyl_class = cp.class_of()
    saddle_class = sp.class_of()
    port_class = {p: saddle_class[t.edge_object_of(p)[0]] for p in t.all_ports}
    failures: list[str] = []
    checks = {k: True for k in "abcdef"}

    # parity of class boundaries crossed on the unique path from a fixed root
    boundary_parity = {t.vertices[0]: 0}
    queue = [t.vertices[0]]
    for v in queue:
        for w in t.neighbors(v):
            if w not in boundary_parity:
                boundary_parity[w] = boundary_parity[v] ^ (cyl_class[v] != cyl_class[w])
                queue.append(w)

    for group in cp.classes:
        hs = {s.heights[v] for v in group}
        if len(hs) > 1:
            checks["a"] = False
            failures.append(f"(a) cylinder class {group} has heights {sorted(hs)}")
        if len({boundary_parity[v] for v in group}) > 1:
            checks["b"] = False
            failures.extend(
                f"(b) cylinders {v} and {w} separated by an odd number of class boundaries"
                for i, v in enumerate(group)
                for w in group[i + 1 :]
                if boundary_parity[v] != boundary_parity[w]
            )

    for group in sp.classes:
        ls = {s.lengths[e] for e in group}
        if len(ls) > 1:
            checks["c"] = False
            failures.append(f"(c) saddle class {group} has lengths {sorted(ls)}")

    class_sequence: dict[int, tuple[int, ...]] = {}
    period: dict[int, int] = {}
    wraps: dict[int, int] = {}
    for v in t.vertices:
        seq = tuple(port_class[p] for p in t.ports(v))
        class_sequence[v] = seq
        n, m = len(seq), len(set(seq))
        period[v] = m
        if n % m or any(seq[i] != seq[(i + m) % n] for i in range(n)) or len(
            set(seq[:m])
        ) != m:
            checks["d"] = False
            failures.append(f"(d) cylinder {v} boundary pattern {seq} not {m}-periodic")
            wraps[v] = 0
        else:
            wraps[v] = n // m

    for group in cp.classes:
        canon = {_min_rotation(class_sequence[v]) for v in group}
        if len(canon) > 1:
            checks["e"] = False
            failures.append(f"(e) cylinder class {group} mixes boundary sequences")

    base_pattern: dict[int, tuple[tuple[int, Fraction], ...]] = {}
    base_circumference: dict[int, Fraction] = {}
    for idx, group in enumerate(cp.classes):
        patterns = set()
        for v in group:
            if not wraps[v]:
                continue
            full = tuple((port_class[p], s.lengths[p]) for p in t.ports(v))
            m = period[v]
            patterns.add(_min_rotation(full)[:m])
        if len(patterns) != 1:
            if patterns:
                checks["f"] = False
                failures.append(
                    f"(f) cylinder class {cp.classes[idx]} has {len(patterns)} distinct base patterns"
                )
            continue
        pat = patterns.pop()
        base_pattern[idx] = pat
        base_circumference[idx] = sum((x for _, x in pat), Fraction(0))

    return CandidateReport(
        checks=checks,
        failures=tuple(failures),
        period=period,
        wraps=wraps,
        base_pattern=base_pattern,
        base_circumference=base_circumference,
    )
