"""Vertical flow: trajectories, cylinder decompositions, saddle alignment.

All flow here goes straight up.  Inside a cylinder the vertical coordinate is
untouched; crossing the top boundary applies the twist, so the first-return
map on the union of bottom circles is a piecewise translation.  Rational data
make every orbit periodic, which is what lets the decomposition be exact.

A trajectory stops when it meets a zero or a marked point; decoration marks
therefore act as vertical barriers and may subdivide what would otherwise be
a single vertical cylinder.  Widths and areas are unaffected.

:func:`_return_map` lays the bottom circles end to end on one integer line,
on the kept layout's scale, and cuts the return map into translation pieces
there.  Every walk reads that one table: :func:`trace_vertical` steps one
point (off the lattice, with a fixed remainder), :func:`vertical_decomposition`
walks forward from each bottom corner and mark, and :func:`_locate_witness`
carries a strip.  Exact ``Fraction`` crossings are built only when read.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from operator import itemgetter
from typing import Iterable

from .surface import HyperellipticSurface, _circles, _layout, _on, _seam_marks, build


class FlowError(ValueError):
    """A flow precondition failed: singular start, foreign cylinder, bad saddle."""


@dataclass(frozen=True)
class Trajectory:
    """Record of one upward vertical trajectory.

    ``crossings`` lists (cylinder, bottom offset) each time a core circle is
    entered; ``length`` sums the heights of the cylinders fully crossed.  A
    closed trajectory returned to its start; otherwise ``hit`` names the zero
    corner (cylinder, "t", top position) or the mark (seam, offset) that
    stopped it.
    """

    start: tuple[int, Fraction]
    closed: bool
    crossings: tuple[tuple[int, Fraction], ...]
    length: Fraction
    hit: tuple | None = None


@dataclass(frozen=True)
class VerticalCylinder:
    width: Fraction
    core: Fraction
    crossings: Sequence[tuple[int, Fraction]]

    @property
    def area(self) -> Fraction:
        return self.width * self.core

    def crossing_count(self, vertex: int) -> int:
        if isinstance(self.crossings, _Crossings):
            return self.crossings.visits(vertex)
        return sum(1 for v, _ in self.crossings if v == vertex)


class _Crossings(Sequence):
    """Read-only view of crossings given as points of the return map's line.

    ``circles`` is (sorted vertices, their offsets on the line, scale).  ``len``
    and :meth:`visits` read ints; the exact tuple ``self[:]`` is built on first item
    access, and ``==``, ``hash`` and ``repr`` are that tuple's.  Two views on equal
    circle tables compare their int orbits instead, with the same result.
    """

    __slots__ = ("_orbit", "_circles", "_exact")

    def __init__(self, orbit: list[int], circles: tuple[list[int], list[int], int]):
        self._orbit, self._circles, self._exact = orbit, circles, None

    def visits(self, vertex: int) -> int:
        verts, offs, _ = self._circles
        i = bisect_left(verts, vertex)
        lo, hi = offs[i : i + 2] if verts[i : i + 1] == [vertex] else (0, 0)
        return sum(lo <= g < hi for g in self._orbit)

    def __len__(self) -> int:
        return len(self._orbit)

    def __getitem__(self, i):
        if self._exact is None:
            verts, offs, D = self._circles
            at = [bisect_right(offs, g) - 1 for g in self._orbit]
            self._exact = tuple((verts[k], Fraction(g - offs[k], D)) for k, g in zip(at, self._orbit))
        return self._exact[i]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _Crossings) and other._circles == self._circles:
            return self._orbit == other._orbit  # the table maps orbits one to one
        return self[:] == (other[:] if isinstance(other, _Crossings) else other)

    def __hash__(self) -> int:
        return hash(self[:])

    def __repr__(self) -> str:
        return repr(self[:])


def _return_map(s: HyperellipticSurface):
    """The first-return map to the bottom circles, on one integer line.

    Returns ``(D, H, verts, offs, starts, pieces, sources)``: on the layout
    scale ``D``, the bottom circle of ``verts[i]`` (sorted) is ``[offs[i],
    offs[i + 1])``.  A point ``g`` of the piece from ``starts[j]``, with
    ``(shift, h, stop) = pieces[j]``, crosses a height of ``h / H`` and
    returns at ``g + shift``, unless ``g == stop``: it then meets the top
    corner or mark glued to the source ``g + shift``, and ``sources`` maps
    that to ``("zero", (cylinder, "t", top position))`` or ``("mark", (seam,
    offset))``.  ``stop`` is None on a piece whose returns fall past the end
    of their circle, which only an inconsistent raw surface has.
    """
    lay = _layout(s)
    H = math.lcm(*(h.denominator for h in s.heights.values()))
    verts = sorted(lay.circumference)
    offs = [0, *accumulate(lay.circumference[v] for v in verts)]
    off = dict(zip(verts, offs))
    marks = _seam_marks(lay)
    sources: dict[int, tuple] = {}
    for p, ((v, a), (w, b)) in lay.seams.items():
        sources[off[v] + a] = ("zero", (w, "t", b))
        for u in marks.get(p, ()):
            sources[off[v] + a + u] = ("mark", (p, u))
    starts, pieces = [], []
    _, tops_of = _circles(lay)
    for v, o in off.items():
        L, tops = lay.circumference[v], tops_of[v]
        tw, h = lay.twist[v] % L, _on(s.heights[v], H)
        # top corners and marks, the line point each is glued to, and where returns leave its circle
        ys, glued, out, cuts = [], [], [], {0}
        for (b, p), (nb, _) in zip(tops, [*tops[1:], (L, None)]):
            (u, a), _ = lay.seams[p]
            leave = b + lay.circumference[u] - a
            if leave < nb:
                cuts.add((leave - tw) % L)
            for m in (0, *marks.get(p, ())):  # its corner, then its marks
                ys.append(b + m)
                glued.append(off[u] + a + m)
                out.append(leave)
                cuts.add((b + m - tw) % L)
        for x in sorted(cuts):
            y = (x + tw) % L
            k = bisect_right(ys, y) - 1
            starts.append(o + x)
            stop = o + x if y == ys[k] else None if y >= out[k] else -1
            pieces.append((glued[k] + y - ys[k] - o - x, h, stop))
    return lay.scale, H, verts, offs, starts, pieces, sources


def trace_vertical(s: HyperellipticSurface, start: tuple[int, Fraction]) -> Trajectory:
    """Follow the upward vertical from a core-circle point until it closes or dies.

    ``start`` is (cylinder, bottom-circle offset).  The offset must avoid
    saddle endpoints and marked points: trajectories out of distinguished
    points are prongs, not flow lines.

    The walk reads the return-map table on the kept layout's scale ``D``.  On
    the scale ``k * D`` that makes the start an int, it is the table's point
    ``g`` plus a remainder ``0 <= r < k``.  It moves with the piece of ``g``,
    so ``r`` stays, and it can meet a corner or mark only when ``r == 0``.
    """
    v, x = start
    if v not in s.skeleton.vertices:
        raise FlowError(f"no cylinder {v}")
    x = Fraction(x)
    D, H, verts, offs, starts, pieces, sources = _return_map(s)
    k = x.denominator // math.gcd(x.denominator, D)
    o, end = offs[verts.index(v) : verts.index(v) + 2]
    y = _on(x, k * D) % (k * (end - o))  # on the scale k * D, from the circle's start
    g, r, x = o + y // k, y % k, Fraction(y, k * D)
    if r == 0 and g in sources:
        what = "singular corner" if sources[g][0] == "zero" else "marked point"
        raise FlowError(f"start ({v}, {x}) lies on a {what}")
    orbit, length, hit = [g], 0, None
    # every crossing lands on one of the line's k * offs[-1] points
    for _ in range(2 * k * offs[-1] + 4):
        shift, h, stop = pieces[bisect_right(starts, g) - 1]
        length += h
        if r == 0 and g == stop:
            kind, where = sources[g + shift]
            hit = (kind, where[:-1] + (Fraction(where[-1], D),))
            break
        if stop is None:
            raise FlowError("vertical step lands past the end of its circle")
        g += shift
        if g == orbit[0]:
            break
        orbit.append(g)
    else:
        raise FlowError("vertical trace exceeded the rational step bound")
    crossings = _Crossings([k * u + r for u in orbit], (verts, [k * u for u in offs], k * D))
    return Trajectory((v, x), hit is None, crossings[:], Fraction(length, H), hit)


def vertical_decomposition(s: HyperellipticSurface) -> tuple[VerticalCylinder, ...]:
    """Decompose the vertical direction into maximal cylinders, exactly.

    The split points are the forward walks of the return map from each bottom
    corner and mark to a top corner or mark.  The map is injective and never
    lands on a walk's start, so the walks are disjoint; the interval after a
    walk's last point goes to the one after the start of the walk it stops
    at, so each vertical cylinder is one cycle of walks.  Its core sums the
    heights crossed; ``crossings`` is a :class:`_Crossings` view.
    """
    D, H, verts, offs, starts, pieces, sources = _return_map(s)
    index = {g: i for i, g in enumerate(sorted(sources))}
    walks, cores, succ = [], [], []
    for g in index:
        walk, core = [], 0
        for _ in range(offs[-1]):
            walk.append(g)
            shift, h, stop = pieces[bisect_right(starts, g) - 1]
            core += h
            if g == stop:
                break
            g += shift
        else:
            raise FlowError("interval map failed to be a bijection")
        walks.append(walk)
        cores.append(core)
        succ.append(index[g + shift])
    if len(set(succ)) != len(succ):
        raise FlowError("interval map failed to be a bijection")
    points = sorted(chain.from_iterable(walks))
    ends = points[1:] + offs[-1:]
    seen, found, shifted = [False] * len(walks), [], []
    for i in range(len(walks)):
        orbit, core, j = [], 0, i
        while not seen[j]:
            seen[j] = True
            orbit += walks[j]
            core += cores[j]
            j = succ[j]
        if orbit:
            pivot = min(orbit)
            width = ends[bisect_left(points, pivot)] - pivot
            shifted += [g + width for g in orbit]
            k = orbit.index(pivot)
            crossings = _Crossings(orbit[k:] + orbit[:k], (verts, offs, D))
            found.append((pivot, VerticalCylinder(Fraction(width, D), Fraction(core, H), crossings)))
    # as every g + width > g, this holds only if each point's interval has its orbit's width
    if sorted(shifted) != ends:
        raise FlowError("interval orbit changed width")
    return tuple(vc for _, vc in sorted(found, key=itemgetter(0)))


def cylinder_proportion(
    s: HyperellipticSurface, vertical_set: Iterable[VerticalCylinder], cylinder: int
) -> Fraction:
    """Exact share of horizontal cylinder ``cylinder`` covered by ``vertical_set``.

    Each crossing of width w through C occupies area w * height(C), so the
    proportion is the crossing-weighted width over C's circumference.
    """
    if cylinder not in set(s.skeleton.vertices):
        raise FlowError(f"no cylinder {cylinder}")
    current = vertical_decomposition(s)
    # hashing a cylinder builds all its exact crossings, so match on ints first
    index: dict[tuple, list[int]] = {}
    for i, vc in enumerate(current):
        index.setdefault((vc.width, vc.core, len(vc.crossings)), []).append(i)
    chosen, foreign = set(), []
    for vc in vertical_set:
        bucket = index.get((vc.width, vc.core, len(vc.crossings)), ())
        match = next((i for i in bucket if current[i] == vc), None)
        if match is None:
            foreign.append(vc)
        else:
            chosen.add(match)
    if foreign:
        # distinct by ==, as a foreign cylinder's crossings need not be hashable
        distinct = sum(vc not in foreign[:i] for i, vc in enumerate(foreign))
        raise FlowError(f"{distinct} vertical cylinder(s) not from the current decomposition")
    L = s.circumference(cylinder)
    covered = sum(
        (current[i].width * current[i].crossing_count(cylinder) for i in chosen), Fraction(0)
    )
    return covered / L


# -- saddle alignment ---------------------------------------------------------


@dataclass(frozen=True)
class StandardPosition:
    """Twist deltas aligning the two copies of a shared saddle vertically.

    After adding ``deltas`` to the twists of the two adjacent cylinders, the
    vertical cylinder ``vertical`` has width equal to the saddle length, core
    equal to the two heights' sum, and crosses nothing else.
    """

    saddle: tuple[int, int]
    cylinders: tuple[int, int]
    deltas: dict[int, Fraction]
    surface: HyperellipticSurface
    vertical: VerticalCylinder


def _locate_witness(
    surface: HyperellipticSurface, C: int, D: int, a_p: Fraction, ell: Fraction
) -> VerticalCylinder:
    """Walk the strip over the saddle copy ``[a_p, a_p + ell)`` on ``C``'s bottom.

    ``a_p`` and ``ell`` are the saddle's start and length, so they lie on the
    layout's lattice.

    The strip is a vertical cylinder exactly when, at every crossing, it lies
    inside one piece of the return map, that is, its top image lies inside one
    seam with no mark strictly inside.  Its bottom
    intervals need no check of their own: each is the image of the top
    interval checked one crossing earlier (the first, of the last, once the
    walk closes), and the two sides of a seam carry the same marks.  The
    images are then disjoint, flow-invariant and free of split points, so the
    walk closes within sum(L) / w crossings.  A failed check means a split
    point inside the strip ("no vertical witness"); a strip that closes
    anywhere but after one crossing of ``C`` and one of ``D`` "crosses others".
    """
    scale, _, verts, offs, starts, pieces, _ = _return_map(surface)
    ends = starts[1:] + offs[-1:]
    g = offs[verts.index(C)] + _on(a_p, scale)
    w = _on(ell, scale)
    walk = [g]
    for _ in range(offs[-1] // w):
        j = bisect_right(starts, g) - 1
        if g + w > ends[j]:
            break
        g += pieces[j][0]
        if g == walk[0]:
            if [v for v, _ in _Crossings(walk, (verts, offs, scale))] != [C, D]:
                raise FlowError(f"vertical witness over cylinders {C}, {D} crosses others")
            core = surface.heights[C] + surface.heights[D]
            # of two crossings, the rotation starting at the least is the sorted one
            return VerticalCylinder(ell, core, _Crossings(sorted(walk), (verts, offs, scale)))
        walk.append(g)
    raise FlowError("aligned saddle produced no vertical witness")


def standard_position(s: HyperellipticSurface, saddle: int) -> StandardPosition:
    """Shear both adjacent cylinders so the shared saddle sits over itself.

    After the shear the strip over the saddle is a closed vertical cylinder:
    its width is the saddle length, its core is the sum of the two heights,
    and it crosses only the two cylinders.  The witness is read off one walk
    of that strip on the integer layout.
    """
    t = s.skeleton
    if saddle not in set(t.all_ports):
        raise FlowError(f"no saddle {saddle}")
    q = t.partner(saddle)
    if q is None:
        raise FlowError(
            f"saddle {saddle} is self-glued; alignment needs two distinct cylinders"
        )
    if any(m.port in (saddle, q) for m in s.marks):
        raise FlowError(f"marked points on saddle {saddle} would split the witness")
    C, D = t.vertex_of(saddle), t.vertex_of(q)
    lay, targets, deltas = _layout(s), {}, {}
    for p in (saddle, q):
        (vertex, start), _ = lay.seams[p]
        L = lay.circumference[vertex]
        target = (-2 * start - lay.length[saddle]) % L
        targets[vertex] = Fraction(target, lay.scale)
        deltas[vertex] = Fraction((target - lay.twist[vertex]) % L, lay.scale)
    twists = {**s.twists, **targets}
    aligned = build(s.skeleton, s.lengths, s.heights, twists, s.marks)
    a_p = Fraction(lay.seams[saddle][0][1], lay.scale)
    witness = _locate_witness(aligned, C, D, a_p, s.lengths[saddle])
    return StandardPosition((saddle, q), (C, D), deltas, aligned, witness)
