"""Independent brute-force reference implementations used to freeze expected values.

Everything here favors directness over speed: labeled exhaustion, direct
quantifier translation, no clever pruning.  Tests compare the library against
these at small sizes and freeze the agreed values at larger ones.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from flattree import collapse, lemmas
from flattree.flow import FlowError, Trajectory, VerticalCylinder, vertical_decomposition
from flattree.halftree import (
    CanonicalForm,
    CanonicalLabeling,
    HalfTree,
    SkeletonError,
    canonical_form,
    validate,
)
from flattree.surface import (
    CertifyResult,
    DisjointSurface,
    HyperellipticSurface,
    Mark,
    MetricError,
    build,
)


def labeled_halftrees(n: int):
    """Every labeled half-tree with ``n`` ports, ports blocked per vertex.

    Vertices are 0..V-1 with fixed port blocks in degree-sequence order; all
    pairings that form a tree across distinct vertices are enumerated.  Any
    isomorphism class has a representative of this shape, so canonicalizing
    the output sweeps all classes.
    """
    for v_count in range(1, n + 1):
        e_count = v_count - 1
        if 2 * e_count > n:
            continue
        for degs in itertools.product(range(1, n + 1), repeat=v_count):
            if sum(degs) != n:
                continue
            ports_of: dict[int, list[int]] = {}
            nxt = 0
            vert_of = {}
            for v, d in enumerate(degs):
                ports_of[v] = list(range(nxt, nxt + d))
                for p in ports_of[v]:
                    vert_of[p] = v
                nxt += d
            all_ports = list(range(n))
            for pair_ports in itertools.combinations(all_ports, 2 * e_count):
                for pairing in _perfect_matchings(list(pair_ports)):
                    if any(vert_of[p] == vert_of[q] for p, q in pairing):
                        continue
                    t = HalfTree(ports_of, pairing)
                    if validate(t).ok:
                        yield t


def _perfect_matchings(items: list[int]):
    if not items:
        yield []
        return
    a = items[0]
    for i in range(1, len(items)):
        b = items[i]
        rest = items[1:i] + items[i + 1 :]
        for m in _perfect_matchings(rest):
            yield [(a, b)] + m


def entry_seqs_recursive(budget: int, memo: dict[int, list[tuple]]) -> list[tuple]:
    """The entry grammar of ``halftree._entry_seqs`` by its recursive definition.

    An entry is None (a stub, cost 1) or a tuple of entries (a child vertex,
    cost 2 plus the cost of its own entries).
    """
    if budget in memo:
        return memo[budget]
    out: list[tuple] = []
    if budget == 0:
        out.append(())
    else:
        for rest in entry_seqs_recursive(budget - 1, memo):
            out.append((None,) + rest)
        for child_cost in range(2, budget + 1):
            for child_entries in entry_seqs_recursive(child_cost - 2, memo):
                for rest in entry_seqs_recursive(budget - child_cost, memo):
                    out.append((child_entries,) + rest)
    memo[budget] = out
    return out


def count_halftree_classes(n: int) -> int:
    return len({canonical_form(t).encoding for t in labeled_halftrees(n)})


def automorphism_count(t: HalfTree) -> int:
    """Count structure-preserving relabelings directly.

    An automorphism is a vertex bijection plus a rotation of each port list
    that carries the pairing to itself; the count is the number of consistent
    (bijection, rotation) choices.
    """
    verts = t.vertices
    count = 0
    for perm in itertools.permutations(verts):
        sigma = dict(zip(verts, perm))
        if any(t.degree(v) != t.degree(sigma[v]) for v in verts):
            continue
        rot_choices = [range(t.degree(v)) for v in verts]
        for rots in itertools.product(*rot_choices):
            port_map = {}
            for v, r in zip(verts, rots):
                src = t.ports(v)
                dst = t.ports(sigma[v])
                d = len(src)
                for k in range(d):
                    port_map[src[k]] = dst[(r + k) % d]
            ok = True
            for p in port_map:
                q = t.partner(p)
                img = t.partner(port_map[p])
                if (q is None) != (img is None):
                    ok = False
                    break
                if q is not None and port_map[q] != img:
                    ok = False
                    break
            if ok:
                count += 1
    return count


def _encode_from(t: HalfTree, root: int, start_idx: int) -> tuple[str, list[int], list[int], dict[int, int]]:
    """Planar DFS encoding from one flag.

    Tokens: ``-`` for a half-edge, ``( ... )`` wrapping the subtree behind a
    full edge.  Also returns vertex preorder, port order (incoming port first
    at each non-root vertex), and the rotation applied to each port list.
    """
    tokens: list[str] = []
    vorder: list[int] = []
    porder: list[int] = []
    rotation: dict[int, int] = {}

    def visit(v: int, first_idx: int, incoming: int | None) -> None:
        vorder.append(v)
        rotation[v] = first_idx
        plist = t.ports(v)
        deg = len(plist)
        if incoming is not None:
            porder.append(incoming)
        offsets = range(1, deg) if incoming is not None else range(deg)
        for k in offsets:
            p = plist[(first_idx + k) % deg]
            q = t.partner(p)
            porder.append(p)
            if q is None:
                tokens.append("-")
            else:
                tokens.append("(")
                w = t.vertex_of(q)
                visit(w, t.ports(w).index(q), q)
                tokens.append(")")

    visit(root, start_idx, None)
    return "".join(tokens), vorder, porder, rotation


def canonical_form_reference(t: HalfTree) -> CanonicalForm:
    """Least planar encoding by a recursive DFS from every flag: O(n^2).

    The library's ``canonical_form`` ranks planted subtrees instead; this is
    the direct definition it must agree with, labelings and all.
    """
    diag = validate(t)
    if not diag.ok:
        raise SkeletonError(f"cannot canonicalize an invalid skeleton: {diag.first}")
    encodings = [(_encode_from(t, v, i)[0], v, i) for v in t.vertices for i in range(t.degree(v))]
    best = min(enc for enc, _, _ in encodings)
    winners = [(v, i) for enc, v, i in encodings if enc == best]
    labelings = []
    for v, i in winners:
        _, vorder, porder, rotation = _encode_from(t, v, i)
        labelings.append(
            CanonicalLabeling(
                vertex_map={ov: nv for nv, ov in enumerate(vorder)},
                port_map={op: np for np, op in enumerate(porder)},
                rotation=rotation,
            )
        )
    lab = labelings[0]
    ports_of: dict[int, list[int]] = {}
    for ov in t.vertices:
        r = lab.rotation[ov]
        plist = t.ports(ov)
        rotated = plist[r:] + plist[:r]
        ports_of[lab.vertex_map[ov]] = [lab.port_map[p] for p in rotated]
    pairs = [(lab.port_map[p], lab.port_map[q]) for p, q in t.edges()]
    return CanonicalForm(
        encoding=best,
        automorphisms=len(winners),
        relabeled=HalfTree(ports_of, pairs),
        labelings=tuple(labelings),
    )


# -- Fraction positions of the layout convention --------------------------------
# Seam positions summed in ``Fraction`` along each bottom circle, as the surface
# methods first computed them.  The library writes positions once, in integers,
# and its ``port_start``/``top_start`` views must equal these.


def port_start_fraction(s: HyperellipticSurface, p: int) -> Fraction:
    """Bottom-circle position where the copy of ``p`` begins: the lengths before it, summed."""
    ports = s.skeleton.ports(s.skeleton.vertex_of(p))
    return sum((s.lengths[q] for q in ports[: ports.index(p)]), Fraction(0))


def top_start_fraction(s: HyperellipticSurface, p: int) -> Fraction:
    """Top-circle position where the rotation image of ``p`` begins."""
    L = s.circumference(s.skeleton.vertex_of(p))
    return (L - port_start_fraction(s, p) - s.lengths[p]) % L


def seam_sides_fraction(s: HyperellipticSurface, p: int) -> tuple[tuple[int, Fraction], tuple[int, Fraction]]:
    """((vertex above, bottom start), (vertex below, top start)) of seam ``p``."""
    q = s.skeleton.partner(p)
    q = p if q is None else q
    return (
        (s.skeleton.vertex_of(p), port_start_fraction(s, p)),
        (s.skeleton.vertex_of(q), top_start_fraction(s, q)),
    )


def canonical_metric_fraction(s: HyperellipticSurface):
    """``surface.canonical_metric`` in ``Fraction`` arithmetic, one labeling at a time.

    Each rotation shift is the port's start summed along its bottom circle and
    each twist is reduced mod the circumference summed afresh; the library
    reads both off one integer layout instead.
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
            shift = port_start_fraction(s, s.skeleton.ports(v)[lab.rotation[v]])
            heights[nv] = s.heights[v]
            twists[nv] = (s.twists[v] + 2 * shift) % s.circumference(v)
        marks = tuple(sorted((lab.port_map[m.port], m.offset) for m in s.marks))
        outcomes.append((cf.encoding, tuple(lengths), tuple(heights), tuple(twists), marks))
    return min(outcomes)


def odd_boundary_messages(t: HalfTree, classes) -> list[str]:
    """Condition (b) of ``check_candidate`` by its definition, in its message order.

    For every pair of cylinders in one class, walk the tree path between them
    and count the edges whose two ends lie in different classes.
    """
    cls = {v: i for i, g in enumerate(classes) for v in g}
    messages = []
    for g in classes:
        for i, v in enumerate(g):
            parent = {v: v}
            queue = [v]
            for x in queue:
                for y in t.neighbors(x):
                    if y not in parent:
                        parent[y] = x
                        queue.append(y)
            for w in g[i + 1 :]:
                crossed, x = 0, w
                while x != v:
                    crossed += cls[x] != cls[parent[x]]
                    x = parent[x]
                if crossed % 2:
                    messages.append(
                        f"(b) cylinders {v} and {w} separated by an odd number of class boundaries"
                    )
    return messages


# -- naive lemma checkers ----------------------------------------------------


def balls_hypothesis_naive(colors: tuple[int, ...]) -> bool:
    """Direct translation: all same-color pairs with color-free arcs share gap multisets."""
    n = len(colors)

    def arc(i: int, j: int) -> list[int]:
        out = []
        k = (i + 1) % n
        while k != j:
            out.append(colors[k])
            k = (k + 1) % n
        return out

    for c in set(colors):
        pairs = []
        for i in range(n):
            for j in range(n):
                if i != j and colors[i] == c and colors[j] == c:
                    a = arc(i, j)
                    if c not in a:
                        pairs.append(Counter(a))
        for x in pairs:
            for y in pairs:
                if x != y:
                    return False
    return True


def balls_conclusion(colors: tuple[int, ...]) -> bool:
    n = len(colors)
    m = len(set(colors))
    return n % m == 0 and all(colors[i] == colors[(i + m) % n] for i in range(n))


def interval_admissible_graphs(n: int):
    """All graphs admitting a single-winding interval system, by brute force."""
    import itertools as it

    systems = []
    for k in it.product(range(n), repeat=n):
        lens = [(k[i - 1] - k[i]) % n for i in range(n)]
        if n > 2:
            if any(lens[i] + lens[(i + 1) % n] > n - 1 for i in range(n)):
                continue
            if sum(lens) > n:
                continue
        systems.append((k, lens))
    verts = list(range(n))
    for edges in _all_edge_subsets(n):
        nbrs: dict[int, set[int]] = {i: set() for i in verts}
        for a, b in edges:
            nbrs[a].add(b)
            nbrs[b].add(a)
        admissible = False
        for k, lens in systems:
            if all(all((j - k[i]) % n <= lens[i] for j in nbrs[i]) for i in verts):
                admissible = True
                break
        if admissible:
            yield edges


def _all_edge_subsets(n: int):
    all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for r in range(len(all_edges) + 1):
        yield from itertools.combinations(all_edges, r)


def is_forest(n: int, edges) -> bool:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def labeled_trees(n: int):
    """All labeled trees on n vertices via Pruefer sequences."""
    import heapq

    if n == 1:
        yield {0: []}
        return
    if n == 2:
        yield {0: [1], 1: [0]}
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for x in seq:
            degree[x] += 1
        adj: dict[int, list[int]] = {v: [] for v in range(n)}
        heap = [v for v in range(n) if degree[v] == 1]
        heapq.heapify(heap)
        for x in seq:
            leaf = heapq.heappop(heap)
            adj[leaf].append(x)
            adj[x].append(leaf)
            degree[x] -= 1
            if degree[x] == 1:
                heapq.heappush(heap, x)
        a = heapq.heappop(heap)
        b = heapq.heappop(heap)
        adj[a].append(b)
        adj[b].append(a)
        yield {v: sorted(ws) for v, ws in adj.items()}


def unrooted_tree_code(adj: dict[int, list[int]]) -> str:
    """Least rooted AHU code over every choice of root.

    Two trees get the same code exactly when they are isomorphic: an
    isomorphism carries roots to roots and rooted codes to equal codes.
    """

    def rooted(v: int, parent: int | None) -> str:
        return "(" + "".join(sorted(rooted(w, v) for w in adj[v] if w != parent)) + ")"

    return min(rooted(r, None) for r in adj)


def unlabeled_trees(n: int) -> dict[str, dict[int, list[int]]]:
    """One labeled tree per isomorphism class on ``n`` vertices, keyed by
    :func:`unrooted_tree_code`, out of all ``n**(n-2)`` labeled trees."""
    classes: dict[str, dict[int, list[int]]] = {}
    for adj in labeled_trees(n):
        classes.setdefault(unrooted_tree_code(adj), adj)
    return classes


# -- Fraction reference for the vertical flow and the corner walk -------------
# Every table and step in ``Fraction``.  The geometry sums each bottom circle
# once and reads top sides off ``seam_sides_fraction`` once per seam; steps
# read those tables.  The library walks the same lattice in integers and must
# agree with these exactly.


class FractionGeometry:
    """Indexed circle layouts of one surface in ``Fraction``, from the positions above."""

    def __init__(self, s: HyperellipticSurface):
        self.s = s
        t = s.skeleton
        self.L = {v: s.circumference(v) for v in t.vertices}
        self.bottom_starts: dict[int, list[Fraction]] = {}
        self.bottom_ports: dict[int, list[int]] = {}
        self.top_starts: dict[int, list[Fraction]] = {}
        self.top_ports: dict[int, list[int]] = {}
        # seam -> its bottom start, and seam -> (vertex below, top start)
        self.start_of: dict[int, Fraction] = {}
        self.below_of: dict[int, tuple[int, Fraction]] = {}
        for v in t.vertices:
            starts, ports = [], []
            a = Fraction(0)
            for p in t.ports(v):
                starts.append(a)
                ports.append(p)
                a += s.lengths[p]
            self.bottom_starts[v], self.bottom_ports[v] = starts, ports
            self.start_of.update(zip(ports, starts))
        tops: dict[int, list[tuple[Fraction, int]]] = {v: [] for v in t.vertices}
        for p in t.all_ports:
            (_, _), (w, ts) = seam_sides_fraction(s, p)
            self.below_of[p] = (w, ts)
            tops[w].append((ts, p))
        for v, entries in tops.items():
            entries.sort()
            self.top_starts[v] = [e[0] for e in entries]
            self.top_ports[v] = [e[1] for e in entries]
        self.mark_offsets: dict[int, set[Fraction]] = {}
        self.bottom_mark_positions: dict[int, set[Fraction]] = {v: set() for v in t.vertices}
        for m in s.marks:
            self.mark_offsets.setdefault(m.port, set()).add(m.offset)
            v = t.vertex_of(m.port)
            self.bottom_mark_positions[v].add(self.start_of[m.port] + m.offset)

    def step_up(self, v: int, x: Fraction):
        """Cross cylinder ``v`` upward from bottom position ``x``.

        Returns ("cross", vertex, position), ("zero", corner) or
        ("mark", seam, offset).
        """
        y = (x + self.s.twists[v]) % self.L[v]
        starts = self.top_starts[v]
        idx = bisect_right(starts, y) - 1
        ts = starts[idx]
        if y == ts:
            return ("zero", (v, "t", y))
        p = self.top_ports[v]
        seam = p[idx]
        offset = y - ts
        if offset in self.mark_offsets.get(seam, ()):
            return ("mark", (seam, offset))
        above_vertex = self.s.skeleton.vertex_of(seam)
        return ("cross", above_vertex, self.start_of[seam] + offset)

    def step_down(self, v: int, x: Fraction) -> tuple[int, Fraction] | None:
        """Pull a non-corner bottom position down through the cylinder below."""
        starts = self.bottom_starts[v]
        idx = bisect_right(starts, x) - 1
        if x == starts[idx]:
            return None
        w, ts = self.below_of[self.bottom_ports[v][idx]]
        y = ts + (x - starts[idx])
        return (w, (y - self.s.twists[w]) % self.L[w])

    def step_limit(self) -> int:
        """Safe iteration bound: number of representable circle positions."""
        den = 1
        vals = list(self.s.twists.values()) + list(self.s.lengths.values())
        vals += [m.offset for m in self.s.marks]
        for val in vals:
            den = math.lcm(den, val.denominator)
        total = sum(int(self.L[v] * den) for v in self.L)
        return 2 * total + 4


def trace_vertical_fraction(s: HyperellipticSurface, start: tuple[int, Fraction]) -> Trajectory:
    """Follow the upward vertical from a core-circle point until it closes or dies.

    ``start`` is (cylinder, bottom-circle offset).  The offset must avoid
    saddle endpoints and marked points: trajectories out of distinguished
    points are prongs, not flow lines.  Two walks that only a raw surface
    whose paired lengths differ can take stop early: a step that lands past
    the end of its circle raises :class:`FlowError`, and a return to a crossing
    other than the start, which would cycle to the step bound, raises there.
    """
    geo = FractionGeometry(s)
    v, x = start
    if v not in geo.L:
        raise FlowError(f"no cylinder {v}")
    x = Fraction(x) % geo.L[v]
    if x in geo.bottom_starts[v]:
        raise FlowError(f"start ({v}, {x}) lies on a singular corner")
    if x in geo.bottom_mark_positions[v]:
        raise FlowError(f"start ({v}, {x}) lies on a marked point")
    crossings: list[tuple[int, Fraction]] = [(v, x)]
    seen = {(v, x)}
    length = Fraction(0)
    limit = geo.step_limit()
    cur_v, cur_x = v, x
    for _ in range(limit):
        outcome = geo.step_up(cur_v, cur_x)
        length += s.heights[cur_v]
        if outcome[0] != "cross":
            return Trajectory((v, x), False, tuple(crossings), length, outcome)
        _, cur_v, cur_x = outcome
        if cur_x >= geo.L[cur_v]:
            raise FlowError("vertical step lands past the end of its circle")
        if (cur_v, cur_x) == (v, x):
            return Trajectory((v, x), True, tuple(crossings), length)
        if (cur_v, cur_x) in seen:
            break
        seen.add((cur_v, cur_x))
        crossings.append((cur_v, cur_x))
    raise RuntimeError("vertical trace exceeded the rational step bound")


def split_points_fraction(geo: FractionGeometry) -> dict[int, list[Fraction]]:
    """Positions where verticals split, closed under the return map both ways."""
    s = geo.s
    split: dict[int, set[Fraction]] = {}
    for v in geo.L:
        seed = set(geo.bottom_starts[v])
        seed |= {(c - s.twists[v]) % geo.L[v] for c in geo.top_starts[v]}
        seed |= geo.bottom_mark_positions[v]
        for p, offsets in geo.mark_offsets.items():
            w, ts = geo.below_of[p]
            if w == v:
                seed |= {(ts + u - s.twists[v]) % geo.L[v] for u in offsets}
        split[v] = seed
    work = [(v, x) for v in split for x in split[v]]
    while work:
        v, x = work.pop()
        outcome = geo.step_up(v, x)
        if outcome[0] == "cross":
            _, u, x2 = outcome
            if x2 not in split[u]:
                split[u].add(x2)
                work.append((u, x2))
        down = geo.step_down(v, x)
        if down is not None:
            w, x0 = down
            if x0 not in split[w]:
                split[w].add(x0)
                work.append((w, x0))
    return {v: sorted(pts) for v, pts in split.items()}


def vertical_decomposition_fraction(s: HyperellipticSurface) -> tuple[VerticalCylinder, ...]:
    """Decompose the vertical direction into maximal cylinders, exactly.

    Maximal open intervals between split points are permuted by the return
    map; each orbit is one vertical cylinder whose core length is the summed
    height of the cylinders it crosses.  Widths times cores add up to the
    surface area with no tolerance.
    """
    geo = FractionGeometry(s)
    split = split_points_fraction(geo)
    intervals: list[tuple[int, Fraction, Fraction]] = []
    index: dict[tuple[int, Fraction], int] = {}
    for v, pts in split.items():
        L = geo.L[v]
        for i, x in enumerate(pts):
            nxt = pts[i + 1] if i + 1 < len(pts) else pts[0] + L
            index[(v, x)] = len(intervals)
            intervals.append((v, x, nxt - x))
    succ: list[int] = []
    for v, x, width in intervals:
        y = (x + s.twists[v]) % geo.L[v]
        starts = geo.top_starts[v]
        idx = bisect_right(starts, y) - 1
        seam = geo.top_ports[v][idx]
        u = s.skeleton.vertex_of(seam)
        x2 = geo.start_of[seam] + (y - starts[idx])
        succ.append(index[(u, x2)])
    assert len(set(succ)) == len(succ), "interval map failed to be a bijection"
    seen = [False] * len(intervals)
    cylinders: list[VerticalCylinder] = []
    for i in range(len(intervals)):
        if seen[i]:
            continue
        cycle = []
        j = i
        while not seen[j]:
            seen[j] = True
            cycle.append(j)
            j = succ[j]
        widths = {intervals[k][2] for k in cycle}
        assert len(widths) == 1, "interval orbit changed width"
        crossings = [(intervals[k][0], intervals[k][1]) for k in cycle]
        pivot = crossings.index(min(crossings))
        crossings = crossings[pivot:] + crossings[:pivot]
        core = sum((s.heights[v] for v, _ in crossings), Fraction(0))
        cylinders.append(VerticalCylinder(widths.pop(), core, tuple(crossings)))
    return tuple(sorted(cylinders, key=lambda c: c.crossings))


def locate_witness_by_decomposition(
    surface: HyperellipticSurface, C: int, D: int, a_p: Fraction, ell: Fraction
) -> VerticalCylinder:
    """The aligned saddle's witness, searched for in the whole vertical decomposition."""
    core = surface.heights[C] + surface.heights[D]
    for vc in vertical_decomposition(surface):
        if (C, a_p) in vc.crossings and vc.width == ell:
            if vc.core != core or {v for v, _ in vc.crossings} != {C, D}:
                raise FlowError(f"vertical witness over cylinders {C}, {D} crosses others")
            return vc
    raise FlowError("aligned saddle produced no vertical witness")


def corner_classes_fraction(s: HyperellipticSurface) -> list[tuple]:
    """The corner walk in ``Fraction``, positions from ``port_start_fraction``/``top_start_fraction``."""
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y) -> None:
        for z in (x, y):
            parent.setdefault(z, z)
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    t = s.skeleton
    for p in t.all_ports:
        q = t.partner(p)
        q = p if q is None else q
        v, w = t.vertex_of(p), t.vertex_of(q)
        Lv, Lw = s.circumference(v), s.circumference(w)
        a, ts = port_start_fraction(s, p), top_start_fraction(s, q)
        ell = s.lengths[p]
        union((v, "b", a), (w, "t", ts))
        union((v, "b", (a + ell) % Lv), (w, "t", (ts + ell) % Lw))
    groups: dict = {}
    for x in parent:
        groups.setdefault(find(x), []).append(x)
    return [tuple(sorted(g)) for g in groups.values()]



def fixed_corner_classes_fraction(s: HyperellipticSurface, classes) -> list[int]:
    """Indices of the corner classes that rotation by pi maps onto themselves, in ``Fraction``."""
    index = {c: i for i, g in enumerate(classes) for c in g}
    L = {v: s.circumference(v) for v in s.skeleton.vertices}
    flip = {"b": "t", "t": "b"}
    return [
        i
        for i, g in enumerate(classes)
        if {index[(v, flip[side], (-x) % L[v])] for v, side, x in g} == {i}
    ]



def weierstrass_points_fraction(s: HyperellipticSurface) -> tuple[tuple, ...]:
    """Fixed points of rotation by pi in ``Fraction``: cores, stub midpoints, fixed corner classes."""
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
    classes = corner_classes_fraction(s)
    fixed = fixed_corner_classes_fraction(s, classes)
    points.extend(("corner-class", i, classes[i][0]) for i in fixed)
    return tuple(points)

# -- Fraction seam tables and their certification --------------------------------
# A seam table lists every cylinder and saddle of a surface with ``Fraction``
# positions summed here, apart from the library's one integer layout; tests
# lift that layout to a table and compare it with :func:`seam_table_fraction`.
#
# :func:`certify_glued_fraction` is certification as first written: every
# position a ``Fraction`` and a recursive backtracking search, one level per
# cylinder.  The library runs the same search on integers with an explicit
# stack and must agree with this, result and failure text.


@dataclass(frozen=True)
class Seam:
    """One saddle connection of a seam table.

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
    """A seam table: cylinder id -> (circumference, height, flow drift), seams and marks.

    The drift plays the twist's role: vertical flow sends bottom ``x`` to top
    ``(x + drift) mod L``.
    """

    cylinders: dict[int, tuple[Fraction, Fraction, Fraction]]
    seams: dict[int, Seam]
    marks: tuple[tuple[int, Fraction], ...] = ()


def seam_table_fraction(s: HyperellipticSurface) -> GluedSurface:
    """The seam table of ``s`` (seam ids = port ids), every position summed in ``Fraction``."""
    t = s.skeleton
    return GluedSurface(
        cylinders={v: (s.circumference(v), s.heights[v], s.twists[v]) for v in t.vertices},
        seams={p: Seam(p, *seam_sides_fraction(s, p), s.lengths[p]) for p in t.all_ports},
        marks=tuple(sorted((m.port, m.offset) for m in s.marks)),
    )


class _Missing:
    length = None


_NO_SEAM = _Missing()


def _circle_partitions_fraction(gs: GluedSurface):
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


def certify_glued_fraction(gs: GluedSurface) -> CertifyResult:
    """Reference certification of a seam table, in ``Fraction`` and by recursion."""
    bottoms, tops, failures = _circle_partitions_fraction(gs)
    if failures:
        return CertifyResult(False, (), {}, {}, tuple(failures))

    mark_sets: dict[int, tuple[set, set]] = {c: (set(), set()) for c in gs.cylinders}
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
    bottom_at: dict[int, dict] = {}
    top_at: dict[int, dict] = {}
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
                top_at[cyl].get((kappa - seg.above[1] - seg.length) % L, _NO_SEAM).length
                == seg.length
                for seg in bsegs
            )
            bmarks, tmarks = mark_sets[cyl]
            if good and {(kappa - x) % L for x in bmarks} == tmarks:
                opts.append(kappa)
        if not opts:
            return CertifyResult(
                False, (), {}, {}, (f"cylinder {cyl}: no rotation aligns its bottom onto its top",)
            )
        candidates[cyl] = sorted(opts)

    comp_of = _components_fraction(gs)
    kappas: dict[int, Fraction] = {}
    involution: dict[int, int] = {}
    for comp_cyls in comp_of:
        result = _assign_alignments_fraction(gs, comp_cyls, candidates, bottom_at, top_at)
        if isinstance(result, tuple):
            return CertifyResult(False, (), {}, {}, result)
        kappas.update(result)

    for seam in gs.seams.values():
        involution[seam.seam_id] = _jmap_bottom(gs, seam, kappas, top_at).seam_id
    for sid, tid in involution.items():
        if involution[tid] != sid:
            return CertifyResult(False, (), {}, {}, (f"seam map not involutive at ({sid}, {tid})",))

    components = []
    for comp_cyls in comp_of:
        surf, errors = _extract_component_fraction(gs, comp_cyls, kappas, involution, bottoms)
        if errors:
            return CertifyResult(False, (), involution, kappas, errors)
        components.append(surf)
    return CertifyResult(True, tuple(components), involution, kappas, ())


def _components_fraction(gs: GluedSurface) -> list[list[int]]:
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


def _jmap_bottom(gs: GluedSurface, seam: Seam, kappas, top_at) -> Seam:
    cyl, x = seam.above
    L = gs.cylinders[cyl][0]
    return top_at[cyl][(kappas[cyl] - x - seam.length) % L]


def _jmap_top(gs: GluedSurface, seam: Seam, kappas, bottom_at) -> Seam:
    cyl, y = seam.below
    L = gs.cylinders[cyl][0]
    return bottom_at[cyl][(kappas[cyl] - y - seam.length) % L]


def _assign_alignments_fraction(gs, comp_cyls, candidates, bottom_at, top_at):
    """Recursive backtracking, one level per cylinder, ascending kappa."""
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


def _extract_component_fraction(gs, comp_cyls, kappas, involution, bottoms):
    ports_of = {cyl: [seam.seam_id for seam in bottoms[cyl]] for cyl in comp_cyls}
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
    marks = [Mark(sid, offset) for sid, offset in gs.marks if sid in comp_seams]
    try:
        surf = build(skeleton, lengths, heights, twists, marks)
    except (MetricError, SkeletonError) as exc:
        return None, (f"component {comp_cyls} fails to rebuild: {exc}",)
    return surf, ()


def area_fraction(s: HyperellipticSurface) -> Fraction:
    """Total area as a ``Fraction`` sum of circumference times height."""
    return sum((s.circumference(v) * s.heights[v] for v in s.skeleton.vertices), Fraction(0))


# -- per-component reference for vertical collapse ------------------------------
# ``vertical_collapse`` as first written: split the surviving forest with its
# own union-find, then validate and build each subtree.  The library certifies
# the rescaled forest once and takes the pieces from the certification; the
# two must agree on every field below.


def vertical_collapse_per_component(s: HyperellipticSurface, sp, proportions) -> dict:
    """Components, notices, dropped cylinders, deleted edges and areas of the collapse."""
    t = s.skeleton
    props = {e: Fraction(proportions[i]) for i, group in enumerate(sp.classes) for e in group}
    scale: dict[int, Fraction] = {}
    deleted_edges = []
    for obj in t.edge_objects():
        p = props[obj[0]]
        if p == 1:
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
    parent = {v: v for v in new_ports}

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    pairs = []
    for p, q in t.edges():
        if p in survivors:
            pairs.append((p, q))
            a, b = find(t.vertex_of(p)), find(t.vertex_of(q))
            if a != b:
                parent[a] = b
    groups: dict[int, list[int]] = {}
    for v in new_ports:
        groups.setdefault(find(v), []).append(v)
    kept_marks: list[Mark] = []
    for m in s.marks:
        if m.port in survivors:
            kept_marks.append(Mark(m.port, m.offset * scale[m.port]))
        else:
            notices.append(f"mark on collapsed saddle {m.port} was dropped")
    components = []
    for comp_vertices in sorted(sorted(g) for g in groups.values()):
        vset = set(comp_vertices)
        skeleton = HalfTree(
            {v: new_ports[v] for v in comp_vertices},
            [pq for pq in pairs if t.vertex_of(pq[0]) in vset],
        )
        diag = validate(skeleton)
        if not diag.ok:
            raise ValueError(f"collapsed component {comp_vertices} invalid: {diag.first}")
        comp_ports = {p for v in comp_vertices for p in new_ports[v]}
        components.append(
            build(
                skeleton,
                {p: s.lengths[p] * scale[p] for p in comp_ports},
                {v: s.heights[v] for v in comp_vertices},
                {v: s.twists[v] for v in comp_vertices},
                [m for m in kept_marks if m.port in comp_ports],
            )
        )
    before = area_fraction(s)
    after = sum((area_fraction(c) for c in components), Fraction(0))
    return {
        "components": tuple(components),
        "notices": tuple(notices),
        "dropped_cylinders": tuple(dropped),
        "deleted_edges": tuple(deleted_edges),
        "area_before": before,
        "area_after": after,
        "collapsed_area": before - after,
    }


# -- Fraction reference for the covering checks --------------------------------
# The branch and equivariance checks of ``cover`` as first written: positions
# from ``port_start_fraction`` and ``circumference``, offsets and halves in
# ``Fraction``, classes from the Fraction corner walk in profile order.  The
# library runs both checks on one integer scale and must agree with these,
# message for message and in order.


def _profile_classes_fraction(s: HyperellipticSurface) -> list[tuple]:
    return sorted(corner_classes_fraction(s), key=lambda g: (-len(g), g))


def _project_corner_fraction(corner, cyl_map, offsets, base: HyperellipticSurface):
    v, side, x = corner
    w = cyl_map[v]
    L = base.circumference(w)
    if side == "b":
        return (w, "b", (x - offsets[v]) % L)
    return (w, "t", (x + offsets[v]) % L)


def branch_failures_fraction(source, base, cyl_map, offsets, degree) -> list[str]:
    """Every class upstairs projects into one base class, integer cone ratios, full fibers."""
    failures: list[str] = []
    src = _profile_classes_fraction(source)
    dst = _profile_classes_fraction(base)
    where = {c: j for j, g in enumerate(dst) for c in g}
    totals = {j: 0 for j in range(len(dst))}
    for i, g in enumerate(src):
        images = {_project_corner_fraction(c, cyl_map, offsets, base) for c in g}
        hit = {where.get(c) for c in images}
        if None in hit or len(hit) != 1:
            failures.append(f"corner class {i} does not project into one base class")
            continue
        (j,) = hit
        up = len(g) // 2
        down = len(dst[j]) // 2
        if up % down:
            failures.append(f"corner class {i} has cone ratio {up}/{down}, not an integer")
            continue
        totals[j] += up // down
    for j, total in totals.items():
        if total != degree:
            failures.append(f"base corner class {j} is covered {total} times, expected {degree}")
    return failures


def equivariance_failures_fraction(source, base, cyl_map, offsets) -> list[str]:
    """Core fixed points, half-edge midpoints and fixed corner classes map to their kind."""
    failures: list[str] = []
    for v in source.skeleton.vertices:
        w = cyl_map[v]
        L = base.circumference(w)
        base_half = {(-base.twists[w] / 2) % L, ((-base.twists[w] / 2) + L / 2) % L}
        x0 = (-source.twists[v] / 2) % source.circumference(v)
        for x in (x0, (x0 + source.circumference(v) / 2) % source.circumference(v)):
            if (x - offsets[v]) % L not in base_half:
                failures.append(
                    f"core fixed point of cylinder {v} projects off the base fixed circle"
                )
    for p in source.skeleton.half_edge_ports():
        v = source.skeleton.vertex_of(p)
        w = cyl_map[v]
        L = base.circumference(w)
        pos = (port_start_fraction(source, p) + source.lengths[p] / 2 - offsets[v]) % L
        ok = any(
            (port_start_fraction(base, q) + base.lengths[q] / 2) % L == pos
            for q in base.skeleton.ports(w)
            if base.skeleton.partner(q) is None
        )
        if not ok:
            failures.append(f"midpoint of self-glued saddle {p} projects off a base midpoint")
    src = _profile_classes_fraction(source)
    dst = _profile_classes_fraction(base)
    where = {c: j for j, g in enumerate(dst) for c in g}
    fixed_base = set(fixed_corner_classes_fraction(base, dst))
    for i in fixed_corner_classes_fraction(source, src):
        j = where.get(_project_corner_fraction(src[i][0], cyl_map, offsets, base))
        if j is None or j not in fixed_base:
            failures.append(f"fixed corner class {i} projects to a non-fixed class")
    return failures


# -- every interval system, expanded from the library's rotation classes -------


def interval_systems(n: int):
    """All anchor vectors ``k`` of a single-cylinder interval system, in lexicographic order.

    Interval ``I_i`` runs cyclically from ``k[i]`` to ``k[i-1]``.  Two
    requirements, with ``len_i = (k[i-1] - k[i]) % n``:

    * consecutive intervals meet in exactly one point, equivalently
      ``len_i + len_{i+1} <= n - 1``;
    * the intervals chain end-to-end (interval ``i+1`` ends where interval
      ``i`` starts), so the anchors wind the circle at most once:
      ``sum(len_i) <= n``.  Dropping this admits anchor vectors like
      ``(0, 0, 2, 2, 4, 4)`` at ``n = 6`` that wind twice and carry a
      triangle; no boundary-saddle geometry produces them, since the flow
      image of the boundary tiles the opposite circle exactly once.

    For ``n <= 2`` both requirements are dropped, matching the statement
    being tested (a graph on two vertices is always a forest).

    This is the sorted expansion of the representatives of
    :func:`flattree.lemmas._interval_walk`: each ``(k, forest, p)`` stands for
    ``lemmas._rotated(k, r)`` with ``r < p``.
    """
    yield from sorted(
        lemmas._rotated(k, r) for k, _, p in lemmas._interval_walk(n) for r in range(p)
    )


# -- recursive reference for the lemma sweeps ----------------------------------
# The interval and balls enumerators and kernels as first written: recursive
# generators, an O(n^2) pair scan and per-gap ``Counter`` multisets.  The
# library runs iterative enumerators, bitmask intervals and a spacing
# prefilter, and must agree with these case by case and in order.


def interval_systems_recursive(n: int):
    """Anchor vectors of single-winding interval systems, lexicographic, by recursion."""
    if n <= 2:
        yield from itertools.product(range(n), repeat=n)
        return
    k = [0] * n

    def extend(j: int, winding: int):
        if j == n:
            len0 = (k[n - 1] - k[0]) % n
            len1 = (k[0] - k[1]) % n
            lenlast = (k[n - 2] - k[n - 1]) % n
            if lenlast + len0 <= n - 1 and len0 + len1 <= n - 1 and winding + len0 <= n:
                yield tuple(k)
            return
        for val in range(n):
            k[j] = val
            cur = 0
            if j >= 1:
                cur = (k[j - 1] - k[j]) % n
                if winding + cur > n:
                    continue
            if j >= 2:
                prev = (k[j - 2] - k[j - 1]) % n
                if prev + cur > n - 1:
                    continue
            yield from extend(j + 1, winding + cur)

    yield from extend(0, 0)


def max_graph_is_forest_pairs(n: int, k: tuple[int, ...]) -> tuple[bool, tuple[int, int] | None]:
    """Union-find over all pairs ``i < j`` in order; the first cycle-closing edge."""
    lens = [(k[i - 1] - k[i]) % n for i in range(n)]

    def inside(x: int, i: int) -> bool:
        return (x - k[i]) % n <= lens[i]

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if inside(j, i) and inside(i, j):
                a, b = find(i), find(j)
                if a == b:
                    return False, (i, j)
                parent[a] = b
    return True, None


def restricted_growth_strings_recursive(n: int, max_classes: int):
    """Surjective colorings up to renaming colors, lexicographic, by recursion."""
    coloring = [0] * n

    def extend(i: int, used: int):
        if i == n:
            yield tuple(coloring)
            return
        top = min(used + 1, max_classes)
        for c in range(top):
            coloring[i] = c
            yield from extend(i + 1, max(used, c + 1))

    yield from extend(0, 0)


def gaps_agree_counter(colors: tuple[int, ...], m: int) -> bool:
    """Per color below ``m``: ``Counter`` multisets of the gaps between occurrences agree."""
    n = len(colors)
    doubled = colors + colors
    for c in range(m):
        occ = [i for i, x in enumerate(colors) if x == c]
        if len(occ) < 2:
            continue
        gaps = []
        for a in range(len(occ)):
            start = occ[a]
            end = occ[(a + 1) % len(occ)]
            if end <= start:
                end += n
            gaps.append(frozenset(Counter(doubled[start + 1 : end]).items()))
        if len(set(gaps)) > 1:
            return False
    return True


def restricted_growth_strings(n: int, max_classes: int):
    """Surjective colorings up to renaming colors: first occurrences increase.

    Strings come in lexicographic order, from a depth-first walk with an
    explicit index stack.  Every string, with no pruning: the leaves the
    library's balls walk decides at leaf or by prefix.
    """
    if n == 0:
        yield ()
        return
    coloring = [0] * n
    used = [0] * n  # used[i]: number of colors among coloring[:i]
    nxt = [0] * n  # nxt[i]: next color to try at position i
    last = n - 1
    i = 0
    while i >= 0:
        top = min(used[i] + 1, max_classes)
        if i == last:
            for c in range(top):
                coloring[last] = c
                yield tuple(coloring)
            i -= 1
            continue
        c = nxt[i]
        if c >= top:
            i -= 1
            continue
        nxt[i] = c + 1
        coloring[i] = c
        i += 1
        used[i] = max(used[i - 1], c + 1)
        nxt[i] = 0


# -- leaf-by-leaf reference sweeps ----------------------------------------------
# The three lemma sweeps as they were before they decided on prefixes: every
# case checked at its leaf from scratch.  Kernels are looked up on
# ``flattree.lemmas`` at call time, so a test that monkeypatches one there
# patches the reference and the library alike.


def verify_interval_lemma_reference(max_n: int = 8) -> lemmas.LemmaReport:
    cases = 0
    systems_by_n: dict[str, int] = {}
    counterexample = None
    for n in range(1, max_n + 1):
        count = 0
        masks = lemmas._interval_masks(n)
        for k in interval_systems_recursive(n):
            count += 1
            ok, bad_edge = lemmas._max_graph_is_forest(k, masks)
            if not ok and counterexample is None:
                counterexample = {"n": n, "anchors": list(k), "cycle_edge": list(bad_edge)}
        cases += count
        systems_by_n[str(n)] = count
    return lemmas.LemmaReport(
        lemma="interval-forest",
        bounds={"max_n": max_n},
        cases_checked=cases,
        holds=counterexample is None,
        counterexample=counterexample,
        details=systems_by_n,
        elapsed_seconds=0.0,
    )


def verify_balls_lemma_reference(max_n: int = 10, max_m: int = 4) -> lemmas.LemmaReport:
    cases = 0
    hypothesis_held = 0
    counterexample = None
    for n in range(1, max_n + 1):
        for colors in restricted_growth_strings(n, max_m):
            cases += 1
            m = max(colors) + 1
            if not lemmas._gaps_agree(colors, m):
                continue
            hypothesis_held += 1
            periodic = n % m == 0 and all(colors[i] == colors[(i + m) % n] for i in range(n))
            if not periodic and counterexample is None:
                counterexample = {"n": n, "colors": list(colors), "period": m}
    return lemmas.LemmaReport(
        lemma="circular-balls-periodicity",
        bounds={"max_n": max_n, "max_m": max_m},
        cases_checked=cases,
        holds=counterexample is None,
        counterexample=counterexample,
        details={"hypothesis_held": hypothesis_held},
        elapsed_seconds=0.0,
    )


def verify_colored_tree_lemma_reference(
    max_vertices: int = 8, max_colors: int = 4
) -> lemmas.LemmaReport:
    cases = 0
    hypothesis_held = 0
    trees_seen = 0
    counterexample = None
    for n in range(1, max_vertices + 1):
        for adj in lemmas._all_trees(n):
            trees_seen += 1
            order = sorted(adj)
            bfs = [order[0]]
            side = {order[0]: 0}
            for v in bfs:
                for w in adj[v]:
                    if w not in side:
                        side[w] = 1 - side[v]
                        bfs.append(w)
            coloring: dict[int, int] = {}

            def sweep(idx: int, used: int) -> None:
                nonlocal cases, hypothesis_held, counterexample
                if idx == len(bfs):
                    cases += 1
                    if not lemmas.neighbor_sets_homogeneous(adj, coloring):
                        return
                    hypothesis_held += 1
                    for v in adj:
                        for w in adj:
                            if v < w and coloring[v] == coloring[w] and side[v] != side[w]:
                                if counterexample is None:
                                    counterexample = {
                                        "n": n,
                                        "adjacency": {str(a): bs for a, bs in adj.items()},
                                        "coloring": {str(a): coloring[a] for a in sorted(adj)},
                                        "odd_pair": [v, w],
                                    }
                                return
                    return
                v = bfs[idx]
                top = min(used + 1, max_colors)
                for c in range(top):
                    if any(coloring.get(w) == c for w in adj[v]):
                        continue
                    coloring[v] = c
                    sweep(idx + 1, max(used, c + 1))
                    del coloring[v]

            sweep(0, 0)
    return lemmas.LemmaReport(
        lemma="colored-tree-even-distance",
        bounds={"max_vertices": max_vertices, "max_colors": max_colors},
        cases_checked=cases,
        holds=counterexample is None,
        counterexample=counterexample,
        details={"trees": trees_seen, "hypothesis_held": hypothesis_held},
        elapsed_seconds=0.0,
    )


# -- Fraction reference for horizontal collapse ---------------------------------
# ``horizontal_collapse`` as first written: expand the surface into its
# ``Fraction`` seam table, scan every seam per deleted cylinder, and certify
# the reglued table with :func:`certify_glued_fraction`.  The library runs on
# the integer layout and must agree with this by ``repr``, refusals included,
# and its reglued layout, lifted to a table, must equal the reglued table.


def horizontal_collapse_fraction(
    s: HyperellipticSurface, delete: Iterable[int]
) -> tuple[collapse.HorizontalCollapseResult, GluedSurface]:
    """Reference horizontal collapse on the explicit ``Fraction`` seam table, and the reglued table."""
    chosen = collapse._deleted_set_preconditions(s, delete)
    gs = seam_table_fraction(s)

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
    gluings: list[collapse.StripGluing] = []
    junctions: list[tuple[int, Fraction, str]] = []
    forests: list[collapse.ForestReport] = []

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
            gluings.append(collapse.StripGluing(c, sid, sigma.seam_id, tau.seam_id, alpha, width))
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
                raise collapse.CollapseError(
                    f"strip pairing broke at cylinder {c}: no strip at {mate}"
                )
            if strip_width[mate] != strip_width[alpha]:
                raise collapse.CollapseError(f"strip pairing widths differ at cylinder {c}")
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
            collapse.ForestReport(c, tuple(neighbors), tuple(edges), tuple(sorted(half_strips)), is_forest)
        )

    # a junction where a bottom and a top corner meet is a vertical saddle connection
    if not any(kind == "both" for _, _, kind in junctions):
        raise collapse.CollapseError(
            "no vertical saddle connection inside the deleted set; shear first"
        )
    bad = [f for f in forests if not f.is_forest]
    if bad:
        raise collapse.CollapseError(
            f"regluing at cylinder {bad[0].deleted} closes a cycle; not a forest"
        )

    reglued = GluedSurface(
        cylinders={v: gs.cylinders[v] for v in gs.cylinders if v not in chosen},
        seams=new_seams,
        marks=tuple(sorted(new_marks)),
    )
    cert = certify_glued_fraction(reglued)
    if not cert.ok:
        raise collapse.CollapseError(f"reglued surface failed certification: {cert.failures[0]}")
    out = DisjointSurface(cert.components, tuple(notices))
    after = sum((area_fraction(comp) for comp in cert.components), Fraction(0))
    deleted_area = sum((gs.cylinders[c][0] * gs.cylinders[c][1] for c in chosen), Fraction(0))
    result = collapse.HorizontalCollapseResult(
        surfaces=out,
        certification=cert,
        gluings=tuple(gluings),
        junctions=tuple(junctions),
        forests=tuple(forests),
        area_before=area_fraction(s),
        area_after=after,
        deleted_area=deleted_area,
        _reglued=None,  # the library's integer layout, which this reference never builds
    )
    return result, reglued
