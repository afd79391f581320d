"""Planar trees with dangling half-edges: cylinder diagrams of periodic surfaces.

A half-tree records how the horizontal cylinders of a horizontally periodic
translation surface in a hyperelliptic stratum component meet: one vertex per
cylinder, one full edge per saddle pair exchanged by the involution, one
dangling half-edge per self-glued saddle.  Each vertex carries a clockwise
cyclic list of ports.  The rotation of a stored port list matters to the
metric layers built on top (it fixes where twist 0 sits) but not to the
isomorphism type, which is what :func:`canonical_form` quotients out.

Port counts encode the stratum: a half-tree with ``n`` ports presents a
surface of genus ``g`` with ``(n+1)//2 + 1`` or ``n//2 + 1`` singular points
collapsed into one or two zeros according to the parity of ``n``; see
:func:`stratum_of`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence


class SkeletonError(ValueError):
    """Raised when half-tree data is structurally unusable."""


class HalfTree:
    """Immutable vertex/port incidence structure with a partial port pairing.

    ``ports_of`` maps each vertex id to its clockwise port list; ``pairs``
    lists the two-element port pairs forming full edges.  Unpaired ports are
    the half-edges.  Construction performs structural checks only (ids,
    uniqueness, pairing shape); semantic invariants such as connectivity live
    in :func:`validate` so that diagnostics can name them.
    """

    __slots__ = ("_vertices", "_ports", "_pair", "_vertex_of")

    def __init__(self, ports_of: Mapping[int, Sequence[int]], pairs: Iterable[Sequence[int]] = ()):
        ports: dict[int, tuple[int, ...]] = {}
        vertex_of: dict[int, int] = {}
        for v, plist in ports_of.items():
            if not isinstance(v, int):
                raise SkeletonError(f"vertex id {v!r} is not an integer")
            plist = tuple(plist)
            for p in plist:
                if not isinstance(p, int):
                    raise SkeletonError(f"port id {p!r} is not an integer")
                if p in vertex_of:
                    raise SkeletonError(f"port {p} listed twice")
                vertex_of[p] = v
            ports[v] = plist
        pair: dict[int, int] = {}
        for raw in pairs:
            pq = tuple(raw)
            if len(pq) != 2:
                raise SkeletonError(f"pair {pq!r} does not have exactly two ports")
            p, q = pq
            if p == q:
                raise SkeletonError(f"port {p} paired with itself")
            for x in (p, q):
                if x not in vertex_of:
                    raise SkeletonError(f"pair references unknown port {x}")
                if x in pair:
                    raise SkeletonError(f"port {x} appears in two pairs")
            pair[p] = q
            pair[q] = p
        self._vertices = tuple(sorted(ports))
        self._ports = {v: ports[v] for v in self._vertices}
        self._pair = pair
        self._vertex_of = vertex_of

    # -- basic accessors ---------------------------------------------------

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def n_ports(self) -> int:
        return len(self._vertex_of)

    @property
    def all_ports(self) -> tuple[int, ...]:
        return tuple(p for v in self._vertices for p in self._ports[v])

    def ports(self, v: int) -> tuple[int, ...]:
        try:
            return self._ports[v]
        except KeyError:
            raise SkeletonError(f"unknown vertex {v}") from None

    def degree(self, v: int) -> int:
        return len(self.ports(v))

    def vertex_of(self, p: int) -> int:
        try:
            return self._vertex_of[p]
        except KeyError:
            raise SkeletonError(f"unknown port {p}") from None

    def partner(self, p: int) -> int | None:
        """The port glued to ``p`` by a full edge, or None for a half-edge."""
        if p not in self._vertex_of:
            raise SkeletonError(f"unknown port {p}")
        return self._pair.get(p)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Full edges as sorted port pairs, in sorted order."""
        return tuple(sorted((p, q) for p, q in self._pair.items() if p < q))

    def half_edge_ports(self) -> tuple[int, ...]:
        return tuple(sorted(p for p in self._vertex_of if p not in self._pair))

    def edge_objects(self) -> tuple[tuple[int, ...], ...]:
        """All saddle objects: ``(p, q)`` for full edges, ``(p,)`` for half-edges.

        The first entry of each tuple is the object's key, used wherever JSON
        needs to reference a saddle.
        """
        objs = [(p, q) for p, q in self.edges()]
        objs.extend((p,) for p in self.half_edge_ports())
        return tuple(sorted(objs))

    def edge_object_of(self, p: int) -> tuple[int, ...]:
        q = self.partner(p)
        if q is None:
            return (p,)
        return (min(p, q), max(p, q))

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Vertices sharing a full edge with ``v``, with multiplicity."""
        out = []
        for p in self.ports(v):
            q = self._pair.get(p)
            if q is not None:
                out.append(self._vertex_of[q])
        return tuple(out)

    def rotated(self, v: int, shift: int) -> "HalfTree":
        """Same structure with vertex ``v``'s port list rotated left by ``shift``."""
        plist = self.ports(v)
        k = shift % len(plist)
        ports_of = dict(self._ports)
        ports_of[v] = plist[k:] + plist[:k]
        return HalfTree(ports_of, self.edges())

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HalfTree):
            return NotImplemented
        return self._ports == other._ports and self._pair == other._pair

    def __hash__(self) -> int:
        return hash((tuple(self._ports.items()), tuple(sorted(self._pair.items()))))

    def __repr__(self) -> str:
        parts = ", ".join(f"{v}:{list(ps)}" for v, ps in self._ports.items())
        return f"HalfTree({parts}; pairs={list(self.edges())})"


@dataclass(frozen=True)
class SkeletonDiagnostics:
    """Verdict of :func:`validate`; ``failures`` names violations in check order."""

    ok: bool
    failures: tuple[str, ...]

    @property
    def first(self) -> str | None:
        return self.failures[0] if self.failures else None

    def __bool__(self) -> bool:
        return self.ok


def validate(t: HalfTree) -> SkeletonDiagnostics:
    """Check the half-tree invariants, reporting every violation found.

    In order: at least one vertex, no bare vertices, no edge joining a vertex
    to itself, connectivity of the full-edge graph, acyclicity.
    """
    failures: list[str] = []
    if not t.vertices:
        return SkeletonDiagnostics(False, ("skeleton has no vertices",))
    for v in t.vertices:
        if t.degree(v) == 0:
            failures.append(f"vertex {v} has no ports")
    for p, q in t.edges():
        if t.vertex_of(p) == t.vertex_of(q):
            failures.append(f"edge ({p}, {q}) joins vertex {t.vertex_of(p)} to itself")
    parent = {v: v for v in t.vertices}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comp_edges = {v: 0 for v in t.vertices}
    for p, q in t.edges():
        a, b = find(t.vertex_of(p)), find(t.vertex_of(q))
        if a == b:
            comp_edges[a] += 1
        else:
            parent[a] = b
            comp_edges[b] += comp_edges.pop(a) + 1
    roots = {find(v) for v in t.vertices}
    if len(roots) > 1:
        failures.append("full-edge graph is disconnected")
    for r in roots:
        size = sum(1 for v in t.vertices if find(v) == r)
        if comp_edges[r] != size - 1:
            failures.append("full-edge graph contains a cycle")
            break
    return SkeletonDiagnostics(not failures, tuple(failures))


@dataclass(frozen=True)
class Stratum:
    """Genus and zero structure read off from the port count."""

    genus: int
    zero_count: int
    orders: tuple[int, ...]
    label: str
    port_count: int


def stratum_of(t: HalfTree) -> Stratum:
    """Stratum component presented by a valid half-tree.

    An odd port count ``n`` gives genus ``(n+1)/2`` and a single zero of order
    ``2g-2``; an even count gives genus ``n/2`` and two zeros of order ``g-1``.
    Order-0 entries are regular marked points (the torus cases).
    """
    diag = validate(t)
    if not diag.ok:
        raise SkeletonError(f"invalid skeleton: {diag.first}")
    n = t.n_ports
    if n % 2 == 1:
        g = (n + 1) // 2
        orders: tuple[int, ...] = (2 * g - 2,)
    else:
        g = n // 2
        orders = (g - 1, g - 1)
    inner = ",".join(str(k) for k in orders)
    label = f"H({inner})" if g == 1 else f"H^hyp({inner})"
    return Stratum(genus=g, zero_count=len(orders), orders=orders, label=label, port_count=n)


# -- canonical form --------------------------------------------------------


@dataclass(frozen=True)
class CanonicalLabeling:
    """One relabeling of a half-tree onto its canonical presentation.

    ``rotation[v]`` is the index, in the original port list of ``v``, of the
    port that becomes first in the canonical list.  Metric layers need this to
    carry twists through relabeling.
    """

    vertex_map: dict[int, int]
    port_map: dict[int, int]
    rotation: dict[int, int]


@dataclass(frozen=True)
class CanonicalForm:
    encoding: str
    automorphisms: int
    relabeled: HalfTree
    labelings: tuple[CanonicalLabeling, ...]


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


def canonical_form(t: HalfTree) -> CanonicalForm:
    """Lexicographically least planar encoding over all starting flags.

    A flag is a (vertex, port index) choice of where the DFS begins.  The flag
    action is free, so the number of minimizing flags is the size of the
    orientation-preserving automorphism group.
    """
    diag = validate(t)
    if not diag.ok:
        raise SkeletonError(f"cannot canonicalize an invalid skeleton: {diag.first}")
    # validate() rules out an empty skeleton and bare vertices, so there is a flag
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
    pairs = [
        (lab.port_map[p], lab.port_map[q])
        for p, q in t.edges()
    ]
    relabeled = HalfTree(ports_of, pairs)
    return CanonicalForm(
        encoding=best,
        automorphisms=len(winners),
        relabeled=relabeled,
        labelings=tuple(labelings),
    )


# -- enumeration -----------------------------------------------------------

ENUMERATION_GUARD = 12


def _entry_seqs(budget: int, memo: dict[int, list[tuple]]) -> list[tuple]:
    """Ordered sequences of stub/subtree entries with total port cost ``budget``.

    An entry is None (a stub, cost 1) or a tuple of entries (a child vertex,
    cost 2 plus the cost of its own entries).
    """
    if budget in memo:
        return memo[budget]
    out: list[tuple] = []
    if budget == 0:
        out.append(())
    else:
        for rest in _entry_seqs(budget - 1, memo):
            out.append((None,) + rest)
        for child_cost in range(2, budget + 1):
            for child_entries in _entry_seqs(child_cost - 2, memo):
                for rest in _entry_seqs(budget - child_cost, memo):
                    out.append((child_entries,) + rest)
    memo[budget] = out
    return out


def _tree_from_rooted(entries: tuple) -> HalfTree:
    ports_of: dict[int, list[int]] = {}
    pairs: list[tuple[int, int]] = []
    next_port = itertools.count()
    next_vertex = itertools.count()

    def build(es: tuple, incoming_port: int | None) -> None:
        v = next(next_vertex)
        plist: list[int] = []
        if incoming_port is not None:
            own = next(next_port)
            pairs.append((incoming_port, own))
            plist.append(own)
        ports_of[v] = plist
        for e in es:
            p = next(next_port)
            plist.append(p)
            if e is not None:
                build(e, p)

    build(entries, None)
    return HalfTree(ports_of, pairs)


def enumerate_halftrees(n: int, *, limit: int = ENUMERATION_GUARD) -> tuple[HalfTree, ...]:
    """All isomorphism classes of half-trees with ``n`` ports.

    Generates rooted planted presentations and deduplicates by canonical
    encoding; results come back canonically labeled, sorted by encoding.
    The guard exists because the count grows quickly; raise ``limit``
    explicitly for larger sweeps.
    """
    if n < 1:
        raise SkeletonError("a half-tree needs at least one port")
    if n > limit:
        raise SkeletonError(f"n={n} above enumeration guard {limit}")
    memo: dict[int, list[tuple]] = {}
    seen: dict[str, HalfTree] = {}
    for entries in _entry_seqs(n, memo):
        if not entries:
            continue
        t = _tree_from_rooted(entries)
        cf = canonical_form(t)
        if cf.encoding not in seen:
            seen[cf.encoding] = cf.relabeled
    return tuple(seen[k] for k in sorted(seen))


# -- metrics on the tree ---------------------------------------------------


def bipartition(t: HalfTree, root: int | None = None) -> dict[int, int]:
    """Two-coloring of the vertices by parity of distance from ``root``.

    One breadth-first pass over the full edges, after one validity check.
    """
    diag = validate(t)
    if not diag.ok:
        raise SkeletonError(f"invalid skeleton: {diag.first}")
    if root is None:
        root = t.vertices[0]
    elif root not in t._ports:
        raise SkeletonError(f"unknown vertex {root}")
    side = {root: 0}
    queue = [root]
    for v in queue:
        for w in t.neighbors(v):
            if w not in side:
                side[w] = 1 - side[v]
                queue.append(w)
    return {v: side[v] for v in t.vertices}


# -- serialization ---------------------------------------------------------


def halftree_to_json(t: HalfTree) -> dict:
    return {
        "vertices": [{"id": v, "ports": list(t.ports(v))} for v in t.vertices],
        "pairs": [list(e) for e in t.edges()],
    }


def halftree_from_json(data: object) -> HalfTree:
    if not isinstance(data, dict):
        raise SkeletonError("half-tree JSON must be an object")
    try:
        vertices = data["vertices"]
        pairs = data["pairs"]
    except (KeyError, TypeError):
        raise SkeletonError("half-tree JSON needs 'vertices' and 'pairs'") from None
    if not isinstance(vertices, list) or not isinstance(pairs, list):
        raise SkeletonError("'vertices' and 'pairs' must be lists")
    ports_of: dict[int, list[int]] = {}
    for entry in vertices:
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("id"), int)
            or not isinstance(entry.get("ports"), list)
        ):
            raise SkeletonError(f"malformed vertex entry {entry!r}")
        if entry["id"] in ports_of:
            raise SkeletonError(f"vertex {entry['id']} listed twice")
        ports_of[entry["id"]] = entry["ports"]
    for pq in pairs:
        if not isinstance(pq, list) or len(pq) != 2 or not all(isinstance(x, int) for x in pq):
            raise SkeletonError(f"pair {pq!r} is not a list of two port ids")
    return HalfTree(ports_of, pairs)


def halftree_to_dot(t: HalfTree, name: str = "halftree") -> str:
    """Graphviz rendering; half-edges end in invisible point nodes."""
    lines = [f"graph {name} {{", "  node [shape=circle];"]
    for v in t.vertices:
        lines.append(f'  v{v} [label="{v}"];')
    for p, q in t.edges():
        a, b = t.vertex_of(p), t.vertex_of(q)
        lines.append(f'  v{a} -- v{b} [label="{p}|{q}"];')
    for p in t.half_edge_ports():
        lines.append(f"  s{p} [shape=point, width=0.06, label=\"\"];")
        lines.append(f'  v{t.vertex_of(p)} -- s{p} [label="{p}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
