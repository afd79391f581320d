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

A half-tree is immutable, so what is derived from it alone is worked out the
first time it is asked for and kept on it: the verdict of :func:`validate`,
the form of :func:`canonical_form`, the stratum of :func:`stratum_of`, and the
``all_ports``, ``edges()``, ``half_edge_ports()`` and ``edge_objects()``
tuples.  Kept values are shared by every caller and must not be mutated.

:func:`canonical_form` gives each port a token for the planted subtree behind
it, built bottom-up.  Its one fork is the token: the subtree's encoding as a
string up to ``_STRING_PORTS`` ports (that text grows as edges x ports), else
an integer label ranking the subtree's class, in memory linear in the ports
for bounded degree; the ranking inserts each class into one sorted list, so
its time is quadratic in the class count in the worst case.  The encoding and
the automorphism count are computed eagerly: on the string path the encoding
is the least token list joined, on the label path one walk from the first
least flag.  The relabeled tree and the labelings, one walk per least flag,
are built on first read.  No function here recurses, so paths of 10**4
cylinders need no raised recursion limit; the entry grammar that
:func:`enumerate_halftrees` walks, ``_entry_seqs``, is filled bottom-up.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence


def _find(parent, x):
    """Union-find root of ``x`` in ``parent``, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


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

    # the slots from ``_verdict`` on keep values the first time they are asked for
    __slots__ = ("_vertices", "_ports", "_pair", "_vertex_of", "_verdict", "_canonical", "_stratum")
    __slots__ += ("_all_ports", "_edges", "_half_edges", "_edge_objects")

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
        _unkept(self)

    # -- basic accessors ---------------------------------------------------

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def n_ports(self) -> int:
        return len(self._vertex_of)

    @property
    def all_ports(self) -> tuple[int, ...]:
        kept = self._all_ports
        if kept is None:
            kept = self._all_ports = tuple(p for v in self._vertices for p in self._ports[v])
        return kept

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
        kept = self._edges
        if kept is None:
            kept = self._edges = tuple(sorted((p, q) for p, q in self._pair.items() if p < q))
        return kept

    def half_edge_ports(self) -> tuple[int, ...]:
        kept = self._half_edges
        if kept is None:
            kept = self._half_edges = tuple(sorted(p for p in self._vertex_of if p not in self._pair))
        return kept

    def edge_objects(self) -> tuple[tuple[int, ...], ...]:
        """All saddle objects: ``(p, q)`` for full edges, ``(p,)`` for half-edges.

        The first entry of each tuple is the object's key, used wherever JSON
        needs to reference a saddle.
        """
        kept = self._edge_objects
        if kept is None:
            objs: list[tuple[int, ...]] = [*self.edges()]
            objs.extend((p,) for p in self.half_edge_ports())
            kept = self._edge_objects = tuple(sorted(objs))
        return kept

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

    def __reduce__(self):
        """Pickles and copies carry the ports and the pairs, none of the kept values."""
        return HalfTree, (self._ports, self.edges())

    def __repr__(self) -> str:
        parts = ", ".join(f"{v}:{list(ps)}" for v, ps in self._ports.items())
        return f"HalfTree({parts}; pairs={list(self.edges())})"


def _unkept(t: HalfTree) -> None:
    """Start every kept value of a new tree empty."""
    t._verdict = t._canonical = t._stratum = None
    t._all_ports = t._edges = t._half_edges = t._edge_objects = None


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


_VALID = SkeletonDiagnostics(True, ())


def validate(t: HalfTree) -> SkeletonDiagnostics:
    """Check the half-tree invariants, reporting every violation found.

    In order: at least one vertex, no bare vertices, no edge joining a vertex
    to itself, connectivity of the full-edge graph, acyclicity.  A half-tree
    is immutable, so the verdict is worked out once and kept on it.
    """
    verdict = t._verdict
    if verdict is None:
        verdict = t._verdict = _diagnose(t)
    return verdict


def _diagnose(t: HalfTree) -> SkeletonDiagnostics:
    failures: list[str] = []
    if not t.vertices:
        return SkeletonDiagnostics(False, ("skeleton has no vertices",))
    for v in t.vertices:
        if t.degree(v) == 0:
            failures.append(f"vertex {v} has no ports")
    vertex_of = t._vertex_of
    edges = t.edges()
    for p, q in edges:
        if vertex_of[p] == vertex_of[q]:
            failures.append(f"edge ({p}, {q}) joins vertex {vertex_of[p]} to itself")
    parent = {v: v for v in t.vertices}

    comp_edges = {v: 0 for v in t.vertices}
    for p, q in edges:
        a, b = _find(parent, vertex_of[p]), _find(parent, vertex_of[q])
        if a == b:
            comp_edges[a] += 1
        else:
            parent[a] = b
            comp_edges[b] += comp_edges.pop(a) + 1
    size: dict[int, int] = {}  # component root -> vertex count
    for v in t.vertices:
        r = _find(parent, v)
        size[r] = size.get(r, 0) + 1
    if len(size) > 1:
        failures.append("full-edge graph is disconnected")
    if any(comp_edges[r] != n - 1 for r, n in size.items()):
        failures.append("full-edge graph contains a cycle")
    return SkeletonDiagnostics(False, tuple(failures)) if failures else _VALID


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
    Order-0 entries are regular marked points (the torus cases).  The stratum
    is worked out once and kept on the tree.
    """
    kept = t._stratum
    if kept is not None:
        return kept
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
    t._stratum = Stratum(genus=g, zero_count=len(orders), orders=orders, label=label, port_count=n)
    return t._stratum


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
    """A half-tree's least encoding, its automorphism count, the presentation
    the encoding writes and one labeling per minimizing flag.

    :func:`canonical_form` sets the encoding and the count only; ``relabeled``
    and ``labelings`` are built on first read and then kept.  Until then the
    form holds the tree's port tables and its minimizing flags, never the tree
    itself, so a tree and its kept form make no reference cycle.
    """

    encoding: str
    automorphisms: int
    relabeled: HalfTree
    labelings: tuple[CanonicalLabeling, ...]

    def __getattr__(self, name: str):
        # reached only for a field that canonical_form left to be built
        if name == "relabeled":
            value = _tree_from_encoding(self.encoding)
        elif name == "labelings":
            value = _labelings(*vars(self).pop("_flags"))
        else:
            raise AttributeError(name)
        object.__setattr__(self, name, value)
        return value


# Order labels of planted-subtree classes lie in [0, 2**_LABEL_BITS).  In a
# class's key, the end of its child list (the token ``)``) sorts after every
# child class (``(``) and before a half-edge (``-``), as in ASCII.
_LABEL_BITS = 96
_END = 1 << _LABEL_BITS
_STUB = _END + 1
# most entries an aligned label range of size 2**j may keep: (6/5)**j
_ROOM = tuple(6**j // 5**j for j in range(_LABEL_BITS + 1))
# Trees with at most this many ports compare their encodings as strings.  The
# text of every planted subtree grows as edges x ports (about 250 MB for a path
# of 10**4 cylinders), so larger trees order the subtrees by integer labels.
_STRING_PORTS = 1024


def _entered(t: HalfTree) -> list[int]:
    """The port at which each planted subtree is entered, every one after those it holds.

    The subtree behind a paired port ``p`` is the far side of its edge, entered
    at ``q = partner(p)``; its children are the other ports of ``q``'s vertex,
    clockwise from ``q``.  Rooting the tree at its first vertex, the edges
    pointing away from the root come leaves first and the others root first.
    """
    ports, pair, vertex_of = t._ports, t._pair, t._vertex_of
    entry: dict[int, int] = {}  # non-root vertex -> its port towards the root
    queue = [t.vertices[0]]
    for v in queue:
        back = entry.get(v)
        for p in ports[v]:
            q = pair.get(p)
            if q is not None and p != back:
                entry[vertex_of[q]] = q
                queue.append(vertex_of[q])
    entered = [entry[w] for w in reversed(queue[1:])]
    entered += [pair[entry[w]] for w in queue[1:]]
    return entered


def _tokens(t: HalfTree, index: dict[int, int]) -> dict[int, str]:
    """The token of every port: ``-`` for a half-edge, else ``(`` + its subtree's tokens + ``)``.

    The encoding from a flag is then its vertex's tokens read from that index
    on, and the tokens form a prefix code.
    """
    ports, pair, vertex_of = t._ports, t._pair, t._vertex_of
    token = {p: "-" for p in vertex_of if p not in pair}
    of = token.__getitem__
    for q in _entered(t):
        plist = ports[vertex_of[q]]
        i = index[q]
        token[pair[q]] = "(" + "".join(map(of, plist[i + 1 :] + plist[:i])) + ")"
    return token


def _least_token_flags(t: HalfTree, token: Mapping[int, object]) -> tuple[list, list[tuple[int, int]]]:
    """The least token list, and every flag ``(vertex, index)`` that reads it, in that order.

    The encoding from a flag is its vertex's tokens read from that index on.
    The tokens form a prefix code, so token lists compare as their joined
    encodings do: the least encoding begins with the least token, and only the
    rotations that start there are compared.
    """
    first = min(token.values())
    best: list | None = None
    winners: list[tuple[int, int]] = []
    for v in t.vertices:
        seq = list(map(token.__getitem__, t._ports[v]))
        if first not in seq:
            continue
        for i, x in enumerate(seq):
            if x != first:
                continue
            rot = seq[i:] + seq[:i]
            if best is None or rot < best:
                best, winners = rot, []
            if rot == best:
                winners.append((v, i))
    return best, winners


def _planted_classes(t: HalfTree, index: dict[int, int]) -> tuple[dict[int, int], list[tuple[int, ...]]]:
    """Class id of the planted subtree behind every port, and each class's children.

    Class 0 is the half-edge.  A paired port's class is interned by the tuple
    of its children's classes, so equal subtrees share one id and every id
    exceeds its children's.  Subtrees are classed in :func:`_entered` order,
    so each class finds its children already classed.
    """
    ports, pair, vertex_of = t._ports, t._pair, t._vertex_of
    cls = {p: 0 for p in vertex_of if p not in pair}
    of = cls.__getitem__
    kids: list[tuple[int, ...]] = [()]
    ids: dict[tuple[int, ...], int] = {}
    for q in _entered(t):
        plist = ports[vertex_of[q]]
        i = index[q]
        key = tuple(map(of, plist[i + 1 :] + plist[:i]))
        c = ids.get(key)
        if c is None:
            c = ids[key] = len(kids)
            kids.append(key)
        cls[pair[q]] = c
    return cls, kids


def _order_labels(kids: list[tuple[int, ...]]) -> list[int]:
    """Integer labels of the classes whose order is the order of their encodings.

    The encoding of a class is ``(`` + its children's tokens + ``)``.  Tokens
    form a prefix code, so comparing encodings is comparing the keys "child
    labels, then the end marker" element by element.  Classes are inserted
    children first into a sorted list by binary search on their keys; every
    label change is written into the keys that hold it, so keys stay current.
    """
    label = [_STUB] * len(kids)
    keys = [[*map(label.__getitem__, kd), _END] for kd in kids]
    holders: list[list[tuple[int, int]]] = [[] for _ in kids]  # class -> (parent, slot)
    for c in range(1, len(kids)):
        for k, x in enumerate(kids[c]):
            if x:
                holders[x].append((c, k))
    order: list[int] = []
    for c in range(1, len(kids)):
        i = bisect_left(order, keys[c], key=keys.__getitem__)
        order.insert(i, c)
        for x in _place(order, label, i):
            value = label[x]
            for p, k in holders[x]:
                keys[p][k] = value
    return label


def _place(order: list[int], label: list[int], i: int) -> list[int]:
    """Label ``order[i]``, just inserted, strictly between its neighbours.

    List labelling after Bender, Cole, Demaine, Farach-Colton and Zito (2002):
    the midpoint when there is room, else the smallest aligned label range of
    size 2**j around a neighbour that holds at most (6/5)**j entries is
    relabelled evenly, which costs O(log n) amortized per insertion.  Returns
    the entries whose labels were set.
    """
    n = len(order)
    lo = label[order[i - 1]] if i else -1
    hi = label[order[i + 1]] if i + 1 < n else _END
    if hi - lo > 1:
        label[order[i]] = (lo + hi) // 2
        return order[i : i + 1]
    anchor = lo if i else hi
    at = label.__getitem__
    for j in range(1, _LABEL_BITS + 1):
        base = anchor >> j << j
        top = base + (1 << j)
        a = bisect_left(order, base, 0, i, key=at)
        b = bisect_left(order, top, i + 1, n, key=at)
        if b - a <= _ROOM[j] or j == _LABEL_BITS:
            break
    step = (1 << j) // (b - a)
    moved = order[a:b]
    for x, value in zip(moved, range(base + step // 2, top, step)):
        label[x] = value
    return moved


def _least_rotation(seq: list[int]) -> int:
    """Start index of the lexicographically least rotation of ``seq`` (Booth 1980)."""
    s = seq + seq
    fail = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        sj = s[j]
        i = fail[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


def _walk(
    tables: tuple[dict, dict, dict], index: dict[int, int], root: int, start: int
) -> tuple[list[str], list[int], list[int], dict[int, int]]:
    """Planar depth-first walk from one flag, with an explicit stack.

    ``tables`` are a tree's ports, pairs and port vertices.  Returns the
    tokens (``-`` for a half-edge, ``( ... )`` around the subtree behind a full
    edge), the vertex preorder, the port order (incoming port first at each
    non-root vertex) and the rotation applied to each port list.
    """
    ports, pair, vertex_of = tables
    tokens: list[str] = []
    vorder = [root]
    porder: list[int] = []
    rotation = {root: start}
    plist = ports[root]
    stack = [iter(plist[start:] + plist[:start])]
    while stack:
        for p in stack[-1]:
            porder.append(p)
            q = pair.get(p)
            if q is None:
                tokens.append("-")
                continue
            tokens.append("(")
            w = vertex_of[q]
            j = index[q]
            vorder.append(w)
            rotation[w] = j
            porder.append(q)
            plist = ports[w]
            stack.append(iter(plist[j + 1 :] + plist[:j]))
            break
        else:
            stack.pop()
            if stack:
                tokens.append(")")
    return tokens, vorder, porder, rotation


def _port_index(ports: Mapping[int, tuple[int, ...]]) -> dict[int, int]:
    """The index of every port in its vertex's list."""
    return {p: i for plist in ports.values() for i, p in enumerate(plist)}


def _labelings(tables: tuple[dict, dict, dict], flags: list[tuple[int, int]]) -> tuple[CanonicalLabeling, ...]:
    """One labeling per minimizing flag, each from one walk."""
    index = _port_index(tables[0])
    labelings = []
    for v, i in flags:
        _, vorder, porder, rotation = _walk(tables, index, v, i)
        labelings.append(
            CanonicalLabeling(
                vertex_map={ov: nv for nv, ov in enumerate(vorder)},
                port_map={op: np for np, op in enumerate(porder)},
                rotation=rotation,
            )
        )
    return tuple(labelings)


def _preorder_tree(ports_of: dict[int, list[int]], pair: dict[int, int]) -> HalfTree:
    """The half-tree that ``HalfTree(ports_of, pairs)`` makes, without its checks.

    Only for :func:`_tree_from_encoding` and :func:`_tree_from_rooted`, which
    number vertices ``0, 1, ..`` and ports in preorder, so ids are distinct
    ints and ``pair`` maps each port of a pair to the other, in pair order.
    """
    t = HalfTree.__new__(HalfTree)
    t._ports = {v: tuple(plist) for v, plist in ports_of.items()}
    t._vertices = tuple(t._ports)
    t._pair = pair
    t._vertex_of = {p: v for v, plist in t._ports.items() for p in plist}
    _unkept(t)
    return t


def _tree_from_encoding(code: str) -> HalfTree:
    """The presentation an encoding writes, numbered in preorder as :func:`_tree_from_rooted` does."""
    ports_of: dict[int, list[int]] = {0: []}
    pair: dict[int, int] = {}
    stack = [ports_of[0]]
    next_port = 0
    for c in code:
        if c == ")":
            stack.pop()
            continue
        stack[-1].append(next_port)
        next_port += 1
        if c == "(":
            pair[next_port - 1], pair[next_port] = next_port, next_port - 1
            child = [next_port]
            next_port += 1
            ports_of[len(ports_of)] = child
            stack.append(child)
    t = _preorder_tree(ports_of, pair)
    t._verdict = _VALID  # the tree of a valid encoding
    return t


def canonical_form(t: HalfTree) -> CanonicalForm:
    """Lexicographically least planar encoding over all starting flags.

    A flag is a (vertex, port index) choice of where a planar depth-first walk
    begins; the walk writes ``-`` for a half-edge and ``( ... )`` around the
    subtree behind a full edge.  The flag action is free, so the number of
    minimizing flags is the size of the orientation-preserving automorphism
    group; ``labelings`` lists one relabeling per minimizing flag, in
    (vertex, index) order.

    No walk is made per flag.  Each port gets a token for the planted subtree
    behind it, built bottom-up (Aho, Hopcroft and Ullman 1974); the token lists
    of each vertex's rotations that begin with the least token are compared,
    which the prefix code orders as their encodings.  The one fork is the
    token: up to ``_STRING_PORTS`` ports it is the subtree's encoding as a
    string, and the encoding is the least token list joined, with no walk.
    That text grows as edges x ports, so a larger tree labels the subtree
    classes by integers in the order of their encodings (``)`` sorts between
    ``(`` and ``-``) and reads the encoding off one walk from the first
    minimizing flag.  Its memory is linear in the ports for bounded degree,
    but its time is quadratic in the class count in the worst case (each class
    is inserted into one sorted list).  A vertex of degree d costs O(d^2) in
    the search and the ranking.  Nothing recurses.

    The encoding and ``automorphisms`` are worked out here.  ``relabeled`` is
    built from the encoding on first read, and ``labelings`` by one O(n) walk
    per minimizing flag on first read; both are then kept.  The form is
    worked out once and kept on the tree (a failure is never kept), so every
    later call returns the same object: callers share it and must not mutate
    its labelings' dicts.
    """
    if t._canonical is not None:
        return t._canonical
    diag = validate(t)
    if not diag.ok:
        raise SkeletonError(f"cannot canonicalize an invalid skeleton: {diag.first}")
    # validate() rules out an empty skeleton and bare vertices, so there is a flag
    tables = (t._ports, t._pair, t._vertex_of)
    index = _port_index(t._ports)
    if t.n_ports <= _STRING_PORTS:
        least, flags = _least_token_flags(t, _tokens(t, index))
        encoding = "".join(least)
    else:
        cls, kids = _planted_classes(t, index)
        label = _order_labels(kids)
        _, flags = _least_token_flags(t, {p: label[c] for p, c in cls.items()})
        encoding = "".join(_walk(tables, index, *flags[0])[0])
    form = t._canonical = object.__new__(CanonicalForm)
    vars(form).update(encoding=encoding, automorphisms=len(flags), _flags=(tables, flags))
    return form


# -- enumeration -----------------------------------------------------------

ENUMERATION_GUARD = 12


def _entry_seqs(budget: int, memo: dict[int, list[tuple]]) -> list[tuple]:
    """Ordered sequences of stub/subtree entries with total port cost ``budget``.

    An entry is None (a stub, cost 1) or a tuple of entries (a child vertex,
    cost 2 plus the cost of its own entries).  ``memo`` keeps the list for each
    cost; it is filled bottom-up, from 0 to ``budget``, with no recursion.
    """
    for b in range(budget + 1):
        if b in memo:
            continue
        out = [()] if b == 0 else [(None,) + rest for rest in memo[b - 1]]
        for child_cost in range(2, b + 1):
            for child_entries in memo[child_cost - 2]:
                out += [(child_entries,) + rest for rest in memo[b - child_cost]]
        memo[b] = out
    return memo[budget]


def _tree_from_rooted(entries: tuple) -> HalfTree:
    """The presentation of one entry sequence: vertices and ports numbered in preorder."""
    ports_of: dict[int, list[int]] = {0: []}
    pair: dict[int, int] = {}
    next_port = 0
    stack = [(iter(entries), ports_of[0])]
    while stack:
        it, plist = stack[-1]
        for e in it:
            plist.append(next_port)
            next_port += 1
            if e is not None:
                pair[next_port - 1], pair[next_port] = next_port, next_port - 1
                child = [next_port]
                next_port += 1
                ports_of[len(ports_of)] = child
                stack.append((iter(e), child))
                break
        else:
            stack.pop()
    t = _preorder_tree(ports_of, pair)
    t._verdict = _VALID if entries else None  # a tree, and no bare vertex once non-empty
    return t


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
            or type(entry.get("id")) is not int
            or not isinstance(entry.get("ports"), list)
        ):
            raise SkeletonError(f"malformed vertex entry {entry!r}")
        for p in entry["ports"]:
            if type(p) is not int:
                raise SkeletonError(f"port id {p!r} is not an integer")
        if entry["id"] in ports_of:
            raise SkeletonError(f"vertex {entry['id']} listed twice")
        ports_of[entry["id"]] = entry["ports"]
    for pq in pairs:
        if not isinstance(pq, list) or len(pq) != 2 or not all(type(x) is int for x in pq):
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
