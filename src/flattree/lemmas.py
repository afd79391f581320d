"""Exhaustive desk-scale checks of three combinatorial facts.

Each verifier sweeps its full search space up to configurable bounds and
returns a :class:`LemmaReport`.  The point is falsification pressure, not
proof: a report with ``holds=False`` carries the first counterexample found,
and the default bounds are sized to finish in seconds of pure Python.

The three facts, stated over plain integers:

* interval systems: if each label ``i`` on a circle of ``n`` labels is given a
  cyclic interval ``I_i`` running from ``k_i`` up to ``k_{i-1}``, consecutive
  intervals meeting in exactly one point, then any graph on the labels with
  neighborhoods ``C_i`` contained in ``I_i`` is a forest;
* circular balls: if every two consecutive same-color balls on a circle have
  the same multiset of colors strictly between them (per color), the coloring
  is periodic with period equal to the number of colors;
* colored trees: a proper coloring of a tree in which same-colored vertices
  see the same set of neighbor colors puts equal colors at even distance.

It suffices to test edge-maximal graphs in the first fact: the forest
property is closed under taking subgraphs.

Every sweep is one depth-first walk with an explicit stack (no recursion)
that decides on prefixes.  The interval statement is invariant under
rotating the labels, ``rot(k)[i] = (k[i-1] + 1) % n``, so the interval walk
visits one representative per rotation class of length vectors (a necklace,
with every first anchor) and counts it with its weight, the necklace's least
period ``p``: its rotations by ``r < p`` are distinct systems with its
verdict, and together they are every system once.  The walk carries the
components of the labels whose intervals a prefix has fixed, so a leaf only
adds the edges of its last two labels; the reported counterexample is the
least rotation of a failing representative, which is the lexicographically
first failing system.  The balls walk cuts off a coloring prefix as soon as
a repeated color is unevenly spaced, and the tree walk as soon as two
same-colored vertices with all neighbors colored see different neighbor
colors; both add the cut prefix's exact number of completions to the case
count, and their leaves come in the same order as in a plain sweep.  Every
case is decided, at a leaf, through a representative, or by a prefix that
already fails a necessary condition of the hypothesis, so reports (case
counts, details, first counterexamples) do not depend on these shortcuts.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from typing import Iterator

from .halftree import _find


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one exhaustive sweep."""

    lemma: str
    bounds: dict[str, int]
    cases_checked: int
    holds: bool
    counterexample: dict | None
    details: dict[str, int]

    def to_json(self) -> dict:
        return asdict(self)


def _completion_counts(rows: int, top: int, blocked: int) -> list[list[int]]:
    """``table[r][u]``: the ways to color ``r`` more positions once ``u`` colors are in use.

    Each position takes one of the ``u`` colors in use except ``blocked`` of
    them, or opens color ``u`` while ``u < top``:
    ``table[r][u] = max(u - blocked, 0) * table[r-1][u] + [u < top] * table[r-1][u+1]``.
    With ``blocked = 0`` this counts restricted-growth completions; with
    ``blocked = 1`` it counts proper colorings of the rest of a tree in BFS
    order, where each vertex has one earlier neighbor and it holds a color in
    use (at ``u = 0`` the next vertex is a root and has no earlier neighbor).
    """
    top = max(top, 0)
    table = [[1] * (top + 1)]
    for _ in range(rows):
        prev = table[-1]
        table.append(
            [
                max(u - blocked, 0) * prev[u] + (prev[u + 1] if u < top else 0)
                for u in range(top + 1)
            ]
        )
    return table


# -- interval systems ------------------------------------------------------


def _rotated(k: tuple[int, ...], r: int) -> tuple[int, ...]:
    """``rot^r(k)``, where ``rot(k)[i] = (k[i-1] + 1) % n``: the labels shifted ``r`` places."""
    n = len(k)
    return tuple((k[i - r] + r) % n for i in range(n))


def _interval_walk(n: int) -> Iterator[tuple[tuple[int, ...], bool, int]]:
    """One representative per rotation class of the interval systems, its verdict and weight.

    An interval system is an anchor vector ``k`` whose lengths ``len_i = (k[i-1]
    - k[i]) % n`` satisfy ``len_i + len_{i+1} <= n - 1`` and ``sum(len_i) <= n``
    (for ``n > 2``); ``interval_systems`` in ``tests/oracles.py`` lists them all
    in lexicographic order and says where both requirements come from.

    The statement has a cyclic symmetry: ``rot(k)[i] = (k[i-1] + 1) % n``
    rotates the length vector ``N = (len_1, .., len_{n-1}, len_0)`` one place
    to the right, keeps both requirements, and maps ``I_i`` to ``I_{i+1}``
    shifted by one, so it relabels the maximal graph by ``i -> i+1`` and keeps
    the forest verdict.  The walk yields the systems ``k`` whose ``N`` is a
    necklace (its least rotation), once for each ``k[0]``, with the weight
    ``p``, the least period of ``N``.  For each ``r < p``, ``rot^r`` maps the
    systems with length vector ``N`` one to one onto those with ``N`` rotated
    ``r`` places, so ``_rotated(k, r)`` over the representatives and ``r < p``
    is every system exactly once.  For ``n <= 2`` every system is its own
    representative, with weight 1.

    The search is a depth-first walk with an explicit stack of candidate
    iterators: first ``k[0]``, then the lengths ``len_1, len_2, ..`` in
    increasing order, ``k[j] = k[j-1] - len_j``.  A position only offers the
    lengths that keep the winding at most ``n``, the consecutive pair at most
    ``n - 1``, and the Fredricksen-Kessler-Maiorana prenecklace rule
    ``len_t >= len_{t-p}`` (``p`` becomes ``t`` on a strict increase).  The
    last position closes the circle (pairs ``(n-1, 0)`` and ``(0, 1)``):
    ``len_0`` is then fixed, both leaf lengths pass the same rule, and the
    leaf is kept only when ``p`` divides ``n``.

    The forest check rides along.  Placing ``k[j]`` fixes ``I_j``, so a
    prefix fixes the mutual edges among labels ``1 .. j``.  Their components
    are kept per depth as the root bit of each label, and the list is copied
    only when an edge arrives; once a prefix closes a cycle, so does every
    system below it.  A leaf only adds the edges of labels ``n - 1`` and
    ``0``.  Forest-ness does not depend on the order edges are added in, so
    the verdict is that of :func:`_max_graph_is_forest`, which also names the
    first cycle-closing edge.  Intervals come from :func:`_interval_masks`.
    """
    if n <= 2:
        for k in itertools.product(range(n), repeat=n):
            yield k, True, 1
        return
    masks = _interval_masks(n)
    k = [0] * n
    lens = [0] * n  # lens[t]: len_t, fixed by k[:t+1]; lens[0] = 0 opens the FKM rule
    period = [1] * n  # period[j]: the FKM period p of len_1 .. len_j
    winding = [0] * n  # winding[j]: len_1 + ... + len_{j-1}, fixed by k[:j]
    todo: list[Iterator[int]] = [iter(())] * n  # todo[0]: anchors k[0]; todo[j]: lengths len_j
    todo[0] = iter(range(n))
    last = n - 1
    interval = [0] * n  # interval[j]: I_j, fixed by k[:j+1]
    # root[j][i] for 1 <= i <= j: bit of the root of i's component among labels
    # 1..j; entries past j are stale, and lists are shared until an edge arrives
    root = [[0] * n] * n
    cyclic = [False] * n  # cyclic[j]: labels 1..j already carry a cycle
    near_last = [0] * n  # near_last[j]: labels 1..j whose interval holds n - 1
    near_zero = [0] * n  # near_zero[j]: labels 1..j whose interval holds 0
    j = 0
    while j >= 0:
        if j == last:
            w = winding[last]
            a, k0 = k[last - 1], k[0]
            prev, len1, p = lens[last - 1], lens[1], period[last - 1]
            comp, dead = root[last - 1], cyclic[last - 1]
            hold_last, hold_zero = near_last[last - 1], near_zero[last - 1]
            low_cur = lens[last - p]
            for cur in range(low_cur, min(n - w, n - 1 - prev) + 1):
                # the lengths sum to 0 or n, so the winding fixes len_0
                len0 = -(w + cur) % n
                if cur + len0 > n - 1 or len0 + len1 > n - 1:
                    continue
                q = p if cur == low_cur else last
                lens[last] = cur
                low_zero = lens[n - q]
                if len0 < low_zero:
                    continue
                if len0 > low_zero:
                    q = n
                if n % q:
                    continue
                val = k[last] = (a - cur) % n
                forest = not dead
                if forest:
                    i_last, i_zero = masks[a][val], masks[val][k0]
                    # label n - 1 joins: its neighbors must sit in distinct components
                    met = 0
                    nb = i_last & hold_last
                    while nb:
                        low = nb & -nb
                        nb ^= low
                        r = comp[low.bit_length() - 1]
                        if met & r:
                            forest = False
                            break
                        met |= r
                    # then label 0, which may also meet n - 1's merged component
                    joined = i_zero >> last & i_last & 1
                    other = 0
                    nb = i_zero & hold_zero if forest else 0
                    while nb:
                        low = nb & -nb
                        nb ^= low
                        r = comp[low.bit_length() - 1]
                        if r & met:
                            if joined:
                                forest = False
                                break
                            joined = 1
                        elif other & r:
                            forest = False
                            break
                        else:
                            other |= r
                yield tuple(k), forest, q
            j -= 1
            continue
        got = next(todo[j], None)
        if got is None:
            j -= 1
            continue
        cur = 0
        if j:
            cur = lens[j] = got
            p = period[j - 1]
            period[j] = p if cur == lens[j - p] else j
            val = k[j] = (k[j - 1] - cur) % n
            i_j = interval[j] = masks[k[j - 1]][val]
            comp, dead = root[j - 1], cyclic[j - 1]
            met = 0
            nb = 0 if dead else i_j & ((1 << j) - 2)  # labels 1..j-1 inside I_j
            while nb:
                low = nb & -nb
                nb ^= low
                i = low.bit_length() - 1
                if not interval[i] >> j & 1:
                    continue
                r = comp[i]
                if met & r:
                    dead = True
                    break
                met |= r
            bit = 1 << j
            if met and not dead:
                comp = [bit if r & met else r for r in comp]
            comp[j] = bit
            root[j], cyclic[j] = comp, dead
            near_last[j] = near_last[j - 1] | (i_j >> last & 1) << j
            near_zero[j] = near_zero[j - 1] | (i_j & 1) << j
        else:
            k[0] = got
        j += 1
        winding[j] = winding[j - 1] + cur
        if j < last:
            limit = min(n - 1 - cur, n - winding[j])
            todo[j] = iter(range(lens[j - period[j - 1]], limit + 1))


def _interval_masks(n: int) -> list[list[int]]:
    """``masks[end][start]``: the cyclic interval ``start, start+1, .., end`` as bits."""
    masks = [[0] * n for _ in range(n)]
    for start in range(n):
        bits = 0
        for length in range(n):
            end = (start + length) % n
            bits |= 1 << end
            masks[end][start] = bits
    return masks


def _max_graph_is_forest(
    k: tuple[int, ...], masks: list[list[int]]
) -> tuple[bool, tuple[int, int] | None]:
    """Check the edge-maximal admissible graph for the anchor vector ``k``.

    ``(i, j)`` is an edge when ``j`` lies in ``I_i`` and ``i`` lies in
    ``I_j``.  Edges are tried in lexicographic order, walking only the labels
    of ``I_i`` above ``i``, so the returned edge is the first one that closes
    a cycle.  ``masks`` is :func:`_interval_masks` of ``len(k)``.
    """
    n = len(k)
    interval = [masks[k[i - 1]][k[i]] for i in range(n)]
    parent = list(range(n))
    for i in range(n):
        above = interval[i] >> (i + 1) << (i + 1)
        while above:
            low = above & -above
            above ^= low
            j = low.bit_length() - 1
            if not interval[j] >> i & 1:
                continue
            a, b = _find(parent, i), _find(parent, j)
            if a == b:
                return False, (i, j)
            parent[a] = b
    return True, None


def verify_interval_lemma(max_n: int = 8) -> LemmaReport:
    """Sweep every interval system with up to ``max_n`` labels.

    Only the maximal graph of each system is tested; subgraphs of forests are
    forests, so this covers every admissible graph.  The sweep runs over the
    rotation-class representatives of :func:`_interval_walk`, each decided at
    its leaf from components its prefix already fixed, and adds each
    representative's weight ``p`` to the counts: its ``p`` rotations are
    distinct systems with its verdict.  The counterexample is the least
    rotation ``_rotated(k, r)``, ``r < p``, over the failing representatives
    of the first failing ``n``, which is the lexicographically first failing
    system; its ``cycle_edge`` comes from :func:`_max_graph_is_forest`, so the
    report is that of a plain all-pairs scan in lexicographic order.
    """
    cases = 0
    systems_by_n: dict[str, int] = {}
    counterexample = None
    for n in range(1, max_n + 1):
        count = 0
        first = None
        for k, forest, weight in _interval_walk(n):
            count += weight
            if not forest and counterexample is None:
                least = min(_rotated(k, r) for r in range(weight))
                first = least if first is None else min(first, least)
        if first is not None:
            _, bad_edge = _max_graph_is_forest(first, _interval_masks(n))
            counterexample = {"n": n, "anchors": list(first), "cycle_edge": list(bad_edge)}
        cases += count
        systems_by_n[str(n)] = count
    return LemmaReport(
        lemma="interval-forest",
        bounds={"max_n": max_n},
        cases_checked=cases,
        holds=counterexample is None,
        counterexample=counterexample,
        details=systems_by_n,
    )


# -- circular balls --------------------------------------------------------


def _spaced_colorings(n: int, max_classes: int) -> Iterator[tuple[tuple[int, ...], bool]]:
    """Restricted-growth colorings of ``n`` balls, cut where a repeated color is unevenly spaced.

    Colorings have increasing first occurrences and at most ``max_classes``
    colors.  Yields ``(colors, True)`` for each coloring whose repeated colors
    all sit evenly spaced, and ``(prefix, False)`` for each shortest prefix
    that already spaces one unevenly, in lexicographic order, from a
    depth-first walk with an explicit index stack.

    A color first seen at ``p`` and next at ``p + d`` is evenly spaced only if
    ``p < d``, ``d`` divides ``n``, and it sits at ``p + 2d, p + 3d, ..`` and
    nowhere else.  So a prefix is cut when its first gap breaks ``p < d`` or
    ``d | n``, when the color shows up off its due positions, when another
    color takes a due position, or when two colors fall due at one position.
    Each is a necessary condition of the spacing test that
    :func:`_gaps_agree` makes first, so no completion of a cut prefix
    satisfies the gap hypothesis.
    """
    if n == 0:
        yield (), True
        return
    coloring = [0] * n
    used = [0] * n  # used[i]: number of colors among coloring[:i]
    nxt = [0] * n  # nxt[i]: next color to try at position i
    first = [-1] * max(max_classes, 0)  # first[c]: position of c's first occurrence
    gap = [0] * max(max_classes, 0)  # gap[c]: c's spacing, once it occurs twice
    due = [-1] * n  # due[i]: the color whose spacing puts it at position i
    undo: list[tuple[int, int] | None] = [None] * n  # undo[i]: (c, gap or 0) set at i
    last = n - 1
    i = 0
    while i >= 0:
        back = undo[i]
        if back is not None:
            undo[i] = None
            c, d = back
            if d:
                gap[c] = 0
                for p in range(i + d, n, d):
                    due[p] = -1
            else:
                first[c] = -1
        c = nxt[i]
        if c >= min(used[i] + 1, max_classes):
            i -= 1
            continue
        nxt[i] = c + 1
        coloring[i] = c
        owed = due[i]
        if owed >= 0:
            spaced = c == owed
        elif first[c] < 0:
            first[c] = i
            undo[i] = (c, 0)
            spaced = True
        elif gap[c]:
            spaced = False
        else:
            d = i - first[c]
            ahead = range(i + d, n, d)
            spaced = d > first[c] and n % d == 0 and all(due[p] < 0 for p in ahead)
            if spaced:
                gap[c] = d
                for p in ahead:
                    due[p] = c
                undo[i] = (c, d)
        if not spaced:
            yield tuple(coloring[: i + 1]), False
        elif i == last:
            yield tuple(coloring), True
        else:
            i += 1
            used[i] = max(used[i - 1], c + 1)
            nxt[i] = 0


def _gaps_agree(colors: tuple[int, ...], m: int) -> bool:
    """Per color: multisets of colors strictly between consecutive occurrences agree.

    Only colors ``0 .. m-1`` are tested.  Equal gap multisets have equal
    sizes, so a color with ``q >= 2`` occurrences must have ``q | n`` and sit
    every ``n / q`` places.  That spacing test rejects most colorings at
    once; per-gap count tuples are built only for colorings that pass it.
    """
    n = len(colors)
    spaced = []
    for c in range(m):
        q = colors.count(c)
        if q < 2:
            continue
        if n % q:
            return False
        d = n // q
        p = colors.index(c)
        if colors[p::d].count(c) != q:
            return False
        spaced.append((p, d))
    if not spaced:
        return True
    doubled = colors + colors
    palette = range(max(colors) + 1)
    for p, d in spaced:
        gaps = {
            tuple(doubled[start : start + d - 1].count(x) for x in palette)
            for start in range(p + 1, p + 1 + n, d)
        }
        if len(gaps) > 1:
            return False
    return True


def verify_balls_lemma(max_n: int = 10, max_m: int = 4) -> LemmaReport:
    """Sweep circular colorings with up to ``max_n`` balls and ``max_m`` colors.

    Colorings are enumerated up to renaming colors (restricted growth), which
    both the gap hypothesis and the periodicity conclusion are invariant
    under.  Rotations are not quotiented; the sweep just covers them all.
    Every coloring is decided, at its leaf or by a prefix that already fails
    a necessary condition of the hypothesis: :func:`_spaced_colorings` cuts a
    prefix once a repeated color is unevenly spaced, and the prefix's exact
    number of completions goes into ``cases_checked``.  Leaves that survive
    run the full gap test and the periodicity test, in lexicographic order.
    """
    completions = _completion_counts(max(max_n, 0), max_m, 0)
    cases = 0
    hypothesis_held = 0
    counterexample = None
    for n in range(1, max_n + 1):
        for colors, spaced in _spaced_colorings(n, max_m):
            if not spaced:
                cases += completions[n - len(colors)][max(colors) + 1]
                continue
            cases += 1
            m = max(colors) + 1
            if not _gaps_agree(colors, m):
                continue
            hypothesis_held += 1
            periodic = n % m == 0 and all(colors[i] == colors[(i + m) % n] for i in range(n))
            if not periodic and counterexample is None:
                counterexample = {"n": n, "colors": list(colors), "period": m}
    return LemmaReport(
        lemma="circular-balls-periodicity",
        bounds={"max_n": max_n, "max_m": max_m},
        cases_checked=cases,
        holds=counterexample is None,
        counterexample=counterexample,
        details={"hypothesis_held": hypothesis_held},
    )


# -- colored trees ---------------------------------------------------------


def _tree_code(adj: dict[int, list[int]]) -> str:
    """Canonical string of an unlabeled tree: the least AHU code over its centres.

    The centres (one or two) are what is left after peeling leaves layer by
    layer; the AHU code of a rooted tree wraps the sorted codes of its
    children in parentheses, built here bottom-up from a breadth-first order.
    """
    degree = {v: len(ws) for v, ws in adj.items()}
    layer = [v for v, d in degree.items() if d <= 1]
    left = len(adj)
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
        layer = nxt
    codes = []
    for root in layer:
        parent = {root: None}
        order = [root]
        for v in order:
            for w in adj[v]:
                if w not in parent:
                    parent[w] = v
                    order.append(w)
        below: dict[int, list[str]] = {v: [] for v in adj}
        for v in reversed(order):
            code = "(" + "".join(sorted(below[v])) + ")"
            if parent[v] is not None:
                below[parent[v]].append(code)
        codes.append(code)
    return min(codes)


def _tree_levels(n: int) -> Iterator[list[dict[int, list[int]]]]:
    """Unlabeled trees on ``1, 2, .., n`` vertices, one level per count, one tree per class.

    Removing a leaf from a tree on ``k + 1`` vertices leaves a tree on ``k``,
    so attaching a leaf at every vertex of every class on ``k`` vertices and
    keeping one tree per :func:`_tree_code` gives every class on ``k + 1``.
    Each level is grown once, from the one before.  Trees are adjacency
    dicts on vertices ``0..k-1`` with sorted neighbor lists.
    """
    level = [{0: []}]
    for k in range(n):
        if k:  # attach vertex k
            classes: dict[str, dict[int, list[int]]] = {}
            for adj in level:
                for v in range(k):
                    grown = {u: list(ws) for u, ws in adj.items()}
                    grown[v].append(k)
                    grown[k] = [v]
                    classes.setdefault(_tree_code(grown), grown)
            level = [classes[code] for code in sorted(classes)]
        yield level


def _all_trees(n: int) -> list[dict[int, list[int]]]:
    """Unlabeled trees on ``n >= 1`` vertices, the last of :func:`_tree_levels`."""
    *_, level = _tree_levels(n)
    return level


def _closing_groups(adj: dict[int, list[int]], bfs: list[int]) -> list[tuple]:
    """Per BFS position ``i``: the ``(vertex, neighbors)`` of each vertex closed by ``bfs[i]``.

    A vertex is closed once it and all its neighbors are colored, so it
    closes at the last BFS position among them.  At the last position every
    vertex has closed.
    """
    pos = {v: i for i, v in enumerate(bfs)}
    closing: list[list] = [[] for _ in bfs]
    for v in bfs:
        closing[max([pos[v]] + [pos[w] for w in adj[v]])].append((v, adj[v]))
    return [tuple(group) for group in closing]


def _closing_masks(masks: list[int], group: tuple, coloring: list[int]) -> list[int] | None:
    """The color masks once the vertices of ``group`` close, or ``None`` when one breaks them.

    ``masks[c]`` is 0 while no closed vertex has color ``c``, else the set of
    neighbor colors every closed vertex of color ``c`` sees, as bits above a
    presence bit, which tells a vertex that sees no color from no vertex.  A
    closing vertex must see its color's set, or fixes it; a changed list is a
    copy, so the caller keeps ``masks`` for the next color.
    """
    out = masks
    for v, ws in group:
        seen = 1
        for w in ws:
            seen |= 2 << coloring[w]
        c = coloring[v]
        have = out[c]
        if have != seen:
            if have:
                return None
            if out is masks:
                out = list(masks)
            out[c] = seen
    return out


def verify_colored_tree_lemma(max_vertices: int = 8, max_colors: int = 4) -> LemmaReport:
    """Sweep proper colorings of all trees with up to ``max_vertices`` vertices.

    For colorings in which every color class sees one fixed set of neighbor
    colors, same-colored vertices must sit at even distance.  Colorings are
    restricted-growth in BFS order, from a depth-first walk with an explicit
    stack.  Every coloring is decided, at its leaf or by a prefix that already
    fails a necessary condition of the hypothesis: once two same-colored
    vertices whose neighbors are all colored see different neighbor colors,
    the prefix's exact number of completions goes into ``cases_checked``.
    The walk keeps one list of color masks per depth (:func:`_closing_masks`),
    so a position checks only the vertices that close there.
    """
    completions = _completion_counts(max(max_vertices, 0), max_colors, 1)
    cases = 0
    hypothesis_held = 0
    trees_seen = 0
    counterexample = None
    for level in _tree_levels(max_vertices):
        for adj in level:
            n = len(adj)
            trees_seen += 1
            # BFS order gives each non-root exactly one earlier neighbor, its
            # parent; two vertices sit at odd distance exactly when their sides differ
            bfs = [min(adj)]
            side = {bfs[0]: 0}
            up = [-1]  # up[i]: the parent of bfs[i]
            for v in bfs:
                for w in adj[v]:
                    if w not in side:
                        side[w] = 1 - side[v]
                        bfs.append(w)
                        up.append(v)
            closing = _closing_groups(adj, bfs)
            coloring = [0] * n  # coloring[v] for v in bfs[:idx+1]
            # masks[idx]: the color masks of the vertices closed by bfs[:idx]
            masks: list[list[int] | None] = [[0] * max_colors] + [None] * n
            used = [0] * n  # used[idx]: number of colors among bfs[:idx]
            nxt = [0] * n  # nxt[idx]: next color to try at bfs[idx]
            last = n - 1
            idx = 0
            while idx >= 0:
                c = nxt[idx]
                if idx and c == coloring[up[idx]]:
                    c += 1
                if c > used[idx] or c >= max_colors:
                    idx -= 1
                    continue
                nxt[idx] = c + 1
                coloring[bfs[idx]] = c
                now = masks[idx]
                if closing[idx]:
                    now = _closing_masks(now, closing[idx], coloring)
                if idx == last:
                    cases += 1
                    if now is not None:
                        hypothesis_held += 1
                        if counterexample is None:
                            counterexample = _odd_pair_counterexample(adj, coloring, side)
                    continue
                u = used[idx]
                if c == u:
                    u += 1
                if now is None:
                    cases += completions[last - idx][u]
                    continue
                masks[idx + 1] = now
                idx += 1
                used[idx] = u
                nxt[idx] = 0
    return LemmaReport(
        lemma="colored-tree-even-distance",
        bounds={"max_vertices": max_vertices, "max_colors": max_colors},
        cases_checked=cases,
        holds=counterexample is None,
        counterexample=counterexample,
        details={"trees": trees_seen, "hypothesis_held": hypothesis_held},
    )


def _odd_pair_counterexample(
    adj: dict[int, list[int]], coloring: list[int], side: dict[int, int]
) -> dict | None:
    """The first same-colored pair ``v < w`` at odd distance, as a counterexample, or ``None``."""
    colors = [0, 0]  # colors[s]: the colors on side s, as bits; none shared, no pair
    for v in adj:
        colors[side[v]] |= 1 << coloring[v]
    if not colors[0] & colors[1]:
        return None
    for v in adj:
        for w in adj:
            if v < w and coloring[v] == coloring[w] and side[v] != side[w]:
                return {
                    "n": len(adj),
                    "adjacency": {str(a): bs for a, bs in adj.items()},
                    "coloring": {str(a): coloring[a] for a in sorted(adj)},
                    "odd_pair": [v, w],
                }
    return None
