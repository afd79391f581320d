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

The interval and balls sweeps run on small integer kernels.  Both
enumerators walk their search trees depth-first with an explicit stack (no
recursion) and yield in lexicographic order.  The forest check reads each
interval ``I_i`` off a per-``n`` table of cyclic intervals as bitmasks and
visits only the labels of ``I_i`` above ``i``; the intervals of a system hold
about ``2n`` points in all, so this replaces a scan of all ``n^2`` pairs.
The gap check first asks that every repeated color be evenly spaced, which
equal gap multisets force and which rejects most colorings at once.  Every
case is still checked, in the same order, so reports (case counts, details,
first counterexamples) do not depend on these shortcuts.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one exhaustive sweep."""

    lemma: str
    bounds: dict[str, int]
    cases_checked: int
    holds: bool
    counterexample: dict | None
    details: dict[str, int]
    elapsed_seconds: float

    def summary(self) -> str:
        verdict = "holds" if self.holds else "FAILS"
        return (
            f"{self.lemma}: {verdict} over {self.cases_checked} cases "
            f"(bounds {self.bounds}, {self.elapsed_seconds:.2f}s)"
        )

    def to_json(self) -> dict:
        # elapsed time deliberately excluded: CLI output must be reproducible
        return {
            "lemma": self.lemma,
            "bounds": dict(self.bounds),
            "cases_checked": self.cases_checked,
            "holds": self.holds,
            "counterexample": self.counterexample,
            "details": dict(self.details),
        }


# -- interval systems ------------------------------------------------------


def _interval_systems(n: int) -> Iterator[tuple[int, ...]]:
    """All anchor vectors ``k`` of a single-cylinder interval system.

    Interval ``I_i`` runs cyclically from ``k[i]`` to ``k[i-1]``.  Three
    requirements, the first two per cyclic index ``i`` with
    ``len_i = (k[i-1] - k[i]) % n``:

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

    Vectors come in lexicographic order.  The search is a depth-first walk
    over anchor positions with an explicit stack of candidate iterators.  A
    position only offers the anchors whose interval length keeps the winding
    at most ``n`` and the consecutive pair at most ``n - 1``; the last
    position also closes the circle (pairs ``(n-1, 0)`` and ``(0, 1)``).
    """
    if n <= 2:
        yield from itertools.product(range(n), repeat=n)
        return
    # reach[a][limit]: the anchors v, increasing, with (a - v) % n <= limit
    reach = [
        [sorted((a - c) % n for c in range(limit + 1)) for limit in range(n)] for a in range(n)
    ]
    k = [0] * n
    winding = [0] * n  # winding[j]: len_1 + ... + len_{j-1}, fixed by k[:j]
    todo: list[Iterator[int]] = [iter(())] * n  # todo[j]: anchors left to try at j
    todo[0] = iter(range(n))
    last = n - 1
    j = 0
    while j >= 0:
        if j == last:
            w = winding[last]
            prev = (k[last - 2] - k[last - 1]) % n
            len1 = (k[0] - k[1]) % n
            for val in reach[k[last - 1]][min(n - w, n - 1 - prev)]:
                cur = (k[last - 1] - val) % n
                len0 = (val - k[0]) % n
                if w + cur + len0 <= n and cur + len0 <= n - 1 and len0 + len1 <= n - 1:
                    k[last] = val
                    yield tuple(k)
            j -= 1
            continue
        val = next(todo[j], None)
        if val is None:
            j -= 1
            continue
        k[j] = val
        cur = (k[j - 1] - val) % n if j else 0
        j += 1
        winding[j] = winding[j - 1] + cur
        if j < last:
            limit = min(n - 1 - cur, n - winding[j])
            todo[j] = iter(reach[val][limit])


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


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def verify_interval_lemma(max_n: int = 8) -> LemmaReport:
    """Sweep every interval system with up to ``max_n`` labels.

    Only the maximal graph of each system is tested; subgraphs of forests are
    forests, so this covers every admissible graph.  Systems are enumerated
    in lexicographic order and each maximal graph is built from bitmask
    intervals and grown edge by edge in lexicographic order, so the first
    counterexample and its ``cycle_edge`` are those of a plain all-pairs scan.
    """
    t0 = time.perf_counter()
    cases = 0
    systems_by_n: dict[str, int] = {}
    counterexample = None
    for n in range(1, max_n + 1):
        count = 0
        masks = _interval_masks(n)
        for k in _interval_systems(n):
            count += 1
            ok, bad_edge = _max_graph_is_forest(k, masks)
            if not ok and counterexample is None:
                counterexample = {"n": n, "anchors": list(k), "cycle_edge": list(bad_edge)}
        cases += count
        systems_by_n[str(n)] = count
    return LemmaReport(
        lemma="interval-forest",
        bounds={"max_n": max_n},
        cases_checked=cases,
        holds=counterexample is None,
        counterexample=counterexample,
        details=systems_by_n,
        elapsed_seconds=time.perf_counter() - t0,
    )


# -- circular balls --------------------------------------------------------


def _restricted_growth_strings(n: int, max_classes: int) -> Iterator[tuple[int, ...]]:
    """Surjective colorings up to renaming colors: first occurrences increase.

    Strings come in lexicographic order, from a depth-first walk with an
    explicit index stack.
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
    The gap hypothesis is tested with a spacing prefilter before per-gap color
    counts; it returns exactly what comparing gap multisets directly would, so
    ``cases_checked`` and ``hypothesis_held`` count every coloring.
    """
    t0 = time.perf_counter()
    cases = 0
    hypothesis_held = 0
    counterexample = None
    for n in range(1, max_n + 1):
        for colors in _restricted_growth_strings(n, max_m):
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
        elapsed_seconds=time.perf_counter() - t0,
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


def _all_trees(n: int) -> list[dict[int, list[int]]]:
    """Unlabeled trees on ``n`` vertices as adjacency dicts, one per class.

    Removing a leaf from a tree on ``k + 1`` vertices leaves a tree on ``k``,
    so attaching a leaf at every vertex of every class on ``k`` vertices and
    keeping one tree per :func:`_tree_code` gives every class on ``k + 1``.
    Vertices are ``0..n-1`` with sorted neighbor lists.
    """
    level = [{0: []}]
    for k in range(1, n):
        classes: dict[str, dict[int, list[int]]] = {}
        for adj in level:
            for v in range(k):
                grown = {u: list(ws) for u, ws in adj.items()}
                grown[v].append(k)
                grown[k] = [v]
                classes.setdefault(_tree_code(grown), grown)
        level = [classes[code] for code in sorted(classes)]
    return level


def neighbor_sets_homogeneous(adj: dict[int, list[int]], coloring: dict[int, int]) -> bool:
    """True when every color class sees a single set of neighbor colors."""
    seen: dict[int, frozenset[int]] = {}
    for v, c in coloring.items():
        s = frozenset(coloring[w] for w in adj[v])
        if c in seen and seen[c] != s:
            return False
        seen.setdefault(c, s)
    return True


def verify_colored_tree_lemma(max_vertices: int = 8, max_colors: int = 4) -> LemmaReport:
    """Sweep proper colorings of all trees with up to ``max_vertices`` vertices.

    For colorings in which every color class sees one fixed set of neighbor
    colors, same-colored vertices must sit at even distance.
    """
    t0 = time.perf_counter()
    cases = 0
    hypothesis_held = 0
    trees_seen = 0
    counterexample = None
    for n in range(1, max_vertices + 1):
        for adj in _all_trees(n):
            trees_seen += 1
            order = sorted(adj)
            # BFS order guarantees each non-root has a previously colored neighbor;
            # two vertices sit at odd distance exactly when their sides differ
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
                    if not neighbor_sets_homogeneous(adj, coloring):
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
    return LemmaReport(
        lemma="colored-tree-even-distance",
        bounds={"max_vertices": max_vertices, "max_colors": max_colors},
        cases_checked=cases,
        holds=counterexample is None,
        counterexample=counterexample,
        details={"trees": trees_seen, "hypothesis_held": hypothesis_held},
        elapsed_seconds=time.perf_counter() - t0,
    )
