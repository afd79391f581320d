"""Seeded input generators for the benchmark.

Everything here is a pure function of its ``random.Random`` argument, so one
seed always yields the same inputs.  Each generator checks its own output with
the library (``validate`` for half-trees, a successful ``pullback`` for cover
blueprints) and draws again when the check fails.
"""

from __future__ import annotations

import random
from fractions import Fraction

from flattree import (
    CoverBlueprint,
    CoverError,
    FiberCylinder,
    HalfTree,
    HyperellipticSurface,
    build,
    pullback,
    validate,
)

MAX_DRAWS = 100


def presentation_counts(n: int) -> list[int]:
    """``counts[b]`` = number of entry sequences of port cost ``b``, for b <= n.

    The grammar is the one ``halftree._entry_seqs`` enumerates: an entry is a
    stub (cost 1) or a child vertex (cost 2 plus its own entries).  The counts
    are the Motzkin numbers.
    """
    counts = [1] + [0] * n
    for b in range(1, n + 1):
        counts[b] = counts[b - 1] + sum(counts[c - 2] * counts[b - c] for c in range(2, b + 1))
    return counts


def sample_entries(n: int, rng: random.Random, counts: list[int]) -> tuple:
    """Uniform rooted presentation with ``n`` ports, as a nested entry tuple.

    ``None`` is a stub and a tuple is a child vertex with its own entries.
    Each step picks the first entry with probability proportional to the
    number of sequences that start with it.
    """

    def draw(budget: int) -> tuple:
        out: list = []
        while budget > 0:
            r = rng.randrange(counts[budget])
            if r < counts[budget - 1]:
                out.append(None)
                budget -= 1
                continue
            r -= counts[budget - 1]
            for cost in range(2, budget + 1):
                weight = counts[cost - 2] * counts[budget - cost]
                if r < weight:
                    out.append(draw(cost - 2))
                    budget -= cost
                    break
                r -= weight
        return tuple(out)

    return draw(n)


def tree_from_entries(entries: tuple) -> HalfTree:
    """Half-tree of a rooted presentation; ports and vertices numbered in preorder."""
    ports_of: dict[int, list[int]] = {}
    pairs: list[tuple[int, int]] = []
    next_port = 0
    stack: list[tuple[tuple, int | None]] = [(entries, None)]
    while stack:
        es, incoming = stack.pop()
        v = len(ports_of)
        plist: list[int] = []
        ports_of[v] = plist
        if incoming is not None:
            pairs.append((incoming, next_port))
            plist.append(next_port)
            next_port += 1
        children = []
        for e in es:
            plist.append(next_port)
            if e is not None:
                children.append((e, next_port))
            next_port += 1
        stack.extend(reversed(children))
    return HalfTree(ports_of, pairs)


def sample_halftree(n: int, rng: random.Random, counts: list[int]) -> HalfTree:
    """A valid half-tree with ``n`` ports drawn from the uniform presentation sampler."""
    for _ in range(MAX_DRAWS):
        t = tree_from_entries(sample_entries(n, rng, counts))
        if t.n_ports == n and validate(t).ok:
            return t
    raise RuntimeError(f"no valid half-tree with {n} ports after {MAX_DRAWS} draws")


# -- covering blueprints -------------------------------------------------------


def _frac(rng: random.Random, num: int = 8, den: int = 4) -> Fraction:
    return Fraction(rng.randint(1, num), rng.randint(1, den))


def one_cylinder_base(m: int, rng: random.Random) -> HyperellipticSurface:
    """One cylinder with ``m`` self-glued saddles and a random exact metric."""
    skeleton = HalfTree({0: list(range(m))}, [])
    return build(
        skeleton,
        {p: _frac(rng) for p in range(m)},
        {0: _frac(rng)},
        {0: _frac(rng) * rng.randint(0, 3)},
    )


def wrapped_blueprint(m: int, r: int, rng: random.Random) -> CoverBlueprint:
    """One base cylinder with ``m`` saddles, covered by one cylinder wrapping ``r`` times."""
    base = one_cylinder_base(m, rng)
    L = base.circumference(0)
    twist = base.twists[0] + L * rng.randrange(r)
    fiber = FiberCylinder(0, 0, r, twist, tuple(range(100, 100 + r * m)))
    return CoverBlueprint(base=base, fibers=(fiber,), pairs=())


def tree_blueprint(m: int, d: int, rng: random.Random) -> CoverBlueprint | None:
    """``d`` unwrapped copies of a one-cylinder base joined into a random tree.

    Copy ``j`` attaches to a random earlier copy by lifting one self-glued
    base saddle to a full edge; no copy uses the same port twice.  Returns
    None when the random tree runs out of free ports.
    """
    base = one_cylinder_base(m, rng)
    ports = {i: tuple(range(1000 + i * m, 1000 + (i + 1) * m)) for i in range(d)}
    fibers = tuple(FiberCylinder(i, 0, 1, base.twists[0], ports[i]) for i in range(d))
    used: dict[int, set[int]] = {i: set() for i in range(d)}
    pairs = []
    for j in range(1, d):
        i = rng.randrange(j)
        free = [k for k in range(m) if k not in used[i] and k not in used[j]]
        if not free:
            return None
        k = rng.choice(free)
        used[i].add(k)
        used[j].add(k)
        pairs.append((ports[i][k], ports[j][k]))
    return CoverBlueprint(base=base, fibers=fibers, pairs=tuple(pairs))


def blueprint_degree(b: CoverBlueprint) -> int:
    first = b.base.skeleton.vertices[0]
    return sum(f.wrap for f in b.fibers if f.base == first)


def blueprint_grid(copies: int) -> list[tuple[str, int, int]]:
    """Family and size parameters of the sampled blueprints, ``copies`` of each.

    Wrapped: base saddles m in 3..6, wraps r in 2..4.  Tree: base saddles m in
    3..6, copies d in 2..5.  The grid is fixed, so every seed draws the same
    mix of sizes and only metrics, twists and tree shapes vary.
    """
    wrapped = [("wrap", m, r) for m in range(3, 7) for r in range(2, 5)]
    trees = [("tree", m, d) for m in range(3, 7) for d in range(2, 6)]
    return (wrapped + trees) * copies


def sample_blueprints(
    grid: list[tuple[str, int, int]], rng: random.Random
) -> list[tuple[str, CoverBlueprint, HyperellipticSurface]]:
    """One blueprint per grid entry, with its pullback.

    Draws again until the blueprint's pullback succeeds.
    """
    out = []
    for i, (family, m, k) in enumerate(grid):
        for _ in range(MAX_DRAWS):
            if family == "wrap":
                b = wrapped_blueprint(m, k, rng)
            else:
                b = tree_blueprint(m, k, rng)
            if b is None:
                continue
            try:
                cover = pullback(b)
            except CoverError:
                continue
            out.append((f"{family}-{m}-{k}-{i}", b, cover))
            break
        else:
            raise RuntimeError(f"no valid {family} blueprint with {m}, {k} after {MAX_DRAWS} draws")
    return out


# -- rejected candidates -------------------------------------------------------


def _merge(classes: tuple[tuple[int, ...], ...], i: int, j: int) -> list[tuple[int, ...]]:
    rest = [g for k, g in enumerate(classes) if k not in (i, j)]
    return rest + [classes[i] + classes[j]]


def perturbed_partitions(s: HyperellipticSurface, cp, sp, rng: random.Random):
    """Groupings of ``s`` that the candidate checks must reject, or None.

    Merges two classes so that a necessary condition provably fails:
    two saddle classes of different lengths (condition c), two saddle
    classes that both border a cylinder bordered by at least three classes
    (condition d: the merged class then occurs twice as often as the others),
    or two cylinder classes of different heights (condition a).  Candidates
    are tried in a seeded order; the returned tuple is
    ``(cylinder groups, saddle groups, condition)``.
    """
    t = s.skeleton
    key_of = {p: t.edge_object_of(p)[0] for p in t.all_ports}
    class_of = {e: k for k, g in enumerate(sp.classes) for e in g}
    options = []
    for i in range(len(sp.classes)):
        for j in range(i + 1, len(sp.classes)):
            a, b = sp.classes[i][0], sp.classes[j][0]
            if s.lengths[a] != s.lengths[b]:
                options.append(("c", i, j))
                continue
            for v in t.vertices:
                around = {class_of[key_of[p]] for p in t.ports(v)}
                if len(around) >= 3 and {i, j} <= around:
                    options.append(("d", i, j))
                    break
    for i in range(len(cp.classes)):
        for j in range(i + 1, len(cp.classes)):
            if s.heights[cp.classes[i][0]] != s.heights[cp.classes[j][0]]:
                options.append(("a", i, j))
    if not options:
        return None
    cond, i, j = options[rng.randrange(len(options))]
    if cond == "a":
        return _merge(cp.classes, i, j), list(sp.classes), cond
    return list(cp.classes), _merge(sp.classes, i, j), cond
