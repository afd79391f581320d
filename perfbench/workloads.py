"""The four benchmark workloads.

Each workload builds its input cases from the run seed in ``__init__`` and
groups them into items of ``batch`` cases.  Items of 100 ms or more make one
item's latency an average over the machine's short speed swings, which a
single millisecond case does not smooth out.  ``call_case`` makes the library
calls of one case and returns their results; ``check_case`` verifies those
results with cheap comparisons and returns canonical output bytes (encodings,
``fraction_to_string`` values, CLI stdout) for the digest.  A wrong result
raises ``CheckFailed``.  Expected refusals (a ``CollapseError``
the benchmark predicted, a perturbed candidate that ``quotient`` rejects) are
correct outcomes and are returned, not raised.

Library calls go through ``ft.<name>`` attribute lookups, so the traced run's
patches on the package namespace see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

import flattree as ft

import generators

CENSUS_MAX_PORTS = 10
CENSUS_METRICS = 2
# Half-tree classes per port count, as enumerate_halftrees returns them today.
CLASS_COUNTS = {1: 1, 2: 2, 3: 2, 4: 4, 5: 5, 6: 12, 7: 19, 8: 46, 9: 95, 10: 230}

FLOW_PORTS = (16, 32, 64)
FLOW_PER_SIZE = 40
FLOW_MAX_DENOMINATOR = 4

COVER_COPIES = 5

VERIFY_ARGVS = 3


class CheckFailed(Exception):
    """A library result disagrees with what the benchmark knows it must be."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def dumps(data) -> bytes:
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


def expected_orders(n: int) -> tuple[int, ...]:
    """Zero orders of the stratum presented by ``n`` ports, largest first."""
    if n % 2:
        g = (n + 1) // 2
        return (2 * g - 2,)
    g = n // 2
    return (g - 1, g - 1)


def has_self_glued(t, v: int) -> bool:
    return any(t.partner(p) is None for p in t.ports(v))


class Workload:
    name = ""
    batch = 1  # cases per item
    warmup = 1  # items run during set-up
    trace_items = 0  # items in the traced pass; 0 is one whole pass

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.counts: dict[str, int] = {}
        self.items: list[tuple] = []

    def set_cases(self, cases: list) -> None:
        self.items = [tuple(cases[i : i + self.batch]) for i in range(0, len(cases), self.batch)]

    def call(self, item: tuple) -> list:
        return [self.call_case(case) for case in item]

    def check(self, item: tuple, result: list) -> bytes:
        return b"".join(self.check_case(case, res) for case, res in zip(item, result))

    def call_case(self, case):
        raise NotImplementedError

    def check_case(self, case, result) -> bytes:
        raise NotImplementedError


# -- census ---------------------------------------------------------------------


def relabeled(s, rng: random.Random):
    """``s`` with vertices and ports renamed and every port list rotated.

    Rotating a port list so that index ``r`` comes first moves the twist by
    twice the length rotated past the origin; the result is isomorphic to
    ``s`` by construction.
    """
    t = s.skeleton
    vnew = list(range(100, 100 + len(t.vertices)))
    pnew = list(range(500, 500 + t.n_ports))
    rng.shuffle(vnew)
    rng.shuffle(pnew)
    vmap = dict(zip(t.vertices, vnew))
    pmap = dict(zip(t.all_ports, pnew))
    ports_of, heights, twists = {}, {}, {}
    for v in t.vertices:
        plist = t.ports(v)
        r = rng.randrange(len(plist))
        shift = sum((s.lengths[p] for p in plist[:r]), Fraction(0))
        ports_of[vmap[v]] = [pmap[p] for p in plist[r:] + plist[:r]]
        heights[vmap[v]] = s.heights[v]
        twists[vmap[v]] = s.twists[v] + 2 * shift
    skeleton = ft.HalfTree(ports_of, [(pmap[p], pmap[q]) for p, q in t.edges()])
    lengths = {pmap[p]: x for p, x in s.lengths.items()}
    return skeleton, lengths, heights, twists


class Census(Workload):
    """Every half-tree class for 1..10 ports, times two seeded metrics."""

    name = "census"
    batch = 16

    def __init__(self, seed: int):
        super().__init__(seed)
        self.classes = {n: ft.enumerate_halftrees(n) for n in range(1, CENSUS_MAX_PORTS + 1)}
        for n, got in self.classes.items():
            require(len(got) == CLASS_COUNTS[n], f"{len(got)} classes with {n} ports")
        cases: list = [("enumerate", n) for n in self.classes]
        for n, trees in self.classes.items():
            for t in trees:
                enc = ft.canonical_form(t).encoding
                for _ in range(CENSUS_METRICS):
                    cases.append(("surface", n, t, enc, self.rng.randrange(10**6), self.rng.random()))
        self.rng.shuffle(cases)
        self.set_cases(cases)

    def call_case(self, case):
        if case[0] == "enumerate":
            return ft.enumerate_halftrees(case[1])
        _, n, t, enc, metric_seed, relabel_seed = case
        cf = ft.canonical_form(t)
        s = ft.random_metric(t, metric_seed)
        back = ft.canonical_form(ft.extract_skeleton(s))
        profile = ft.singularity_profile(s)
        weier = ft.weierstrass_points(s)
        inv = ft.involution_check(s)
        other = ft.build(*relabeled(s, random.Random(relabel_seed)))
        return cf, s, back, profile, weier, inv, ft.surfaces_isomorphic(s, other)

    def check_case(self, case, result) -> bytes:
        if case[0] == "enumerate":
            n = case[1]
            require(result == self.classes[n], f"enumerate_halftrees({n}) changed")
            return dumps([ft.halftree_to_json(t) for t in result])
        _, n, t, enc, metric_seed, _ = case
        cf, s, back, profile, weier, inv, iso = result
        require(cf.encoding == enc and cf.relabeled == t, f"canonical form of {enc}")
        require(cf.automorphisms >= 1, f"automorphism count of {enc}")
        require(back.encoding == enc, f"skeleton round trip of {enc}")
        require(tuple(profile.corner_orders) == expected_orders(n), f"zero orders of {enc}")
        require(weier.ok and weier.count == 2 * profile.genus + 2, f"Weierstrass count of {enc}")
        require(inv.ok, f"involution check of {enc}")
        require(iso, f"relabeled rebuild of {enc} not isomorphic")
        lengths = {str(p): ft.fraction_to_string(x) for p, x in sorted(s.lengths.items())}
        return dumps(
            {
                "encoding": cf.encoding,
                "automorphisms": cf.automorphisms,
                "lengths": lengths,
                "heights": [ft.fraction_to_string(s.heights[v]) for v in t.vertices],
                "twists": [ft.fraction_to_string(s.twists[v]) for v in t.vertices],
                "orders": list(profile.orders),
                "weierstrass": weier.count,
            }
        )


# -- flow -----------------------------------------------------------------------


class Flow(Workload):
    """Seeded 16/32/64-port surfaces: decomposition, alignment, both collapses.

    One item is one surface of each size, so every item carries the same mix
    of sizes and its latency distribution has a single mode.
    """

    name = "flow"
    batch = len(FLOW_PORTS)
    trace_items = 8

    def __init__(self, seed: int):
        super().__init__(seed)
        counts = generators.presentation_counts(max(FLOW_PORTS))
        by_size = {n: [] for n in FLOW_PORTS}
        for n in FLOW_PORTS:
            while len(by_size[n]) < FLOW_PER_SIZE:
                t = generators.sample_halftree(n, self.rng, counts)
                if not t.edges():
                    continue
                s = ft.random_metric(
                    t, self.rng.randrange(10**6), max_denominator=FLOW_MAX_DENOMINATOR
                )
                saddle = self.rng.choice(t.edges())[self.rng.randrange(2)]
                _, sp = ft.singleton_partitions(t)
                full = [i for i, g in enumerate(sp.classes) if t.partner(g[0]) is not None]
                by_size[n].append((s, saddle, sp, self.rng.choice(full)))
        self.set_cases([by_size[n][i] for i in range(FLOW_PER_SIZE) for n in FLOW_PORTS])

    def call_case(self, case):
        s, saddle, sp, collapse_class = case
        decomposition = ft.vertical_decomposition(s)
        pos = ft.standard_position(s, saddle)
        c, d = pos.cylinders
        t = s.skeleton
        target = d if has_self_glued(t, c) and not has_self_glued(t, d) else c
        try:
            horizontal = ft.horizontal_collapse(pos.surface, [target])
        except ft.CollapseError as exc:
            horizontal = exc
        props = [Fraction(int(i == collapse_class)) for i in range(len(sp.classes))]
        vertical = ft.vertical_collapse(s, sp, props)
        return decomposition, pos, target, horizontal, vertical

    def check_case(self, case, result) -> bytes:
        s, saddle, sp, collapse_class = case
        decomposition, pos, target, horizontal, vertical = result
        t = s.skeleton
        total = ft.area(s)
        require(
            sum((vc.width * vc.core for vc in decomposition), Fraction(0)) == total,
            "vertical cylinders do not tile the surface",
        )
        c, d = pos.cylinders
        require(
            pos.vertical.width == s.lengths[saddle]
            and pos.vertical.core == s.heights[c] + s.heights[d],
            f"standard position of saddle {saddle}",
        )
        if has_self_glued(t, target):
            require(isinstance(horizontal, ft.CollapseError), f"deleting {target} was not refused")
            h_out = "refused"
        else:
            require(not isinstance(horizontal, Exception), f"deleting {target} refused: {horizontal}")
            require(horizontal.certification.ok, f"horizontal collapse of {target} not certified")
            require(all(f.is_forest for f in horizontal.forests), "regluing is not a forest")
            require(
                horizontal.area_before - horizontal.area_after == horizontal.deleted_area,
                "horizontal collapse area accounting",
            )
            h_out = [ft.surface_to_json(comp) for comp in horizontal.surfaces.components]
        require(vertical.certification.ok, "vertical collapse not certified")
        require(
            vertical.area_before - vertical.area_after == vertical.collapsed_area,
            "vertical collapse area accounting",
        )
        require(
            len(vertical.surfaces.components) + len(vertical.dropped_cylinders) == 2,
            "collapsing one full edge must split the surface in two",
        )
        return dumps(
            {
                "cylinders": [
                    [ft.fraction_to_string(vc.width), ft.fraction_to_string(vc.core), len(vc.crossings)]
                    for vc in decomposition
                ],
                "deltas": {str(v): ft.fraction_to_string(x) for v, x in sorted(pos.deltas.items())},
                "horizontal": h_out,
                "vertical": [ft.surface_to_json(comp) for comp in vertical.surfaces.components],
            }
        )


# -- cover ----------------------------------------------------------------------


class Cover(Workload):
    """Seeded and stock blueprints: pull back, quotient, certify, deform, reject."""

    name = "cover"
    batch = 5

    def __init__(self, seed: int):
        super().__init__(seed)
        named = generators.sample_blueprints(generators.blueprint_grid(COVER_COPIES), self.rng)
        named += [(name, b, ft.pullback(b)) for name, b in sorted(ft.builtin_blueprints().items())]
        cases = []
        for name, b, s in named:
            cp, sp = ft.fiber_partitions(b)
            bad = generators.perturbed_partitions(s, cp, sp, self.rng)
            require(bad is not None, f"blueprint {name} admits no rejected candidate")
            shear = Fraction(self.rng.randint(1, 6), self.rng.randint(1, 4))
            dilate = Fraction(self.rng.randint(1, 5), self.rng.randint(1, 3))
            cases.append((name, b, generators.blueprint_degree(b), shear, dilate, bad))
        self.rng.shuffle(cases)
        self.set_cases(cases)

    def call_case(self, case):
        name, b, degree, shear, dilate, bad = case
        s = ft.pullback(b)
        cp, sp = ft.fiber_partitions(b)
        q = ft.quotient(s, cp, sp)
        verdict = ft.certify_cover(s, q)
        same_base = ft.surfaces_isomorphic(q.base, b.base)
        cyls = s.skeleton.vertices
        moved = ft.dilate_class(ft.shear_class(s, cyls, shear), cyls, dilate)
        q2 = ft.quotient(moved, cp, sp)
        base_cyls = b.base.skeleton.vertices
        moved_base = ft.dilate_class(ft.shear_class(b.base, base_cyls, shear), base_cyls, dilate)
        same_moved_base = ft.surfaces_isomorphic(q2.base, moved_base)
        bad_cp, bad_sp, _ = bad
        try:
            rejected = ft.quotient(
                moved, ft.CylinderPartition.of(bad_cp), ft.SaddlePartition.of(bad_sp)
            )
        except ft.CoverError as exc:
            rejected = exc
        return q, verdict, same_base, q2, same_moved_base, rejected

    def check_case(self, case, result) -> bytes:
        name, b, degree, shear, dilate, bad = case
        q, verdict, same_base, q2, same_moved_base, rejected = result
        require(q.degree == degree and q2.degree == degree, f"{name}: quotient degree")
        require(verdict.ok, f"{name}: cover not certified: {verdict.failures[:1]}")
        require(same_base, f"{name}: quotient does not invert the pullback")
        require(same_moved_base, f"{name}: quotient does not commute with shear and dilation")
        require(
            isinstance(rejected, ft.CoverError),
            f"{name}: candidate violating condition ({bad[2]}) was accepted",
        )
        return dumps(
            {
                "base": ft.surface_to_json(q.base),
                "moved_base": ft.surface_to_json(q2.base),
                "degree": q.degree,
                "checks": verdict.checks,
                "area_ratio": ft.fraction_to_string(q.area_ratio),
            }
        )


# -- verify ---------------------------------------------------------------------


class Verify(Workload):
    """In-process ``flattree verify all --seed k`` for consecutive ``k``."""

    name = "verify"

    def __init__(self, seed: int):
        super().__init__(seed)
        first = self.rng.randrange(10**4)
        self.set_cases([["verify", "all", "--seed", str(first + j)] for j in range(VERIFY_ARGVS)])

    def call_case(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = ft.cli.main(list(argv))
        return code, out.getvalue().encode()

    def check_case(self, argv, result) -> bytes:
        code, stdout = result
        self.counts["cli.stdout_bytes"] = self.counts.get("cli.stdout_bytes", 0) + len(stdout)
        require(code == 0, f"{' '.join(argv)} exited {code}")
        payload = json.loads(stdout)
        require(payload["ok"] and payload["failures"] == 0, f"{' '.join(argv)} reported failures")
        require(payload["bounds"]["seed"] == int(argv[3]), "verify echoed the wrong seed")
        return stdout


WORKLOADS = {w.name: w for w in (Census, Flow, Cover, Verify)}
