"""Vertical flow: trace semantics, exact decomposition, saddle alignment."""

import math
import random
import re
import time
from fractions import Fraction as F

import oracles
import pytest
from test_halftree import stubbed_path as stubbed_path_skeleton
from test_surface import inconsistent_raw_surfaces, stubbed_path

from flattree import (
    FlowError,
    HalfTree,
    HyperellipticSurface,
    Mark,
    VerticalCylinder,
    area,
    build,
    canonical_form,
    certify_hyperelliptic,
    cylinder_proportion,
    enumerate_halftrees,
    extract_skeleton,
    involution_check,
    involution_orbit,
    random_metric,
    singularity_profile,
    standard_position,
    surfaces_isomorphic,
    trace_vertical,
    validate,
    vertical_decomposition,
    weierstrass_points,
    with_marks,
)
from flattree import flow


def torus(twist=0, marks=()):
    return build(HalfTree({0: [0]}, []), {0: F(1)}, {0: F(1)}, {0: F(twist)}, marks)


def one_vertex_unit(n, twist=0):
    t = HalfTree({0: list(range(n))}, [])
    return build(t, {p: F(1) for p in range(n)}, {0: F(1)}, {0: F(twist)})


def seeded_halftree(n_ports, seed):
    """A random tree of cylinders; ports left over after the edges are self-glued."""
    rng = random.Random(seed)
    n_vertices = rng.randint(2, n_ports // 2 + 1)
    ports_of = {v: [] for v in range(n_vertices)}
    pairs = []
    for v in range(1, n_vertices):
        u = rng.randrange(v)
        pairs.append((len(pairs) * 2, len(pairs) * 2 + 1))
        ports_of[u].append(pairs[-1][0])
        ports_of[v].append(pairs[-1][1])
    for p in range(2 * len(pairs), n_ports):
        ports_of[rng.randrange(n_vertices)].append(p)
    for plist in ports_of.values():
        rng.shuffle(plist)
    t = HalfTree(ports_of, pairs)
    assert validate(t).ok
    return t


def marked(s, seed):
    """``s`` with involution-closed marks on a few seeded saddles."""
    rng = random.Random(seed)
    marks = []
    for p in rng.sample(s.skeleton.all_ports, min(3, s.skeleton.n_ports)):
        marks.extend(involution_orbit(s, Mark(p, s.lengths[p] * F(rng.randint(1, 4), 5))))
    return with_marks(s, set(marks))


@pytest.fixture
def path3_surface():
    t = HalfTree({0: [0], 1: [1, 2], 2: [3]}, [(0, 1), (2, 3)])
    return build(
        t,
        {0: F(2), 1: F(2), 2: F(3, 2), 3: F(3, 2)},
        {0: F(1), 1: F(1, 2), 2: F(2)},
        {0: F(1, 3), 1: F(0), 2: F(1)},
    )


class TestTrace:
    def test_unit_torus_closes_after_one_crossing(self):
        tr = trace_vertical(torus(), (0, F(1, 2)))
        assert tr.closed
        assert tr.crossings == ((0, F(1, 2)),)
        assert tr.length == 1
        assert tr.hit is None

    def test_twisted_orbit_visits_before_closing(self):
        tr = trace_vertical(torus(F(1, 3)), (0, F(1, 5)))
        assert tr.closed
        assert tr.length == 3
        assert len(tr.crossings) == 3

    def test_terminates_on_zero(self):
        s = one_vertex_unit(3, twist=F(1, 2))
        tr = trace_vertical(s, (0, F(1, 2)))
        assert not tr.closed
        assert tr.hit == ("zero", (0, "t", F(1)))
        assert tr.length == 1

    def test_terminates_on_mark(self):
        s = torus(F(1, 4), marks=[Mark(0, F(1, 2))])
        tr = trace_vertical(s, (0, F(1, 4)))
        assert not tr.closed
        assert tr.hit == ("mark", (0, F(1, 2)))

    def test_singular_start_rejected(self):
        with pytest.raises(FlowError, match="singular corner"):
            trace_vertical(one_vertex_unit(3), (0, F(1)))

    def test_marked_start_rejected(self):
        s = torus(marks=[Mark(0, F(1, 2))])
        with pytest.raises(FlowError, match="marked point"):
            trace_vertical(s, (0, F(1, 2)))

    def test_unknown_cylinder_rejected(self):
        with pytest.raises(FlowError, match="no cylinder"):
            trace_vertical(torus(), (9, F(1, 2)))

    def test_offset_normalized_into_circle(self):
        tr = trace_vertical(torus(), (0, F(7, 2)))
        assert tr.start == (0, F(1, 2))

    def test_start_denominator_outside_the_layout(self):
        tr = trace_vertical(torus(F(1, 2)), (0, F(1, 7)))
        assert tr.closed
        assert tr.crossings == ((0, F(1, 7)), (0, F(9, 14)))


class TestDecomposition:
    def test_unit_torus_single_cylinder(self):
        assert vertical_decomposition(torus()) == (
            VerticalCylinder(F(1), F(1), ((0, F(0)),)),
        )

    def test_twisted_torus_spirals(self):
        (vc,) = vertical_decomposition(torus(F(1, 2)))
        assert vc == VerticalCylinder(F(1, 2), F(2), ((0, F(0)), (0, F(1, 2))))

    def test_three_saddle_cylinder_splits(self):
        dec = vertical_decomposition(one_vertex_unit(3))
        assert sorted((c.width, c.core) for c in dec) == [(1, 1), (1, 2)]

    def test_area_identity_over_fixture_sweep(self):
        for n in range(1, 7):
            for t in enumerate_halftrees(n):
                for seed in (0, 1):
                    s = random_metric(t, seed)
                    dec = vertical_decomposition(s)
                    assert sum(c.area for c in dec) == area(s)

    def test_marks_act_as_barriers(self):
        plain = torus()
        marked = torus(marks=[Mark(0, F(1, 2))])
        assert len(vertical_decomposition(plain)) == 1
        widths = sorted(c.width for c in vertical_decomposition(marked))
        assert widths == [F(1, 2), F(1, 2)]
        assert sum(c.area for c in vertical_decomposition(marked)) == area(marked)

    def test_trace_agrees_with_decomposition(self, path3_surface):
        for seed in range(3):
            s = random_metric(path3_surface.skeleton, seed)
            for vc in vertical_decomposition(s):
                v, x = vc.crossings[0]
                tr = trace_vertical(s, (v, x + vc.width / 2))
                assert tr.closed
                assert tr.length == vc.core
                assert sorted(tr.crossings) == sorted(
                    (u, y + vc.width / 2) for u, y in vc.crossings
                )

    def test_representation_invariance_under_rotation(self, path3_surface):
        s = path3_surface
        rot = HalfTree({0: [0], 1: [2, 1], 2: [3]}, [(0, 1), (2, 3)])
        shifted = (s.twists[1] + 2 * s.lengths[1]) % s.circumference(1)
        r = build(rot, s.lengths, s.heights, {0: s.twists[0], 1: shifted, 2: s.twists[2]})
        shapes = lambda surf: sorted((c.width, c.core) for c in vertical_decomposition(surf))
        assert shapes(s) == shapes(r)


def reference_surfaces():
    """Seeded surfaces for the Fraction reference: small classes, marks, 64 ports."""
    for n in range(1, 6):
        for i, t in enumerate(enumerate_halftrees(n)):
            for seed in (0, 1):
                yield f"class-{n}.{i}-{seed}", random_metric(t, seed)
    for seed in range(4):
        s = random_metric(seeded_halftree(12, seed), seed, max_denominator=4)
        yield f"marked-12-{seed}", marked(s, seed)
    for seed in range(2):
        yield f"ports-64-{seed}", random_metric(seeded_halftree(64, seed), seed, max_denominator=4)


REFERENCE = dict(reference_surfaces())


def class_surfaces(n):
    """Every ``n``-port class at seeds 0 and 1, plain and with involution-closed marks."""
    for i, t in enumerate(enumerate_halftrees(n)):
        for seed in (0, 1):
            s = random_metric(t, seed)
            yield f"class-{n}.{i}-{seed}", s
            yield f"marked-{n}.{i}-{seed}", marked(s, seed)


@pytest.fixture(scope="session")
def fraction_decomposition():
    """The Fraction reference decomposition, computed once per surface name in a session.

    A name always stands for the same surface: ``class-<n>.<i>-<seed>`` is
    ``random_metric`` of the i-th n-port class both in ``REFERENCE`` and in
    :func:`class_surfaces`.
    """
    done = {}

    def reference(name, s):
        if name not in done:
            done[name] = oracles.vertical_decomposition_fraction(s)
        return done[name]

    return reference


class TestFractionReference:
    """The integer-layout walk equals the Fraction walk it replaced, value and type."""

    @pytest.mark.parametrize("name", sorted(REFERENCE))
    def test_decomposition(self, name, fraction_decomposition):
        s = REFERENCE[name]
        want = fraction_decomposition(name, s)
        assert repr(vertical_decomposition(s)) == repr(want)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_class_plain_and_marked(self, n, fraction_decomposition):
        for name, s in class_surfaces(n):
            assert repr(vertical_decomposition(s)) == repr(fraction_decomposition(name, s)), name

    def test_inconsistent_raw_surfaces_fail_both_checks_like_the_reference(self):
        # paired ports of different lengths: the return map is no interval bijection
        messages = set()
        for raw in inconsistent_raw_surfaces(5):
            try:
                want = repr(oracles.vertical_decomposition_fraction(raw))
            except AssertionError:
                with pytest.raises(FlowError) as exc:
                    vertical_decomposition(raw)
                messages.add(str(exc.value))
            else:
                assert repr(vertical_decomposition(raw)) == want
        assert messages == {"interval map failed to be a bijection", "interval orbit changed width"}
        # one saddle whose two copies disagree (1 and 3/2): two intervals share an image
        t = HalfTree({0: [0], 1: [1]}, [(0, 1)])
        raw = HyperellipticSurface(t, {0: F(1), 1: F(3, 2)}, {0: F(1), 1: F(1)}, {0: F(1, 2), 1: F(1, 2)})
        with pytest.raises(AssertionError, match="interval map failed to be a bijection"):
            oracles.vertical_decomposition_fraction(raw)
        with pytest.raises(FlowError, match="interval map failed to be a bijection"):
            vertical_decomposition(raw)

    @pytest.mark.parametrize("name", sorted(REFERENCE))
    def test_trace(self, name, fraction_decomposition):
        s = REFERENCE[name]
        # on the marked and 64-port surfaces (denominators <= 4) 1/7 is off the lattice
        starts = [(v, F(1, 7)) for v in s.skeleton.vertices]
        for vc in fraction_decomposition(name, s):
            starts.append((vc.crossings[0][0], vc.crossings[0][1] + vc.width / 2))
        # split points start on corners, on marks, or on verticals that hit one
        split = oracles.split_points_fraction(oracles.FractionGeometry(s))
        starts += [(v, x) for v, pts in sorted(split.items()) for x in pts[:6]]
        for start in starts:
            try:
                want = oracles.trace_vertical_fraction(s, start)
            except FlowError as exc:
                with pytest.raises(FlowError, match=re.escape(str(exc))):
                    trace_vertical(s, start)
            else:
                assert repr(trace_vertical(s, start)) == repr(want)

    def test_trace_on_inconsistent_raw_surfaces_refuses_landings_off_the_circle(self):
        # paired ports of different lengths: a step may land past the end of its
        # circle, or the walk may cycle without closing
        for raw in inconsistent_raw_surfaces(6):
            for start in ((v, x) for v in raw.skeleton.vertices for x in (F(1, 7), F(1, 3), F(5, 11))):
                try:
                    want = oracles.trace_vertical_fraction(raw, start)
                except FlowError as exc:
                    with pytest.raises(FlowError, match=re.escape(str(exc))):
                        trace_vertical(raw, start)
                    continue
                except RuntimeError:  # the reference's step bound
                    with pytest.raises(FlowError, match="exceeded the rational step bound"):
                        trace_vertical(raw, start)
                    continue
                assert repr(trace_vertical(raw, start)) == repr(want)


def off_lattice_starts(s):
    """Per cylinder, one start before its circle and one past it, at elevenths and thirteenths.

    Every surface traced here has a scale whose primes are 2, 3, 5 and 7
    (lengths and twists over at most 8, marks at fifths of a length), so both
    starts are off its lattice and walk with a remainder.
    """
    for v in s.skeleton.vertices:
        yield v, -F(2, 11)
        yield v, s.circumference(v) + F(1, 13)


class TestTraceRemainder:
    """Starts off the layout's lattice walk the kept table with a remainder, as the reference walks them."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_class_plain_and_marked(self, n):
        for name, s in class_surfaces(n):
            for start in off_lattice_starts(s):
                got = trace_vertical(s, start)
                assert repr(got) == repr(oracles.trace_vertical_fraction(s, start)), (name, start)
                assert math.gcd(got.start[1].denominator, 11 * 13) > 1  # off the lattice

    def test_inconsistent_raw_surfaces_fail_with_the_reference_message(self):
        messages = set()
        for raw in inconsistent_raw_surfaces(5):
            for start in off_lattice_starts(raw):
                try:
                    want = oracles.trace_vertical_fraction(raw, start)
                except (FlowError, RuntimeError) as exc:  # RuntimeError: the reference's step bound
                    with pytest.raises(FlowError) as got:
                        trace_vertical(raw, start)
                    assert str(got.value) == str(exc)
                    messages.add(str(exc))
                else:
                    assert repr(trace_vertical(raw, start)) == repr(want)
        assert messages == {
            "vertical step lands past the end of its circle",
            "vertical trace exceeded the rational step bound",
        }


@pytest.fixture
def fractions_made(monkeypatch):
    """Arguments of every ``Fraction`` built through the ``flow`` module's name."""
    made = []

    class Counting(F):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return F(*args, **kwargs)

    monkeypatch.setattr(flow, "Fraction", Counting)
    return made


class TestCrossingsView:
    """Decomposed cylinders keep their crossings as ints until an item is read."""

    def test_length_and_counts_leave_the_view_unmaterialised(self, fractions_made):
        s = REFERENCE["ports-64-0"]
        dec = vertical_decomposition(s)
        fractions_made.clear()
        for vc in dec:
            counts = [vc.crossing_count(v) for v in s.skeleton.vertices]
            assert sum(counts) == len(vc.crossings) > 0
            assert vc.crossing_count(max(s.skeleton.vertices) + 1) == 0
        assert fractions_made == []
        assert [len(vc.crossings) for vc in dec] == [len(tuple(vc.crossings)) for vc in dec]
        assert fractions_made

    def test_counts_match_the_materialised_crossings(self):
        s = REFERENCE["marked-12-1"]
        for vc in vertical_decomposition(s):
            exact = tuple(vc.crossings)
            for v in s.skeleton.vertices:
                assert vc.crossing_count(v) == sum(1 for u, _ in exact if u == v)

    def test_view_and_tuple_compare_and_hash_alike(self):
        dec = vertical_decomposition(REFERENCE["marked-12-0"])
        assert len(dec) > 1
        for vc, other in zip(dec, dec[1:] + dec[:1]):
            exact = tuple(vc.crossings)
            assert vc.crossings == exact and exact == vc.crossings
            assert not vc.crossings != exact and not exact != vc.crossings
            assert hash(vc.crossings) == hash(exact)
            assert repr(vc.crossings) == repr(exact)
            assert vc.crossings != other.crossings and exact != other.crossings
            assert vc.crossings[0] == exact[0] and vc.crossings[-1:] == exact[-1:]
            assert list(vc.crossings) == list(exact) and exact[0] in vc.crossings

    def test_cylinder_from_a_tuple_equals_the_decomposed_one(self, path3_surface):
        s = random_metric(path3_surface.skeleton, 1)
        dec = vertical_decomposition(s)
        plain = [VerticalCylinder(vc.width, vc.core, tuple(vc.crossings)) for vc in dec]
        for vc, twin in zip(dec, plain):
            assert vc == twin and twin == vc and hash(vc) == hash(twin)
            assert type(twin.crossings) is tuple and type(vc.crossings) is not tuple
        assert set(plain) == set(dec)
        for v in s.skeleton.vertices:
            for chosen in (dec[:1], plain[:1], dec, plain):
                want = sum((vc.width * vc.crossing_count(v) for vc in chosen), F(0)) / s.circumference(v)
                assert cylinder_proportion(s, chosen, v) == want
            assert cylinder_proportion(s, plain, v) == cylinder_proportion(s, dec, v) == 1

    def test_fractions_per_call_follow_the_cylinders_not_the_crossings(self, fractions_made):
        # a flow-workload surface: 64 ports, denominators <= 4
        s = random_metric(seeded_halftree(64, 5), 5, max_denominator=4)
        dec = vertical_decomposition(s)
        crossings = sum(len(vc.crossings) for vc in dec)
        assert 0 < len(fractions_made) <= 2 * len(dec) < crossings // 10

    def test_proportion_matches_cylinders_without_materialising_crossings(self, fractions_made):
        # the caller's decomposition and the one the check recomputes are distinct objects
        s = random_metric(seeded_halftree(64, 5), 5, max_denominator=4)
        dec = vertical_decomposition(s)
        crossings = sum(len(vc.crossings) for vc in dec)
        v = max(s.skeleton.vertices)
        # a repeated cylinder counts once
        for chosen, distinct in ((dec[:1], dec[:1]), (dec, dec), (dec + dec[:1], dec)):
            want = sum((vc.width * vc.crossing_count(v) for vc in distinct), F(0)) / s.circumference(v)
            fractions_made.clear()
            assert cylinder_proportion(s, chosen, v) == want
            # the recomputed widths and cores, and the zero of the sum
            assert len(fractions_made) <= 2 * len(dec) + 1 < crossings // 10

    def test_proportion_refuses_foreign_cylinders(self):
        s = REFERENCE["marked-12-0"]
        dec = vertical_decomposition(s)
        vc = dec[0]
        assert len(vc.crossings) > 1
        # same width, core and crossing count, so it shares vc's bucket
        turned = VerticalCylinder(vc.width, vc.core, tuple(reversed(vc.crossings)))
        with pytest.raises(FlowError, match="^1 vertical cylinder"):
            cylinder_proportion(s, [vc, turned, turned], 0)
        wider = VerticalCylinder(vc.width * 2, vc.core, vc.crossings)
        with pytest.raises(FlowError, match="^2 vertical cylinder"):
            cylinder_proportion(s, [wider, turned, *dec], 0)
        # crossings given as a list cannot be hashed
        listed = VerticalCylinder(vc.width, vc.core, list(turned.crossings))
        with pytest.raises(FlowError, match="^1 vertical cylinder"):
            cylinder_proportion(s, [vc, listed, listed], 0)


class TestStandardPosition:
    def test_witness_shape(self, path3_surface):
        std = standard_position(path3_surface, 0)
        assert std.cylinders == (0, 1)
        assert std.vertical.width == path3_surface.lengths[0]
        assert std.vertical.core == path3_surface.heights[0] + path3_surface.heights[1]
        assert {v for v, _ in std.vertical.crossings} == {0, 1}

    def test_deltas_are_reapplied_as_zero(self, path3_surface):
        std = standard_position(path3_surface, 0)
        again = standard_position(std.surface, 0)
        assert again.deltas == {0: F(0), 1: F(0)}
        assert again.surface == std.surface

    def test_only_named_cylinders_change(self, path3_surface):
        std = standard_position(path3_surface, 0)
        assert std.surface.twists[2] == path3_surface.twists[2]
        assert std.surface.lengths == path3_surface.lengths
        assert std.surface.heights == path3_surface.heights

    def test_every_edge_of_every_fixture(self):
        for n in range(2, 7):
            for t in enumerate_halftrees(n):
                s = random_metric(t, seed=2)
                for p, q in t.edges():
                    std = standard_position(s, p)
                    assert std.vertical.width == s.lengths[p]
                    assert std.vertical.core == s.heights[t.vertex_of(p)] + s.heights[t.vertex_of(q)]

    def test_half_edge_rejected(self):
        with pytest.raises(FlowError, match="self-glued"):
            standard_position(one_vertex_unit(3), 0)

    def test_marked_saddle_rejected(self, path3_surface):
        from flattree import involution_orbit, with_marks

        marked = with_marks(path3_surface, involution_orbit(path3_surface, Mark(0, F(1, 2))))
        with pytest.raises(FlowError, match="marked points on saddle"):
            standard_position(marked, 0)

    def test_unknown_saddle_rejected(self, path3_surface):
        with pytest.raises(FlowError, match="no saddle"):
            standard_position(path3_surface, 42)

    def test_missing_witness_is_a_flow_error(self, path3_surface):
        # the fixture keeps its own twists, so saddle 0 is not aligned
        s = path3_surface
        unaligned = (s, 0, 1, s.port_start(0), s.lengths[0])
        # the aligned surface with one raw mark strictly inside the strip
        aligned = standard_position(s, 0).surface
        raw = HyperellipticSurface(
            aligned.skeleton, aligned.lengths, aligned.heights, aligned.twists, (Mark(0, F(1)),)
        )
        # two cylinders sheared by half a saddle: the strip's top straddles a corner
        t = HalfTree({0: [0], 1: [1]}, [(0, 1)])
        half = build(t, {0: F(2), 1: F(2)}, {0: F(1), 1: F(1)}, {0: F(1), 1: F(1)})
        straddling = (half, 0, 1, F(0), F(2))
        for args in (unaligned, (raw, 0, 1, F(0), s.lengths[0]), straddling):
            with pytest.raises(FlowError, match="aligned saddle produced no vertical witness"):
                oracles.locate_witness_by_decomposition(*args)
            with pytest.raises(FlowError, match="aligned saddle produced no vertical witness"):
                flow._locate_witness(*args)

    def test_strip_through_a_third_cylinder_crosses_others(self):
        t = HalfTree({0: [0], 1: [1, 2], 2: [3]}, [(0, 1), (2, 3)])
        s = build(t, {p: F(1) for p in range(4)}, {v: F(1) for v in range(3)}, {})
        for locate in (oracles.locate_witness_by_decomposition, flow._locate_witness):
            with pytest.raises(FlowError, match="witness over cylinders 0, 1 crosses others"):
                locate(s, 0, 1, F(0), F(1))

    def test_no_decomposition_and_one_lattice_per_witness(self, path3_surface, monkeypatch):
        calls = {"decomposition": 0, "return map": 0}
        return_map = flow._return_map

        def decomposition(s):
            calls["decomposition"] += 1
            return vertical_decomposition(s)

        def counted_return_map(*args):
            calls["return map"] += 1
            return return_map(*args)

        monkeypatch.setattr(flow, "vertical_decomposition", decomposition)
        monkeypatch.setattr(flow, "_return_map", counted_return_map)
        standard_position(path3_surface, 0)
        assert calls == {"decomposition": 0, "return map": 1}

    def test_deep_path_under_the_default_recursion_limit(self):
        t = stubbed_path_skeleton(10**4)
        metric = random_metric(t, 1)
        s = build(t, metric.lengths, metric.heights, {v: F(0) for v in t.vertices})
        start = time.perf_counter()
        for p, q in (t.edges()[0], t.edges()[-1]):
            pos = standard_position(s, p)
            assert pos.vertical.width == s.lengths[p]
            assert pos.vertical.core == s.heights[t.vertex_of(p)] + s.heights[t.vertex_of(q)]
        assert time.perf_counter() - start < 5


def test_deep_path_through_nine_functions_under_the_default_recursion_limit():
    # 10**4 cylinders, ten times the default recursion limit, which stays as it is;
    # the flow runs on the small-denominator metric (denominators <= 2)
    n = 10**4
    start = time.perf_counter()
    s = stubbed_path(n)
    metric = random_metric(s.skeleton, 1)
    assert metric.skeleton == s.skeleton
    assert canonical_form(stubbed_path_skeleton(n)).automorphisms == 1
    profile = singularity_profile(s)
    assert sum(profile.orders) == 2 * profile.genus - 2
    assert weierstrass_points(s).ok
    assert certify_hyperelliptic(s).ok
    assert extract_skeleton(s) == s.skeleton
    assert involution_check(s).ok
    dec = vertical_decomposition(s)
    assert sum(vc.area for vc in dec) == area(s)
    assert sum(vc.crossing_count(0) for vc in dec) > 0
    assert surfaces_isomorphic(s, s)
    assert time.perf_counter() - start < 30


def witness_cases(n):
    """Every port of every full edge of the ``n``-port classes, seeds 0 and 1, then marked."""
    for i, t in enumerate(enumerate_halftrees(n)):
        for seed in (0, 1):
            s = random_metric(t, seed)
            for edge in t.edges():
                for p in edge:
                    yield f"class-{n}.{i}-{seed}-{p}", s, p
                # involution-closed marks on every saddle but the aligned one
                others = [r for r in t.all_ports if r not in edge]
                marks = {m for r in others for m in involution_orbit(s, Mark(r, s.lengths[r] / 3))}
                if marks and n <= 6:
                    for p in edge:
                        yield f"marked-{n}.{i}-{seed}-{p}", with_marks(s, marks), p


class TestWitnessReference:
    """The strip walk finds the witness the whole decomposition found, by ``repr``."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_both_alignments_match_the_decomposition(self, n):
        # each full edge is aligned from both of its ports
        for name, s, p in witness_cases(n):
            a_p, ell = oracles.port_start_fraction(s, p), s.lengths[p]
            std = standard_position(s, p)
            want = oracles.locate_witness_by_decomposition(std.surface, *std.cylinders, a_p, ell)
            assert repr(std.vertical) == repr(want), name


class TestProportion:
    def test_full_decomposition_covers_everything(self):
        for n in range(1, 6):
            for t in enumerate_halftrees(n):
                s = random_metric(t, seed=4)
                dec = vertical_decomposition(s)
                for v in t.vertices:
                    assert cylinder_proportion(s, dec, v) == 1

    def test_witness_proportions(self, path3_surface):
        std = standard_position(path3_surface, 0)
        ell = path3_surface.lengths[0]
        assert cylinder_proportion(std.surface, [std.vertical], 0) == ell / F(2)
        assert cylinder_proportion(std.surface, [std.vertical], 1) == ell / F(7, 2)
        assert cylinder_proportion(std.surface, [std.vertical], 2) == 0

    def test_empty_set(self, path3_surface):
        assert cylinder_proportion(path3_surface, [], 0) == 0

    def test_foreign_cylinder_rejected(self, path3_surface):
        std = standard_position(path3_surface, 0)
        with pytest.raises(FlowError, match="not from the current decomposition"):
            cylinder_proportion(path3_surface, [std.vertical], 0)

    def test_unknown_horizontal_cylinder(self, path3_surface):
        with pytest.raises(FlowError, match="no cylinder"):
            cylinder_proportion(path3_surface, [], 17)
