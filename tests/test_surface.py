"""Surface layer: build validation, corner walk, involution, certification."""

import copy
import json
import math
import pickle
import random
import time
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction as F

import oracles
import pytest
import seam_tables
from test_halftree import path as plain_path_skeleton
from test_halftree import relabel
from test_halftree import stubbed_path as stubbed_path_skeleton
from hypothesis import given, settings
from hypothesis import strategies as st

from flattree import (
    HalfTree,
    Mark,
    MetricError,
    SkeletonError,
    area,
    build,
    canonical_form,
    canonical_metric,
    dilate_class,
    enumerate_halftrees,
    extract_skeleton,
    involution_check,
    involution_orbit,
    random_metric,
    relative_deformation,
    shear_class,
    singularity_profile,
    stratum_of,
    surface_from_json,
    surface_to_dot,
    surface_to_json,
    surfaces_isomorphic,
    weierstrass_points,
    with_marks,
)
from flattree import surface
from flattree.surface import (
    HyperellipticSurface,
    fraction_from_string,
    fraction_to_string,
)


def one_vertex(n: int):
    return HalfTree({0: list(range(n))}, [])


def unit_surface(t: HalfTree, twist=0):
    return build(
        t,
        {p: F(1) for p in t.all_ports},
        {v: F(1) for v in t.vertices},
        {v: F(twist) for v in t.vertices},
    )


def certify_lowered(s: HyperellipticSurface):
    """The kernel's verdict on the oracle's seam table of ``s``, read as a foreign table."""
    return seam_tables.certify_table(oracles.seam_table_fraction(s))


@pytest.fixture
def path3_surface():
    t = HalfTree({0: [0], 1: [1, 2], 2: [3]}, [(0, 1), (2, 3)])
    return build(
        t,
        {0: F(2), 1: F(2), 2: F(3, 2), 3: F(3, 2)},
        {0: F(1), 1: F(1, 2), 2: F(2)},
        {0: F(1, 3), 1: F(0), 2: F(1)},
    )


@pytest.fixture
def star3_surface():
    t = HalfTree({0: [0, 1, 2], 1: [3], 2: [4], 3: [5]}, [(0, 3), (1, 4), (2, 5)])
    lengths = {0: F(1), 3: F(1), 1: F(1), 4: F(1), 2: F(2), 5: F(2)}
    return build(t, lengths, {v: F(1) for v in t.vertices}, {v: F(0) for v in t.vertices})


class TestBuild:
    def test_missing_length(self):
        t = one_vertex(2)
        with pytest.raises(MetricError, match="no length for port 1"):
            build(t, {0: F(1)}, {0: F(1)}, {0: F(0)})

    def test_nonpositive_length(self):
        with pytest.raises(MetricError, match="must be positive"):
            build(one_vertex(1), {0: F(0)}, {0: F(1)}, {0: F(0)})

    def test_unknown_port_length(self):
        with pytest.raises(MetricError, match="unknown ports"):
            build(one_vertex(1), {0: F(1), 9: F(1)}, {0: F(1)}, {0: F(0)})

    def test_paired_lengths_must_agree(self):
        t = HalfTree({0: [0], 1: [1]}, [(0, 1)])
        with pytest.raises(MetricError, match="different lengths"):
            build(t, {0: F(1), 1: F(2)}, {0: F(1), 1: F(1)}, {})

    def test_missing_height(self):
        with pytest.raises(MetricError, match="no height"):
            build(one_vertex(1), {0: F(1)}, {}, {})

    def test_nonpositive_height(self):
        with pytest.raises(MetricError, match="height of vertex 0"):
            build(one_vertex(1), {0: F(1)}, {0: F(-2)}, {})

    def test_unknown_vertex_metric(self):
        with pytest.raises(MetricError, match="unknown vertex 7"):
            build(one_vertex(1), {0: F(1)}, {0: F(1), 7: F(1)}, {})

    def test_twist_normalized(self):
        s = build(one_vertex(1), {0: F(5, 2)}, {0: F(1)}, {0: F(-13, 4)})
        assert s.twists[0] == F(-13, 4) % F(5, 2)
        assert 0 <= s.twists[0] < F(5, 2)

    def test_invalid_skeleton_rejected(self):
        t = HalfTree({0: [0, 1]}, [(0, 1)])
        with pytest.raises(SkeletonError):
            build(t, {0: F(1), 1: F(1)}, {0: F(1)}, {})

    def test_mark_at_endpoint_rejected(self):
        with pytest.raises(MetricError, match="outside the open saddle"):
            build(one_vertex(1), {0: F(2)}, {0: F(1)}, {}, [Mark(0, F(2))])

    def test_marks_must_close_under_involution(self):
        t = HalfTree({0: [0], 1: [1]}, [(0, 1)])
        with pytest.raises(MetricError, match="involution-closed"):
            build(t, {0: F(3), 1: F(3)}, {0: F(1), 1: F(1)}, {}, [Mark(0, F(1))])

    def test_midpoint_mark_is_self_closed(self):
        s = build(one_vertex(1), {0: F(2)}, {0: F(1)}, {}, [Mark(0, F(1))])
        assert s.marks == (Mark(0, F(1)),)

    def test_values_are_stored_as_exact_fractions(self):
        class Sub(F):
            pass

        t = HalfTree({0: [0, 1], 1: [2]}, [(0, 2)])
        for kind in (int, F, Sub):
            s = build(
                t,
                {0: kind(3), 1: kind(2), 2: kind(3)},
                {0: kind(1), 1: kind(2)},
                {0: kind(4), 1: kind(1)},
                [Mark(1, kind(1))],
            )
            values = [*s.lengths.values(), *s.heights.values(), *s.twists.values(), s.marks[0].offset]
            assert all(type(x) is F for x in values), kind
            assert s.lengths == {0: 3, 1: 2, 2: 3}
            assert s.heights == {0: 1, 1: 2}
            assert s.twists == {0: 4, 1: 1}

    def test_exact_fractions_in_range_are_kept_as_given(self):
        ell, h, tw = F(5, 2), F(1, 3), F(7, 4)
        s = build(one_vertex(1), {0: ell}, {0: h}, {0: tw})
        assert s.lengths[0] is ell and s.heights[0] is h and s.twists[0] is tw

    @pytest.mark.parametrize(
        "twist",
        [F(-13, 4), F(-5, 2), -3, F(-1, 9), 0, F(0), F(1, 3), F(17, 7), F(5, 2), 5, F(13, 2), 9],
    )
    def test_stored_twist_is_twist_mod_circumference(self, twist):
        s = build(one_vertex(2), {0: F(1), 1: F(3, 2)}, {0: F(1)}, {0: twist})
        assert type(s.twists[0]) is F
        assert s.twists[0] == F(twist) % F(5, 2)


def swept_surfaces(n: int):
    """Each ``n``-port class at seeds 0 and 1: plain, marked, then sheared and dilated on a seeded class."""
    for t in enumerate_halftrees(n):
        for seed in (0, 1):
            s = random_metric(t, seed)
            rng = random.Random(f"{seed}:{t!r}")
            p = rng.choice(t.all_ports)
            marked = with_marks(s, involution_orbit(s, Mark(p, s.lengths[p] * F(rng.randint(1, 6), 7))))
            some = rng.sample(t.vertices, max(1, len(t.vertices) // 2))
            sheared = shear_class(marked, some, F(rng.randint(1, 9), rng.randint(1, 5)))
            dilated = dilate_class(sheared, some, F(rng.randint(1, 9), rng.randint(1, 5)))
            yield from (s, marked, sheared, dilated)


def assert_positions_are_the_fraction_ones(s: HyperellipticSurface) -> None:
    """``port_start``, ``top_start`` and the kept layout's seams equal the oracle's ``Fraction`` sums."""
    lay = surface._layout(s)
    for p in s.skeleton.all_ports:
        assert s.port_start(p) == oracles.port_start_fraction(s, p), (s, p)
        assert s.top_start(p) == oracles.top_start_fraction(s, p), (s, p)
        sides = tuple((v, F(x, lay.scale)) for v, x in lay.seams[p])
        assert sides == oracles.seam_sides_fraction(s, p), (s, p)


class TestGeometry:
    def test_circumference_and_starts(self, path3_surface):
        s = path3_surface
        assert s.circumference(1) == F(7, 2)
        assert s.port_start(1) == 0
        assert s.port_start(2) == F(2)

    def test_top_copy_never_straddles_zero(self):
        for t in enumerate_halftrees(6):
            s = random_metric(t, seed=3)
            for p in t.all_ports:
                L = s.circumference(t.vertex_of(p))
                assert s.top_start(p) + s.lengths[p] <= L

    def test_area(self, path3_surface):
        s = path3_surface
        assert area(s) == F(2) * 1 + F(7, 2) * F(1, 2) + F(3, 2) * 2

    @pytest.mark.parametrize("n", range(1, 9))
    def test_area_is_the_fraction_sum(self, n):
        # the integer sum against circumference times height, summed in Fraction
        for x in swept_surfaces(n):
            assert area(x) == oracles.area_fraction(x), x

    @pytest.mark.parametrize("n", range(1, 9))
    def test_position_views_are_the_fraction_positions(self, n):
        for x in swept_surfaces(n):
            assert_positions_are_the_fraction_ones(x)

    def test_position_views_on_inconsistent_raw_surfaces(self):
        for raw in (*inconsistent_raw_surfaces(6), raw_path3(lengths=(2, 3, 3, 3))):
            assert_positions_are_the_fraction_ones(raw)

    def test_seam_sides(self, path3_surface):
        (above, below) = oracles.seam_sides_fraction(path3_surface, 0)
        assert above == (0, F(0))
        # partner of 0 is port 1 on vertex 1: top copy starts at 7/2 - 0 - 2
        assert below == (1, F(3, 2))

    def test_random_metric_deterministic(self):
        t = HalfTree({0: [0], 1: [1, 2], 2: [3]}, [(0, 1), (2, 3)])
        assert random_metric(t, 7) == random_metric(t, 7)
        assert random_metric(t, 7) != random_metric(t, 8)


EXPECTED_PROFILES = [
    (1, (0,)),
    (2, (0, 0)),
    (3, (2,)),
    (4, (1, 1)),
    (5, (4,)),
    (6, (2, 2)),
]


class TestSingularityProfile:
    @pytest.mark.parametrize("n,orders", EXPECTED_PROFILES)
    def test_orders_match_stratum(self, n, orders):
        for t in enumerate_halftrees(n):
            s = random_metric(t, seed=n)
            assert singularity_profile(s).orders == orders

    def test_profile_metric_independent(self, path3_surface):
        s = path3_surface
        base = singularity_profile(s)
        for seed in range(5):
            other = random_metric(s.skeleton, seed)
            alt = singularity_profile(other)
            assert alt.orders == base.orders
            assert len(alt.corner_classes) == len(base.corner_classes)

    def test_decorations_add_zero_orders(self, path3_surface):
        m = with_marks(path3_surface, involution_orbit(path3_surface, Mark(0, F(1, 2))))
        prof = singularity_profile(m)
        assert prof.orders == (1, 1, 0, 0)
        assert prof.corner_orders == (1, 1)
        assert prof.decoration_count == 2

    def test_total_order_is_euler_characteristic(self):
        for n in range(1, 7):
            for t in enumerate_halftrees(n):
                prof = singularity_profile(unit_surface(t))
                assert sum(prof.corner_orders) == 2 * prof.genus - 2

    def test_corner_classes_partition_all_corners(self, star3_surface):
        prof = singularity_profile(star3_surface)
        total = sum(len(g) for g in prof.corner_classes)
        # two corners per saddle copy, one copy per circle side
        assert total == sum(len(g) for g in prof.corner_classes)
        assert {len(g) // 2 - 1 for g in prof.corner_classes} == {2}


class TestWeierstrass:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_count_and_formula(self, n):
        for t in enumerate_halftrees(n):
            s = random_metric(t, seed=11 * n)
            rep = weierstrass_points(s)
            assert rep.count == rep.expected == 2 * stratum_of(t).genus + 2
            assert rep.formula_residual == 0

    def test_core_points_sit_at_half_height(self, path3_surface):
        rep = weierstrass_points(path3_surface)
        cores = [p for p in rep.points if p[0] == "core"]
        assert len(cores) == 6
        for _, v, x, h in cores:
            assert h == path3_surface.heights[v] / 2
            L = path3_surface.circumference(v)
            # rotation fixes it: 2x = -twist mod L
            assert (2 * x + path3_surface.twists[v]) % L == 0

    def test_midpoints_only_on_self_glued_saddles(self, path3_surface, star3_surface):
        assert not [p for p in weierstrass_points(path3_surface).points if p[0] == "midpoint"]
        s = unit_surface(one_vertex(3))
        mids = [p for p in weierstrass_points(s).points if p[0] == "midpoint"]
        assert len(mids) == 3

    @pytest.mark.parametrize("n", range(1, 8))
    def test_points_match_fraction_oracle(self, n):
        for t in enumerate_halftrees(n):
            for seed in (n, n + 1):
                s = random_metric(t, seed)
                expected = oracles.weierstrass_points_fraction(s)
                assert repr(weierstrass_points(s).points) == repr(expected)
                prof = singularity_profile(s).corner_classes
                fixed = oracles.fixed_corner_classes_fraction(s, prof)
                lay = surface._layout(s)
                classes = surface._profile_classes(s.skeleton, lay, surface._corners(s))[0]
                assert surface._fixed_classes(lay, classes) == fixed

    def test_fixed_class_needs_its_whole_image(self):
        # rotation by pi sends (0, side, x) to (0, other side, -x mod 3): class 0
        # goes partly onto itself and partly onto class 1, and the image of
        # (0, "t", 1) is no corner at all
        lay = surface._Layout(1, {0: 3}, {0: 0}, {}, {}, ())
        classes = [[(0, "b", 0), (0, "t", 0), (0, "b", 1)], [(0, "t", 2)], [(0, "t", 1)]]
        assert surface._fixed_classes(lay, classes) == []
        assert surface._fixed_classes(lay, [[(0, "b", 0), (0, "t", 0), (0, "t", 1)]]) == []
        assert surface._fixed_classes(lay, [[(0, "b", 0), (0, "t", 0)]]) == [0]

    def test_fixed_corner_classes(self):
        # single zero of even order is rotation-fixed; the two order-1 zeros swap
        one = weierstrass_points(unit_surface(one_vertex(3)))
        assert len([p for p in one.points if p[0] == "corner-class"]) == 1
        t = HalfTree({0: [0], 1: [1, 2], 2: [3]}, [(0, 1), (2, 3)])
        two = weierstrass_points(unit_surface(t))
        assert not [p for p in two.points if p[0] == "corner-class"]


PATH3 = HalfTree({0: [0], 1: [1, 2], 2: [3]}, [(0, 1), (2, 3)])


def raw_path3(lengths=(2, 2, 3, 3), heights=(1, 1, 1), marks=()):
    """A path3 surface made without :func:`build`, so nothing is validated."""
    return HyperellipticSurface(
        PATH3,
        {p: F(x) for p, x in enumerate(lengths)},
        {v: F(x) for v, x in enumerate(heights)},
        {0: F(0), 1: F(1, 3), 2: F(0)},
        marks,
    )


def inconsistent_raw_surfaces(max_ports: int):
    """Each class of 2..``max_ports`` ports at seeds 0..2 with one port lengthened, made without :func:`build`.

    The lengthened port no longer matches its partner, so nothing closes up.
    """
    rng = random.Random(0)
    for n in range(2, max_ports + 1):
        for t in enumerate_halftrees(n):
            for seed in range(3):
                s = random_metric(t, seed)
                lengths = dict(s.lengths)
                p = rng.choice(t.all_ports)
                lengths[p] += F(rng.randint(1, 3), 2)
                yield HyperellipticSurface(t, lengths, s.heights, s.twists, s.marks)


class TestInvolution:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_reports_ok(self, n):
        for t in enumerate_halftrees(n):
            rep = involution_check(random_metric(t, seed=n + 1))
            assert rep.ok, rep.failures
            assert rep.fixed_point_count == rep.expected_fixed_points

    @pytest.mark.parametrize(
        "raw, failure",
        [
            # paired ports 0 and 1 of unequal length: the top circles do not close
            (raw_path3(lengths=(2, 3, 3, 3)), "top circle of cylinder 0 covers 3 of circumference 2"),
            # a mark whose involution partner is missing
            (raw_path3(marks=(Mark(0, F(1, 3)),)), "cylinder 0: no rotation aligns"),
            (raw_path3(heights=(1, -1, 1)), "cylinder 1 has nonpositive dimensions"),
        ],
    )
    def test_broken_raw_surface_fails(self, raw, failure):
        rep, cert = involution_check(raw), certify_lowered(raw)
        assert not rep.ok
        assert cert.failures[0].startswith(failure)
        assert rep.failures[: len(cert.failures)] == cert.failures
        assert repr(surface._certify(surface._layout(raw), raw.heights)) == repr(cert)

    def test_builds_one_layout(self, monkeypatch, star3_surface):
        builds = []
        new_layout = surface._new_layout

        def counted(s):
            builds.append(s)
            return new_layout(s)

        monkeypatch.setattr(surface, "_new_layout", counted)
        s = replace(star3_surface)  # a fresh object, nothing kept yet
        assert involution_check(s).ok
        assert builds == [s]

    def test_surfaces_certify_without_a_seam_table(self, monkeypatch, star3_surface):
        # a built surface certifies once, on its own kept layout
        seen = []
        certify = surface._certify

        def counted(lay, heights):
            seen.append(lay)
            return certify(lay, heights)

        monkeypatch.setattr(surface, "_certify", counted)
        s = replace(star3_surface)  # a fresh object, nothing kept yet
        assert involution_check(s).ok
        assert extract_skeleton(s) == s.skeleton
        assert len(seen) == 1 and seen[0] is surface._layout(s)


def relabeled_rebuild(s: HyperellipticSurface, rng: random.Random) -> HyperellipticSurface:
    """``s`` under fresh vertex and port ids, every port list rotated and its twist corrected."""
    t = s.skeleton
    vids = dict(zip(t.vertices, rng.sample(range(100, 100 + 3 * len(t.vertices)), len(t.vertices))))
    pids = dict(zip(t.all_ports, rng.sample(range(500, 500 + 3 * t.n_ports), t.n_ports)))
    ports_of, heights, twists = {}, {}, {}
    for v in t.vertices:
        plist = t.ports(v)
        r = rng.randrange(len(plist))
        ports_of[vids[v]] = [pids[p] for p in plist[r:] + plist[:r]]
        heights[vids[v]] = s.heights[v]
        twists[vids[v]] = s.twists[v] + 2 * oracles.port_start_fraction(s, plist[r])
    skeleton = HalfTree(ports_of, [(pids[p], pids[q]) for p, q in t.edges()])
    return build(skeleton, {pids[p]: x for p, x in s.lengths.items()}, heights, twists)


def fraction_layout(s: HyperellipticSurface, scale: int) -> surface._Layout:
    """The layout of ``s`` on ``scale``, every entry read off the ``Fraction`` positions of the oracle."""
    t = s.skeleton

    def at(x: F) -> int:
        n = x * scale
        if n.denominator != 1:
            raise ValueError(f"{x} is not integral on scale {scale}")
        return n.numerator

    return surface._Layout(
        scale,
        {v: at(s.circumference(v)) for v in t.vertices},
        {v: at(x) for v, x in s.twists.items()},
        {p: at(x) for p, x in s.lengths.items()},
        {p: tuple((u, at(x)) for u, x in oracles.seam_sides_fraction(s, p)) for p in t.all_ports},
        tuple(sorted((m.port, at(m.offset)) for m in s.marks)),
    )


class TestKeptData:
    """A surface lays itself out, certifies and walks its corners once, and nothing else sees it."""

    @staticmethod
    def counting(monkeypatch, name: str) -> list:
        """Patch ``surface.<name>`` to record its first argument on every call."""
        calls, original = [], getattr(surface, name)

        def counted(first, *args):
            calls.append(first)
            return original(first, *args)

        monkeypatch.setattr(surface, name, counted)
        return calls

    @pytest.mark.parametrize("n", range(1, 8))
    def test_census_case_computes_each_value_once(self, monkeypatch, n):
        builds = self.counting(monkeypatch, "_new_layout")
        certified = self.counting(monkeypatch, "_certify")
        walked = self.counting(monkeypatch, "_corner_walk")
        rng = random.Random(n)
        for t in enumerate_halftrees(n):
            for seed in (0, 1):
                for calls in (builds, certified, walked):
                    calls.clear()
                s = random_metric(t, seed)
                assert canonical_form(extract_skeleton(s)) is canonical_form(t)
                singularity_profile(s)
                assert weierstrass_points(s).ok
                assert involution_check(s).ok
                other = relabeled_rebuild(s, rng)
                assert surfaces_isomorphic(s, other)
                assert [id(x) for x in builds] == [id(s), id(other)]
                assert [id(lay) for lay in certified] == [id(surface._layout(s))]
                assert [id(lay) for lay in walked] == [id(surface._layout(s))]

    def test_involution_check_reads_the_kept_weierstrass_report(self, monkeypatch, path3_surface):
        s = replace(path3_surface)  # a fresh object, nothing kept yet
        reports, real = [], surface.WeierstrassReport

        def counted(*args, **kwargs):
            reports.append(real(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(surface, "WeierstrassReport", counted)
        wr = weierstrass_points(s)
        rep = involution_check(s)
        assert len(reports) == 1 and reports[0] is wr and weierstrass_points(s) is wr
        assert rep.ok and rep.fixed_point_count == wr.count

    def test_position_views_build_no_layout_once_it_is_kept(self, monkeypatch, path3_surface):
        s = replace(path3_surface)  # a fresh object, nothing kept yet
        surface._layout(s)
        builds = self.counting(monkeypatch, "_new_layout")
        for p in s.skeleton.all_ports:
            s.port_start(p)
            s.top_start(p)
        assert builds == []

    def test_kept_values_are_invisible(self, path3_surface):
        s = with_marks(path3_surface, involution_orbit(path3_surface, Mark(0, F(1, 3))))
        twin = replace(s)
        before = (repr(s), surface_to_json(s), fields(s))
        with pytest.raises(TypeError) as unhashable:
            hash(s)
        assert involution_check(s).ok and singularity_profile(s) and extract_skeleton(s)
        assert surfaces_isomorphic(s, twin)
        assert (repr(s), surface_to_json(s), fields(s)) == before
        with pytest.raises(TypeError, match=str(unhashable.value)):
            hash(s)
        assert s == twin and replace(s) == s
        # a new object on the same skeleton keeps nothing yet
        assert pickle.dumps(s) == pickle.dumps(replace(s))
        names = {f.name for f in fields(s)}
        for other in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert other == s and set(vars(other)) == names

    def test_new_objects_lay_out_afresh(self, path3_surface):
        s = path3_surface
        kept = surface._layout(s)
        sheared = replace(s, twists={v: x + F(1, 5) for v, x in s.twists.items()})
        marked = with_marks(s, involution_orbit(s, Mark(2, F(1, 2))))
        for other in (sheared, marked):
            lay = surface._layout(other)
            assert lay is not kept and lay != kept
            assert lay == fraction_layout(other, lay.scale)
        assert surface._layout(sheared).scale == 30
        assert surface._layout(marked).marks == ((2, 3), (3, 6))
        assert surface._layout(s) is kept and kept == fraction_layout(s, 6)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_rescaled_layout_equals_a_fresh_build(self, n):
        # the one kept layout, on the lcm of the surface's own denominators,
        # equals the oracle's on that scale
        for t in enumerate_halftrees(n):
            s = random_metric(t, n)
            marked = with_marks(s, involution_orbit(s, Mark(t.all_ports[0], s.lengths[t.all_ports[0]] / 3)))
            wound = replace(s, twists={v: x - 3 * s.circumference(v) for v, x in s.twists.items()})
            for x in (s, marked, wound):
                values = [*x.lengths.values(), *x.twists.values(), *(m.offset for m in x.marks)]
                D = math.lcm(*(y.denominator for y in values))
                lay = surface._layout(x)
                assert lay.scale == D and lay == fraction_layout(x, D)
                assert surface._layout(x) is lay

    @pytest.mark.parametrize("first", ["involution_check", "extract_skeleton"])
    @pytest.mark.parametrize(
        "raw, failure",
        [
            (raw_path3(lengths=(2, 3, 3, 3)), "top circle of cylinder 0 covers 3 of circumference 2"),
            (raw_path3(marks=(Mark(0, F(1, 3)),)), "cylinder 0: no rotation aligns"),
            (raw_path3(heights=(1, -1, 1)), "cylinder 1 has nonpositive dimensions"),
        ],
    )
    def test_failed_certification_reads_alike_in_either_order(self, first, raw, failure):
        raw = replace(raw)  # nothing kept from other tests
        cert = certify_lowered(replace(raw))

        def extracted() -> str:
            with pytest.raises(MetricError) as exc:
                extract_skeleton(raw)
            return str(exc.value)

        if first == "extract_skeleton":
            message = extracted()
            report = involution_check(raw)
        else:
            report = involution_check(raw)
            message = extracted()
        assert cert.failures[0].startswith(failure)
        assert message == f"surface failed certification: {cert.failures[0]}"
        assert not report.ok and report.failures[: len(cert.failures)] == cert.failures


def stubbed_path(n: int) -> HyperellipticSurface:
    """A path of ``n`` cylinders, each with one self-glued stub."""
    t = stubbed_path_skeleton(n)
    lengths = {p: F(1 + p % 3, 1 + p % 2) for p in t.all_ports}
    for p, q in t.edges():
        lengths[q] = lengths[p]
    heights = {v: F(1, 1 + v % 3) for v in t.vertices}
    return build(t, lengths, heights, {v: F(v % 5, 2) for v in t.vertices})


def test_certification_of_a_deep_path():
    # ten times the default recursion limit: nothing here may recurse per cylinder
    start = time.perf_counter()
    s = stubbed_path(10**4)
    cert = certify_lowered(s)
    assert cert.ok, cert.failures
    assert cert.components == (s,)
    assert extract_skeleton(s) == s.skeleton
    assert weierstrass_points(s).ok
    assert involution_check(s).ok
    assert time.perf_counter() - start < 15


@pytest.mark.parametrize("kind", ["stubbed", "plain"])
def test_canonicalization_of_a_deep_path(kind):
    # ten times the default recursion limit, which stays as it is
    n = 10**4
    start = time.perf_counter()
    if kind == "stubbed":
        t = stubbed_path_skeleton(n)
        tracemalloc.start()
        try:
            cf = canonical_form(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20
        assert (cf.automorphisms, len(cf.encoding), cf.encoding.count("-")) == (1, 3 * n - 2, n)
        s = random_metric(t, 1)
    else:
        t = plain_path_skeleton(n)
        cf = canonical_form(t)
        assert cf.automorphisms == 2
        assert cf.encoding == "(" * (n - 1) + ")" * (n - 1)
        assert canonical_form(cf.relabeled).relabeled == cf.relabeled
        s = random_metric(t, 1)
        coefficients = dict(relative_deformation(s).coefficients)
        assert all(coefficients[v] == (-1) ** v * coefficients[0] for v in t.vertices)
    # canonical_metric on both sides
    assert surfaces_isomorphic(s, s)
    assert time.perf_counter() - start < 20


def broken_tables(gs: oracles.GluedSurface, rng: random.Random):
    """Seeded damage to a valid seam table, one defect per table."""
    sids = sorted(gs.seams)
    sid = rng.choice(sids)
    seam = gs.seams[sid]
    cyl, start = seam.above
    shift = seam.length * F(rng.randint(1, 5), 6)
    yield replace(gs, seams={**gs.seams, sid: replace(seam, above=(cyl, start + shift))})
    cyl, start = seam.below
    yield replace(gs, seams={**gs.seams, sid: replace(seam, below=(cyl, start + shift))})
    other = gs.seams[rng.choice(sids)]
    yield replace(
        gs,
        seams={
            **gs.seams,
            sid: replace(seam, below=other.below),
            other.seam_id: replace(other, below=seam.below),
        },
    )
    yield replace(gs, seams={k: v for k, v in gs.seams.items() if k != sid})
    # a side on a cylinder the table lacks: the circle tables leave it out
    yield replace(gs, seams={**gs.seams, sid: replace(seam, above=(max(gs.cylinders) + 1, seam.above[1]))})
    # a zero-length seam listed first on another seam's start: ties keep table order
    stacked = replace(seam, seam_id=max(sids) + 1, length=F(0))
    yield replace(gs, seams={stacked.seam_id: stacked, **gs.seams})
    for offset in (F(0), seam.length, seam.length + F(1, 3), -F(1, 2)):
        yield replace(gs, marks=gs.marks + ((sid, offset),))
    yield replace(gs, marks=gs.marks + ((max(sids) + 1, F(1, 2)),))
    yield replace(gs, marks=gs.marks + ((sid, seam.length / 3),))
    for length in (F(0), -seam.length):
        yield replace(gs, seams={**gs.seams, sid: replace(seam, length=length)})
    c = rng.choice(sorted(gs.cylinders))
    L, h, drift = gs.cylinders[c]
    for dims in ((L + F(1, 2), h, drift), (L, -h, drift), (L, h, drift + F(1, 5))):
        yield replace(gs, cylinders={**gs.cylinders, c: dims})


class TestGluedCertification:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_roundtrip_is_exact(self, n):
        for t in enumerate_halftrees(n):
            for seed in (0, 1):
                s = random_metric(t, seed)
                gs = oracles.seam_table_fraction(s)
                # the integer layout reproduces the per-port Fraction positions
                assert repr(seam_tables.lift(surface._layout(s), s.heights)) == repr(gs)
                corners = sorted(oracles.corner_classes_fraction(s), key=lambda g: (-len(g), g))
                assert repr(singularity_profile(s).corner_classes) == repr(tuple(corners))
                cert = seam_tables.certify_table(gs)
                assert cert.ok, cert.failures
                assert cert.components == (s,)
                assert repr(cert) == repr(oracles.certify_glued_fraction(gs))
                assert repr(surface._certify(surface._layout(s), s.heights)) == repr(cert)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_marked_surfaces_match_fraction_oracle(self, n):
        for t in enumerate_halftrees(n):
            s = random_metric(t, seed=n)
            rng = random.Random(n)
            marks = []
            for p in rng.sample(t.all_ports, min(2, n)):
                marks.extend(involution_orbit(s, Mark(p, s.lengths[p] * F(rng.randint(1, 6), 7))))
            s = with_marks(s, set(marks))
            gs = oracles.seam_table_fraction(s)
            assert repr(gs.marks) == repr(tuple((m.port, m.offset) for m in s.marks))
            assert repr(seam_tables.lift(surface._layout(s), s.heights)) == repr(gs)
            cert = seam_tables.certify_table(gs)
            assert cert.ok, cert.failures
            assert cert.components == (s,)
            assert repr(cert) == repr(oracles.certify_glued_fraction(gs))
            assert repr(surface._certify(surface._layout(s), s.heights)) == repr(cert)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_broken_tables_match_fraction_oracle(self, n):
        refused = 0
        for t in enumerate_halftrees(n):
            for seed in (0, 1):
                for gs in broken_tables(oracles.seam_table_fraction(random_metric(t, seed)), random.Random(seed)):
                    cert = seam_tables.certify_table(gs)
                    assert repr(cert) == repr(oracles.certify_glued_fraction(gs))
                    refused += not cert.ok
        assert refused > 0

    def test_roundtrip_keeps_marks(self, path3_surface):
        s = with_marks(path3_surface, involution_orbit(path3_surface, Mark(0, F(1, 3))))
        cert = certify_lowered(s)
        assert cert.ok
        assert cert.components[0].marks == s.marks

    def test_involution_table_matches_pairing(self, star3_surface):
        cert = certify_lowered(star3_surface)
        t = star3_surface.skeleton
        for p in t.all_ports:
            q = t.partner(p)
            assert cert.seam_involution[p] == (p if q is None else q)

    def test_corrupted_pairing_names_saddle_pair(self, star3_surface):
        gs = oracles.seam_table_fraction(star3_surface)
        s3, s4 = gs.seams[3], gs.seams[4]
        bad = oracles.GluedSurface(
            gs.cylinders,
            {**gs.seams, 3: replace(s3, below=s4.below), 4: replace(s4, below=s3.below)},
            gs.marks,
        )
        res = seam_tables.certify_table(bad)
        assert not res.ok
        assert "saddle pair (4, 3)" in res.failures[0]

    def test_regluing_into_cycle_fails(self):
        t = HalfTree({0: [0, 1, 2], 1: [3, 4]}, [(1, 3)])
        s = build(
            t,
            {0: F(1), 1: F(2), 2: F(3), 3: F(2), 4: F(1)},
            {0: F(1), 1: F(1)},
            {0: 0, 1: 0},
        )
        gs = oracles.seam_table_fraction(s)
        s0, s4 = gs.seams[0], gs.seams[4]
        bad = oracles.GluedSurface(
            gs.cylinders,
            {**gs.seams, 0: replace(s0, below=s4.below), 4: replace(s4, below=s0.below)},
        )
        res = seam_tables.certify_table(bad)
        assert not res.ok
        assert "cycle" in res.failures[0]

    def test_broken_tiling_fails(self, star3_surface):
        gs = oracles.seam_table_fraction(star3_surface)
        bad = oracles.GluedSurface(
            gs.cylinders, {**gs.seams, 2: replace(gs.seams[2], length=F(7, 2))}, gs.marks
        )
        res = seam_tables.certify_table(bad)
        assert not res.ok
        assert any("circle of cylinder" in f for f in res.failures)

    def test_search_backtracks_to_a_later_alignment(self):
        # rotating the top circle of the centre of a symmetric star makes its
        # least candidate alignment wrong; only the leaves can tell
        t = HalfTree({0: [0, 1, 2], 1: [3], 2: [4], 3: [5]}, [(0, 3), (1, 4), (2, 5)])
        gs = oracles.seam_table_fraction(unit_surface(t))
        turned = {
            sid: replace(sm, below=(0, (sm.below[1] + 1) % 3)) if sm.below[0] == 0 else sm
            for sid, sm in gs.seams.items()
        }
        turned_gs = replace(gs, seams=turned)
        cert = seam_tables.certify_table(turned_gs)
        assert cert.ok, cert.failures
        assert cert.alignments[0] == 1
        assert repr(cert) == repr(oracles.certify_glued_fraction(turned_gs))

    def test_two_components(self):
        sa = build(HalfTree({0: [0]}, []), {0: F(2)}, {0: F(1)}, {0: F(1, 2)})
        sb = build(HalfTree({1: [1]}, []), {1: F(3)}, {1: F(2)}, {1: F(0)})
        ga, gb = oracles.seam_table_fraction(sa), oracles.seam_table_fraction(sb)
        both = oracles.GluedSurface({**ga.cylinders, **gb.cylinders}, {**ga.seams, **gb.seams})
        res = seam_tables.certify_table(both)
        assert res.ok
        assert res.components == (sa, sb)


class TestExtractSkeleton:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_recovers_input_tree(self, n):
        for t in enumerate_halftrees(n):
            assert extract_skeleton(random_metric(t, seed=5)) == t

    def test_metric_independence(self, path3_surface):
        t = path3_surface.skeleton
        for seed in range(4):
            assert extract_skeleton(random_metric(t, seed)) == t

    @pytest.mark.parametrize("n", range(1, 8))
    def test_returns_the_surface_skeleton_itself(self, n):
        # the certified skeleton equals s.skeleton, so its kept canonical form is reused
        for t in enumerate_halftrees(n):
            for seed in (0, 1):
                s = random_metric(t, seed)
                assert extract_skeleton(s) is s.skeleton
                assert canonical_form(extract_skeleton(s)) is canonical_form(s.skeleton)

    @pytest.mark.parametrize(
        "raw",
        [
            raw_path3(lengths=(2, 3, 3, 3)),
            raw_path3(marks=(Mark(0, F(1, 3)),)),
            raw_path3(heights=(1, -1, 1)),
        ],
    )
    def test_tampered_raw_surface_still_raises(self, raw):
        with pytest.raises(MetricError, match="surface failed certification"):
            extract_skeleton(raw)


class TestIsomorphism:
    def test_rotation_with_twist_correction(self, path3_surface):
        s = path3_surface
        rot = HalfTree({0: [0], 1: [2, 1], 2: [3]}, [(0, 1), (2, 3)])
        shifted = (s.twists[1] + 2 * s.lengths[1]) % s.circumference(1)
        r = build(rot, s.lengths, s.heights, {0: s.twists[0], 1: shifted, 2: s.twists[2]})
        assert surfaces_isomorphic(s, r)

    def test_rotation_without_correction_differs(self, path3_surface):
        s = path3_surface
        rot = HalfTree({0: [0], 1: [2, 1], 2: [3]}, [(0, 1), (2, 3)])
        r = build(rot, s.lengths, s.heights, s.twists)
        assert not surfaces_isomorphic(s, r)

    def test_relabeling_is_isomorphism(self, path3_surface):
        s = path3_surface
        # vertex map 0->2, 1->1, 2->0 and port map 0->0, 1->2, 2->1, 3->3;
        # the middle vertex's list comes out rotated, so its twist shifts by
        # twice the length walked past the origin
        t = HalfTree({0: [3], 1: [1, 2], 2: [0]}, [(3, 1), (2, 0)])
        mid_twist = (s.twists[1] + 2 * s.lengths[1]) % s.circumference(1)
        r = build(
            t,
            {0: s.lengths[0], 2: s.lengths[1], 1: s.lengths[2], 3: s.lengths[3]},
            {0: s.heights[2], 1: s.heights[1], 2: s.heights[0]},
            {0: s.twists[2], 1: mid_twist, 2: s.twists[0]},
        )
        assert surfaces_isomorphic(s, r)

    def test_metric_difference_detected(self, path3_surface):
        s = path3_surface
        other = build(
            s.skeleton, s.lengths, {**s.heights, 0: s.heights[0] + 1}, s.twists
        )
        assert not surfaces_isomorphic(s, other)

    def test_marks_distinguish(self, path3_surface):
        marked = with_marks(path3_surface, involution_orbit(path3_surface, Mark(0, F(1, 2))))
        assert not surfaces_isomorphic(path3_surface, marked)
        assert surfaces_isomorphic(path3_surface, replace(marked, marks=()))

    def test_canonical_metric_stable(self, path3_surface):
        assert canonical_metric(path3_surface) == canonical_metric(path3_surface)

    @settings(max_examples=30, deadline=None)
    @given(
        num=st.integers(1, 9),
        den=st.integers(1, 9),
        twist_num=st.integers(-20, 20),
    )
    def test_twist_normalization_never_escapes_range(self, num, den, twist_num):
        s = build(one_vertex(1), {0: F(num, den)}, {0: F(1)}, {0: F(twist_num, den)})
        assert 0 <= s.twists[0] < F(num, den)
        assert (s.twists[0] - F(twist_num, den)) % F(num, den) == 0


class TestCanonicalMetricAgainstReference:
    """The integer ``canonical_metric`` equals the ``Fraction`` one, by ``repr``."""

    @staticmethod
    def presentations(t: HalfTree, seed: int):
        rng = random.Random(f"{seed}:{t!r}")
        s = random_metric(t, seed)
        marks = []
        for p in rng.sample(t.all_ports, min(2, t.n_ports)):
            marks.extend(involution_orbit(s, Mark(p, s.lengths[p] * F(rng.randint(1, 6), 7))))
        # a raw presentation may carry twists outside [0, L), negative or whole turns on
        turns = {v: rng.choice((-2, -1, 1, 3)) for v in t.vertices}
        wound = replace(s, twists={v: x + turns[v] * s.circumference(v) for v, x in s.twists.items()})
        return s, with_marks(s, set(marks)), wound, random_metric(relabel(t, rng), seed)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_class_plain_marked_and_wound(self, n):
        for t in enumerate_halftrees(n):
            for seed in (0, 1):
                for s in self.presentations(t, seed):
                    assert repr(canonical_metric(s)) == repr(oracles.canonical_metric_fraction(s)), s


class TestSurfaceSerialization:
    def test_roundtrip(self, path3_surface):
        marked = with_marks(path3_surface, involution_orbit(path3_surface, Mark(0, F(1, 3))))
        data = json.loads(json.dumps(surface_to_json(marked), sort_keys=True))
        assert surface_from_json(data) == marked

    def test_fraction_strings(self):
        assert fraction_to_string(F(3, 4)) == "3/4"
        assert fraction_to_string(F(5)) == "5"
        assert fraction_from_string("3/4") == F(3, 4)
        assert fraction_from_string("5") == F(5)
        assert fraction_from_string(5) == F(5)
        with pytest.raises(MetricError, match="bad rational"):
            fraction_from_string("1/0")
        with pytest.raises(MetricError, match="rational value"):
            fraction_from_string(0.5)

    def test_missing_sections_rejected(self, path3_surface):
        data = surface_to_json(path3_surface)
        for key in ("lengths", "heights", "twists"):
            broken = {k: v for k, v in data.items() if k != key}
            with pytest.raises(MetricError, match=key):
                surface_from_json(broken)
        with pytest.raises(MetricError, match="must be an object"):
            surface_from_json([data])

    def test_fractional_mark_port_rejected(self, path3_surface):
        # int() would truncate 1.5 to port 1
        data = {**surface_to_json(path3_surface), "marks": [{"port": 1.5, "offset": "1/2"}]}
        with pytest.raises(MetricError, match="not an integer"):
            surface_from_json(data)

    def test_dot_output(self, path3_surface):
        dot = surface_to_dot(path3_surface)
        assert dot.startswith("graph surface {")
        assert "shape=record" in dot
        assert "len=2" in dot and "h=1/2" in dot
        # the top boundary row reverses the bottom one
        assert "{<t2> 2 | <t1> 1}" in dot
        # each seam joins a bottom label to its partner's top label
        assert "v0:b0 -- v1:t1;" in dot
