"""Degeneration procedures: saddle shrinking and cylinder deletion."""

import functools
import itertools
import random
import time
from fractions import Fraction

import oracles
import pytest
import seam_tables
from test_halftree import path as path_skeleton

import flattree.collapse
import flattree.surface

from flattree import (
    CollapseError,
    DeformError,
    DisjointSurface,
    FlowError,
    HalfTree,
    HyperellipticSurface,
    Mark,
    SaddlePartition,
    area,
    build,
    canonical_form,
    certify_hyperelliptic,
    enumerate_halftrees,
    horizontal_collapse,
    random_metric,
    singleton_partitions,
    singularity_profile,
    standard_position,
    involution_orbit,
    vertical_collapse,
    with_marks,
)

F = Fraction


@pytest.fixture
def path3():
    """Plain three-cylinder chain, two zeros of order one."""
    t = HalfTree({0: [0], 1: [1, 2], 2: [3]}, [(0, 1), (2, 3)])
    lengths = {0: F(2), 1: F(2), 2: F(1), 3: F(1)}
    heights = {0: F(1), 1: F(1, 2), 2: F(3)}
    twists = {0: F(0), 1: F(0), 2: F(0)}
    return build(t, lengths, heights, twists)


@pytest.fixture
def horned_path3():
    """Chain whose leaves carry a self-glued saddle each."""
    t = HalfTree({0: [0, 1], 1: [2, 3], 2: [4, 5]}, [(1, 2), (3, 4)])
    lengths = {0: F(1), 1: F(2), 2: F(2), 3: F(3), 4: F(3), 5: F(1, 2)}
    heights = {0: F(1), 1: F(2), 2: F(1)}
    twists = {0: F(0), 1: F(1), 2: F(0)}
    return build(t, lengths, heights, twists)


def full_edge_class_containing(s, port):
    """Singleton partition of the edges, then merge nothing: locate the class index."""
    sp = singleton_partitions(s.skeleton)[1]
    key = s.skeleton.edge_object_of(port)[0]
    return sp, [F(1) if key in g else F(0) for g in sp.classes]


def full_edge_collapses(s):
    """Singleton saddle classes; each full-edge class alone at proportion 1 and 1/2."""
    sp = singleton_partitions(s.skeleton)[1]
    for key in (g[0] for g in sp.classes if s.skeleton.partner(g[0]) is not None):
        for p in (F(1), F(1, 2)):
            yield sp, [p if g[0] == key else F(0) for g in sp.classes]


def assert_matches_per_component_reference(s, sp, props):
    want = oracles.vertical_collapse_per_component(s, sp, props)
    try:
        got = vertical_collapse(s, sp, props)
    except CollapseError as exc:
        assert "nothing survives" in str(exc) and want["components"] == ()
        return
    assert got.certification.ok
    assert repr(got.surfaces.components) == repr(want["components"])
    for field in ("notices", "dropped_cylinders", "deleted_edges"):
        assert getattr(got, field) == want[field], field
    for field in ("area_before", "area_after", "collapsed_area"):
        assert getattr(got, field) == want[field], field


class TestCertifyHyperelliptic:
    def test_any_built_surface_passes(self, path3):
        assert certify_hyperelliptic(path3).ok

    def test_disjoint_union_concatenates(self, path3, horned_path3):
        d = DisjointSurface((path3, horned_path3), ())
        res = certify_hyperelliptic(d)
        assert res.ok
        assert len(res.components) == 2

    def test_cycle_diagram_fails(self):
        # two cylinders glued to each other along both their circles
        Seam = oracles.Seam
        seams = {
            0: Seam(0, (0, F(0)), (1, F(0)), F(1)),
            1: Seam(1, (0, F(1)), (1, F(1)), F(1)),
            2: Seam(2, (1, F(0)), (0, F(0)), F(1)),
            3: Seam(3, (1, F(1)), (0, F(1)), F(1)),
        }
        gs = oracles.GluedSurface({0: (F(2), F(1), F(0)), 1: (F(2), F(1), F(0))}, seams, ())
        res = seam_tables.certify_table(gs)
        assert not res.ok
        assert repr(res) == repr(oracles.certify_glued_fraction(gs))

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            certify_hyperelliptic(42)


class TestVerticalCollapse:
    @pytest.mark.parametrize(
        "classes, proportions, message",
        [
            ([[0], [0, 1]], [F(1, 2), F(0)], "saddle classes overlap"),
            ([[0], [], [1]], [F(1, 2), F(0), F(0)], "empty saddle class"),
        ],
        ids=["overlap", "empty"],
    )
    def test_saddle_classes_must_partition_the_edges(self, classes, proportions, message):
        # the overlapping pair used to certify with the 1/2 overwritten by the 0
        s = random_metric(HalfTree({0: [0, 1], 1: [2], 2: [3]}, [(0, 2), (1, 3)]), 1)
        with pytest.raises(DeformError, match=message):
            vertical_collapse(s, SaddlePartition.of(classes), proportions)

    @pytest.mark.parametrize("proportions", [{0: F(0)}, [F(0)]], ids=["mapping", "sequence"])
    def test_missing_proportion_names_its_class(self, proportions):
        # these used to raise a bare KeyError: 1 and IndexError
        t = next(t for t in enumerate_halftrees(3) if len(t.vertices) == 2)
        sp = singleton_partitions(t)[1]
        assert len(sp.classes) == 2
        with pytest.raises(CollapseError, match="no proportion for saddle class 1$"):
            vertical_collapse(random_metric(t, 1), sp, proportions)

    def test_all_zero_is_identity(self, path3):
        sp = singleton_partitions(path3.skeleton)[1]
        res = vertical_collapse(path3, sp, [F(0)] * len(sp.classes))
        assert len(res.surfaces.components) == 1
        assert res.surfaces.components[0] == path3
        assert res.collapsed_area == 0

    def test_half_proportion_rescales_one_class(self, path3):
        sp, props = full_edge_class_containing(path3, 0)
        props = [F(1, 2) if p == 1 else F(0) for p in props]
        res = vertical_collapse(path3, sp, props)
        (out,) = res.surfaces.components
        assert canonical_form(out.skeleton).encoding == canonical_form(path3.skeleton).encoding
        assert out.lengths[0] == F(1) and out.lengths[1] == F(1)
        assert out.lengths[2] == path3.lengths[2]
        assert out.heights == path3.heights

    def test_full_collapse_splits_into_subtrees(self, horned_path3):
        sp, props = full_edge_class_containing(horned_path3, 1)
        res = vertical_collapse(horned_path3, sp, props)
        comps = res.surfaces.components
        assert len(comps) == 2
        assert [sorted(c.skeleton.vertices) for c in comps] == [[0], [1, 2]]
        assert comps[0].skeleton.half_edge_ports() == (0,)
        assert set(comps[1].skeleton.all_ports) == {3, 4, 5}
        assert res.certification.ok
        assert not res.dropped_cylinders

    def test_bare_leaf_drops_to_a_point(self, path3):
        sp, props = full_edge_class_containing(path3, 0)
        res = vertical_collapse(path3, sp, props)
        assert res.dropped_cylinders == (0,)
        assert any("collapsed to a point" in n for n in res.notices)
        assert [sorted(c.skeleton.vertices) for c in res.surfaces.components] == [[1, 2]]

    def test_area_accounting_is_exact(self, horned_path3):
        sp, props = full_edge_class_containing(horned_path3, 1)
        res = vertical_collapse(horned_path3, sp, props)
        assert res.area_before == area(horned_path3)
        assert res.area_before == res.area_after + res.collapsed_area
        # the vanished edge had length 2 and borders cylinders 0 and 1
        lost = F(2) * horned_path3.heights[0] + F(2) * horned_path3.heights[1]
        assert res.collapsed_area == lost

    def test_half_edge_class_cannot_vanish(self, horned_path3):
        sp, props = full_edge_class_containing(horned_path3, 0)
        with pytest.raises(CollapseError, match="self-glued"):
            vertical_collapse(horned_path3, sp, props)

    def test_nothing_surviving_is_an_error(self):
        t = HalfTree({0: [0], 1: [1]}, [(0, 1)])
        s = build(t, {0: F(1), 1: F(1)}, {0: F(1), 1: F(1)}, {0: F(0), 1: F(0)})
        sp = singleton_partitions(t)[1]
        with pytest.raises(CollapseError, match="nothing survives"):
            vertical_collapse(s, sp, [F(1)])

    def test_proportion_out_of_range(self, path3):
        sp = singleton_partitions(path3.skeleton)[1]
        with pytest.raises(CollapseError, match="outside"):
            vertical_collapse(path3, sp, [F(2), F(0)])

    def test_marks_scale_with_their_saddle(self, path3):
        s = with_marks(path3, involution_orbit(path3, Mark(0, F(1, 2))))
        sp, props = full_edge_class_containing(s, 0)
        props = [p / 2 for p in props]
        res = vertical_collapse(s, sp, props)
        (out,) = res.surfaces.components
        assert Mark(0, F(1, 4)) in out.marks
        assert Mark(1, F(3, 4)) in out.marks

    def test_marks_on_deleted_saddle_dropped_with_notice(self, path3):
        s = with_marks(path3, involution_orbit(path3, Mark(0, F(1, 2))))
        sp, props = full_edge_class_containing(s, 0)
        res = vertical_collapse(s, sp, props)
        assert all(not c.marks for c in res.surfaces.components)
        assert sum("dropped" in n and "mark" in n for n in res.notices) == 2

    @pytest.mark.parametrize("n", range(2, 6))
    def test_components_match_predicted_subtrees(self, n):
        for t in enumerate_halftrees(n):
            edges = t.edges()
            if not edges:
                continue
            s = random_metric(t, seed=n)
            sp = singleton_partitions(t)[1]
            target = t.edge_object_of(edges[0][0])[0]
            props = [F(1) if g[0] == target else F(0) for g in sp.classes]
            try:
                res = vertical_collapse(s, sp, props)
            except CollapseError as exc:
                assert "nothing survives" in str(exc)
                continue
            assert res.certification.ok
            # predicted components: flood fill over the surviving edges
            kept = [e for e in edges if t.edge_object_of(e[0])[0] != target]
            reach = {v: {v} for v in t.vertices}
            for p, q in kept:
                a, b = t.vertex_of(p), t.vertex_of(q)
                merged = reach[a] | reach[b]
                for v in merged:
                    reach[v] = merged
            predicted = {frozenset(g) for g in reach.values()}
            survivors = {
                frozenset(c.skeleton.vertices) for c in res.surfaces.components
            }
            for group in survivors:
                assert group in predicted


    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_per_component_reference(self, n):
        for t in enumerate_halftrees(n):
            for seed in (0, 1):
                s = random_metric(t, seed)
                for sp, props in full_edge_collapses(s):
                    assert_matches_per_component_reference(s, sp, props)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_marked_surfaces_match_per_component_reference(self, n):
        for t in enumerate_halftrees(n):
            s = random_metric(t, seed=n)
            rng = random.Random(n)
            marks = []
            for p in rng.sample(t.all_ports, 2):
                marks.extend(involution_orbit(s, Mark(p, s.lengths[p] * F(rng.randint(1, 6), 7))))
            s = with_marks(s, set(marks))
            for sp, props in full_edge_collapses(s):
                assert_matches_per_component_reference(s, sp, props)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_mixed_denominators_match_per_component_reference(self, n):
        # several classes shrink at once, so the kept layout is scaled by lcm(3, 5, 4)
        shares = (F(1, 3), F(2, 5), F(3, 4), F(1))
        for t in enumerate_halftrees(n):
            sp = singleton_partitions(t)[1]
            for seed in (0, 1):
                s = random_metric(t, seed)
                rng = random.Random(f"{seed}:{t!r}")
                p = rng.choice(t.all_ports)
                marked = with_marks(s, involution_orbit(s, Mark(p, s.lengths[p] * F(rng.randint(1, 6), 7))))
                for k in range(len(shares)):
                    # a self-glued saddle never reaches 1
                    props = [
                        shares[(i + k) % (4 if t.partner(g[0]) is not None else 3)]
                        for i, g in enumerate(sp.classes)
                    ]
                    for x in (s, marked):
                        assert_matches_per_component_reference(x, sp, props)

    def test_one_layout_and_one_build_per_component(self, monkeypatch, horned_path3):
        layouts, builds = [], []
        layout, build_ = flattree.surface._new_layout, flattree.surface.build

        def counted_layout(*args):
            layouts.append(args)
            return layout(*args)

        def counted_build(*args):
            builds.append(args)
            return build_(*args)

        monkeypatch.setattr(flattree.surface, "_new_layout", counted_layout)
        monkeypatch.setattr(flattree.surface, "build", counted_build)
        sp, props = full_edge_class_containing(horned_path3, 1)
        res = vertical_collapse(horned_path3, sp, props)
        assert len(res.surfaces.components) == 2
        assert len(layouts) == 1
        assert len(builds) == 2

    def test_warm_layout_means_no_new_layout_and_no_forest_surface(self, monkeypatch, horned_path3):
        # the forest is a layout scaled from the kept one; only components are surfaces
        layouts, surfaces = [], []
        layout, init = flattree.surface._new_layout, HyperellipticSurface.__init__

        def counted_layout(*args):
            layouts.append(args)
            return layout(*args)

        def counted_init(self, *args, **kwargs):
            surfaces.append(args)
            init(self, *args, **kwargs)

        sp = singleton_partitions(horned_path3.skeleton)[1]
        marked = with_marks(horned_path3, [Mark(3, F(1)), Mark(4, F(2))])
        cases = [(horned_path3, *full_edge_class_containing(horned_path3, 1))]
        cases.append((marked, sp, [F(1, 3), F(2, 5), F(3, 4), F(1, 2)]))
        for s, _, _ in cases:
            flattree.surface._layout(s)
        monkeypatch.setattr(flattree.surface, "_new_layout", counted_layout)
        monkeypatch.setattr(HyperellipticSurface, "__init__", counted_init)
        for s, sp, props in cases:
            surfaces.clear()
            res = vertical_collapse(s, sp, props)
            assert res.certification.ok
            assert layouts == []
            assert len(surfaces) == len(res.surfaces.components)
        assert len(res.surfaces.components) == 1 and res.surfaces.components[0].marks

    def test_exact_proportions_are_taken_as_given(self, monkeypatch, horned_path3):
        made = []

        class Counting(F):
            def __new__(cls, *args, **kwargs):
                made.append(args)
                return F(*args, **kwargs)

        monkeypatch.setattr(flattree.collapse, "Fraction", Counting)
        sp = singleton_partitions(horned_path3.skeleton)[1]
        res = vertical_collapse(horned_path3, sp, [F(1, 3), F(2, 5), F(3, 4), F(1, 2)])
        assert made == []
        # ints and strings are still read exactly
        assert repr(vertical_collapse(horned_path3, sp, ["1/3", "2/5", F(3, 4), F(1, 2)])) == repr(res)
        assert repr(vertical_collapse(horned_path3, sp, [0, 0, 0, 0])) == repr(
            vertical_collapse(horned_path3, sp, [F(0)] * 4)
        )


class TestHorizontalCollapse:
    def test_middle_deletion_joins_the_outer_cylinders(self, path3):
        res = horizontal_collapse(path3, {1})
        assert len(res.surfaces.components) == 1
        (out,) = res.surfaces.components
        assert sorted(out.skeleton.vertices) == [0, 2]
        assert singularity_profile(out).orders == (2,)
        assert res.certification.ok

    def test_area_drops_by_the_deleted_cylinder(self, path3):
        res = horizontal_collapse(path3, {1})
        middle = path3.circumference(1) * path3.heights[1]
        assert res.deleted_area == middle
        assert res.area_before == res.area_after + middle

    def test_junction_kinds(self, path3):
        res = horizontal_collapse(path3, {1})
        kinds = {x: kind for _, x, kind in res.junctions}
        assert kinds == {F(0): "both", F(1): "top", F(2): "bottom"}

    def test_forest_report_shape(self, path3):
        res = horizontal_collapse(path3, {1})
        (report,) = res.forests
        assert report.is_forest
        assert len(report.edges) == 1
        assert len(report.half_edge_strips) == 1

    def test_twist_can_split_the_surface(self, path3):
        shifted = build(
            path3.skeleton,
            path3.lengths,
            path3.heights,
            {0: F(0), 1: F(1), 2: F(0)},
        )
        res = horizontal_collapse(shifted, {1})
        assert len(res.surfaces.components) == 2
        for out in res.surfaces.components:
            assert singularity_profile(out).orders == (0,)
        assert res.certification.ok

    def test_leaf_deletion(self, path3):
        res = horizontal_collapse(path3, {0})
        assert len(res.surfaces.components) == 1
        (out,) = res.surfaces.components
        assert singularity_profile(out).orders == (2,)
        assert not out.marks

    def test_adjacent_pair_rejected(self, path3):
        with pytest.raises(CollapseError, match="self-adjacent"):
            horizontal_collapse(path3, {0, 1})

    def test_self_glued_member_rejected(self, horned_path3):
        with pytest.raises(CollapseError, match="glued to itself"):
            horizontal_collapse(horned_path3, {0})

    def test_complement_must_be_nonempty(self, path3):
        with pytest.raises(CollapseError, match="every cylinder"):
            horizontal_collapse(path3, {0, 1, 2})

    def test_empty_set_rejected(self, path3):
        with pytest.raises(CollapseError, match="nothing to delete"):
            horizontal_collapse(path3, set())

    def test_unknown_cylinder_rejected(self, path3):
        with pytest.raises(CollapseError, match="no cylinder 7"):
            horizontal_collapse(path3, {7})

    def test_missing_vertical_saddle_asks_for_a_shear(self, path3):
        sheared = build(
            path3.skeleton,
            path3.lengths,
            path3.heights,
            {0: F(0), 1: F(1, 7), 2: F(0)},
        )
        with pytest.raises(CollapseError, match="shear first"):
            horizontal_collapse(sheared, {1})

    def test_marks_ride_through_the_regluing(self, path3):
        s = with_marks(path3, involution_orbit(path3, Mark(0, F(1, 4))))
        res = horizontal_collapse(s, {1})
        (out,) = res.surfaces.components
        assert len(out.marks) == 2
        assert res.certification.ok

    def test_vertically_aligned_marks_merge(self, path3):
        # with twist zero, a mark and its involution partner share a vertical
        # line through the middle cylinder; after deletion they are one point
        s = with_marks(path3, involution_orbit(path3, Mark(0, F(1, 2))))
        res = horizontal_collapse(s, {1})
        (out,) = res.surfaces.components
        assert len(out.marks) == 1
        half_edge = out.skeleton.half_edge_ports()[0]
        assert out.marks[0].port == half_edge
        assert res.certification.ok

    def test_mark_on_junction_merges_with_the_zero(self, path3):
        s = with_marks(path3, involution_orbit(path3, Mark(0, F(1))))
        res = horizontal_collapse(s, {1})
        (out,) = res.surfaces.components
        assert not out.marks
        assert sum("merged into a junction" in n for n in res.notices) == 2

    def test_gluing_records_cover_the_deleted_circles(self, path3):
        res = horizontal_collapse(path3, {1})
        assert sum(g.length for g in res.gluings) == path3.circumference(1)
        assert all(g.deleted == 1 for g in res.gluings)

    def test_one_layout_and_no_seam_table(self, monkeypatch, path3):
        layouts = []
        layout = flattree.collapse._layout

        def counted(*args):
            layouts.append(args)
            return layout(*args)

        monkeypatch.setattr(flattree.collapse, "_layout", counted)
        s = with_marks(path3, involution_orbit(path3, Mark(0, F(1, 4))))
        res = horizontal_collapse(s, {1})
        assert res.certification.ok
        assert len(layouts) == 1
        # the result keeps its reglued integer layout, out of its repr and ==
        assert "_reglued" not in repr(res)
        table = seam_tables.lift(res._reglued, s.heights)
        assert repr(table) == repr(oracles.horizontal_collapse_fraction(s, {1})[1])

    @pytest.mark.parametrize("n", range(2, 6))
    def test_single_deletions_always_certify(self, n):
        for t in enumerate_halftrees(n):
            if len(t.vertices) < 2:
                continue
            for c in t.vertices:
                if any(t.partner(p) is None for p in t.ports(c)):
                    continue
                s = random_metric(t, seed=n)
                # align the first bottom corner with a boundary corner above
                p0 = t.ports(c)[0]
                L = s.circumference(c)
                aligned = (L - s.port_start(p0) - s.lengths[p0]) % L
                s = build(
                    t,
                    s.lengths,
                    s.heights,
                    {**s.twists, c: aligned},
                    s.marks,
                )
                res = horizontal_collapse(s, {c})
                assert res.certification.ok
                assert all(f.is_forest for f in res.forests)
                assert res.area_before == res.area_after + res.deleted_area


def reference_sweep_surfaces(n):
    """Every ``n``-port class x seeds 0-1, plain and marked, as is and in standard position.

    Each surface comes once as drawn and once per full edge aligned by
    :func:`standard_position`, where that edge carries no mark.
    """
    for t in enumerate_halftrees(n):
        for seed in (0, 1):
            s = random_metric(t, seed)
            rng = random.Random(seed)
            marks = set()
            for p in rng.sample(t.all_ports, min(2, n)):
                marks.update(involution_orbit(s, Mark(p, s.lengths[p] * F(rng.randint(1, 6), 7))))
            for plain_or_marked in (s, with_marks(s, marks)):
                yield plain_or_marked
                for p, _ in t.edges():
                    try:
                        yield standard_position(plain_or_marked, p).surface
                    except FlowError:
                        pass


def lifted_collapse(s, delete) -> tuple:
    """``horizontal_collapse`` and its reglued layout lifted to a ``Fraction`` seam table."""
    res = horizontal_collapse(s, delete)
    return res, seam_tables.lift(res._reglued, s.heights)


def collapse_outcome(collapse, s, delete) -> tuple:
    """("result", repr, (result, table)) of an accepted collapse, ("refused", message, None) of a refused one.

    ``collapse`` returns the result and its reglued seam table, and the repr
    covers both: the result's own repr leaves the table out.
    """
    try:
        res, table = collapse(s, delete)
    except CollapseError as exc:
        return "refused", str(exc), None
    return "result", repr((res, table)), (res, table)


@functools.cache
def reference_sweep(n):
    """Per sweep surface and every single and pair deletion: the collapse and its reference."""
    cases = []
    for s in reference_sweep_surfaces(n):
        vertices = s.skeleton.vertices
        for delete in [(c,) for c in vertices] + list(itertools.combinations(vertices, 2)):
            got = collapse_outcome(lifted_collapse, s, delete)
            want = collapse_outcome(oracles.horizontal_collapse_fraction, s, delete)
            cases.append((f"{s!r} - {delete}", got, want))
    return cases


class TestHorizontalCollapseReference:
    """The integer collapse agrees with the ``Fraction`` seam-table reference."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_results_match_by_repr(self, n):
        accepted = [case for case in reference_sweep(n) if case[2][0] == "result"]
        assert accepted or n == 1
        for name, got, want in accepted:
            assert got[:2] == want[:2], name

    @pytest.mark.parametrize("n", range(1, 9))
    def test_refusal_messages_match(self, n):
        refused = [case for case in reference_sweep(n) if case[2][0] == "refused"]
        assert refused
        for name, got, want in refused:
            assert got[:2] == want[:2], name

    def test_sweep_reaches_marked_and_split_results(self):
        results = [got[2] for n in (6, 7) for _, got, _ in reference_sweep(n) if got[2]]
        assert any(table.marks for _, table in results)
        assert any(len(r.surfaces.components) > 1 for r, _ in results)

    def test_deep_path_every_other_cylinder(self):
        # ten times the default recursion limit; a seam scan per deleted cylinder is quadratic
        n = 10**4
        s = standard_position(random_metric(path_skeleton(n), 1), 0).surface
        start = time.perf_counter()
        res = horizontal_collapse(s, range(1, n, 2))
        elapsed = time.perf_counter() - start
        assert res.certification.ok
        assert len(res.forests) == n // 2 and all(f.is_forest for f in res.forests)
        assert res.area_before == res.area_after + res.deleted_area
        assert elapsed < 4


class TestReports:
    def test_vertical_report_is_json_ready(self, horned_path3):
        import json

        from flattree import vertical_collapse_report

        sp, props = full_edge_class_containing(horned_path3, 1)
        res = vertical_collapse(horned_path3, sp, props)
        doc = vertical_collapse_report(res)
        assert json.dumps(doc)
        assert doc["certified"] is True
        assert doc["area"]["before"] == "33/2"

    def test_horizontal_report_is_json_ready(self, path3):
        import json

        from flattree import horizontal_collapse_report

        res = horizontal_collapse(path3, {1})
        doc = horizontal_collapse_report(res)
        assert json.dumps(doc)
        assert doc["deleted_cylinders"] == [1]
        assert len(doc["gluings"]) == 3
        assert doc["certified"] is True
