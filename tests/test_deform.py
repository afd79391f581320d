"""Shears, dilations, formal cochains, candidate partition checking."""

import random
import time
from fractions import Fraction as F

import oracles
import pytest
from test_halftree import path as plain_path_skeleton
from test_halftree import random_halftree

from flattree import (
    CandidateReport,
    CylinderPartition,
    DeformError,
    FormalCochain,
    HalfTree,
    SaddlePartition,
    area,
    bipartition,
    build,
    builtin_blueprints,
    check_candidate,
    cochain_to_json,
    dilate_class,
    dilate_saddle_class,
    enumerate_halftrees,
    extract_skeleton,
    fiber_partitions,
    partitions_from_json,
    partitions_to_json,
    pullback,
    random_metric,
    relative_deformation,
    relative_flow,
    shear_class,
    singleton_partitions,
    singularity_profile,
    standard_position,
    standard_shear,
)
from flattree import deform


@pytest.fixture
def path3_surface():
    t = HalfTree({0: [0], 1: [1, 2], 2: [3]}, [(0, 1), (2, 3)])
    return build(
        t,
        {0: F(2), 1: F(2), 2: F(3, 2), 3: F(3, 2)},
        {0: F(1), 1: F(2), 2: F(1)},
        {0: F(1, 3), 1: F(0), 2: F(1)},
    )


def torus():
    return build(HalfTree({0: [0]}, []), {0: F(1)}, {0: F(1)}, {0: F(0)})


class TestShearClass:
    def test_zero_amount_is_identity(self, path3_surface):
        assert shear_class(path3_surface, [0, 1, 2], 0) == path3_surface

    def test_full_dehn_twist_is_identity(self):
        s = torus()
        assert shear_class(s, [0], 1) == s

    def test_twist_moves_by_height_times_amount(self, path3_surface):
        s = shear_class(path3_surface, [1], F(1, 4))
        assert s.twists[1] == (path3_surface.twists[1] + F(1, 4) * 2) % F(7, 2)
        assert s.twists[0] == path3_surface.twists[0]

    def test_reproduces_standard_position(self, path3_surface):
        std = standard_position(path3_surface, 0)
        s = shear_class(path3_surface, [0], std.deltas[0] / path3_surface.heights[0])
        s = shear_class(s, [1], std.deltas[1] / path3_surface.heights[1])
        assert s == std.surface

    def test_unknown_cylinder(self, path3_surface):
        with pytest.raises(DeformError, match="no cylinder"):
            shear_class(path3_surface, [9], 1)

    def test_combinatorics_untouched(self, path3_surface):
        s = shear_class(path3_surface, [0, 2], F(5, 7))
        assert singularity_profile(s).orders == singularity_profile(path3_surface).orders
        assert extract_skeleton(s) == path3_surface.skeleton


class TestDilateClass:
    def test_unit_factor_is_identity(self, path3_surface):
        assert dilate_class(path3_surface, [0, 1, 2], 1) == path3_surface

    def test_global_dilation_doubles_area(self, path3_surface):
        assert area(dilate_class(path3_surface, [0, 1, 2], 2)) == 2 * area(path3_surface)

    def test_single_class_bookkeeping(self, path3_surface):
        s = dilate_class(path3_surface, [1], 3)
        contribution = path3_surface.circumference(1) * path3_surface.heights[1]
        assert area(s) == area(path3_surface) + 2 * contribution

    def test_nonpositive_factor(self, path3_surface):
        with pytest.raises(DeformError, match="positive"):
            dilate_class(path3_surface, [0], 0)

    def test_combinatorics_untouched(self, path3_surface):
        s = dilate_class(path3_surface, [1], F(7, 2))
        assert singularity_profile(s).orders == singularity_profile(path3_surface).orders
        assert extract_skeleton(s) == path3_surface.skeleton


class TestDilateSaddleClass:
    def test_unit_factor_is_identity(self, path3_surface):
        assert dilate_saddle_class(path3_surface, [0], 1) == path3_surface

    def test_half_edge_rescale(self):
        t = HalfTree({0: [0, 1, 2]}, [])
        s = build(t, {p: F(1) for p in range(3)}, {0: F(1)}, {0: F(0)})
        out = dilate_saddle_class(s, [0], 2)
        assert out.lengths == {0: F(2), 1: F(1), 2: F(1)}
        assert area(out) == 4

    def test_edge_ports_scale_together(self, path3_surface):
        out = dilate_saddle_class(path3_surface, [0], F(1, 2))
        assert out.lengths[0] == out.lengths[1] == F(1)
        assert out.lengths[2] == path3_surface.lengths[2]

    def test_inverse_composition(self, path3_surface):
        out = dilate_saddle_class(path3_surface, [2], F(5, 3))
        back = dilate_saddle_class(out, [2], F(3, 5))
        assert back == path3_surface

    def test_unequal_lengths_rejected(self, path3_surface):
        with pytest.raises(DeformError, match="unequal lengths"):
            dilate_saddle_class(path3_surface, [0, 2], 2)

    def test_unknown_saddle(self, path3_surface):
        with pytest.raises(DeformError, match="no saddle"):
            dilate_saddle_class(path3_surface, [11], 2)

    def test_twists_renormalized(self):
        s = build(HalfTree({0: [0]}, []), {0: F(2)}, {0: F(1)}, {0: F(3, 2)})
        out = dilate_saddle_class(s, [0], F(1, 2))
        assert out.circumference(0) == 1
        assert out.twists[0] == F(1, 2)


class TestStandardShear:
    def test_singleton_unit(self):
        c = standard_shear(torus(), [0])
        assert c.coefficients == ((0, F(1)),)

    def test_three_path_heights(self, path3_surface):
        c = standard_shear(path3_surface, [0, 1, 2])
        assert c.coefficients == ((0, F(1)), (1, F(2)), (2, F(1)))

    def test_additive_over_disjoint_classes(self, path3_surface):
        total = standard_shear(path3_surface, [0, 1, 2])
        parts = standard_shear(path3_surface, [0, 2]) + standard_shear(path3_surface, [1])
        assert parts == total

    def test_empty_class_rejected(self, path3_surface):
        with pytest.raises(DeformError, match="empty class"):
            standard_shear(path3_surface, [])

    def test_evaluation_signs(self, path3_surface):
        c = standard_shear(path3_surface, [0, 1])
        assert c.evaluate([(0, 1), (1, -1)]) == F(1) - F(2)
        assert c.evaluate([(2, 1)]) == 0


class TestRelativeDeformation:
    def test_three_path_alternates(self, path3_surface):
        eta = relative_deformation(path3_surface)
        values = dict(eta.coefficients)
        assert set(values.values()) == {F(1), F(-1)}
        assert values[0] == values[2] == -values[1]

    def test_two_vertex_tree(self):
        t = HalfTree({0: [0], 1: [1]}, [(0, 1)])
        s = build(t, {0: F(1), 1: F(1)}, {0: F(1), 1: F(1)}, {})
        eta = relative_deformation(s)
        assert sorted(c for _, c in eta.coefficients) == [F(-1), F(1)]

    def test_half_edges_block_existence(self):
        t = HalfTree({0: [0, 1, 2]}, [])
        s = build(t, {p: F(1) for p in range(3)}, {0: F(1)}, {})
        with pytest.raises(DeformError, match="self-glued"):
            relative_deformation(s)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_exists_iff_no_half_edges(self, n):
        for t in enumerate_halftrees(n):
            s = random_metric(t, seed=0)
            if t.half_edge_ports():
                with pytest.raises(DeformError):
                    relative_deformation(s)
            else:
                eta = relative_deformation(s)
                assert set(eta.support) == set(t.vertices)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_vanishes_on_adjacent_pairs(self, n):
        for t in enumerate_halftrees(n):
            if t.half_edge_ports():
                continue
            eta = relative_deformation(random_metric(t, seed=1))
            for p, q in t.edges():
                v, w = t.vertex_of(p), t.vertex_of(q)
                assert eta.evaluate([(v, 1), (w, 1)]) == 0

    def test_sign_pattern_is_bipartition(self):
        for t in enumerate_halftrees(6):
            if t.half_edge_ports():
                continue
            eta = relative_deformation(random_metric(t, seed=2))
            positives = frozenset(v for v in t.vertices if eta.coefficient(v) == 1)
            parity = bipartition(t)
            evens = frozenset(v for v, side in parity.items() if side == 0)
            odds = frozenset(v for v, side in parity.items() if side == 1)
            assert positives in (evens, odds)

    def test_unit_coefficient_on_each_cylinder(self, path3_surface):
        eta = relative_deformation(path3_surface)
        for v in path3_surface.skeleton.vertices:
            assert eta.evaluate([(v, 1)]) in (F(1), F(-1))

    def test_flow_moves_each_twist_by_its_coefficient(self, path3_surface):
        s = path3_surface
        eta = relative_deformation(s)
        moved = relative_flow(s, F(1, 3))
        for v in s.skeleton.vertices:
            step = (moved.twists[v] - s.twists[v]) % s.circumference(v)
            assert step == (F(1, 3) * eta.coefficient(v)) % s.circumference(v)
        assert (moved.lengths, moved.heights) == (s.lengths, s.heights)


class TestCochain:
    def test_zero_coefficients_dropped(self):
        c = FormalCochain.from_map({0: F(0), 1: F(2)})
        assert c.coefficients == ((1, F(2)),)
        assert c.coefficient(0) == 0

    def test_json_shape(self):
        c = FormalCochain.from_map({0: F(1, 3), 2: F(-1)})
        assert cochain_to_json(c) == {"coefficients": {"0": "1/3", "2": "-1"}}

    def test_coefficient_lookup_on_a_sparse_support(self):
        c = FormalCochain.from_map({v: F(v, 7) for v in range(99, -10, -3)})
        coefficients = dict(c.coefficients)
        assert all(c.coefficient(v) == coefficients.get(v, 0) for v in range(-12, 103))
        # built directly from an unsorted tuple, the lookup still finds every entry
        direct = FormalCochain(((2, F(1)), (0, F(3)), (1, F(-1))))
        assert direct.coefficients == ((0, F(3)), (1, F(-1)), (2, F(1)))
        assert [direct.coefficient(v) for v in range(4)] == [3, -1, 1, 0]

    def test_coefficient_lookup_on_a_deep_path(self):
        # every coefficient of a 10**4-cylinder cochain, one lookup at a time;
        # a scan of the whole tuple per lookup took about 2 s here
        s = random_metric(plain_path_skeleton(10**4), 1)
        eta = relative_deformation(s)
        start = time.perf_counter()
        coefficients = dict(eta.coefficients)
        assert all(eta.coefficient(v) == coefficients.get(v, 0) for v in range(-1, 10**4 + 1))
        crossings = [(v, 1 - 2 * (v % 2)) for v in s.skeleton.vertices]
        assert eta.evaluate(crossings) == sum(sign * coefficients[v] for v, sign in crossings)
        assert time.perf_counter() - start < 1


def four_stub_surface(lengths):
    t = HalfTree({0: [0, 1, 2, 3]}, [])
    return build(t, {p: F(x) for p, x in enumerate(lengths)}, {0: F(1)}, {0: F(0)})


def every_rotation_min(seq):
    return min((seq[i:] + seq[:i] for i in range(len(seq))), default=seq)


class TestMinRotation:
    def test_agrees_with_every_rotation(self):
        rng = random.Random(0)
        seqs = [(), (0,), (1, 1, 1), (2, 1, 2, 1), (0, 1, 0, 0, 1, 0), (1, 0, 0, 1, 0, 0, 0)]
        for _ in range(400):
            # small alphabets give ties; repeating a base gives periodic sequences
            base = tuple(rng.randrange(rng.randint(1, 3)) for _ in range(rng.randint(1, 6)))
            seqs.append(base * rng.randint(1, 3))
        # the (class, length) pairs condition (f) rotates
        seqs += [tuple((c, F(rng.randint(1, 3), 2)) for c in seq) for seq in seqs[-100:]]
        for seq in seqs:
            assert deform._min_rotation(seq) == every_rotation_min(seq), seq

    def test_candidate_reports_on_the_stock_blueprints(self, monkeypatch):
        cases = [(pullback(b), *fiber_partitions(b)) for b in builtin_blueprints().values()]
        booth = [repr(check_candidate(*case)) for case in cases]
        monkeypatch.setattr(deform, "_min_rotation", every_rotation_min)
        assert [repr(check_candidate(*case)) for case in cases] == booth


class TestCheckCandidate:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_singletons_pass(self, n):
        for t in enumerate_halftrees(n):
            s = random_metric(t, seed=3)
            report = check_candidate(s, *singleton_partitions(t))
            assert report.ok, report.failures

    def test_unequal_heights_fail_a(self, path3_surface):
        cp = CylinderPartition.of([[0, 1], [2]])
        sp = SaddlePartition.of([[0], [2]])
        report = check_candidate(path3_surface, cp, sp)
        assert not report.checks["a"]
        assert any("(a)" in f for f in report.failures)

    def test_odd_boundary_count_fails_b(self):
        # chain whose ends share a class but cross three class boundaries
        t = HalfTree({0: [0], 1: [1, 2], 2: [3, 4], 3: [5]}, [(0, 1), (2, 3), (4, 5)])
        s = build(
            t,
            {p: F(1) for p in range(6)},
            {v: F(1) for v in range(4)},
            {v: F(0) for v in range(4)},
        )
        report = check_candidate(
            s,
            CylinderPartition.of([[0, 3], [1], [2]]),
            SaddlePartition.of([[0], [2], [4]]),
        )
        assert not report.checks["b"]
        assert any("odd number of class boundaries" in f for f in report.failures)

    def test_boundary_parity_messages_follow_the_tree_paths(self):
        rng = random.Random(5)
        trees = [t for n in range(1, 9) for t in enumerate_halftrees(n)]
        trees += [random_halftree(rng, rng.randint(6, 14), 3) for _ in range(60)]
        failing = 0
        for t in trees:
            s = random_metric(t, seed=0)
            sp = singleton_partitions(t)[1]
            for _ in range(4):
                k = rng.randint(1, len(t.vertices))
                groups: dict[int, list[int]] = {}
                for v in t.vertices:
                    groups.setdefault(rng.randrange(k), []).append(v)
                cp = CylinderPartition.of(groups.values())
                report = check_candidate(s, cp, sp)
                got = [f for f in report.failures if f.startswith("(b)")]
                assert got == oracles.odd_boundary_messages(t, cp.classes), (t, cp)
                assert report.checks["b"] == (not got)
                failing += bool(got)
        # the sweep must reach the failing branch often
        assert failing > 50

    def test_adjacent_same_class_pair_passes_b(self, path3_surface):
        # no boundary is crossed between equivalent neighbors
        s = build(
            path3_surface.skeleton,
            path3_surface.lengths,
            {0: F(1), 1: F(1), 2: F(1)},
            path3_surface.twists,
        )
        report = check_candidate(
            s, CylinderPartition.of([[0, 1], [2]]), SaddlePartition.of([[0], [2]])
        )
        assert report.checks["b"]

    def test_leaf_pair_passes(self, path3_surface):
        s = build(
            path3_surface.skeleton,
            {0: F(2), 1: F(2), 2: F(2), 3: F(2)},
            {0: F(1), 1: F(2), 2: F(1)},
            path3_surface.twists,
        )
        report = check_candidate(
            s, CylinderPartition.of([[0, 2], [1]]), SaddlePartition.of([[0, 2]])
        )
        assert report.ok, report.failures
        assert report.wraps == {0: 1, 1: 2, 2: 1}
        assert report.period == {0: 1, 1: 1, 2: 1}

    def test_unequal_saddle_lengths_fail_c(self, path3_surface):
        report = check_candidate(
            path3_surface,
            CylinderPartition.of([[0], [1], [2]]),
            SaddlePartition.of([[0, 2]]),
        )
        assert not report.checks["c"]

    def test_interleaved_pattern_passes_d(self):
        s = four_stub_surface([1, 2, 1, 2])
        report = check_candidate(
            s, CylinderPartition.of([[0]]), SaddlePartition.of([[0, 2], [1, 3]])
        )
        assert report.ok, report.failures
        assert report.period == {0: 2}
        assert report.wraps == {0: 2}
        assert report.base_circumference == {0: F(3)}

    def test_blocked_pattern_fails_d(self):
        s = four_stub_surface([1, 1, 2, 2])
        report = check_candidate(
            s, CylinderPartition.of([[0]]), SaddlePartition.of([[0, 1], [2, 3]])
        )
        assert not report.checks["d"]

    def test_mixed_sequences_fail_e(self, path3_surface):
        s = build(
            path3_surface.skeleton,
            {0: F(2), 1: F(2), 2: F(2), 3: F(2)},
            {0: F(1), 1: F(1, 2), 2: F(1)},
            path3_surface.twists,
        )
        report = check_candidate(
            s, CylinderPartition.of([[0, 2], [1]]), SaddlePartition.of([[0], [2]])
        )
        assert not report.checks["e"]

    def test_length_mismatch_breaks_f_independently(self, path3_surface):
        report = check_candidate(
            path3_surface,
            CylinderPartition.of([[0, 2], [1]]),
            SaddlePartition.of([[0, 2]]),
        )
        assert not report.checks["c"]
        assert report.checks["e"]
        assert not report.checks["f"]

    def test_moduli_ratio_identity(self, path3_surface):
        s = build(
            path3_surface.skeleton,
            {0: F(2), 1: F(2), 2: F(2), 3: F(2)},
            {0: F(1), 1: F(2), 2: F(1)},
            path3_surface.twists,
        )
        report = check_candidate(
            s, CylinderPartition.of([[0, 2], [1]]), SaddlePartition.of([[0, 2]])
        )
        assert report.ok
        mod0 = s.heights[0] / s.circumference(0)
        mod2 = s.heights[2] / s.circumference(2)
        assert mod0 / mod2 == s.circumference(2) / s.circumference(0)


class TestPartitionPlumbing:
    def test_json_roundtrip(self, path3_surface):
        cp, sp = singleton_partitions(path3_surface.skeleton)
        data = partitions_to_json(cp, sp)
        assert partitions_from_json(data) == (cp, sp)

    def test_bad_json(self):
        with pytest.raises(DeformError, match="cylinder_classes"):
            partitions_from_json({"saddle_classes": []})
        with pytest.raises(DeformError, match="must be an object"):
            partitions_from_json([1, 2])

    def test_overlap_rejected(self, path3_surface):
        cp = CylinderPartition.of([[0, 1], [1, 2]])
        sp = SaddlePartition.of([[0], [2]])
        with pytest.raises(DeformError, match="overlap"):
            check_candidate(path3_surface, cp, sp)

    def test_cover_required(self, path3_surface):
        cp = CylinderPartition.of([[0, 1]])
        sp = SaddlePartition.of([[0], [2]])
        with pytest.raises(DeformError, match="cover"):
            check_candidate(path3_surface, cp, sp)

    def test_saddle_classes_use_edge_keys(self, path3_surface):
        cp = CylinderPartition.of([[0], [1], [2]])
        sp = SaddlePartition.of([[0], [3]])
        with pytest.raises(DeformError, match="edge objects"):
            check_candidate(path3_surface, cp, sp)
