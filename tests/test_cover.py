"""Coverings: blueprint validation, pullback, quotient, certification."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

import oracles
from flattree import (
    CoverBlueprint,
    CoverError,
    FiberCylinder,
    HalfTree,
    area,
    build,
    builtin_blueprints,
    certify_cover,
    fiber_partitions,
    pullback,
    quotient,
    quotient_to_json,
    singleton_partitions,
    singularity_profile,
    stratum_of,
    surfaces_isomorphic,
)
from flattree import cover, surface
from flattree.deform import CylinderPartition, SaddlePartition

F = Fraction


@pytest.fixture
def stock():
    return builtin_blueprints()


def one_cylinder(lengths=(1, 2, 3), height=1, twist=0):
    n = len(lengths)
    return build(
        HalfTree({0: list(range(n))}, []),
        {p: F(lengths[p]) for p in range(n)},
        {0: F(height)},
        {0: F(twist)},
    )


class TestBlueprintValidation:
    def test_stock_blueprints_all_validate(self, stock):
        assert set(stock) == {
            "identity",
            "triple-wrap",
            "ramified-star",
            "torus-double",
            "split-selfglued",
        }
        for b in stock.values():
            pullback(b)

    def test_duplicate_fiber_cylinder(self, stock):
        b = stock["identity"]
        bad = replace(b, fibers=b.fibers + b.fibers)
        with pytest.raises(CoverError, match="listed twice"):
            pullback(bad)

    def test_unknown_base_cylinder(self, stock):
        b = stock["identity"]
        bad = replace(b, fibers=(replace(b.fibers[0], base=7),))
        with pytest.raises(CoverError, match="unknown cylinder 7"):
            pullback(bad)

    def test_wrap_must_be_positive(self, stock):
        b = stock["identity"]
        bad = replace(b, fibers=(replace(b.fibers[0], wrap=0),))
        with pytest.raises(CoverError, match="positive integer"):
            pullback(bad)

    def test_port_count_must_match_wrap(self, stock):
        b = stock["identity"]
        bad = replace(b, fibers=(replace(b.fibers[0], ports=(20, 21)),))
        with pytest.raises(CoverError, match="needs 3"):
            pullback(bad)

    def test_twist_must_lift_base_twist(self, stock):
        b = stock["identity"]
        bad = replace(b, fibers=(replace(b.fibers[0], twist=F(1)),))
        with pytest.raises(CoverError, match="not congruent"):
            pullback(bad)

    def test_congruent_twist_is_accepted(self, stock):
        b = stock["triple-wrap"]
        shifted = replace(b, fibers=(replace(b.fibers[0], twist=F(12)),))
        s = pullback(shifted)
        assert s.twists[10] == F(12)

    def test_unequal_degrees_between_base_cylinders(self, stock):
        b = stock["ramified-star"]
        bad = replace(b, fibers=b.fibers[:4], pairs=b.pairs[:3])
        with pytest.raises(CoverError, match="different degrees"):
            pullback(bad)

    def test_pair_must_lift_a_base_pair(self, stock):
        b = stock["ramified-star"]
        bad = replace(b, pairs=((30, 41), (31, 42), (40, 50), (43, 51)))
        with pytest.raises(CoverError, match="does not lift the base pair"):
            pullback(bad)

    def test_unpaired_lift_of_a_paired_saddle(self, stock):
        b = stock["torus-double"]
        bad = replace(b, pairs=((30, 40),))
        with pytest.raises(CoverError, match="unpaired"):
            pullback(bad)

    def test_half_edge_lifts_may_join_two_fibers(self, stock):
        # the split-selfglued blueprint pairs two lifts of one self-glued saddle
        s = pullback(stock["split-selfglued"])
        assert s.skeleton.edges() == ((30, 40),)

    def test_pair_joining_unrelated_half_edges(self, stock):
        b = stock["split-selfglued"]
        bad = replace(b, pairs=((30, 41),))
        with pytest.raises(CoverError, match="unrelated saddles"):
            pullback(bad)

    def test_disconnected_lift_is_rejected(self, stock):
        b = stock["identity"]
        bad = replace(
            b,
            fibers=(
                b.fibers[0],
                FiberCylinder(11, 0, 1, F(0), (40, 41, 42)),
            ),
        )
        with pytest.raises(CoverError, match="not a half-tree"):
            pullback(bad)

    def test_decorated_base_is_rejected(self, stock):
        from flattree import Mark, involution_orbit, with_marks

        b = stock["identity"]
        base = b.base
        marked = with_marks(base, involution_orbit(base, Mark(0, F(1, 4))))
        with pytest.raises(CoverError, match="decorated"):
            pullback(replace(b, base=marked))


class TestPullback:
    def test_identity_reproduces_the_base(self, stock):
        b = stock["identity"]
        assert surfaces_isomorphic(pullback(b), b.base)

    def test_triple_wrap_stratum_and_metric(self, stock):
        s = pullback(stock["triple-wrap"])
        assert stratum_of(s.skeleton).label == "H^hyp(8)"
        assert s.circumference(10) == 18
        assert area(s) == 3 * area(stock["triple-wrap"].base)

    def test_triple_wrap_divisibility_witness(self, stock):
        # wrapping number 2r-1 = 3 divides 2g-1 = 9
        s = pullback(stock["triple-wrap"])
        base = stock["triple-wrap"].base
        g = stratum_of(s.skeleton).genus
        r = stratum_of(base.skeleton).genus
        assert (2 * g - 1) % (2 * r - 1) == 0

    def test_ramified_star_shape(self, stock):
        s = pullback(stock["ramified-star"])
        assert stratum_of(s.skeleton).label == "H^hyp(3,3)"
        t = s.skeleton
        assert sorted(len(t.ports(v)) for v in t.vertices) == [1, 1, 1, 1, 4]
        assert s.twists[12] == 3
        assert area(s) == 2 * area(stock["ramified-star"].base)

    def test_torus_double_branches_over_marked_points(self, stock):
        s = pullback(stock["torus-double"])
        assert stratum_of(s.skeleton).label == "H^hyp(1,1)"
        assert singularity_profile(s).orders == (1, 1)
        base = stock["torus-double"].base
        assert singularity_profile(base).orders == (0, 0)

    def test_split_selfglued_shape(self, stock):
        s = pullback(stock["split-selfglued"])
        assert stratum_of(s.skeleton).label == "H^hyp(2,2)"
        assert len(s.skeleton.half_edge_ports()) == 4

    def test_fiber_cylinders_share_height_and_pattern(self, stock):
        for name, b in stock.items():
            s = pullback(b)
            for f in b.fibers:
                assert s.heights[f.cylinder] == b.base.heights[f.base], name
                base_lens = [b.base.lengths[q] for q in b.base.skeleton.ports(f.base)]
                lens = [s.lengths[p] for p in f.ports]
                assert lens == base_lens * f.wrap, name

    def test_degree_area_law(self, stock):
        for name, b in stock.items():
            s = pullback(b)
            v0 = b.base.skeleton.vertices[0]
            d = sum(f.wrap for f in b.fibers if f.base == v0)
            assert area(s) == d * area(b.base), name


class TestQuotient:
    def test_roundtrip_every_stock_blueprint(self, stock):
        for name, b in stock.items():
            s = pullback(b)
            cp, sp = fiber_partitions(b)
            r = quotient(s, cp, sp)
            assert r.candidate.ok, name
            assert r.residual == 0, name
            assert surfaces_isomorphic(r.base, b.base), name

    def test_roundtrip_degrees(self, stock):
        expected = {
            "identity": 1,
            "triple-wrap": 3,
            "ramified-star": 2,
            "torus-double": 2,
            "split-selfglued": 2,
        }
        for name, b in stock.items():
            s = pullback(b)
            r = quotient(s, *fiber_partitions(b))
            assert r.degree == expected[name], name
            assert r.area_ratio == expected[name], name

    def test_singleton_partitions_give_degree_one(self, stock):
        s = pullback(stock["ramified-star"])
        r = quotient(s, *singleton_partitions(s.skeleton))
        assert r.degree == 1
        assert surfaces_isomorphic(r.base, s)
        assert r.wraps == {v: 1 for v in s.skeleton.vertices}

    def test_triple_wrap_quotient_maps(self, stock):
        b = stock["triple-wrap"]
        s = pullback(b)
        r = quotient(s, *fiber_partitions(b))
        assert r.cylinder_map == {10: 0}
        assert r.wraps == {10: 3}
        assert r.base_stratum == "H^hyp(2)"
        assert r.rel == 0
        assert r.source_half_edges
        assert r.dichotomy_consistent

    def test_torus_double_quotient_dichotomy(self, stock):
        b = stock["torus-double"]
        r = quotient(pullback(b), *fiber_partitions(b))
        assert r.base_stratum == "H(0,0)"
        assert r.rel == 1
        assert not r.source_half_edges
        assert r.dichotomy_consistent

    def test_split_selfglued_folds_an_edge(self, stock):
        b = stock["split-selfglued"]
        s = pullback(b)
        r = quotient(s, *fiber_partitions(b))
        # the connecting edge folds onto a self-glued saddle downstairs
        assert r.base.skeleton.edges() == ()
        assert len(r.base.skeleton.half_edge_ports()) == 3
        assert r.saddle_map[30] == r.saddle_map[31] - 1

    def test_rotated_member_still_quotients(self, stock):
        # re-present one outer fiber of the star with its list rotated; the
        # twist correction keeps the same surface, so the quotient must agree
        b = stock["ramified-star"]
        s = pullback(b)
        t = s.skeleton
        ports = {v: list(t.ports(v)) for v in t.vertices}
        ports[12] = ports[12][1:] + ports[12][:1]
        shift = 2 * s.port_start(t.ports(12)[1])
        rotated = build(
            HalfTree(ports, [(30, 40), (31, 42), (41, 50), (43, 51)]),
            dict(s.lengths),
            dict(s.heights),
            {v: (s.twists[v] + (shift if v == 12 else 0)) for v in t.vertices},
        )
        assert surfaces_isomorphic(rotated, s)
        r = quotient(rotated, *fiber_partitions(b))
        assert surfaces_isomorphic(r.base, b.base)

    def test_genus_one_quotient_breaks_the_dichotomy(self):
        s = build(
            HalfTree({0: [0], 1: [1]}, [(0, 1)]),
            {0: F(2), 1: F(2)},
            {0: F(1), 1: F(1)},
            {0: F(1, 3), 1: F(1, 3)},
        )
        r = quotient(
            s,
            CylinderPartition.of([[0, 1]]),
            SaddlePartition.of([[0]]),
        )
        assert r.degree == 2
        assert r.base_stratum == "H(0)"
        assert len(r.base.skeleton.half_edge_ports()) == 1
        assert not r.dichotomy_consistent

    def test_failing_candidate_is_refused(self, stock):
        b = stock["ramified-star"]
        s = pullback(b)
        cp, sp = fiber_partitions(b)
        lopsided = build(
            s.skeleton,
            dict(s.lengths),
            {v: s.heights[v] + (1 if v == 10 else 0) for v in s.skeleton.vertices},
            dict(s.twists),
        )
        with pytest.raises(CoverError, match="fail verification"):
            quotient(lopsided, cp, sp)

    def test_twist_obstruction(self, stock):
        # shear one outer fiber by half the base circumference: candidate
        # checks still pass but the twists no longer project to one base twist
        b = stock["torus-double"]
        s = pullback(b)
        sheared = build(
            s.skeleton,
            dict(s.lengths),
            dict(s.heights),
            {10: F(3, 4), 11: F(0), 12: F(0)},
        )
        with pytest.raises(CoverError, match="twist obstruction"):
            quotient(sheared, *fiber_partitions(b))

    def test_decorated_source_is_refused(self, stock):
        from flattree import Mark, involution_orbit, with_marks

        s = pullback(stock["identity"])
        marked = with_marks(s, involution_orbit(s, Mark(20, F(1, 4))))
        with pytest.raises(CoverError, match="decorated"):
            quotient(marked, *fiber_partitions(stock["identity"]))

    def test_mixed_endpoint_saddle_class_is_refused(self):
        # grouping a leaf edge with the middle self-saddle joins two
        # different cylinder-class pairs
        s = build(
            HalfTree({0: [0], 1: [1, 2, 3], 2: [4]}, [(0, 1), (3, 4)]),
            {0: F(1), 1: F(1), 2: F(1), 3: F(1), 4: F(1)},
            {0: F(1), 1: F(1), 2: F(1)},
            {0: F(0), 1: F(0), 2: F(0)},
        )
        with pytest.raises(CoverError):
            quotient(
                s,
                CylinderPartition.of([[0, 2], [1]]),
                SaddlePartition.of([[0, 2], [3]]),
            )


class TestCertifyCover:
    def test_all_roundtrips_certify(self, stock):
        for name, b in stock.items():
            s = pullback(b)
            r = quotient(s, *fiber_partitions(b))
            verdict = certify_cover(s, r)
            assert verdict.ok, (name, verdict.failures)
            assert all(verdict.checks.values())

    def test_tampered_degree_is_caught(self, stock):
        b = stock["triple-wrap"]
        s = pullback(b)
        r = quotient(s, *fiber_partitions(b))
        verdict = certify_cover(s, replace(r, degree=2))
        assert not verdict.ok
        assert not verdict.checks["degree_constant"]
        assert not verdict.checks["area_multiplicative"]

    def test_tampered_wrap_is_caught(self, stock):
        b = stock["triple-wrap"]
        s = pullback(b)
        r = quotient(s, *fiber_partitions(b))
        verdict = certify_cover(s, replace(r, wraps={10: 1}))
        assert not verdict.ok
        assert not verdict.checks["local_isometry"]

    def test_tampered_offset_is_caught(self, stock):
        b = stock["ramified-star"]
        s = pullback(b)
        r = quotient(s, *fiber_partitions(b))
        verdict = certify_cover(s, replace(r, offsets={**r.offsets, 12: F(1, 7)}))
        assert not verdict.ok
        assert not verdict.checks["local_isometry"]

    @pytest.mark.parametrize(
        "field, tamper, message",
        [
            ("cylinder_map", lambda m: {**m, 10: 99}, "cylinder 10 maps to unknown base cylinder 99"),
            ("offsets", lambda m: {v: x for v, x in m.items() if v != 10}, "cylinder 10 has no offset"),
            ("wraps", lambda m: {v: x for v, x in m.items() if v != 10}, "cylinder 10 has no wrap"),
        ],
        ids=["unknown-image", "no-offset", "no-wrap"],
    )
    def test_bad_map_entry_is_a_failed_verdict(self, stock, field, tamper, message):
        b = stock["ramified-star"]
        s = pullback(b)
        r = quotient(s, *fiber_partitions(b))
        verdict = certify_cover(s, replace(r, **{field: tamper(getattr(r, field))}))
        assert not verdict.ok
        assert not verdict.checks["local_isometry"]
        assert verdict.failures.count(message) == 1
        # the checks that need the missing entry fail without repeating it
        needs = "riemann_hurwitz" if field == "wraps" else "involution_equivariance"
        assert not verdict.checks[needs]

    def test_wrong_base_surface_is_caught(self, stock):
        b = stock["triple-wrap"]
        s = pullback(b)
        r = quotient(s, *fiber_partitions(b))
        other = one_cylinder(lengths=(1, 2, 4))
        verdict = certify_cover(s, replace(r, base=other))
        assert not verdict.ok


def seeded_blueprints(seed):
    """Wrapped and tree blueprints over one-cylinder bases with seeded metrics."""
    rng = random.Random(seed)

    def frac():
        return F(rng.randint(1, 8), rng.randint(1, 4))

    def one_cylinder_base(m):
        return build(
            HalfTree({0: list(range(m))}, []),
            {p: frac() for p in range(m)},
            {0: frac()},
            {0: frac() * rng.randint(0, 3)},
        )

    out = []
    for m in range(2, 6):
        for r in range(1, 4):
            base = one_cylinder_base(m)
            twist = base.twists[0] + base.circumference(0) * rng.randrange(r)
            fiber = FiberCylinder(0, 0, r, twist, tuple(range(100, 100 + r * m)))
            out.append(CoverBlueprint(base=base, fibers=(fiber,), pairs=()))
        for d in range(2, 5):
            base = one_cylinder_base(m)
            ports = {i: tuple(range(1000 + i * m, 1000 + (i + 1) * m)) for i in range(d)}
            free = {i: set(range(m)) for i in range(d)}
            pairs = []
            for j in range(1, d):
                i = rng.randrange(j)
                common = sorted(free[i] & free[j])
                if not common:
                    break
                k = rng.choice(common)
                free[i].discard(k)
                free[j].discard(k)
                pairs.append((ports[i][k], ports[j][k]))
            else:
                fibers = tuple(FiberCylinder(i, 0, 1, base.twists[0], ports[i]) for i in range(d))
                out.append(CoverBlueprint(base=base, fibers=fibers, pairs=tuple(pairs)))
    return out


def blueprint_degree(b):
    first = b.base.skeleton.vertices[0]
    return sum(f.wrap for f in b.fibers if f.base == first)


def both_failure_lists(source, base, cyl_map, offsets, degree):
    """(kernel, oracle) pairs of (branch failures, equivariance failures)."""
    scaled = cover._scaled(source, base, offsets)
    got = cover._cover_failures(source, base, scaled, cyl_map, degree)
    want = (
        oracles.branch_failures_fraction(source, base, cyl_map, offsets, degree),
        oracles.equivariance_failures_fraction(source, base, cyl_map, offsets),
    )
    return got, want


class TestIntegerCheck:
    """The integer branch and equivariance check against the Fraction reference."""

    MESSAGES = {
        "does not project into one base class",
        "not an integer",
        "is covered",
        "projects off the base fixed circle",
        "projects off a base midpoint",
        "projects to a non-fixed class",
    }

    def test_stock_blueprints(self, stock):
        for name, b in stock.items():
            s = pullback(b)
            zero = {f.cylinder: F(0) for f in b.fibers}
            got, want = both_failure_lists(
                s, b.base, {f.cylinder: f.base for f in b.fibers}, zero, blueprint_degree(b)
            )
            assert got == want == ([], []), name
            r = quotient(s, *fiber_partitions(b))
            got, want = both_failure_lists(s, r.base, r.cylinder_map, r.offsets, r.degree)
            assert got == want == ([], []), name

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_blueprints(self, seed):
        for b in seeded_blueprints(seed):
            s = pullback(b)
            cyl_map = {f.cylinder: f.base for f in b.fibers}
            zero = {f.cylinder: F(0) for f in b.fibers}
            for offsets in (zero, {**zero, b.fibers[-1].cylinder: F(1, 3)}):
                got, want = both_failure_lists(s, b.base, cyl_map, offsets, blueprint_degree(b))
                assert got == want

    def test_tampered_inputs_give_every_message(self, stock):
        seen = []

        def compare(*args):
            got, want = both_failure_lists(*args)
            assert got == want, args
            seen.extend(got[0] + got[1])

        for b in stock.values():
            s = pullback(b)
            r = quotient(s, *fiber_partitions(b))
            cm, off, base = r.cylinder_map, r.offsets, r.base
            for v in s.skeleton.vertices:
                half = base.circumference(cm[v]) / 2
                compare(s, base, cm, {**off, v: off[v] + F(1, 3)}, r.degree)
                compare(s, base, cm, {**off, v: off[v] + half}, r.degree)
            compare(s, base, cm, off, r.degree + 1)
            vs = s.skeleton.vertices
            for i, v in enumerate(vs):
                for w in vs[i + 1 :]:
                    if cm[v] != cm[w]:
                        compare(s, base, {**cm, v: cm[w], w: cm[v]}, off, r.degree)
            for w in base.skeleton.vertices:
                twists = {**base.twists, w: base.twists[w] + F(1, 2)}
                compare(s, build(base.skeleton, base.lengths, base.heights, twists), cm, off, r.degree)
            # bases whose circumference divides no circumference upstairs
            for twist in (4, 5):
                other = one_cylinder(lengths=(1, 2, 4), twist=twist)
                compare(s, other, dict.fromkeys(cm, 0), off, r.degree)
        # the covering read backwards: sheets of the torus double as a base
        b = stock["torus-double"]
        compare(b.base, pullback(b), {0: 10, 1: 12}, {0: F(0), 1: F(0)}, 1)
        for text in self.MESSAGES:
            assert any(text in m for m in seen), text


class TestWorkPerCall:
    """Across all the cover calls, each surface is laid out at most once and walked at most once."""

    @pytest.fixture
    def counts(self, monkeypatch):
        """Every surface laid out and every layout walked, held so that no id is reused."""
        built, walked = [], []
        real_new_layout, real_walk = surface._new_layout, surface._corner_walk

        def new_layout(s):
            built.append(s)
            return real_new_layout(s)

        def walk(lay):
            walked.append(lay)
            return real_walk(lay)

        monkeypatch.setattr(surface, "_new_layout", new_layout)
        monkeypatch.setattr(surface, "_corner_walk", walk)
        return built, walked

    def test_each_public_call(self, stock, counts):
        built, walked = counts
        for name, b in stock.items():
            s = pullback(b)
            cp, sp = fiber_partitions(b)
            r = quotient(s, cp, sp)
            for _ in range(2):
                pullback(b), quotient(s, cp, sp), certify_cover(s, r)
            # each new pullback and base is laid out and walked, each only once,
            # and every walk reads the one kept layout of its surface
            kept = {id(surface._layout(x)) for x in (*built, b.base)}
            assert walked and len(built) == len({id(x) for x in built}), name
            assert len(walked) == len({id(lay) for lay in walked}), name
            assert {id(lay) for lay in walked} <= kept, name


class TestSerialization:
    def test_quotient_json_embeds_verification(self, stock):
        import json

        b = stock["triple-wrap"]
        s = pullback(b)
        r = quotient(s, *fiber_partitions(b))
        data = quotient_to_json(r)
        assert data["degree"] == 3
        assert data["verification"]["riemann_hurwitz_residual"] == "0"
        assert data["verification"]["base_stratum"] == "H^hyp(2)"
        assert data["verification"]["dichotomy_consistent"] is True
        json.dumps(data, sort_keys=True)
