import copy
import dataclasses
import gc
import pickle
import random
import time
import tracemalloc

import pytest

import oracles
from flattree import (
    CanonicalForm,
    HalfTree,
    SkeletonError,
    bipartition,
    canonical_form,
    enumerate_halftrees,
    halftree_from_json,
    halftree_to_dot,
    halftree_to_json,
    stratum_of,
    validate,
)
from flattree import halftree


def single(n: int) -> HalfTree:
    return HalfTree({0: list(range(n))})


def path3() -> HalfTree:
    return HalfTree({0: [0], 1: [1, 2], 2: [3]}, [(0, 1), (2, 3)])


def stub_pair() -> HalfTree:
    # one edge, one dangling half-edge on vertex 0
    return HalfTree({0: [0, 1], 1: [2]}, [(0, 2)])


class TestConstruction:
    def test_duplicate_port_rejected(self):
        with pytest.raises(SkeletonError, match="listed twice"):
            HalfTree({0: [0, 0]})

    def test_self_paired_port_rejected(self):
        with pytest.raises(SkeletonError, match="paired with itself"):
            HalfTree({0: [0]}, [(0, 0)])

    def test_unknown_port_in_pair(self):
        with pytest.raises(SkeletonError, match="unknown port"):
            HalfTree({0: [0]}, [(0, 5)])

    def test_port_in_two_pairs(self):
        with pytest.raises(SkeletonError, match="two pairs"):
            HalfTree({0: [0], 1: [1], 2: [2]}, [(0, 1), (0, 2)])

    def test_non_integer_ids(self):
        with pytest.raises(SkeletonError):
            HalfTree({"a": [0]})
        with pytest.raises(SkeletonError):
            HalfTree({0: ["p"]})

    def test_accessors(self):
        t = path3()
        assert t.vertices == (0, 1, 2)
        assert t.n_ports == 4
        assert t.ports(1) == (1, 2)
        assert t.partner(0) == 1
        assert t.partner(3) == 2
        assert t.vertex_of(3) == 2
        assert t.edges() == ((0, 1), (2, 3))
        assert stub_pair().half_edge_ports() == (1,)
        assert t.edge_objects() == ((0, 1), (2, 3))
        assert t.edge_object_of(2) == (2, 3)
        assert stub_pair().edge_object_of(1) == (1,)

    def test_rotation(self):
        t = HalfTree({0: [0, 1, 2]})
        assert t.rotated(0, 1).ports(0) == (1, 2, 0)
        assert t.rotated(0, 3).ports(0) == (0, 1, 2)


class TestValidate:
    def test_empty(self):
        d = validate(HalfTree({}))
        assert not d.ok and d.first == "skeleton has no vertices"

    def test_bare_vertex(self):
        d = validate(HalfTree({0: [0], 1: []}))
        assert not d.ok
        assert "vertex 1 has no ports" in d.failures

    def test_self_vertex_edge(self):
        d = validate(HalfTree({0: [0, 1]}, [(0, 1)]))
        assert not d.ok
        assert any("joins vertex 0 to itself" in f for f in d.failures)

    def test_disconnected(self):
        d = validate(HalfTree({0: [0], 1: [1]}))
        assert not d.ok
        assert "full-edge graph is disconnected" in d.failures

    def test_cycle_from_double_edge(self):
        d = validate(HalfTree({0: [0, 1], 1: [2, 3]}, [(0, 2), (1, 3)]))
        assert not d.ok
        assert "full-edge graph contains a cycle" in d.failures

    def test_fixtures_pass(self):
        for t in (single(1), single(3), path3(), stub_pair()):
            assert validate(t).ok

    def test_components_are_sized_in_one_pass(self, monkeypatch):
        calls = 0
        find = halftree._find

        def counting(parent, x):
            nonlocal calls
            calls += 1
            return find(parent, x)

        monkeypatch.setattr(halftree, "_find", counting)
        n = 2000
        verdict = validate(HalfTree({v: [v] for v in range(n)}))
        assert verdict.failures == ("full-edge graph is disconnected",)
        # a rescan of every vertex per component would make n * n calls
        assert calls <= 3 * n

    def test_verdict_is_kept_on_the_tree(self, monkeypatch):
        walks = []
        diagnose = halftree._diagnose
        monkeypatch.setattr(halftree, "_diagnose", lambda t: walks.append(t) or diagnose(t))
        for t in (path3(), HalfTree({0: [0], 1: [1]})):
            first = validate(t)
            assert validate(t) is first
            assert walks == [t]
            walks.clear()
        # every valid tree shares one verdict
        assert validate(path3()) is validate(single(2))


class TestStratum:
    @pytest.mark.parametrize(
        "n,genus,label,orders",
        [
            (1, 1, "H(0)", (0,)),
            (2, 1, "H(0,0)", (0, 0)),
            (3, 2, "H^hyp(2)", (2,)),
            (4, 2, "H^hyp(1,1)", (1, 1)),
            (5, 3, "H^hyp(4)", (4,)),
            (6, 3, "H^hyp(2,2)", (2, 2)),
        ],
    )
    def test_labels(self, n, genus, label, orders):
        s = stratum_of(single(n))
        assert (s.genus, s.label, s.orders) == (genus, label, orders)
        assert s.port_count == 2 * s.genus + s.zero_count - 2

    def test_rejects_invalid(self):
        with pytest.raises(SkeletonError):
            stratum_of(HalfTree({0: [0], 1: [1]}))


def path(n: int) -> HalfTree:
    """The path on ``n >= 2`` vertices, ports numbered along it."""
    ports_of = {0: [0], n - 1: [2 * n - 3]}
    ports_of.update({v: [2 * v - 1, 2 * v] for v in range(1, n - 1)})
    return HalfTree(ports_of, [(2 * v, 2 * v + 1) for v in range(n - 1)])


def relabel(t: HalfTree, rng: random.Random) -> HalfTree:
    """The same tree under fresh vertex and port ids, every port list rotated."""
    vids = dict(zip(t.vertices, rng.sample(range(3 * len(t.vertices)), len(t.vertices))))
    pids = dict(zip(t.all_ports, rng.sample(range(3 * t.n_ports), t.n_ports)))
    ports_of = {}
    for v in t.vertices:
        plist = [pids[p] for p in t.ports(v)]
        r = rng.randrange(len(plist))
        ports_of[vids[v]] = plist[r:] + plist[:r]
    return HalfTree(ports_of, [(pids[p], pids[q]) for p, q in t.edges()])


def random_halftree(rng: random.Random, n_vertices: int, n_stubs: int) -> HalfTree:
    """A seeded random tree: each vertex hangs off one of its recent predecessors."""
    ports_of: dict[int, list[int]] = {v: [] for v in range(n_vertices)}
    pairs = []
    for v in range(1, n_vertices):
        u = rng.randrange(max(0, v - rng.choice((1, 3, v))), v)
        p = 2 * len(pairs)
        ports_of[u].append(p)
        ports_of[v].append(p + 1)
        pairs.append((p, p + 1))
    for p in range(2 * len(pairs), 2 * len(pairs) + n_stubs):
        ports_of[rng.randrange(n_vertices)].append(p)
    for plist in ports_of.values():
        rng.shuffle(plist)
    return HalfTree(ports_of, pairs)


def star(arms: list[list[int]]) -> HalfTree:
    """A center whose ports run over ``arms``: 0 is a stub, k > 0 a leaf with k - 1 stubs."""
    ports_of: dict[int, list[int]] = {0: []}
    pairs = []
    port = iter(range(10**6))
    for arm in arms:
        for k in arm:
            p = next(port)
            ports_of[0].append(p)
            if k:
                leaf = [next(port) for _ in range(k)]
                ports_of[len(ports_of)] = leaf
                pairs.append((p, leaf[0]))
    return HalfTree(ports_of, pairs)


def double_star(arm: list[int]) -> HalfTree:
    """Two copies of ``star([arm])`` joined center to center."""
    one = star([arm])
    shift = one.n_ports + 1
    ports_of = {0: [*one.ports(0), shift - 1]}
    ports_of.update({v: list(one.ports(v)) for v in one.vertices[1:]})
    n = len(one.vertices)
    ports_of[n] = [p + shift for p in one.ports(0)] + [2 * shift - 1]
    ports_of.update({n + v: [p + shift for p in one.ports(v)] for v in one.vertices[1:]})
    pairs = [*one.edges(), *((p + shift, q + shift) for p, q in one.edges()), (shift - 1, 2 * shift - 1)]
    return HalfTree(ports_of, pairs)


def stubbed_path(n: int) -> HalfTree:
    """A path of ``n`` vertices, each with one self-glued stub."""
    ports_of, pairs = {}, []
    for v in range(n):
        ports_of[v] = [3 * v] + ([3 * v + 1] if v + 1 < n else []) + ([3 * v + 2] if v else [])
        if v:
            pairs.append((3 * v - 2, 3 * v + 2))
    return HalfTree(ports_of, pairs)


# the values a tree keeps the first time they are asked for
KEPT_SLOTS = ("_verdict", "_canonical", "_stratum", "_all_ports", "_edges", "_half_edges", "_edge_objects")


def reachable(obj: object) -> list:
    """Every container reachable from ``obj`` through forms, labelings, trees, tuples, lists and dicts."""
    kinds = (CanonicalForm, halftree.CanonicalLabeling, HalfTree, tuple, list, dict)
    seen, todo = {id(obj): obj}, [obj]
    for x in todo:
        if isinstance(x, kinds):
            for y in gc.get_referents(x):
                if id(y) not in seen and isinstance(y, kinds):
                    seen[id(y)] = y
                    todo.append(y)
    return list(seen.values())


def agrees_with_reference(t: HalfTree) -> bool:
    return repr(canonical_form(t)) == repr(oracles.canonical_form_reference(t))


class TestCanonicalForm:
    def test_three_stub_vertex(self):
        cf = canonical_form(single(3))
        assert cf.encoding == "---"
        assert cf.automorphisms == 3

    def test_path_of_three(self):
        cf = canonical_form(path3())
        assert cf.encoding == "(())"
        assert cf.automorphisms == 2

    def test_stub_pair_is_rigid(self):
        cf = canonical_form(stub_pair())
        assert cf.encoding == "()-"
        assert cf.automorphisms == 1

    def test_invariant_under_rotation(self):
        for t in enumerate_halftrees(6):
            base = canonical_form(t).encoding
            for v in t.vertices:
                for r in range(t.degree(v)):
                    assert canonical_form(t.rotated(v, r)).encoding == base

    def test_idempotent(self):
        for n in range(1, 7):
            for t in enumerate_halftrees(n):
                cf = canonical_form(t)
                again = canonical_form(cf.relabeled)
                assert again.encoding == cf.encoding
                assert again.relabeled == cf.relabeled

    def test_automorphism_counts_match_bruteforce(self):
        for n in range(1, 7):
            for t in enumerate_halftrees(n):
                assert canonical_form(t).automorphisms == oracles.automorphism_count(t)

    def test_labelings_are_consistent_relabelings(self):
        t = path3()
        cf = canonical_form(t)
        for lab in cf.labelings:
            rebuilt = {}
            for v in t.vertices:
                r = lab.rotation[v]
                plist = t.ports(v)
                rotated = plist[r:] + plist[:r]
                rebuilt[lab.vertex_map[v]] = [lab.port_map[p] for p in rotated]
            pairs = [(lab.port_map[p], lab.port_map[q]) for p, q in t.edges()]
            assert HalfTree(rebuilt, pairs) == cf.relabeled

    def test_rejects_invalid(self):
        with pytest.raises(SkeletonError, match="cannot canonicalize"):
            canonical_form(HalfTree({0: [0], 1: [1]}))

    def test_least_rotation_matches_brute_force(self):
        rng = random.Random(7)
        for _ in range(500):
            seq = [rng.randrange(3) for _ in range(rng.randint(1, 12))]
            k = halftree._least_rotation(seq)
            assert seq[k:] + seq[:k] == min(seq[i:] + seq[:i] for i in range(len(seq)))
            # Booth returns the first index of the least rotation
            assert all(seq[i:] + seq[:i] != seq[k:] + seq[:k] for i in range(k))

    def test_leaves_no_reference_cycles(self):
        trees = [enumerate_halftrees(8)[17], random_halftree(random.Random(64), 20, 26)]
        assert trees[1].n_ports == 64
        gc.collect()
        gc.disable()
        try:
            for t in trees:
                canonical_form(t)
                assert gc.collect() == 0
        finally:
            gc.enable()


class TestCanonicalFormAgainstReference:
    """``repr`` of the whole result (encoding, automorphisms, relabeled tree and
    every labeling in order) equals the recursive all-flags definition."""

    def test_every_class_up_to_12_ports_relabeled(self):
        rng = random.Random(12)
        for n in range(1, 13):
            for t in enumerate_halftrees(n):
                for _ in range(2):
                    assert agrees_with_reference(relabel(t, rng)), t

    def test_seeded_random_trees(self):
        rng = random.Random(300)
        for i in range(300):
            # every 50th tree has up to 300 vertices; the reference is quadratic
            n_vertices = rng.randint(1, 300 if i % 50 == 0 else 30)
            t = random_halftree(rng, n_vertices, rng.randint(n_vertices == 1, n_vertices))
            assert agrees_with_reference(t), t

    @pytest.mark.parametrize("bits", [8, 12, 96])
    def test_order_labels_follow_encodings(self, monkeypatch, bits):
        # small label universes force every relabelling path, the whole-range one too
        monkeypatch.setattr(halftree, "_LABEL_BITS", bits)
        monkeypatch.setattr(halftree, "_END", 1 << bits)
        monkeypatch.setattr(halftree, "_STUB", (1 << bits) + 1)
        monkeypatch.setattr(halftree, "_ROOM", tuple(6**j // 5**j for j in range(bits + 1)))
        # these trees are under the string bound; the labels are what is checked
        monkeypatch.setattr(halftree, "_STRING_PORTS", 0)
        rng = random.Random(bits)
        trees = [path(120), stubbed_path(60), *(random_halftree(rng, 60, 20) for _ in range(8))]
        for t in trees:
            index = {p: i for v in t.vertices for i, p in enumerate(t.ports(v))}
            _, kids = halftree._planted_classes(t, index)
            label = halftree._order_labels(kids)
            code = ["-"]
            for c in range(1, len(kids)):
                code.append("(" + "".join(code[x] for x in kids[c]) + ")")
            classes = range(1, len(kids))
            assert sorted(classes, key=label.__getitem__) == sorted(classes, key=code.__getitem__)
            assert max(label[1:]) < halftree._END
            assert agrees_with_reference(t)

    @pytest.mark.parametrize(
        "t, automorphisms",
        [
            (single(6), 6),
            (star([[1]] * 5), 5),
            (star([[2, 0]] * 4), 4),
            (star([[3, 1, 0]] * 3), 3),
            (star([[1, 0, 0], [1, 0]] * 2), 2),
            (double_star([1, 0, 2]), 2),
            (double_star([2] * 3), 2),
            (path(2), 2),
        ],
    )
    def test_symmetric_trees(self, t, automorphisms):
        t = copy.copy(t)  # the parametrized tree is shared, and would keep its form
        assert canonical_form(t).automorphisms == automorphisms
        assert agrees_with_reference(t)
        assert agrees_with_reference(relabel(t, random.Random(automorphisms)))


class TestLabelPathAgainstReference(TestCanonicalFormAgainstReference):
    """The same cases with every tree over the string bound, so on integer labels."""

    @pytest.fixture(autouse=True)
    def label_path(self, monkeypatch):
        monkeypatch.setattr(halftree, "_STRING_PORTS", 0)

    test_order_labels_follow_encodings = None  # forces the label path itself


class TestCanonicalFormPaths:
    """Trees up to ``_STRING_PORTS`` ports compare strings, larger ones rank labels."""

    def test_trees_up_to_the_bound_compare_strings(self, monkeypatch):
        longest = path(halftree._STRING_PORTS // 2 + 1)
        assert longest.n_ports == halftree._STRING_PORTS
        small = [single(1), path3(), stub_pair(), *enumerate_halftrees(7)]
        monkeypatch.setattr(halftree, "_planted_classes", None)
        monkeypatch.setattr(halftree, "_order_labels", None)
        for t in small:
            assert agrees_with_reference(t), t
        cf = canonical_form(longest)
        k = len(longest.vertices) - 1
        assert (cf.automorphisms, cf.encoding) == (2, "(" * k + ")" * k)

    @pytest.mark.parametrize("make", [path, stubbed_path])
    def test_deep_trees_rank_labels_in_bounded_memory(self, monkeypatch, make):
        n = 10**4
        t = make(n)
        assert validate(t).ok
        monkeypatch.setattr(halftree, "_tokens", None)
        tracemalloc.start()
        try:
            cf = canonical_form(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 10-13 MiB; the token text of either tree would take about 250 MB
        assert peak < 64 * 2**20
        if make is path:
            assert (cf.automorphisms, cf.encoding) == (2, "(" * (n - 1) + ")" * (n - 1))
        else:
            assert (cf.automorphisms, len(cf.encoding), cf.encoding.count("-")) == (1, 3 * n - 2, n)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_both_paths_agree_around_the_bound(self, monkeypatch, offset):
        ports = halftree._STRING_PORTS + offset
        rng = random.Random(ports)
        for _ in range(3):
            n_vertices = rng.randint(2, ports // 2)
            t = random_halftree(rng, n_vertices, ports - 2 * (n_vertices - 1))
            assert t.n_ports == ports
            forms = [repr(canonical_form(copy.copy(t)))]
            for bound in (0, ports):  # labels, then strings
                monkeypatch.setattr(halftree, "_STRING_PORTS", bound)
                forms.append(repr(canonical_form(copy.copy(t))))
            monkeypatch.undo()
            assert forms[0] == forms[1] == forms[2]


class TestKeptCanonicalForm:
    """``canonical_form`` keeps its form on the tree and never keeps a failure."""

    def test_repeated_call_returns_the_kept_form(self, monkeypatch):
        t = path3()
        kept = canonical_form(t)
        assert t._canonical is kept
        # a second call does no walk at all
        monkeypatch.setattr(halftree, "_walk", None)
        monkeypatch.setattr(halftree, "_planted_classes", None)
        assert canonical_form(t) is kept

    def test_kept_form_equals_reference_and_a_fresh_copy(self):
        rng = random.Random(10)
        for n in range(1, 11):
            for t in enumerate_halftrees(n):
                last = t.vertices[-1]
                for u in (t, relabel(t, rng), t.rotated(last, rng.randrange(t.degree(last)))):
                    kept = canonical_form(u)
                    assert canonical_form(u) is kept
                    copy = HalfTree({v: u.ports(v) for v in u.vertices}, u.edges())
                    assert copy._canonical is None
                    assert repr(canonical_form(copy)) == repr(kept)
                    assert repr(kept) == repr(oracles.canonical_form_reference(u)), u

    def test_pickles_and_copies_leave_the_kept_values_out(self):
        t = stubbed_path(6)
        before = (pickle.dumps(t), copy.copy(t), copy.deepcopy(t))
        assert validate(t).ok and canonical_form(t)
        assert stratum_of(t) and t.all_ports and t.edges() and t.half_edge_ports() and t.edge_objects()
        assert all(getattr(t, slot) is not None for slot in KEPT_SLOTS)
        after = (pickle.dumps(t), copy.copy(t), copy.deepcopy(t))
        assert after[0] == before[0]
        for other in (*before[1:], *after[1:], pickle.loads(after[0])):
            assert other == t and other is not t
            assert all(getattr(other, slot) is None for slot in KEPT_SLOTS)
            assert pickle.dumps(other) == before[0]

    def test_tables_are_kept_and_equal_fresh_ones(self):
        for t in (stubbed_path(6), single(3), *enumerate_halftrees(7)):
            fresh = HalfTree({v: t.ports(v) for v in t.vertices}, t.edges())
            for read in (
                lambda u: u.all_ports,
                lambda u: u.edges(),
                lambda u: u.half_edge_ports(),
                lambda u: u.edge_objects(),
                stratum_of,
            ):
                first = read(t)
                assert read(t) is first
                assert read(fresh) == first
            assert t.all_ports == tuple(p for v in t.vertices for p in t.ports(v))
            assert t.edge_objects() == tuple(sorted([*t.edges(), *((p,) for p in t.half_edge_ports())]))

    def test_labelings_and_relabeled_are_built_on_first_read(self, monkeypatch):
        walks = []
        walk = halftree._walk
        monkeypatch.setattr(halftree, "_walk", lambda *args: walks.append(args[2:]) or walk(*args))
        for t in (path3(), stubbed_path(6), single(4), *enumerate_halftrees(6)):
            t = copy.copy(t)
            cf = canonical_form(t)
            assert walks == []  # the string path reads its encoding off the tokens
            relabeled = cf.relabeled
            assert cf.relabeled is relabeled and walks == []
            labelings = cf.labelings
            assert len(walks) == len(labelings) == cf.automorphisms
            assert cf.labelings is labelings and len(walks) == cf.automorphisms
            assert repr(cf) == repr(oracles.canonical_form_reference(t))
            walks.clear()

    @pytest.mark.parametrize("t", [path(7), stubbed_path(9), star([[2, 0]] * 4)])
    def test_label_path_walks_one_flag_until_labelings_are_read(self, monkeypatch, t):
        monkeypatch.setattr(halftree, "_STRING_PORTS", 0)
        walks = []
        walk = halftree._walk
        monkeypatch.setattr(halftree, "_walk", lambda *args: walks.append(args[2:]) or walk(*args))
        t = copy.copy(t)
        cf = canonical_form(t)
        assert len(walks) == 1
        assert cf.relabeled is cf.relabeled and len(walks) == 1
        labelings = cf.labelings
        assert cf.labelings is labelings and len(walks) == 1 + cf.automorphisms
        assert repr(cf) == repr(oracles.canonical_form_reference(t))

    def test_form_is_frozen(self):
        for cf in (canonical_form(stubbed_path(4)), oracles.canonical_form_reference(stubbed_path(4))):
            for name in ("encoding", "automorphisms", "relabeled", "labelings", "_flags"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(cf, name, None)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(cf, name)
            with pytest.raises(AttributeError):
                cf.extra = 1
        with pytest.raises(TypeError):
            hash(cf)

    def test_form_equality_and_pickles_see_every_field(self):
        t = stubbed_path(5)
        cf, ref = canonical_form(t), oracles.canonical_form_reference(t)
        # a form pickled or copied before its labelings are built builds them later
        for other in (pickle.loads(pickle.dumps(cf)), copy.copy(cf), copy.deepcopy(cf)):
            assert repr(other) == repr(ref)
        assert cf == ref and cf is not ref and cf != cf.encoding
        assert dataclasses.asdict(cf) == dataclasses.asdict(ref)
        rotated = CanonicalForm(ref.encoding, ref.automorphisms, ref.relabeled, ref.labelings[::-1])
        assert (rotated == ref) is (len(ref.labelings) == 1)

    def test_form_keeps_no_index_and_no_tree(self):
        # what a form reaches, before and after its labelings are built: never
        # the tree (so no cycle through ``_canonical``) and no port index
        t = stubbed_path(6)
        index = {p: i for v in t.vertices for i, p in enumerate(t.ports(v))}
        cf = canonical_form(t)
        for read in (None, "labelings", "relabeled"):
            if read:
                getattr(cf, read)
            seen = reachable(cf)
            assert all(x is not t for x in seen)
            assert index not in [x for x in seen if isinstance(x, dict)]
        gc.collect()
        gc.disable()
        try:
            u = copy.copy(t)
            assert canonical_form(u).labelings and canonical_form(u).relabeled
            del u
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_invalid_tree_raises_every_time_and_keeps_nothing(self):
        invalid = (
            HalfTree({0: [0], 1: [1]}),
            HalfTree({0: [0, 1], 1: [2, 3]}, [(0, 2), (1, 3)]),
            HalfTree({0: [0], 1: []}),
            HalfTree({}),
        )
        for t in invalid:
            for _ in range(3):
                with pytest.raises(SkeletonError, match="cannot canonicalize"):
                    canonical_form(t)
                assert t._canonical is None

    def test_rooted_presentations_are_valid_by_construction(self):
        memo: dict = {}
        for n in range(1, 11):
            for entries in halftree._entry_seqs(n, memo):
                t = halftree._tree_from_rooted(entries)
                assert t._verdict is halftree._VALID
                assert halftree._diagnose(t) is halftree._VALID, entries
        # the empty sequence is a bare vertex, and is left to validate()
        t = halftree._tree_from_rooted(())
        assert t._verdict is None
        assert not validate(t).ok

    def test_unchecked_builders_make_what_the_constructor_makes(self):
        # every rooted presentation up to 10 ports, and the tree its preorder
        # encoding writes: each stored table, in order, as HalfTree() stores it
        def tables(t):
            return [list(t._vertices), list(t._ports.items()), list(t._pair.items()), list(t._vertex_of.items())]

        def encoding(entries):
            return "".join("-" if e is None else "(" + encoding(e) + ")" for e in entries)

        memo: dict = {}
        for n in range(1, 11):
            for entries in halftree._entry_seqs(n, memo):
                for t in (halftree._tree_from_rooted(entries), halftree._tree_from_encoding(encoding(entries))):
                    assert type(t) is HalfTree and t._canonical is None
                    checked = HalfTree(
                        {v: list(ps) for v, ps in t._ports.items()},
                        [(p, q) for p, q in t._pair.items() if p < q],
                    )
                    assert tables(t) == tables(checked), entries


class TestEnumeration:
    # n = 3 and n = 4 are the cylinder-diagram counts for genus two; the rest
    # are frozen after the labeled brute-force oracle agreed at n <= 6.
    FROZEN = {1: 1, 2: 2, 3: 2, 4: 4, 5: 5, 6: 12, 7: 19, 8: 46}

    def test_counts(self):
        for n, expect in self.FROZEN.items():
            assert len(enumerate_halftrees(n)) == expect

    def test_oracle_agreement(self):
        for n in range(1, 7):
            assert oracles.count_halftree_classes(n) == self.FROZEN[n]

    def test_results_valid_canonical_and_distinct(self):
        for n in range(1, 8):
            trees = enumerate_halftrees(n)
            encs = [canonical_form(t).encoding for t in trees]
            assert len(set(encs)) == len(trees)
            assert encs == sorted(encs)
            for t in trees:
                assert validate(t).ok
                assert t.n_ports == n

    def test_entry_grammar_equals_its_recursive_definition(self):
        shared, want_shared = {}, {}
        for n in range(12):
            want = oracles.entry_seqs_recursive(n, {})
            assert halftree._entry_seqs(n, {}) == want
            assert halftree._entry_seqs(n, shared) == oracles.entry_seqs_recursive(n, want_shared) == want
        # a shared memo hands back the list it keeps
        assert halftree._entry_seqs(11, shared) is shared[11]

    def test_presentation_of_a_deep_entry_sequence(self):
        entries: tuple = ()
        for _ in range(4999):
            entries = (entries,)
        assert halftree._tree_from_rooted(entries) == path(5000)

    def test_guard(self):
        with pytest.raises(SkeletonError):
            enumerate_halftrees(0)
        with pytest.raises(SkeletonError):
            enumerate_halftrees(13)
        assert len(enumerate_halftrees(13, limit=13)) > 0


class TestTreeMetrics:
    def test_bipartition(self):
        assert bipartition(path3()) == {0: 0, 1: 1, 2: 0}

    def test_bipartition_from_a_given_root(self):
        assert bipartition(path3(), 1) == {0: 1, 1: 0, 2: 1}
        with pytest.raises(SkeletonError, match="unknown vertex"):
            bipartition(path3(), 9)

    def test_bipartition_of_an_invalid_skeleton_raises(self):
        with pytest.raises(SkeletonError, match="invalid"):
            bipartition(HalfTree({0: [0], 1: [1]}))

    def test_bipartition_of_a_deep_path(self):
        n = 10**4
        t = path(n)
        start = time.perf_counter()
        sides = bipartition(t)
        elapsed = time.perf_counter() - start
        assert sides == {v: v % 2 for v in range(n)}
        assert elapsed < 1.0


class TestSerialization:
    def test_json_roundtrip(self):
        for t in (single(4), path3(), stub_pair()):
            assert halftree_from_json(halftree_to_json(t)) == t

    @pytest.mark.parametrize(
        "data",
        [
            [],
            {},
            {"vertices": [], "pairs": {}},
            {"vertices": [{"id": 0}], "pairs": []},
            {"vertices": [{"id": 0, "ports": [0]}, {"id": 0, "ports": [1]}], "pairs": []},
            {"vertices": [{"id": 0, "ports": 5}], "pairs": []},
            {"vertices": [{"id": [0], "ports": [0]}], "pairs": []},
            {"vertices": [{"id": 0, "ports": [0, 1]}], "pairs": [5]},
            {"vertices": [{"id": 0, "ports": [0, 1]}], "pairs": [[0]]},
            {"vertices": [{"id": 0, "ports": [0, 1]}], "pairs": [[[0], [1]]]},
            {"vertices": [{"id": True, "ports": [0]}], "pairs": []},
            {"vertices": [{"id": 0, "ports": [False, 1]}], "pairs": []},
            {"vertices": [{"id": 0, "ports": [0]}, {"id": 1, "ports": [1]}], "pairs": [[False, 1]]},
        ],
    )
    def test_malformed(self, data):
        with pytest.raises(SkeletonError):
            halftree_from_json(data)

    def test_dot_has_stub_points(self):
        dot = halftree_to_dot(stub_pair())
        assert "s1 [shape=point" in dot
        assert "v0 -- v1" in dot
