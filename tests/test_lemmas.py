import collections
import functools
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import flattree
import oracles
from flattree import (
    verify_balls_lemma,
    verify_colored_tree_lemma,
    verify_interval_lemma,
)
from flattree import lemmas
from flattree.cli import main
from flattree.lemmas import (
    _all_trees,
    _completion_counts,
    _gaps_agree,
    _interval_masks,
    _interval_walk,
    _max_graph_is_forest,
    _rotated,
    _spaced_colorings,
    _tree_code,
)
from oracles import neighbor_sets_homogeneous
from oracles import restricted_growth_strings as _restricted_growth_strings


class TestIntervalLemma:
    def test_holds_at_default_scale(self):
        rep = verify_interval_lemma(6)
        assert rep.holds and rep.counterexample is None

    def test_system_counts_frozen(self):
        rep = verify_interval_lemma(6)
        assert rep.details == {"1": 1, "2": 4, "3": 6, "4": 80, "5": 510, "6": 2562}

    def test_double_winding_anchors_rejected(self):
        # satisfies the pairwise one-point intersections but wraps the circle
        # twice, carrying a triangle; no cylinder boundary produces it
        assert (0, 0, 2, 2, 4, 4) not in set(oracles.interval_systems(6))

    def test_oracle_every_admissible_graph_is_forest(self):
        for n in range(1, 6):
            for edges in oracles.interval_admissible_graphs(n):
                assert oracles.is_forest(n, edges)

    def test_oracle_finds_nontrivial_graphs(self):
        graphs = list(oracles.interval_admissible_graphs(4))
        assert any(len(e) >= 3 for e in graphs)


class TestIntervalKernels:
    """The iterative enumerator and bitmask forest check against the recursive reference."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_enumeration_order_matches_reference(self, n):
        assert list(oracles.interval_systems(n)) == list(oracles.interval_systems_recursive(n))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_forest_check_matches_reference_on_every_system(self, n):
        masks = _interval_masks(n)
        for k in oracles.interval_systems(n):
            assert _max_graph_is_forest(k, masks) == oracles.max_graph_is_forest_pairs(n, k), k

    @pytest.mark.parametrize("n", range(1, 10))
    def test_forest_check_matches_reference_off_systems(self, n):
        rng = random.Random(1000 + n)
        systems = set(oracles.interval_systems(n))
        masks = _interval_masks(n)
        cycles = 0
        for _ in range(5000):
            k = tuple(rng.randrange(n) for _ in range(n))
            if k in systems:
                continue
            got = _max_graph_is_forest(k, masks)
            assert got == oracles.max_graph_is_forest_pairs(n, k), k
            cycles += not got[0]
        # random anchor vectors wind several times and do close cycles
        assert n < 4 or cycles > 0

    def test_double_winding_triangle(self):
        k = (0, 0, 2, 2, 4, 4)
        got = _max_graph_is_forest(k, _interval_masks(6))
        assert got == oracles.max_graph_is_forest_pairs(6, k)
        assert got == (False, (2, 4))

    def test_masks_are_cyclic_intervals(self):
        masks = _interval_masks(5)
        # masks[end][start]
        assert masks[3][3] == 0b01000
        assert masks[0][3] == 0b00001 | 0b01000 | 0b10000
        assert masks[4][0] == 0b11111
        assert masks[1][2] == 0b11111


def _rotl(bits: int, n: int) -> int:
    """Rotate an ``n``-bit label set one place up: label ``i`` becomes ``i + 1 mod n``."""
    return (bits << 1 | bits >> (n - 1)) & ((1 << n) - 1)


def _length_vector(k: tuple[int, ...]) -> tuple[int, ...]:
    """``(len_1, .., len_{n-1}, len_0)`` with ``len_i = (k[i-1] - k[i]) % n``."""
    n = len(k)
    return tuple((k[i - 1] - k[i]) % n for i in (*range(1, n), 0))


def _is_necklace(word: tuple[int, ...]) -> bool:
    return word == min(word[r:] + word[:r] for r in range(len(word)))


def _least_period(word: tuple[int, ...]) -> int:
    return next(p for p in range(1, len(word) + 1) if word == word[p:] + word[:p])


class TestIntervalSymmetry:
    """The sweep walks one representative per rotation class and weights it by its period."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_masks_are_rotation_equivariant(self, n):
        for masks in (_interval_masks(n), _widened_masks(n), _skipping_masks(n)):
            for end in range(n):
                for start in range(n):
                    rotated = masks[(end + 1) % n][(start + 1) % n]
                    assert rotated == _rotl(masks[end][start], n), (end, start)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_representatives_expand_to_every_system_once(self, n):
        expanded = collections.Counter()
        for k, _, weight in _interval_walk(n):
            word = _length_vector(k)
            assert _is_necklace(word), k
            assert _least_period(word) == weight and n % weight == 0, k
            expanded.update(_rotated(k, r) for r in range(weight))
        reference = collections.Counter(oracles.interval_systems_recursive(n))
        assert set(reference.values()) == {1}
        assert expanded == reference


class TestBallsKernels:
    """The iterative enumerator and spacing-prefiltered gap check against the reference."""

    @pytest.mark.parametrize("n", range(0, 12))
    def test_enumeration_order_matches_reference(self, n):
        for m in range(0, 6):
            got = list(_restricted_growth_strings(n, m))
            assert got == list(oracles.restricted_growth_strings_recursive(n, m)), m

    @pytest.mark.parametrize("n", range(1, 12))
    def test_gap_check_matches_reference_on_every_coloring(self, n):
        # colorings with fewer than five colors are a subset of these
        for colors in _restricted_growth_strings(n, 5):
            m = max(colors) + 1
            assert _gaps_agree(colors, m) == oracles.gaps_agree_counter(colors, m), colors

    def test_gap_check_with_partial_palette(self):
        # only colors below m are tested, but gaps count every color
        for n in range(1, 9):
            for colors in _restricted_growth_strings(n, 4):
                for m in range(0, 5):
                    assert _gaps_agree(colors, m) == oracles.gaps_agree_counter(colors, m)

    def test_spacing_is_necessary_not_sufficient(self):
        # evenly spaced 0s, but the two gaps hold different colors
        assert not _gaps_agree((0, 1, 0, 2), 3)
        assert _gaps_agree((0, 1, 0, 1), 2)


class TestBallsLemma:
    def test_holds_at_default_scale(self):
        rep = verify_balls_lemma(8, 4)
        assert rep.holds

    def test_hypothesis_matches_naive_checker(self):
        for n in range(1, 7):
            for colors in _restricted_growth_strings(n, 3):
                m = max(colors) + 1
                assert _gaps_agree(colors, m) == oracles.balls_hypothesis_naive(colors)

    def test_hypothesis_held_count_matches_naive(self):
        rep = verify_balls_lemma(6, 3)
        naive = sum(
            1
            for n in range(1, 7)
            for colors in _restricted_growth_strings(n, 3)
            if oracles.balls_hypothesis_naive(colors)
        )
        assert rep.details["hypothesis_held"] == naive

    def test_known_instances(self):
        assert oracles.balls_hypothesis_naive((0, 1, 0, 1))
        assert oracles.balls_conclusion((0, 1, 0, 1))
        assert not oracles.balls_hypothesis_naive((0, 1, 2, 0))

    def test_rgs_counts(self):
        # surjective colorings up to renaming = sum of Stirling numbers
        assert len(list(_restricted_growth_strings(4, 4))) == 15
        assert len(list(_restricted_growth_strings(5, 2))) == 16


class TestColoredTreeLemma:
    def test_holds_at_default_scale(self):
        rep = verify_colored_tree_lemma(7, 4)
        assert rep.holds

    def test_tree_counts(self):
        rep = verify_colored_tree_lemma(6, 3)
        assert rep.details["trees"] == 1 + 1 + 1 + 2 + 3 + 6

    def test_odd_distance_check_fires_without_the_hypothesis(self, monkeypatch):
        monkeypatch.setattr("flattree.lemmas._closing_masks", lambda masks, group, c: masks)
        rep = verify_colored_tree_lemma(4, 3)
        assert not rep.holds
        ce = rep.counterexample
        adj = {int(a): bs for a, bs in ce["adjacency"].items()}
        v, w = ce["odd_pair"]
        assert ce["coloring"][str(v)] == ce["coloring"][str(w)]
        dist = {v: 0}
        queue = [v]
        for a in queue:
            for b in adj[a]:
                if b not in dist:
                    dist[b] = dist[a] + 1
                    queue.append(b)
        assert dist[w] % 2 == 1

    def test_homogeneity_helper(self):
        path4 = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}
        assert neighbor_sets_homogeneous(path4, {0: 0, 1: 1, 2: 0, 3: 1})
        assert not neighbor_sets_homogeneous(path4, {0: 0, 1: 1, 2: 2, 3: 1})

    def test_naive_labeled_sweep(self):
        # direct product enumeration over labeled trees, no RGS symmetry
        for n in range(1, 6):
            for adj in oracles.labeled_trees(n):
                dist = {}
                for s in adj:
                    dist[(s, s)] = 0
                    frontier = [s]
                    while frontier:
                        nxt = []
                        for v in frontier:
                            for w in adj[v]:
                                if (s, w) not in dist:
                                    dist[(s, w)] = dist[(s, v)] + 1
                                    nxt.append(w)
                        frontier = nxt
                for colors in itertools.product(range(3), repeat=n):
                    coloring = dict(enumerate(colors))
                    if any(coloring[a] == coloring[b] for a in adj for b in adj[a]):
                        continue
                    if not neighbor_sets_homogeneous(adj, coloring):
                        continue
                    for a in adj:
                        for b in adj:
                            if a < b and coloring[a] == coloring[b]:
                                assert dist[(a, b)] % 2 == 0


class TestTreeGenerator:
    def test_class_counts(self):
        assert [len(_all_trees(n)) for n in range(1, 9)] == [1, 1, 1, 2, 3, 6, 11, 23]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_pruefer_reference(self, n):
        # over every labeled tree, the centre code and the all-roots reference
        # code must split the trees into the same classes
        codes = {
            (oracles.unrooted_tree_code(adj), _tree_code(adj)) for adj in oracles.labeled_trees(n)
        }
        reference = {ref for ref, _ in codes}
        assert len(reference) == len({own for _, own in codes}) == len(codes)
        trees = _all_trees(n)
        assert len(trees) == len(reference)
        assert {oracles.unrooted_tree_code(adj) for adj in trees} == reference
        for adj in trees:
            assert list(adj) == list(range(n))
            assert all(ws == sorted(ws) and all(v in adj[w] for w in ws) for v, ws in adj.items())
            assert sum(len(ws) for ws in adj.values()) == 2 * (n - 1)
            reached = [0]
            for v in reached:
                reached.extend(w for w in adj[v] if w not in reached)
            assert len(reached) == n

    def test_no_networkx_import(self):
        src = Path(flattree.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        code = (
            "import sys, flattree; flattree.verify_colored_tree_lemma(); "
            "print('networkx' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert done.stdout.strip() == "False"


# interval systems per n at the default bound, max_n = 8
_INTERVAL_SYSTEMS = {"1": 1, "2": 4, "3": 6, "4": 80, "5": 510, "6": 2562, "7": 11676, "8": 50976}


class TestFrozenDefaultReports:
    def test_interval_report_at_nine(self):
        # the larger bounds the README quotes
        rep = verify_interval_lemma(9)
        assert rep.holds and rep.counterexample is None
        assert rep.details == {**_INTERVAL_SYSTEMS, "9": 218070}
        assert rep.cases_checked == 283885

    def test_cli_default_bounds_reports(self, capsys):
        # with test_criterion_5_lemma_exhaustion, guards against a sweep that
        # silently checks fewer cases
        assert main(["verify", "lemmas"]) == 0
        payload = json.loads(capsys.readouterr().out)
        reports = {c["name"]: c["report"] for c in payload["checks"]}
        assert reports == {
            "circular-balls-periodicity": {
                "lemma": "circular-balls-periodicity",
                "bounds": {"max_n": 10, "max_m": 4},
                "cases_checked": 58769,
                "holds": True,
                "counterexample": None,
                "details": {"hypothesis_held": 20},
            },
            "interval-forest": {
                "lemma": "interval-forest",
                "bounds": {"max_n": 8},
                "cases_checked": 65815,
                "holds": True,
                "counterexample": None,
                "details": _INTERVAL_SYSTEMS,
            },
            "colored-tree-even-distance": {
                "lemma": "colored-tree-even-distance",
                "bounds": {"max_vertices": 8, "max_colors": 4},
                "cases_checked": 10039,
                "holds": True,
                "counterexample": None,
                "details": {"trees": 48, "hypothesis_held": 693},
            },
        }


class TestReports:
    def test_report_shapes(self):
        rep = verify_interval_lemma(4)
        js = rep.to_json()
        assert js["holds"] is True
        assert "elapsed" not in js and "elapsed_seconds" not in js

    def test_all_reports_serializable(self):
        import json

        for rep in (
            verify_interval_lemma(4),
            verify_balls_lemma(5, 3),
            verify_colored_tree_lemma(5, 3),
        ):
            json.dumps(rep.to_json())


# -- prefix decisions ------------------------------------------------------------


def _widened_masks(n: int) -> list[list[int]]:
    """Every cyclic interval of :func:`_interval_masks` plus the point past its end."""
    masks = _interval_masks(n)  # the module's own binding, which monkeypatching leaves alone
    return [[masks[end][start] | 1 << (end + 1) % n for start in range(n)] for end in range(n)]


def _skipping_masks(n: int) -> list[list[int]]:
    """Every cyclic interval of :func:`_interval_masks` plus the point two past its end."""
    masks = _interval_masks(n)
    return [[masks[end][start] | 1 << (end + 2) % n for start in range(n)] for end in range(n)]


def _spacing_only(colors: tuple[int, ...], m: int) -> bool:
    """The spacing half of :func:`_gaps_agree`: necessary, and weaker than the gap test."""
    n = len(colors)
    for c in range(m):
        q = colors.count(c)
        if q < 2:
            continue
        if n % q:
            return False
        d = n // q
        if colors[colors.index(c) :: d].count(c) != q:
            return False
    return True


def _bfs_colorings(adj: dict[int, list[int]], bfs: list[int], max_colors: int):
    """Proper restricted-growth colorings in BFS order, by plain recursion."""
    coloring: dict[int, int] = {}

    def extend(idx: int, used: int):
        if idx == len(bfs):
            yield dict(coloring)
            return
        v = bfs[idx]
        for c in range(min(used + 1, max_colors)):
            if all(coloring.get(w) != c for w in adj[v]):
                coloring[v] = c
                yield from extend(idx + 1, max(used, c + 1))
                del coloring[v]

    yield from extend(0, 0)


def _path(n: int) -> dict[int, list[int]]:
    return {v: [w for w in (v - 1, v + 1) if 0 <= w < n] for v in range(n)}


def _bfs(adj: dict[int, list[int]]) -> list[int]:
    order = [min(adj)]
    for v in order:
        order.extend(w for w in adj[v] if w not in order)
    return order


class TestCompletionCounts:
    @pytest.mark.parametrize("m", range(0, 6))
    def test_restricted_growth_table_counts_completions(self, m):
        table = _completion_counts(10, m, 0)
        for n in range(0, 11):
            strings = list(_restricted_growth_strings(n, m))
            assert table[n][0] == len(strings)
            for p in range(n + 1):
                groups = collections.Counter(s[:p] for s in strings)
                for prefix, count in groups.items():
                    assert table[n - p][max(prefix, default=-1) + 1] == count, (n, prefix)

    @pytest.mark.parametrize("max_colors", range(0, 6))
    def test_tree_table_counts_proper_completions(self, max_colors):
        table = _completion_counts(10, max_colors, 1)
        assert table[0][0] == 1  # the empty tree has one (empty) coloring
        for n in range(1, 11):
            # the count depends on n only: try the path, the star and one more shape
            trees = _all_trees(n)
            star = {0: list(range(1, n)), **{v: [0] for v in range(1, n)}}
            shapes = [_path(n), star, trees[len(trees) // 2]]
            for adj in shapes:
                bfs = _bfs(adj)
                colorings = list(_bfs_colorings(adj, bfs, max_colors))
                assert table[n][0] == len(colorings)
                for p in range(1, n + 1):
                    groups = collections.Counter(tuple(c[v] for v in bfs[:p]) for c in colorings)
                    for prefix, count in groups.items():
                        assert table[n - p][max(prefix) + 1] == count, (n, prefix)


class TestPrefixPruning:
    @pytest.mark.parametrize("n", range(0, 10))
    def test_balls_walk_expands_to_every_coloring(self, n):
        # surviving leaves plus the completions of each cut prefix, in order, are
        # exactly the restricted-growth strings; no completion of a cut prefix
        # passes the gap test, and every surviving leaf is evenly spaced
        for m in range(0, 6):
            table = _completion_counts(n, m, 0)
            everything = list(_restricted_growth_strings(n, m))
            expanded = []
            for colors, spaced in _spaced_colorings(n, m):
                if spaced:
                    assert len(colors) == n and _spacing_only(colors, m)
                    expanded.append(colors)
                    continue
                below = [s for s in everything if s[: len(colors)] == colors]
                assert len(below) == table[n - len(colors)][max(colors) + 1]
                for s in below:
                    assert not _spacing_only(s, max(s) + 1)
                    assert not oracles.gaps_agree_counter(s, max(s) + 1), s
                expanded.extend(below)
            assert expanded == everything, m

    @pytest.mark.parametrize("n", range(1, 9))
    def test_tree_prefixes_cut_only_failing_colorings(self, n, monkeypatch):
        # each cut is a None from the closure check before the last BFS
        # position; every full coloring that agrees with the prefix on the
        # vertices closed there and their neighbors must fail the hypothesis
        original = lemmas._closing_masks
        total = 0
        for adj in _all_trees(n):
            cuts = []
            pos = {v: i for i, v in enumerate(_bfs(adj))}

            def recording(masks, group, coloring, adj=adj, cuts=cuts, pos=pos):
                verdict = original(masks, group, coloring)
                at = max(pos[w] for v, ws in group for w in (v, *ws))
                if verdict is None and at < len(adj) - 1:
                    closed = [v for v in adj if all(pos[w] <= at for w in (v, *adj[v]))]
                    seen = {w for v in closed for w in (v, *adj[v])}
                    cuts.append({v: coloring[v] for v in seen})
                return verdict

            def only_this_tree(m, adj=adj):
                return ([adj] if k == len(adj) else [] for k in range(1, m + 1))

            monkeypatch.setattr(lemmas, "_tree_levels", only_this_tree)
            monkeypatch.setattr(lemmas, "_closing_masks", recording)
            got = lemmas.verify_colored_tree_lemma(n, 4)
            monkeypatch.setattr(lemmas, "_closing_masks", original)
            ref = oracles.verify_colored_tree_lemma_reference(n, 4)
            assert got.to_json() == ref.to_json()
            colorings = list(_bfs_colorings(adj, _bfs(adj), 4))
            total += len(cuts)
            for cut in cuts:
                below = [c for c in colorings if all(c[v] == x for v, x in cut.items())]
                assert below
                assert not any(neighbor_sets_homogeneous(adj, c) for c in below), cut
        assert n < 5 or total

    @pytest.mark.parametrize("n", range(1, 8))
    def test_closing_masks_agree_with_the_reference_predicate(self, n):
        # on every prefix of every BFS coloring, the masks carried through the
        # closing groups survive exactly when the closed vertices are homogeneous
        for adj in _all_trees(n):
            bfs = _bfs(adj)
            groups = lemmas._closing_groups(adj, bfs)
            for full in _bfs_colorings(adj, bfs, 4):
                coloring = [full[v] for v in range(n)]
                masks = [0] * 4
                for i, group in enumerate(groups):
                    if masks is not None and group:
                        before, kept = masks, list(masks)
                        masks = lemmas._closing_masks(before, group, coloring)
                        assert before == kept  # the walk reuses it for the next color
                    closed = {v: adj[v] for g in groups[: i + 1] for v, _ in g}
                    want = neighbor_sets_homogeneous(closed, coloring)
                    assert (masks is not None) == want, (adj, full, i)

    def test_closing_masks_tell_a_vertex_seeing_nothing_from_no_vertex(self):
        # in a tree only a lone vertex sees no color; the presence bit keeps
        # the check right for it in any graph
        closed = {0: [], 1: [2]}
        for coloring in ([0, 0, 1], [0, 1, 0]):
            got = lemmas._closing_masks([0, 0], tuple(closed.items()), coloring)
            assert (got is not None) == neighbor_sets_homogeneous(closed, coloring)
        assert lemmas._closing_masks([0, 0], ((0, []),), [1]) == [0, 1]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_interval_walk_verdicts(self, n, monkeypatch):
        for widen in (False, True):
            if widen:
                monkeypatch.setattr(lemmas, "_interval_masks", _widened_masks)
            masks = lemmas._interval_masks(n)
            for k, forest, _ in _interval_walk(n):
                # every rotation of a representative shares its verdict
                for r in range(n):
                    assert forest == _max_graph_is_forest(_rotated(k, r), masks)[0], (k, r)


class TestFaultInjection:
    """Kernels broken on purpose, so the counterexample paths run."""

    def test_widened_intervals_close_cycles(self, monkeypatch):
        monkeypatch.setattr(lemmas, "_interval_masks", _widened_masks)
        # cycles already among labels 1..n-2, which a prefix fixes, exist
        cyclic_prefixes = 0
        masks = _widened_masks(7)
        for k in oracles.interval_systems(7):
            inside = [masks[k[i - 1]][k[i]] for i in range(7)]
            edges = [
                (i, j)
                for i in range(1, 6)
                for j in range(i + 1, 6)
                if inside[i] >> j & 1 and inside[j] >> i & 1
            ]
            cyclic_prefixes += not oracles.is_forest(7, edges)
        assert cyclic_prefixes > 0
        for max_n in (3, 6, 8):
            got = verify_interval_lemma(max_n)
            assert not got.holds
            assert got.to_json() == oracles.verify_interval_lemma_reference(max_n).to_json()
        assert got.counterexample == {"n": 3, "anchors": [0, 2, 1], "cycle_edge": [1, 2]}

    def test_counterexample_off_the_representatives(self, monkeypatch):
        # the fault keeps the rotation symmetry, but its first counterexample has a
        # length vector that is not a necklace, so no representative is it
        monkeypatch.setattr(lemmas, "_interval_masks", _skipping_masks)
        for max_n in (4, 6, 8):
            got = verify_interval_lemma(max_n)
            assert not got.holds
            assert got.to_json() == oracles.verify_interval_lemma_reference(max_n).to_json()
        assert got.counterexample == {"n": 4, "anchors": [0, 2, 2, 1], "cycle_edge": [1, 3]}
        assert not _is_necklace(_length_vector((0, 2, 2, 1)))
        failing = [k for k, forest, _ in _interval_walk(4) if not forest]
        assert failing and (0, 2, 2, 1) not in failing

    def test_spacing_only_gap_test_admits_a_non_periodic_coloring(self, monkeypatch):
        assert _spacing_only((0, 1, 0, 2), 3) and not _gaps_agree((0, 1, 0, 2), 3)
        monkeypatch.setattr(lemmas, "_gaps_agree", _spacing_only)
        for max_n, max_m in ((4, 3), (9, 5), (10, 4)):
            got = verify_balls_lemma(max_n, max_m)
            assert not got.holds
            assert got.to_json() == oracles.verify_balls_lemma_reference(max_n, max_m).to_json()
        assert got.counterexample == {"n": 4, "colors": [0, 1, 0, 2], "period": 3}


class TestAgainstReferenceSweeps:
    @pytest.mark.parametrize("max_n", range(-1, 9))
    def test_interval(self, max_n):
        got = verify_interval_lemma(max_n).to_json()
        assert got == oracles.verify_interval_lemma_reference(max_n).to_json()

    @pytest.mark.parametrize("max_n", range(-1, 11))
    def test_balls(self, max_n):
        for max_m in range(-1, 6):
            got = verify_balls_lemma(max_n, max_m).to_json()
            assert got == oracles.verify_balls_lemma_reference(max_n, max_m).to_json()

    @pytest.mark.parametrize("max_vertices", range(-1, 9))
    def test_trees(self, max_vertices):
        for max_colors in range(-1, 6):
            got = verify_colored_tree_lemma(max_vertices, max_colors).to_json()
            ref = oracles.verify_colored_tree_lemma_reference(max_vertices, max_colors)
            assert got == ref.to_json()


@functools.lru_cache(maxsize=None)
def _reference_report(lemma: str, bounds: tuple[tuple[str, int], ...]) -> dict:
    sweep = {
        "circular-balls-periodicity": oracles.verify_balls_lemma_reference,
        "colored-tree-even-distance": oracles.verify_colored_tree_lemma_reference,
        "interval-forest": oracles.verify_interval_lemma_reference,
    }[lemma]
    return sweep(**dict(bounds)).to_json()


class TestEdgeBounds:
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--balls-m", "0"),
            ("--balls-m", "-1"),
            ("--balls-n", "0"),
            ("--tree-vertices", "0"),
            ("--tree-colors", "0"),
            ("--tree-colors", "-1"),
            ("--interval-n", "0"),
            ("--interval-n", "-1"),
        ],
    )
    def test_cli_reports_match_reference(self, flag, value, capsys):
        assert main(["verify", "lemmas", flag, value]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] and payload["failures"] == 0
        for check in payload["checks"]:
            report = check["report"]
            bounds = tuple(sorted(report["bounds"].items()))
            assert report == _reference_report(report["lemma"], bounds)
        reports = [c["report"] for c in payload["checks"]]
        changed = [r for r in reports if int(value) in r["bounds"].values()]
        assert changed and all(r["cases_checked"] == 0 for r in changed)
