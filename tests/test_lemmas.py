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
from flattree.cli import main
from flattree.lemmas import (
    _all_trees,
    _gaps_agree,
    _interval_masks,
    _interval_systems,
    _max_graph_is_forest,
    _restricted_growth_strings,
    _tree_code,
    neighbor_sets_homogeneous,
)


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
        assert (0, 0, 2, 2, 4, 4) not in set(_interval_systems(6))

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
        assert list(_interval_systems(n)) == list(oracles.interval_systems_recursive(n))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_forest_check_matches_reference_on_every_system(self, n):
        masks = _interval_masks(n)
        for k in _interval_systems(n):
            assert _max_graph_is_forest(k, masks) == oracles.max_graph_is_forest_pairs(n, k), k

    @pytest.mark.parametrize("n", range(1, 10))
    def test_forest_check_matches_reference_off_systems(self, n):
        rng = random.Random(1000 + n)
        systems = set(_interval_systems(n))
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
        monkeypatch.setattr("flattree.lemmas.neighbor_sets_homogeneous", lambda adj, c: True)
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


class TestFrozenDefaultReports:
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
                "details": {
                    "1": 1, "2": 4, "3": 6, "4": 80,
                    "5": 510, "6": 2562, "7": 11676, "8": 50976,
                },
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
        assert "forest" in rep.summary()

    def test_all_reports_serializable(self):
        import json

        for rep in (
            verify_interval_lemma(4),
            verify_balls_lemma(5, 3),
            verify_colored_tree_lemma(5, 3),
        ):
            json.dumps(rep.to_json())
