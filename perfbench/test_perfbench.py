"""Tests of the benchmark's own code: generators, span arithmetic, tail percentile.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import pytest  # noqa: E402

import flattree as ft  # noqa: E402
from flattree.halftree import _entry_seqs  # noqa: E402

import generators  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

MOTZKIN = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188]


def test_counts_match_rooted_presentations():
    counts = generators.presentation_counts(10)
    assert counts == MOTZKIN
    for n in range(1, 9):
        assert counts[n] == len(_entry_seqs(n, {}))


def test_sampled_trees_are_valid_with_requested_ports():
    counts = generators.presentation_counts(40)
    rng = random.Random(11)
    for n in list(range(1, 13)) + [16, 32, 40]:
        for _ in range(5):
            t = generators.sample_halftree(n, rng, counts)
            assert t.n_ports == n
            assert ft.validate(t).ok


def test_sampler_reaches_every_presentation_uniformly():
    n, draws = 4, 1800
    counts = generators.presentation_counts(n)
    rng = random.Random(3)
    seen: dict[tuple, int] = {}
    for _ in range(draws):
        e = generators.sample_entries(n, rng, counts)
        seen[e] = seen.get(e, 0) + 1
    assert set(seen) == set(_entry_seqs(n, {}))
    expected = draws / counts[n]
    assert all(0.7 * expected < k < 1.3 * expected for k in seen.values())


def test_tree_from_entries_matches_library_presentations():
    for entries in _entry_seqs(6, {}):
        if entries:
            t = generators.tree_from_entries(entries)
            assert t.n_ports == 6 and ft.validate(t).ok


def test_generated_blueprints_pull_back():
    rng = random.Random(5)
    grid = generators.blueprint_grid(1)
    sampled = generators.sample_blueprints(grid, rng)
    assert len(sampled) == len(grid)
    for name, b, s in sampled:
        assert ft.surfaces_isomorphic(s, ft.pullback(b)), name
        q = ft.quotient(s, *ft.fiber_partitions(b))
        assert q.degree == generators.blueprint_degree(b), name


def test_generators_are_deterministic_per_seed():
    counts = generators.presentation_counts(32)

    def draw(seed):
        rng = random.Random(seed)
        trees = [generators.sample_halftree(32, rng, counts) for _ in range(4)]
        return trees, generators.sample_blueprints(generators.blueprint_grid(1)[::7], rng)

    assert draw(9) == draw(9)
    assert draw(9) != draw(10)


@pytest.mark.parametrize("name", sorted(ft.builtin_blueprints()))
def test_perturbed_candidates_are_rejected(name):
    b = ft.builtin_blueprints()[name]
    s = ft.pullback(b)
    cp, sp = ft.fiber_partitions(b)
    bad_cp, bad_sp, cond = generators.perturbed_partitions(s, cp, sp, random.Random(1))
    report = ft.check_candidate(s, ft.CylinderPartition.of(bad_cp), ft.SaddlePartition.of(bad_sp))
    assert not report.checks[cond]
    with pytest.raises(ft.CoverError):
        ft.quotient(s, ft.CylinderPartition.of(bad_cp), ft.SaddlePartition.of(bad_sp))


def test_self_times_on_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [tracing.NO_PARENT, 0, 1, 0]
    assert tracing.self_times(start, end, parent) == [3.0, 2.0, 1.0, 4.0]


def test_traced_enumeration_counts_and_restore():
    original = ft.enumerate_halftrees
    rec = tracing.SpanRecorder()
    restore = tracing.install(rec)
    try:
        assert ft.enumerate_halftrees is not original
        with rec:
            ft.enumerate_halftrees(4)
    finally:
        restore()
    assert ft.enumerate_halftrees is original
    m = tracing.layer_metrics(rec)
    assert m["halftree.enumerate_halftrees.calls"][0] == 1
    assert m["halftree.enumerate_halftrees.classes"][0] == 4
    # 9 rooted presentations with 4 ports, one canonical form each
    assert m["halftree.canonical_form.calls"][0] == 9
    assert m["halftree.enumerate_halftrees.yield"][0] == pytest.approx(4 / 9)
    assert m["halftree.validate.calls"][0] >= 9
    spans = sum(m[f"{name}.self_s"][0] for name in tracing.SPAN_METRICS)
    root = rec.end[0] - rec.start[0]
    assert spans == pytest.approx(root)


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0])[0] == 3.0
    values = [float(i) for i in range(100)]
    assert run.tail(values)[0] == 89.0
    values = [float(i) for i in range(50)]
    assert run.tail(values)[0] == 39.0
