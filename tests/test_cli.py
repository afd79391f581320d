"""Command line front end: exit codes, determinism, artifact shapes."""

import copy
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from flattree import (
    HalfTree,
    builtin_blueprints,
    fiber_partitions,
    partitions_to_json,
    pullback,
    random_metric,
    surface_to_json,
    surfaces_isomorphic,
    surface_from_json,
)
from flattree import cli
from flattree.cli import main

PATH3 = {
    "vertices": [
        {"id": 0, "ports": [0]},
        {"id": 1, "ports": [1, 2]},
        {"id": 2, "ports": [3]},
    ],
    "pairs": [[0, 1], [2, 3]],
}

PATH3_SURFACE = {
    **PATH3,
    "lengths": {"0": "2", "1": "2", "2": "1", "3": "1"},
    "heights": {"0": "1", "1": "1/2", "2": "3"},
    "twists": {"0": "0", "1": "0", "2": "0"},
}


def write(tmp_path: Path, name: str, data) -> str:
    p = tmp_path / name
    p.write_text(json.dumps(data) if not isinstance(data, str) else data)
    return str(p)


def run(*argv, capsys=None) -> tuple[int, str]:
    rc = main(list(argv))
    if capsys is None:
        return rc, ""
    return rc, capsys.readouterr().out


class TestEnumerate:
    @pytest.mark.parametrize("ports,count", [(1, 1), (3, 2), (4, 4)])
    def test_counts(self, ports, count, capsys):
        rc, out = run("enumerate", "--ports", str(ports), capsys=capsys)
        lines = out.strip().splitlines()
        assert rc == 0
        assert lines[0] == str(count)
        assert len(lines) == count + 1

    def test_json_listing(self, tmp_path):
        out = tmp_path / "enum.json"
        rc, _ = run("enumerate", "--ports", "4", "--json", "--output", str(out))
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["count"] == 4
        assert {c["stratum"] for c in data["classes"]} == {"H^hyp(1,1)"}

    def test_dot_output_has_stub_nodes(self, capsys):
        rc, out = run("enumerate", "--ports", "3", "--dot", capsys=capsys)
        assert rc == 0
        assert out.count("graph class") == 2
        assert "shape=point" in out

    def test_json_and_dot_together_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--ports", "3", "--json", "--dot"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "not allowed with argument" in captured.err

    def test_zero_ports_is_usage_error(self):
        rc, _ = run("enumerate", "--ports", "0")
        assert rc == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--bogus"])
        assert exc.value.code == 2

    def test_no_subcommand_exits_2(self):
        assert main([]) == 2

    # the default --limit is the library guard, 12
    @pytest.mark.parametrize("argv", [["--ports", "13"], ["--ports", "5", "--limit", "4"]])
    def test_above_guard_is_refused_before_enumerating(self, argv, capsys, monkeypatch):
        import flattree.halftree

        def no_work(*args):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(flattree.halftree, "_entry_seqs", no_work)
        rc = main(["enumerate", *argv])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.count("error:") == 1 and "guard" in captured.err


class TestBuild:
    def test_seeded_build_from_skeleton(self, tmp_path):
        src = write(tmp_path, "skel.json", PATH3)
        out = tmp_path / "s.json"
        rc, _ = run("build", src, "--seed", "7", "--output", str(out))
        assert rc == 0
        s = surface_from_json(json.loads(out.read_text()))
        assert set(s.skeleton.vertices) == {0, 1, 2}

    def test_builds_are_byte_identical(self, tmp_path):
        src = write(tmp_path, "skel.json", PATH3)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("build", src, "--seed", "7", "--output", str(a))
        run("build", src, "--seed", "7", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_different_surface(self, tmp_path):
        src = write(tmp_path, "skel.json", PATH3)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("build", src, "--seed", "7", "--output", str(a))
        run("build", src, "--seed", "8", "--output", str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_surface_json_passes_through(self, tmp_path):
        src = write(tmp_path, "s.json", PATH3_SURFACE)
        out = tmp_path / "out.json"
        rc, _ = run("build", src, "--output", str(out))
        assert rc == 0
        again = surface_from_json(json.loads(out.read_text()))
        assert again.lengths[0] == 2

    def test_skeleton_without_seed_is_usage_error(self, tmp_path):
        src = write(tmp_path, "skel.json", PATH3)
        rc, _ = run("build", src)
        assert rc == 2

    def test_missing_file_is_usage_error(self, tmp_path):
        rc, _ = run("build", str(tmp_path / "absent.json"))
        assert rc == 2

    def test_corrupted_surface_fails_with_1(self, tmp_path):
        bad = dict(PATH3_SURFACE)
        bad["lengths"] = {**bad["lengths"], "0": "5"}  # breaks the pairing isometry
        src = write(tmp_path, "bad.json", bad)
        rc, _ = run("build", src)
        assert rc == 1

    def test_unparseable_file_fails_with_1(self, tmp_path):
        src = write(tmp_path, "garbage.json", "{not json")
        rc, _ = run("build", src)
        assert rc == 1

    @pytest.mark.parametrize("command", ["build", "pipeline"])
    def test_invalid_skeleton_is_reported_as_the_input(self, tmp_path, capsys, command):
        # two cylinders and no pair: the full-edge graph is disconnected
        skeleton = {"vertices": [{"id": 0, "ports": [0]}, {"id": 1, "ports": [1]}], "pairs": []}
        if command == "build":
            rc = main(["build", write(tmp_path, "skel.json", skeleton), "--seed", "1"])
        else:
            script = {"steps": [{"op": "build", "skeleton": skeleton, "seed": 1}]}
            rc = main(["pipeline", write(tmp_path, "script.json", script), "--outdir", str(tmp_path / "a")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "invalid skeleton: full-edge graph is disconnected" in err
        assert "canonicalize" not in err


class TestProfile:
    def test_profile_fields(self, tmp_path):
        src = write(tmp_path, "s.json", PATH3_SURFACE)
        out = tmp_path / "p.json"
        rc, _ = run("profile", src, "--output", str(out))
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["stratum"] == "H^hyp(1,1)"
        assert data["orders"] == [1, 1]
        assert data["weierstrass"]["count"] == data["weierstrass"]["expected"] == 6
        assert data["weierstrass"]["formula_residual"] == "0"
        assert data["involution"]["ok"] is True
        assert data["area"] == "13/2"

    @pytest.mark.parametrize(
        "patch",
        [
            {"lengths": {**PATH3_SURFACE["lengths"], "x": "1"}},
            {"marks": [{"offset": "1/2"}]},
            {"marks": 5},
            {"vertices": [{"id": 0, "ports": 5}, *PATH3["vertices"][1:]]},
            {"pairs": [5]},
        ],
        ids=[
            "non-integer-length-key",
            "mark-without-port",
            "scalar-marks",
            "scalar-ports",
            "scalar-pair",
        ],
    )
    def test_malformed_surface_is_a_domain_error(self, tmp_path, capsys, patch):
        src = write(tmp_path, "bad.json", {**PATH3_SURFACE, **patch})
        rc = main(["profile", src])
        err = capsys.readouterr().err
        assert rc == 1
        assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "patch, line",
        [
            # misspelt, the marks were read as absent and the file passed as unmarked
            (
                {"mark": [{"port": 0, "offset": "1"}, {"port": 1, "offset": "1"}]},
                "error: surface JSON has an unknown key 'mark'",
            ),
            ({"encoding": "(-)"}, "error: surface JSON has an unknown key 'encoding'"),
            (
                {"marks": [{"port": 0, "ofset": "1"}]},
                "error: mark {'port': 0, 'ofset': '1'} has an unknown key 'ofset'",
            ),
            (
                {"marks": [{"port": 0, "offset": "1", "note": 1}, {"port": 1, "offset": "1"}]},
                "error: mark {'port': 0, 'offset': '1', 'note': 1} has an unknown key 'note'",
            ),
        ],
        ids=["misspelt-marks", "extra-top-key", "misspelt-offset", "extra-mark-key"],
    )
    def test_unknown_keys_are_refused(self, tmp_path, capsys, patch, line):
        src = write(tmp_path, "bad.json", {**PATH3_SURFACE, **patch})
        rc = main(["profile", src])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.splitlines() == [line]
        assert captured.out == ""


class TestDeform:
    def test_shear_changes_one_twist(self, tmp_path):
        src = write(tmp_path, "s.json", PATH3_SURFACE)
        out = tmp_path / "d.json"
        rc, _ = run(
            "deform", src, "--shear", "2", "--cylinders", "1", "--output", str(out)
        )
        assert rc == 0
        s = surface_from_json(json.loads(out.read_text()))
        assert s.twists[1] == 1  # 2 * h = 1, others untouched
        assert s.twists[0] == 0

    def test_relative_flow(self, tmp_path):
        src = write(tmp_path, "s.json", PATH3_SURFACE)
        out = tmp_path / "d.json"
        rc, _ = run("deform", src, "--relative", "1/2", "--output", str(out))
        assert rc == 0
        s = surface_from_json(json.loads(out.read_text()))
        low = surface_from_json(PATH3_SURFACE)
        diffs = {v: (s.twists[v] - low.twists[v]) % s.circumference(v) for v in (0, 1, 2)}
        assert diffs[0] != 0 and diffs[2] != 0

    def test_relative_cochain_alternates(self, tmp_path, capsys):
        src = write(tmp_path, "s.json", PATH3_SURFACE)
        rc, out = run("deform", src, "--cochain", "relative", capsys=capsys)
        assert rc == 0
        coeffs = json.loads(out)["coefficients"]
        assert {coeffs["0"], coeffs["2"]} == {coeffs["0"]}
        assert coeffs["1"] != coeffs["0"]

    def test_check_reports_candidate_verdict(self, tmp_path):
        src = write(tmp_path, "s.json", PATH3_SURFACE)
        parts = write(
            tmp_path,
            "p.json",
            {"cylinder_classes": [[0, 2], [1]], "saddle_classes": [[0], [2]]},
        )
        out = tmp_path / "r.json"
        rc, _ = run("deform", src, "--check", "--partitions", parts, "--output", str(out))
        data = json.loads(out.read_text())
        # heights 1 and 3 in one class: check (a) must fail, exit code 1
        assert rc == 1
        assert data["ok"] is False
        assert data["checks"]["a"] is False

    def test_two_actions_is_usage_error(self, tmp_path):
        src = write(tmp_path, "s.json", PATH3_SURFACE)
        rc, _ = run("deform", src, "--shear", "1", "--dilate", "2", "--cylinders", "0")
        assert rc == 2

    def test_no_action_is_usage_error(self, tmp_path):
        src = write(tmp_path, "s.json", PATH3_SURFACE)
        rc, _ = run("deform", src)
        assert rc == 2

    @pytest.mark.parametrize(
        "flags, step",
        [
            (["--shear", "2", "--cylinders", "1"], {"op": "shear", "cylinders": [1], "amount": "2"}),
            (
                ["--dilate", "3/2", "--cylinders", "0,2"],
                {"op": "dilate", "cylinders": [0, 2], "factor": "3/2"},
            ),
            (
                ["--dilate-saddle", "1/2", "--saddles", "2"],
                {"op": "dilate-saddle", "saddles": [2], "factor": "1/2"},
            ),
            (["--relative", "1/3"], {"op": "relative", "amount": "1/3"}),
        ],
        ids=["shear", "dilate", "dilate-saddle", "relative"],
    )
    def test_deform_matches_pipeline_step(self, tmp_path, flags, step):
        src = write(tmp_path, "s.json", PATH3_SURFACE)
        out = tmp_path / "d.json"
        assert run("deform", src, *flags, "--output", str(out))[0] == 0
        script = write(tmp_path, "script.json", {"steps": [{"op": "build", "surface": PATH3_SURFACE}, step]})
        outdir = tmp_path / "a"
        assert run("pipeline", script, "--outdir", str(outdir))[0] == 0
        artifact = outdir / f"step_01_{step['op'].replace('-', '_')}.json"
        assert out.read_text() == artifact.read_text()
        assert surface_from_json(json.loads(out.read_text())) != surface_from_json(PATH3_SURFACE)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--shear", "1"], "--shear needs --cylinders"),
            (["--dilate-saddle", "2"], "--dilate-saddle needs --saddles"),
            (["--dilate", "two", "--cylinders", "0"], "--dilate:"),
            (["--shear", "1", "--cylinders", "a"], "--cylinders must be"),
        ],
    )
    def test_move_usage_mistakes_exit_2(self, tmp_path, capsys, flags, message):
        src = write(tmp_path, "s.json", PATH3_SURFACE)
        rc = main(["deform", src, *flags])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0]


class TestCollapse:
    def test_horizontal_report(self, tmp_path):
        src = write(tmp_path, "s.json", PATH3_SURFACE)
        out = tmp_path / "h.json"
        rc, _ = run("collapse", src, "--delete", "1", "--output", str(out))
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["kind"] == "horizontal-collapse"
        assert data["deleted_cylinders"] == [1]
        assert data["certified"] is True

    def test_vertical_report(self, tmp_path):
        src = write(tmp_path, "s.json", PATH3_SURFACE)
        out = tmp_path / "v.json"
        rc, _ = run("collapse", src, "--proportions", "0=1/2", "--output", str(out))
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["kind"] == "vertical-collapse"
        assert data["certified"] is True

    @pytest.mark.parametrize(
        "classes, message", [("0;;1", "empty saddle class"), ("0;0,1", "saddle classes overlap")]
    )
    def test_saddle_classes_that_are_no_partition_fail_with_1(self, tmp_path, capsys, classes, message):
        s = random_metric(HalfTree({0: [0, 1], 1: [2], 2: [3]}, [(0, 2), (1, 3)]), 1)
        src = write(tmp_path, "s.json", surface_to_json(s))
        rc = main(["collapse", src, "--proportions", "0=1/2", "--saddle-classes", classes])
        captured = capsys.readouterr()
        assert (rc, captured.out, captured.err) == (1, "", f"error: {message}\n")

    def test_unknown_proportion_key_is_usage_error(self, tmp_path):
        src = write(tmp_path, "s.json", PATH3_SURFACE)
        rc, _ = run("collapse", src, "--proportions", "9=1/2")
        assert rc == 2

    def test_both_modes_is_usage_error(self, tmp_path):
        src = write(tmp_path, "s.json", PATH3_SURFACE)
        rc, _ = run("collapse", src, "--delete", "1", "--proportions", "0=1")
        assert rc == 2

    def test_impossible_deletion_fails_with_1(self, tmp_path):
        src = write(tmp_path, "s.json", PATH3_SURFACE)
        rc, _ = run("collapse", src, "--delete", "0,1,2")
        assert rc == 1


class TestQuotient:
    def test_star_quotient_certifies(self, tmp_path):
        b = builtin_blueprints()["ramified-star"]
        s = pullback(b)
        src = write(tmp_path, "s.json", surface_to_json(s))
        parts = write(tmp_path, "p.json", partitions_to_json(*fiber_partitions(b)))
        out = tmp_path / "q.json"
        rc, _ = run("quotient", src, "--partitions", parts, "--output", str(out))
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["degree"] == 2
        assert data["certificate"]["ok"] is True
        assert surfaces_isomorphic(surface_from_json(data["base"]), b.base)

    def test_failing_candidate_exits_1(self, tmp_path):
        src = write(tmp_path, "s.json", PATH3_SURFACE)
        parts = write(
            tmp_path,
            "p.json",
            {"cylinder_classes": [[0, 2], [1]], "saddle_classes": [[0], [2]]},
        )
        rc, _ = run("quotient", src, "--partitions", parts)
        assert rc == 1


PATH3_PARTITIONS = {"cylinder_classes": [[0], [1], [2]], "saddle_classes": [[0], [2]]}


@pytest.mark.parametrize(
    "partitions",
    [
        {**PATH3_PARTITIONS, "cylinder_classes": [[0], ["0"], [2]]},
        {**PATH3_PARTITIONS, "cylinder_classes": [[0], [True], [2]]},
        {**PATH3_PARTITIONS, "saddle_classes": ["x", [2]]},
        {**PATH3_PARTITIONS, "cylinder_classes": [0, 1, 2]},
    ],
)
@pytest.mark.parametrize("command", [["deform", "--check"], ["quotient"]])
def test_malformed_partition_class_is_a_domain_error(tmp_path, capsys, command, partitions):
    src = write(tmp_path, "s.json", PATH3_SURFACE)
    parts = write(tmp_path, "p.json", partitions)
    rc = main([command[0], src, *command[1:], "--partitions", parts])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and err.startswith("error: partition JSON ")
    assert "is not a list of integers" in err


class TestVerify:
    def test_lemmas_suite(self, tmp_path):
        out = tmp_path / "r.json"
        rc, _ = run(
            "verify", "lemmas",
            "--balls-n", "6", "--balls-m", "3",
            "--tree-vertices", "5", "--tree-colors", "3",
            "--interval-n", "5",
            "--ports-max", "13",  # enumerates nothing, so above the guard is no error
            "--output", str(out),
        )
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["ok"] is True
        assert len(data["checks"]) == 3

    def test_roundtrip_suite(self, tmp_path):
        out = tmp_path / "r.json"
        rc, _ = run(
            "verify", "roundtrip", "--ports-max", "4", "--metrics", "2",
            "--seed", "5", "--output", str(out),
        )
        assert rc == 0
        data = json.loads(out.read_text())
        assert [c["name"] for c in data["checks"]] == [
            "skeleton_roundtrip",
            "singularity_profile",
            "weierstrass_count",
            "involution",
        ]
        assert all(c["ok"] for c in data["checks"])

    def test_collapse_suite(self, tmp_path):
        out = tmp_path / "r.json"
        rc, _ = run("verify", "collapse", "--ports-max", "4", "--output", str(out))
        assert rc == 0
        assert json.loads(out.read_text())["ok"] is True

    def test_cover_suite(self, tmp_path):
        out = tmp_path / "r.json"
        rc, _ = run("verify", "cover", "--output", str(out))
        assert rc == 0
        data = json.loads(out.read_text())
        names = {c["name"] for c in data["checks"]}
        assert "divisibility_witness" in names
        assert sum(n.startswith("roundtrip:") for n in names) == 5

    def test_verify_output_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("verify", "cover", "--output", str(a))
        run("verify", "cover", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("suite", ["roundtrip", "collapse", "all"])
    def test_ports_above_the_guard_are_refused_before_any_work(self, monkeypatch, capsys, suite):
        def no_surfaces(*args):
            raise AssertionError("a surface was built before the refusal")

        monkeypatch.setattr(cli, "random_metric", no_surfaces)
        assert main(["verify", suite, "--ports-max", "13"]) == 1
        assert capsys.readouterr().err == "error: n=13 above enumeration guard 12\n"

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "everything"])
        assert exc.value.code == 2


class TestPipeline:
    def test_build_shear_collapse_chain(self, tmp_path):
        script = {
            "steps": [
                {"op": "build", "surface": PATH3_SURFACE},
                {"op": "shear", "cylinders": [1], "amount": "2"},
                {"op": "collapse", "kind": "horizontal", "delete": [1]},
            ]
        }
        src = write(tmp_path, "script.json", script)
        outdir = tmp_path / "artifacts"
        out = tmp_path / "summary.json"
        rc, _ = run("pipeline", src, "--outdir", str(outdir), "--output", str(out))
        assert rc == 0
        summary = json.loads(out.read_text())
        assert summary["steps"] == 3
        names = sorted(Path(p).name for p in summary["artifacts"])
        assert names == [
            "step_00_build.json",
            "step_01_shear.json",
            "step_02_collapse.json",
        ]
        report = json.loads((outdir / "step_02_collapse.json").read_text())
        assert report["kind"] == "horizontal-collapse"
        assert report["certified"] is True

    def test_quotient_step_continues_with_the_base(self, tmp_path):
        b = builtin_blueprints()["triple-wrap"]
        s = pullback(b)
        cp, sp = fiber_partitions(b)
        parts = partitions_to_json(cp, sp)
        script = {
            "steps": [
                {"op": "build", "surface": surface_to_json(s)},
                {
                    "op": "quotient",
                    "cylinder_classes": parts["cylinder_classes"],
                    "saddle_classes": parts["saddle_classes"],
                },
                {"op": "dilate", "cylinders": [0], "factor": "2"},
            ]
        }
        src = write(tmp_path, "script.json", script)
        rc, _ = run("pipeline", src, "--outdir", str(tmp_path / "a"))
        assert rc == 0
        final = json.loads((tmp_path / "a" / "step_02_dilate.json").read_text())
        assert final["heights"]["0"] == "2"

    def test_failing_step_aborts_with_its_index(self, tmp_path, capsys):
        script = {
            "steps": [
                {"op": "build", "surface": PATH3_SURFACE},
                {"op": "quotient", "cylinder_classes": [[0, 2], [1]], "saddle_classes": [[0], [2]]},
                {"op": "dilate", "cylinders": [0], "factor": "2"},
            ]
        }
        src = write(tmp_path, "script.json", script)
        outdir = tmp_path / "a"
        rc = main(["pipeline", src, "--outdir", str(outdir)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "step 1 (quotient)" in err
        # nothing past the failing step was written
        assert sorted(p.name for p in outdir.iterdir()) == ["step_00_build.json"]

    def test_move_step_missing_its_members_fails_with_1(self, tmp_path, capsys):
        script = {
            "steps": [
                {"op": "build", "surface": PATH3_SURFACE},
                {"op": "shear", "amount": "1"},
            ]
        }
        src = write(tmp_path, "script.json", script)
        rc = main(["pipeline", src, "--outdir", str(tmp_path / "a")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("step 1 (shear): ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "step, message",
        [
            ({"op": "shear", "amount": "1"}, "step 1 (shear): missing key 'cylinders'"),
            ({"op": "dilate-saddle", "saddles": [0]}, "step 1 (dilate-saddle): missing key 'factor'"),
            (
                {"op": "quotient", "saddle_classes": [[0], [2]]},
                "step 1 (quotient): missing key 'cylinder_classes'",
            ),
        ],
    )
    def test_step_missing_a_key_names_it(self, tmp_path, capsys, step, message):
        src = write(tmp_path, "script.json", {"steps": [{"op": "build", "surface": PATH3_SURFACE}, step]})
        rc = main(["pipeline", src, "--outdir", str(tmp_path / "a")])
        assert rc == 1
        assert capsys.readouterr().err == message + "\n"

    @pytest.mark.parametrize(
        "step, key",
        [
            ({"op": "shear", "cylinders": [1], "amount": "1", "factor": "2"}, "factor"),
            ({"op": "dilate", "cylinders": [0], "amount": "2"}, "amount"),
            ({"op": "dilate-saddle", "cylinders": [0], "factor": "2"}, "cylinders"),
            ({"op": "relative", "amount": "1/3", "cylinders": [0]}, "cylinders"),
            ({"op": "collapse", "kind": "horizontal", "delete": [1], "seed": 0}, "seed"),
            ({"op": "quotient", **PATH3_PARTITIONS, "classes": [[0]]}, "classes"),
        ],
    )
    def test_step_with_an_unknown_key_names_it(self, tmp_path, capsys, step, key):
        src = write(tmp_path, "script.json", {"steps": [{"op": "build", "surface": PATH3_SURFACE}, step]})
        rc = main(["pipeline", src, "--outdir", str(tmp_path / "a")])
        assert rc == 1
        assert capsys.readouterr().err == f"step 1 ({step['op']}): unknown key {key!r}\n"
        assert sorted(os.listdir(tmp_path / "a")) == ["step_00_build.json"]

    def test_build_step_refuses_a_misspelt_seed(self, tmp_path, capsys):
        steps = [{"op": "build", "skeleton": self.PATH3_STUBBED["skeleton"], "sed": 5}]
        rc = main(["pipeline", write(tmp_path, "script.json", {"steps": steps}), "--outdir", str(tmp_path / "a")])
        assert rc == 1
        assert capsys.readouterr().err == "step 0 (build): unknown key 'sed'\n"
        assert not os.listdir(tmp_path / "a")

    @pytest.mark.parametrize(
        "classes, message", [([[0], [], [2]], "empty saddle class"), ([[0], [0, 2]], "saddle classes overlap")]
    )
    def test_vertical_step_refuses_saddle_classes_that_are_no_partition(self, tmp_path, capsys, classes, message):
        step = {"op": "collapse", "kind": "vertical", "classes": classes, "proportions": ["1/2"] * len(classes)}
        src = write(tmp_path, "script.json", {"steps": [{"op": "build", "surface": PATH3_SURFACE}, step]})
        rc = main(["pipeline", src, "--outdir", str(tmp_path / "a")])
        assert rc == 1
        assert capsys.readouterr().err == f"step 1 (collapse): {message}\n"

    # the three-cylinder path with a stub at each end and one in the middle
    PATH3_STUBBED = {
        "op": "build",
        "seed": 0,
        "skeleton": {
            "vertices": [
                {"id": 0, "ports": [0, 1]},
                {"id": 1, "ports": [2, 3, 4]},
                {"id": 2, "ports": [5, 6]},
            ],
            "pairs": [[1, 2], [4, 5]],
        },
    }

    @pytest.mark.parametrize(
        "step, key",
        [
            (
                {
                    "op": "quotient",
                    "cylinder_classes": [[0.4], [1.9], [2.5]],
                    "saddle_classes": [[0.2], [1], [3], [4], [6.7]],
                },
                "cylinder_classes",
            ),
            (
                {"op": "quotient", "cylinder_classes": [[0], [1], [2]], "saddle_classes": [[0], [True], [3], [4], [6]]},
                "saddle_classes",
            ),
            ({"op": "shear", "cylinders": [True], "amount": "1"}, "cylinders"),
            ({"op": "dilate", "cylinders": [1.0], "factor": "2"}, "cylinders"),
            ({"op": "dilate-saddle", "saddles": ["x"], "factor": "2"}, "saddles"),
            ({"op": "collapse", "kind": "horizontal", "delete": [1.5]}, "delete"),
            ({"op": "collapse", "kind": "horizontal", "delete": [False]}, "delete"),
            (
                {"op": "collapse", "kind": "vertical", "classes": [[0], [None], [3], [4], [6]], "proportions": ["0"] * 5},
                "classes",
            ),
            ({**PATH3_STUBBED, "seed": 1.9}, "seed"),
            ({**PATH3_STUBBED, "seed": True}, "seed"),
            ({**PATH3_STUBBED, "seed": "x"}, "seed"),
        ],
    )
    def test_non_integer_labels_are_refused(self, tmp_path, capsys, step, key):
        src = write(tmp_path, "script.json", {"steps": [self.PATH3_STUBBED, step]})
        rc = main(["pipeline", src, "--outdir", str(tmp_path / "a")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("\n") == 1
        assert err.startswith(f"step 1 ({step['op']}): key '{key}': label ")
        assert err.endswith(" is not an integer\n")

    def test_numeric_string_labels_are_read_as_integers(self, tmp_path):
        steps = [self.PATH3_STUBBED, {"op": "shear", "cylinders": ["1"], "amount": "1"}]
        rc, _ = run("pipeline", write(tmp_path, "a.json", {"steps": steps}), "--outdir", str(tmp_path / "a"))
        steps[1]["cylinders"] = [1]
        rc_int, _ = run("pipeline", write(tmp_path, "b.json", {"steps": steps}), "--outdir", str(tmp_path / "b"))
        assert rc == rc_int == 0
        assert (tmp_path / "a" / "step_01_shear.json").read_text() == (tmp_path / "b" / "step_01_shear.json").read_text()

    def test_empty_script_is_a_noop(self, tmp_path, capsys):
        src = write(tmp_path, "script.json", {"steps": []})
        rc, out = run("pipeline", src, "--outdir", str(tmp_path / "a"), capsys=capsys)
        assert rc == 0
        assert json.loads(out) == {"steps": 0, "artifacts": []}


class TestDiagram:
    def test_halftree_diagram(self, tmp_path, capsys):
        src = write(tmp_path, "skel.json", PATH3)
        rc, out = run("diagram", src, capsys=capsys)
        assert rc == 0
        assert out.startswith("graph halftree {")
        assert "v0 -- v1" in out

    def test_surface_diagram_draws_rectangles(self, tmp_path, capsys):
        src = write(
            tmp_path,
            "s.json",
            {
                "vertices": [{"id": 0, "ports": [0, 1, 2]}],
                "pairs": [],
                "lengths": {"0": "1", "1": "2", "2": "3"},
                "heights": {"0": "1"},
                "twists": {"0": "0"},
            },
        )
        rc, out = run("diagram", src, "--name", "g", capsys=capsys)
        assert rc == 0
        assert out.startswith("graph g {")
        assert "shape=record" in out
        # self-glued saddles seam the rectangle to itself
        assert "v0:b0 -- v0:t0;" in out


# -- malformed-input sweep -------------------------------------------------------

PIPELINE_SCRIPT = {
    "steps": [
        {"op": "build", "surface": PATH3_SURFACE},
        {"op": "shear", "cylinders": [1], "amount": "2"},
        {"op": "dilate", "cylinders": [0], "factor": "3/2"},
        {"op": "quotient", **PATH3_PARTITIONS},
        {"op": "collapse", "kind": "vertical", "classes": [[0], [2]], "proportions": ["1/2", "0"]},
    ]
}

# what a mutation may put in place of a value
REPLACEMENTS = (None, True, False, -1, -7, "x", "1/0", "", 0.5, [], [[0]], {}, {"a": 1})

# one error line: ``error: ...`` from main, ``step i (op): ...`` from a pipeline step
ERROR_LINE = re.compile(r"(error|step \d+( \(.*\))?): ")


def value_paths(doc, prefix=()):
    """Key/index paths to every value below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from value_paths(value, prefix + (key,))


def mutations(doc, rng: random.Random, count: int):
    """Seeded one-site mutations: delete a key or entry, or replace a value."""
    paths = list(value_paths(doc))
    for _ in range(count):
        *head, key = rng.choice(paths)
        out = copy.deepcopy(doc)
        parent = out
        for k in head:
            parent = parent[k]
        if rng.random() < 0.25:
            del parent[key]
        else:
            parent[key] = copy.deepcopy(rng.choice(REPLACEMENTS))
        yield out


def test_malformed_inputs_never_escape_as_tracebacks(tmp_path, capsys, monkeypatch):
    """About 150 mutations of each input kind, through every subcommand reading it.

    ``main`` must return, never raise.  Whenever anything reaches stderr it is
    one line naming the error; exit 2 always has that line.  Exit 1 with an
    empty stderr is a verdict, not an error (a rejected candidate, a failed
    certificate), and then stdout holds the JSON report.
    """
    # building the argument parser is most of a small call's cost; build it once
    parser = cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", lambda: parser)
    surface = write(tmp_path, "surface.json", PATH3_SURFACE)
    partitions = write(tmp_path, "partitions.json", PATH3_PARTITIONS)
    outdir = str(tmp_path / "out")
    # one entry per subcommand reading the kind; an entry with several argv
    # forms takes them in turn, mutation by mutation
    kinds = [
        (
            PATH3_SURFACE,
            [
                [["build", "{}"]],
                [["profile", "{}"]],
                [["diagram", "{}"]],
                [
                    ["deform", "{}", "--check", "--partitions", partitions],
                    ["deform", "{}", "--shear", "1", "--cylinders", "1"],
                ],
                [["collapse", "{}", "--proportions", "0=1/2"], ["collapse", "{}", "--delete", "1"]],
                [["quotient", "{}", "--partitions", partitions]],
            ],
        ),
        (PATH3, [[["build", "{}", "--seed", "3"]], [["diagram", "{}"]]]),
        (
            PATH3_PARTITIONS,
            [
                [["deform", surface, "--check", "--partitions", "{}"]],
                [["quotient", surface, "--partitions", "{}"]],
            ],
        ),
        (PIPELINE_SCRIPT, [[["pipeline", "{}", "--outdir", outdir]]]),
    ]
    start = time.perf_counter()
    escapes = []
    for seed, (doc, commands) in enumerate(kinds):
        for i, mutated in enumerate(mutations(doc, random.Random(seed), 150)):
            path = write(tmp_path, "mutated.json", mutated)
            for forms in commands:
                argv = [path if a == "{}" else a for a in forms[i % len(forms)]]
                try:
                    rc = main(argv)
                except Exception as exc:  # noqa: BLE001 - the escape is the finding
                    rc = f"raised {type(exc).__name__}: {exc}"
                out, err = capsys.readouterr()
                lines = err.splitlines()
                if rc in (1, 2) and lines:
                    ok = len(lines) == 1 and ERROR_LINE.match(lines[0]) is not None
                elif rc == 1:
                    ok = json.loads(out) is not None
                else:
                    ok = rc == 0 and not lines
                if not ok:
                    escapes.append((seed, i, argv, rc, err[-300:], json.dumps(mutated)))
    assert escapes == []
    assert time.perf_counter() - start < 10


def test_parser_is_built_once():
    # argparse construction is most of a small call's cost; main shares one parser
    assert cli._build_parser() is cli._build_parser()


def python_m(*argv: str) -> subprocess.CompletedProcess:
    """``python -m <argv>`` in a fresh process, with ``src/`` on the path."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", *argv], capture_output=True, text=True, env=env, timeout=120)


def test_python_dash_m_flattree_is_the_cli(capsys):
    rc, expected = run("enumerate", "--ports", "3", capsys=capsys)
    done = python_m("flattree", "enumerate", "--ports", "3")
    assert (done.returncode, done.stdout, done.stderr) == (rc, expected, "")


def test_python_dash_m_flattree_cli_runs_the_command(capsys):
    # runpy warns that flattree.cli is already imported; the command still runs
    rc, expected = run("enumerate", "--ports", "3", capsys=capsys)
    done = python_m("flattree.cli", "enumerate", "--ports", "3")
    assert rc == 0 and expected
    assert (done.returncode, done.stdout) == (rc, expected)
