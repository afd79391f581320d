"""Every artifact format validates against its shipped schema."""

import json
from importlib import resources
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from flattree import (
    SCHEMA_NAMES,
    builtin_blueprints,
    cochain_to_json,
    fiber_partitions,
    halftree_to_json,
    horizontal_collapse,
    horizontal_collapse_report,
    load_schema,
    partitions_to_json,
    pullback,
    quotient,
    quotient_to_json,
    relative_deformation,
    singleton_partitions,
    surface_from_json,
    surface_to_json,
    vertical_collapse,
    vertical_collapse_report,
)
from flattree import surface
from flattree.cli import main

PATH3_SURFACE = {
    "vertices": [
        {"id": 0, "ports": [0]},
        {"id": 1, "ports": [1, 2]},
        {"id": 2, "ports": [3]},
    ],
    "pairs": [[0, 1], [2, 3]],
    "lengths": {"0": "2", "1": "2", "2": "1", "3": "1"},
    "heights": {"0": "1", "1": "1/2", "2": "3"},
    "twists": {"0": "0", "1": "0", "2": "0"},
}


def check(name: str, instance) -> None:
    Draft202012Validator(load_schema(name)).validate(instance)


def rejects(name: str, instance) -> bool:
    return not Draft202012Validator(load_schema(name)).is_valid(instance)


@pytest.fixture(scope="module")
def path3():
    return surface_from_json(PATH3_SURFACE)


class TestShippedSchemas:
    def test_all_schemas_load_and_are_valid(self):
        for name in SCHEMA_NAMES:
            Draft202012Validator.check_schema(load_schema(name))

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_schema("bogus")

    def test_schema_files_match_the_names(self):
        # a schema file that no name reaches, or a name with no file, fails here
        folder = resources.files("flattree").joinpath("schemas")
        stems = [f.name.removesuffix(".json") for f in folder.iterdir() if f.name.endswith(".json")]
        assert sorted(stems) == sorted(SCHEMA_NAMES)

    def test_surface_reader_knows_the_schema_keys(self):
        # surface_from_json refuses every other key, so the two lists must agree
        schema = load_schema("surface")
        assert list(surface._SURFACE_KEYS) == list(schema["properties"])
        assert list(surface._MARK_KEYS) == list(schema["properties"]["marks"]["items"]["properties"])


class TestLibraryArtifacts:
    def test_halftree_and_surface(self, path3):
        check("halftree", halftree_to_json(path3.skeleton))
        check("surface", surface_to_json(path3))

    def test_partitions(self, path3):
        cp, sp = singleton_partitions(path3.skeleton)
        check("partitions", partitions_to_json(cp, sp))

    def test_cochain(self, path3):
        check("cochain", cochain_to_json(relative_deformation(path3)))

    def test_collapse_reports(self, path3):
        check("collapse_report", horizontal_collapse_report(horizontal_collapse(path3, [1])))
        _, sp = singleton_partitions(path3.skeleton)
        res = vertical_collapse(path3, sp, [0, 1][: len(sp.classes)] or [0])
        check("collapse_report", vertical_collapse_report(res))

    def test_blueprint_and_quotient(self):
        for b in builtin_blueprints().values():
            s = pullback(b)
            check("quotient", quotient_to_json(quotient(s, *fiber_partitions(b))))


class TestCliArtifacts:
    def test_enumeration(self, tmp_path):
        out = tmp_path / "e.json"
        assert main(["enumerate", "--ports", "4", "--json", "--output", str(out)]) == 0
        check("enumeration", json.loads(out.read_text()))

    def test_profile(self, tmp_path):
        src = tmp_path / "s.json"
        src.write_text(json.dumps(PATH3_SURFACE))
        out = tmp_path / "p.json"
        assert main(["profile", str(src), "--output", str(out)]) == 0
        check("profile", json.loads(out.read_text()))

    def test_candidate_report(self, tmp_path):
        src = tmp_path / "s.json"
        src.write_text(json.dumps(PATH3_SURFACE))
        parts = tmp_path / "parts.json"
        parts.write_text(
            json.dumps({"cylinder_classes": [[0, 2], [1]], "saddle_classes": [[0], [2]]})
        )
        out = tmp_path / "r.json"
        main(["deform", str(src), "--check", "--partitions", str(parts), "--output", str(out)])
        check("candidate_report", json.loads(out.read_text()))

    def test_quotient_with_certificate(self, tmp_path):
        b = builtin_blueprints()["split-selfglued"]
        s = pullback(b)
        src = tmp_path / "s.json"
        src.write_text(json.dumps(surface_to_json(s)))
        parts = tmp_path / "parts.json"
        parts.write_text(json.dumps(partitions_to_json(*fiber_partitions(b))))
        out = tmp_path / "q.json"
        assert main(["quotient", str(src), "--partitions", str(parts), "--output", str(out)]) == 0
        check("quotient", json.loads(out.read_text()))

    def test_verify_report(self, tmp_path):
        out = tmp_path / "v.json"
        assert main(["verify", "cover", "--output", str(out)]) == 0
        check("verify_report", json.loads(out.read_text()))

    def test_pipeline_script_and_summary(self, tmp_path):
        script = {
            "steps": [
                {"op": "build", "surface": PATH3_SURFACE},
                {"op": "collapse", "kind": "horizontal", "delete": [1]},
            ]
        }
        check("pipeline_script", script)
        src = tmp_path / "script.json"
        src.write_text(json.dumps(script))
        out = tmp_path / "sum.json"
        rc = main(["pipeline", str(src), "--outdir", str(tmp_path / "a"), "--output", str(out)])
        assert rc == 0
        check("pipeline_summary", json.loads(out.read_text()))
        for artifact in json.loads(out.read_text())["artifacts"]:
            data = json.loads(Path(artifact).read_text())
            name = "collapse_report" if "kind" in data else "surface"
            check(name, data)


class TestNegativeControls:
    def test_surface_rejects_malformed_fraction(self):
        bad = json.loads(json.dumps(PATH3_SURFACE))
        bad["lengths"]["0"] = "2.5"
        assert rejects("surface", bad)

    def test_surface_rejects_extra_keys(self):
        bad = {**PATH3_SURFACE, "color": "blue"}
        assert rejects("surface", bad)

    def test_quotient_rejects_missing_verification(self):
        b = builtin_blueprints()["identity"]
        s = pullback(b)
        good = quotient_to_json(quotient(s, *fiber_partitions(b)))
        bad = {k: v for k, v in good.items() if k != "verification"}
        assert rejects("quotient", bad)

    def test_collapse_report_rejects_wrong_kind(self, path3):
        report = horizontal_collapse_report(horizontal_collapse(path3, [1]))
        report["kind"] = "sideways-collapse"
        assert rejects("collapse_report", report)

    def test_pipeline_script_rejects_unknown_op(self):
        assert rejects("pipeline_script", {"steps": [{"op": "explode"}]})
