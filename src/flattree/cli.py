"""Batch front end over the JSON formats.

Nine subcommands expose the library as files-in, files-out tools:
``enumerate`` skeleton classes, ``build`` a surface, read a singularity
``profile``, ``deform``, ``collapse``, ``quotient``, run ``verify`` sweeps,
execute a multi-step ``pipeline``, and emit a DOT ``diagram``.  Output is
reproducible byte for byte for fixed inputs, seeds and flags: JSON comes out
with sorted keys and no timestamps.

Exit codes follow the CI contract: 0 success, 1 a verification or input
failure, 2 a usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from .collapse import (
    CollapseError,
    horizontal_collapse,
    horizontal_collapse_report,
    vertical_collapse,
    vertical_collapse_report,
)
from .cover import (
    CoverError,
    builtin_blueprints,
    certify_cover,
    fiber_partitions,
    pullback,
    quotient,
    quotient_to_json,
)
from .deform import (
    CandidateReport,
    CylinderPartition,
    DeformError,
    SaddlePartition,
    _validate_saddle_partition,
    check_candidate,
    cochain_to_json,
    dilate_class,
    dilate_saddle_class,
    partitions_from_json,
    relative_deformation,
    relative_flow,
    shear_class,
    singleton_partitions,
    standard_shear,
)
from .flow import FlowError
from .halftree import (
    ENUMERATION_GUARD,
    SkeletonError,
    canonical_form,
    enumerate_halftrees,
    halftree_from_json,
    halftree_to_dot,
    stratum_of,
)
from .lemmas import (
    verify_balls_lemma,
    verify_colored_tree_lemma,
    verify_interval_lemma,
)
from .surface import (
    MetricError,
    _json_label,
    area,
    build,
    extract_skeleton,
    fraction_from_string,
    fraction_to_string,
    involution_check,
    random_metric,
    singularity_profile,
    surface_from_json,
    surface_to_dot,
    surface_to_json,
    surfaces_isomorphic,
    weierstrass_points,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

SCHEMA_NAMES = (
    "blueprint",
    "candidate_report",
    "cochain",
    "collapse_report",
    "enumeration",
    "halftree",
    "partitions",
    "pipeline_script",
    "pipeline_summary",
    "profile",
    "quotient",
    "surface",
    "verify_report",
)


def load_schema(name: str) -> dict:
    """One of the shipped JSON Schemas, by name without extension."""
    if name not in SCHEMA_NAMES:
        raise KeyError(f"no schema {name!r}; have {', '.join(SCHEMA_NAMES)}")
    from importlib import resources

    path = resources.files("flattree").joinpath("schemas", f"{name}.json")
    return json.loads(path.read_text(encoding="utf-8"))

_DOMAIN_ERRORS = (
    SkeletonError,
    MetricError,
    DeformError,
    CollapseError,
    CoverError,
    FlowError,
)


class UsageError(Exception):
    """Bad flags or unreadable configuration; maps to exit code 2."""


# -- plumbing -----------------------------------------------------------------


def _load_json(path: str) -> object:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        # unparseable content is a broken artifact, not a flag mistake
        raise MetricError(f"{path} is not valid JSON: {exc}") from exc


def _dump(data: object) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _jsonable(x: object) -> object:
    if isinstance(x, Fraction):
        return fraction_to_string(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _int_list(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"{what} must be a comma-separated integer list, got {text!r}") from exc


def _fraction_arg(text: str, what: str) -> Fraction:
    try:
        return fraction_from_string(text)
    except MetricError as exc:
        raise UsageError(f"{what}: {exc}") from exc


def _load_surface(path: str):
    data = _load_json(path)
    if not isinstance(data, dict) or "lengths" not in data:
        raise MetricError(f"{path} does not contain a surface (no 'lengths')")
    return surface_from_json(data)


def candidate_report_to_json(r: CandidateReport) -> dict:
    return {
        "ok": r.ok,
        "checks": dict(r.checks),
        "failures": list(r.failures),
        "wraps": {str(v): w for v, w in sorted(r.wraps.items())},
        "period": {str(v): m for v, m in sorted(r.period.items())},
        "base_circumference": {
            str(i): fraction_to_string(x) for i, x in sorted(r.base_circumference.items())
        },
        "base_pattern": {
            str(i): [[cls, fraction_to_string(x)] for cls, x in pat]
            for i, pat in sorted(r.base_pattern.items())
        },
    }


# -- subcommands --------------------------------------------------------------


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.ports < 1:
        raise UsageError("--ports must be at least 1")
    classes = enumerate_halftrees(args.ports, limit=args.limit)
    if args.dot:
        chunks = [
            halftree_to_dot(t, name=f"class{i}") for i, t in enumerate(classes)
        ]
        _emit("".join(c if c.endswith("\n") else c + "\n" for c in chunks), args.output)
        return EXIT_OK
    if args.json:
        payload = {
            "ports": args.ports,
            "count": len(classes),
            "classes": [
                {
                    "encoding": canonical_form(t).encoding,
                    "stratum": stratum_of(t).label,
                    "vertices": [
                        {"id": v, "ports": list(t.ports(v))} for v in t.vertices
                    ],
                    "pairs": [list(e) for e in t.edges()],
                }
                for t in classes
            ],
        }
        _emit(_dump(payload), args.output)
        return EXIT_OK
    lines = [str(len(classes))]
    lines += [canonical_form(t).encoding for t in classes]
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_build(args: argparse.Namespace) -> int:
    data = _load_json(args.input)
    if isinstance(data, dict) and "lengths" in data:
        surface = surface_from_json(data)
    else:
        if args.seed is None:
            raise UsageError("a bare skeleton needs --seed to draw a metric")
        skeleton = halftree_from_json(data)
        surface = random_metric(skeleton, args.seed)
    _emit(_dump(surface_to_json(surface)), args.output)
    return EXIT_OK


def cmd_profile(args: argparse.Namespace) -> int:
    s = _load_surface(args.input)
    prof = singularity_profile(s)
    wp = weierstrass_points(s)
    inv = involution_check(s)
    payload = {
        "stratum": stratum_of(s.skeleton).label,
        "genus": prof.genus,
        "orders": list(prof.orders),
        "corner_orders": list(prof.corner_orders),
        "decorations": prof.decoration_count,
        "area": fraction_to_string(area(s)),
        "weierstrass": {
            "count": wp.count,
            "expected": wp.expected,
            "formula_residual": fraction_to_string(Fraction(wp.formula_residual)),
            "points": _jsonable(wp.points),
        },
        "involution": {
            "ok": inv.ok,
            "fixed_point_count": inv.fixed_point_count,
            "failures": list(inv.failures),
        },
    }
    _emit(_dump(payload), args.output)
    return EXIT_OK if inv.ok else EXIT_FAIL


# The surface-moving deform ops, shared by ``deform --<op>`` and pipeline steps:
# op -> (move(surface, members, amount), key of its member list or None,
# pipeline key of its amount).  The CLI reads the member list from ``--<key>``
# and the amount from ``--<op>``.
_MOVES = {
    "shear": (shear_class, "cylinders", "amount"),
    "dilate": (dilate_class, "cylinders", "factor"),
    "dilate-saddle": (dilate_saddle_class, "saddles", "factor"),
    "relative": (lambda s, _members, amount: relative_flow(s, amount), None, "amount"),
}


def cmd_deform(args: argparse.Namespace) -> int:
    s = _load_surface(args.input)
    actions = [
        name
        for name, flag in (
            ("--check", args.check),
            ("--shear", args.shear),
            ("--dilate", args.dilate),
            ("--dilate-saddle", args.dilate_saddle),
            ("--relative", args.relative),
            ("--cochain", args.cochain),
        )
        if flag
    ]
    if len(actions) != 1:
        raise UsageError(
            "pick exactly one of --check/--shear/--dilate/--dilate-saddle/"
            "--relative/--cochain"
        )

    if args.check:
        if not args.partitions:
            raise UsageError("--check needs --partitions")
        cp, sp = partitions_from_json(_load_json(args.partitions))
        report = check_candidate(s, cp, sp)
        _emit(_dump(candidate_report_to_json(report)), args.output)
        return EXIT_OK if report.ok else EXIT_FAIL

    if args.cochain:
        if args.cochain == "standard":
            if not args.cylinders:
                raise UsageError("--cochain standard needs --cylinders")
            c = standard_shear(s, _int_list(args.cylinders, "--cylinders"))
        else:
            c = relative_deformation(s)
        _emit(_dump(cochain_to_json(c)), args.output)
        return EXIT_OK

    op = next(op for op in _MOVES if getattr(args, op.replace("-", "_")))
    move, members_key, _ = _MOVES[op]
    members = None
    if members_key is not None:
        raw = getattr(args, members_key)
        if not raw:
            raise UsageError(f"--{op} needs --{members_key}")
        members = _int_list(raw, f"--{members_key}")
    out = move(s, members, _fraction_arg(getattr(args, op.replace("-", "_")), f"--{op}"))
    _emit(_dump(surface_to_json(out)), args.output)
    return EXIT_OK


def _proportion_map(raw: str) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        key, _, val = item.partition("=")
        try:
            out[int(key)] = fraction_from_string(val)
        except (ValueError, MetricError) as exc:
            raise UsageError(
                f"--proportions entries look like 'saddle=p/q', got {item!r}"
            ) from exc
    return out


def cmd_collapse(args: argparse.Namespace) -> int:
    s = _load_surface(args.input)
    if (args.delete is None) == (args.proportions is None):
        raise UsageError("pick exactly one of --delete (horizontal) or --proportions (vertical)")
    if args.delete is not None:
        result = horizontal_collapse(s, _int_list(args.delete, "--delete"))
        _emit(_dump(horizontal_collapse_report(result)), args.output)
        return EXIT_OK
    if args.saddle_classes:
        sp = SaddlePartition.of(_int_list(g, "--saddle-classes") for g in args.saddle_classes.split(";"))
    else:
        _, sp = singleton_partitions(s.skeleton)
    wanted = _proportion_map(args.proportions)
    _validate_saddle_partition(s.skeleton, sp)
    keys = [group[0] for group in sp.classes]
    unknown = set(wanted) - set(keys)
    if unknown:
        raise UsageError(f"--proportions names unknown saddle classes {sorted(unknown)}")
    props = [wanted.get(k, Fraction(0)) for k in keys]
    result = vertical_collapse(s, sp, props)
    _emit(_dump(vertical_collapse_report(result)), args.output)
    return EXIT_OK


def cmd_quotient(args: argparse.Namespace) -> int:
    s = _load_surface(args.input)
    cp, sp = partitions_from_json(_load_json(args.partitions))
    result = quotient(s, cp, sp)
    verdict = certify_cover(s, result)
    payload = quotient_to_json(result)
    payload["certificate"] = {
        "ok": verdict.ok,
        "checks": dict(verdict.checks),
        "failures": list(verdict.failures),
    }
    _emit(_dump(payload), args.output)
    return EXIT_OK if verdict.ok else EXIT_FAIL


def cmd_diagram(args: argparse.Namespace) -> int:
    data = _load_json(args.input)
    if isinstance(data, dict) and "lengths" in data:
        text = surface_to_dot(surface_from_json(data), name=args.name or "surface")
    else:
        text = halftree_to_dot(halftree_from_json(data), name=args.name or "halftree")
    _emit(text if text.endswith("\n") else text + "\n", args.output)
    return EXIT_OK


# -- verify suites ------------------------------------------------------------


def _suite_lemmas(args: argparse.Namespace) -> list[dict]:
    reports = [
        verify_balls_lemma(args.balls_n, args.balls_m),
        verify_colored_tree_lemma(args.tree_vertices, args.tree_colors),
        verify_interval_lemma(args.interval_n),
    ]
    return [
        {
            "name": rep.lemma,
            "ok": rep.holds,
            "detail": f"{rep.cases_checked} cases",
            "report": rep.to_json(),
        }
        for rep in reports
    ]


def _entry(name: str, fails: list[str], detail: str) -> dict:
    """One verify check, ok when nothing failed; it lists the first ten failures."""
    return {"name": name, "ok": not fails, "detail": detail, "failures": fails[:10]}


def _suite_roundtrip(args: argparse.Namespace) -> list[dict]:
    skeleton_fail: list[str] = []
    profile_fail: list[str] = []
    weier_fail: list[str] = []
    involution_fail: list[str] = []
    cases = 0
    for n in range(1, args.ports_max + 1):
        for t in enumerate_halftrees(n):
            want = canonical_form(t).encoding
            expected_orders = tuple(sorted(stratum_of(t).orders))
            for k in range(args.metrics):
                s = random_metric(t, args.seed + k)
                cases += 1
                tag = f"n={n} {want[:24]} seed={args.seed + k}"
                if canonical_form(extract_skeleton(s)).encoding != want:
                    skeleton_fail.append(tag)
                if tuple(sorted(singularity_profile(s).orders)) != expected_orders:
                    profile_fail.append(tag)
                w = weierstrass_points(s)
                if w.count != w.expected or w.formula_residual != 0:
                    weier_fail.append(tag)
                if not involution_check(s).ok:
                    involution_fail.append(tag)
    detail = f"{cases} surfaces"
    return [
        _entry("skeleton_roundtrip", skeleton_fail, detail),
        _entry("singularity_profile", profile_fail, detail),
        _entry("weierstrass_count", weier_fail, detail),
        _entry("involution", involution_fail, detail),
    ]


def _suite_collapse(args: argparse.Namespace) -> list[dict]:
    vertical_fail: list[str] = []
    horizontal_fail: list[str] = []
    forest_fail: list[str] = []
    area_fail: list[str] = []
    v_cases = h_cases = 0
    for n in range(2, args.ports_max + 1):
        for t in enumerate_halftrees(n):
            s = random_metric(t, args.seed)
            tag = canonical_form(t).encoding[:24]
            _, sp = singleton_partitions(t)
            for i, group in enumerate(sp.classes):
                if t.partner(group[0]) is None:
                    continue
                props = [Fraction(1 if j == i else 0) for j in range(len(sp.classes))]
                try:
                    res = vertical_collapse(s, sp, props)
                except CollapseError:
                    continue
                v_cases += 1
                if not res.certification.ok:
                    vertical_fail.append(f"{tag} class {i}")
                if res.area_before - res.area_after != res.collapsed_area:
                    area_fail.append(f"{tag} class {i} (vertical)")
            for v in t.vertices:
                if len(t.vertices) < 2:
                    continue
                if any(t.partner(p) is None for p in t.ports(v)):
                    continue
                twists = dict(s.twists)
                twists[v] = s.top_start(t.ports(v)[0])
                s2 = build(t, s.lengths, s.heights, twists)
                try:
                    res = horizontal_collapse(s2, [v])
                except CollapseError:
                    continue
                h_cases += 1
                if not res.certification.ok:
                    horizontal_fail.append(f"{tag} delete {v}")
                if not all(f.is_forest for f in res.forests):
                    forest_fail.append(f"{tag} delete {v}")
                if res.area_before - res.area_after != res.deleted_area:
                    area_fail.append(f"{tag} delete {v} (horizontal)")
    return [
        _entry("vertical_certification", vertical_fail, f"{v_cases} collapses"),
        _entry("horizontal_certification", horizontal_fail, f"{h_cases} collapses"),
        _entry("regluing_forest", forest_fail, f"{h_cases} collapses"),
        _entry("area_accounting", area_fail, f"{v_cases + h_cases} collapses"),
    ]


def _suite_cover(args: argparse.Namespace) -> list[dict]:
    del args
    checks: list[dict] = []
    for name, b in sorted(builtin_blueprints().items()):
        fails: list[str] = []
        try:
            s = pullback(b)
            r = quotient(s, *fiber_partitions(b))
            if not surfaces_isomorphic(r.base, b.base):
                fails.append("quotient does not invert pullback")
            if r.residual != 0:
                fails.append(f"Riemann-Hurwitz residual {r.residual}")
            if area(s) != r.degree * area(r.base):
                fails.append("area is not multiplicative")
            if not r.dichotomy_consistent:
                fails.append("stratum dichotomy violated")
            verdict = certify_cover(s, r)
            if not verdict.ok:
                fails.extend(verdict.failures[:3])
            detail = f"degree {r.degree}, base {r.base_stratum}"
        except _DOMAIN_ERRORS as exc:
            fails.append(str(exc))
            detail = "construction failed"
        checks.append(_entry(f"roundtrip:{name}", fails, detail))
    big = pullback(builtin_blueprints()["triple-wrap"])
    g = stratum_of(big.skeleton).genus
    checks.append(
        {
            "name": "divisibility_witness",
            "ok": (2 * g - 1) % 3 == 0,
            "detail": f"2r-1 = 3 divides 2g-1 = {2 * g - 1}",
            "failures": [],
        }
    )
    return checks


_SUITES = {
    "lemmas": [_suite_lemmas],
    "roundtrip": [_suite_roundtrip],
    "collapse": [_suite_collapse],
    "cover": [_suite_cover],
    "all": [_suite_lemmas, _suite_roundtrip, _suite_collapse, _suite_cover],
}


def cmd_verify(args: argparse.Namespace) -> int:
    checks: list[dict] = []
    for suite in _SUITES[args.suite]:
        checks.extend(suite(args))
    failures = sum(1 for c in checks if not c["ok"])
    payload = {
        "suite": args.suite,
        "bounds": {
            "balls_n": args.balls_n,
            "balls_m": args.balls_m,
            "tree_vertices": args.tree_vertices,
            "tree_colors": args.tree_colors,
            "interval_n": args.interval_n,
            "ports_max": args.ports_max,
            "metrics": args.metrics,
            "seed": args.seed,
        },
        "checks": checks,
        "failures": failures,
        "ok": failures == 0,
    }
    _emit(_dump(payload), args.output)
    return EXIT_OK if failures == 0 else EXIT_FAIL


# -- pipelines ----------------------------------------------------------------


def _label(x: object, key: str) -> int:
    """An integer label in a pipeline step, read as surface JSON reads one.

    An int or a numeric string; a bool, a float or anything else is a
    ``DeformError`` that names the step's key.
    """
    try:
        return _json_label(x, f"key {key!r}")
    except MetricError as exc:
        raise DeformError(str(exc)) from None


def _label_classes(step: dict, key: str) -> list[list[int]]:
    return [[_label(x, key) for x in g] for g in step[key]]


def _pipeline_collapse(surface, step: dict):
    kind = step.get("kind")
    if kind == "horizontal":
        result = horizontal_collapse(surface, [_label(v, "delete") for v in step["delete"]])
        return result.surfaces.components[0], horizontal_collapse_report(result)
    if kind == "vertical":
        if "classes" in step:
            sp = SaddlePartition.of(_label_classes(step, "classes"))
        else:
            _, sp = singleton_partitions(surface.skeleton)
        props = [fraction_from_string(x) for x in step["proportions"]]
        if len(props) != len(sp.classes):
            raise DeformError(
                f"{len(props)} proportions for {len(sp.classes)} saddle classes"
            )
        result = vertical_collapse(surface, sp, props)
        return result.surfaces.components[0], vertical_collapse_report(result)
    raise DeformError(f"collapse kind must be horizontal or vertical, got {kind!r}")


class _Step(dict):
    """A pipeline step; looking up a key it lacks is a domain error that names the key."""

    def __missing__(self, key: str):
        raise DeformError(f"missing key {key!r}")


def _run_step(surface, step: dict):
    """Apply one pipeline step; returns (next surface, artifact dict)."""
    step = _Step(step)
    op = step.get("op")
    if op == "build":
        if "surface" in step:
            out = surface_from_json(step["surface"])
        elif "skeleton" in step:
            out = random_metric(halftree_from_json(step["skeleton"]), int(step.get("seed", 0)))
        else:
            raise DeformError("build step needs 'surface' or 'skeleton'")
        return out, surface_to_json(out)
    if surface is None:
        raise DeformError("no surface yet; pipelines start with a build step")
    if op in _MOVES:
        move, members_key, amount_key = _MOVES[op]
        members = None if members_key is None else [_label(x, members_key) for x in step[members_key]]
        out = move(surface, members, fraction_from_string(step[amount_key]))
        return out, surface_to_json(out)
    if op == "collapse":
        return _pipeline_collapse(surface, step)
    if op == "quotient":
        cp = CylinderPartition.of(_label_classes(step, "cylinder_classes"))
        sp = SaddlePartition.of(_label_classes(step, "saddle_classes"))
        result = quotient(surface, cp, sp)
        return result.base, quotient_to_json(result)
    raise DeformError(f"unknown pipeline op {op!r}")


def cmd_pipeline(args: argparse.Namespace) -> int:
    script = _load_json(args.script)
    if not isinstance(script, dict) or not isinstance(script.get("steps", None), list):
        raise MetricError(f"{args.script} must be an object with a 'steps' array")
    steps = script["steps"]
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    surface = None
    artifacts: list[str] = []
    for i, step in enumerate(steps):
        if not isinstance(step, dict):
            print(f"step {i}: not an object", file=sys.stderr)
            return EXIT_FAIL
        op = step.get("op", "?")
        try:
            surface, artifact = _run_step(surface, step)
        except (_DOMAIN_ERRORS + (KeyError, ValueError, TypeError)) as exc:
            print(f"step {i} ({op}): {exc}", file=sys.stderr)
            return EXIT_FAIL
        path = outdir / f"step_{i:02d}_{str(op).replace('-', '_')}.json"
        path.write_text(_dump(artifact), encoding="utf-8")
        artifacts.append(str(path))
    _emit(_dump({"steps": len(steps), "artifacts": artifacts}), args.output)
    return EXIT_OK


# -- parser -------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once: no argument has a mutable default or an append action
    parser = argparse.ArgumentParser(
        prog="flattree",
        description="exact toolkit for horizontally periodic translation surfaces",
    )
    sub = parser.add_subparsers(dest="command")

    def out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", help="write here instead of stdout")

    p = sub.add_parser("enumerate", help="list half-tree classes with a given port count")
    p.add_argument("--ports", type=int, required=True)
    p.add_argument(
        "--limit",
        type=int,
        default=ENUMERATION_GUARD,
        help=f"refuse --ports above this (default {ENUMERATION_GUARD}, the library guard)",
    )
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="structured output")
    fmt.add_argument("--dot", action="store_true", help="one DOT diagram per class")
    out(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("build", help="build a surface from skeleton or surface JSON")
    p.add_argument("input")
    p.add_argument("--seed", type=int, help="metric seed when the input is a bare skeleton")
    out(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("profile", help="singularity and involution data of a surface")
    p.add_argument("input")
    out(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("deform", help="shear, dilate, or inspect deformation data")
    p.add_argument("input")
    p.add_argument("--partitions", help="candidate partition JSON (for --check)")
    p.add_argument("--check", action="store_true", help="run the candidate checks")
    p.add_argument("--shear", metavar="AMOUNT")
    p.add_argument("--dilate", metavar="FACTOR")
    p.add_argument("--dilate-saddle", metavar="FACTOR", dest="dilate_saddle")
    p.add_argument("--relative", metavar="AMOUNT", help="flow along the alternating cochain")
    p.add_argument("--cochain", choices=["standard", "relative"], help="emit a cochain")
    p.add_argument("--cylinders", help="comma list for --shear/--dilate/--cochain standard")
    p.add_argument("--saddles", help="comma list for --dilate-saddle")
    out(p)
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser("collapse", help="horizontal or vertical degeneration")
    p.add_argument("input")
    p.add_argument("--delete", help="comma list of cylinders (horizontal)")
    p.add_argument(
        "--proportions",
        help="vertical: 'saddle=p/q,...' keyed by class representative; omitted classes keep 0",
    )
    p.add_argument(
        "--saddle-classes",
        dest="saddle_classes",
        help="semicolon-separated comma lists; default one class per saddle",
    )
    out(p)
    p.set_defaults(func=cmd_collapse)

    p = sub.add_parser("quotient", help="collapse a candidate partition onto its base")
    p.add_argument("input")
    p.add_argument("--partitions", required=True)
    out(p)
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("--balls-n", dest="balls_n", type=int, default=10)
    p.add_argument("--balls-m", dest="balls_m", type=int, default=4)
    p.add_argument("--tree-vertices", dest="tree_vertices", type=int, default=8)
    p.add_argument("--tree-colors", dest="tree_colors", type=int, default=4)
    p.add_argument("--interval-n", dest="interval_n", type=int, default=8)
    p.add_argument("--ports-max", dest="ports_max", type=int, default=6)
    p.add_argument("--metrics", type=int, default=5, help="random metrics per skeleton")
    p.add_argument("--seed", type=int, default=0)
    out(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("pipeline", help="run a JSON script of build/deform/collapse/quotient steps")
    p.add_argument("script")
    p.add_argument("--outdir", default="pipeline-out")
    out(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("diagram", help="DOT rendering of a skeleton or surface")
    p.add_argument("input")
    p.add_argument("--name", help="graph name")
    out(p)
    p.set_defaults(func=cmd_diagram)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) is None:
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
