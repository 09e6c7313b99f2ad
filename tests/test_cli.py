"""Exit codes, byte-identical output, and report envelopes of the CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import proflq
from proflq import cli, etale, lq, tower
from proflq.errors import InvariantError
from proflq.finring import lazy_direct_sum, zero_map
from proflq.groups import all_subgroups, subgroup_group, symmetric_group
from proflq.groupcoh import cyclic_p_tower

from .test_golden import INPUTS as GOLDEN_INPUTS


@pytest.fixture()
def inputs(tmp_path):
    """A directory of JSON inputs shared by the CLI tests."""
    def put(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    s4 = symmetric_group(4)
    a4, emb = subgroup_group(s4, next(s for s in all_subgroups(s4)
                                      if len(s) == 12))
    t = cyclic_p_tower(2, 3)
    return {
        "s3": put("s3.json", {"perm_generators": [[2, 1, 3], [2, 3, 1]]}),
        "s4": put("s4.json", {"table": s4.table.tolist()}),
        "module": put("m.json", {"m": 12, "factors": [2, 6]}),
        "map": put("map.json", {"source": {"m": 12, "factors": [2, 6]},
                                "target": {"m": 12, "factors": [6]},
                                "matrix": [[0, 1]]}),
        "space": put("space.json", {
            "base": ["a", "b"],
            "fibers": {"a": {"m": 12, "factors": [2, 6]},
                       "b": {"m": 12, "factors": [4]}}}),
        "st": put("st.json", {
            "levels": [["a"], ["a0", "a1"]],
            "transitions": [{"a0": "a", "a1": "a"}]}),
        "gt": put("gt.json", {
            "levels": [{"table": g.table.tolist()} for g in t.levels],
            "transitions": [q.images for q in t.transitions]}),
        "a4_in_s4": put("hom.json", {
            "source": {"table": a4.table.tolist()},
            "target": {"table": s4.table.tolist()},
            "images": list(emb)}),
        "x": put("x.json", [1, 1, 1]),
        "y": put("y.json", [1, 3, 3]),
    }


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_lq_s3_positive(inputs, capsys):
    code, report = run(["lq", "--group", inputs["s3"], "--p", "2",
                        "--rank", "1", "--kmax", "3"], capsys)
    assert code == 0
    assert report["results"]["lhs"] == [2, 2, 2, 2]
    assert report["results"]["rhs_total"] == [2, 2, 2, 2]


def test_sep_a4_finding_is_exit_1(inputs, capsys):
    code, report = run(["sep", "--hom", inputs["a4_in_s4"], "--p", "3"],
                       capsys)
    assert code == 1
    full = [r for r in report["results"]["fullness"] if not r["skipped"]]
    assert full and all(not r["surjective"] for r in full)
    assert all(r["witness"] is not None for r in full)


def test_module_roundtrip(inputs, capsys):
    code, report = run(["module", "--module", inputs["module"],
                        "--map", inputs["map"]], capsys)
    assert code == 0
    assert report["verdicts"]["double_dual_identity"]
    assert report["results"]["map"]["kernel_factors"] == [2]


def test_etale_sections(inputs, capsys):
    code, report = run(["etale", "--space", inputs["space"]], capsys)
    assert code == 0
    assert report["results"]["product_factors"] == [2, 2, 12]


def test_product_check_sees_a_dropped_fiber(inputs, capsys, monkeypatch):
    # a direct sum that leaves its last summand out, with zero maps for it:
    # the product and the sections are then equally wrong, and only a check
    # on the universal maps can tell
    lazy_direct_sum = etale.lazy_direct_sum

    def dropping(modules):
        if len(modules) < 2:
            return lazy_direct_sum(modules)
        kept, last, n = lazy_direct_sum(modules[:-1]), modules[-1], len(modules) - 1
        total = kept.total
        return SimpleNamespace(
            total=total,
            injection=lambda i: zero_map(last, total) if i == n else kept.injection(i),
            projection=lambda i: zero_map(total, last) if i == n else kept.projection(i))

    monkeypatch.setattr(etale, "lazy_direct_sum", dropping)
    code, report = run(["etale", "--space", inputs["space"]], capsys)
    assert (code, report["verdicts"]) == (1, {"product_equals_sections": False})
    assert cli.main(["selftest", "--criterion", "2"]) == cli.EXIT_INTERNAL


def test_selftest_prints_the_dump_of_a_joint_kernel(capsys, monkeypatch):
    # with the joint projections zero, every product level has a joint
    # kernel: criterion 2 fails its invariant, exits 3 and prints its report
    monkeypatch.setattr(
        tower, "_joint_projection",
        lambda level, projections: zero_map(
            level, lazy_direct_sum([c.target for c in projections]).total))
    assert cli.main(["selftest", "--criterion", "2"]) == cli.EXIT_INTERNAL
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "internal invariant violation: components have a joint kernel"
    dump = json.loads(err[1])
    assert set(dump) == {"levels", "ok"} and not dump["ok"]
    assert not all(lv["joint_kernel_trivial"] for lv in dump["levels"])


def test_tower_product_and_dual(inputs, capsys):
    code, report = run(["tower", "product", "--tower", inputs["st"],
                        "--module", inputs["module"]], capsys)
    assert code == 0 and report["verdicts"]["ok"]
    code, report = run(["tower", "dual", "--tower", inputs["st"],
                        "--module", inputs["module"]], capsys)
    assert code == 0 and report["verdicts"]["dual_swaps_product_and_sum"]


def test_cohomology_group_and_tower(inputs, capsys):
    code, report = run(["cohomology", "--group", inputs["s3"],
                        "--p", "2", "--kmax", "3"], capsys)
    assert code == 0 and report["results"]["dims"] == [1, 1, 1, 1]
    code, report = run(["cohomology", "--tower", inputs["gt"],
                        "--p", "2", "--kmax", "3"], capsys)
    assert code == 0
    assert report["results"]["stable_degrees"] == [0, 1]


def test_rep_classes(inputs, capsys):
    code, report = run(["rep", "--group", inputs["s3"], "--p", "2"], capsys)
    assert code == 0
    assert len(report["results"]["classes"]) == 2


def test_lq_profinite_tower(inputs, capsys):
    code, report = run(["lq", "--tower", inputs["gt"], "--p", "2",
                        "--kmax", "3"], capsys)
    assert code == 0
    assert report["results"]["nontrivial_limit_classes"] == []
    assert report["results"]["persistent_threads"] == [[0, 0, 0]]


def test_sep_distinguish_exit_codes(inputs, capsys):
    code, report = run(["sep", "distinguish", "--tower", inputs["gt"],
                        "--x", inputs["x"], "--y", inputs["y"]], capsys)
    assert code == 0 and report["results"]["level"] == 1
    code, report = run(["sep", "distinguish", "--tower", inputs["gt"],
                        "--x", inputs["x"], "--y", inputs["x"]], capsys)
    assert code == 1 and not report["results"]["separated"]


def _sep_distinguish(tmp_path, monkeypatch, capsys, x, y):
    """`sep distinguish` on the golden C2 <- S3 tower and the threads x, y."""
    for name, payload in {"gt.json": GOLDEN_INPUTS["gt.json"],
                          "a.json": x, "b.json": y}.items():
        (tmp_path / name).write_text(json.dumps(payload))
    monkeypatch.chdir(tmp_path)
    return cli.main(["sep", "distinguish", "--tower", "gt.json", "--x", "a.json",
                     "--y", "b.json"]), capsys.readouterr()


@pytest.mark.parametrize("y, code, results", [
    # 1 above A3 = {0, 2, 5}: apart already in C2
    ([[0], [0, 2, 5]], 0, {"separated": True, "level": 0, "a": [0, 1], "b": [0]}),
    # two conjugate transpositions
    ([[0, 1], [0, 3]], 1, {"separated": False, "levels_checked": 2,
                           "note": "all supplied levels conjugate; no claim beyond depth"}),
], ids=["separated", "exhausted"])
def test_sep_distinguish_subgroup_threads(tmp_path, monkeypatch, capsys,
                                          y, code, results):
    got, captured = _sep_distinguish(tmp_path, monkeypatch, capsys,
                                     [[0, 1], [0, 1]], y)
    assert (got, json.loads(captured.out)["results"]) == (code, results)


@pytest.mark.parametrize("y, message", [
    ([[0, 1], [0, 1, 2]], "thread entry at level 1 is not a subgroup"),
    ([[0, 1], [0, 6]], "thread entry at level 1 is not in 0..5"),
    ([1, -1], "thread entry at level 1 is not in 0..5"),
    ([[0, 1], 1], "expected a JSON list of integers"),
    ([[0, 1], [0, 1.0]], "expected a JSON list of integers"),
], ids=["not-a-subgroup", "outside-the-level", "negative-element", "mixed",
        "float-element"])
def test_bad_subgroup_threads_are_exit_2(tmp_path, monkeypatch, capsys, y, message):
    got, captured = _sep_distinguish(tmp_path, monkeypatch, capsys,
                                     [[0, 1], [0, 1]], y)
    assert got == 2 and captured.out == ""
    assert captured.err.startswith("bad input") and message in captured.err


def test_usage_errors_are_exit_2(inputs, capsys):
    assert cli.main(["lq", "--group", "/nonexistent.json", "--p", "2"]) == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["lq", "--group", inputs["s3"], "--p", "4"])
    assert exc.value.code == 2
    assert cli.main(["rep", "--group", inputs["s3"], "--p", "2",
                     "--budget-hom", "1"]) == 2


@pytest.mark.parametrize("module, map_rows", [
    ({"m": 12, "factors": [2.5]}, None),
    ({"m": 12, "factors": "6"}, None),
    ({"m": 12, "factors": [6]}, [[1.7]]),
    ({"m": 12, "factors": [True]}, None),
], ids=["float-factor", "string-factors", "float-entry", "bool-factor"])
def test_non_integer_module_input_is_exit_2(tmp_path, capsys, module, map_rows):
    argv = ["module", "--module", str(tmp_path / "m.json")]
    (tmp_path / "m.json").write_text(json.dumps(module))
    if map_rows is not None:
        (tmp_path / "map.json").write_text(json.dumps(
            {"source": module, "target": module, "matrix": map_rows}))
        argv += ["--map", str(tmp_path / "map.json")]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("bad input")


C2 = {"table": [[0, 1], [1, 0]]}
C4 = {"table": [[(a + b) % 4 for b in range(4)] for a in range(4)]}
TOWER = {"levels": [C2, C4], "transitions": [[0, 1, 0, 1]]}


@pytest.mark.parametrize("files, argv", [
    ({"g.json": {"table": [[0, 1], [1, 0.9]]}},
     ["cohomology", "--group", "g.json", "--p", "2"]),
    ({"g.json": {"table": [[0, 1], [1, False]]}},
     ["cohomology", "--group", "g.json", "--p", "2"]),
    ({"g.json": {"perm_generators": [[2.0, 1, 3]]}},
     ["cohomology", "--group", "g.json", "--p", "2"]),
    ({"hom.json": {"source": C2, "target": C2, "images": [0, 1.6]}},
     ["sep", "--hom", "hom.json", "--p", "2"]),
    ({"gt.json": {**TOWER, "transitions": [[0, 1.0, 0, 1]]}},
     ["cohomology", "--tower", "gt.json", "--p", "2"]),
    ({"gt.json": TOWER, "x.json": [1.9, 1.2], "y.json": [1, 3]},
     ["sep", "distinguish", "--tower", "gt.json", "--x", "x.json",
      "--y", "y.json"]),
], ids=["table-float", "table-bool", "perm-generator-float", "hom-image-float",
        "tower-image-float", "thread-float"])
def test_non_integer_group_input_is_exit_2(tmp_path, capsys, monkeypatch,
                                           files, argv):
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("bad input")


@pytest.mark.parametrize("files, argv", [
    ({"hom.json": {"source": C2, "target": C2, "images": [0, 2]}},
     ["sep", "--hom", "hom.json", "--p", "2"]),
    ({"hom.json": {"source": C2, "target": C2, "images": [0, -1]}},
     ["sep", "--hom", "hom.json", "--p", "2"]),
    ({"gt.json": {**TOWER, "transitions": [[0, 1, 0, 2]]}},
     ["lq", "--tower", "gt.json", "--p", "2"]),
    ({"gt.json": {**TOWER, "transitions": [[0, 1, 0, -1]]}},
     ["lq", "--tower", "gt.json", "--p", "2"]),
], ids=["hom-image-too-large", "hom-image-negative", "tower-image-too-large",
        "tower-image-negative"])
def test_image_outside_the_target_is_exit_2(tmp_path, capsys, monkeypatch,
                                            files, argv):
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("bad input")
    assert "images must be integers in 0..1" in captured.err


@pytest.mark.parametrize("files, argv", [
    ({"space.json": {"base": [], "fibers": {}}}, ["etale", "--space", "space.json"]),
    ({"tower.json": {"levels": [[]], "transitions": []},
      "m.json": {"m": 4, "factors": [4]}},
     ["tower", "product", "--tower", "tower.json", "--module", "m.json"]),
], ids=["etale-empty-base", "tower-empty-level"])
def test_empty_space_or_tower_level_is_exit_2(tmp_path, capsys, monkeypatch,
                                              files, argv):
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("bad input")


M4 = {"m": 4, "factors": [4]}
ST = {"levels": [["a"], ["a0", "a1"]], "transitions": [{"a0": "a", "a1": "a"}]}


@pytest.mark.parametrize("files, argv, expected", [
    ({"space.json": {"base": ["a"], "fibers": [1]}},
     ["etale", "--space", "space.json"], "a JSON object for the fibers"),
    ({"tower.json": {**ST, "transitions": [["a0", "a"]]}, "m.json": M4},
     ["tower", "product", "--tower", "tower.json", "--module", "m.json"],
     "a JSON object for a transition"),
    ({"pi.json": {"source": ST, "target": ST, "level_maps": [["a"], ["a0"]]},
      "m.json": M4},
     ["tower", "freedec", "--towermap", "pi.json", "--module", "m.json"],
     "a JSON object for a level map"),
    ({"m.json": [4, [4]]}, ["module", "--module", "m.json"],
     "a JSON object for a module"),
    ({"g.json": 6}, ["cohomology", "--group", "g.json", "--p", "2"],
     "a JSON object for a group"),
    ({"g.json": 6}, ["rep", "--group", "g.json", "--p", "2"],
     "a JSON object for a group"),
    ({"hom.json": 6}, ["sep", "--hom", "hom.json", "--p", "2"],
     "a JSON object for a group homomorphism"),
    ({"gt.json": {**TOWER, "levels": 3}},
     ["cohomology", "--tower", "gt.json", "--p", "2"], "a JSON list of groups"),
], ids=["etale-fibers-list", "tower-transitions-lists", "freedec-level-maps-lists",
        "module-list", "cohomology-group-number", "rep-group-number",
        "sep-hom-number", "cohomology-tower-levels-number"])
def test_json_value_of_the_wrong_type_is_exit_2(tmp_path, capsys, monkeypatch,
                                                files, argv, expected):
    # exit 1 is a verified negative finding, so a malformed input must not
    # crash its loader with a TypeError or AttributeError
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("bad input") and f"expected {expected}" in captured.err


@pytest.mark.parametrize("subgroup", [["0", "7"], ["0", "1", "2"], []],
                         ids=["out-of-range", "not-closed", "empty"])
def test_shapiro_subgroup_that_is_not_one_is_exit_2(inputs, capsys, subgroup):
    assert cli.main(["cohomology", "--group", inputs["s3"], "--p", "2",
                     "--subgroup", *subgroup]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "is not a subgroup" in captured.err


def test_dense_map_over_z60_returns(tmp_path):
    # an endomorphism of (Z/60)^4 on which an integer Smith form never returns
    module = {"m": 60, "factors": [60, 60, 60, 60]}
    (tmp_path / "m.json").write_text(json.dumps(module))
    (tmp_path / "map.json").write_text(json.dumps({
        "source": module, "target": module,
        "matrix": [[55, 54, 3, 5], [5, 23, 53, 10], [47, 51, 42, 54],
                   [19, 16, 38, 13]]}))
    env = dict(os.environ, PYTHONPATH=str(Path(proflq.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "proflq.cli", "module", "--module", "m.json",
         "--map", "map.json"],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["map"] == {
        "kernel_factors": [20], "image_factors": [3, 60, 60, 60],
        "cokernel_factors": [20]}


@pytest.mark.parametrize("command", ["rep", "lq"])
def test_large_p_returns(inputs, tmp_path, command):
    # hom enumeration takes x^p of every x: p is read mod |G|, not looped
    env = dict(os.environ, PYTHONPATH=str(Path(proflq.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "proflq.cli", command, "--group", inputs["s4"],
         "--p", "1000000007", "--rank", "1"],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    ["cohomology", "--tower", "gt.json", "--p", "4294967311"],
    ["cohomology", "--group", "s4.json", "--p", "4294967311"],
    ["cohomology", "--group", "s4.json", "--p", "3037000507"],
])
def test_p_beyond_the_int64_bound_is_exit_2(tmp_path, monkeypatch, capsys, argv):
    # the smallest prime above 2^32, and the first above the bound
    for name in ("gt.json", "s4.json"):
        (tmp_path / name).write_text(json.dumps(GOLDEN_INPUTS[name]))
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "p(p - 1) must be at most 2^63 - 1, so p <= 3037000493" in captured.err


def test_internal_violation_is_exit_3(inputs, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise lq.LqError("forced mismatch", {"report": {}})
    monkeypatch.setattr(lq, "lq_check", broken)
    code = cli.main(["lq", "--group", inputs["s3"], "--p", "2"])
    assert code == 3


def run_optimized(script, argv):
    """Run `script` with argv under `python -O`, which strips asserts."""
    env = dict(os.environ, PYTHONPATH=str(Path(proflq.__file__).parents[1]))
    return subprocess.run([sys.executable, "-O", "-c", script, *argv],
                          capture_output=True, text=True, env=env)


# Each script breaks one input of an invariant check, then runs the CLI.
WIDEN_SOURCE_WEYL = """
import sys
from proflq import cli, repv
real = repv._realizers
def widened(group, hom, p, *args):
    realizers = real(group, hom, p, *args)
    return {**realizers, ((0,),): 0} if group.order == 12 else realizers
repv._realizers = widened
sys.exit(cli.main(sys.argv[1:]))
"""

DOUBLE_ORBITS = """
import dataclasses, sys
from proflq import cli, repv
real = repv._orbits
def doubled(*args):
    classes, orbit_map = real(*args)
    return tuple(dataclasses.replace(c, orbit=c.orbit * 2) for c in classes), orbit_map
repv._orbits = doubled
sys.exit(cli.main(sys.argv[1:]))
"""

# each centralizer swapped for another subgroup of its order, where there is one
SAME_ORDER_CENTRALIZER = """
import dataclasses, sys
from proflq import cli, repv
from proflq.groups import all_subgroups
real = repv._orbits
def swapped(v, group, homs, action):
    classes, orbit_map = real(v, group, homs, action)
    subgroups = all_subgroups(group)
    return tuple(dataclasses.replace(c, centralizer=tuple(sorted(next(
        (s for s in subgroups if len(s) == len(c.centralizer)
         and s != frozenset(c.centralizer)), c.centralizer))))
        for c in classes), orbit_map
repv._orbits = swapped
sys.exit(cli.main(sys.argv[1:]))
"""

# the orbit pass marks only each representative, so every other orbit
# member becomes a class of its own; orbit-stabilizer and the fixed-point
# check still hold for each of them
DUPLICATE_CLASSES = """
import inspect, sys
from proflq import cli, repv
source = inspect.getsource(repv._orbits)
marked = source.replace("for j in orbit:\\n            orbit_map[j] = len(classes)",
                        "orbit_map[i] = len(classes)")
if marked == source:
    sys.exit("the mutant does not apply")
exec(marked, repv.__dict__)
sys.exit(cli.main(sys.argv[1:]))
"""

EMPTY_THREADS = """
import sys
from proflq import cli, lq
real = lq.profinite_lq
def emptied(*args, **kwargs):
    return {**real(*args, **kwargs), "persistent_threads": []}
lq.profinite_lq = emptied
sys.exit(cli.main(sys.argv[1:]))
"""


def test_fullness_inclusion_is_checked_under_O(inputs):
    proc = run_optimized(WIDEN_SOURCE_WEYL,
                         ["sep", "--hom", inputs["a4_in_s4"], "--p", "3"])
    assert proc.returncode == 3, proc.stderr
    assert "must reproduce eta" in proc.stderr and proc.stdout == ""


def test_orbit_stabilizer_is_checked_under_O(inputs):
    proc = run_optimized(DOUBLE_ORBITS, ["lq", "--group", inputs["s3"], "--p", "2",
                                         "--rank", "1", "--dump-orbits"])
    assert proc.returncode == 3, proc.stderr
    assert "orbit-stabilizer" in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["lq", "--group", "s4", "--p", "2", "--rank", "2"],
    ["rep", "--group", "s4", "--p", "2", "--rank", "2"],
    ["sep", "--hom", "a4_in_s4", "--p", "3"],
], ids=["lq", "rep", "sep"])
def test_centralizer_is_checked_for_every_command_under_O(inputs, argv):
    # the classes are checked where they are made, whichever command reads them
    proc = run_optimized(SAME_ORDER_CENTRALIZER,
                         [inputs.get(arg, arg) for arg in argv])
    assert proc.returncode == 3, proc.stderr
    assert "moves it" in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["lq", "--group", "s4", "--p", "2", "--rank", "2"],
    ["rep", "--group", "s4", "--p", "2", "--rank", "2"],
    ["sep", "--hom", "a4_in_s4", "--p", "3"],
], ids=["lq", "rep", "sep"])
def test_duplicated_classes_are_refused_for_every_command_under_O(inputs, argv):
    proc = run_optimized(DUPLICATE_CLASSES, [inputs.get(arg, arg) for arg in argv])
    assert proc.returncode == 3, proc.stderr
    assert "must be one class of hom(V, G)" in proc.stderr and proc.stdout == ""


def test_selftest_criterion_is_checked_under_O():
    proc = run_optimized(EMPTY_THREADS, ["selftest", "--criterion", "7"])
    assert proc.returncode == 3, proc.stderr
    assert "persistent threads" in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("dump, lines", [
    ({"evidence": [1, 2]}, ["internal invariant violation: forced",
                            '{"evidence":[1,2]}']),
    (None, ["internal invariant violation: forced"]),
])
def test_invariant_dump_goes_to_stderr(inputs, capsys, monkeypatch, dump, lines):
    def broken(*args, **kwargs):
        raise InvariantError("forced", dump)
    monkeypatch.setattr(lq, "lq_check", broken)
    assert cli.main(["lq", "--group", inputs["s3"], "--p", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == lines


def test_byte_identical_output(inputs, capsys):
    argv = ["lq", "--group", inputs["s3"], "--p", "2", "--kmax", "2"]
    cli.main(argv)
    first = capsys.readouterr().out
    cli.main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_console_entry_point(inputs):
    proc = subprocess.run(
        [sys.executable, "-m", "proflq.cli", "cohomology",
         "--group", inputs["s3"], "--p", "3", "--kmax", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["results"]["dims"] == [1, 0, 0]
    assert "total" in proc.stderr  # timings stay off stdout


def test_library_import_leaves_libcrypto_unloaded():
    # `_hashlib` loads OpenSSL's libcrypto (about 3.6 MB resident); only
    # `jsonio.digest` needs it, so importing the library must not.
    env = dict(os.environ, PYTHONPATH=str(Path(proflq.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, proflq.cli; print('_hashlib' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_selftest_single_criterion(capsys):
    code, report = run(["selftest", "--criterion", "1"], capsys)
    assert code == 0
    assert report["verdicts"] == {"duality suite": True}
    assert "elapsed" not in json.dumps(report)  # payload carries no timings
