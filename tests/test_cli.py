"""Command-line surface: exit codes, JSON payloads, schema validation."""

import json
import os
import pathlib
import subprocess
import sys

import jsonschema
import pytest
from referencing import Registry, Resource

from conftest import (
    make_edge_automaton,
    make_path_program,
    make_sigma1_rewrite,
    make_slow_answer_program,
    make_tc_program,
)
import homkit
from homkit.automata import print_automaton
from homkit.cli import main
from homkit.syntax import print_instance, print_program, print_query, \
    print_tgds
from homkit.program import TGD, Atom
from homkit.ucq import CQ, UCQ
from conftest import digraph

SCHEMA_DIR = pathlib.Path(__file__).resolve().parent.parent / "docs" / \
    "schemas"


def _registry() -> Registry:
    resources = []
    for path in SCHEMA_DIR.glob("*.json"):
        contents = json.loads(path.read_text())
        resources.append((path.name, Resource.from_contents(contents)))
    return Registry().with_resources(resources)


REGISTRY = _registry()


def validate(payload: dict, schema_name: str):
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    jsonschema.Draft202012Validator(
        schema, registry=REGISTRY).validate(payload)


@pytest.fixture
def files(tmp_path):
    d = tmp_path
    (d / "tc.dl").write_text(print_program(make_tc_program()))
    (d / "path2.dl").write_text(print_program(make_path_program(2)))
    (d / "rewrite.dl").write_text(print_program(make_sigma1_rewrite("E")))
    (d / "path.inst").write_text(print_instance(
        digraph([("a", "b"), ("b", "c")])))
    (d / "loop.inst").write_text(print_instance(digraph([("x", "x")])))
    (d / "jloop.inst").write_text(
        "instance over Ans/2\ndomain: a\nAns(a,a).\n")
    (d / "sigma1.tgd").write_text(print_tgds([
        TGD((Atom("E", ("x", "y")), Atom("E", ("y", "z"))),
            (Atom("E", ("x", "z")),))]))
    (d / "sigma2.tgd").write_text(print_tgds([
        TGD((Atom("E", ("x", "y")),), (Atom("E", ("y", "z")),), ("z",))]))
    (d / "q.q").write_text(print_query(UCQ("q", 0, (
        CQ((), (Atom("E", ("x", "y")), Atom("E", ("y", "z")))),))))
    (d / "edge.aut").write_text(print_automaton(make_edge_automaton()))
    return d


def run_cli(capsys, *argv) -> tuple:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv) -> tuple:
    code, out = run_cli(capsys, *argv, "--json")
    return code, json.loads(out)


def test_classify(files, capsys):
    code, payload = run_json(capsys, "classify", str(files / "tc.dl"))
    assert code == 0 and payload["tam"] and payload["connected"]
    validate(payload, "classify.json")


def test_classify_parse_error(files, capsys):
    (files / "bad.dl").write_text("nonsense\n")
    assert main(["classify", str(files / "bad.dl")]) == 2


def test_usage_error_exit_code():
    assert main(["classify"]) == 2
    assert main(["no-such-command"]) == 2


def test_chase(files, capsys):
    code, payload = run_json(capsys, "chase", str(files / "tc.dl"),
                             str(files / "path.inst"))
    assert code == 0 and payload["terminated"]
    assert "Ans(a,c)" in payload["output"]["facts"]
    validate(payload, "chase.json")


def test_unfold(files, capsys):
    code, payload = run_json(capsys, "unfold", str(files / "tc.dl"),
                             "--rel", "Ans", "--depth", "2")
    assert code == 0 and payload["count"] >= 2
    validate(payload, "unfold.json")


def test_hom_exit_codes(files, capsys):
    code, payload = run_json(capsys, "hom", str(files / "path.inst"),
                             str(files / "loop.inst"))
    assert code == 0 and payload["hom"]
    validate(payload, "hom.json")
    code, payload = run_json(capsys, "hom", str(files / "loop.inst"),
                             str(files / "path.inst"))
    assert code == 1 and payload == {"hom": None}
    validate(payload, "hom.json")


def test_adjoint(files, capsys, tmp_path):
    out = tmp_path / "members"
    code, payload = run_json(capsys, "adjoint", str(files / "tc.dl"),
                             str(files / "jloop.inst"),
                             "--verify", "3", "-o", str(out))
    assert code == 0 and payload["members"]
    assert payload["verified"]["passed"]
    validate(payload, "adjoint.json")
    assert (out / "member_0.inst").exists()
    assert (out / "member_0.iota.json").exists()


def test_adjoint_of_a_star_body(tmp_path):
    # x occurs in all three body atoms; the simple normal form must finish,
    # so the command runs in its own process under a timeout
    (tmp_path / "star.dl").write_text(
        "program\nin: E/2\nout: Ans/1\nrules\n"
        "Ans(x) :- E(x,y), E(x,z), E(x,w).\n")
    (tmp_path / "j.inst").write_text(
        "instance over Ans/1\ndomain: a, b\nAns(a).\n")
    src = str(pathlib.Path(homkit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "homkit.cli", "adjoint",
         str(tmp_path / "star.dl"), str(tmp_path / "j.inst"),
         "--verify", "3", "--json"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert payload["members"] and payload["verified"]["passed"]


def test_chase_modes(files, capsys):
    code, payload = run_json(capsys, "chase", str(files / "tc.dl"),
                             str(files / "path.inst"),
                             "--mode", "wa", "--full")
    assert code == 0 and "full" in payload
    validate(payload, "chase.json")
    # the full chase carries the auxiliary relation, the output does not
    full_rels = {f.split("(")[0] for f in payload["full"]["facts"]}
    out_rels = {f.split("(")[0] for f in payload["output"]["facts"]}
    assert "T" in full_rels and "T" not in out_rels


def test_dualize_with_certificate(files, capsys, tmp_path):
    out = tmp_path / "duals"
    code, payload = run_json(capsys, "dualize", "--program",
                             str(files / "path2.dl"), "--rel", "Ans",
                             "--verify", "3", "--out-dir", str(out))
    assert code == 0
    assert payload["verified"]["passed"]
    validate(payload, "dualize.json")
    assert (out / "dual_0.inst").exists()
    assert json.loads((out / "certificate.json").read_text()) == payload


def test_dualize_byte_identical(files, capsys):
    args = ("dualize", "--program", str(files / "path2.dl"),
            "--rel", "Ans")
    _, first = run_cli(capsys, *args, "--json")
    _, second = run_cli(capsys, *args, "--json")
    assert first == second


def test_dualize_frontier_mode(files, capsys, tmp_path):
    out = tmp_path / "fduals"
    code, payload = run_json(capsys, "dualize",
                             "--frontier", str(files / "path.inst"),
                             "--minimize", "--verify", "3",
                             "-o", str(out))
    assert code == 0 and payload["verified"]["passed"]
    assert payload["minimized"] and payload["program"] is None
    assert payload["frontier"]
    validate(payload, "dualize.json")
    assert (out / "dual_0.inst").exists()


def test_dualize_relative_and_abox(files, capsys):
    for extra in ((), ("--abox",)):
        code, payload = run_json(
            capsys, "dualize", "--frontier", str(files / "path.inst"),
            "--theory", str(files / "sigma1.tgd"),
            "--adjoint-program", str(files / "rewrite.dl"),
            "--verify", "3", *extra)
        assert code == 0 and payload["verified"]["passed"]
        assert payload["category"] == ("abox" if extra else "relative")
        validate(payload, "dualize.json")


def test_dualize_usage_errors(files, capsys):
    program = ["--program", str(files / "path2.dl"), "--rel", "Ans"]
    frontier = ["--frontier", str(files / "path.inst")]
    for argv in (
            # --program and --frontier are mutually exclusive; --program
            # needs --rel
            ["dualize", *program, *frontier],
            ["dualize", "--program", str(files / "path2.dl")],
            ["dualize"],
            # the dependency-set flags apply to --frontier only
            ["dualize", *program, "--theory", str(files / "sigma1.tgd")],
            ["dualize", *program, "--abox"],
            ["dualize", *program, "--adjoint-program",
             str(files / "rewrite.dl")],
            ["dualize", *program, "--theory", str(files / "sigma1.tgd"),
             "--abox", "--adjoint-program", str(files / "tc.dl"), "--json"],
            # --abox needs --theory, with or without --verify
            ["dualize", *frontier, "--abox"],
            ["dualize", *frontier, "--abox", "--verify", "2"],
            # --abox contradicts an explicit --mode model
            ["characterize", str(files / "q.q"), "--mode", "model",
             "--abox"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("error: ") and \
            captured.err.count("\n") == 1, argv


def test_characterize(files, capsys, tmp_path):
    out = tmp_path / "char"
    code, payload = run_json(
        capsys, "characterize", "--query", str(files / "q.q"),
        "--theory", str(files / "sigma1.tgd"),
        "--adjoint-program", str(files / "rewrite.dl"),
        "--verify", "3", "--out-dir", str(out))
    assert code == 0 and payload["verified"]["passed"]
    validate(payload, "characterize.json")
    assert (out / "pos_0.inst").exists() and (out / "neg_0.inst").exists()
    # positional query file and --abox shorthand
    code, payload2 = run_json(
        capsys, "characterize", str(files / "q.q"),
        "--theory", str(files / "sigma1.tgd"),
        "--adjoint-program", str(files / "rewrite.dl"), "--abox")
    assert code == 0
    validate(payload2, "characterize.json")


def test_verify_adjoint_and_equiv(files, capsys):
    code, payload = run_json(capsys, "verify", "adjoint",
                             str(files / "tc.dl"),
                             str(files / "jloop.inst"), "-B", "2")
    assert code == 0 and payload["passed"]
    validate(payload, "verdict.json")
    code, payload = run_json(capsys, "verify", "equiv",
                             str(files / "tc.dl"), str(files / "tc.dl"),
                             "-B", "2")
    assert code == 0 and payload["passed"]


def test_verify_equiv_unknown_on_unfinished_chase(capsys, tmp_path):
    for guard in (False, True):
        (tmp_path / f"p{guard:d}.dl").write_text(
            print_program(make_slow_answer_program(guard)))
    code, out = run_cli(capsys, "verify", "equiv", str(tmp_path / "p0.dl"),
                        str(tmp_path / "p1.dl"), "-B", "2")
    assert code == 1 and out.startswith("unknown (B=2)")


def test_automaton_subcommands(files, capsys, tmp_path):
    code, payload = run_json(capsys, "automaton", "run",
                             str(files / "edge.aut"),
                             "--term", "E@1({},{X1})")
    assert code == 0 and payload["accepted"]
    validate(payload, "automaton_run.json")
    code, payload = run_json(capsys, "automaton", "run",
                             str(files / "edge.aut"), "--term", "{X1}")
    assert code == 1 and not payload["accepted"]
    code, payload = run_json(capsys, "automaton", "compile",
                             str(files / "edge.aut"))
    assert code == 0
    validate(payload, "program.json")
    comp = tmp_path / "comp.aut"
    code, payload = run_json(capsys, "automaton", "complement",
                             str(files / "edge.aut"), "-o", str(comp))
    assert code == 0 and comp.exists()
    validate(payload, "automaton.json")
    code, _ = run_json(capsys, "automaton", "union",
                       str(files / "edge.aut"), str(comp))
    assert code == 0
    code, _ = run_json(capsys, "automaton", "project",
                       str(files / "edge.aut"), "--labels", "X1")
    assert code == 0


def test_tgd_and_pultr_compile(files, capsys, tmp_path):
    code, payload = run_json(capsys, "tgd", "compile",
                             str(files / "sigma1.tgd"))
    assert code == 0 and "E" in payload["aux"]
    validate(payload, "program.json")
    (tmp_path / "phiv.q").write_text(print_query(
        UCQ("v", 1, (CQ(("x",), (Atom("V", ("x",)),)),))))
    (tmp_path / "phie.q").write_text(print_query(
        UCQ("e", 2, (CQ(("x", "y"), (Atom("E", ("x", "y")),)),))))
    code, payload = run_json(capsys, "pultr", "compile",
                             "--vertex", str(tmp_path / "phiv.q"),
                             "--edge", str(tmp_path / "phie.q"))
    assert code == 0
    validate(payload, "program.json")


def test_verify_duality_cli(files, capsys, tmp_path):
    out = tmp_path / "duals"
    run_cli(capsys, "dualize", "--program", str(files / "path2.dl"),
            "--rel", "Ans", "--out-dir", str(out))
    # frontier: the canonical 2-edge path
    front = tmp_path / "front.inst"
    front.write_text(print_instance(digraph([("a", "b"), ("b", "c")])))
    code, payload = run_json(capsys, "verify", "duality",
                             "--frontier", str(front),
                             "--dual", str(out / "dual_0.inst"),
                             "-B", "3")
    assert code == 0 and payload["passed"]
    validate(payload, "verdict.json")
    # using the frontier itself as the dual fails at B=3 (the 3-element
    # path receives the frontier and maps into the "dual")
    code, payload = run_json(capsys, "verify", "duality",
                             "--frontier", str(front),
                             "--dual", str(front), "-B", "3")
    assert code == 1 and not payload["passed"]


def test_verify_abox_duality_without_theory_is_a_usage_error(files, capsys):
    code = main(["verify", "duality", "--frontier", str(files / "path.inst"),
                 "--dual", str(files / "loop.inst"), "--category", "abox",
                 "-B", "1"])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ")


@pytest.mark.parametrize("extra", [
    ("--category", "relative"),
    ("--category", "plain", "--theory", "sigma1.tgd")],
    ids=("relative-without-theory", "plain-with-theory"))
def test_verify_duality_category_and_theory_must_agree(files, capsys,
                                                       monkeypatch, extra):
    monkeypatch.chdir(files)
    code = main(["verify", "duality", "--frontier", "path.inst",
                 "--dual", "loop.inst", "-B", "1", *extra])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and \
        captured.err.count("\n") == 1


@pytest.mark.parametrize("old, new", [
    ("E/2", "E/x"), ("E/2", "E/2/3"), ("trans E 1", "trans E one"),
    ("{} -> q0", "{} -> q0 -> q1"), ("(q0,q0) -> q1", "(q0,q0) -> q1 -> q0"),
], ids=("arity", "double-slash", "root-index", "leaf-arrows",
        "trans-arrows"))
def test_malformed_automaton_exits_2(capsys, tmp_path, old, new):
    text = print_automaton(make_edge_automaton())
    (tmp_path / "bad.aut").write_text(text.replace(old, new, 1))
    assert main(["automaton", "compile", str(tmp_path / "bad.aut")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line ") and err.count("\n") == 1


@pytest.mark.parametrize("term,where", [
    ("E@3({},{})", "line 1, column 3"),
    ("E@1(" * 1000 + "{}" + ")" * 1000, "line 1, column 404")],
    ids=["root-index", "deep"])
def test_malformed_term_exits_2(files, capsys, term, where):
    assert main(["automaton", "run", str(files / "edge.aut"),
                 "--term", term]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: ") and err.count("\n") == 1


def test_conflicting_arities_exit_2(files, capsys, tmp_path):
    (tmp_path / "bad.inst").write_text("instance over E/1, E/2\nE(a,b).\n")
    (tmp_path / "bad.dl").write_text(
        "program\nin: E/1, E/2\nout: Ans/0\nrules\nAns() :- E(x,y).\n")
    (tmp_path / "bad.aut").write_text(
        "automaton over E/1, E/2\nlabels: X1\nstates: q0\naccept: q0\n"
        "leaf {} -> q0\n")
    for argv in (["hom", str(tmp_path / "bad.inst"),
                  str(files / "path.inst")],
                 ["classify", str(tmp_path / "bad.dl")],
                 ["automaton", "compile", str(tmp_path / "bad.aut")]):
        assert main(argv) == 2
        assert "conflicting arities" in capsys.readouterr().err
