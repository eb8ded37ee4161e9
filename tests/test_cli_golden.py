"""Golden ``--json`` output: the sha256 of stdout and the exit code of
in-process ``homkit`` runs of every subcommand, and the sha256 of the
``--out-dir`` files that adjoint, dualize and characterize write.

The digests pin the JSON output byte for byte.  The adjoint and duality
digests were taken from the code before the pair-element adjoint was
rewritten to enumerate facts instead of variable assignments; the classify
digests, which pin ``articulation_witness``, from the code before the
articulation search became one product; the hom digests, which pin the
first witness of ``find_homomorphism``, from the code before the search
went over integer-coded bitmask domains with forward checking; the
verdict digests, which pin ``verified``, ``unknown`` and the first
counterexample in the plain, relative and ABox categories, from the code
before the oracle's "does some member map" answers became one
three-valued helper.  The digests of chase, unfold, verify adjoint and
equiv, tgd, pultr and automaton, and of the ``--out-dir`` files, were
taken from the code before compiled dependency sets moved instances
between schemas by unchecked renames.  A mismatch means the output
changed, and the digest must not be regenerated to make the test pass.
"""

import contextlib
import hashlib
import io
import itertools
import pathlib

import pytest

from conftest import (
    digraph,
    make_disconnected_program,
    make_ef_program,
    make_loop_rule_program,
    make_nonterminating_program,
    make_path_program,
    make_sigma1_rewrite,
    make_slow_answer_program,
    make_symmetric_closure,
    make_tc_program,
    make_unfold_program,
    mycielski,
    rel_instance,
    sigma1,
    sigma2,
    symmetric_digraph,
)
from homkit.cli import main
from homkit.core import Element, Instance
from homkit.program import pultr_compile
from homkit.syntax import parse_query, print_instance, print_program, \
    print_tgds

PROGRAMS = {
    "disconnected": make_disconnected_program(),
    "path1": make_path_program(1),
    "path2": make_path_program(2),
    "path3": make_path_program(3),
    "rewrite": make_sigma1_rewrite("E"),
    "symmetric": make_symmetric_closure(),
    "tc": make_tc_program(),
    "unfold": make_unfold_program(),
}

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / \
    "fixtures"

# classify runs on every conftest program and every fixture program
CLASSIFIED = dict(PROGRAMS, **{
    "ef": make_ef_program(),
    "loop-rule": make_loop_rule_program(),
    "nonterminating": make_nonterminating_program(),
    "rewrite-R": make_sigma1_rewrite(),
    "slow-answer": make_slow_answer_program(False),
    "slow-answer-guard": make_slow_answer_program(True),
})


def _js(P) -> dict:
    """Three instances over P's output schema: every fact over one element,
    no fact over two, and every fact over two but the one (a, b, b, ...)."""
    a, b = Element.named("a"), Element.named("b")
    out = {}
    for name, dom in (("loop", [a]), ("empty", [a, b]), ("most", [a, b])):
        facts = []
        if name != "empty":
            for rel, arity in P.s_out.relations:
                drop = (a,) + (b,) * (arity - 1) if arity else None
                facts += [(rel, t)
                          for t in itertools.product(dom, repeat=arity)
                          if name == "loop" or t != drop]
        out[name] = Instance(P.s_out, dom, facts)
    return out


# sources and targets of the ``hom`` cases, besides edge, path and ppath
HOM_INSTANCES = {
    "k2": symmetric_digraph([("x", "y")]),
    "k3": symmetric_digraph([("x", "y"), ("y", "z"), ("x", "z")]),
    "c5": symmetric_digraph([(f"v{i}", f"v{(i + 1) % 5}") for i in range(5)]),
    "m4": symmetric_digraph([(f"m{a:02d}", f"m{b:02d}")
                             for a, b in mycielski(4)[1]]),
    "loop": digraph([("a", "a")]),
    "lollipop": digraph([("a", "b"), ("b", "c"), ("c", "c")]),
    "dicycle": digraph([("x", "y"), ("y", "z"), ("z", "x")]),
    "pdicycle": digraph([("x", "y"), ("y", "z"), ("z", "x")],
                        points=("z",)),
    "ppath-c": digraph([("a", "b"), ("b", "c")], points=("c",)),
    "tsrc": rel_instance("T", 3, [("p", "q", "p"), ("q", "r", "r"),
                                  ("r", "s", "p")]),
    "tloops": rel_instance("T", 3, [("a", "b", "a"), ("b", "a", "a"),
                                  ("a", "a", "b"), ("b", "c", "c"),
                                  ("c", "c", "c"), ("c", "a", "b")]),
    "tplain": rel_instance("T", 3, [("a", "b", "a"), ("b", "a", "b"),
                                    ("a", "b", "b")]),
    "tchain": rel_instance("T", 3, [("a", "b", "c"), ("b", "c", "a")]),
}

# (source, target) of each ``hom`` case, by instance file name
HOM_CASES = {
    "path-k3": ("path", "k3"),
    "c5-k3": ("c5", "k3"),
    "c5-k2": ("c5", "k2"),
    "m4-k3": ("m4", "k3"),
    "k3-loop": ("k3", "loop"),
    "path-edge": ("path", "edge"),
    "edge-path": ("edge", "path"),
    "path-lollipop": ("path", "lollipop"),
    "dicycle-lollipop": ("dicycle", "lollipop"),
    "ppath-pdicycle": ("ppath", "pdicycle"),
    "ppath-c-lollipop": ("ppath-c", "lollipop"),
    "ppath-ppath-c": ("ppath", "ppath-c"),
    "tsrc-tloops": ("tsrc", "tloops"),
    "tsrc-tplain": ("tsrc", "tplain"),
    "tsrc-tchain": ("tsrc", "tchain"),
}


# queries of the ``characterize`` cases
QUERIES = {
    "edge": "query q/2\n(x,y) :- E(x,y).\n",
    "mid": "query q/1\n(y) :- E(x,y), E(y,z).\n",
    "some-edge": "query q/0\n() :- E(x,y).\n",
}

# vertex and edge queries of the ``pultr compile`` case
PULTR_QUERIES = {
    "pultr-v": "query v/1\n(x) :- V(x).\n",
    "pultr-e": "query e/2\n(x,y) :- E(x,z), E(z,y).\n",
}

# the compiled program of the ``pultr`` queries, as chase input
PULTR_PROGRAM = pultr_compile(
    *(parse_query(text).disjuncts[0] for text in PULTR_QUERIES.values()))

# the remaining subcommands: chase in each mode, unfold, verify adjoint
# and equiv, tgd, pultr and automaton
COMMANDS = {
    "chase-tc-path": ("chase", "tc.dl", "path.inst"),
    "chase-tc-path-full": ("chase", "tc.dl", "path.inst", "--full"),
    "chase-pultr-wa": ("chase", "pultr.dl", "pultr.inst", "--mode", "wa"),
    "chase-pultr-wa-full": (
        "chase", "pultr.dl", "pultr.inst", "--mode", "wa", "--full"),
    "chase-nonterminating-auto": (
        "chase", "nonterminating.dl", "r-edge.inst"),
    "chase-nonterminating-bounded": (
        "chase", "nonterminating.dl", "r-edge.inst", "--mode", "bounded",
        "--max-steps", "4", "--full"),
    "unfold-tc-Ans": ("unfold", "tc.dl", "--rel", "Ans", "--depth", "3"),
    "unfold-rewrite-E_out": (
        "unfold", "rewrite.dl", "--rel", "E_out", "--depth", "2"),
    "verify-adjoint-path2-loop": (
        "verify", "adjoint", "path2.dl", "path2.loop.inst", "-B", "2"),
    "verify-adjoint-tc-most": (
        "verify", "adjoint", "tc.dl", "tc.most.inst", "-B", "2"),
    "verify-equiv-path2-path3-B2": (
        "verify", "equiv", "path2.dl", "path3.dl", "-B", "2"),
    "verify-equiv-path2-path3-B3": (
        "verify", "equiv", "path2.dl", "path3.dl", "-B", "3"),
    "tgd-compile-sigma1": ("tgd", "compile", "sigma1.tgd"),
    "tgd-compile-sigma2": ("tgd", "compile", "sigma2.tgd"),
    "tgd-compile-inclusion": ("tgd", "compile", "fixture-inclusion.tgd"),
    "tgd-print-sigma1": ("tgd", "print", "sigma1.tgd"),
    "pultr-compile": (
        "pultr", "compile", "--vertex", "pultr-v.q", "--edge", "pultr-e.q"),
    "automaton-compile-edge": ("automaton", "compile", "fixture-edge.aut"),
    "automaton-run-edge-accepted": (
        "automaton", "run", "fixture-edge.aut", "--term", "E@1({},{X1})"),
    "automaton-run-edge-rejected": (
        "automaton", "run", "fixture-edge.aut", "--term", "{X1}"),
    "automaton-union-edge-label": (
        "automaton", "union", "fixture-edge.aut", "fixture-label.aut"),
    "automaton-complement-label": (
        "automaton", "complement", "fixture-label.aut"),
    "automaton-project-edge": (
        "automaton", "project", "fixture-edge.aut", "--labels", ""),
}

# verdict cases: pass, fail and unknown in each category
VERDICTS = {
    "characterize-edge-sigma1": (
        "characterize", "edge.q", "--theory", "sigma1.tgd",
        "--adjoint-program", "rewrite.dl", "--verify", "2"),
    "characterize-mid-sigma1": (
        "characterize", "mid.q", "--theory", "sigma1.tgd",
        "--adjoint-program", "rewrite.dl", "--verify", "2"),
    "characterize-edge-sigma2-abox": (
        "characterize", "edge.q", "--theory", "sigma2.tgd", "--abox",
        "--verify", "2"),
    "characterize-mid-sigma2-abox": (
        "characterize", "mid.q", "--theory", "sigma2.tgd", "--abox",
        "--verify", "2"),
    "characterize-some-edge-sigma2-abox": (
        "characterize", "some-edge.q", "--theory", "sigma2.tgd", "--abox",
        "--verify", "2"),
    "verify-frontier-edge-sigma2-abox": (
        "dualize", "--frontier", "edge.inst", "--theory", "sigma2.tgd",
        "--abox", "--verify", "2"),
    "verify-frontier-path-sigma2-abox": (
        "dualize", "--frontier", "path.inst", "--theory", "sigma2.tgd",
        "--abox", "--verify", "2"),
    "verify-dualize-inclusion-R_out": (
        "dualize", "--program", "fixture-inclusion.dl", "--rel", "R_out",
        "--verify", "2"),
    "verify-duality-edge-loop": (
        "verify", "duality", "--frontier", "edge.inst", "--dual",
        "loop.inst", "-B", "2"),
    "verify-duality-edge-loop-abox": (
        "verify", "duality", "--frontier", "edge.inst", "--dual",
        "loop.inst", "--theory", "sigma2.tgd", "--category", "abox",
        "-B", "2"),
    "verify-duality-path-edge-sigma1": (
        "verify", "duality", "--frontier", "path.inst", "--dual",
        "edge.inst", "--theory", "sigma1.tgd", "-B", "2"),
}


def _write_files(d):
    for name, P in PROGRAMS.items():
        for jname, J in _js(P).items():
            (d / f"{name}.{jname}.inst").write_text(print_instance(J))
    for name, P in CLASSIFIED.items():
        (d / f"{name}.dl").write_text(print_program(P))
    for pattern in ("*.dl", "*.tgd", "*.aut"):
        for path in FIXTURES.glob(pattern):
            (d / f"fixture-{path.name}").write_text(path.read_text())
    (d / "edge.inst").write_text(print_instance(digraph([("a", "b")])))
    (d / "path.inst").write_text(print_instance(
        digraph([("a", "b"), ("b", "c")])))
    (d / "ppath.inst").write_text(print_instance(
        digraph([("a", "b"), ("b", "c")], points=("a",))))
    for name, inst in HOM_INSTANCES.items():
        (d / f"{name}.inst").write_text(print_instance(inst))
    (d / "sigma1.tgd").write_text(print_tgds(sigma1("E")))
    (d / "sigma2.tgd").write_text(print_tgds(sigma2("E")))
    for name, text in dict(QUERIES, **PULTR_QUERIES).items():
        (d / f"{name}.q").write_text(text)
    (d / "pultr.dl").write_text(print_program(PULTR_PROGRAM))
    (d / "pultr.inst").write_text(
        "instance over V_in/1, E_in/2\n"
        "V_in(a).\nV_in(c).\nE_in(a,b).\nE_in(b,c).\nE_in(c,a).\n")
    (d / "r-edge.inst").write_text(print_instance(
        rel_instance("R_in", 2, [("a", "b")])))


def _cases() -> dict:
    cases = {}
    for name, P in PROGRAMS.items():
        for jname in _js(P):
            cases[f"adjoint-{name}-{jname}"] = (
                "adjoint", f"{name}.dl", f"{name}.{jname}.inst")
        # the unfold program's dual takes minutes: the adjoint of its
        # two-element forbidden-tuple instance has too many pair elements
        for rel in P.s_out.names if name != "unfold" else ():
            cases[f"dualize-{name}-{rel}"] = (
                "dualize", "--program", f"{name}.dl", "--rel", rel)
    for inst in ("edge", "path", "ppath"):
        cases[f"frontier-{inst}-sigma1"] = (
            "dualize", "--frontier", f"{inst}.inst", "--theory",
            "sigma1.tgd", "--adjoint-program", "rewrite.dl")
        cases[f"frontier-{inst}-sigma2-abox"] = (
            "dualize", "--frontier", f"{inst}.inst", "--theory",
            "sigma2.tgd", "--abox")
        cases[f"frontier-{inst}-minimize"] = (
            "dualize", "--frontier", f"{inst}.inst", "--minimize")
    for name in CLASSIFIED:
        cases[f"classify-{name}"] = ("classify", f"{name}.dl")
    for name, (src, dst) in HOM_CASES.items():
        cases[f"hom-{name}"] = ("hom", f"{src}.inst", f"{dst}.inst")
    for path in FIXTURES.glob("*.dl"):
        cases[f"classify-fixture-{path.stem}"] = (
            "classify", f"fixture-{path.name}")
    cases.update(VERDICTS)
    cases.update(COMMANDS)
    return cases


CASES = _cases()

# sha256 of stdout per case
GOLDEN = {
    "adjoint-disconnected-empty":
        "511c80237c22028e18a2e638bb31c5a2350c04d6ec7f17e97a916772d5f8676d",
    "adjoint-disconnected-loop":
        "bbd148f847e435cdf8443d51fd6174b2354d4bf45210aa38fce06138dac61508",
    "adjoint-disconnected-most":
        "6124e6b432682c1a2d5de6c325ee10119f36d29e3992424636313b132e04181e",
    "adjoint-path1-empty":
        "b3057b3b52e84411b9c1fe98e341c7f8f460e00254377e12513354dd6a670887",
    "adjoint-path1-loop":
        "64dd487fa9af350c908c1a60763bbbb6a46fb31265eb4fba7ec50dc23dacbef5",
    "adjoint-path1-most":
        "454b010dd471087e20fff7a1ea61b10adb3b3db18a743e25623f0e1e526098c5",
    "adjoint-path2-empty":
        "03a70dd6b04cd759a8293f46ce6fe38030611d4405dc365a00cf3cfbe9187c8d",
    "adjoint-path2-loop":
        "acc3ad1553b2f59e52d67ee4829740245ad6728bf6e32a6df9e68767c9f95f17",
    "adjoint-path2-most":
        "fe06d03b9a12c4f147b1582e5bc368abad65ab3fca398e29e89c3a00ba27ea88",
    "adjoint-path3-empty":
        "4e85a02d8c2c26bfe0a2b7a6e3feac073c163676138d003b9ce90f48cebc1fbc",
    "adjoint-path3-loop":
        "ec362f99419ad46d3d1f4ceaeaccedfd5acf25a3d50eac04691ecf89730d6910",
    "adjoint-path3-most":
        "4eabd1e927e84f0a0548f5fa81d9c5325be032c33feb602343837451f802fe7d",
    "adjoint-rewrite-empty":
        "f11aa1d789920ca71fde19ab4ef83d120c3a632fa9e9052268b5590a6fe09e82",
    "adjoint-rewrite-loop":
        "91ac98a01e290e55ba27da326d4470edfbf63955d4cfe24393d1ff24f851a5c8",
    "adjoint-rewrite-most":
        "407d39a1a688a99a83799938635f7030452d11007360089e06b72f57c43be8a7",
    "adjoint-symmetric-empty":
        "b79987c78cadabfc394412d19790b2d47a84d94462b694206d85b55d78b99079",
    "adjoint-symmetric-loop":
        "5ea834598d89d38d1e895d6021980ddf91ffe1ba205f9b519cb2b480509b7313",
    "adjoint-symmetric-most":
        "85b10d72f7129b88c9ededa4b04c1c5aa0c959151e64241454f62fb6caea6104",
    "adjoint-tc-empty":
        "b3057b3b52e84411b9c1fe98e341c7f8f460e00254377e12513354dd6a670887",
    "adjoint-tc-loop":
        "d73a7ea2e5fd92276687bfc5f72ffde29f11d47d61e1f1d2a20a0028038ad5f1",
    "adjoint-tc-most":
        "b9242ab61915d3371ebfd2dbea540d65e0259cc1c011543775ddd35d55704ec4",
    "adjoint-unfold-empty":
        "598f93380f8d2aeb9c9b6ff3cb39ca5dafaa30f4e921c8a3ba5d45649c0506d7",
    "adjoint-unfold-loop":
        "42483eb42469749942432a513047babdd956256211369aa170aa7f6f8ad3cc21",
    "adjoint-unfold-most":
        "665f5a70f72c4333f9e8a91f51d724cdd2ce13e6b21539428f0c29f4e7ce3b96",
    "automaton-compile-edge":
        "b555b4f7f033aa07a5ecaaf01c11696a8a06e54c6cffce765bedadf0ed94628c",
    "automaton-complement-label":
        "29573ee5dcd0af741c4972543049e366664bc4eebd65975ac76bc2390512efb1",
    "automaton-project-edge":
        "48ac453e31437e4ef392a142c105c7ee99c4a12339aabe0d849b73ffbcfdf725",
    "automaton-run-edge-accepted":
        "6afcf1c27c873fdced17b1aa75b6c626c595678420131e16c8c9851864c6c224",
    "automaton-run-edge-rejected":
        "5465a882d1c10320b75f77ce1f922b8f2e6f91c66e3c48f5ea3b7a36c6ea2c7e",
    "automaton-union-edge-label":
        "d21f7913355a03225b03dfe7deb6712f80abe76fd9a4511ee79befb1c3bccedd",
    "characterize-edge-sigma1":
        "ffc91e5d1888c3e0769d4af3d194b60dd00cdc44b2cae5c4d098d5483d02a76c",
    "characterize-edge-sigma2-abox":
        "84bb3eec7d87d8872a0777465bde4e50bf030851a91e3ef59c18d2654a36a01b",
    "characterize-mid-sigma1":
        "740c77db51af43f03d9741aa9a378cc75cdf3cb7e65f48bcd4a43dcef8489116",
    "characterize-mid-sigma2-abox":
        "a56d9a5bdf049aa450b92556cc463c27d8292160187a53c8caa76607d0591e61",
    "characterize-some-edge-sigma2-abox":
        "2748933b3e3d6bc9da3b129c72af31838115c22b910cfbf117c76832cb3b8ab9",
    "chase-nonterminating-auto":
        "05c8f6664d4b542b26a096f356407aa89aa96463392cc61e7a374638db144c4e",
    "chase-nonterminating-bounded":
        "4a36076e28d3a0d4425d9d4e29d8468289026599657b74ec75b6d35939027424",
    "chase-pultr-wa":
        "26be679a2400e88359be3c80e85bec1adc57d18fbd4a459f43f63fa6e73d5e88",
    "chase-pultr-wa-full":
        "37054bffe669ffa8463d97bbcc7c7d91aae5edae6f2ebbf2fb047b6389db4a55",
    "chase-tc-path":
        "dde60613e3d6c4c6a8c89ea99ca38c8c8f560b4cac04ad49341b94b7004e10ff",
    "chase-tc-path-full":
        "78478b9dfb7553302dc4b7cf46192cd1170e59d195de3029851aca507d0e383a",
    "classify-disconnected":
        "2e8e605d7cc1b27d3fe80f1d67b4135e62ce4c36811e542ab96acad6a48ed0a6",
    "classify-ef":
        "223c1de81488b7c6586c636eddb0fca7c3df94c93e9c1f8847b7926bb60e111c",
    "classify-fixture-inclusion":
        "30f529eb3e2e51289a596a77231055d5abf983eec5574d40f305d6e3489c2890",
    "classify-fixture-path1":
        "69c6974942e8547a4fd104f7fdab1e8159933010e25dc67f7b8d9e1d6974e3c0",
    "classify-fixture-path2":
        "78757ead56c042dd0fc45b422e0e71b874d5d92619716ec1ad51de1932dee2f2",
    "classify-fixture-path3":
        "78757ead56c042dd0fc45b422e0e71b874d5d92619716ec1ad51de1932dee2f2",
    "classify-fixture-tc":
        "47e42b0b954cda78403334a1754a00b1ed388631a5911faa09f26c33feb65123",
    "classify-loop-rule":
        "73edb237234ad9291c0f17e49e2b7fc488d94fe8a1784a2ea7bc3fdf41e64315",
    "classify-nonterminating":
        "30f529eb3e2e51289a596a77231055d5abf983eec5574d40f305d6e3489c2890",
    "classify-path1":
        "69c6974942e8547a4fd104f7fdab1e8159933010e25dc67f7b8d9e1d6974e3c0",
    "classify-path2":
        "78757ead56c042dd0fc45b422e0e71b874d5d92619716ec1ad51de1932dee2f2",
    "classify-path3":
        "78757ead56c042dd0fc45b422e0e71b874d5d92619716ec1ad51de1932dee2f2",
    "classify-rewrite":
        "99dd0adb4af552f2ccb0f1c10e6e92f87356fdb9b20484cfa55ecda1b89a2ce9",
    "classify-rewrite-R":
        "167d6fdbbeb4d978d75eb584b31c18105574184629232c885ebf9f6213145b5d",
    "classify-slow-answer":
        "9d97e409c4cf6c94b76d7bcf4734003baa9e9b188a5edf9b4c630a413e211cc9",
    "classify-slow-answer-guard":
        "27ddcab6b5d2fb70ce7527f2a64811396d71f1773b5a5a600ebe0dbfcfee96b6",
    "classify-symmetric":
        "91fe923293dad7d08ab37488614aa456058be262d2330b28e519f0956b68dd6c",
    "classify-tc":
        "47e42b0b954cda78403334a1754a00b1ed388631a5911faa09f26c33feb65123",
    "classify-unfold":
        "47e42b0b954cda78403334a1754a00b1ed388631a5911faa09f26c33feb65123",
    "dualize-disconnected-Q3":
        "6bc83f1081ea887027d3a7c12a3c51dbef6f4f6ddb9010b2888cd8f2fe21da19",
    "dualize-path1-Ans":
        "5141c5b648dfd66f61a653d08cf611b6b18b24b68cf6589d471eccff539618f5",
    "dualize-path2-Ans":
        "03c76822aa1dc2cf2af498aa9731301501280fcac6d8eec9d25ca93090f040e7",
    "dualize-path3-Ans":
        "3f221f42a02c5b04b7fadf1ad29e737bbe2986c76ac55da9cd7aa8ee4084aa01",
    "dualize-rewrite-E_out":
        "8890cd913345ad9e508ec5f72828f31f8acbc325157feeec4aa334ec14eb02fd",
    "dualize-symmetric-S":
        "0dff94c1d0c413198155e21440dabfec4c58ea2c6ccfec154ca7291e7206b7c3",
    "dualize-tc-Ans":
        "6e7fd9e58dd71be948685d0080c67abc33622a07c77629aeedacb837dae9ab98",
    "frontier-edge-minimize":
        "8713de6b128b645af3b2c184d147aa7fe94920e425802edf9bed92526203f4d4",
    "frontier-edge-sigma1":
        "ebfb8ddea9a0a4d24ac5929497a438ab84368543b8c098e98189a0764c88ce51",
    "frontier-edge-sigma2-abox":
        "c2440dbfba30e5bac80a8616ad4ed75c8fd149f87efa0f01d97f85b0dfb512f1",
    "frontier-path-minimize":
        "ec74d8776f80717efb3d506e79c3d2b5180da8137524e8294569d3d6d7224e6d",
    "frontier-path-sigma1":
        "8214a1ce1efdbf370c343b31a598a06ff79189e5a0979c20d58d97d9a4cd63d4",
    "frontier-path-sigma2-abox":
        "6347033151c252dc9bd7e3b0d3dec0973c322e15262b7cfddf7e8b5187248e83",
    "frontier-ppath-minimize":
        "de244924e75035fab87eb12ec29bdfe55123e33a2f9227dcc924bb9dd018c8af",
    "frontier-ppath-sigma1":
        "a43fa7dd4d5fe1f8976fcacc1b1ffec43796985c7309acbedf2c334b7ed18c56",
    "frontier-ppath-sigma2-abox":
        "54bc197aa96e19cffbed50bc0a307975acf09b1a65c1f5e121ddbdb0041c5610",
    "hom-c5-k2":
        "5165d9b07a6997e74f90eb27bbda68d0621978a36283e543f002b69dc749817a",
    "hom-c5-k3":
        "04e91f6d047f5639318336b2cce0dad8b5c4d8bdcf177b2ed61900b7b02f21e8",
    "hom-dicycle-lollipop":
        "8989b91871aa44d124ba342a331f9c2645e12a83b028c007064937abe2f06731",
    "hom-edge-path":
        "eca30dc552d421c2f374dedf789e96d09eade27ca72f5cfc5020ccf94677a8d4",
    "hom-k3-loop":
        "85c6167389242de7d99b806a780af937c4ba6193926f3ac8be95db41d1774f02",
    "hom-m4-k3":
        "5165d9b07a6997e74f90eb27bbda68d0621978a36283e543f002b69dc749817a",
    "hom-path-edge":
        "5165d9b07a6997e74f90eb27bbda68d0621978a36283e543f002b69dc749817a",
    "hom-path-k3":
        "5fb5af2749c907b09c9dfdcda33be92c7ef859f864998a4a325b7bf16b2b85c6",
    "hom-path-lollipop":
        "164c2de31f1836c2aa9e2153a6b938e0450482fa9eddde0f17ee833d4fec6af2",
    "hom-ppath-c-lollipop":
        "164c2de31f1836c2aa9e2153a6b938e0450482fa9eddde0f17ee833d4fec6af2",
    "hom-ppath-pdicycle":
        "c73d01becf0c27532f43d74840d1f226860bcc99fb884c6ec88b7f1fee0b2150",
    "hom-ppath-ppath-c":
        "5165d9b07a6997e74f90eb27bbda68d0621978a36283e543f002b69dc749817a",
    "hom-tsrc-tchain":
        "5165d9b07a6997e74f90eb27bbda68d0621978a36283e543f002b69dc749817a",
    "hom-tsrc-tloops":
        "68a4e15048462f524926468d1a100e4ddd70fd2605e7b9e3aaa1ccc785b23d75",
    "hom-tsrc-tplain":
        "c64dc2c2df7cadcf394253f0bdae29bcdebe2482ef385cb7428055e0ca88a9d4",
    "pultr-compile":
        "12d35e07d1529ff4ee31900d3c372f216b1925d40ba8d1a8010f1ac15408fafa",
    "tgd-compile-inclusion":
        "c9d07b9f3ea417d4546600307e9d24785b04c6450c318436f6134d6c9156cc24",
    "tgd-compile-sigma1":
        "0ef6d869a2554b9e7c5bfc660a3237f047432f998ffd48652fa828cabe028e86",
    "tgd-compile-sigma2":
        "bf6a4abeec8e4cdca7f5ea2e9d8fa9b4affe106d574c52d6192c43c00fc3d07b",
    "tgd-print-sigma1":
        "8847c89c196ef4eb346ac4e64426a9d7ace6900984d7be8ac7ced4ed786394a2",
    "unfold-rewrite-E_out":
        "98e13aaf8df03523ad3f53a554604135af4fdc5aeaa06f4277baa72b4dde8e31",
    "unfold-tc-Ans":
        "ad488246659d4db0a5fe05055bb97c68f8a49e607bce2f655a6e9a4c65d47c5d",
    "verify-adjoint-path2-loop":
        "89bb4aaf0f76f4fc8efc2c1184016cf7d94504220b1afdc352b389907e4de769",
    "verify-adjoint-tc-most":
        "89bb4aaf0f76f4fc8efc2c1184016cf7d94504220b1afdc352b389907e4de769",
    "verify-duality-edge-loop":
        "4538e8db5cf02770d03a1fafe035b6f150004dc99a364fe94d0d2db17fd54518",
    "verify-duality-edge-loop-abox":
        "4538e8db5cf02770d03a1fafe035b6f150004dc99a364fe94d0d2db17fd54518",
    "verify-duality-path-edge-sigma1":
        "89bb4aaf0f76f4fc8efc2c1184016cf7d94504220b1afdc352b389907e4de769",
    "verify-dualize-inclusion-R_out":
        "842f49b071d0ba70a5411c62fc34b6c436c13872fd4ef9b4d842d9f36a42b3e2",
    "verify-equiv-path2-path3-B2":
        "89bb4aaf0f76f4fc8efc2c1184016cf7d94504220b1afdc352b389907e4de769",
    "verify-equiv-path2-path3-B3":
        "38ee137d2f02b4d0b10a8b0aba5accdc0cf037ae4c3849d6bc97e3a3d9f4bab4",
    "verify-frontier-edge-sigma2-abox":
        "36104c73273d29355317eae92a7fc7685e20a734c0ce1da043d21139508d4e56",
    "verify-frontier-path-sigma2-abox":
        "8b972b42826e9bdefde55e798a0115552590b6fb90c4a351dbf92216b7f6d6e2",
}

# the cases that exit 1 (no homomorphism, or a failing or unknown
# verdict); those in CAPPED exit 3, and every other case exits 0
NEGATIVE = {
    "automaton-run-edge-rejected",
    "characterize-edge-sigma2-abox",
    "characterize-mid-sigma2-abox",
    "hom-c5-k2",
    "hom-m4-k3",
    "hom-path-edge",
    "hom-ppath-ppath-c",
    "hom-tsrc-tchain",
    "verify-duality-edge-loop",
    "verify-duality-edge-loop-abox",
    "verify-dualize-inclusion-R_out",
    "verify-equiv-path2-path3-B3",
}

# the cases that stop at the chase budget and exit 3
CAPPED = {"chase-nonterminating-auto", "chase-nonterminating-bounded"}

# the cases whose ``--out-dir`` files are pinned as well
OUT_DIR_CASES = (
    "adjoint-path2-loop",
    "adjoint-tc-most",
    "characterize-edge-sigma1",
    "characterize-mid-sigma2-abox",
    "dualize-path2-Ans",
    "frontier-path-minimize",
    "frontier-ppath-sigma1",
    "frontier-ppath-sigma2-abox",
)

# sha256 of the ``--out-dir`` files per case
OUT_DIR_GOLDEN = {
    "adjoint-path2-loop":
        "47536e7625383b647fee0a336450aeae8eb2b423ccaa6082c0360446d44527b2",
    "adjoint-tc-most":
        "0c353788dbf1418a63194dc46435b8035b635c443c819cb01527e4fb2d4b4f52",
    "characterize-edge-sigma1":
        "efcf4c67ea7e0c02425474aa483156f2b17de38557ec30caf044e0b2b89a516b",
    "characterize-mid-sigma2-abox":
        "3e3d7f70d5f061d07cb36146bfd6220d3ee0158c82d3cf2f4fa282a90804a1fc",
    "dualize-path2-Ans":
        "eb674cd2db70f0004e9d7f8bdb588d7459d21d66ca83ab5d4ca482e5e0bc71fc",
    "frontier-path-minimize":
        "f6dd06550c9dc77a2eba7eaf32a09d22b9014071e3e7436ba5b9517f3cbe97c9",
    "frontier-ppath-sigma1":
        "3a1da7f4f8e4bf02584434dfdba47f98f868448b949fb8571574e30292f7fd2e",
    "frontier-ppath-sigma2-abox":
        "bf1fb1fe7cca29f866b6931c4c6aef87d905ec80a2e3a4fc97012570701660e9",
}


def run_case(name: str, *extra) -> tuple:
    """(exit code, sha256 of stdout) of one case run in-process, its file
    names relative to the working directory (the query file's name is part
    of the characterize output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(CASES[name]) + list(extra) + ["--json"])
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


def out_dir_digest(out: pathlib.Path) -> str:
    """sha256 over the name and contents of every file in ``out``, in name
    order."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    _write_files(d)
    return d


def test_every_case_has_a_digest():
    assert sorted(GOLDEN) == sorted(CASES)


def expected_code(name: str) -> int:
    return 3 if name in CAPPED else int(name in NEGATIVE)


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_output_is_unchanged(golden_dir, monkeypatch, name):
    monkeypatch.chdir(golden_dir)
    assert run_case(name) == (expected_code(name), GOLDEN[name])


@pytest.mark.parametrize("name", OUT_DIR_CASES)
def test_out_dir_files_are_unchanged(golden_dir, monkeypatch, tmp_path,
                                     name):
    monkeypatch.chdir(golden_dir)
    out = tmp_path / "out"
    assert run_case(name, "--out-dir", str(out)) == (
        expected_code(name), GOLDEN[name])
    assert out_dir_digest(out) == OUT_DIR_GOLDEN[name]
