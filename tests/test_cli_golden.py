"""Golden ``--json`` output: the sha256 of stdout and the exit code of
in-process ``homkit`` runs for the adjoint, duality, classify and hom
commands, and for the verdicts of characterize, dualize and verify.

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
three-valued helper.  A mismatch means the output changed, and the digest
must not be regenerated to make the test pass.
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
from homkit.syntax import print_instance, print_program, print_tgds

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
    for path in FIXTURES.glob("*.dl"):
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
    for name, text in QUERIES.items():
        (d / f"{name}.q").write_text(text)


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
    "verify-duality-edge-loop":
        "4538e8db5cf02770d03a1fafe035b6f150004dc99a364fe94d0d2db17fd54518",
    "verify-duality-edge-loop-abox":
        "4538e8db5cf02770d03a1fafe035b6f150004dc99a364fe94d0d2db17fd54518",
    "verify-duality-path-edge-sigma1":
        "89bb4aaf0f76f4fc8efc2c1184016cf7d94504220b1afdc352b389907e4de769",
    "verify-dualize-inclusion-R_out":
        "842f49b071d0ba70a5411c62fc34b6c436c13872fd4ef9b4d842d9f36a42b3e2",
    "verify-frontier-edge-sigma2-abox":
        "36104c73273d29355317eae92a7fc7685e20a734c0ce1da043d21139508d4e56",
    "verify-frontier-path-sigma2-abox":
        "8b972b42826e9bdefde55e798a0115552590b6fb90c4a351dbf92216b7f6d6e2",
}

# the cases that exit 1 (no homomorphism, or a failing or unknown
# verdict); every other case exits 0
NEGATIVE = {
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
}


def run_case(name: str) -> tuple:
    """(exit code, sha256 of stdout) of one case run in-process, its file
    names relative to the working directory (the query file's name is part
    of the characterize output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(CASES[name]) + ["--json"])
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    _write_files(d)
    return d


def test_every_case_has_a_digest():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_output_is_unchanged(golden_dir, monkeypatch, name):
    monkeypatch.chdir(golden_dir)
    assert run_case(name) == (int(name in NEGATIVE), GOLDEN[name])
