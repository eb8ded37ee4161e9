"""Command-line surface for the toolkit.

Exit codes: 0 success, 1 negative verdict (failed verification, rejected
term, no homomorphism), 2 usage or parse error, 3 resource cap exceeded.
Every subcommand accepts ``--json``; identical invocations produce
byte-identical output (payloads carry no timestamps, only a tool-version
field in certificates).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import __version__
from .adjoint import adjoint
from .automata import (
    TreeAutomaton,
    automaton_to_datalog,
    complement,
    parse_automaton,
    parse_term,
    print_automaton,
    project,
    run as run_automaton,
    union,
)
from .chase import DEFAULT_BUDGET, chase_existential, run_program
from .core import (
    Budget,
    CapExceeded,
    HomkitError,
    Instance,
    budget,
    core_of,
    find_homomorphism,
)
from .duality import abox_dual, dual_from_program, dual_wrt_theory, \
    frontier_program
from .oracle import (
    Verdict,
    programs_equivalent_bounded,
    verify_adjoint,
    verify_duality,
)
from .program import classify, restrict_output, pultr_compile, tgd_compile, \
    unfoldings
from .syntax import (
    dumps,
    instance_json,
    parse_instance,
    parse_program,
    parse_query,
    parse_tgds,
    print_instance,
    print_program,
    print_tgds,
    program_json,
)
from .ucq import characterize, characterize_abox, verify_characterization

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_CAP = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_program(path: str):
    return parse_program(_read(path))


def _load_instance(path: str) -> Instance:
    return parse_instance(_read(path))


def _emit(args, payload_json: dict, text: str):
    if args.json:
        sys.stdout.write(dumps(payload_json))
    else:
        sys.stdout.write(text)


def _certificate(kind: str, **fields) -> dict:
    cert = {"kind": kind, "tool-version": __version__}
    cert.update(fields)
    return cert


def _verdict_json(v: Verdict) -> dict:
    out = {
        "passed": bool(v.passed),
        "unknown": bool(v.unknown),
        "bound": v.bound,
        "explanation": v.explanation,
    }
    if v.counterexample is not None:
        out["counterexample"] = instance_json(v.counterexample)
    return out


def _write_out(out_dir: str, name: str, text: str):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_classify(args) -> int:
    P = _load_program(args.program)
    cls = classify(P)
    d = cls.as_dict()

    def show(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if v is None:
            return "none"
        return str(v)

    text = "".join(f"{k}: {show(v)}\n" for k, v in sorted(d.items()))
    _emit(args, d, text)
    return EXIT_OK


def cmd_chase(args) -> int:
    P = _load_program(args.program)
    I = _load_instance(args.instance)
    if args.mode == "auto":
        res = run_program(P, I, budget=args.max_steps)
    else:
        res = chase_existential(P, I, mode=args.mode,
                                budget=args.max_steps)
    payload = {
        "output": instance_json(res.output),
        "steps": res.steps,
        "terminated": res.terminated,
    }
    shown = res.output
    if args.full:
        payload["full"] = instance_json(res.full)
        shown = res.full
    _emit(args, payload, print_instance(shown))
    if not res.terminated:
        print("warning: chase budget reached before termination",
              file=sys.stderr)
        return EXIT_CAP
    return EXIT_OK


def cmd_unfold(args) -> int:
    P = _load_program(args.program)
    us = unfoldings(P, args.rel, args.depth)
    payload = {"count": len(us),
               "unfoldings": [instance_json(u) for u in us]}
    text = "".join(print_instance(u) + "\n" for u in us)
    _emit(args, payload, text)
    return EXIT_OK


def cmd_adjoint(args) -> int:
    P = _load_program(args.program)
    J = _load_instance(args.instance)
    res = adjoint(P, J, method=args.method)
    members = []
    for idx, (j_prime, iota) in enumerate(res.members):
        members.append({
            "instance": instance_json(j_prime),
            "iota": {e.ser: t.ser for e, t in sorted(
                iota.items(), key=lambda kv: kv[0].ser)},
        })
        if args.out_dir:
            _write_out(args.out_dir, f"member_{idx}.inst",
                       print_instance(j_prime))
            _write_out(args.out_dir, f"member_{idx}.iota.json",
                       dumps(members[-1]["iota"]))
    verdict = None
    if args.verify is not None:
        verdict = verify_adjoint(P, J, res, B=args.verify)
    payload = {"members": members, "method": res.method,
               "verified": None if verdict is None
               else _verdict_json(verdict)}
    text = "".join(print_instance(j, ) + "\n" for j, _ in res.members)
    _emit(args, payload, text)
    if verdict is not None and not verdict.passed:
        return EXIT_NEGATIVE
    return EXIT_OK


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def cmd_dualize(args) -> int:
    if bool(args.program) == bool(args.frontier) or \
            (args.program and not args.rel):
        return _usage_error("provide either --program with --rel, or "
                            "--frontier")
    if args.program and (args.theory or args.abox or args.adjoint_program):
        return _usage_error("--theory, --abox and --adjoint-program apply "
                            "to --frontier only")
    if args.abox and not args.theory:
        return _usage_error("--abox needs --theory")
    sigma = tuple(parse_tgds(_read(args.theory))) if args.theory else ()
    # the plain frontier path, taken for an empty set without --abox,
    # reads no rewrite program
    if args.adjoint_program and not (sigma or args.abox):
        return _usage_error("--adjoint-program needs --abox or a non-empty "
                            "--theory")
    rewrite = _load_program(args.adjoint_program) \
        if args.adjoint_program else None
    if args.program:
        P = _load_program(args.program)
        d = dual_from_program(P, args.rel)
        frontier = d.generator
        program_payload = program_json(restrict_output(P, args.rel))
    else:
        F = [_load_instance(p) for p in args.frontier]
        if args.abox:
            d = abox_dual(sigma, F, adjoint_program=rewrite)
        elif sigma:
            d = dual_wrt_theory(sigma, F, adjoint_program=rewrite)
        else:
            P0 = frontier_program(F)
            d = dual_from_program(P0, "Ans")
            d.frontier = tuple(F)
        frontier = d.frontier if d.frontier else d.generator
        program_payload = None
    duals = list(d.duals)
    if args.minimize:
        duals = [core_of(D) for D in duals]
    for idx, D in enumerate(duals):
        if args.out_dir:
            _write_out(args.out_dir, f"dual_{idx}.inst", print_instance(D))
    verdict = None
    if args.verify is not None:
        # an empty dependency set is still one: only plain takes none
        verdict = verify_duality(
            frontier, duals, args.verify,
            sigma=None if d.category == "plain" else sigma,
            category=d.category)
    text = "".join(print_instance(D) + "\n" for D in duals)
    cert = _certificate(
        "duality",
        category=d.category,
        duals=[instance_json(D) for D in duals],
        frontier=[instance_json(F) for F in d.frontier]
        if d.frontier else None,
        minimized=bool(args.minimize),
        program=program_payload,
        relation=args.rel,
        verified=None if verdict is None else _verdict_json(verdict),
    )
    if args.out_dir:
        _write_out(args.out_dir, "certificate.json", dumps(cert))
    _emit(args, cert, text)
    if verdict is not None and not verdict.passed:
        return EXIT_NEGATIVE
    return EXIT_OK


def cmd_characterize(args) -> int:
    q_path = args.query or args.query_pos
    if not q_path or (args.query and args.query_pos):
        return _usage_error("provide exactly one query file")
    if args.abox and args.mode == "model":
        return _usage_error("--abox contradicts --mode model")
    q = parse_query(_read(q_path))
    sigma = tuple(parse_tgds(_read(args.theory))) if args.theory else ()
    rewrite = _load_program(args.adjoint_program) \
        if args.adjoint_program else None
    if args.abox or args.mode == "abox":
        ex = characterize_abox(q, sigma, adjoint_program=rewrite)
    else:
        ex = characterize(q, sigma, adjoint_program=rewrite)
    for idx, A in enumerate(ex.positives):
        if args.out_dir:
            _write_out(args.out_dir, f"pos_{idx}.inst", print_instance(A))
    for idx, A in enumerate(ex.negatives):
        if args.out_dir:
            _write_out(args.out_dir, f"neg_{idx}.inst", print_instance(A))
    verdict = None
    if args.verify is not None:
        verdict = verify_characterization(q, ex, B=args.verify)
    cert = _certificate(
        "characterization",
        mode=ex.mode,
        negatives=[instance_json(A) for A in ex.negatives],
        positives=[instance_json(A) for A in ex.positives],
        query=q_path,
        verified=None if verdict is None else _verdict_json(verdict),
    )
    if args.out_dir:
        _write_out(args.out_dir, "certificate.json", dumps(cert))
    text = ("".join("+ " + print_instance(A).replace("\n", "\n  ").rstrip()
                    + "\n" for A in ex.positives) +
            "".join("- " + print_instance(A).replace("\n", "\n  ").rstrip()
                    + "\n" for A in ex.negatives))
    _emit(args, cert, text)
    if verdict is not None and not verdict.passed:
        return EXIT_NEGATIVE
    return EXIT_OK


def cmd_hom(args) -> int:
    A = _load_instance(args.source)
    B = _load_instance(args.target)
    h = find_homomorphism(A, B)
    if h is None:
        _emit(args, {"hom": None}, "no homomorphism\n")
        return EXIT_NEGATIVE
    ser = {e.ser: t.ser for e, t in h.mapping}
    text = "".join(f"{k} -> {v}\n" for k, v in ser.items())
    _emit(args, {"hom": ser}, text)
    return EXIT_OK


def _finish_verdict(args, v: Verdict) -> int:
    payload = _verdict_json(v)
    status = "unknown" if v.unknown else ("pass" if v.passed else "fail")
    text = f"{status} (B={v.bound})"
    if v.explanation:
        text += f": {v.explanation}"
    _emit(args, payload, text + "\n")
    return EXIT_OK if v.passed else EXIT_NEGATIVE


def cmd_verify_duality(args) -> int:
    F = [(_load_instance(p)) for p in args.frontier]
    D = [(_load_instance(p)) for p in args.dual]
    sigma = tuple(parse_tgds(_read(args.theory))) if args.theory else None
    v = verify_duality(F, D, args.bound, sigma=sigma,
                       category=args.category)
    return _finish_verdict(args, v)


def cmd_verify_adjoint(args) -> int:
    P = _load_program(args.program)
    J = _load_instance(args.instance)
    res = adjoint(P, J, method=args.method)
    v = verify_adjoint(P, J, res, B=args.bound)
    return _finish_verdict(args, v)


def cmd_verify_equiv(args) -> int:
    P1 = _load_program(args.program1)
    P2 = _load_program(args.program2)
    v = programs_equivalent_bounded(P1, P2, B=args.bound)
    return _finish_verdict(args, v)


def _load_automaton(path: str) -> TreeAutomaton:
    return parse_automaton(_read(path))


def _emit_automaton(args, A: TreeAutomaton) -> int:
    text = print_automaton(A)
    payload = {
        "accept": sorted(A.accepting),
        "labels": list(A.labels),
        "states": list(A.states),
        "text": text,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    _emit(args, payload, text)
    return EXIT_OK


def cmd_automaton_compile(args) -> int:
    A = _load_automaton(args.automaton)
    P = automaton_to_datalog(A)
    _emit(args, program_json(P), print_program(P))
    return EXIT_OK


def cmd_automaton_run(args) -> int:
    A = _load_automaton(args.automaton)
    t = parse_term(args.term)
    accepted = run_automaton(A, t)
    _emit(args, {"accepted": accepted},
          ("accepted" if accepted else "rejected") + "\n")
    return EXIT_OK if accepted else EXIT_NEGATIVE


def cmd_automaton_union(args) -> int:
    return _emit_automaton(args, union(_load_automaton(args.automaton1),
                                       _load_automaton(args.automaton2)))


def cmd_automaton_complement(args) -> int:
    return _emit_automaton(args, complement(_load_automaton(args.automaton)))


def cmd_automaton_project(args) -> int:
    keep = args.labels.replace(",", " ").split()
    return _emit_automaton(args,
                           project(_load_automaton(args.automaton), keep))


def cmd_tgd_compile(args) -> int:
    tgds = parse_tgds(_read(args.theory))
    P = tgd_compile(tgds)
    _emit(args, program_json(P), print_program(P))
    return EXIT_OK


def cmd_pultr_compile(args) -> int:
    qv = parse_query(_read(args.vertex))
    qe = parse_query(_read(args.edge))
    if len(qv.disjuncts) != 1 or len(qe.disjuncts) != 1:
        raise HomkitError(
            "functor components must be single conjunctive queries")
    P = pultr_compile(qv.disjuncts[0], qe.disjuncts[0])
    _emit(args, program_json(P), print_program(P))
    return EXIT_OK


def cmd_theory_print(args) -> int:
    tgds = parse_tgds(_read(args.theory))
    text = print_tgds(tgds)
    _emit(args, {"tgds": [t.canonical_str() for t in tgds]}, text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON output")


def _add_cap(p: argparse.ArgumentParser, field: str, help=None):
    """``--cap`` sets the budget's ``field`` for the subcommand."""
    p.add_argument("--cap", dest=field, metavar="CAP", type=int,
                   default=getattr(Budget, field), help=help)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="homkit",
                  description="Datalog chase, adjoints, dualities, "
                              "characterizations, and tree automata")
    top.add_argument("--version", action="version",
                     version=f"homkit {__version__}")
    sub = top.add_subparsers(dest="command", required=True,
                             parser_class=_Parser)

    p = sub.add_parser("classify", help="classify a program")
    p.add_argument("program")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("chase", help="evaluate a program on an instance")
    p.add_argument("program")
    p.add_argument("instance")
    p.add_argument("--mode", choices=("auto", "wa", "bounded"),
                   default="auto",
                   help="auto: semi-naive / terminating chase / bounded "
                        "chase as applicable; wa: refuse programs whose "
                        "chase may diverge; bounded: budgeted rounds")
    p.add_argument("--max-steps", type=int, default=DEFAULT_BUDGET,
                   help=f"chase round budget (default {DEFAULT_BUDGET})")
    p.add_argument("--full", action="store_true",
                   help="emit the full chase (auxiliary relations and "
                        "nulls) instead of the output restriction")
    _add_common(p)
    p.set_defaults(func=cmd_chase)

    p = sub.add_parser("unfold", help="canonical unfoldings of a relation")
    p.add_argument("program")
    p.add_argument("--rel", required=True)
    p.add_argument("--depth", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_unfold)

    p = sub.add_parser("adjoint",
                       help="apply the generalized right adjoint")
    p.add_argument("program")
    p.add_argument("instance")
    p.add_argument("--method", choices=("auto", "tam", "sl"),
                   default="auto")
    _add_cap(p, "facts",
             help=f"candidate-size cap (default {Budget.facts})")
    p.add_argument("--verify", type=int, metavar="B",
                   help="check the adjoint biconditional up to B elements")
    p.add_argument("-o", "--out-dir")
    _add_common(p)
    p.set_defaults(func=cmd_adjoint)

    p = sub.add_parser("dualize",
                       help="synthesize homomorphism duals")
    p.add_argument("--program",
                   help="program file (with --rel); duals for its "
                        "derivation frontier")
    p.add_argument("--rel",
                   help="output relation of --program to dualize")
    p.add_argument("--frontier", nargs="+", metavar="INST",
                   help="explicit frontier instance files "
                        "(alternative to --program/--rel)")
    p.add_argument("--theory",
                   help="dependency file; duality relative to its models")
    p.add_argument("--abox", action="store_true",
                   help="with --theory: ABox duality (duals paired with "
                        "the chased frontier, not chased themselves)")
    p.add_argument("--adjoint-program",
                   help="tree-shaped rewrite of the compiled theory, used "
                        "when the compiled theory has no adjoint itself")
    p.add_argument("--minimize", action="store_true",
                   help="replace each emitted dual by its core "
                        "(exhaustive retract search, skipped above 8 "
                        "domain elements)")
    _add_cap(p, "facts")
    p.add_argument("--verify", type=int, metavar="B",
                   help="verify the duality up to B elements")
    p.add_argument("-o", "--out-dir")
    _add_common(p)
    p.set_defaults(func=cmd_dualize)

    p = sub.add_parser("characterize",
                       help="uniquely characterizing examples for a query")
    p.add_argument("query_pos", nargs="?", metavar="query.q",
                   help="query file (alternative to --query)")
    p.add_argument("--query")
    p.add_argument("--theory")
    p.add_argument("--mode", choices=("model", "abox"),
                   help="default: model")
    p.add_argument("--abox", action="store_true",
                   help="shorthand for --mode abox")
    p.add_argument("--adjoint-program",
                   help="equivalent program with an applicable adjoint "
                        "construction, used in place of the compiled "
                        "theory")
    _add_cap(p, "facts")
    p.add_argument("--verify", type=int, metavar="B")
    p.add_argument("-o", "--out-dir")
    _add_common(p)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("hom", help="search for a homomorphism")
    p.add_argument("source")
    p.add_argument("target")
    _add_common(p)
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("verify", help="bounded verification oracles")
    vsub = p.add_subparsers(dest="what", required=True,
                            parser_class=_Parser)
    v = vsub.add_parser("duality")
    v.add_argument("--frontier", nargs="+", required=True)
    v.add_argument("--dual", nargs="+", required=True)
    v.add_argument("--theory")
    v.add_argument("--category", choices=("plain", "relative", "abox"))
    v.add_argument("-B", "--bound", "--max-size", type=int, default=3)
    _add_common(v)
    v.set_defaults(func=cmd_verify_duality)
    v = vsub.add_parser("adjoint")
    v.add_argument("program")
    v.add_argument("instance")
    v.add_argument("--method", choices=("auto", "tam", "sl"),
                   default="auto")
    _add_cap(v, "facts")
    v.add_argument("-B", "--bound", "--max-size", type=int, default=3)
    _add_common(v)
    v.set_defaults(func=cmd_verify_adjoint)
    v = vsub.add_parser("equiv")
    v.add_argument("program1")
    v.add_argument("program2")
    v.add_argument("-B", "--bound", "--max-size", type=int, default=3)
    _add_common(v)
    v.set_defaults(func=cmd_verify_equiv)

    p = sub.add_parser("automaton", help="tree-automaton operations")
    asub = p.add_subparsers(dest="what", required=True,
                            parser_class=_Parser)
    a = asub.add_parser("compile")
    a.add_argument("automaton")
    _add_common(a)
    a.set_defaults(func=cmd_automaton_compile)
    a = asub.add_parser("run")
    a.add_argument("automaton")
    a.add_argument("--term", required=True,
                   help="term notation, e.g. 'E@1({X1},{})'")
    _add_common(a)
    a.set_defaults(func=cmd_automaton_run)
    a = asub.add_parser("union")
    a.add_argument("automaton1")
    a.add_argument("automaton2")
    a.add_argument("-o", "--out")
    _add_common(a)
    a.set_defaults(func=cmd_automaton_union)
    a = asub.add_parser("complement")
    a.add_argument("automaton")
    _add_cap(a, "states",
             help=f"subset-construction state cap (default {Budget.states})")
    a.add_argument("-o", "--out")
    _add_common(a)
    a.set_defaults(func=cmd_automaton_complement)
    a = asub.add_parser("project")
    a.add_argument("automaton")
    a.add_argument("--labels", required=True,
                   help="labels to keep, space or comma separated")
    a.add_argument("-o", "--out")
    _add_common(a)
    a.set_defaults(func=cmd_automaton_project)

    p = sub.add_parser("tgd", help="dependency-set operations")
    tsub = p.add_subparsers(dest="what", required=True,
                            parser_class=_Parser)
    t = tsub.add_parser("compile")
    t.add_argument("theory")
    _add_common(t)
    t.set_defaults(func=cmd_tgd_compile)
    t = tsub.add_parser("print")
    t.add_argument("theory")
    _add_common(t)
    t.set_defaults(func=cmd_theory_print)

    p = sub.add_parser("pultr", help="digraph-functor compilation")
    psub = p.add_subparsers(dest="what", required=True,
                            parser_class=_Parser)
    c = psub.add_parser("compile")
    c.add_argument("--vertex", required=True,
                   help="vertex query file (single conjunctive query)")
    c.add_argument("--edge", required=True,
                   help="edge query file (single conjunctive query)")
    _add_common(c)
    c.set_defaults(func=cmd_pultr_compile)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    # --cap lands in the budget field it names; the budget is reset when
    # the call returns, so in-process calls do not leak caps
    caps = {f.name: getattr(args, f.name) for f in dataclasses.fields(Budget)
            if hasattr(args, f.name)}
    try:
        with budget(**caps):
            return args.func(args)
    except CapExceeded as exc:
        print(f"error: cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (HomkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
