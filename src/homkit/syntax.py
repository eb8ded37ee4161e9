"""Text formats for programs, instances, dependency sets, and queries.

Printers emit a canonical form (sorted declarations, facts and rules) so
that output is byte-identical across runs, and ``parse(print(x)) == x`` for
every model value.  ``#`` starts a line comment in every format.  The
tokenizer ``_Tokens`` and the list reader ``_comma_list`` also read the
automaton and term formats of ``automata``.

Reserved element spellings: ``_bot`` for the bottom element, ``_n<k>`` for
labeled nulls, ``(<elem>|{<facts>})`` for pair elements.  User identifiers
may not begin with ``_``.
"""

from __future__ import annotations

import json
import re

from .core import BOTTOM, Element, HomkitError, Instance, Schema, fact_ser
from .program import TGD, Atom, Program, Rule, tgd_schema
from .ucq import CQ, UCQ


class ParseError(HomkitError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r\n]+)
       |(?P<comment>\#[^\n]*)
       |(?P<arrow>->)
       |(?P<coldash>:-)
       |(?P<bot>_bot\b)
       |(?P<null>_n[0-9]+\b)
       |(?P<ident>[A-Za-z][A-Za-z0-9_]*)
       |(?P<num>[0-9]+)
       |(?P<sym>[(){},:|/@.])
       |(?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


# nesting levels (pair elements, term nodes) a recursive reader enters
# before it stops with a ParseError, well inside Python's recursion limit
MAX_NESTING = 100


class _Tokens:
    """The tokens of a text as (kind, value, offset) triples.  An offset
    becomes a line and column only in an error message."""

    def __init__(self, text: str):
        self.text = text
        self.toks = [(m.lastgroup, m.group(), m.start())
                     for m in _TOKEN_RE.finditer(text)
                     if m.lastgroup not in ("ws", "comment")]
        for kind, value, pos in self.toks:
            if kind == "bad":
                raise ParseError(f"unexpected character {value!r}",
                                 *self.where(pos))
        self.i = 0
        self.end = ("eof", "", len(text))
        self.depth = 0

    def where(self, pos: int) -> tuple[int, int]:
        """The line and column of an offset."""
        return (self.text.count("\n", 0, pos) + 1,
                pos - self.text.rfind("\n", 0, pos))

    def peek(self, ahead: int = 0):
        if self.i + ahead < len(self.toks):
            return self.toks[self.i + ahead]
        return self.end

    def next(self):
        tok = self.peek()
        if tok[0] != "eof":
            self.i += 1
        return tok

    def accept(self, kind=None, value=None):
        tok = self.peek()
        if kind is not None and tok[0] != kind:
            return None
        if value is not None and tok[1] != value:
            return None
        return self.next()

    def expect(self, kind, value=None, what=None):
        tok = self.accept(kind, value)
        if tok is None:
            self.error(f"expected {what or value or kind}, "
                       f"found {self.peek()[1]!r}")
        return tok

    def line_ends(self) -> bool:
        """Does a line break or the end of the text follow the last token
        taken?"""
        _, value, pos = self.toks[self.i - 1]
        nxt = self.peek()
        return nxt[0] == "eof" or \
            self.text.find("\n", pos + len(value), nxt[2]) >= 0

    def enter(self, tok):
        """Open one more nesting level at ``tok``; the reader leaves it
        with ``leave``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error(f"nesting deeper than {MAX_NESTING} levels", tok)

    def leave(self):
        self.depth -= 1

    def error(self, message: str, tok=None):
        raise ParseError(message, *self.where((tok or self.peek())[2]))


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


def _parse_rel_decl(toks: _Tokens) -> tuple[str, int]:
    name = toks.expect("ident", what="relation name")[1]
    toks.expect("sym", "/")
    arity = int(toks.expect("num", what="arity")[1])
    return name, arity


def _comma_list(toks: _Tokens, item, close: str = "") -> list:
    """Comma-separated ``item``s.  With ``close``, the list may be empty
    and runs through that symbol; without, it has at least one item and
    ends at the first one no comma follows."""
    items = []
    if close and toks.accept("sym", close):
        return items
    items.append(item(toks))
    while not (toks.accept("sym", close) if close
               else toks.peek()[1] != ","):
        toks.expect("sym", ",")
        items.append(item(toks))
    return items


def _variable(toks: _Tokens) -> str:
    return toks.expect("ident", what="variable")[1]


def _parse_atom(toks: _Tokens) -> Atom:
    rel = toks.expect("ident", what="relation name")[1]
    toks.expect("sym", "(")
    return Atom(rel, tuple(_comma_list(toks, _variable, ")")))


def _parse_exists(toks: _Tokens) -> tuple[str, ...]:
    """The variables of an ``exists x, y :`` clause, if one comes next."""
    if toks.peek()[1] != "exists":
        return ()
    toks.next()
    evars = _comma_list(toks, _variable)
    toks.expect("sym", ":")
    return tuple(evars)


def _parse_element(toks: _Tokens) -> Element:
    if toks.accept("bot"):
        return BOTTOM
    tok = toks.accept("null")
    if tok:
        return Element.null(int(tok[1][2:]))
    tok = toks.accept("ident")
    if tok:
        return Element.named(tok[1])
    tok = toks.accept("sym", "(")
    if tok:
        toks.enter(tok)
        base = _parse_element(toks)
        toks.expect("sym", "|")
        toks.expect("sym", "{")
        facts = _comma_list(toks, _parse_pair_fact, "}")
        toks.expect("sym", ")")
        toks.leave()
        return Element.pair(base, facts)
    toks.error("expected an element")


def _parse_pair_fact(toks: _Tokens):
    rel = toks.expect("ident", what="relation name")[1]
    toks.expect("sym", "(")
    return (rel, tuple(_comma_list(toks, _parse_element, ")")))


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


def parse_program(text: str) -> Program:
    toks = _Tokens(text)
    toks.expect("ident", "program")
    schemas: dict[str, list[tuple[str, int]]] = {
        "in": [], "out": [], "aux": []}
    articulation: dict[str, int] = {}
    while True:
        tok = toks.peek()
        if tok[0] == "ident" and tok[1] in ("in", "out", "aux"):
            section = toks.next()[1]
            toks.expect("sym", ":")
            while toks.peek()[0] == "ident" and \
                    toks.peek()[1] not in ("in", "out", "aux", "rules"):
                name, arity = _parse_rel_decl(toks)
                schemas[section].append((name, arity))
                if section == "aux" and toks.accept("sym", "@"):
                    articulation[name] = int(
                        toks.expect("num", what="position")[1])
                toks.accept("sym", ",")
        elif tok[0] == "ident" and tok[1] == "rules":
            toks.next()
            break
        else:
            toks.error("expected a schema section or 'rules'")

    rules = []
    while toks.peek()[0] != "eof":
        rules.append(_parse_rule(toks))
    try:
        return Program(Schema(schemas["in"]), Schema(schemas["out"]),
                       Schema(schemas["aux"]), rules, articulation)
    except HomkitError as exc:
        raise ParseError(str(exc), *toks.where(len(text))) from exc


def _parse_rule(toks: _Tokens) -> Rule:
    existentials = _parse_exists(toks)
    head = _comma_list(toks, _parse_atom)
    toks.expect("coldash")
    body = _comma_list(toks, _parse_atom, ".")
    return Rule(tuple(head), tuple(body), existentials)


def print_program(P: Program) -> str:
    lines = ["program"]

    def decl(section: str, schema: Schema, art=None) -> None:
        if not schema.relations:
            return
        parts = []
        for rel, arity in schema.relations:
            d = f"{rel}/{arity}"
            if art and rel in art:
                d += f" @{art[rel]}"
            parts.append(d)
        lines.append(f"{section}: " + ", ".join(parts))

    decl("in", P.s_in)
    decl("out", P.s_out)
    decl("aux", P.s_aux, P.articulation)
    lines.append("rules")
    for rule in P.sorted_rules():
        lines.append(rule.canonical_str())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


def parse_instance(text: str) -> Instance:
    toks = _Tokens(text)
    toks.expect("ident", "instance")
    toks.expect("ident", "over")
    schema = Schema(_comma_list(toks, _parse_rel_decl))
    domain: set[Element] = set()
    if toks.peek()[1] == "domain":
        toks.next()
        toks.expect("sym", ":")
        while toks.peek()[0] in ("ident", "null", "bot") or \
                toks.peek()[1] == "(":
            if toks.peek()[1] == "points":
                break
            if toks.peek()[0] == "ident" and toks.peek(1)[1] == "(":
                break  # a fact line starts here
            domain.add(_parse_element(toks))
            toks.accept("sym", ",")
            if toks.peek()[0] == "eof":
                break
    facts = []
    points: tuple[Element, ...] = ()
    while toks.peek()[0] != "eof":
        if toks.peek()[1] == "points":
            toks.next()
            toks.expect("sym", ":")
            pts = []
            while toks.peek()[0] != "eof":
                pts.append(_parse_element(toks))
                toks.accept("sym", ",")
            points = tuple(pts)
            break
        fact = _parse_pair_fact(toks)
        toks.expect("sym", ".")
        facts.append(fact)
    for _, args in facts:
        domain.update(args)
    domain.update(points)
    try:
        return Instance(schema, domain, facts, points)
    except HomkitError as exc:
        raise ParseError(str(exc), *toks.where(len(text))) from exc


def print_instance(I: Instance) -> str:
    lines = ["instance over " + ", ".join(
        f"{rel}/{arity}" for rel, arity in I.schema.relations)]
    if I.domain:
        lines.append("domain: " + " ".join(
            e.ser for e in I.sorted_domain()))
    for fact in I.sorted_facts():
        lines.append(fact_ser(fact) + ".")
    if I.points:
        lines.append("points: " + " ".join(e.ser for e in I.points))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Dependency sets
# ---------------------------------------------------------------------------


def parse_tgds(text: str) -> list[TGD]:
    toks = _Tokens(text)
    tgds = []
    while toks.peek()[0] != "eof":
        body = _comma_list(toks, _parse_atom)
        toks.expect("arrow")
        existentials = _parse_exists(toks)
        head = _comma_list(toks, _parse_atom)
        toks.expect("sym", ".")
        tgd = TGD(tuple(body), tuple(head), existentials)
        head_vars = {v for a in tgd.head_atoms for v in a.args}
        body_vars = {v for a in tgd.body_atoms for v in a.args}
        if head_vars - body_vars - set(existentials):
            toks.error("unsafe dependency: head variable not in body")
        tgds.append(tgd)
    tgd_schema(tgds)  # arity consistency
    return tgds


def print_tgds(tgds: list[TGD]) -> str:
    return "\n".join(sorted(t.canonical_str() for t in tgds)) + "\n"


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


def parse_query(text: str) -> UCQ:
    toks = _Tokens(text)
    toks.expect("ident", "query")
    name = toks.expect("ident", what="query name")[1]
    toks.expect("sym", "/")
    arity = int(toks.expect("num", what="arity")[1])
    disjuncts = []
    while toks.peek()[0] != "eof":
        toks.expect("sym", "(")
        answer = _comma_list(toks, _variable, ")")
        if len(answer) != arity:
            toks.error(f"answer tuple arity {len(answer)} != {arity}")
        toks.expect("coldash")
        atoms = _comma_list(toks, _parse_atom, ".")
        body_vars = {v for a in atoms for v in a.args}
        missing = set(answer) - body_vars
        if missing:
            toks.error(f"answer variable {sorted(missing)[0]} does not "
                       "occur in any conjunct")
        disjuncts.append(CQ(tuple(answer), tuple(atoms)))
    try:
        return UCQ(name, arity, tuple(disjuncts))
    except HomkitError as exc:
        raise ParseError(str(exc), *toks.where(len(text))) from exc


def print_query(q: UCQ) -> str:
    lines = [f"query {q.name}/{q.arity}"]
    for cq in sorted(q.disjuncts, key=lambda c: c.canonical_str()):
        lines.append(cq.canonical_str())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON renderings (stable key order everywhere)
# ---------------------------------------------------------------------------


def schema_json(s: Schema) -> dict:
    return {rel: arity for rel, arity in s.relations}


def instance_json(I: Instance) -> dict:
    return {
        "domain": [e.ser for e in I.sorted_domain()],
        "facts": [fact_ser(f) for f in I.sorted_facts()],
        "points": [e.ser for e in I.points],
        "schema": schema_json(I.schema),
    }


def program_json(P: Program) -> dict:
    return {
        "articulation": dict(sorted(P.articulation.items())),
        "aux": schema_json(P.s_aux),
        "in": schema_json(P.s_in),
        "out": schema_json(P.s_out),
        "rules": [r.canonical_str() for r in P.sorted_rules()],
    }


def dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
