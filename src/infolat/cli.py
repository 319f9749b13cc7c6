"""Command-line front end and the workspace text format.

Grammar (free-form whitespace; names may not contain whitespace or the
reserved characters ``{ } ; : , =`` and may not equal ``<=``, ``->`` or
``~``)::

    poset N { elements: e1 e2 ... ; order: a <= b, c <= d }
    fn F : A -> B { x -> y ; ... }
    rel R on A kind=preorder|equiv|raw { a <= b ; c ~ d ; ... }

Every command is deterministic: identical inputs give byte-identical
output.  Exit codes: 0 = property holds / output produced, 1 = property
violated (witness printed), 2 = input error (message on stderr).
"""

import argparse
import sys
from dataclasses import dataclass

from .catalog import Workspace, get_example, list_examples
from .errors import InfolatError, ParseError, ValidationError
from .loci import (cp, enumerate_loci, enumerate_loi, er, ordered_kernel,
                   ordered_knowledge_set, phi_realisability)
from .loi import flow_check, kernel, knowledge_set
from .poset import FnTable, Poset, build_poset, check_monotone
from .powerdomain import plotkin
from .relation import (OrderedPartition, Rel, all_rel, block_label, close,
                       format_relation, identity_rel, order_rel,
                       rel_from_pairs, require, to_ordered_partition)
from .tini import ti_flow_check

RESERVED = set("{};:,=")
OPERATORS = ("<=", "->", "~")


@dataclass(frozen=True)
class Token:
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[Token]:
    tokens = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        i = 0
        word = ""
        word_col = 0

        def flush() -> None:
            nonlocal word
            if word:
                tokens.append(Token(word, lineno, word_col))
                word = ""

        while i < len(line):
            ch = line[i]
            # "<=" must win over the reserved "=" that follows it
            if ch == "<" and line[i + 1:i + 2] == "=":
                flush()
                tokens.append(Token("<=", lineno, i + 1))
                i += 2
                continue
            if ch.isspace() or ch in RESERVED:
                flush()
                if ch in RESERVED:
                    tokens.append(Token(ch, lineno, i + 1))
            else:
                if not word:
                    word_col = i + 1
                word += ch
            i += 1
        flush()
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def _fail(self, message: str) -> ParseError:
        if self.pos < len(self.tokens):
            t = self.tokens[self.pos]
            return ParseError(message, t.line, t.col)
        if self.tokens:
            t = self.tokens[-1]
            return ParseError(message + " (at end of input)", t.line, t.col)
        return ParseError(message + " (empty input)", 1, 1)

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def peek(self) -> str | None:
        return self.tokens[self.pos].text if not self.done() else None

    def next(self, what: str) -> str:
        if self.done():
            raise self._fail(f"expected {what}")
        t = self.tokens[self.pos]
        self.pos += 1
        return t.text

    def expect(self, literal: str) -> None:
        got = self.next(f"{literal!r}")
        if got != literal:
            self.pos -= 1
            raise self._fail(f"expected {literal!r}, got {got!r}")

    def name(self, what: str) -> str:
        got = self.next(what)
        if got in RESERVED or got in OPERATORS:
            self.pos -= 1
            raise self._fail(f"expected {what}, got {got!r}")
        return got


def parse_workspace(source: str, into: Workspace | None = None) -> Workspace:
    """Parse declarations into a workspace, resolving every reference.

    Posets must be declared before the tables and relations that use
    them; totality and monotonicity of tables and the declared closure
    kind of relations are enforced here.  With ``into``, declarations
    land in an existing workspace and may reference its names.
    """
    parser = _Parser(_tokenize(source))
    ws = Workspace() if into is None else into
    while not parser.done():
        keyword = parser.next("declaration keyword")
        start = parser.tokens[parser.pos - 1]
        try:
            if keyword == "poset":
                name, p = _parse_poset(parser)
                ws.add_poset(name, p)
            elif keyword == "fn":
                name, f = _parse_fn(parser, ws)
                ws.add_function(name, f)
            elif keyword == "rel":
                name, r = _parse_rel(parser, ws)
                ws.add_relation(name, r)
            else:
                parser.pos -= 1
                raise parser._fail(
                    f"expected 'poset', 'fn' or 'rel', got {keyword!r}")
        except ParseError:
            raise
        except InfolatError as exc:
            raise ParseError(str(exc), start.line, start.col) from exc
    return ws


def _parse_poset(p: _Parser) -> tuple[str, Poset]:
    name = p.name("poset name")
    p.expect("{")
    p.expect("elements")
    p.expect(":")
    elements = []
    while p.peek() != ";":
        elements.append(p.name("element name"))
    p.expect(";")
    p.expect("order")
    p.expect(":")
    covers = []
    while p.peek() != "}":
        a = p.name("element name")
        p.expect("<=")
        b = p.name("element name")
        covers.append((a, b))
        if p.peek() == ",":
            p.expect(",")
    p.expect("}")
    return name, build_poset(elements, covers)


def _get_poset(p: _Parser, ws: Workspace) -> Poset:
    ref = p.name("poset name")
    if ref not in ws.posets:
        p.pos -= 1
        raise p._fail(f"unknown poset {ref!r}")
    return ws.posets[ref]


def _parse_fn(p: _Parser, ws: Workspace) -> tuple[str, FnTable]:
    name = p.name("function name")
    p.expect(":")
    dom = _get_poset(p, ws)
    p.expect("->")
    cod = _get_poset(p, ws)
    p.expect("{")
    table: dict[str, str] = {}
    while p.peek() != "}":
        x = p.name("element name")
        p.expect("->")
        y = p.name("element name")
        if x in table:
            p.pos -= 1
            raise p._fail(f"element {x!r} mapped twice")
        table[x] = y
        if p.peek() == ";":
            p.expect(";")
    p.expect("}")
    return name, check_monotone(dom, cod, table)


_REL_KINDS = ("preorder", "equiv", "raw")


def _parse_rel(p: _Parser, ws: Workspace) -> tuple[str, Rel]:
    name = p.name("relation name")
    p.expect("on")
    carrier = _get_poset(p, ws)
    p.expect("kind")
    p.expect("=")
    kind = p.next("relation kind")
    if kind not in _REL_KINDS:
        p.pos -= 1
        raise p._fail(f"relation kind must be one of {', '.join(_REL_KINDS)}")
    p.expect("{")
    pairs: list[tuple[str, str]] = []
    while p.peek() != "}":
        a = p.name("element name")
        op = p.next("'<=' or '~'")
        if op not in ("<=", "~"):
            p.pos -= 1
            raise p._fail(f"expected '<=' or '~', got {op!r}")
        b = p.name("element name")
        pairs.append((a, b))
        if op == "~":
            pairs.append((b, a))
        if p.peek() == ";":
            p.expect(";")
    p.expect("}")
    rel = rel_from_pairs(carrier, pairs)
    if kind == "preorder":
        rel = close(rel, "refl_trans")
    elif kind == "equiv":
        rel = close(rel, "equivalence")
    return name, rel


def export_poset(name: str, p: Poset) -> str:
    elems = " ".join(p.elements)
    pairs = ", ".join(f"{p.elements[i]} <= {p.elements[j]}"
                      for i, j in p.covers())
    order = f" {pairs} " if pairs else " "
    return f"poset {name} {{ elements: {elems} ; order:{order}}}"


def _poset_name(ws: Workspace, p: Poset) -> str:
    for name, candidate in ws.posets.items():
        if candidate.elements == p.elements and candidate.rows == p.rows:
            return name
    raise ValidationError("poset is not named in the workspace")


def export_fn(name: str, f: FnTable, ws: Workspace) -> str:
    body = " ; ".join(f"{x} -> {f(x)}" for x in f.dom.elements)
    return (f"fn {name} : {_poset_name(ws, f.dom)} -> "
            f"{_poset_name(ws, f.cod)} {{ {body} }}")


def export_rel(name: str, r: Rel, ws: Workspace) -> str:
    body = " ; ".join(f"{a} <= {b}" for a, b in r.pairs())
    space = f" {body} " if body else " "
    return f"rel {name} on {_poset_name(ws, r.carrier)} kind=raw {{{space}}}"


def export_workspace(ws: Workspace) -> str:
    lines = [export_poset(name, p) for name, p in ws.posets.items()]
    lines.extend(export_fn(name, f, ws) for name, f in ws.functions.items())
    lines.extend(export_rel(name, r, ws) for name, r in ws.relations.items())
    return "\n".join(lines) + "\n"


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_dot(obj: Poset | OrderedPartition, full: bool = False) -> str:
    """``digraph`` text for a poset or ordered partition.

    Nodes appear in canonical order; edges are the covering pairs of
    the (block) order, sorted lexicographically, or every non-reflexive
    pair with ``full``.
    """
    if isinstance(obj, OrderedPartition):
        labels = [block_label(b) for b in obj.blocks]
        skeleton = obj.order
    else:
        labels = list(obj.elements)
        skeleton = obj
    lines = ["digraph {"]
    lines.extend(f"  {_quote(label)};" for label in labels)
    if full:
        pairs = [(i, j) for i in range(len(labels))
                 for j in range(len(labels))
                 if i != j and skeleton.leq_idx(i, j)]
    else:
        pairs = skeleton.covers()
    edges = sorted(f"  {_quote(labels[i])} -> {_quote(labels[j])};"
                   for i, j in pairs)
    lines.extend(edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _load_workspace(args: argparse.Namespace) -> Workspace:
    ws = Workspace()
    for name in args.example:
        ws.merge(get_example(name, n=args.n))
    for path in args.file:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        # ValueError: undecodable bytes, or a NUL in the path
        except (OSError, ValueError) as exc:
            raise ValidationError(f"cannot read {path}: {exc}") from exc
        parse_workspace(text, into=ws)
    return ws


def _get_function(ws: Workspace, name: str) -> FnTable:
    if name not in ws.functions:
        raise ValidationError(f"unknown function {name!r}")
    return ws.functions[name]


def _resolve_rel(ws: Workspace, name: str, carrier: Poset) -> Rel:
    """Workspace relation by name, or the built-ins All, Id, order."""
    if name in ws.relations:
        return ws.relations[name]
    builtins = {"All": all_rel, "Id": identity_rel, "order": order_rel}
    if name in builtins:
        return builtins[name](carrier)
    raise ValidationError(
        f"unknown relation {name!r} (workspace names plus All, Id, order)")


def _named_relation(ws: Workspace, name: str) -> Rel:
    if name not in ws.relations:
        raise ValidationError(f"unknown relation {name!r}")
    return ws.relations[name]


def _cmd_check(args: argparse.Namespace) -> int:
    ws = _load_workspace(args)
    f = _get_function(ws, args.fn)
    pre = _resolve_rel(ws, args.pre, f.dom)
    post = _resolve_rel(ws, args.post, f.cod)
    if args.ti:
        if args.mode == "loi":
            raise ValidationError(
                "termination-insensitive checking requires loci mode")
        violation = ti_flow_check(f, pre, post)
    else:
        if args.mode is not None:
            cls = "equivalence" if args.mode == "loi" else "complete"
            require(pre, cls, f"precondition in {args.mode} mode")
            require(post, cls, f"postcondition in {args.mode} mode")
        violation = flow_check(f, pre, post)
    if violation is None:
        print("HOLDS")
        return 0
    print(violation)
    return 1


def _cmd_kernel(args: argparse.Namespace) -> int:
    ws = _load_workspace(args)
    f = _get_function(ws, args.fn)
    rel = ordered_kernel(f) if args.ordered else kernel(f)
    print(format_relation(rel))
    return 0


def _cmd_knowledge(args: argparse.Namespace) -> int:
    ws = _load_workspace(args)
    f = _get_function(ws, args.fn)
    members = (ordered_knowledge_set(f, args.input) if args.ordered
               else knowledge_set(f, args.input))
    ordered = [x for x in f.dom.elements if x in members]
    print("{" + " ".join(ordered) + "}")
    return 0


def _cmd_cp(args: argparse.Namespace) -> int:
    ws = _load_workspace(args)
    print(format_relation(cp(_named_relation(ws, args.rel))))
    return 0


def _cmd_er(args: argparse.Namespace) -> int:
    ws = _load_workspace(args)
    print(format_relation(er(_named_relation(ws, args.rel))))
    return 0


def _cmd_realisable(args: argparse.Namespace) -> int:
    ws = _load_workspace(args)
    rel = _named_relation(ws, args.rel)
    result = phi_realisability(rel)
    if result.realisable:
        print("REALISABLE")
        if args.witness:
            witness_name = f"{args.rel}_blocks"
            print(export_poset(witness_name, result.witness_poset))
            body = " ; ".join(f"{x} -> {result.witness_fn(x)}"
                              for x in rel.carrier.elements)
            print(f"fn {args.rel}_quotient : {_poset_name(ws, rel.carrier)} "
                  f"-> {witness_name} {{ {body} }}")
        return 0
    labels = [block_label(b) for b in result.cycle]
    print("UNREALISABLE: cycle: " + " -> ".join(labels + [labels[0]]))
    return 1


def _cmd_enumerate(args: argparse.Namespace) -> int:
    ws = _load_workspace(args)
    p = _single_poset(ws, args.poset)
    rels = (enumerate_loci(p, cap=args.cap) if args.what == "loci"
            else enumerate_loi(p, cap=args.cap))
    print(len(rels))
    for rel in rels:
        print(format_relation(rel))
    return 0


def _single_poset(ws: Workspace, name: str | None) -> Poset:
    if name is not None:
        if name not in ws.posets:
            raise ValidationError(f"unknown poset {name!r}")
        return ws.posets[name]
    if len(ws.posets) == 1:
        return next(iter(ws.posets.values()))
    raise ValidationError(
        "--poset is required when the workspace has several posets")


def _cmd_hasse(args: argparse.Namespace) -> int:
    ws = _load_workspace(args)
    if (args.poset is None) == (args.rel is None):
        raise ValidationError("give exactly one of --poset or --rel")
    if args.poset is not None:
        text = emit_dot(_single_poset(ws, args.poset), full=args.full)
    else:
        partition = to_ordered_partition(_named_relation(ws, args.rel))
        text = emit_dot(partition, full=args.full)
    sys.stdout.write(text)
    return 0


def _cmd_powerdomain(args: argparse.Namespace) -> int:
    ws = _load_workspace(args)
    p = _single_poset(ws, args.poset)
    name = args.poset or next(iter(ws.posets))
    print(export_poset(f"P_{name}", plotkin(p, cap=args.cap)))
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.list:
        for name in list_examples():
            print(name)
        return 0
    if args.name is None:
        raise ValidationError("give --list or --name NAME")
    ws = get_example(args.name, n=args.n)
    if args.export:
        sys.stdout.write(export_workspace(ws))
        return 0
    print(f"example {ws.name}")
    for name, p in ws.posets.items():
        print(f"poset {name}: {len(p.elements)} elements")
    for name, f in ws.functions.items():
        print(f"fn {name} : {_poset_name(ws, f.dom)} -> {_poset_name(ws, f.cod)}")
    for name, r in ws.relations.items():
        print(f"rel {name} on {_poset_name(ws, r.carrier)}: {format_relation(r)}")
    if ws.notes:
        print(f"notes: {ws.notes}")
    return 0


def _build_argparser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="infolat",
        description="Finite information lattices: flow checking, kernels, "
                    "realisability, enumeration, and powerdomains.")
    sub = top.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--file", action="append", default=[], metavar="PATH",
                        help="workspace file (repeatable)")
    common.add_argument("--example", action="append", default=[],
                        metavar="NAME", help="catalog bundle (repeatable)")
    common.add_argument("--n", type=int, default=10,
                        help="size for integer-like carriers (default 10)")

    p = sub.add_parser("check", parents=[common],
                       help="flow property f: pre => post")
    p.add_argument("--fn", required=True)
    p.add_argument("--pre", required=True)
    p.add_argument("--post", required=True)
    p.add_argument("--ti", action="store_true",
                   help="termination-insensitive check")
    p.add_argument("--mode", choices=["loi", "loci"],
                   help="validate inputs as equivalences / complete preorders")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("kernel", parents=[common],
                       help="kernel or ordered kernel of a function")
    p.add_argument("--fn", required=True)
    p.add_argument("--ordered", action="store_true")
    p.set_defaults(handler=_cmd_kernel)

    p = sub.add_parser("knowledge", parents=[common],
                       help="knowledge set at an input")
    p.add_argument("--fn", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--ordered", action="store_true")
    p.set_defaults(handler=_cmd_knowledge)

    p = sub.add_parser("cp", parents=[common],
                       help="least complete preorder containing an equivalence")
    p.add_argument("--rel", required=True)
    p.set_defaults(handler=_cmd_cp)

    p = sub.add_parser("er", parents=[common],
                       help="underlying equivalence of a preorder")
    p.add_argument("--rel", required=True)
    p.set_defaults(handler=_cmd_er)

    p = sub.add_parser("realisable", parents=[common],
                       help="is the relation a kernel of some monotone table?")
    p.add_argument("--rel", required=True)
    p.add_argument("--witness", action="store_true",
                   help="print the quotient witness")
    p.set_defaults(handler=_cmd_realisable)

    p = sub.add_parser("enumerate", parents=[common],
                       help="count and list a lattice")
    p.add_argument("--poset")
    p.add_argument("--what", choices=["loci", "loi"], required=True)
    p.add_argument("--cap", type=int, default=6)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("hasse", parents=[common],
                       help="DOT drawing of a poset or a preorder's blocks")
    p.add_argument("--poset")
    p.add_argument("--rel")
    p.add_argument("--full", action="store_true",
                   help="all order pairs, not just covers")
    p.set_defaults(handler=_cmd_hasse)

    p = sub.add_parser("powerdomain", parents=[common],
                       help="convex powerdomain of a poset, as a declaration")
    p.add_argument("--poset")
    p.add_argument("--cap", type=int, default=5)
    p.set_defaults(handler=_cmd_powerdomain)

    p = sub.add_parser("catalog", parents=[common],
                       help="list or show bundled examples")
    p.add_argument("--list", action="store_true")
    p.add_argument("--name")
    p.add_argument("--export", action="store_true",
                   help="print the bundle in workspace syntax")
    p.set_defaults(handler=_cmd_catalog)

    return top


def run(argv: list[str]) -> int:
    """Execute one command; never raises on user input."""
    parser = _build_argparser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except InfolatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
