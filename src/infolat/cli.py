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
import functools
import re
import sys
from dataclasses import dataclass
from typing import Iterator

from .catalog import Workspace, get_example, list_examples
from .errors import InfolatError, ParseError, ValidationError
from .loci import (DEFAULT_ENUMERATION_CAP, cp, enumerate_loci, enumerate_loi,
                   er, ordered_kernel, ordered_knowledge_set,
                   phi_realisability)
from .loi import flow_check, kernel, knowledge_set
from .poset import FnTable, Poset, bits, build_poset, check_monotone
from .powerdomain import DEFAULT_POWERDOMAIN_CAP, plotkin
from .relation import (OrderedPartition, Rel, all_rel, block_label, close,
                       format_relation, identity_rel, order_rel,
                       rel_from_pairs, require, to_ordered_partition)
from .tini import ti_flow_check

RESERVED = set("{};:,=")
OPERATORS = ("<=", "->", "~")
# tokens that cannot be a name
_NOT_NAMES = RESERVED | set(OPERATORS)

# a token is "<=" (which wins over the reserved "=" in it), one reserved
# character, or a run of other non-space characters up to the next "<="
_CLASS = re.escape("".join(sorted(RESERVED)))
_TOKEN = re.compile(rf"<=|[{_CLASS}]|(?:(?!<=)[^\s{_CLASS}])+")


@dataclass(frozen=True)
class Token:
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[Token]:
    """Tokens with their ``line:col``.  The parser reads only the token
    texts, ``_TOKEN.findall(source)``, and calls this for positions when
    it reports an error; both scans find the same tokens because every
    line boundary of ``str.splitlines`` is whitespace to ``_TOKEN``, so
    no token spans a line."""
    return [Token(m.group(), lineno, m.start() + 1)
            for lineno, line in enumerate(source.splitlines(), start=1)
            for m in _TOKEN.finditer(line)]


class _Parser:
    """Walks the token texts of ``source``; positions come from
    :func:`_tokenize` only when an error is built."""

    def __init__(self, source: str):
        self.source = source
        self.tokens = _TOKEN.findall(source)
        self.pos = 0

    def _fail(self, message: str) -> ParseError:
        tokens = _tokenize(self.source)
        if self.pos < len(tokens):
            t = tokens[self.pos]
            return ParseError(message, t.line, t.col)
        # only reached after a keyword token, so there is a last token
        t = tokens[-1]
        return ParseError(message + " (at end of input)", t.line, t.col)

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, what: str) -> str:
        if self.pos >= len(self.tokens):
            raise self._fail(f"expected {what}")
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, *options: str) -> str:
        """Read one of ``options``, or fail naming all of them."""
        if self.peek() in options:
            self.pos += 1
            return self.tokens[self.pos - 1]
        *rest, last = map(repr, options)
        what = f"{', '.join(rest)} or {last}" if rest else last
        got = self.next(what)
        self.pos -= 1
        raise self._fail(f"expected {what}, got {got!r}")

    def name(self, what: str) -> str:
        got = self.next(what)
        if got in _NOT_NAMES:
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
    parser = _Parser(source)
    ws = Workspace() if into is None else into
    declarations = {"poset": (_parse_poset, ws.add_poset),
                    "fn": (_parse_fn, ws.add_function),
                    "rel": (_parse_rel, ws.add_relation)}
    while not parser.done():
        parse, add = declarations[parser.expect(*declarations)]
        start = parser.pos - 1
        try:
            add(*parse(parser, ws))
        except ParseError:
            raise
        except InfolatError as exc:
            # reported at the declaration's keyword
            parser.pos = start
            raise parser._fail(str(exc)) from exc
    return ws


def _entries(p: _Parser, ops: tuple[str, ...],
             sep: str) -> Iterator[tuple[str, str, str]]:
    """``a OP b`` entries up to the closing ``}``, each followed by an
    optional ``sep``; yields (a, op, b) with the parser just past b.

    A body of whole ``a OP b sep`` groups, the last ``sep`` optional, is
    read in slices (the names a and b are its even positions); any other
    body, and so every error, goes through the token walker."""
    start = p.pos
    try:
        end = p.tokens.index("}", start)
    except ValueError:
        end = -1
    body = p.tokens[start:end]
    if (end >= 0 and len(body) % 4 in (0, 3)
            and set(body[1::4]).issubset(ops)
            and set(body[3::4]).issubset((sep,))
            and _NOT_NAMES.isdisjoint(body[::2])):
        for k in range(0, len(body), 4):
            p.pos = start + k + 3
            yield body[k], body[k + 1], body[k + 2]
        p.pos = end + 1
        return
    while p.peek() != "}":
        a = p.name("element name")
        op = p.expect(*ops)
        yield a, op, p.name("element name")
        if p.peek() == sep:
            p.expect(sep)
    p.expect("}")


def _parse_poset(p: _Parser, ws: Workspace) -> tuple[str, Poset]:
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
    covers = [(a, b) for a, _, b in _entries(p, ("<=",), ",")]
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
    for x, _, y in _entries(p, ("->",), ";"):
        if x in table:
            p.pos -= 1
            raise p._fail(f"element {x!r} mapped twice")
        table[x] = y
    return name, check_monotone(dom, cod, table)


# each relation kind and the closure it takes
_REL_KINDS = {"preorder": "refl_trans", "equiv": "equivalence", "raw": None}


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
    for a, op, b in _entries(p, ("<=", "~"), ";"):
        pairs.append((a, b))
        if op == "~":
            pairs.append((b, a))
    rel = rel_from_pairs(carrier, pairs)
    closure = _REL_KINDS[kind]
    return name, rel if closure is None else close(rel, closure)


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


def export_fn(name: str, f: FnTable, dom: str, cod: str) -> str:
    """``fn`` declaration of f between the posets named dom and cod."""
    body = " ; ".join(f"{x} -> {f(x)}" for x in f.dom.elements)
    return f"fn {name} : {dom} -> {cod} {{ {body} }}"


def export_rel(name: str, r: Rel, ws: Workspace) -> str:
    body = " ; ".join(f"{a} <= {b}" for a, b in r.pairs())
    space = f" {body} " if body else " "
    return f"rel {name} on {_poset_name(ws, r.carrier)} kind=raw {{{space}}}"


def export_workspace(ws: Workspace) -> str:
    lines = [export_poset(name, p) for name, p in ws.posets.items()]
    lines.extend(export_fn(name, f, _poset_name(ws, f.dom),
                           _poset_name(ws, f.cod))
                 for name, f in ws.functions.items())
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
        pairs = [(i, j) for i, row in enumerate(skeleton.rows)
                 for j in bits(row & ~(1 << i))]
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


def _lookup(table: dict, kind: str, name: str):
    """``table[name]``, or an input error naming the ``kind`` of entry."""
    if name not in table:
        raise ValidationError(f"unknown {kind} {name!r}")
    return table[name]


def _resolve_rel(ws: Workspace, name: str, carrier: Poset) -> Rel:
    """Workspace relation by name, or the built-ins All, Id, order."""
    if name in ws.relations:
        return ws.relations[name]
    builtins = {"All": all_rel, "Id": identity_rel, "order": order_rel}
    if name in builtins:
        return builtins[name](carrier)
    raise ValidationError(
        f"unknown relation {name!r} (workspace names plus All, Id, order)")


def _cmd_check(ws: Workspace, args: argparse.Namespace) -> int:
    f = _lookup(ws.functions, "function", args.fn)
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


def _cmd_kernel(ws: Workspace, args: argparse.Namespace) -> int:
    f = _lookup(ws.functions, "function", args.fn)
    rel = ordered_kernel(f) if args.ordered else kernel(f)
    print(format_relation(rel))
    return 0


def _cmd_knowledge(ws: Workspace, args: argparse.Namespace) -> int:
    f = _lookup(ws.functions, "function", args.fn)
    members = (ordered_knowledge_set(f, args.input) if args.ordered
               else knowledge_set(f, args.input))
    ordered = [x for x in f.dom.elements if x in members]
    print("{" + " ".join(ordered) + "}")
    return 0


def _cmd_rel_map(ws: Workspace, args: argparse.Namespace) -> int:
    """``cp`` and ``er``: print the library map of that name applied to
    the named relation.  The map is looked up per call, not stored in
    the parser, which outlives any rebinding of ``cp`` or ``er``."""
    rel_map = {"cp": cp, "er": er}[args.command]
    print(format_relation(rel_map(_lookup(ws.relations, "relation", args.rel))))
    return 0


def _cmd_realisable(ws: Workspace, args: argparse.Namespace) -> int:
    rel = _lookup(ws.relations, "relation", args.rel)
    result = phi_realisability(rel)
    if result.realisable:
        print("REALISABLE")
        if args.witness:
            blocks = f"{args.rel}_blocks"
            print(export_poset(blocks, result.witness_poset))
            print(export_fn(f"{args.rel}_quotient", result.witness_fn,
                            _poset_name(ws, rel.carrier), blocks))
        return 0
    labels = [block_label(b) for b in result.cycle]
    print("UNREALISABLE: cycle: " + " -> ".join(labels + [labels[0]]))
    return 1


def _cmd_enumerate(ws: Workspace, args: argparse.Namespace) -> int:
    _, p = _single_poset(ws, args.poset)
    rels = (enumerate_loci(p, cap=args.cap) if args.what == "loci"
            else enumerate_loi(p, cap=args.cap))
    print(len(rels))
    for rel in rels:
        print(format_relation(rel))
    return 0


def _single_poset(ws: Workspace, name: str | None) -> tuple[str, Poset]:
    """The named poset, or the workspace's only one, with its name."""
    if name is not None:
        return name, _lookup(ws.posets, "poset", name)
    if len(ws.posets) == 1:
        return next(iter(ws.posets.items()))
    raise ValidationError(
        "--poset is required when the workspace has several posets")


def _cmd_hasse(ws: Workspace, args: argparse.Namespace) -> int:
    if (args.poset is None) == (args.rel is None):
        raise ValidationError("give exactly one of --poset or --rel")
    if args.poset is not None:
        text = emit_dot(_single_poset(ws, args.poset)[1], full=args.full)
    else:
        rel = _lookup(ws.relations, "relation", args.rel)
        text = emit_dot(to_ordered_partition(rel), full=args.full)
    sys.stdout.write(text)
    return 0


def _cmd_powerdomain(ws: Workspace, args: argparse.Namespace) -> int:
    name, p = _single_poset(ws, args.poset)
    print(export_poset(f"P_{name}", plotkin(p, cap=args.cap)))
    return 0


def _cmd_catalog(_ws: Workspace, args: argparse.Namespace) -> int:
    """Lists or shows a bundle.  The loaded workspace goes unused; it is
    loaded so that a bad ``--file`` or ``--example`` fails here too."""
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


@functools.cache
def _build_argparser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    later :func:`run` in the process; parsing leaves it unchanged."""
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
    p.set_defaults(handler=_cmd_rel_map)

    p = sub.add_parser("er", parents=[common],
                       help="underlying equivalence of a preorder")
    p.add_argument("--rel", required=True)
    p.set_defaults(handler=_cmd_rel_map)

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
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
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
    p.add_argument("--cap", type=int, default=DEFAULT_POWERDOMAIN_CAP)
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
        return args.handler(_load_workspace(args), args)
    except InfolatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
