"""Command-line front end and the workspace text format.

Grammar (free-form whitespace; names may not contain whitespace or the
reserved characters ``{ } ; : , =`` and may not equal ``<=``, ``->`` or
``~``)::

    poset N { elements: e1 e2 ... ; order: a <= b, c <= d }
    fn F : A -> B { x -> y ; ... }
    rel R on A kind=preorder|equiv|raw { a <= b ; c ~ d ; ... }

A relation body lists pairs: ``a <= b`` is the pair (a, b) and ``a ~ b``
both (a, b) and (b, a).  ``kind=raw`` is exactly those pairs;
``kind=preorder`` closes them reflexively and transitively;
``kind=equiv`` reads every entry both ways, as ``~``, and closes the
same way, which gives their equivalence closure.  Export writes a
relation by its generators: an equivalence as ``kind=equiv`` with one
``x ~ rep`` per member that is not its class's least member ``rep``, any
other preorder as ``kind=preorder`` with those entries plus one
``rep <= rep'`` per cover of its block order, and anything else as
``kind=raw`` with every pair.

Every command is deterministic: identical inputs give byte-identical
output.  Exit codes: 0 = property holds / output produced, 1 = property
violated (witness printed), 2 = input error (message on stderr).
"""

import argparse
import functools
import sys
from typing import Iterator, Sequence

from .catalog import (DEFAULT_CARRIER_SIZE, Workspace, get_example,
                      list_examples)
from .errors import InfolatError, ParseError, ValidationError
from .loci import (DEFAULT_ENUMERATION_CAP, cp, enumerate_loci, enumerate_loi,
                   er, ordered_kernel, ordered_knowledge_set,
                   phi_realisability)
from .loi import flow_check, kernel, knowledge_set
from .poset import (FnTable, Poset, bits, build_poset, check_monotone,
                    preorder_quotient, row_covers)
from .powerdomain import DEFAULT_POWERDOMAIN_CAP, plotkin
from .relation import (Rel, _class_names, all_rel, block_label, close,
                       format_relation, identity_rel, order_rel,
                       rel_from_pairs, require, to_ordered_partition)
from .tini import ti_flow_check

RESERVED = set("{};:,=")
OPERATORS = ("<=", "->", "~")
# tokens that cannot be a name
_NOT_NAMES = RESERVED | set(OPERATORS)


def _token_texts(source: str) -> list[str]:
    """Token texts: ``<=``, one reserved character, or a maximal run of
    other non-space characters that stops before any ``<=``."""
    for c in RESERVED:
        source = source.replace(c, f" {c} ")
    # exact: padding put a space right before every "=", so "< =" can only
    # stand where the source had "<="
    return source.replace("< =", " <= ").split()


def _position(source: str, texts: Sequence[str], k: int) -> tuple[int, int]:
    """``line:col`` of token ``k`` of ``texts``, the token texts of
    ``source``.  Only whitespace lies between two tokens, so the first
    match of a token's text after the previous token is the token itself."""
    start = end = 0
    for text in texts[:k + 1]:
        start = source.index(text, end)
        end = start + len(text)
    # lines as str.splitlines counts them; the sentinel keeps a line that
    # ends right before the token
    lines = (source[:start] + "x").splitlines()
    return len(lines), len(lines[-1])


class _Parser:
    """Walks the token texts of ``source``; an error asks
    :func:`_position` for the ``line:col`` of the one token it names."""

    def __init__(self, source: str):
        self.source = source
        self.tokens = _token_texts(source)
        self.pos = 0

    def _fail(self, message: str) -> ParseError:
        k = self.pos
        if k >= len(self.tokens):
            # only reached after a keyword token, so there is a last token
            k = len(self.tokens) - 1
            message += " (at end of input)"
        return ParseError(message, *_position(self.source, self.tokens, k))

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

    Each entry is read by index; where none stands at the cursor, the
    parser's checking reads run from there and raise at the bad token."""
    tokens, i = p.tokens, p.pos
    n = len(tokens)
    while i >= n or tokens[i] != "}":
        if not (i + 2 < n and (op := tokens[i + 1]) in ops
                and (a := tokens[i]) not in _NOT_NAMES
                and (b := tokens[i + 2]) not in _NOT_NAMES):
            p.pos = i
            a, op, b = (p.name("element name"), p.expect(*ops),
                        p.name("element name"))
        i += 3
        p.pos = i
        yield a, op, b
        if i < n and tokens[i] == sep:
            i += 1
    p.pos = i + 1


def _parse_poset(p: _Parser, ws: Workspace) -> tuple[str, Poset]:
    name = p.name("poset name")
    p.expect("{")
    p.expect("elements")
    p.expect(":")
    # names by index; unless ";" ends them, a checking read raises there
    tokens, end = p.tokens, p.pos
    while end < len(tokens) and tokens[end] not in _NOT_NAMES:
        end += 1
    elements, p.pos = tokens[p.pos:end], end
    if p.peek() != ";":
        p.name("element name")
    p.pos += 1
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


# each relation kind and the closure it takes; an equiv body is read
# both ways, so its reflexive-transitive closure is an equivalence
_REL_KINDS = {"preorder": "refl_trans", "equiv": "refl_trans", "raw": None}


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
    both = kind == "equiv"
    pairs: list[tuple[str, str]] = []
    for a, op, b in _entries(p, ("<=", "~"), ";"):
        pairs.append((a, b))
        if both or op == "~":
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
    """``rel`` declaration of r: a preorder by its classes and block
    covers, anything else by every pair."""
    if (quotient := preorder_quotient(r.rows)) is not None:
        _, classes, block_rows = quotient
        blocks = _class_names(r.carrier, classes)
        covers = row_covers(block_rows)
        kind = "preorder" if covers else "equiv"
        entries = [f"{x} ~ {block[0]}" for block in blocks
                   for x in block[1:]]
        entries += [f"{blocks[i][0]} <= {blocks[j][0]}" for i, j in covers]
    else:
        kind = "raw"
        entries = [f"{a} <= {b}" for a, b in r.pairs()]
    body = " ; ".join(entries)
    space = f" {body} " if body else " "
    return (f"rel {name} on {_poset_name(ws, r.carrier)} kind={kind} "
            f"{{{space}}}")


def export_workspace(ws: Workspace) -> str:
    lines = [export_poset(name, p) for name, p in ws.posets.items()]
    lines.extend(export_fn(name, f, _poset_name(ws, f.dom),
                           _poset_name(ws, f.cod))
                 for name, f in ws.functions.items())
    lines.extend(export_rel(name, r, ws) for name, r in ws.relations.items())
    return "\n".join(lines) + "\n"


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_dot(labels: Sequence[str], rows: Sequence[int],
             full: bool = False) -> str:
    """``digraph`` text for labelled rows: a poset's elements and rows,
    or an ordered partition's block labels and ``block_rows``.

    Nodes appear in label order; edges are the covering pairs of the
    rows, sorted lexicographically, or every non-reflexive pair with
    ``full``.
    """
    lines = ["digraph {"]
    lines.extend(f"  {_quote(label)};" for label in labels)
    if full:
        pairs = [(i, j) for i, row in enumerate(rows)
                 for j in bits(row & ~(1 << i))]
    else:
        pairs = row_covers(rows)
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
            with open(path, encoding="utf-8-sig") as handle:
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
    print(block_label([x for x in f.dom.elements if x in members]))
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
        p = _single_poset(ws, args.poset)[1]
        labels, rows = p.elements, p.rows
    else:
        op = to_ordered_partition(_lookup(ws.relations, "relation", args.rel))
        labels, rows = [block_label(b) for b in op.blocks], op.block_rows
    sys.stdout.write(emit_dot(labels, rows, full=args.full))
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


# options that several subcommands share, as (flag, add_argument keywords)
_FN = ("--fn", dict(required=True))
_REL = ("--rel", dict(required=True))
_POSET = ("--poset", dict())
_ORDERED = ("--ordered", dict(action="store_true"))

# each subcommand in --help order: its handler, help line and own options
_SUBCOMMANDS = {
    "check": (_cmd_check, "flow property f: pre => post", [
        _FN, ("--pre", dict(required=True)), ("--post", dict(required=True)),
        ("--ti", dict(action="store_true",
                      help="termination-insensitive check")),
        ("--mode", dict(choices=["loi", "loci"], help="validate inputs as "
                        "equivalences / complete preorders"))]),
    "kernel": (_cmd_kernel, "kernel or ordered kernel of a function",
               [_FN, _ORDERED]),
    "knowledge": (_cmd_knowledge, "knowledge set at an input",
                  [_FN, ("--input", dict(required=True)), _ORDERED]),
    "cp": (_cmd_rel_map, "least complete preorder containing an equivalence",
           [_REL]),
    "er": (_cmd_rel_map, "underlying equivalence of a preorder", [_REL]),
    "realisable": (_cmd_realisable,
                   "is the relation a kernel of some monotone table?", [
        _REL, ("--witness", dict(action="store_true",
                                 help="print the quotient witness"))]),
    "enumerate": (_cmd_enumerate, "count and list a lattice", [
        _POSET, ("--what", dict(choices=["loci", "loi"], required=True)),
        ("--cap", dict(type=int, default=DEFAULT_ENUMERATION_CAP))]),
    "hasse": (_cmd_hasse, "DOT drawing of a poset or a preorder's blocks", [
        _POSET, ("--rel", dict()),
        ("--full", dict(action="store_true",
                        help="all order pairs, not just covers"))]),
    "powerdomain": (_cmd_powerdomain,
                    "convex powerdomain of a poset, as a declaration", [
        _POSET, ("--cap", dict(type=int, default=DEFAULT_POWERDOMAIN_CAP))]),
    "catalog": (_cmd_catalog, "list or show bundled examples", [
        ("--list", dict(action="store_true")), ("--name", dict()),
        ("--export", dict(action="store_true",
                          help="print the bundle in workspace syntax"))]),
}


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
    common.add_argument("--n", type=int, default=DEFAULT_CARRIER_SIZE,
                        help="size for integer-like carriers "
                             "(default %(default)s)")
    for name, (handler, summary, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=summary)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.set_defaults(handler=handler)
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
