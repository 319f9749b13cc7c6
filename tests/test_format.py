"""The workspace text format end to end: the tokenizer against its
character-scanning oracle, grammar-shaped files through every
subcommand under the exit-code contract, export and parse round trips,
and the README's examples."""

import contextlib
import io
import re
import shlex
import sys
import tempfile
from itertools import islice
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from infolat import (FnTable, Poset, Rel, Workspace, build_poset, cli,
                     close, get_example, iter_monotone_tables, list_examples,
                     rel_from_pairs, to_ordered_partition)
from infolat.cli import (RESERVED, _position, _token_texts, export_poset,
                         export_rel, export_workspace, parse_workspace, run)
from infolat.errors import ParseError
from infolat.poset import row_covers
from helpers import entries_walker, idx_pairs, tokenize_scanner

README = Path(__file__).parent.parent / "README.md"

# --- tokenizer ----------------------------------------------------------

WHITESPACE = " \t\r\n\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2000\u2028\u3000"
SOURCE_TEXT = st.lists(
    st.sampled_from(["\r\n", "<=", "->", "<<="]
                    + list("abxyz⊥+.'<=->~")
                    + list("{};:,=")
                    + list(WHITESPACE)),
    max_size=60).map("".join)


# runs of "<", inside names and before "<="
@given(SOURCE_TEXT)
@example("a<b<=c")
@example("<<<=")
@example("a<")
@example("<")
@example("x<-y")
@example("<~<=,")
# "<" then "=" only as one source "<="
@example("a< =b")
@example("=<=")
@example("<=<=")
@example("<{=")
@example("<==")
@example("kind=raw")
# each line break str.splitlines knows, right before a token
@example("a\rb")
@example("a\r\nb")
@example("a\x0bb")
@example("a\x0cb")
@example("a\x1cb")
@example("a\x85b")
@example("a\u2028b")
def test_tokenizer_matches_character_scanner(source):
    # the parser reads texts from one scan of the whole source and asks
    # _position for the position of a token only when it reports an error
    texts = _token_texts(source)
    assert [(text, *_position(source, texts, k))
            for k, text in enumerate(texts)] == tokenize_scanner(source)


@pytest.mark.parametrize("source", ["a<" * 50_000, "<" * 100_000],
                         ids=["a<", "<"])
def test_long_runs_of_lt_are_one_token(source):
    # a run of "<" with no "=" is one name, read in linear time
    assert _token_texts(source) == [source]


def test_every_line_boundary_is_token_whitespace():
    # why the whole-source scan finds no token spanning a line
    codes = "".join(map(chr, range(sys.maxunicode + 1)))
    breaks = [c for c in codes if len(f"a{c}b".splitlines()) == 2]
    assert "\r" in breaks and "\u2028" in breaks
    assert all(_token_texts(f"a{c}b") == ["a", "b"] for c in breaks)
    # every code point in one source: whitespace splits, a reserved
    # character is a token of its own, and any other stays in the name
    expected, last = [], 0
    for c in sorted({c for c in codes if c.isspace()} | RESERVED):
        expected += [f"a{d}b" for d in codes[last:ord(c)]]
        expected += ["a", "b"] if c.isspace() else ["a", c, "b"]
        last = ord(c) + 1
    expected += [f"a{d}b" for d in codes[last:]]
    assert _token_texts("a" + "b a".join(codes) + "b") == expected


# --- grammar-shaped files through the CLI -------------------------------

ELEMENTS = ["a", "b", "c", "a+b", "⊥", "x.y", "a'"]
POSETS = ["P", "Q"]
FUNCTIONS = ["f", "g"]
RELATIONS = ["R", "S"]
UNKNOWN = ["zz", "<=", "{", "->"]
# at most one fault per file, and half of the files have none
FAULTS = ("cycle", "duplicate element", "not total", "mapped twice",
          "not monotone", "unknown names", "unknown kind", "out of order",
          "dropped token", "not UTF-8")


def _pick(names):
    # one name in six is unknown or reserved
    return st.sampled_from([True] + [False] * 5).flatmap(
        lambda odd: st.sampled_from(UNKNOWN if odd else names))


@st.composite
def _poset_decl(draw, name, fault):
    """(poset or None if it is faulty, declaration)"""
    elements = draw(st.lists(st.sampled_from(ELEMENTS), min_size=1,
                             max_size=5, unique=True))
    n = len(elements)
    upward = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda ij: ij[0] < ij[1])
    covers = [(elements[i], elements[j])
              for i, j in draw(st.lists(upward, max_size=4))] if n > 1 else []
    poset = build_poset(elements, covers)
    if fault == "cycle" and covers:
        covers.append(covers[0][::-1])
        poset = None
    if fault == "duplicate element":
        elements.append(elements[0])
        poset = None
    order = ", ".join(f"{a} <= {b}" for a, b in covers)
    return poset, (f"poset {name} {{ elements: {' '.join(elements)} ; "
                   f"order: {order} }}")


@st.composite
def _fn_decl(draw, name, posets, pick, fault):
    dom, cod = draw(pick(list(posets))), draw(pick(list(posets)))
    a, b = posets.get(dom), posets.get(cod)
    if a is not None and b is not None:
        k = draw(st.integers(0, 30))
        table = next(islice(iter_monotone_tables(a, b), k, None), None)
        if table is not None and fault != "not monotone":
            images = list(table.images)
        else:
            images = draw(st.lists(st.integers(0, len(b) - 1),
                                   min_size=len(a), max_size=len(a)))
        entries = [(x, b.elements[v]) for x, v in zip(a.elements, images)]
    else:
        entries = draw(st.lists(st.tuples(pick(ELEMENTS), pick(ELEMENTS)),
                                max_size=4))
    if fault == "not total" and entries:
        entries.pop()
    if fault == "mapped twice" and entries:
        entries.append(entries[0])
    body = " ; ".join(f"{x} -> {y}" for x, y in entries)
    return f"fn {name} : {dom} -> {cod} {{ {body} }}"


@st.composite
def _rel_decl(draw, name, posets, pick, fault):
    carrier = draw(pick(list(posets)))
    kind = ("weird" if fault == "unknown kind" else
            draw(st.sampled_from(["preorder", "equiv", "raw"])))
    p = posets.get(carrier)
    element = pick(list(p.elements) if p else ELEMENTS)
    ops = ["<=", "~", "->"] if fault == "unknown names" else ["<=", "~"]
    entries = draw(st.lists(
        st.tuples(element, st.sampled_from(ops), element), max_size=5))
    body = " ; ".join(f"{a} {op} {b}" for a, op, b in entries)
    return f"rel {name} on {carrier} kind={kind} {{ {body} }}"


@st.composite
def workspace_files(draw):
    """Bytes of a workspace file: one or two posets, then a table or
    two over them (monotone unless that is the fault) and a relation
    or two, each name drawn from a short list so that the CLI finds it."""
    fault = draw(st.sampled_from((None,) * len(FAULTS) + FAULTS))
    pick = _pick if fault == "unknown names" else st.sampled_from
    posets, decls = {}, []
    for name in POSETS[:draw(st.integers(1, 2))]:
        posets[name], decl = draw(_poset_decl(name, fault))
        decls.append(decl)
    for name in FUNCTIONS[:draw(st.integers(1, 2))]:
        decls.append(draw(_fn_decl(name, posets, pick, fault)))
    for name in RELATIONS[:draw(st.integers(1, 2))]:
        decls.append(draw(_rel_decl(name, posets, pick, fault)))
    if fault == "out of order":
        decls = draw(st.permutations(decls))
    words = "\n".join(decls).split(" ")
    if fault == "dropped token":
        del words[draw(st.integers(0, len(words) - 1))]
    data = " ".join(words).encode("utf-8")
    if fault == "not UTF-8":
        data = data.replace(b" ", b" \xe9", 1)
    return data


def _argvs(path: str):
    """One subcommand over the file, mostly with names it declares."""
    fn = st.sampled_from(FUNCTIONS * 3 + ["zz"])
    rel = st.sampled_from(RELATIONS * 3 + ["zz"])
    pre_post = st.sampled_from(RELATIONS + ["All", "Id", "order", "zz"])
    poset = st.sampled_from(POSETS * 3 + ["zz"]).map(
        lambda p: ["--poset", p])
    maybe_poset = st.one_of(st.just([]), poset)

    def flag(switch):
        return st.sampled_from([[], [switch]])

    commands = [
        st.tuples(st.just(["check", "--fn"]), fn.map(lambda x: [x]),
                  pre_post.map(lambda x: ["--pre", x]),
                  pre_post.map(lambda x: ["--post", x]), flag("--ti"),
                  st.sampled_from([[], ["--mode", "loi"],
                                   ["--mode", "loci"]])),
        st.tuples(st.just(["kernel", "--fn"]), fn.map(lambda x: [x]),
                  flag("--ordered")),
        st.tuples(st.just(["knowledge", "--fn"]), fn.map(lambda x: [x]),
                  st.sampled_from(ELEMENTS + ["zz"]).map(
                      lambda x: ["--input", x]),
                  flag("--ordered")),
        st.tuples(st.sampled_from([["cp"], ["er"]]),
                  rel.map(lambda x: ["--rel", x])),
        st.tuples(st.just(["realisable"]), rel.map(lambda x: ["--rel", x]),
                  flag("--witness")),
        st.tuples(st.just(["enumerate", "--cap", "4", "--what"]),
                  st.sampled_from([["loci"], ["loi"]]), maybe_poset),
        st.tuples(st.just(["hasse"]),
                  st.one_of(poset, rel.map(lambda x: ["--rel", x])),
                  flag("--full")),
        st.tuples(st.just(["powerdomain", "--cap", "4"]), maybe_poset),
    ]
    return st.one_of(commands).map(
        lambda parts: [w for part in parts for w in part]
        + ["--file", path])


@given(workspace_files(), st.data())
def test_exit_code_contract_holds_for_any_file(content, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "fuzz.ws")
        Path(path).write_bytes(content)
        for argv in data.draw(st.lists(_argvs(path), min_size=1,
                                       max_size=3)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = run(argv)
            assert code in (0, 1, 2), argv
            if code == 2:
                assert err.getvalue(), argv
            else:
                assert err.getvalue() == "", argv


# --- entry bodies: slices against the token walker ----------------------

# reserved tokens and operators, which no name may be, and two names that
# no poset declares
ODD = ["<=", "->", "~", "{", "}", ";", ",", ":", "=", "elements", "zz"]
# element names: no reserved character, operator or "z", so never an ODD
# token, and wide enough that few drawn sources repeat
ELEMENT = st.text("abcdxé⊥_12", min_size=1, max_size=3)
BODY_FAULTS = ("cut", "drop", "odd name", "odd op", "insert", "repeat",
               "unclosed")


@st.composite
def _entry_body(draw, entries, sep, fault):
    """One body and its closing brace: the drawn ``entries`` with the
    separator after every entry, after all but the last, after none or
    after a random few, and then the ``fault``: the body cut short, a
    token dropped, a name or operator replaced by an ``ODD`` token, an
    ``ODD`` token inserted, the first entry repeated, or the brace left
    out.  The tokens are joined by mostly single spaces (``x->y`` with
    no spaces is one name)."""
    entries = draw(entries)
    seps = draw(st.sampled_from(["all", "trailing"] * 2 + ["none", "some"]))
    tokens, names, ops = [], [], []
    for k, (a, op, b) in enumerate(entries):
        names += [len(tokens), len(tokens) + 2]
        ops.append(len(tokens) + 1)
        tokens += [a, op, b]
        if (seps == "trailing" or seps == "all" and k < len(entries) - 1
                or seps == "some" and draw(st.booleans())):
            tokens.append(sep)
    tokens.append("}")
    odd = st.sampled_from(ODD)
    if fault == "cut":
        del tokens[draw(st.integers(0, len(tokens) - 1)):-1]
    elif fault == "drop":
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    elif fault == "odd name" and names:
        tokens[draw(st.sampled_from(names))] = draw(odd)
    elif fault == "odd op" and ops:
        tokens[draw(st.sampled_from(ops))] = draw(odd)
    elif fault == "insert":
        tokens.insert(draw(st.integers(0, len(tokens) - 1)), draw(odd))
    elif fault == "repeat" and entries:
        tokens[:0] = [*entries[0], sep]
    elif fault == "unclosed":
        tokens.pop()
    gaps = draw(st.lists(st.sampled_from([" "] * 12 + ["\n", "  ", ""]),
                         min_size=len(tokens), max_size=len(tokens)))
    return "".join(gap + token for gap, token in zip(gaps, tokens))


@st.composite
def entry_body_sources(draw):
    """A poset, a total table and a relation, whose bodies come from
    :func:`_entry_body`; one of the bodies has a fault, and the bodies
    before it have none, so the parse reaches it."""
    faulty = draw(st.sampled_from(["order", "table", "pairs"]))
    fault = draw(st.sampled_from(BODY_FAULTS))

    def body(which, entries, sep):
        return draw(_entry_body(entries, sep, fault if which == faulty
                                else None))

    p_names = draw(st.lists(ELEMENT, min_size=2, max_size=5, unique=True))
    q_names = draw(st.lists(ELEMENT, min_size=2, max_size=3, unique=True))
    n = len(p_names)
    upward = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda ij: ij[0] < ij[1]).map(
        lambda ij: (p_names[ij[0]], "<=", p_names[ij[1]]))
    order = body("order", st.lists(upward, max_size=4), ",")
    images = st.one_of(st.sampled_from(q_names).map(lambda y: [y] * n),
                       st.lists(st.sampled_from(q_names), min_size=n,
                                max_size=n))
    mapping = st.tuples(st.permutations(p_names), images).map(
        lambda xs_ys: [(x, "->", y) for x, y in zip(*xs_ys)])
    table = body("table", mapping, ";")
    pair = st.tuples(st.sampled_from(p_names), st.sampled_from(["<=", "~"]),
                     st.sampled_from(p_names))
    pairs = body("pairs", st.lists(pair, max_size=6), ";")
    kind = draw(st.sampled_from(["raw", "preorder", "equiv"]))
    return (f"poset P {{ elements: {' '.join(p_names)} ; order:{order}\n"
            f"poset Q {{ elements: {' '.join(q_names)} ; "
            f"order: {q_names[0]} <= {q_names[1]} }}\n"
            f"fn f : P -> Q {{{table}\n"
            f"rel R on P kind={kind} {{{pairs}\n")

def _parsed(source: str):
    """The workspace, or the error's text and position."""
    try:
        return parse_workspace(source)
    except ParseError as exc:
        return str(exc), exc.line, exc.col


HEAD = "poset P { elements: a b c ; order: a <= b }\n"
FN = HEAD + "poset Q { elements: x y ; order: x <= y }\nfn f : P -> Q "


# spelled out: no separator, a trailing one, a group cut short, reserved
# tokens and operators as names, ``~`` in ``order:``, a key mapped twice
# and a missing ``}``
@settings(max_examples=300)
@given(entry_body_sources())
@example(HEAD + "rel R on P kind=raw { a <= b b ~ c }")
@example(HEAD + "rel R on P kind=equiv { a ~ c ; }")
@example(HEAD + "rel R on P kind=raw { a <= b ; c }")
@example(HEAD + "rel R on P kind=raw { a <= ; ; c }")
@example("poset P { elements: a b ; order: a ~ b }")
@example("poset P { elements: a b ; order: a <= -> }")
@example("poset P { elements: a b ; order: <= <= a }")
@example(FN + "{ a -> x ; b -> x ; a -> y ; c -> y }")
@example(FN + "{ a -> x ; b -> y ; c -> y ;")
def test_entry_bodies_read_as_the_walker_reads_them(source):
    with mock.patch.object(cli, "_entries", entries_walker):
        expected = _parsed(source)
    assert _parsed(source) == expected


# --- export and parse round trip ----------------------------------------

NAME = st.text("ab⊥+.'<>-~", min_size=1, max_size=3).filter(
    lambda s: s not in ("->", "~") and "<=" not in s)


@st.composite
def _named_poset(draw):
    names = tuple(draw(st.lists(NAME, min_size=1, max_size=5, unique=True)))
    n = len(names)
    covers = [(names[i], names[j]) for j in range(n) for i in range(j)
              if draw(st.booleans())]
    return build_poset(names, covers)


@st.composite
def workspaces(draw):
    """Posets with random element names, tables between them (a random
    table, or a constant one where that is not monotone) and relations,
    declared in dependency order: arbitrary rows, or their preorder or
    equivalence closure, so that export writes every kind."""
    ws = Workspace()
    posets = draw(st.lists(_named_poset(), min_size=1, max_size=3))
    for k, p in enumerate(posets):
        ws.add_poset(f"P{k}", p)
    for k in range(draw(st.integers(0, 3))):
        dom, cod = draw(st.sampled_from(posets)), draw(st.sampled_from(posets))
        images = draw(st.lists(st.integers(0, len(cod) - 1),
                               min_size=len(dom), max_size=len(dom)))
        f = FnTable(dom, cod, tuple(images))
        if not f.is_monotone:
            f = FnTable(dom, cod, (images[0],) * len(dom))
        ws.add_function(f"f{k}", f)
    for k in range(draw(st.integers(0, 3))):
        carrier = draw(st.sampled_from(posets))
        n = len(carrier)
        rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n,
                             max_size=n))
        r = Rel(carrier, tuple(rows))
        closure = draw(st.sampled_from([None, "refl_trans", "equivalence"]))
        ws.add_relation(f"R{k}", r if closure is None else close(r, closure))
    return ws


def _same_poset(p: Poset, q: Poset) -> None:
    assert (p.elements, p.rows) == (q.elements, q.rows)


def assert_round_trips(ws: Workspace) -> None:
    """Every name reads back with the same elements and rows, images
    and relation rows; fields are compared because a subclass such as
    ``PlotkinPoset`` reads back as a plain ``Poset``."""
    back = parse_workspace(export_workspace(ws))
    assert list(back.posets) == list(ws.posets)
    assert list(back.functions) == list(ws.functions)
    assert list(back.relations) == list(ws.relations)
    for name, p in ws.posets.items():
        _same_poset(back.posets[name], p)
    for name, f in ws.functions.items():
        g = back.functions[name]
        _same_poset(g.dom, f.dom)
        _same_poset(g.cod, f.cod)
        assert g.images == f.images
    for name, r in ws.relations.items():
        _same_poset(back.relations[name].carrier, r.carrier)
        assert back.relations[name].rows == r.rows


@given(workspaces())
def test_random_workspaces_round_trip(ws):
    assert_round_trips(ws)


@pytest.mark.parametrize("name", list_examples())
def test_catalog_bundles_round_trip(name):
    assert_round_trips(get_example(name))


def _kind_and_ops(line: str) -> tuple[str, list[str]]:
    """The kind of a ``rel`` line and the operator of each entry."""
    head, _, body = line.partition(" {")
    entries = body[:-1].split(" ; ") if body.strip(" }") else []
    return head.split("kind=")[1], [e.split()[1] for e in entries]


@given(workspaces())
def test_relations_export_by_generators(ws):
    # an equivalence: one "~" per member that is not its class's least
    # member; another preorder: those and one "<=" per block cover;
    # anything else: every pair
    for name, r in ws.relations.items():
        kind, ops = _kind_and_ops(export_rel(name, r, ws))
        if r.is_preorder:
            op = to_ordered_partition(r)
            tied = sum(len(block) - 1 for block in op.blocks)
            covers = len(row_covers(op.block_rows))
            assert kind == ("equiv" if r.is_equivalence else "preorder")
            assert ops == ["~"] * tied + ["<="] * covers
        else:
            assert kind == "raw"
            assert ops == ["<="] * len(idx_pairs(r))


@pytest.mark.parametrize("name,line", [
    ("three-chain", "rel S on C3 kind=equiv { 2 ~ 0 }"),
    ("diamond-counterexample",
     "rel Q_dia on A kind=preorder { ⊥ <= 0 ; ⊥ <= 1 ; 0 <= 2 ; 1 <= 2 }"),
])
def test_bundle_relations_export_by_generators(capsys, name, line):
    assert run(["catalog", "--name", name, "--export"]) == 0
    out = capsys.readouterr().out
    assert [row for row in out.splitlines() if row.startswith("rel ")] \
        == [line]


@given(_named_poset(), st.data())
def test_equiv_bodies_read_as_their_equivalence_closure(carrier, data):
    # "<=" and "~" entries alike read both ways; in half of the bodies
    # "zz" and "qq", which are no element, may stand too, and the first
    # of them read left to right is reported
    unknowns = ["zz", "qq"] if data.draw(st.booleans()) else []
    element = st.sampled_from(list(carrier.elements) + unknowns)
    entries = data.draw(st.lists(
        st.tuples(element, st.sampled_from(["<=", "~"]), element),
        max_size=6))
    body = " ; ".join(f"{a} {op} {b}" for a, op, b in entries)
    source = (export_poset("P", carrier)
              + f"\nrel R on P kind=equiv {{ {body} }}")
    names = [x for a, _, b in entries for x in (a, b)]
    unknown = [x for x in names if x in ("zz", "qq")]
    if unknown:
        with pytest.raises(ParseError) as exc:
            parse_workspace(source)
        assert str(exc.value) == f"2:1: unknown element {unknown[0]!r}"
        return
    pairs = [(a, b) for a, _, b in entries]
    assert parse_workspace(source).relations["R"].rows == \
        close(rel_from_pairs(carrier, pairs), "equivalence").rows


# --- README examples ----------------------------------------------------


def _readme_block(heading: str) -> str:
    """The first fenced block after ``heading``."""
    text = README.read_text(encoding="utf-8")
    after = text[text.index(heading):]
    return re.search(r"```[a-z]*\n(.*?)```", after, re.S).group(1)


def test_readme_workspace_format_parses():
    ws = parse_workspace(_readme_block("### Workspace text format"))
    assert list(ws.posets) == ["V"]
    assert list(ws.functions) == ["f2"]
    assert list(ws.relations) == ["K"]


def _readme_cli_examples() -> list[tuple[str, str, int]]:
    """(command, first line of output, exit code) for each command in
    the README's CLI block that is followed by its commented result."""
    lines = _readme_block("## CLI").splitlines()
    examples = []
    for command, comment in zip(lines, lines[1:]):
        m = re.fullmatch(r"# (.*?)\s+\(exit code (\d)\)", comment)
        if command.startswith("infolat ") and m:
            examples.append((command, m.group(1), int(m.group(2))))
    return examples


def test_readme_has_four_cli_results():
    assert len(_readme_cli_examples()) == 4


@pytest.mark.parametrize("command,first_line,code", _readme_cli_examples())
def test_readme_cli_example(capsys, command, first_line, code):
    assert run(shlex.split(command)[1:]) == code
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == first_line
    assert captured.err == ""
