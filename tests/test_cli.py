"""Command-line surface: workspace text format, commands, exit codes."""

import argparse
import contextlib
import io
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from infolat import cli, cp, get_example, kernel, list_examples, plotkin
from infolat.cli import (Workspace, _build_argparser, _tokenize, emit_dot,
                         export_poset, export_workspace, parse_workspace, run)
from infolat.errors import ParseError
from infolat.loci import DEFAULT_ENUMERATION_CAP
from infolat.powerdomain import DEFAULT_POWERDOMAIN_CAP

GOLDEN = Path(__file__).parent / "golden"

ALL_NAMES = list_examples()


class TestTokenizer:
    def test_reserved_characters_split(self):
        texts = [t.text for t in _tokenize("a<=b,c:d;{}")]
        assert texts == ["a", "<=", "b", ",", "c", ":", "d", ";", "{", "}"]

    def test_arrow_and_tilde_are_plain_tokens(self):
        # only whitespace, reserved characters and "<=" separate tokens,
        # so -> and ~ must stand alone to be recognised
        assert [t.text for t in _tokenize("x -> y ~ z")] == \
            ["x", "->", "y", "~", "z"]
        assert [t.text for t in _tokenize("x->y")] == ["x->y"]

    def test_positions_are_line_and_column(self):
        tokens = _tokenize("x\n  y z")
        assert [(t.line, t.col) for t in tokens] == [(1, 1), (2, 3), (2, 5)]

    def test_equals_inside_kind_clause(self):
        assert [t.text for t in _tokenize("kind=raw")] == ["kind", "=", "raw"]


class TestParse:
    def test_minimal_workspace(self):
        ws = parse_workspace(
            "poset A { elements: x y ; order: x <= y }\n"
            "fn f : A -> A { x -> x ; y -> y }\n"
            "rel R on A kind=equiv { x ~ y }")
        assert ws.posets["A"].elements == ("x", "y")
        assert ws.functions["f"]("y") == "y"
        assert ws.relations["R"].rows == (3, 3)

    def test_relation_kinds(self):
        ws = parse_workspace(
            "poset A { elements: x y ; order: x <= y }\n"
            "rel P on A kind=preorder { y <= x }\n"
            "rel S on A kind=raw { y <= x }")
        # preorder kind closes the listed pairs; it does not add the order
        assert ws.relations["P"].rows == (1, 3)
        assert ws.relations["S"].rows == (0, 1)   # exactly the given pair

    def test_empty_order_clause(self):
        ws = parse_workspace("poset A { elements: x y ; order: }")
        assert ws.posets["A"].covers() == []

    @pytest.mark.parametrize("source,message", [
        ("poset A { elements: x y ; order: x <= }",
         "1:39: expected element name, got '}'"),
        ("poset A { elements: x ; order: }\nposet A { elements: y ; order: }",
         "2:1: name 'A' is already defined"),
        ("poset A { elements: x ; order: }\nrel R on A kind=weird { }",
         "2:17: relation kind must be one of preorder, equiv, raw"),
        ("poset A { elements: x y ; order: x <= y }\nfn f : A -> B { x -> x }",
         "2:13: unknown poset 'B'"),
        ("poset A { elements: x y ; order: x <= y }\n"
         "rel R on A kind=equiv { x ~ z }",
         "2:1: unknown element 'z'"),
        ("junk", "1:1: expected 'poset', 'fn' or 'rel', got 'junk'"),
        ("poset A { elements: x y ; order: x y }",
         "1:36: expected '<=', got 'y'"),
        ("poset A { elements: x y ; order: x <= y",
         "1:39: expected element name (at end of input)"),
        ("poset A { elements: x ; order: }\nfn f : A -> A { x x }",
         "2:19: expected '->', got 'x'"),
        ("poset A { elements: x ; order: }\nfn f : A -> A { x -> x ; x -> x }",
         "2:31: element 'x' mapped twice"),
        ("poset A { elements: x ; order: }\nrel R on A kind=raw { x -> x }",
         "2:25: expected '<=' or '~', got '->'"),
        ("poset A { elements: x ; order: }\nrel R on A kind=raw { <= x }",
         "2:23: expected element name, got '<='"),
        # lines broken by "\r\n" and "\u2028" count as str.splitlines counts
        ("poset A { elements: x ; order: }\r\nfn f : A -> A {\u2028 x => x }",
         "3:4: expected '->', got '='"),
        ("poset A { elements: x ; order: }\r\n  rel R on B kind=raw { }",
         "2:12: unknown poset 'B'"),
        ("poset A { elements: x ; order: }\u2028fn f : A -> A {",
         "2:15: expected element name (at end of input)"),
        ("poset A {\r\n", "1:9: expected 'elements' (at end of input)"),
        # a validation error is reported at its declaration's keyword
        ("poset A { elements: x y ; order: }\r\n\u2028  fn f : A -> A { x -> x }",
         "3:3: table not total, missing 'y'"),
        ("poset A { elements: x ; order: }\n"
         "  poset B { elements: p q ; order: p <= q, q <= p }",
         "2:3: antisymmetry violated: 'p' and 'q' are below each other"),
        ("", None),
        (" \t\r\n\u2028\n ", None),
    ])
    def test_errors_carry_positions(self, source, message):
        if message is None:
            assert parse_workspace(source).posets == {}
            return
        with pytest.raises(ParseError) as exc:
            parse_workspace(source)
        assert str(exc.value) == message

    def test_monotonicity_checked_at_parse_time(self):
        with pytest.raises(ParseError, match=r"^2:1: not monotone"):
            parse_workspace("poset A { elements: x y ; order: x <= y }\n"
                            "fn f : A -> A { x -> y ; y -> x }")

    def test_duplicate_mapping_rejected(self):
        with pytest.raises(ParseError, match="mapped twice"):
            parse_workspace("poset A { elements: x ; order: }\n"
                            "fn f : A -> A { x -> x ; x -> x }")

    def test_parse_into_existing_workspace_collides(self):
        ws = parse_workspace("poset A { elements: x ; order: }")
        with pytest.raises(ParseError, match="already defined"):
            parse_workspace("poset A { elements: x ; order: }", into=ws)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_export_round_trips(self, name):
        ws = get_example(name)
        text = export_workspace(ws)
        assert export_workspace(parse_workspace(text)) == text


def test_emit_dot_full_adds_transitive_edges():
    v = get_example("V").posets["V"]
    plain = emit_dot(v)
    full = emit_dot(v, full=True)
    assert '"⊥" -> "a"' not in plain
    assert '"⊥" -> "a"' in full and '"⊥" -> "b"' in full


class TestRun:
    def out(self, capsys, argv, code):
        assert run(argv) == code
        captured = capsys.readouterr()
        if code == 2:
            assert captured.err.startswith("error:")
        return captured.out

    def test_check_holds(self, capsys):
        out = self.out(capsys, ["check", "--example", "V", "--fn", "f2",
                                "--pre", "order", "--post", "order",
                                "--mode", "loci"], 0)
        assert out == "HOLDS\n"

    def test_check_violation(self, capsys):
        out = self.out(capsys, ["check", "--example", "V", "--fn", "f2",
                                "--pre", "All", "--post", "Id",
                                "--mode", "loi"], 1)
        assert out == "VIOLATION: a=⊥ a'=c f(a)=⊥ f(a')=c\n"

    def test_check_ti_separates_kite_functions(self, capsys):
        base = ["check", "--example", "kite", "--pre", "All",
                "--post", "order", "--ti"]
        assert self.out(capsys, base + ["--fn", "f_kite"], 0) == "HOLDS\n"
        out = self.out(capsys, base + ["--fn", "g_kite"], 1)
        assert out == "VIOLATION: a=True a'=False f(a)=Body*⊥ f(a')=Tail\n"

    def test_check_ti_rejects_loi_mode(self, capsys):
        self.out(capsys, ["check", "--example", "kite", "--fn", "f_kite",
                          "--pre", "All", "--post", "Id", "--ti",
                          "--mode", "loi"], 2)

    def test_check_loci_mode_validates_inputs(self, capsys):
        # Id is not a complete preorder on a non-discrete carrier
        self.out(capsys, ["check", "--example", "V", "--fn", "f2",
                          "--pre", "Id", "--post", "Id", "--mode", "loci"], 2)

    def test_kernel_and_ordered_kernel(self, capsys):
        assert self.out(capsys, ["kernel", "--example", "V",
                                 "--fn", "f2"], 0) == "{⊥} {c b} {a}\n"
        assert self.out(capsys, ["kernel", "--example", "V", "--fn", "f2",
                                 "--ordered"], 0) == "{⊥} <= {c b} <= {a}\n"

    def test_knowledge_sets(self, capsys):
        base = ["knowledge", "--example", "parity", "--fn", "f0"]
        assert self.out(capsys, base + ["--input", "0"], 0) == "{0 2 4 6 8}\n"
        assert self.out(capsys, base + ["--input", "1", "--ordered"], 0) == \
            "{0 1 2 3 4 5 6 7 8 9}\n"

    def test_cp_er_on_file_relation(self, capsys, tmp_path):
        path = tmp_path / "k.ws"
        path.write_text("rel K on V kind=equiv { c ~ b }", encoding="utf-8")
        base = ["--example", "V", "--file", str(path), "--rel", "K"]
        assert self.out(capsys, ["cp"] + base, 0) == "{⊥} <= {c b} <= {a}\n"
        assert self.out(capsys, ["er"] + base, 0) == "{⊥} {c b} {a}\n"

    def test_realisable_with_witness(self, capsys, tmp_path):
        path = tmp_path / "k.ws"
        path.write_text("rel K on V kind=equiv { c ~ b }", encoding="utf-8")
        out = self.out(capsys, ["realisable", "--example", "V", "--file",
                                str(path), "--rel", "K", "--witness"], 0)
        assert out.splitlines() == [
            "REALISABLE",
            "poset K_blocks { elements: ⊥ c+b a ; "
            "order: ⊥ <= c+b, c+b <= a }",
            "fn K_quotient : V -> K_blocks "
            "{ ⊥ -> ⊥ ; c -> c+b ; a -> a ; b -> c+b }",
        ]

    def test_realisable_witness_with_colliding_block_names(self, capsys,
                                                           tmp_path):
        # the blocks {a b} and {a+b} both join to "a+b"
        path = tmp_path / "k.ws"
        path.write_text("poset P { elements: a b a+b ; order: }\n"
                        "rel R on P kind=equiv { a ~ b }", encoding="utf-8")
        out = self.out(capsys, ["realisable", "--file", str(path),
                                "--rel", "R", "--witness"], 0)
        assert out.splitlines() == [
            "REALISABLE",
            "poset R_blocks { elements: a+b a+b#2 ; order: }",
            "fn R_quotient : P -> R_blocks "
            "{ a -> a+b ; b -> a+b ; a+b -> a+b#2 }",
        ]
        ws = parse_workspace(path.read_text(encoding="utf-8") + "\n"
                             + "\n".join(out.splitlines()[1:]))
        assert kernel(ws.functions["R_quotient"]) == ws.relations["R"]

    def test_powerdomain_with_colliding_subset_names(self, capsys, tmp_path):
        # the subsets {a b} and {a+b} both join to "a+b"
        path = tmp_path / "p.ws"
        path.write_text("poset P { elements: a b a+b ; order: }",
                        encoding="utf-8")
        out = self.out(capsys, ["powerdomain", "--cap", "4", "--file",
                                str(path)], 0)
        assert out == ("poset P_P { elements: a+b b b+a+b a a+a+b a+b#2 "
                       "a+b+a+b ; order: }\n")
        pd = parse_workspace(out).posets["P_P"]
        want = plotkin(parse_workspace(path.read_text(encoding="utf-8"))
                       .posets["P"], cap=4)
        assert pd.elements == want.elements and pd.rows == want.rows

    def test_unrealisable_prints_cycle(self, capsys):
        out = self.out(capsys, ["realisable", "--example", "three-chain",
                                "--rel", "S"], 1)
        assert out == "UNREALISABLE: cycle: {0 2} -> {1} -> {0 2}\n"

    def test_enumerate_loi_count(self, capsys):
        out = self.out(capsys, ["enumerate", "--example", "V",
                                "--what", "loi"], 0)
        lines = out.splitlines()
        assert lines[0] == "15"
        assert len(lines) == 16
        assert lines[1] == "{⊥} {c} {a} {b}"      # identity comes first
        assert lines[-1] == "{⊥ c a b}"

    def test_enumerate_respects_cap(self, capsys):
        self.out(capsys, ["enumerate", "--example", "parity", "--n", "7",
                          "--poset", "Z", "--what", "loci"], 2)

    def test_enumerate_needs_unique_poset(self, capsys):
        self.out(capsys, ["enumerate", "--example", "parity",
                          "--what", "loci"], 2)

    def test_hasse_of_equivalence_blocks(self, capsys):
        out = self.out(capsys, ["hasse", "--example", "three-chain",
                                "--rel", "S"], 0)
        assert out == 'digraph {\n  "{0 2}";\n  "{1}";\n}\n'

    def test_hasse_requires_one_target(self, capsys):
        self.out(capsys, ["hasse", "--example", "V"], 2)
        self.out(capsys, ["hasse", "--example", "three-chain",
                          "--poset", "C3", "--rel", "S"], 2)

    def test_powerdomain_respects_cap(self, capsys):
        self.out(capsys, ["powerdomain", "--example", "kite",
                          "--poset", "Kite"], 2)

    def test_catalog_list(self, capsys):
        out = self.out(capsys, ["catalog", "--list"], 0)
        assert out.splitlines() == ALL_NAMES

    def test_catalog_summary(self, capsys):
        out = self.out(capsys, ["catalog", "--name", "V"], 0)
        lines = out.splitlines()
        assert lines[0] == "example V"
        assert lines[1] == "poset V: 4 elements"
        assert lines[2] == "fn f1 : V -> V"
        assert lines[-1].startswith("notes: ")

    def test_catalog_needs_list_or_name(self, capsys):
        self.out(capsys, ["catalog"], 2)

    @pytest.mark.parametrize("argv, message", [
        (["catalog", "--list", "--file", "/no/such/file.ws"],
         "error: cannot read /no/such/file.ws: "),
        (["catalog", "--name", "V", "--example", "nope"],
         "error: unknown example 'nope'; available: "),
    ])
    def test_catalog_reads_file_and_example(self, capsys, argv, message):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)

    @pytest.mark.parametrize("argv", [
        ["check", "--example", "nope", "--fn", "f", "--pre", "All",
         "--post", "All"],
        ["kernel", "--example", "V", "--fn", "missing"],
        ["kernel", "--file", "/no/such/file.ws", "--fn", "f"],
        ["kernel", "--file", "nul\0in-path.ws", "--fn", "f"],
        ["cp", "--example", "V", "--rel", "missing"],
        ["catalog", "--name", "nope"],
        ["no-such-command"],
        [],
    ])
    def test_bad_input_exits_two(self, capsys, argv):
        assert run(argv) == 2
        capsys.readouterr()

    def test_undecodable_file_exits_two(self, tmp_path):
        path = tmp_path / "latin1.ws"
        path.write_bytes("poset A { elements: café ; order: }".encode("latin-1"))
        proc = subprocess.run([sys.executable, "-m", "infolat", "kernel",
                               "--file", str(path), "--fn", "f"],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: cannot read")
        assert "Traceback" not in proc.stderr


class TestGolden:
    CASES = [
        (["enumerate", "--example", "V", "--what", "loci"],
         "enumerate_loci_V.txt"),
        (["powerdomain", "--example", "nd-bool", "--poset", "Bool_bot"],
         "powerdomain_boolbot.txt"),
        (["hasse", "--example", "kite", "--poset", "Kite"],
         "hasse_kite.dot"),
        (["catalog", "--name", "omega", "--export", "--n", "3"],
         "catalog_omega3.txt"),
        (["enumerate", "--example", "V", "--what", "loi"],
         "enumerate_loi_V.txt"),
    ]

    @pytest.mark.parametrize("argv,golden", CASES)
    def test_matches_golden_bytes(self, argv, golden):
        proc = subprocess.run([sys.executable, "-m", "infolat"] + argv,
                              capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / golden).read_bytes()

    def test_output_is_deterministic_across_runs(self):
        argv = [sys.executable, "-m", "infolat",
                "catalog", "--name", "nd-bool", "--export"]
        first = subprocess.run(argv, capture_output=True)
        second = subprocess.run(argv, capture_output=True)
        assert first.returncode == second.returncode == 0
        assert first.stdout and first.stdout == second.stdout

    def test_help_runs(self):
        proc = subprocess.run([sys.executable, "-m", "infolat", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "usage: infolat" in proc.stdout


def test_export_poset_quotes_nothing_extra():
    v = get_example("V").posets["V"]
    assert export_poset("V", v) == \
        "poset V { elements: ⊥ c a b ; order: ⊥ <= c, c <= a, c <= b }"


def test_workspace_merge_rejects_collisions():
    first = get_example("V")
    second = get_example("V")
    with pytest.raises(Exception, match="already defined"):
        first.merge(second)


def test_workspace_starts_empty():
    ws = Workspace()
    assert not ws.posets and not ws.functions and not ws.relations


# per subcommand: the options it requires, its other options that take
# a name, and its switches
SUBCOMMANDS = {
    "check": (["--fn", "--pre", "--post"], ["--mode"], ["--ti"]),
    "kernel": (["--fn"], [], ["--ordered"]),
    "knowledge": (["--fn", "--input"], [], ["--ordered"]),
    "cp": (["--rel"], [], []),
    "er": (["--rel"], [], []),
    "realisable": (["--rel"], [], ["--witness"]),
    "enumerate": (["--what"], ["--poset", "--cap"], []),
    "hasse": ([], ["--poset", "--rel"], ["--full"]),
    "powerdomain": ([], ["--poset", "--cap"], []),
    "catalog": ([], ["--name"], ["--list", "--export"]),
}


def _values(example: str) -> dict[str, list[str]]:
    """The names each option can take in one catalog bundle."""
    ws = get_example(example, n=3)
    rels = sorted(ws.relations)
    builtins = ["All", "Id", "order"]
    return {"--fn": sorted(ws.functions), "--pre": rels + builtins,
            "--post": rels + builtins, "--rel": rels,
            "--input": sorted({x for p in ws.posets.values()
                               for x in p.elements}),
            "--poset": sorted(ws.posets), "--what": ["loci", "loi"],
            "--mode": ["loci", "loi"], "--name": ALL_NAMES,
            "--cap": [str(cap) for cap in range(7)],
            "--example": ALL_NAMES, "--file": ALL_NAMES}


def test_subcommands_list_every_option_of_the_parser():
    """The fuzz below draws only what SUBCOMMANDS names, plus the common
    options, so it must name every subcommand and option there is."""
    [sub] = [action for action in _build_argparser()._actions
             if isinstance(action, argparse._SubParsersAction)]
    common = {"--help", "--file", "--example", "--n"}
    found = {}
    for command, parser in sub.choices.items():
        flags = [(action.option_strings[-1], action)
                 for action in parser._actions]
        assert common <= {flag for flag, _ in flags}, command
        own = [(flag, action) for flag, action in flags if flag not in common]
        found[command] = (
            [flag for flag, action in own if action.required],
            [flag for flag, action in own
             if not action.required and action.nargs != 0],
            [flag for flag, action in own if action.nargs == 0])
    assert found == SUBCOMMANDS


@pytest.mark.parametrize("argv, default", [
    (["enumerate", "--what", "loi"], DEFAULT_ENUMERATION_CAP),
    (["powerdomain"], DEFAULT_POWERDOMAIN_CAP),
], ids=["enumerate", "powerdomain"])
def test_cap_defaults_are_the_library_defaults(argv, default):
    assert _build_argparser().parse_args(argv).cap == default


BUNDLE_VALUES = {example: _values(example) for example in ALL_NAMES}
NAMES = sorted({name for values in BUNDLE_VALUES.values()
                for names in values.values() for name in names})
WORDS = sorted(set(SUBCOMMANDS) | set(NAMES) | {"--help"}
               | {flag for spec in SUBCOMMANDS.values() for part in spec
                  for flag in part})


@st.composite
def argvs(draw):
    """A subcommand and a catalog bundle, a value after each option the
    subcommand requires, then up to four pieces: its own options and
    switches and the common options, and in one argv of four a stray
    word.  A value is mostly a name of the right kind from the bundle,
    sometimes any name.  --n (at most 5) and --cap (at most 6) only ever
    come with their value, so no draw can start a large search."""
    command = draw(st.sampled_from([None] + list(SUBCOMMANDS)))
    required, options, switches = SUBCOMMANDS.get(command, ([], [], []))
    example = draw(st.sampled_from(ALL_NAMES))
    values = BUNDLE_VALUES[example]

    def value(option):
        # one value in eight is any name
        names = values[option] or NAMES
        return st.integers(0, 7).flatmap(
            lambda k: st.sampled_from(NAMES if k == 0 else names))

    argv = [] if command is None else [command, "--example", example]
    for option in required:
        argv += [option, draw(value(option))]
    option = st.sampled_from(required + options + ["--example", "--file"])
    pieces = [
        option.flatmap(lambda o: value(o).map(lambda v: [o, v])),
        st.sampled_from(switches or ["--help"]).map(lambda w: [w]),
        st.integers(0, 5).map(lambda n: ["--n", str(n)])]
    if draw(st.integers(0, 3)) == 0:
        pieces.append(st.sampled_from(WORDS).map(lambda w: [w]))
    for words in draw(st.lists(st.one_of(pieces), max_size=4)):
        argv += words
    return argv


def _outcome(argv: list[str]) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return out.getvalue(), err.getvalue(), code


@given(argvs())
def test_exit_code_contract_holds_for_any_argv(argv):
    _, err, code = _outcome(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert err, argv
    else:
        assert err == "", argv


# --- one parser per process ---------------------------------------------


def test_parser_is_built_once():
    assert _build_argparser() is _build_argparser()


def test_parser_keeps_no_values_between_runs(tmp_path, capsys):
    path = tmp_path / "v.ws"
    path.write_text(export_workspace(get_example("V")), encoding="utf-8")
    run(["kernel", "--file", str(path), "--n", "3", "--fn", "f1"])
    run(["kernel", "--example", "kite", "--example", "V", "--fn", "g_kite"])
    capsys.readouterr()
    args = _build_argparser().parse_args(["kernel", "--fn", "f"])
    assert (args.file, args.example, args.n) == ([], [], 10)


def test_rel_maps_are_looked_up_per_run(capsys, monkeypatch):
    # the shared parser must not keep the library maps it was built with,
    # or a rebinding such as a tracer's wrapper would go unseen
    argv = ["cp", "--example", "three-chain", "--rel", "S"]
    run(argv)
    seen = []
    monkeypatch.setattr(cli, "cp", lambda r: seen.append(r) or cp(r))
    run(argv)
    capsys.readouterr()
    assert len(seen) == 1


@settings(derandomize=True, max_examples=15)
@given(st.lists(argvs(), min_size=20, max_size=20))
def test_reused_parser_answers_as_a_fresh_one(batch):
    """300 draws: each batch back to back on one parser, then each argv
    again on a parser built for it alone."""
    reused = [_outcome(argv) for argv in batch]
    fresh = []
    for argv in batch:
        _build_argparser.cache_clear()
        fresh.append(_outcome(argv))
    assert reused == fresh
