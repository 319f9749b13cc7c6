"""Static checks made with the standard library's ``ast``, and
``inspect`` where an imported name's home module matters; a compiled
pattern is read off its imported module."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import infolat

MODULES = sorted(path for path in Path(infolat.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_imported_name_is_used(path):
    """A name a module imports must be read somewhere in it, unless its
    line is marked ``# noqa: F401`` (a deliberate re-export)."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and \
                    "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{name} (line {alias.lineno})")
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_classes_and_functions_come_from_their_defining_module(path):
    """``from .m import name`` must name a class or function defined in
    ``m`` itself, not one that ``m`` imports in turn; other values (the
    constants) are not checked."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    relayed = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        module = f"infolat.{node.module}"
        for alias in node.names:
            obj = getattr(importlib.import_module(module), alias.name)
            if (inspect.isclass(obj) or inspect.isfunction(obj)) \
                    and obj.__module__ != module:
                relayed.append(f"{alias.name} (line {alias.lineno}) is "
                               f"defined in {obj.__module__}")
    assert relayed == []


def scoped_nodes(tree):
    """Every node of a module with the dotted name of the innermost
    function or class around it, ``""`` at module level."""
    stack = [(tree, "")]
    while stack:
        node, scope = stack.pop()
        yield scope, node
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))


def called_names(node):
    func = node.func
    return {getattr(func, "id", None), getattr(func, "attr", None)}


def test_only_the_converses_transpose():
    """``transpose`` costs m · n whatever the rows, so it is called only
    for the converse of a relation that is not a preorder and for the
    Egli-Milner masks.  Every call states the width, and the m masks go
    in as they are, with no padding to a square and no slice of its
    columns.  Both cached converses of an order go through
    ``preorder_cols``, and neither the Hasse covers (``poset.row_covers``,
    which ``Poset.covers`` calls) nor the Egli-Milner rows take a
    converse of the relation."""
    callers = {"transpose": set(), "preorder_cols": set(),
               "row_covers": set()}
    covers_nodes, em_nodes, transposes = [], [], []
    for path in MODULES:
        for scope, node in scoped_nodes(ast.parse(path.read_text(
                encoding="utf-8"))):
            if isinstance(node, ast.Call):
                for name in called_names(node) & set(callers):
                    callers[name].add(f"{path.stem}.{scope}")
                if "transpose" in called_names(node):
                    transposes.append((f"{path.stem}.{scope}", node))
            if path.stem == "poset" and scope == "row_covers":
                covers_nodes.append(node)
            if path.stem == "powerdomain" and scope == "_em_rows":
                em_nodes.append(node)
    assert callers["transpose"] <= {"relation.Rel.cols",
                                    "powerdomain._em_rows"}
    assert {"poset.Poset.cols", "relation.Rel.cols"} <= \
        callers["preorder_cols"]
    assert "poset.Poset.covers" in callers["row_covers"] and covers_nodes
    assert "poset.row_covers" not in \
        callers["transpose"] | callers["preorder_cols"]
    for nodes in (covers_nodes, em_nodes):
        assert nodes and not any(isinstance(node, ast.Attribute)
                                 and node.attr == "cols" for node in nodes)
    assert transposes and all(len(call.args) == 2 and not call.keywords
                              for _, call in transposes)
    em_args = [call.args[0] for scope, call in transposes
               if scope == "powerdomain._em_rows"]
    assert [getattr(arg, "id", None) for arg in em_args] == ["masks"]
    assert not any(isinstance(node, ast.Slice) for node in em_nodes)


def test_only_the_row_kernels_pull_back_and_take_images():
    """Pullbacks go through ``poset.pull_rows`` and direct images
    through ``poset.image_rows``, so outside ``poset.py`` only the
    kernel builds fibres (the enumeration of equivalences keeps its
    blocks as it walks, and a kernel or a preorder's mutual classes are
    ``poset.kernel_rows``), and only ``compose`` and the powerdomain's
    set images call the composition kernel itself: the compatible
    extension reads its preorder's quotient instead."""
    callers = {"fibres": set(), "kernel_rows": set(), "compose_rows": set()}
    for path in MODULES:
        if path.stem == "poset":
            continue
        for scope, node in scoped_nodes(ast.parse(path.read_text(
                encoding="utf-8"))):
            if isinstance(node, ast.Call):
                for name in called_names(node) & set(callers):
                    callers[name].add(f"{path.stem}.{scope}")
    assert callers == {"fibres": set(),
                       "kernel_rows": {"loi.kernel", "loci.er"},
                       "compose_rows": {"relation.compose",
                                        "powerdomain._convex_masks",
                                        "powerdomain._em_rows",
                                        "powerdomain.kleisli_extend"}}


def test_one_kernel_quotients_a_preorder():
    """A preorder's classes and block rows come from
    ``poset.preorder_quotient`` alone, so outside ``poset.py`` only the
    cached ``Rel._quotient`` (see :func:`test_one_reader_of_a_preorder`),
    the formatting and the export call it; the last two keep no
    quotient on a relation they only print.  The only other classes of
    equal rows there are those of the realisability test's closed block
    steps, from ``row_runs``; an equivalence is a preorder, and its
    classes are those of its quotient."""
    callers = {"preorder_quotient": set(), "row_runs": set()}
    for path in MODULES:
        if path.stem == "poset":
            continue
        for scope, node in scoped_nodes(ast.parse(path.read_text(
                encoding="utf-8"))):
            if isinstance(node, ast.Call):
                for name in called_names(node) & set(callers):
                    callers[name].add(f"{path.stem}.{scope}")
    assert callers == {"preorder_quotient": {"relation.Rel._quotient",
                                             "relation.format_relation",
                                             "cli.export_rel"},
                       "row_runs": {"loci.phi_realisability"}}


def test_one_reader_of_a_preorder():
    """A preorder is read once, by the cached ``Rel._quotient``: the
    preorder check is whether it found a quotient, and the ordered
    partition, the quotient map, the underlying equivalence (``er``),
    the compatible extension and the equivalence check and φ test (see
    :func:`test_one_reader_of_an_equivalence`) read its labels, classes
    and block rows, with no converse (``cols``) or ``rows_transitive``
    taken."""
    readers, calls = set(), set()
    for path in MODULES:
        for scope, node in scoped_nodes(ast.parse(path.read_text(
                encoding="utf-8"))):
            where = f"{path.stem}.{scope}"
            if isinstance(node, ast.Attribute) and node.attr == "_quotient":
                readers.add(where)
            if where in {"loci.er", "tini.compatible_extension",
                         "relation.Rel.is_preorder",
                         "relation.Rel.is_equivalence"}:
                if isinstance(node, ast.Call):
                    calls |= called_names(node)
                if isinstance(node, ast.Attribute):
                    calls.add(node.attr)
    assert readers == {"relation.Rel.is_preorder",
                       "relation.Rel.is_equivalence",
                       "relation.to_ordered_partition", "loci.er",
                       "loci.quotient_map", "loci.phi_realisability",
                       "tini.compatible_extension"}
    assert not calls & {"cols", "invert", "intersect", "compose_rows",
                        "rows_transitive", "is_transitive"}


def test_one_reader_of_an_equivalence():
    """An equivalence is the preorder whose quotient is discrete: the
    equivalence check reads the cached ``Rel._quotient`` through the one
    predicate ``relation._discrete``, which only the formatting shares,
    and the φ test takes its labels and classes from the same quotient,
    with no classes of their own kept.  ``is_realisable`` is the φ
    test's verdict, with no completion (``cp``) or underlying
    equivalence (``er``) built."""
    discrete, quotient, own, realisable_calls = set(), set(), set(), set()
    for path in MODULES:
        for scope, node in scoped_nodes(ast.parse(path.read_text(
                encoding="utf-8"))):
            where = f"{path.stem}.{scope}"
            if isinstance(node, ast.Call):
                if "_discrete" in called_names(node):
                    discrete.add(where)
                if "_equivalence_classes" in called_names(node):
                    own.add(where)
                if where == "loci.is_realisable":
                    realisable_calls |= called_names(node)
            if isinstance(node, ast.Attribute):
                if node.attr == "_quotient":
                    quotient.add(where)
                if node.attr == "_classes":
                    own.add(where)
    assert discrete == {"relation.Rel.is_equivalence",
                        "relation.format_relation"}
    assert {"relation.Rel.is_equivalence",
            "loci.phi_realisability"} <= quotient
    assert not own
    assert "phi_realisability" in realisable_calls
    assert not realisable_calls & {"cp", "er"}


def test_one_walk_enumerates_the_equivalences():
    """The equivalences come from ``loci._growth_walk`` alone: outside
    the tests only ``iter_equivalences``, ``enumerate_loi`` (which sorts
    the walk) and the observer search (which cuts it) call it.
    ``loci._closed_supersets`` is the complete-preorder search and has
    no equivalence mode: only ``enumerate_loci`` calls it, with its
    start rows and its cap."""
    callers = {"_growth_walk": set(), "_closed_supersets": set()}
    arguments = set()
    for path in MODULES:
        for scope, node in scoped_nodes(ast.parse(path.read_text(
                encoding="utf-8"))):
            if isinstance(node, ast.Call):
                for name in called_names(node) & set(callers):
                    callers[name].add(f"{path.stem}.{scope}")
                if "_closed_supersets" in called_names(node):
                    arguments.add(len(node.args) + len(node.keywords))
    assert callers == {"_growth_walk": {"loci.iter_equivalences",
                                        "loci.enumerate_loi",
                                        "tini.observer_impossibility_search"},
                       "_closed_supersets": {"loci.enumerate_loci"}}
    assert arguments == {2}


def test_one_kernel_judges_flows():
    """The pairs that break a flow ``pre ⇒ post`` are formed by
    ``poset.broken_rows`` alone: outside ``poset.py`` only the flow check
    and the observer search call it, and ``FnTable.monotone_witness``,
    the judgement ``<= ⇒ <=``, reads its pair off the kernel with no
    pair-by-pair scan through ``bits`` or ``leq_idx``."""
    callers, witness_calls = set(), set()
    for path in MODULES:
        for scope, node in scoped_nodes(ast.parse(path.read_text(
                encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            if path.stem != "poset" and "broken_rows" in called_names(node):
                callers.add(f"{path.stem}.{scope}")
            if f"{path.stem}.{scope}" == "poset.FnTable.monotone_witness":
                witness_calls |= called_names(node)
    assert callers == {"loi.flow_check", "tini.observer_impossibility_search"}
    assert "broken_rows" in witness_calls
    assert not witness_calls & {"bits", "leq_idx"}


SOURCES = sorted([*Path(infolat.__file__).parent.glob("*.py"),
                  *Path(__file__).parent.glob("*.py")])


def test_sources_parse_as_python_310():
    """``pyproject.toml`` promises Python 3.10; every module of the
    package and of the tests must parse with its grammar, which has no
    ``except*`` (3.11), ``type`` statement or generic parameter list
    (3.12)."""
    for newer in ("try:\n    pass\nexcept* E:\n    pass\n",
                  "type X = int\n", "def f[T](x: T) -> T:\n    return x\n"):
        with pytest.raises(SyntaxError):
            ast.parse(newer, feature_version=(3, 10))
    failing = []
    for path in SOURCES:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                      feature_version=(3, 10))
        except SyntaxError as exc:
            failing.append(f"{path.parent.name}/{path.name}: {exc}")
    assert len(SOURCES) > len(MODULES) and failing == []


def needs_python_311(pattern: str) -> bool:
    """Whether a pattern has a possessive quantifier (``*+``, ``++``,
    ``?+``, ``}+``) or an atomic group (``(?>``), read with escapes and
    character classes taken out, where these are literal characters."""
    bare = re.sub(r"\\.", "e", pattern)
    bare = re.sub(r"\[\^?\]?[^\]]*\]", "c", bare)
    return re.search(r"[*+?}]\+|\(\?>", bare) is not None


def test_patterns_compile_on_python_310():
    """``pyproject.toml`` promises Python 3.10, which has neither form;
    newer versions compile them, so a test run there would not notice
    one.  Every ``re.compile`` in ``src`` is a module-level assignment,
    and the check reads its compiled text off the module."""
    assert [needs_python_311(p) for p in
            ("a*+", "a++", "a?+", "a{2}+", "(?>a)", r"\*+", "[*+]", "a+?")] \
        == [True] * 5 + [False] * 3
    stray, newer = [], []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and ast.unparse(node.func) == "re.compile"]
        if not calls:
            continue
        module = importlib.import_module(f"infolat.{path.stem}")
        for node in tree.body:
            if isinstance(node, ast.Assign) and node.value in calls:
                calls.remove(node.value)
                newer += [f"{path.stem}.{target.id}" for target in node.targets
                          if needs_python_311(getattr(module, target.id).pattern)]
        stray += [f"{path.stem} line {node.lineno}" for node in calls]
    assert stray == [] and newer == []
