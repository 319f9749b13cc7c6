"""The three benchmark workloads.

Each workload function takes the freshly imported library, a seeded
``random.Random`` and the checkout paths, and returns the plain data it
generated (for the input digest) and a list of operations.  An
operation is one call into a public function of ``infolat`` or one
``infolat.cli.run(argv)``; its check compares the result against
``oracle`` and runs outside the timed region.

Calls go through module attributes (``il.kernel(...)``, ``cli.run(...)``)
at call time, so the traced run sees the wrapped functions.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

import inputs as gen
import oracle as orc


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


def pairs(rel):
    """Index pairs of a Rel, or of a Poset's order."""
    return orc.pairs_of(rel.rows)


def rel_from_idx(il, carrier, idx_pairs):
    names = carrier.elements
    return il.rel_from_pairs(carrier, [(names[a], names[b]) for a, b in idx_pairs])


def poset_of(il, prefix, n, covers):
    """Poset on ``prefix0 .. prefix{n-1}`` from index cover pairs."""
    return il.build_poset(gen.names(prefix, n),
                          [(f"{prefix}{a}", f"{prefix}{b}") for a, b in covers])


def preorder_over(il, base, extra):
    """Reflexive-transitive closure of ``base`` plus index pairs ``extra``;
    a complete preorder when ``base`` contains the carrier order."""
    return il.close(il.union(base, rel_from_idx(il, base.carrier, extra)),
                    "refl_trans")


def equivalence_of(il, carrier, labels):
    """Equivalence whose blocks are the points sharing a label."""
    return il.close(rel_from_idx(il, carrier, gen.label_pairs(labels)),
                    "equivalence")


def expected_violation(f, pre, post):
    """Oracle verdict as (a, a', f(a), f(a')) names, or None."""
    found = orc.first_violation(f.images, pre, post, len(f.dom))
    if found is None:
        return None
    i, j = found
    cod = f.cod.elements
    return (f.dom.elements[i], f.dom.elements[j],
            cod[f.images[i]], cod[f.images[j]])


def verdict_is(want):
    def check(v):
        got = None if v is None else (v.a, v.a_prime, v.fa, v.fa_prime)
        return got == want()
    return check


def flow_expect(f, pre, post, ti):
    """Deferred oracle verdict of a (TI) flow check on library relations."""
    def want():
        p, q = pairs(pre), pairs(post)
        if ti:
            p = orc.compatible_extension(p, len(pre.rows))
            q = orc.compatible_extension(q, len(post.rows))
        return expected_violation(f, p, q)
    return want


def pairs_are(want):
    return lambda rel: pairs(rel) == want()


def cycle_ok(cycle, carrier, eq):
    """Is ``cycle`` (blocks as name tuples) a closed walk through at least
    two blocks of ``eq``, each with a member below some member of the next?"""
    n = len(carrier)
    blocks = [tuple(carrier.elements[i] for i in b) for b in orc.blocks(eq, n)]
    if len(set(cycle)) < 2 or any(b not in blocks for b in cycle):
        return False
    index, order = carrier.elements.index, pairs(carrier)
    return all(any((index(a), index(c)) in order for a in b1 for c in b2)
               for b1, b2 in zip(cycle, cycle[1:] + cycle[:1]))


def realisability_ok(r):
    """Check a RealisabilityResult for the equivalence r against the oracle."""
    def check(res):
        carrier = r.carrier
        eq, order = pairs(r), pairs(carrier)
        if res.realisable != orc.is_realisable(eq, order, len(carrier)):
            return False
        if res.realisable:
            images = res.witness_fn.images
            return (orc.kernel(images) == eq and orc.is_monotone(
                images, order, orc.pairs_of(res.witness_poset.rows)))
        return cycle_ok(list(res.cycle), carrier, eq)
    return check


# --- flow-large -----------------------------------------------------------

FLOW_SIZES = (100, 200, 300, 400)
FLOW_POSETS_PER_SIZE = 2
BUNDLE_N = 300


def flow_large(il, cli, rng, paths):
    data, ops = [], []
    for n in FLOW_SIZES:
        for copy in range(FLOW_POSETS_PER_SIZE):
            spec = {
                "n": n,
                "covers": gen.sparse_dag(rng, n, window=6, degree=2),
                "q": gen.extra_pairs(rng, n, n // 8, reach=3),
                "pre_eq": gen.block_labels(rng, n, n // 4),
                "pre_cp": gen.extra_pairs(rng, n, n // 10, reach=5),
                "post_eq": gen.block_labels(rng, n, max(2, n // 6)),
                "post_cp": gen.extra_pairs(rng, n, n // 10, reach=4),
            }
            data.append(spec)
            ops.extend(_flow_case(il, f"n{n}.{copy}", spec))
    ops.extend(_flow_bundles(il))
    return data, ops


def _flow_case(il, tag, spec):
    n = spec["n"]
    p = poset_of(il, "p", n, spec["covers"])
    order_p = il.order_rel(p)
    q = preorder_over(il, order_p, spec["q"])
    f = il.quotient_map(q)
    b = f.cod
    k = len(b)
    order_b = il.order_rel(b)
    pre_eq = equivalence_of(il, p, spec["pre_eq"])
    pre_cp = preorder_over(il, order_p, spec["pre_cp"])
    post_eq = equivalence_of(il, b, spec["post_eq"][:k])
    clipped = [(min(x, k - 1), min(y, k - 1)) for x, y in spec["post_cp"]]
    post_cp = preorder_over(il, order_b, clipped)
    id_b = il.identity_rel(b)
    pre_hold = il.intersect(pre_eq, il.pullback(f, post_eq))
    kern = il.kernel(f)
    images = f.images

    def op(name, call, check):
        return Op(f"{name}/{tag}", call, check)

    kernel_pairs = lambda: orc.kernel(images)
    return [
        op("kernel", lambda: il.kernel(f), pairs_are(kernel_pairs)),
        op("pullback_id", lambda: il.pullback(f, id_b), pairs_are(kernel_pairs)),
        op("ordered_kernel", lambda: il.ordered_kernel(f),
           # the ordered kernel of a quotient map is the preorder itself
           lambda r: pairs(r) == orc.pullback(images, pairs(order_b)) == pairs(q)),
        op("pullback_eq", lambda: il.pullback(f, post_eq),
           pairs_are(lambda: orc.pullback(images, pairs(post_eq)))),
        op("loci_pullback", lambda: il.loci_pullback(f, post_cp),
           pairs_are(lambda: orc.pullback(images, pairs(post_cp)))),
        op("flow_check_holds", lambda: il.flow_check(f, pre_hold, post_eq),
           verdict_is(flow_expect(f, pre_hold, post_eq, ti=False))),
        op("flow_check", lambda: il.flow_check(f, pre_eq, post_eq),
           verdict_is(flow_expect(f, pre_eq, post_eq, ti=False))),
        op("ti_flow_check_holds", lambda: il.ti_flow_check(f, q, order_b),
           verdict_is(flow_expect(f, q, order_b, ti=True))),
        op("ti_flow_check", lambda: il.ti_flow_check(f, pre_cp, post_cp),
           verdict_is(flow_expect(f, pre_cp, post_cp, ti=True))),
        op("compatible_extension", lambda: il.compatible_extension(pre_cp),
           pairs_are(lambda: orc.compatible_extension(pairs(pre_cp), n))),
        op("pushforward", lambda: il.pushforward(f, pre_eq),
           pairs_are(lambda: orc.pushforward(images, pairs(pre_eq), k))),
        op("loci_pushforward", lambda: il.loci_pushforward(f, pre_cp),
           pairs_are(lambda: orc.loci_pushforward(
               images, pairs(pre_cp), pairs(order_b), k))),
        op("cp", lambda: il.cp(pre_eq),
           pairs_are(lambda: orc.cp(pairs(pre_eq), pairs(order_p), n))),
        op("er", lambda: il.er(pre_cp), pairs_are(lambda: orc.er(pairs(pre_cp)))),
        op("phi_realisability", lambda: il.phi_realisability(pre_eq),
           realisability_ok(pre_eq)),
        op("phi_realisability_kernel", lambda: il.phi_realisability(kern),
           realisability_ok(kern)),
    ]


def _flow_bundles(il):
    n = BUNDLE_N
    omega = il.get_example("omega", n=n)
    parity = il.get_example("parity", n=n)
    iseven = il.get_example("iseven", n=n)
    s1 = omega.functions["S1"]
    f0, f1, f2 = (parity.functions[k] for k in ("f0", "f1", "f2"))
    e1, e2 = iseven.functions["isEven1"], iseven.functions["isEven2"]
    all_z, all_pz = il.all_rel(s1.dom), il.all_rel(f0.dom)
    order_omega, order_out = il.order_rel(s1.cod), il.order_rel(f0.cod)
    parity_pre, id_out = il.kernel(f2), il.identity_rel(f1.cod)
    id_bool, iseven_pre = il.identity_rel(e1.cod), il.kernel(e2)
    return [
        Op("ti_flow_check/omega", lambda: il.ti_flow_check(s1, all_z, order_omega),
           verdict_is(flow_expect(s1, all_z, order_omega, ti=True))),
        Op("ordered_kernel/omega", lambda: il.ordered_kernel(s1),
           pairs_are(lambda: orc.pullback(s1.images, pairs(order_omega)))),
        Op("ti_flow_check/parity", lambda: il.ti_flow_check(f0, all_pz, order_out),
           verdict_is(flow_expect(f0, all_pz, order_out, ti=True))),
        Op("flow_check/parity", lambda: il.flow_check(f1, parity_pre, id_out),
           verdict_is(flow_expect(f1, parity_pre, id_out, ti=False))),
        Op("kernel/iseven", lambda: il.kernel(e2),
           pairs_are(lambda: orc.kernel(e2.images))),
        Op("ordered_kernel/iseven", lambda: il.ordered_kernel(e1),
           pairs_are(lambda: orc.pullback(e1.images, pairs(e1.cod)))),
        Op("flow_check/iseven", lambda: il.flow_check(e1, iseven_pre, id_bool),
           verdict_is(flow_expect(e1, iseven_pre, id_bool, ti=False))),
        Op("find_postprocessor/iseven", lambda: il.find_postprocessor(e1, e2),
           lambda p: p is not None and tuple(
               p.images[g] for g in e2.images) == e1.images),
    ]


# --- search-small ---------------------------------------------------------

# Cover lists of fixed small shapes.  Each run draws seeded relabellings
# of them, so the inputs change with the seed while the size of every
# search (and so its cost) does not: random covers would make one seed's
# searches ten times longer than another's.
SHAPES5 = [
    [(0, 1)], [(0, 1), (2, 3)], [(0, 1), (1, 2)], [(0, 1), (0, 2)],
    [(0, 2), (1, 2)], [(0, 1), (1, 2), (2, 3)], [(0, 1), (0, 2), (1, 3), (2, 3)],
    [(0, 2), (1, 2), (1, 3)], [(0, 1), (0, 2), (0, 3)], [(0, 1), (1, 2), (3, 4)],
    [(0, 2), (0, 3), (1, 2), (1, 3)], [(0, 1), (1, 2), (2, 3), (3, 4)],
]
SHAPES4 = [[(0, 1)], [(0, 1), (1, 2)], [(0, 1), (0, 2)], [(0, 2), (1, 2), (2, 3)],
           [(0, 1), (0, 2), (1, 3), (2, 3)], [(0, 1), (2, 3)]]
KITE_COPIES = 4
# enumerate_loci(discrete 6) alone would take most of a round; repeating the
# other searches gives their latency percentiles enough samples per run.
# With 26 postprocessor searches (under 0.1 ms) below them, the 13
# enumerate_loi calls (0.6 ms, independent of the order) straddle the
# median, so op_p50_ms does not jump between unrelated operations.
SMALL_REPEATS = 8


def search_small(il, cli, rng, paths):
    relabel = lambda covers, n: gen.relabel(rng, covers, n)
    data = {
        "loci": [relabel(c, 5) for c in SHAPES5[:8]],
        "loi": [relabel(c, 5) for c in SHAPES5],
        "tables": [(relabel(d, 4), relabel(c, 5))
                   for d, c in zip(SHAPES4[:5], SHAPES5[3:8])],
        "post": [(relabel(c, 5), gen.extra_pairs(rng, 5, 2, reach=2),
                  gen.extra_pairs(rng, 5, 2, reach=4)) for c in SHAPES5],
        "kites": [rng.sample(range(6), 6) for _ in range(KITE_COPIES)],
        "plotkin": [relabel(c, 5) for c in SHAPES5[6:11]],
        "lifts": [(relabel(c, 4), gen.extra_pairs(rng, 4, 2, reach=3))
                  for c in SHAPES4],
    }

    d6 = il.discrete(gen.names("x", 6))
    heavy = _loci_op(il, "discrete6", d6, count=orc.PREORDER_COUNTS[6])
    # each repeat gets its own input objects, so no per-object cache
    # carries over from one call to the next
    return data, [heavy] + [op for _ in range(SMALL_REPEATS)
                            for op in _small_ops(il, data)]


def _small_ops(il, data):
    small = lambda prefix, n, covers: poset_of(il, prefix, n, covers)
    preorder = lambda p, extra: preorder_over(il, il.order_rel(p), extra)
    d4, d5, d6 = (il.discrete(gen.names("x", k)) for k in (4, 5, 6))
    ops = [
        _loci_op(il, "discrete5", d5),
        _loci_op(il, "lift_discrete4", il.lift(d4)),
        _loci_op(il, "chain6", il.chain(gen.names("c", 6)), count=2 ** 5),
        _loci_op(il, "V", il.get_example("V").posets["V"]),
    ]
    ops += [_loci_op(il, f"shape{i}", small("r", 5, covers))
            for i, covers in enumerate(data["loci"])]
    ops += [_loi_op(il, "discrete5", d5), _loi_op(il, "discrete6", d6)]
    ops += [_loi_op(il, f"shape{i}", small("r", 5, covers))
            for i, covers in enumerate(data["loi"])]
    c5 = il.chain(gen.names("c", 5))
    ops.append(_tables_op(il, "chain5", c5, c5))
    ops += [_tables_op(il, f"shape{i}", small("a", 4, dc), small("b", 5, cc))
            for i, (dc, cc) in enumerate(data["tables"])]
    iseven = il.get_example("iseven", n=6)
    e1, e2 = iseven.functions["isEven1"], iseven.functions["isEven2"]
    ops += [_postprocessor_op(il, "iseven1_from_2", e1, e2),
            _postprocessor_op(il, "iseven2_from_1", e2, e1)]
    for i, (covers, fine, coarse) in enumerate(data["post"]):
        p = small("d", 5, covers)
        q_fine = preorder(p, fine)
        q_coarse = preorder_over(il, q_fine, coarse)
        g, f = il.quotient_map(q_fine), il.quotient_map(q_coarse)
        ops += [_postprocessor_op(il, f"shape{i}", f, g),
                _postprocessor_op(il, f"shape{i}_reverse", g, f)]
    kite = il.get_example("kite")
    kite_poset = kite.posets["Kite"]
    tables = [kite.functions[k].mapping()
              for k in ("f_kite", "g_kite", "g_kite_flip")]
    copies = [kite_poset] + [_redeclared(il, kite_poset, order)
                             for order in data["kites"]]
    booln = kite.posets["Bool"]
    for i, poset in enumerate(copies):
        f_ok, *bads = (il.check_monotone(booln, poset, t) for t in tables)
        ops.append(_observer_op(il, f"kite{i}", f_ok, bads,
                                expect=(None, orc.BELL[6])))
    ops.append(_plotkin_op(il, "lift_discrete4", il.lift(d4)))
    ops += [_plotkin_op(il, f"shape{i}", small("s", 5, covers))
            for i, covers in enumerate(data["plotkin"])]
    ops += [_lift_op(il, f"shape{i}", preorder(small("l", 4, covers), extra))
            for i, (covers, extra) in enumerate(data["lifts"])]
    return ops


def _redeclared(il, poset, order):
    """The same poset with its elements declared in another order."""
    names = poset.elements
    return il.build_poset([names[i] for i in order],
                          [(names[i], names[j]) for i, j in poset.covers()])


def _sorted_distinct(rels, n):
    keys = [orc.bit_key(r.rows, n) for r in rels]
    return all(a < b for a, b in zip(keys, keys[1:]))


def _loci_op(il, tag, p, count=None):
    """enumerate_loci, checked against the oracle list, or for carriers too
    big for the oracle by count, sortedness, distinctness and closure."""
    n = len(p)
    order = p.rows

    def check(rels):
        if count is None:
            return [r.rows for r in rels] == orc.complete_preorders(order, n)
        return (len(rels) == count and _sorted_distinct(rels, n) and all(
            orc.is_preorder_rows(r.rows)
            and all(a & o == o for a, o in zip(r.rows, order)) for r in rels))
    return Op(f"enumerate_loci/{tag}", lambda: il.enumerate_loci(p), check)


def _loi_op(il, tag, p):
    n = len(p)

    def check(rels):
        return (len(rels) == orc.BELL[n] and _sorted_distinct(rels, n)
                and all(orc.is_equivalence(pairs(r), n) for r in rels))
    return Op(f"enumerate_loi/{tag}", lambda: il.enumerate_loi(p), check)


def _tables_op(il, tag, dom, cod):
    want = lambda: orc.monotone_tables(pairs(dom), len(dom),
                                       pairs(cod), len(cod))
    return Op(f"iter_monotone_tables/{tag}",
              lambda: list(il.iter_monotone_tables(dom, cod)),
              lambda tables: [t.images for t in tables] == want())


def _postprocessor_op(il, tag, f, g):
    def check(p):
        want = orc.first_postprocessor(
            f.images, g.images, pairs(g.cod), len(g.cod),
            pairs(f.cod), len(f.cod))
        return (None if p is None else p.images) == want
    return Op(f"find_monotone_postprocessor/{tag}",
              lambda: il.find_monotone_postprocessor(f, g), check)


def _observer_expect(f_ok, bads, pre, post):
    """First separating observer in restricted-growth order, and the count
    of candidates examined, by the pair-set flow oracle."""
    cod = f_ok.cod
    k = len(cod)
    pre_p, post_p = pairs(pre), pairs(post)

    def passes(f, t):
        strengthened = pre_p & orc.pullback(f.images, t)
        return orc.first_violation(f.images, strengthened, post_p, len(f.dom)) is None

    for checked, labels in enumerate(orc.restricted_growth(k), start=1):
        t = orc.kernel(labels)
        if passes(f_ok, t) and not any(passes(g, t) for g in bads):
            return t, checked
    return None, checked


def _observer_op(il, tag, f_ok, bads, expect=None):
    pre, post = il.all_rel(f_ok.dom), il.identity_rel(f_ok.cod)

    def check(res):
        want = _observer_expect(f_ok, bads, pre, post)
        if expect is not None and want != expect:
            return False
        got = None if res.separating is None else pairs(res.separating)
        return (got, res.checked) == want
    return Op(f"observer_impossibility_search/{tag}",
              lambda: il.observer_impossibility_search(f_ok, bads, pre, post),
              check)


def _plotkin_op(il, tag, base):
    def check(pd):
        masks = orc.convex_masks(pairs(base), len(base))
        return (list(pd.masks) == masks and orc.pairs_of(pd.rows)
                == orc.egli_milner(pairs(base), masks))
    return Op(f"plotkin/{tag}", lambda: il.plotkin(base), check)


def _lift_op(il, tag, q):
    def check(r):
        masks = orc.convex_masks(pairs(q.carrier), len(q.rows))
        return (list(r.carrier.masks) == masks
                and pairs(r) == orc.egli_milner(pairs(q), masks))
    return Op(f"pd_lift_relation/{tag}", lambda: il.pd_lift_relation(q), check)


# --- cli-session ----------------------------------------------------------

FILE_SIZES = (20, 50, 100, 200)
# Commands on bundles and small files cost 2.5-5 ms each, most of it
# per-call overhead (argument parsing, bundle rebuilds); running them
# twice per round puts the median inside that cluster, away from the
# 8-10 ms commands on the smallest seeded file.
QUICK_REPEATS = 2
GOLDEN = [
    (["hasse", "--example", "kite", "--poset", "Kite"], "hasse_kite.dot", 0),
    (["enumerate", "--example", "V", "--what", "loci"], "enumerate_loci_V.txt", 0),
    (["check", "--example", "kite", "--fn", "g_kite", "--pre", "All",
      "--post", "order", "--ti"], "check_kite_ti.txt", 1),
    (["powerdomain", "--example", "nd-bool", "--poset", "Bool_bot"],
     "powerdomain_boolbot.txt", 0),
    (["catalog", "--name", "omega", "--export", "--n", "3"],
     "catalog_omega3.txt", 0),
]
# workspace text that fails to parse or to validate; each must exit 2
MALFORMED_TEXT = [
    "poset A { elements: a b ; order: a <= }",
    "poset A { elements: a b ; order: a <= b",
    "poset A { elements: a b ; order: a <= b, b <= a }",
    "poset A { elements: a a ; order: }",
    "poset A { elements: a b ; order: a <= b }\nfn f : A -> A { a -> b ; b -> a }",
    "poset A { elements: a b ; order: }\nfn f : A -> B { a -> a ; b -> b }",
    "poset A { elements: a b ; order: }\nrel R on A kind=partial { a <= b }",
]


def cli_call(cli, argv):
    """One CLI invocation with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue().encode(), err.getvalue()


def cli_expect(code, stdout=None):
    """Check exit code, stream discipline and, when given, the output.

    ``stdout`` is a zero-argument function giving the expected bytes.
    """
    def check(result):
        got_code, out, err = result
        if got_code != code:
            return False
        if code == 2:
            return out == b"" and err != ""
        if err != "" or not out:
            return False
        return stdout is None or out == stdout()
    return check


def _lines(*lines):
    return ("\n".join(lines) + "\n").encode()


def printed(code, *lines):
    """Expect exit ``code`` and exactly the lines the zero-argument
    functions ``lines`` give."""
    return cli_expect(code, stdout=lambda: _lines(*(line() for line in lines)))


def cli_verdict(f, pre, post, flags):
    """Check of ``infolat check``: exit 0 and HOLDS, or exit 1 and the
    oracle's first violation."""
    want = flow_expect(f, pre, post, "--ti" in flags)

    def check(result):
        v = want()
        if v is None:
            return printed(0, lambda: "HOLDS")(result)
        line = f"VIOLATION: a={v[0]} a'={v[1]} f(a)={v[2]} f(a')={v[3]}"
        return printed(1, lambda: line)(result)
    return check


# Expected command output from the oracle, for library values.

def render(rel_pairs, carrier):
    return orc.render_relation(rel_pairs, carrier.elements)


def kernel_text(f, ordered=False):
    rel = orc.pullback(f.images, pairs(f.cod)) if ordered else orc.kernel(f.images)
    return render(rel, f.dom)


def knowledge_text(f, a, ordered=False):
    v = f.images[f.dom.elements.index(a)]
    cod_order = pairs(f.cod)
    seen = (lambda w: (v, w) in cod_order) if ordered else (lambda w: w == v)
    return "{" + " ".join(x for x, w in zip(f.dom.elements, f.images) if seen(w)) + "}"


def cp_text(r):
    return render(orc.cp(pairs(r), pairs(r.carrier), len(r.carrier)), r.carrier)


def er_text(r):
    return render(orc.er(pairs(r)), r.carrier)


def hasse_text(p, full=False):
    return orc.dot(list(p.elements), pairs(p), full)


def hasse_rel_text(r):
    classes, order = orc.ordered_partition(pairs(r), len(r.carrier))
    return orc.dot([orc.label(r.carrier.elements, c) for c in classes], order)


def powerdomain_text(name, p):
    masks = orc.convex_masks(pairs(p), len(p))
    return orc.poset_line(f"P_{name}", orc.subset_names(p.elements, masks),
                          orc.egli_milner(pairs(p), masks))


def enumerate_text(p, what):
    n = len(p)
    if what == "loci":
        rels = [orc.pairs_of(rows) for rows in orc.complete_preorders(p.rows, n)]
    else:
        rels = sorted((orc.kernel(labels) for labels in orc.restricted_growth(n)),
                      key=lambda eq: orc.bit_key(orc.masks_of(eq, n), n))
    return "\n".join([str(len(rels))] + [render(r, p) for r in rels])


def _poset_namer(posets):
    """Name of the first listed poset equal to a given one."""
    named = list(posets.items())
    return lambda p: next(name for name, q in named
                          if q.elements == p.elements and q.rows == p.rows)


def export_text(bundle):
    name_of = _poset_namer(bundle.posets)
    lines = [orc.poset_line(name, p.elements, pairs(p))
             for name, p in bundle.posets.items()]
    lines += [orc.fn_line(name, name_of(f.dom), name_of(f.cod), f.dom.elements,
                          f.cod.elements, f.images)
              for name, f in bundle.functions.items()]
    lines += [orc.rel_line(name, name_of(r.carrier), r.carrier.elements, pairs(r))
              for name, r in bundle.relations.items()]
    return "\n".join(lines)


def summary_text(bundle):
    name_of = _poset_namer(bundle.posets)
    lines = [f"example {bundle.name}"]
    lines += [f"poset {name}: {len(p)} elements" for name, p in bundle.posets.items()]
    lines += [f"fn {name} : {name_of(f.dom)} -> {name_of(f.cod)}"
              for name, f in bundle.functions.items()]
    lines += [f"rel {name} on {name_of(r.carrier)}: {render(pairs(r), r.carrier)}"
              for name, r in bundle.relations.items()]
    if bundle.notes:
        lines.append(f"notes: {bundle.notes}")
    return "\n".join(lines)


def realisable_expect(rel_name, carrier_name, r):
    """Check of ``infolat realisable --witness``: the quotient onto the
    blocks of r ordered by its completion, or a cycle of blocks."""
    carrier = r.carrier
    names, n = carrier.elements, len(carrier)
    prefix = "UNREALISABLE: cycle: "

    def check(result):
        eq, order = pairs(r), pairs(carrier)
        if orc.is_realisable(eq, order, n):
            classes, block_order = orc.ordered_partition(orc.cp(eq, order, n), n)
            block_names = ["+".join(names[i] for i in c) for c in classes]
            of = {i: b for b, c in enumerate(classes) for i in c}
            witness = f"{rel_name}_blocks"
            return printed(0, lambda: "REALISABLE",
                           lambda: orc.poset_line(witness, block_names, block_order),
                           lambda: orc.fn_line(f"{rel_name}_quotient", carrier_name,
                                               witness, names, block_names,
                                               [of[i] for i in range(n)]))(result)
        text = result[1].decode()
        if not (cli_expect(1)(result) and text.startswith(prefix)
                and text.count("\n") == 1 and text.endswith("\n")):
            return False
        labels = text[len(prefix):-1].split(" -> ")
        cycle = [tuple(x[1:-1].split(" ")) for x in labels[:-1]]
        return labels[0] == labels[-1] and cycle_ok(cycle, carrier, eq)
    return check


def cli_session(il, cli, rng, paths):
    golden, work = paths["golden"], paths["work"]
    data = []
    quick, files = [], []

    def adder(ops):
        def run(argv, check):
            argv = list(argv)
            shown = [a.rsplit("/", 1)[-1] for a in argv]
            ops.append(Op("cli " + " ".join(shown), lambda: cli_call(cli, argv),
                          check))
        return run

    run = adder(quick)
    for argv, name, code in GOLDEN:
        want = (golden / name).read_bytes()
        run(argv, cli_expect(code, stdout=lambda want=want: want))
    _catalog_ops(il, run)
    for i, text in enumerate(MALFORMED_TEXT):
        path = work / f"malformed{i}.txt"
        path.write_text(text, encoding="utf-8")
        run(["check", "--file", str(path), "--fn", "f", "--pre", "All",
             "--post", "All"], cli_expect(2))
    # a file that is not UTF-8 is bad input too and must exit 2
    latin = work / "latin1.txt"
    latin.write_bytes("poset Ä { elements: a b ; order: a <= b }".encode("latin-1"))
    run(["hasse", "--file", str(latin), "--poset", "Ä"], cli_expect(2))
    data.append(MALFORMED_TEXT)
    for size in FILE_SIZES:
        spec = {
            "n": size,
            "covers": gen.sparse_dag(rng, size, window=4, degree=2),
            "q": gen.extra_pairs(rng, size, size // 6, reach=2),
            "eq": gen.block_labels(rng, size, max(2, size // 5)),
            "eq_b": gen.block_labels(rng, size, max(2, size // 8)),
            "input": rng.randrange(size),
        }
        text, ws = _workspace_file(il, cli, spec)
        data.append((spec, text))
        path = work / f"ws{size}.txt"
        path.write_text(text, encoding="utf-8")
        _file_ops(il, adder(files), str(path), ws, spec)
    return data, quick * QUICK_REPEATS + files


def _catalog_ops(il, run):
    def check_argv(example, fn, pre, post, *flags, n=10):
        bundle = il.get_example(example, n=n)
        f = bundle.functions[fn]

        def resolve(name, carrier):
            if name in bundle.relations:
                return bundle.relations[name]
            return {"All": il.all_rel, "Id": il.identity_rel,
                    "order": il.order_rel}[name](carrier)
        run(["check", "--example", example, "--n", str(n), "--fn", fn,
             "--pre", pre, "--post", post, *flags],
            cli_verdict(f, resolve(pre, f.dom), resolve(post, f.cod), flags))

    check_argv("kite", "f_kite", "All", "order", "--ti")
    check_argv("V", "f2", "All", "Id", "--mode", "loi")
    check_argv("V", "f1", "All", "Id")
    check_argv("colours", "primary", "Id", "Id", "--mode", "loi")
    check_argv("colours", "isPrimary", "All", "Id")
    check_argv("omega", "S1", "All", "order", "--ti", n=200)
    check_argv("parity", "f0", "All", "order", "--ti", "--mode", "loci", n=200)
    check_argv("iseven", "isEven2", "Id", "order", "--mode", "loci", n=100)
    check_argv("diamond-counterexample", "g_dia", "Q_dia", "Q_dia", "--ti")
    check_argv("nd-bool", "C", "All", "order", "--ti")

    ex = lambda name, n=10: il.get_example(name, n=n)
    v, diamond, chain3 = ex("V"), ex("diamond-counterexample"), ex("three-chain")
    f2, q_dia, s = v.functions["f2"], diamond.relations["Q_dia"], chain3.relations["S"]
    parity200, parity50 = ex("parity", 200), ex("parity", 50)
    omega100, iseven = ex("omega", 100), ex("iseven")
    for argv, check in (
            (["kernel", "--example", "V", "--fn", "f2"],
             printed(0, lambda: kernel_text(f2))),
            (["kernel", "--example", "parity", "--n", "200", "--fn", "f0"],
             printed(0, lambda: kernel_text(parity200.functions["f0"]))),
            (["kernel", "--example", "V", "--fn", "f2", "--ordered"],
             printed(0, lambda: kernel_text(f2, ordered=True))),
            (["kernel", "--example", "omega", "--n", "100", "--fn", "S1", "--ordered"],
             printed(0, lambda: kernel_text(omega100.functions["S1"], ordered=True))),
            (["kernel", "--example", "iseven", "--fn", "isEven2", "--ordered"],
             printed(0, lambda: kernel_text(iseven.functions["isEven2"], ordered=True))),
            (["knowledge", "--example", "V", "--fn", "f2", "--input", "b"],
             printed(0, lambda: knowledge_text(f2, "b"))),
            (["knowledge", "--example", "parity", "--n", "50", "--fn", "f0",
              "--input", "3", "--ordered"],
             printed(0, lambda: knowledge_text(parity50.functions["f0"], "3",
                                               ordered=True))),
            (["cp", "--example", "three-chain", "--rel", "S"],
             printed(0, lambda: cp_text(s))),
            (["er", "--example", "diamond-counterexample", "--rel", "Q_dia"],
             printed(0, lambda: er_text(q_dia))),
            (["hasse", "--example", "diamond-counterexample", "--rel", "Q_dia"],
             printed(0, lambda: hasse_rel_text(q_dia))),
            (["hasse", "--example", "V", "--poset", "V", "--full"],
             printed(0, lambda: hasse_text(v.posets["V"], full=True))),
            (["powerdomain", "--example", "V"],
             printed(0, lambda: powerdomain_text("V", v.posets["V"]))),
            (["realisable", "--example", "three-chain", "--rel", "S", "--witness"],
             realisable_expect("S", "C3", s))):
        run(argv, check)
    names = il.list_examples()
    run(["catalog", "--list"], printed(0, *(lambda x=x: x for x in names)))
    for name, n in (("parity", 100), ("iseven", 100), ("kite", 10)):
        bundle = ex(name, n)
        run(["catalog", "--name", name, "--export"] + (["--n", str(n)] if n != 10 else []),
            printed(0, lambda bundle=bundle: export_text(bundle)))
    for name in names:
        run(["catalog", "--name", name],
            printed(0, lambda bundle=ex(name): summary_text(bundle)))
    for example, what in (("colours", "loci"), ("kite", "loi"),
                          ("diamond-counterexample", "loi"), ("V", "loi")):
        bundle = ex(example)
        poset = (["--poset", next(iter(bundle.posets))]
                 if len(bundle.posets) > 1 else [])
        p = next(iter(bundle.posets.values()))
        run(["enumerate", "--example", example, *poset, "--what", what],
            printed(0, lambda p=p, what=what: enumerate_text(p, what)))
    for argv in (["check", "--example", "kite", "--fn", "missing", "--pre", "All",
                  "--post", "order"],
                 ["check", "--example", "nope", "--fn", "f", "--pre", "All",
                  "--post", "All"],
                 ["kernel", "--example", "V", "--fn", "f2", "--n"],
                 ["check", "--example", "V", "--fn", "f2", "--pre", "order",
                  "--post", "Id", "--mode", "loi"],
                 ["check", "--example", "kite", "--fn", "f_kite", "--pre", "All",
                  "--post", "order", "--ti", "--mode", "loi"],
                 ["check", "--example", "V", "--fn", "f2", "--pre", "Id",
                  "--post", "order", "--ti"],
                 ["cp", "--example", "diamond-counterexample", "--rel", "Q_dia"],
                 ["cp", "--example", "V", "--rel", "missing"],
                 ["enumerate", "--example", "kite", "--what", "loci"],
                 ["enumerate", "--example", "V", "--what", "everything"],
                 ["powerdomain", "--example", "kite", "--poset", "Kite"],
                 ["catalog", "--name", "omega", "--n", "1"],
                 ["no-such-command"]):
        run(argv, cli_expect(2))


def _workspace_file(il, cli, spec):
    """Export a seeded poset, its quotient table, two seeded equivalences
    and the table's kernel (always realisable); return the text and the
    values it was exported from."""
    n = spec["n"]
    p = poset_of(il, "w", n, spec["covers"])
    q = preorder_over(il, il.order_rel(p), spec["q"])
    f = il.quotient_map(q)
    k = len(f.cod)
    ws = cli.Workspace()
    ws.add_poset("P", p)
    ws.add_poset("B", f.cod)
    ws.add_function("f", f)
    ws.add_relation("E", equivalence_of(il, p, spec["eq"]))
    ws.add_relation("EB", equivalence_of(il, f.cod, spec["eq_b"][:k]))
    ws.add_relation("K", il.kernel(f))
    return cli.export_workspace(ws), ws


def _file_ops(il, run, path, ws, spec):
    """Commands on one workspace file, checked against the values the
    file was exported from."""
    f, e, eb = ws.functions["f"], ws.relations["E"], ws.relations["EB"]
    p = ws.posets["P"]
    order_p, order_b = il.order_rel(f.dom), il.order_rel(f.cod)
    a = f.dom.elements[spec["input"]]
    base = ["--file", path]

    def check(pre, post, pre_name, post_name, *flags):
        run(["check", *base, "--fn", "f", "--pre", pre_name, "--post", post_name,
             *flags], cli_verdict(f, pre, post, flags))

    check(e, eb, "E", "EB")
    check(e, eb, "E", "EB", "--mode", "loi")
    check(order_p, order_b, "order", "order", "--ti")
    check(il.all_rel(f.dom), order_b, "All", "order", "--ti", "--mode", "loci")
    for argv, text in (
            (["kernel", *base, "--fn", "f"], lambda: kernel_text(f)),
            (["kernel", *base, "--fn", "f", "--ordered"],
             lambda: kernel_text(f, ordered=True)),
            (["er", *base, "--rel", "E"], lambda: er_text(e)),
            (["cp", *base, "--rel", "E"], lambda: cp_text(e)),
            (["knowledge", *base, "--fn", "f", "--input", a],
             lambda: knowledge_text(f, a)),
            (["hasse", *base, "--poset", "P"], lambda: hasse_text(p)),
            (["hasse", *base, "--rel", "E"], lambda: hasse_rel_text(e))):
        run(argv, printed(0, text))
    for name in ("E", "K"):
        run(["realisable", *base, "--rel", name, "--witness"],
            realisable_expect(name, "P", ws.relations[name]))


WORKLOADS = {
    "flow-large": flow_large,
    "search-small": search_small,
    "cli-session": cli_session,
}
