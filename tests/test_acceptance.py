"""Acceptance gate: twelve numbered criteria, one test each.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion; each test also prints a short PASS summary that
``-rA`` or ``-s`` makes visible.  Everything here is exact (integer
counts, relation equality, exit codes) — no tolerances are needed, and
every expected constant is either asserted against an independent
recomputation inside this file or pinned after being derived in the
module test suites.
"""

import itertools
import random
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

from infolat import (
    compatible_extension,
    cp,
    enumerate_loci,
    enumerate_loi,
    er,
    find_monotone_postprocessor,
    flow_check,
    get_example,
    is_complete_preorder,
    is_realisable,
    kernel,
    kleisli_compose,
    kleisli_extend,
    knowledge_set,
    loci_join,
    loci_leq,
    loci_meet,
    loi_join,
    loi_leq,
    loi_meet,
    observer_impossibility_search,
    ordered_kernel,
    ordered_knowledge_set,
    phi_realisability,
    plotkin,
    pd_lift_relation,
    pullback,
    pushforward,
    quotient_map,
    ti_flow_check,
)
from infolat.loci import iter_equivalences
from infolat.poset import (FnTable, Poset, build_poset, chain, discrete,
                           iter_monotone_tables, lift)
from infolat.powerdomain import _all_subset_masks, _convex_mask, _em_rows
from infolat.relation import all_rel, close, identity_rel, order_rel, union
from helpers import em_extension

GOLDEN = Path(__file__).parent / "golden"

ONE = discrete(("x",))
CHAIN2 = chain(("0", "1"))
CHAIN3 = chain(("0", "1", "2"))
CHAIN4 = chain(("0", "1", "2", "3"))
DISC2 = discrete(("x", "y"))
DISC3 = discrete(("x", "y", "z"))
DISC4 = discrete(("w", "x", "y", "z"))
VEE = build_poset(("⊥", "c", "a", "b"), (("⊥", "c"), ("c", "a"), ("c", "b")))
DIAMOND = build_poset(("0", "a", "b", "1"),
                      (("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")))
BOOLBOT = lift(discrete(("T", "F")))

SMALL = (ONE, CHAIN2, CHAIN3, DISC2, DISC3, BOOLBOT)          # ≤ 3 elements
FOURS = (CHAIN4, DISC4, VEE, DIAMOND)                          # exactly 4
FAMILY = SMALL + FOURS


def _report(n: int, detail: str) -> None:
    print(f"criterion {n:2d}: PASS — {detail}")


@lru_cache(maxsize=None)
def _tables(dom: Poset, cod: Poset) -> tuple[FnTable, ...]:
    return tuple(iter_monotone_tables(dom, cod))


def _sample_complete(rng: random.Random, carrier: Poset):
    pairs = order_rel(carrier)
    names = carrier.elements
    extra = [(rng.choice(names), rng.choice(names))
             for _ in range(rng.randrange(2 * len(names)))]
    return close(union(pairs, _raw(carrier, extra)), "refl_trans")


def _raw(carrier: Poset, pairs):
    from infolat.relation import rel_from_pairs
    return rel_from_pairs(carrier, pairs)


def _sample_equivalence(rng: random.Random, carrier: Poset):
    names = carrier.elements
    extra = [(rng.choice(names), rng.choice(names))
             for _ in range(rng.randrange(len(names) + 1))]
    return close(_raw(carrier, extra), "equivalence")


def test_criterion_01_counting_claims():
    loci_v = enumerate_loci(VEE)
    loi_v = enumerate_loi(VEE)
    assert len(loci_v) == 14
    assert len(loi_v) == 15
    realisable = [r for r in loi_v if is_realisable(r)]
    assert len(realisable) == 10
    fibers = Counter(er(q) for q in loci_v)
    assert set(fibers) == set(realisable)
    assert fibers[identity_rel(VEE)] == 3
    assert sorted(fibers.values(), reverse=True) == [3, 3] + [1] * 8
    _report(1, "LoCI(V)=14, LoI(V)=15, 10 realisable, identity has 3 "
               "realisers, exactly two relations have 3 realisers")


def test_criterion_02_galois_connection_exhaustive():
    checked = 0
    for carrier in FAMILY:
        loci = enumerate_loci(carrier)
        for r in enumerate_loi(carrier):
            upper = cp(r)
            for q in loci:
                assert loi_leq(er(q), r) == loci_leq(q, upper)
                checked += 1
    assert checked > 5000
    _report(2, f"er ⊣ cp adjunction over {checked} exhaustive pairs on "
               f"{len(FAMILY)} carriers")


def test_criterion_03_encoding_theorem():
    checked = 0
    for dom, cod in itertools.product(SMALL, SMALL):
        loi_pre = enumerate_loi(dom)
        loci_post = enumerate_loci(cod)
        ers = [(q, er(q)) for q in loci_post]
        for f in _tables(dom, cod):
            for r in loi_pre:
                pre = cp(r)
                for q, under in ers:
                    lhs = flow_check(f, r, under) is None
                    rhs = flow_check(f, pre, q) is None
                    assert lhs == rhs
                    checked += 1
    assert checked >= 1000
    # gluing the endpoints of a three-element chain is not a kernel, and
    # the identity shows the correspondence cannot reach such a relation
    bundle = get_example("three-chain")
    ident, s = bundle.functions["id_C3"], bundle.relations["S"]
    c3 = bundle.posets["C3"]
    assert len(set(ident.images)) > 1
    assert flow_check(ident, all_rel(c3), all_rel(c3)) is None
    assert flow_check(ident, all_rel(c3), s) is not None
    _report(3, f"flow agreement on {checked} table/relation combinations "
               "plus the glued-chain counterexample")


def test_criterion_04_realisability_decision():
    carriers: list[Poset] = []
    seen = set()
    for name in ("V", "colours", "diamond-counterexample", "iseven", "kite",
                 "nd-bool", "omega", "parity", "three-chain"):
        for p in get_example(name, n=4).posets.values():
            key = (p.elements, tuple(p.covers()))
            if len(p.elements) <= 5 and key not in seen:
                seen.add(key)
                carriers.append(p)
    assert len(carriers) >= 10
    checked = witnesses = 0
    for carrier in carriers:
        for r in iter_equivalences(carrier):
            result = phi_realisability(r)
            assert result.realisable == (er(cp(r)) == r)
            assert result.realisable == is_realisable(r)
            if result.realisable:
                assert kernel(result.witness_fn) == r
                witnesses += 1
            checked += 1
    _report(4, f"φ-criterion matches er∘cp fixpoints on {checked} "
               f"equivalences over {len(carriers)} carriers; "
               f"{witnesses} witnesses verified")


def test_criterion_05_ordered_kernels_are_complete_preorders():
    for carrier in FAMILY:
        loci = set(enumerate_loci(carrier))
        # every complete preorder arises: its quotient map realises it
        for q in loci:
            witness = quotient_map(q)
            assert ordered_kernel(witness) == q
        # and nothing else arises from any monotone table in the family
        for cod in FAMILY:
            for f in _tables(carrier, cod):
                ok = ordered_kernel(f)
                assert is_complete_preorder(ok)
                assert ok in loci
    _report(5, "ordered kernels = complete preorders, both inclusions, "
               f"{len(FAMILY)} domains x {len(FAMILY)} codomains")


def test_criterion_06_kite_observer_impossibility():
    bundle = get_example("kite")
    bool_, kite = bundle.posets["Bool"], bundle.posets["Kite"]
    f = bundle.functions["f_kite"]
    g, g_flip = bundle.functions["g_kite"], bundle.functions["g_kite_flip"]
    assert ti_flow_check(f, all_rel(bool_), order_rel(kite)) is None
    assert ti_flow_check(g, all_rel(bool_), order_rel(kite)) is not None
    res = observer_impossibility_search(
        f, [g, g_flip], all_rel(bool_), identity_rel(kite))
    assert res.separating is None
    assert res.checked == 203
    _report(6, "f_kite accepted, g_kite rejected, no observer separates "
               "either orientation among all 203 candidates")


def test_criterion_07_diamond_composition_failure():
    bundle = get_example("diamond-counterexample")
    a = bundle.posets["A"]
    g, ident = bundle.functions["g_dia"], bundle.functions["id_A"]
    q = bundle.relations["Q_dia"]
    tw_order = compatible_extension(order_rel(a))
    assert flow_check(g, q, tw_order) is None
    assert ti_flow_check(g, q, order_rel(a)) is not None
    # with prior knowledge All, the identity passes the naive candidate
    # but its composition with g does not
    assert flow_check(ident, all_rel(a), compatible_extension(q)) is None
    assert flow_check(ident.then(g), all_rel(a), tw_order) is not None
    _report(7, "naive candidate passes the identity yet fails its "
               "composition through the diamond preorder")


def test_criterion_08_no_monotone_reverse_for_parity_pair():
    bundle = get_example("iseven", n=6)
    even1, even2 = bundle.functions["isEven1"], bundle.functions["isEven2"]
    bool_bot, d = bundle.posets["Bool_bot"], bundle.posets["D"]
    # search the full table space, monotone or not
    space = list(itertools.product(range(len(bool_bot.elements)),
                                   repeat=len(d.elements)))
    assert len(space) == 3 ** len(d.elements) == 243
    n = len(d.elements)
    found = []
    for images in space:
        p = FnTable(d, bool_bot, images)
        if even2.then(p).images != even1.images:
            continue
        if all(bool_bot.leq_idx(images[i], images[j])
               for i in range(n) for j in range(n) if d.leq_idx(i, j)):
            found.append(p)
    assert found == []
    assert find_monotone_postprocessor(even1, even2) is None
    assert kernel(even1) == kernel(even2)
    assert ordered_kernel(even1) == ordered_kernel(even2)
    p = find_monotone_postprocessor(even2, even1)
    assert p is not None
    assert (p("⊥"), p("T"), p("F")) == ("⊥", "*.⊥", "⊥.*")
    _report(8, "all 243 candidate tables fail one way; the reverse "
               "postprocessor exists and matches the pinned table")


def test_criterion_09_powerdomain_suite():
    assert len(plotkin(BOOLBOT).elements) == 7
    # compatibility-extension lemma, all three clauses, exhaustively small
    for base in SMALL:
        masks = _all_subset_masks(base)
        pd = plotkin(base)
        for q in enumerate_loci(base):
            tw_q = compatible_extension(q)
            assert compatible_extension(em_extension(q)) == em_extension(tw_q)
            lifted_tw = compatible_extension(pd_lift_relation(q))
            assert lifted_tw.rows == _em_rows(tw_q, list(pd.masks))
            em_tw = _em_rows(tw_q, masks)
            for i, xm in enumerate(masks):
                xi = pd.mask_index[_convex_mask(base, xm)]
                for j, ym in enumerate(masks):
                    yj = pd.mask_index[_convex_mask(base, ym)]
                    assert (lifted_tw.rows[xi] >> yj & 1
                            == em_tw[i] >> j & 1)
    rng = random.Random(94)
    for _ in range(500):
        base = rng.choice(FOURS)
        q = _sample_complete(rng, base)
        tw_q = compatible_extension(q)
        pd = plotkin(base)
        lifted_tw = compatible_extension(pd_lift_relation(q))
        assert lifted_tw.rows == _em_rows(tw_q, list(pd.masks))
        masks = _all_subset_masks(base)
        em_q = em_extension(q)
        tw_em = compatible_extension(em_q)
        em_tw = _em_rows(tw_q, masks)
        i = rng.randrange(len(masks))
        j = rng.randrange(len(masks))
        assert tw_em.rows[i] >> j & 1 == em_tw[i] >> j & 1
        xi = pd.mask_index[_convex_mask(base, masks[i])]
        yj = pd.mask_index[_convex_mask(base, masks[j])]
        assert lifted_tw.rows[xi] >> yj & 1 == em_tw[i] >> j & 1
    # set-valued tables: extension preserves the insensitive flow, and
    # the two inference rules hold on random instances
    rng = random.Random(95)
    lifted = extended = 0
    for _ in range(500):
        a, b = rng.choice(SMALL[1:]), rng.choice(SMALL[1:])
        f = rng.choice(_tables(a, plotkin(b)))
        p = _sample_complete(rng, a)
        q = _sample_complete(rng, b)
        pq = pd_lift_relation(q)
        if ti_flow_check(f, p, pq) is None:
            lifted += 1
            assert ti_flow_check(kleisli_extend(f),
                                 pd_lift_relation(p), pq) is None
            p_stronger = loci_join(p, _sample_complete(rng, a))
            q_weaker = loci_meet(q, _sample_complete(rng, b))
            assert ti_flow_check(f, p_stronger,
                                 pd_lift_relation(q_weaker)) is None
    assert lifted >= 100
    rng = random.Random(96)
    for _ in range(500):
        a, b, c = (rng.choice(SMALL[1:]) for _ in range(3))
        f = rng.choice(_tables(a, plotkin(b)))
        g = rng.choice(_tables(b, plotkin(c)))
        p = _sample_complete(rng, a)
        q = _sample_complete(rng, b)
        r = _sample_complete(rng, c)
        if (ti_flow_check(f, p, pd_lift_relation(q)) is None
                and ti_flow_check(g, q, pd_lift_relation(r)) is None):
            extended += 1
            assert ti_flow_check(kleisli_compose(f, g), p,
                                 pd_lift_relation(r)) is None
    assert extended >= 50
    nd = get_example("nd-bool")
    c = nd.functions["C"]
    assert ti_flow_check(c, all_rel(nd.posets["Bool"]),
                         order_rel(nd.posets["PBool"])) is None
    _report(9, f"7-point powerdomain, extension lemma exhaustive+sampled, "
               f"{lifted} lifted flows, {extended} compositions, "
               "nondeterministic C accepted")


def test_criterion_10_law_suites():
    # lattice laws, exhaustive on every carrier up to four points
    for carrier in SMALL + (VEE,):
        loi = enumerate_loi(carrier)
        for p, q in itertools.product(loi, loi):
            j, m = loi_join(p, q), loi_meet(p, q)
            assert loi_leq(p, j) and loi_leq(q, j)
            assert loi_leq(m, p) and loi_leq(m, q)
            assert loi_join(p, m) == p and loi_meet(p, j) == p
            assert j == loi_join(q, p) and m == loi_meet(q, p)
        loci = enumerate_loci(carrier)
        for p, q in itertools.product(loci, loci):
            j, m = loci_join(p, q), loci_meet(p, q)
            assert loci_leq(p, j) and loci_leq(q, j)
            assert loci_leq(m, p) and loci_leq(m, q)
            assert loci_join(p, m) == p and loci_meet(p, j) == p
    rng = random.Random(97)
    cases = 0
    for _ in range(500):
        dom, mid, cod = (rng.choice(SMALL) for _ in range(3))
        f = rng.choice(_tables(dom, mid))
        g = rng.choice(_tables(mid, cod))
        r = _sample_equivalence(rng, dom)
        s = _sample_equivalence(rng, cod)
        s_mid = _sample_equivalence(rng, mid)
        # triple characterisation of flow, both lattices
        holds = flow_check(f, r, s_mid) is None
        assert holds == loi_leq(pullback(f, s_mid), r)
        assert holds == loi_leq(s_mid, pushforward(f, r))
        # knowledge sets are unions of kernel classes
        x = rng.choice(dom.elements)
        ks = knowledge_set(f, x)
        oks = ordered_knowledge_set(f, x)
        assert ks == {y for y in dom.elements if kernel(f).holds(x, y)}
        assert oks == {y for y in dom.elements
                       if ordered_kernel(f).holds(x, y)}
        # subsumption and composition
        if holds:
            weaker_s = loi_meet(s_mid, _sample_equivalence(rng, mid))
            stronger_r = loi_join(r, _sample_equivalence(rng, dom))
            assert flow_check(f, stronger_r, weaker_s) is None
            if flow_check(g, s_mid, s) is None:
                assert flow_check(f.then(g), r, s) is None
        # the sensitive property is stronger than the insensitive one
        pre = _sample_complete(rng, dom)
        post = _sample_complete(rng, cod)
        fc = rng.choice(_tables(dom, cod))
        if flow_check(fc, pre, post) is None:
            assert ti_flow_check(fc, pre, post) is None
        if ti_flow_check(fc, pre, post) is None:
            pre_s = loci_join(pre, _sample_complete(rng, dom))
            post_w = loci_meet(post, _sample_complete(rng, cod))
            assert ti_flow_check(fc, pre_s, post_w) is None
        # functor laws for pullback and pushforward
        assert pullback(f.then(g), s) == pullback(f, pullback(g, s))
        assert pushforward(f.then(g), r) == pushforward(g, pushforward(f, r))
        ident = FnTable(dom, dom, tuple(range(len(dom.elements))))
        assert pullback(ident, r) == r and pushforward(ident, r) == r
        cases += 1
    # insensitive composition, seeded so the premises actually fire
    rng = random.Random(98)
    composed = 0
    for _ in range(500):
        dom, mid, cod = (rng.choice(SMALL) for _ in range(3))
        f = rng.choice(_tables(dom, mid))
        g = rng.choice(_tables(mid, cod))
        p = _sample_complete(rng, dom)
        q = _sample_complete(rng, mid)
        r = _sample_complete(rng, cod)
        if (ti_flow_check(f, p, q) is None
                and ti_flow_check(g, q, r) is None):
            assert ti_flow_check(f.then(g), p, r) is None
            composed += 1
    assert cases == 500 and composed >= 100
    _report(10, f"lattice/flow/knowledge/functor laws on {cases} sampled "
                f"instances, {composed} insensitive compositions")


def test_criterion_11_parity_family_at_twenty():
    bundle = get_example("parity", n=20)
    z = bundle.posets["Z"]
    f0, f1 = bundle.functions["f0"], bundle.functions["f1"]
    assert kernel(f0) == kernel(f1)
    ok0, ok1 = ordered_kernel(f0), ordered_kernel(f1)
    assert loci_leq(ok0, ok1) and ok0 != ok1
    everything = set(z.elements)
    for i in range(20):
        expected = everything if i % 2 else set(str(j) for j in range(0, 20, 2))
        assert ordered_knowledge_set(f0, str(i)) == expected
    _report(11, "equal kernels, strictly finer ordered kernel for f1, "
                "diverging inputs know the whole carrier")


def test_criterion_12_cli_determinism_and_exit_codes():
    cases = [
        (["hasse", "--example", "kite", "--poset", "Kite"],
         "hasse_kite.dot", 0),
        (["enumerate", "--example", "V", "--what", "loci"],
         "enumerate_loci_V.txt", 0),
        (["check", "--example", "kite", "--fn", "g_kite", "--pre", "All",
          "--post", "order", "--ti"], "check_kite_ti.txt", 1),
    ]
    for argv, golden, code in cases:
        runs = [subprocess.run([sys.executable, "-m", "infolat"] + argv,
                               capture_output=True) for _ in range(2)]
        assert [r.returncode for r in runs] == [code, code]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout == (GOLDEN / golden).read_bytes()
    from infolat.cli import run as cli_run
    assert cli_run(["check", "--example", "kite", "--fn", "f_kite",
                    "--pre", "All", "--post", "order", "--ti"]) == 0
    assert cli_run(["check", "--example", "kite", "--fn", "g_kite",
                    "--pre", "All", "--post", "order", "--ti"]) == 1
    assert cli_run(["check", "--example", "kite", "--fn", "missing",
                    "--pre", "All", "--post", "order"]) == 2
    _report(12, "byte-identical reruns match golden files; exit codes "
                "0/1/2 for holds/violated/error")
