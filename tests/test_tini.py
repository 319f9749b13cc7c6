"""Termination-insensitive checking: extensions, observers, impossibility."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from infolat import (CapExceededError, FnTable, ValidationError, all_rel,
                     compatible_extension,
                     flat_termination_observer, flow_check, get_example,
                     identity_rel, iter_equivalences, loci_leq,
                     observer_impossibility_search, order_rel, pullback,
                     rel_from_pairs, ti_flow_check, ti_via_observer)
from infolat.relation import equivalence_from_blocks
from helpers import (BOOLBOT, CHAIN3, DISC2, DISC3, VEE, complete_preorders,
                     equivalences, fn_between_family, idx_pairs, monotone_fns,
                     observer_search_exhaustive, posets, preorders,
                     random_equivalence, random_poset)

KITE = get_example("kite")
DIA = get_example("diamond-counterexample")
PARITY = get_example("parity", n=6)


class TestCompatibleExtension:
    @given(preorders(VEE))
    def test_definition(self, q):
        ext = compatible_extension(q)
        n = 4
        for i in range(n):
            for j in range(n):
                want = any((q.rows[i] >> z) & 1 and (q.rows[j] >> z) & 1
                           for z in range(n))
                assert bool((ext.rows[i] >> j) & 1) == want

    @given(preorders(VEE))
    def test_contains_and_symmetrises(self, q):
        ext = compatible_extension(q)
        assert q.subset_of(ext)
        assert ext.is_reflexive and ext.cols == ext.rows

    def test_not_transitive_on_kite(self):
        ext = compatible_extension(order_rel(KITE.posets["Kite"]))
        assert ext.holds("Tail", "⊥") and ext.holds("⊥", "Body*⊥")
        assert not ext.holds("Tail", "Body*⊥")
        assert ext.holds("Body*⊥", "Body⊥*")  # meet above at Body**
        assert not ext.is_transitive

    def test_top_block_collapses_everything(self):
        # the diamond-shaped preorder has a top, so everything is compatible
        assert compatible_extension(DIA.relations["Q_dia"]) == \
            all_rel(DIA.posets["A"])

    def test_requires_preorder(self):
        from infolat import rel_from_pairs
        with pytest.raises(ValidationError):
            compatible_extension(rel_from_pairs(VEE, [("a", "b")]))


class TestTiFlow:
    def test_kite_f_passes_g_fails(self):
        kite, bool_ = KITE.posets["Kite"], KITE.posets["Bool"]
        f, g = KITE.functions["f_kite"], KITE.functions["g_kite"]
        assert ti_flow_check(f, all_rel(bool_), order_rel(kite)) is None
        v = ti_flow_check(g, all_rel(bool_), order_rel(kite))
        assert v is not None
        assert {v.fa, v.fa_prime} == {"Body*⊥", "Tail"}

    def test_sensitive_check_rejects_both(self):
        kite, bool_ = KITE.posets["Kite"], KITE.posets["Bool"]
        for name in ("f_kite", "g_kite"):
            assert flow_check(KITE.functions[name], all_rel(bool_),
                              order_rel(kite)) is not None

    @given(st.data())
    def test_weaker_than_sensitive(self, data):
        f = data.draw(fn_between_family())
        p = data.draw(complete_preorders(f.dom))
        q = data.draw(complete_preorders(f.cod))
        if flow_check(f, p, q) is None:
            assert ti_flow_check(f, p, q) is None

    @given(st.data())
    def test_composition_rule(self, data):
        f = data.draw(monotone_fns(DISC2, CHAIN3))
        g = data.draw(monotone_fns(CHAIN3, VEE))
        p = data.draw(complete_preorders(DISC2))
        q = data.draw(complete_preorders(CHAIN3))
        r = data.draw(complete_preorders(VEE))
        if ti_flow_check(f, p, q) is None and ti_flow_check(g, q, r) is None:
            assert ti_flow_check(f.then(g), p, r) is None

    @given(st.data())
    def test_subsumption_rule(self, data):
        f = data.draw(monotone_fns(CHAIN3, VEE))
        p = data.draw(complete_preorders(CHAIN3))
        p2 = data.draw(complete_preorders(CHAIN3))
        q = data.draw(complete_preorders(VEE))
        q2 = data.draw(complete_preorders(VEE))
        # stronger precondition, weaker postcondition
        if (ti_flow_check(f, p, q) is None and loci_leq(p, p2)
                and loci_leq(q2, q)):
            assert ti_flow_check(f, p2, q2) is None

    def test_requires_complete_preorders(self):
        f = KITE.functions["f_kite"]
        with pytest.raises(ValidationError):
            ti_flow_check(f, identity_rel(f.dom), identity_rel(f.cod))


class TestNaiveCandidateFailsToCompose:
    # extending only the postcondition admits a pair that composes badly
    def test_counterexample(self):
        a = DIA.posets["A"]
        g, ident = DIA.functions["g_dia"], DIA.functions["id_A"]
        q = DIA.relations["Q_dia"]
        naive_post = compatible_extension(order_rel(a))
        assert flow_check(ident, all_rel(a), compatible_extension(q)) is None
        assert flow_check(g, q, naive_post) is None
        composite = ident.then(g)
        v = flow_check(composite, all_rel(a), naive_post)
        assert v is not None
        assert {v.fa, v.fa_prime} == {"0", "1"}


class TestFlatObserver:
    def test_blocks(self):
        t = flat_termination_observer(BOOLBOT)
        assert t.holds("T", "F")
        assert not t.holds("⊥", "T")

    def test_rejects_non_flat_carriers(self):
        for bad in (VEE, DISC3, CHAIN3):
            with pytest.raises(ValidationError):
                flat_termination_observer(bad)

    def test_parity_observer_story(self):
        z, out = PARITY.posets["Z"], PARITY.posets["Out"]
        f0, f1 = PARITY.functions["f0"], PARITY.functions["f1"]
        t = flat_termination_observer(out)
        # f0 signals parity only through divergence: TI lets it through
        assert ti_via_observer(f0, all_rel(z), identity_rel(out), t) is None
        assert ti_flow_check(f0, all_rel(z), order_rel(out)) is None
        # f1 prints the parity: both styles refuse
        assert ti_via_observer(f1, all_rel(z), identity_rel(out), t) is not None
        assert ti_flow_check(f1, all_rel(z), order_rel(out)) is not None
        # and the sensitive check refuses even f0
        assert flow_check(f0, all_rel(z), identity_rel(out)) is not None

    def test_observer_strengthens_precondition(self):
        z, out = PARITY.posets["Z"], PARITY.posets["Out"]
        f0 = PARITY.functions["f0"]
        t = flat_termination_observer(out)
        strengthened = pullback(f0, t)
        assert strengthened.holds("0", "2")
        assert not strengthened.holds("0", "1")


class TestObserverSearch:
    def test_single_bad_function_is_separable(self):
        bool_, kite = KITE.posets["Bool"], KITE.posets["Kite"]
        f, g = KITE.functions["f_kite"], KITE.functions["g_kite"]
        res = observer_impossibility_search(
            f, g, all_rel(bool_), identity_rel(kite))
        assert res.separating is not None
        # the separator lumps g's defined output with Tail
        assert res.separating.holds("Body*⊥", "Tail")
        assert not res.separating.holds("Body⊥*", "Tail")
        assert not res.separating.holds("Body*⊥", "Body⊥*")

    def test_orientation_pair_is_not(self):
        bool_, kite = KITE.posets["Bool"], KITE.posets["Kite"]
        f = KITE.functions["f_kite"]
        gs = [KITE.functions["g_kite"], KITE.functions["g_kite_flip"]]
        res = observer_impossibility_search(
            f, gs, all_rel(bool_), identity_rel(kite))
        assert res.separating is None
        assert res.checked == 203  # every partition of the six-point domain

    def test_flip_is_separable_alone(self):
        bool_, kite = KITE.posets["Bool"], KITE.posets["Kite"]
        f = KITE.functions["f_kite"]
        res = observer_impossibility_search(
            f, KITE.functions["g_kite_flip"], all_rel(bool_),
            identity_rel(kite))
        assert res.separating is not None
        assert res.separating.holds("Body⊥*", "Tail")

    def test_parity_search_finds_flat_observer(self):
        z, out = PARITY.posets["Z"], PARITY.posets["Out"]
        f0, f1 = PARITY.functions["f0"], PARITY.functions["f1"]
        res = observer_impossibility_search(
            f0, f1, all_rel(z), identity_rel(out))
        assert res.separating == flat_termination_observer(out)

    def test_needs_shared_codomain(self):
        with pytest.raises(ValidationError):
            observer_impossibility_search(
                KITE.functions["f_kite"], PARITY.functions["f0"],
                all_rel(KITE.posets["Bool"]),
                identity_rel(KITE.posets["Kite"]))

    def test_needs_a_bad_table(self):
        with pytest.raises(ValidationError,
                           match="^need at least one bad function$"):
            observer_impossibility_search(
                KITE.functions["f_kite"], [], all_rel(KITE.posets["Bool"]),
                identity_rel(KITE.posets["Kite"]))

    def test_codomain_over_cap(self):
        with pytest.raises(CapExceededError,
                           match="^codomain has 6 elements, cap is 5$"):
            observer_impossibility_search(
                KITE.functions["f_kite"], KITE.functions["g_kite"],
                all_rel(KITE.posets["Bool"]),
                identity_rel(KITE.posets["Kite"]), cap=5)

    @pytest.mark.parametrize("which, message", [
        ("pre", "precondition must be an equivalence relation"),
        ("post", "postcondition must be an equivalence relation"),
    ])
    def test_rejects_non_equivalence(self, which, message):
        bool_, kite = KITE.posets["Bool"], KITE.posets["Kite"]
        args = {"pre": all_rel(bool_), "post": identity_rel(kite)}
        carrier = bool_ if which == "pre" else kite
        x, y = carrier.elements[:2]
        args[which] = rel_from_pairs(carrier, [(x, y)])
        with pytest.raises(ValidationError, match=f"^{message}$"):
            observer_impossibility_search(
                KITE.functions["f_kite"], KITE.functions["g_kite"],
                args["pre"], args["post"])

    @pytest.mark.parametrize("which, message", [
        ("pre", "relations live on different carriers"),
        ("post", "postcondition lives on the wrong carrier"),
    ])
    def test_rejects_wrong_carrier(self, which, message):
        args = {"pre": all_rel(KITE.posets["Bool"]),
                "post": identity_rel(KITE.posets["Kite"])}
        args[which] = identity_rel(DISC3)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            observer_impossibility_search(
                KITE.functions["f_kite"], KITE.functions["g_kite"],
                args["pre"], args["post"])

    @settings(max_examples=60)
    @given(st.data())
    def test_matches_search_by_definition(self, data):
        dom = data.draw(posets(max_size=4))
        cod = data.draw(posets(max_size=5))
        table = st.tuples(*[st.integers(0, len(cod) - 1)] * len(dom))
        f_ok = FnTable(dom, cod, data.draw(table))
        bads = [FnTable(dom, cod, images)
                for images in data.draw(st.lists(table, min_size=1,
                                                 max_size=2))]
        pre = data.draw(equivalences(dom))
        post = data.draw(equivalences(cod))
        res = observer_impossibility_search(f_ok, bads, pre, post)
        assert (res.separating, res.checked) == \
            search_by_definition(f_ok, bads, pre, post)

    @pytest.mark.parametrize("seed", range(16))
    def test_matches_search_by_definition_on_the_kite(self, seed):
        # a six-point codomain, 203 candidates: seeded tables from two to
        # four points, one or two of them bad
        rng = random.Random(seed)
        kite = KITE.posets["Kite"]
        dom = random_poset(rng, rng.randint(2, 4))
        f_ok, *bads = [FnTable(dom, kite, tuple(rng.randrange(len(kite))
                                                for _ in dom.elements))
                       for _ in range(rng.randint(2, 3))]
        pre = random_equivalence(rng, dom)
        post = rng.choice((identity_rel(kite), random_equivalence(rng, kite)))
        res = observer_impossibility_search(f_ok, bads, pre, post)
        assert (res.separating, res.checked) == \
            search_by_definition(f_ok, bads, pre, post)

    @pytest.mark.parametrize("k,seed", [(k, seed) for k in range(1, 9)
                                        for seed in range(6)])
    def test_matches_exhaustive_oracle(self, k, seed):
        res = observer_impossibility_search(*observer_case(seed, k))
        assert (res.separating, res.checked) == \
            observer_search_exhaustive(*observer_case(seed, k))

    # every seed of 9 points, and of 10 points two separators found
    # after cutting thousands of candidates, two found early and one walk
    # to the end (a full 10-point walk costs the oracle almost a second)
    @pytest.mark.parametrize("k,seed", [(9, seed) for seed in range(12)] +
                             [(10, seed) for seed in (0, 1, 6, 9, 10)])
    def test_matches_exhaustive_oracle_with_cap_raised(self, k, seed):
        case = observer_case(seed, k)
        with pytest.raises(CapExceededError):
            observer_impossibility_search(*case)
        res = observer_impossibility_search(*case, cap=k)
        assert (res.separating, res.checked) == \
            observer_search_exhaustive(*case)


def observer_case(seed, k):
    """A seeded search into a k-point codomain: a good table and one to
    three bad ones from a two- to four-point domain, a random
    precondition, and the identity or a random postcondition."""
    rng = random.Random(seed)
    dom = random_poset(rng, rng.randint(2, 4))
    cod = random_poset(rng, k)
    f_ok, *bads = [FnTable(dom, cod, tuple(rng.randrange(k)
                                           for _ in dom.elements))
                   for _ in range(rng.randint(2, 4))]
    pre = random_equivalence(rng, dom)
    post = rng.choice((identity_rel(cod), random_equivalence(rng, cod)))
    return f_ok, bads, pre, post


def search_by_definition(f_ok, bads, pre, post):
    """The public encoded check on every candidate, in search order."""
    checked = 0
    for t in iter_equivalences(f_ok.cod):
        checked += 1
        if (ti_via_observer(f_ok, pre, post, t) is None
                and all(ti_via_observer(g, pre, post, t) is not None
                        for g in bads)):
            return t, checked
    return None, checked

