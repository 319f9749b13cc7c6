"""Shared carriers, brute-force oracles, and hypothesis strategies.

The oracle functions recompute everything from plain pair sets with
naive fixpoint loops, independent of the bitmask machinery under test.
"""

import random
from functools import lru_cache

from hypothesis import strategies as st

from infolat import (FnTable, OrderCycleError, Poset, Rel, ValidationError,
                     Violation, build_poset, chain, close, discrete,
                     iter_equivalences, iter_monotone_tables, lift,
                     order_rel, rel_from_pairs, subset_name, union)
from infolat.poset import bits
from infolat.powerdomain import _all_subset_masks, _em_rows
from infolat.relation import equivalence_from_blocks

# --- fixed carriers ---------------------------------------------------

ONE = discrete(("x",))
CHAIN2 = chain(("0", "1"))
CHAIN3 = chain(("0", "1", "2"))
CHAIN4 = chain(("0", "1", "2", "3"))
DISC2 = discrete(("p", "q"))
DISC3 = discrete(("p", "q", "r"))
VEE = build_poset(("⊥", "c", "a", "b"),
                  (("⊥", "c"), ("c", "a"), ("c", "b")))
DIAMOND = build_poset(("0", "a", "b", "1"),
                      (("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")))
BOOLBOT = lift(discrete(("T", "F")))

FAMILY = (ONE, CHAIN2, CHAIN3, CHAIN4, DISC2, DISC3, VEE, DIAMOND, BOOLBOT)

BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140)

# --- pair-set oracles -------------------------------------------------


def idx_pairs(rel: Rel) -> set[tuple[int, int]]:
    n = len(rel.carrier.elements)
    return {(i, j) for i in range(n) for j in range(n)
            if rel.holds_idx(i, j)}


def oracle_close(pairs, n, symmetric=False):
    """Reflexive(-symmetric)-transitive closure by repeated scanning."""
    s = set(pairs) | {(i, i) for i in range(n)}
    if symmetric:
        s |= {(b, a) for a, b in s}
    changed = True
    while changed:
        changed = False
        for a, b in list(s):
            for c, d in list(s):
                if b == c and (a, d) not in s:
                    s.add((a, d))
                    changed = True
                    if symmetric and (d, a) not in s:
                        s.add((d, a))
    return s


def oracle_compose(r, s, n):
    return {(a, d) for a, b in r for c, d in s if b == c}


def set_partitions(items):
    """Every partition of a sequence, as lists of lists."""
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]
        yield [[head]] + part


def all_equivalence_pair_sets(n):
    for part in set_partitions(range(n)):
        yield {(a, b) for block in part for a in block for b in block}


def all_preorder_pair_sets(n, must_contain=frozenset()):
    """Brute force over every subset of the square; n <= 4 only."""
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    base = {(i, i) for i in range(n)}
    for mask in range(1 << len(cells)):
        s = base | {cells[k] for k in range(len(cells)) if (mask >> k) & 1}
        if not must_contain <= s:
            continue
        if all((a, d) in s for a, b in s for c, d in s if b == c):
            yield s


def rel_of_pairs(carrier: Poset, pairs) -> Rel:
    els = carrier.elements
    return rel_from_pairs(carrier, [(els[i], els[j]) for i, j in pairs])


# --- definitions checked literally ------------------------------------


def is_directed(p: Poset, mask: int) -> bool:
    """Is the subset given by ``mask`` non-empty and directed?"""
    if not mask:
        return False
    members = list(bits(mask))
    for a in members:
        for b in members:
            if not (p.rows[a] & p.rows[b] & mask):
                return False
    return True


def greatest_of(p: Poset, mask: int) -> int | None:
    """Index of the greatest element of the subset, if any."""
    common = (1 << len(p.elements)) - 1
    for i in bits(mask):
        common &= p.rows[i]
    common &= mask
    if common:
        return next(bits(common))
    return None


def directed_subsets(p: Poset):
    """Yield (mask, greatest index) for every directed subset.

    Exponential in the carrier size; meant for small carriers.
    """
    for mask in range(1, 1 << len(p.elements)):
        if is_directed(p, mask):
            top = greatest_of(p, mask)
            if top is None:
                # cannot happen in a finite poset; fail loudly if it does
                raise AssertionError("directed subset without greatest element")
            yield mask, top


def is_complete_preorder_exhaustive(q: Rel) -> bool:
    """Directed-suprema definition, checked subset by subset.

    For every directed subset X with supremum s: every member of X is
    below s in q, and any q-upper bound of all of X is above s in q.
    Exponential; the oracle for ``is_complete_preorder``.
    """
    if not q.is_preorder:
        return False
    n = len(q.carrier.elements)
    for mask, top in directed_subsets(q.carrier):
        for x in bits(mask):
            if not q.holds_idx(x, top):
                return False
        for a in range(n):
            if all(q.holds_idx(x, a) for x in bits(mask)):
                if not q.holds_idx(top, a):
                    return False
    return True


def enumerate_loci_warshall(a: Poset) -> list[Rel]:
    """Complete preorders by recursive backtracking with a full Warshall
    closure at every node and an explicit sort; the oracle for the
    incremental, sort-free ``enumerate_loci``."""
    n = len(a.elements)
    base = a.rows
    candidates = [(i, j) for i in range(n) for j in range(n)
                  if not (base[i] >> j) & 1]
    found: list[tuple[int, ...]] = []

    def pair_bit(i: int, j: int) -> int:
        return 1 << (i * n + j)

    def rec(rows: tuple[int, ...], k: int, forbidden: int) -> None:
        while k < len(candidates):
            i, j = candidates[k]
            if not (rows[i] >> j) & 1:
                break
            k += 1
        else:
            found.append(rows)
            return
        i, j = candidates[k]
        rec(rows, k + 1, forbidden | pair_bit(i, j))
        grown = list(rows)
        grown[i] |= 1 << j
        closed = tuple(close_rows_warshall(grown))
        closed_bits = 0
        for x, row in enumerate(closed):
            closed_bits |= row << (x * n)
        if not closed_bits & forbidden:
            rec(closed, k + 1, forbidden)

    rec(base, 0, 0)
    return sorted((Rel(a, rows) for rows in found), key=Rel.bit_tuple)


def enumerate_loi_sorted(c: Poset) -> list[Rel]:
    """Every equivalence in restricted-growth order, sorted by
    ``Rel.bit_tuple``; the oracle for the sort-free ``enumerate_loi``."""
    return sorted(iter_equivalences(c), key=Rel.bit_tuple)


def subset_masks_sorted(n: int) -> list[int]:
    """Non-empty subset masks of n points sorted by their membership
    tuples, first element most significant; the oracle for the
    sort-free ``_all_subset_masks``."""
    return sorted(range(1, 1 << n),
                  key=lambda m: tuple((m >> i) & 1 for i in range(n)))


def subset_space(base: Poset) -> Poset:
    """Discrete carrier of every non-empty subset, canonical order."""
    masks = _all_subset_masks(base)
    names = tuple(subset_name(base, m) for m in masks)
    return Poset(names, tuple(1 << i for i in range(len(names))))


def em_extension(r: Rel) -> Rel:
    """Egli-Milner extension of a relation, over all non-empty subsets.

    Both clauses at once: every member of the left set reaches into the
    right set, and every member of the right set is reached from the
    left set.
    """
    masks = _all_subset_masks(r.carrier)
    return Rel(subset_space(r.carrier), _em_rows(r, masks))


# --- per-pair kernels -------------------------------------------------
# The loop versions the whole-row kernels replaced, kept as oracles.


def close_rows_warshall(rows) -> list[int]:
    """Reflexive-transitive closure by Warshall: for each k, every row
    holding bit k takes in row k."""
    out = list(rows)
    n = len(out)
    for i in range(n):
        out[i] |= 1 << i
    for k in range(n):
        bit_k = 1 << k
        row_k = out[k]
        for i in range(n):
            if out[i] & bit_k:
                out[i] |= row_k
    return out


def is_transitive_pairwise(rows) -> bool:
    """Every j in row i has row j inside row i, pair by pair."""
    n = len(rows)
    return all(rows[i] | rows[j] == rows[i]
               for i in range(n) for j in range(n) if (rows[i] >> j) & 1)


def poset_checks_pairwise(elements, rows) -> None:
    """The order checks of ``Poset`` as a loop over every related pair,
    raising the error ``Poset`` raises for the first failure."""
    n = len(elements)
    if len(rows) != n:
        raise ValidationError("order matrix does not match carrier size")
    full = (1 << n) - 1
    for i, row in enumerate(rows):
        if row & ~full:
            raise ValidationError("order row mentions an unknown index")
        if not (row >> i) & 1:
            raise ValidationError(f"order not reflexive at {elements[i]!r}")
    for i in range(n):
        for j in bits(rows[i]):
            if rows[i] | rows[j] != rows[i]:
                raise ValidationError(
                    f"order not transitive at {elements[i]!r}")
            if i != j and (rows[j] >> i) & 1:
                raise OrderCycleError(
                    f"antisymmetry violated: {elements[i]!r} and "
                    f"{elements[j]!r} are below each other",
                    (elements[i], elements[j]))


def is_antisymmetric_pairwise(rows) -> bool:
    """No two distinct indices relate both ways, pair by pair."""
    return all(i == j or not (rows[j] >> i) & 1
               for i, row in enumerate(rows) for j in bits(row))


def covers_pairwise(p: Poset) -> list[tuple[int, int]]:
    """Related pairs i != j, row-major, with nothing strictly between
    them, tested pair by pair."""
    out = []
    for i, row in enumerate(p.rows):
        for j in bits(row & ~(1 << i)):
            if not row & p.cols[j] & ~(1 << i) & ~(1 << j):
                out.append((i, j))
    return out


def transpose_pairwise(rows) -> tuple[int, ...]:
    """Converse of bitmask rows, one set bit at a time."""
    cols = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in bits(row):
            cols[j] |= 1 << i
    return tuple(cols)


def pullback_pairwise(f: FnTable, r: Rel) -> Rel:
    """Inverse image, testing every pair (x, y) for f(x) r f(y)."""
    rows = []
    for i in range(len(f.dom.elements)):
        row = 0
        src = r.rows[f.images[i]]
        for j, v in enumerate(f.images):
            if (src >> v) & 1:
                row |= 1 << j
        rows.append(row)
    return Rel(f.dom, tuple(rows))


def flow_check_pairwise(f: FnTable, pre: Rel, post: Rel) -> Violation | None:
    """First pre-related pair, row-major, whose outputs post does not relate."""
    names = f.dom.elements
    for i, row in enumerate(pre.rows):
        for j in bits(row):
            if not post.holds_idx(f.images[i], f.images[j]):
                return Violation(names[i], names[j],
                                 f.cod.elements[f.images[i]],
                                 f.cod.elements[f.images[j]])
    return None


def compatible_extension_pairwise(q: Rel) -> Rel:
    """Relates x, y when their q-rows share a bit, tested pair by pair."""
    rows = tuple(
        sum(1 << j for j in range(len(q.rows)) if q.rows[i] & q.rows[j])
        for i in range(len(q.rows)))
    return Rel(q.carrier, rows)


def block_steps_pairwise(carrier: Poset, block_masks) -> list[int]:
    """Block b1 steps to b2 when a member of b1 is below a member of b2,
    tested for every pair of blocks."""
    k = len(block_masks)
    phi = []
    for b1 in range(k):
        row = 0
        for b2 in range(k):
            if any(carrier.rows[x] & block_masks[b2]
                   for x in bits(block_masks[b1])):
                row |= 1 << b2
        phi.append(row)
    return phi


def monotone_witness_pairwise(f: FnTable) -> tuple[str, str] | None:
    """First pair (x, y), row-major, with x <= y but f(x) not <= f(y),
    tested pair by pair."""
    for i in range(len(f.dom.elements)):
        for j in bits(f.dom.rows[i]):
            if not f.cod.leq_idx(f.images[i], f.images[j]):
                return f.dom.elements[i], f.dom.elements[j]
    return None


def is_chain_pairwise(rows) -> bool:
    """Every two indices are related one way or the other, pair by pair."""
    n = len(rows)
    return all((rows[a] >> b) & 1 or (rows[b] >> a) & 1
               for a in range(n) for b in range(n))


def strict_pairs_pairwise(p: Poset) -> list[tuple[int, int]]:
    """Related pairs i != j, row-major, tested pair by pair."""
    n = len(p.elements)
    return [(i, j) for i in range(n) for j in range(n)
            if i != j and p.leq_idx(i, j)]


# --- workspace text format -------------------------------------------


def tokenize_scanner(source: str) -> list[tuple[str, int, int]]:
    """(text, line, col) of each token, by scanning character by
    character: the reader's tokenizer before it became one regular
    expression, kept as its oracle.  ``<=`` is a token even inside a
    run, each of ``{ } ; : , =`` is a token, and whitespace separates."""
    reserved = set("{};:,=")
    tokens = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        i = 0
        word = ""
        word_col = 0

        def flush() -> None:
            nonlocal word
            if word:
                tokens.append((word, lineno, word_col))
                word = ""

        while i < len(line):
            ch = line[i]
            if ch == "<" and line[i + 1:i + 2] == "=":
                flush()
                tokens.append(("<=", lineno, i + 1))
                i += 2
                continue
            if ch.isspace() or ch in reserved:
                flush()
                if ch in reserved:
                    tokens.append((ch, lineno, i + 1))
            else:
                if not word:
                    word_col = i + 1
                word += ch
            i += 1
        flush()
    return tokens


def entries_walker(p, ops, sep):
    """``cli._entries`` as a pure token walk, about five parser calls
    per entry; the oracle for its slice path, which must read every body
    as this does, errors and positions included.  Yields (a, op, b) with
    the parser just past b."""
    while p.peek() != "}":
        a = p.name("element name")
        op = p.expect(*ops)
        yield a, op, p.name("element name")
        if p.peek() == sep:
            p.expect(sep)
    p.expect("}")


# --- strategies -------------------------------------------------------


@st.composite
def posets(draw, max_size=5):
    """Random poset: upper-triangular covers, so acyclic by construction."""
    n = draw(st.integers(1, max_size))
    names = tuple(f"e{i}" for i in range(n))
    covers = [(names[i], names[j])
              for j in range(n) for i in range(j) if draw(st.booleans())]
    return build_poset(names, covers)


@st.composite
def equivalences(draw, carrier: Poset):
    n = len(carrier.elements)
    blocks_of = []
    nblocks = 0
    for _ in range(n):
        b = draw(st.integers(0, nblocks))
        blocks_of.append(b)
        nblocks = max(nblocks, b + 1)
    blocks = [[] for _ in range(nblocks)]
    for i, b in enumerate(blocks_of):
        blocks[b].append(carrier.elements[i])
    return equivalence_from_blocks(carrier, blocks)


@st.composite
def preorders(draw, carrier: Poset):
    """Arbitrary preorder, not necessarily containing the carrier order."""
    n = len(carrier.elements)
    extra = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=2 * n))
    return close(rel_of_pairs(carrier, extra), "refl_trans")


@st.composite
def complete_preorders(draw, carrier: Poset):
    return close(union(draw(preorders(carrier)), order_rel(carrier)),
                 "refl_trans")


@st.composite
def seeded(draw):
    """A ``random.Random`` built from a drawn seed, for inputs too large
    to draw element by element."""
    return random.Random(draw(st.integers(0, 2 ** 32 - 1)))


def random_poset(rng: random.Random, n: int) -> Poset:
    """n points with upper-triangular covers at a random density, from
    an antichain to dense orders."""
    names = tuple(f"e{i}" for i in range(n))
    density = rng.choice((0.0, 1.0 / n, 4.0 / n, 0.05))
    covers = [(names[i], names[j])
              for j in range(n) for i in range(j) if rng.random() < density]
    return build_poset(names, covers)


def random_rows(rng: random.Random, n: int) -> tuple[int, ...]:
    """Arbitrary rows: sparse, half-dense or near-full."""
    kind = rng.randrange(3)
    out = []
    for _ in range(n):
        row = rng.getrandbits(n)
        if kind == 0:
            row &= rng.getrandbits(n) & rng.getrandbits(n)
        elif kind == 2:
            row |= rng.getrandbits(n)
        out.append(row)
    return tuple(out)


def random_equivalence(rng: random.Random, carrier: Poset) -> Rel:
    n = len(carrier.elements)
    k = rng.randint(1, n)
    labels = [rng.randrange(k) for _ in range(n)]
    masks: dict[int, int] = {}
    for x, b in enumerate(labels):
        masks[b] = masks.get(b, 0) | (1 << x)
    return Rel(carrier, tuple(masks[b] for b in labels))


def random_preorder(rng: random.Random, carrier: Poset) -> Rel:
    """Closure of a few random pairs, sometimes over the carrier order."""
    n = len(carrier.elements)
    rows = [0] * n
    for _ in range(rng.randrange(2 * n)):
        rows[rng.randrange(n)] |= 1 << rng.randrange(n)
    r = close(Rel(carrier, tuple(rows)), "refl_trans")
    if rng.random() < 0.5:
        r = close(union(r, order_rel(carrier)), "refl_trans")
    return r


@lru_cache(maxsize=None)
def _monotone_cache(dom: Poset, cod: Poset) -> tuple[FnTable, ...]:
    return tuple(iter_monotone_tables(dom, cod))


@st.composite
def monotone_fns(draw, dom: Poset, cod: Poset):
    return draw(st.sampled_from(_monotone_cache(dom, cod)))


@st.composite
def fn_between_family(draw, max_size=4):
    dom = draw(st.sampled_from([p for p in FAMILY
                                if len(p.elements) <= max_size]))
    cod = draw(st.sampled_from([p for p in FAMILY
                                if len(p.elements) <= max_size]))
    return draw(monotone_fns(dom, cod))
