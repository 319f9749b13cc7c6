"""Independent reference answers for the benchmark's output checks.

Everything here works on plain Python data: element indices, image
tuples and sets of ``(i, j)`` index pairs.  Nothing is imported from the
library, so a check compares the library against a second, slower
definition rather than against itself.
"""

from itertools import product as cartesian

# OEIS A000798: preorders (complete preorders on a discrete carrier)
PREORDER_COUNTS = {1: 1, 2: 4, 3: 29, 4: 355, 5: 6942, 6: 209527}
# OEIS A000110: Bell numbers (equivalence relations)
BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877}


def pairs_of(rows):
    """Bitmask rows -> set of (i, j) index pairs."""
    return {(i, j) for i, row in enumerate(rows)
            for j, bit in enumerate(bin(row)[:1:-1]) if bit == "1"}


def up_sets(pairs, n):
    ups = [set() for _ in range(n)]
    for i, j in pairs:
        ups[i].add(j)
    return ups


def closure(pairs, n):
    """Reflexive-transitive closure (Warshall over successor bitmasks)."""
    reach = [1 << i for i in range(n)]
    for i, j in pairs:
        reach[i] |= 1 << j
    for k in range(n):
        bit, via = 1 << k, reach[k]
        for i in range(n):
            if reach[i] & bit:
                reach[i] |= via
    return pairs_of(reach)


def symmetric(pairs):
    return pairs | {(j, i) for i, j in pairs}


def is_preorder(pairs, n):
    return all((i, i) in pairs for i in range(n)) and closure(pairs, n) == pairs


def is_equivalence(pairs, n):
    return is_preorder(pairs, n) and symmetric(pairs) == pairs


def kernel(images):
    n = len(images)
    return {(i, j) for i in range(n) for j in range(n) if images[i] == images[j]}


def pullback(images, rel):
    n = len(images)
    return {(i, j) for i in range(n) for j in range(n)
            if (images[i], images[j]) in rel}


def image_pairs(images, rel):
    return {(images[i], images[j]) for i, j in rel}


def pushforward(images, rel, k):
    """Least equivalence on the codomain containing the image pairs."""
    return closure(symmetric(image_pairs(images, rel)), k)


def loci_pushforward(images, rel, cod_order, k):
    """Least complete preorder on the codomain containing the image pairs."""
    return closure(image_pairs(images, rel) | cod_order, k)


def compatible_extension(pairs, n):
    """x, y related when they share an upper bound."""
    ups = [frozenset(u) for u in up_sets(pairs, n)]
    return {(i, j) for i in range(n) for j in range(n)
            if not ups[i].isdisjoint(ups[j])}


def first_violation(images, pre, post, n):
    """First pre-related (i, j), row-major, whose images are not post-related."""
    for i in range(n):
        for j in range(n):
            if (i, j) in pre and (images[i], images[j]) not in post:
                return i, j
    return None


def er(pairs):
    return {(i, j) for i, j in pairs if (j, i) in pairs}


def cp(eq, order, n):
    return closure(eq | order, n)


def is_realisable(eq, order, n):
    return er(cp(eq, order, n)) == eq


def blocks(eq, n):
    """Blocks of an equivalence, by least member; members ascending."""
    out = []
    placed = set()
    for i in range(n):
        if i not in placed:
            block = sorted(j for j in range(n) if (i, j) in eq)
            placed.update(block)
            out.append(block)
    return out


def bit_key(rows, n):
    """Row-major matrix bits, as the library orders enumerations."""
    return tuple(row >> j & 1 for row in rows for j in range(n))


def is_preorder_rows(rows):
    return all(row >> i & 1 for i, row in enumerate(rows)) and all(
        rows[j] | row == row
        for row in rows for j in range(len(rows)) if row >> j & 1)


def restricted_growth(n):
    """Block numbers of every partition of n points, lexicographic."""
    out = []

    def rec(prefix, blocks):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for b in range(blocks + 1):
            rec(prefix + [b], max(blocks, b + 1))

    rec([], 0)
    return out


def posets(k):
    """Every partial order on k labelled points, as up-set bitmask rows.

    Adds one point at a time below a down-closed set D and above an
    up-closed set U, with everything in D below everything in U.
    """
    found = [()]
    for m in range(k):
        grown = []
        for rows in found:
            for down in range(1 << m):
                if any(rows[x] & down and not down >> x & 1 for x in range(m)):
                    continue
                for up in range(1 << m):
                    if up & down or any(
                            up >> u & 1 and rows[u] & ~up for u in range(m)):
                        continue
                    if any(down >> d & 1 and up & ~rows[d] for d in range(m)):
                        continue
                    new = tuple(row | (1 << m) if down >> x & 1 else row
                                for x, row in enumerate(rows))
                    grown.append(new + (up | 1 << m,))
        found = grown
    return found


def complete_preorders(order_rows, n):
    """Preorders on n points containing the given order, in library order.

    Every preorder is a partition into blocks plus a partial order on the
    blocks; keep those that contain the carrier order.
    """
    out = []
    by_size = {}
    for labels in restricted_growth(n):
        k = max(labels) + 1
        masks = [0] * k
        for i, b in enumerate(labels):
            masks[b] |= 1 << i
        for block_rows in by_size.setdefault(k, posets(k)):
            rows = []
            for b in labels:
                row = 0
                for b2 in range(k):
                    if block_rows[b] >> b2 & 1:
                        row |= masks[b2]
                rows.append(row)
            if all(r & o == o for r, o in zip(rows, order_rows)):
                out.append(tuple(rows))
    return sorted(out, key=lambda rows: bit_key(rows, n))


def is_monotone(images, dom_order, cod_order):
    return all((images[i], images[j]) in cod_order for i, j in dom_order)


def monotone_tables(dom_order, n, cod_order, k):
    """Every monotone image tuple, lexicographic."""
    return [images for images in cartesian(range(k), repeat=n)
            if is_monotone(images, dom_order, cod_order)]


def first_postprocessor(f_images, g_images, g_order, m, f_order, k):
    """First monotone p (lexicographic) with f = p after g, or None."""
    for p in cartesian(range(k), repeat=m):
        if all(p[g] == f for f, g in zip(f_images, g_images)) \
                and is_monotone(p, g_order, f_order):
            return p
    return None


def convex_masks(order, n):
    """Non-empty convex subsets, lexicographic on membership (element 0 first)."""
    def convex(mask):
        members = [i for i in range(n) if mask >> i & 1]
        return all(mask >> b & 1 for a in members for c in members
                   for b in range(n) if (a, b) in order and (b, c) in order)
    key = lambda m: tuple(m >> i & 1 for i in range(n))
    return sorted((m for m in range(1, 1 << n) if convex(m)), key=key)


def egli_milner(rel, masks):
    """Egli-Milner lifting of ``rel`` to the given subsets, as index pairs."""
    members = [[i for i in range(m.bit_length()) if m >> i & 1] for m in masks]
    out = set()
    for s, xs in enumerate(members):
        for t, ys in enumerate(members):
            if all(any((x, y) in rel for y in ys) for x in xs) and \
               all(any((x, y) in rel for x in xs) for y in ys):
                out.add((s, t))
    return out


# --- text the command-line tool prints --------------------------------------
#
# These take element names and index pairs and rebuild the tool's output
# from the definitions: preorders as blocks plus a block order, Hasse
# diagrams as covering pairs, workspace text as covers, tables and pairs.


def masks_of(pairs, n):
    """Index pairs -> bitmask rows."""
    rows = [0] * n
    for i, j in pairs:
        rows[i] |= 1 << j
    return rows


def covers(order, n):
    """Covering pairs of a partial order, row-major."""
    ups = masks_of(order, n)
    downs = masks_of({(j, i) for i, j in order}, n)
    return [(i, j) for i in range(n) for j in range(n)
            if i != j and (i, j) in order
            and not ups[i] & downs[j] & ~(1 << i | 1 << j)]


def ordered_partition(pairs, n):
    """Mutual classes of a preorder (by least member) and the order on
    them as block index pairs."""
    classes = blocks(er(pairs), n)
    of = [0] * n
    for b, members in enumerate(classes):
        for i in members:
            of[i] = b
    return classes, {(of[i], of[j]) for i, j in pairs}


def label(names, block):
    return "{" + " ".join(names[i] for i in block) + "}"


def render_relation(pairs, names):
    """One-line rendering: blocks of an equivalence, a chain of blocks,
    blocks plus the covers of their order, or the plain pair list."""
    n = len(names)
    if not is_preorder(pairs, n):
        return "pairs: " + " ".join(f"({names[i]},{names[j]})"
                                    for i, j in sorted(pairs))
    classes, order = ordered_partition(pairs, n)
    k = len(classes)
    labels = [label(names, b) for b in classes]
    if len(order) == k:
        return " ".join(labels)
    if len(order) == k * (k + 1) // 2:
        # a chain: lower blocks have more blocks above them
        above = [sum((b, c) in order for c in range(k)) for b in range(k)]
        return " <= ".join(labels[b] for b in sorted(range(k), key=lambda b: -above[b]))
    return " ".join(labels) + " ord: " + ", ".join(
        f"{labels[i]} <= {labels[j]}" for i, j in covers(order, k))


def quote(name):
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot(labels, order, full=False):
    """``digraph`` of a partial order: covering edges, or with ``full``
    every non-reflexive pair; edge lines sorted."""
    edges = [(i, j) for i, j in order if i != j] if full else covers(order, len(labels))
    lines = ["digraph {"] + [f"  {quote(x)};" for x in labels]
    lines += sorted(f"  {quote(labels[i])} -> {quote(labels[j])};" for i, j in edges)
    return "\n".join(lines + ["}"])


def poset_line(name, names, order):
    body = ", ".join(f"{names[i]} <= {names[j]}" for i, j in covers(order, len(names)))
    return f"poset {name} {{ elements: {' '.join(names)} ; order:{f' {body} ' if body else ' '}}}"


def fn_line(name, dom_name, cod_name, dom, cod, images):
    body = " ; ".join(f"{x} -> {cod[images[i]]}" for i, x in enumerate(dom))
    return f"fn {name} : {dom_name} -> {cod_name} {{ {body} }}"


def rel_line(name, carrier_name, names, pairs):
    body = " ; ".join(f"{names[i]} <= {names[j]}" for i, j in sorted(pairs))
    return f"rel {name} on {carrier_name} kind=raw {{{f' {body} ' if body else ' '}}}"


def subset_names(names, masks):
    return ["+".join(names[i] for i in range(len(names)) if m >> i & 1) for m in masks]
