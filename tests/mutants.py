"""Hand-made mutants of the library, each killed by the tests named with
it when it was first run; ``tests/run_mutants.py`` runs them again.

Plain data, not collected by pytest.  Each entry is ``(file, old, new,
tests)``: ``file`` is relative to the repository root, ``old`` occurs
exactly once in it (``tests/test_mutants.py`` checks that), ``new``
replaces it, and ``tests`` are pytest node ids of which at least one
must fail on the mutated copy.
"""

MONOTONE_TABLES = ["tests/test_poset.py::TestEnumeration",
                   "tests/test_loci.py::TestMonotonePostprocessor"]
COMPOSE = ["tests/test_kernels.py::test_compose_rows_matches_pair_sets",
           "tests/test_kernels.py::"
           "test_compose_rows_matches_pair_sets_on_nested_shapes"]
CLOSED_SUPERSETS = [
    "tests/test_loci.py::TestEnumeration::"
    "test_matches_warshall_oracle_in_order",
    "tests/test_loci.py::TestEnumeration::"
    "test_inclusions_keep_exactly_the_decided_pairs"]
MATRIX_KEY = ["tests/test_kernels.py::test_matrix_key_orders_as_bit_tuple",
              "tests/test_loci.py::TestEnumeration::"
              "test_loi_on_discrete_matches_sorted_partitions"]
TOKENS = ["tests/test_format.py::test_tokenizer_matches_character_scanner"]
EM_ROWS = ["tests/test_powerdomain.py::TestRowUnionsAgainstPairSets::"
           "test_em_rows_on_raw_relations",
           "tests/test_kernels.py::"
           "test_em_rows_match_the_converse_route_on_raw_rows",
           "tests/test_kernels.py::"
           "test_em_rows_match_the_converse_route_on_plotkin_masks"]
BROKEN_ROWS = ["tests/test_kernels.py::test_flow_check_matches_pairwise",
               "tests/test_tini.py::TestObserverSearch"]
GROWTH_WALK = ["tests/test_loci.py::TestEnumeration::"
               "test_completions_of_one_block_follow_bell",
               "tests/test_loci.py::TestEnumeration::"
               "test_cut_walk_is_the_uncut_walk_filtered",
               "tests/test_tini.py::TestObserverSearch"]
ENTRIES = ["tests/test_format.py::"
           "test_entry_bodies_read_as_the_walker_reads_them",
           "tests/test_cli.py::TestParse::test_errors_carry_positions"]
EXPORT_REL = ["tests/test_format.py::test_relations_export_by_generators",
              "tests/test_format.py::test_random_workspaces_round_trip"]
COMPATIBLE_ROWS = [
    "tests/test_kernels.py::"
    "test_compatible_rows_group_points_by_the_tops_above_them",
    "tests/test_kernels.py::test_quotient_readers_match_their_definitions",
    "tests/test_tini.py::TestCompatibleExtension"]
QUOTIENT = ["tests/test_kernels.py::test_preorder_quotient_of_fixed_rows",
            "tests/test_kernels.py::test_preorder_quotient_matches_pairwise"]
REL_VALIDATION = "tests/test_relation.py::TestValidation"
REL_SHAPE = "tests/test_relation.py::test_matrix_shape_validated"
EQUIVALENCE = [
    "tests/test_kernels.py::test_equivalence_classes_match_pairwise",
    "tests/test_kernels.py::test_equivalence_classes_refuse_near_misses",
    "tests/test_kernels.py::test_equivalence_classes_at_3000_points",
    "tests/test_relation.py::test_is_equivalence_matches_pair_sets"]
SUBCOMMAND_OPTIONS = [
    "tests/test_cli.py::test_subcommands_list_every_option_of_the_parser"]
# the subcommand table from the enumerate --cap default to the
# powerdomain one, with {} where each default stands
CAPS = ('default={}))]),\n'
        '    "hasse": (_cmd_hasse, "DOT drawing of a poset or a preorder\'s '
        'blocks", [\n'
        '        _POSET, ("--rel", dict()),\n'
        '        ("--full", dict(action="store_true",\n'
        '                        help="all order pairs, not just covers"))]),\n'
        '    "powerdomain": (_cmd_powerdomain,\n'
        '                    "convex powerdomain of a poset, as a declaration",'
        ' [\n'
        '        _POSET, ("--cap", dict(type=int, default={}))]),\n')

MUTANTS = [
    # _monotone_tables: an earlier image below the position is a lower
    # bound (its up-set), one above it an upper bound (its down-set)
    ("src/infolat/poset.py",
     "            mask &= cod.rows[images[q]]\n"
     "        for q in bits(dom.rows[pos] & earlier):\n"
     "            mask &= cod.cols[images[q]]\n",
     "            mask &= cod.cols[images[q]]\n"
     "        for q in bits(dom.rows[pos] & earlier):\n"
     "            mask &= cod.rows[images[q]]\n",
     MONOTONE_TABLES),
    # _monotone_tables: the position fixed last left out of ``earlier``
    ("src/infolat/poset.py",
     "        earlier = (1 << pos) - 1\n",
     "        earlier = (1 << pos - 1) - 1\n",
     MONOTONE_TABLES),
    # _monotone_tables: earlier positions above the current one unchecked,
    # which no domain declared in an order extending its order can show
    ("src/infolat/poset.py",
     "        for q in bits(dom.rows[pos] & earlier):\n"
     "            mask &= cod.cols[images[q]]\n",
     "",
     ["tests/test_poset.py::TestEnumeration::"
      "test_matches_pairwise_oracle_when_index_order_is_not_the_order",
      "tests/test_loci.py::TestMonotonePostprocessor::"
      "test_matches_pairwise_oracle_when_index_order_is_not_the_order"]),
    # image_rows: a later member of a fibre overwrites the earlier ones
    ("src/infolat/poset.py",
     "        out[v] |= row\n",
     "        out[v] = row\n",
     ["tests/test_kernels.py::test_image_rows_matches_pair_sets",
      "tests/test_acceptance.py"]),
    # pull_rows: no value counts as hit, so every row is emptied
    ("src/infolat/poset.py",
     "        hit |= 1 << v\n",
     "        hit |= 0\n",
     ["tests/test_kernels.py::test_pull_rows_matches_pair_sets"]),
    # product: clashing pair names left without a suffix
    ("src/infolat/poset.py",
     '    names = unique_names(f"{x}.{y}" for x in a.elements '
     'for y in b.elements)\n',
     '    names = tuple(f"{x}.{y}" for x in a.elements '
     'for y in b.elements)\n',
     ["tests/test_poset.py::TestCombinators::"
      "test_product_suffixes_clashing_pair_names"]),
    # row_covers: the strict order, not its covers
    ("src/infolat/poset.py",
     "for j in bits(up & ~skip)]",
     "for j in bits(up)]",
     ["tests/test_kernels.py::test_covers_match_pairwise",
      "tests/test_poset.py::TestConstruction"]),
    # preorder_quotient: classes in row_runs order, decreasing value,
    # not by least member
    ("src/infolat/poset.py",
     "    classes = sorted(runs)",
     "    classes = runs[::-1]",
     [*QUOTIENT, "tests/test_kernels.py::test_ordered_partition_block_rows",
      "tests/test_relation.py::TestOrderedPartition"]),
    # preorder_quotient: classes numbered in increasing value
    ("src/infolat/poset.py",
     "    classes = sorted(runs)",
     "    classes = runs",
     QUOTIENT),
    # preorder_quotient: the reflexivity check dropped
    ("src/infolat/poset.py",
     "        if mask | row != row:\n"
     "            return None\n",
     "",
     QUOTIENT),
    # preorder_quotient: a jump that skips its check
    ("src/infolat/poset.py",
     "            if sub | row != row:\n"
     "                return None\n",
     "",
     QUOTIENT),
    # preorder_quotient: distinct rows walked in decreasing value, so a
    # jump reads the block row of a class not yet done
    ("src/infolat/poset.py",
     "    for run in runs:\n"
     "        row, b, mask = rows[run[0]], labels[run[0]], 0\n",
     "    for run in reversed(runs):\n"
     "        row, b, mask = rows[run[0]], labels[run[0]], 0\n",
     QUOTIENT),
    # preorder_quotient: a row's own class left pending, so the jump to
    # a member reads its unfinished block row and settles the whole row
    ("src/infolat/poset.py",
     "row & ~mask\n",
     "row\n",
     QUOTIENT),
    # compatible_rows: every block taken for a top, which gives the same
    # rows from every up-set instead of the maximal blocks alone
    ("src/infolat/poset.py",
     "        if row == 1 << b:\n",
     "        if row & 1 << b:\n",
     [COMPATIBLE_ROWS[0]]),
    # compatible_rows: two tops taken for a lone top, so every row full
    ("src/infolat/poset.py",
     "    if not tops & (tops - 1):\n",
     "    if tops.bit_count() <= 2:\n",
     COMPATIBLE_ROWS),
    # compatible_rows: a group's first point left out of the down-sets
    ("src/infolat/poset.py",
     "        for x in run:\n"
     "            mask |= 1 << x\n",
     "        for x in run[1:]:\n"
     "            mask |= 1 << x\n",
     COMPATIBLE_ROWS),
    # compatible_rows: a group's row only the down-set of its first top
    ("src/infolat/poset.py",
     "            row |= down[low.bit_length() - 1]\n"
     "            pending ^= low\n",
     "            row |= down[low.bit_length() - 1]\n"
     "            pending = 0\n",
     COMPATIBLE_ROWS),
    # kernel_rows: each row only its label's bit, not its class's members,
    # which er shows on a preorder with a class of two or more
    ("src/infolat/poset.py",
     "    masks = fibres(labels, k)\n",
     "    masks = [1 << b for b in range(k)]\n",
     [COMPATIBLE_ROWS[1], "tests/test_loci.py::TestGaloisRoundTrip"]),
    # _discrete: a block taken for discrete when it is merely below
    # itself, so every preorder is taken for an equivalence
    ("src/infolat/relation.py",
     "row == 1 << b",
     "row & 1 << b",
     EQUIVALENCE),
    # _discrete: the labels read in place of the block rows
    ("src/infolat/relation.py",
     "enumerate(quotient[2])",
     "enumerate(quotient[0])",
     EQUIVALENCE),
    # Rel.is_preorder: reflexive rows taken for a preorder
    ("src/infolat/relation.py",
     "        return self._quotient is not None\n",
     "        return self.is_reflexive\n",
     ["tests/test_kernels.py::"
      "test_format_relation_matches_the_partition_route"]),
    # _completions: T's two terms swapped, m·T(r−1, m+1) + T(r−1, m)
    ("src/infolat/loci.py",
     "[m * prev[m] + prev[m + 1] for m in",
     "[prev[m] + m * prev[m + 1] for m in",
     GROWTH_WALK),
    # _growth_walk: the observer cut taken one position late, its
    # completions counted from the next position, T(r − 1, m) for T(r, m)
    ("src/infolat/loci.py",
     "            rank += table[n - 1 - p][m]\n",
     "            rank += table[n - 2 - p][m]\n",
     GROWTH_WALK),
    # _growth_walk: no cut at the last position, where a cut taken one
    # position late has no next position to act at
    ("src/infolat/loci.py",
     "        elif cut is not None and cut[p] & blocks[b]:\n",
     "        elif cut is not None and p < n - 1 and cut[p] & blocks[b]:\n",
     GROWTH_WALK),
    # the observer search: image rows of the codomain values reversed
    ("src/infolat/tini.py",
     "g.images, k) for g in",
     "g.images, k)[::-1] for g in",
     ["tests/test_tini.py::TestObserverSearch"]),
    # compose_rows: rows fewer than the table left unpadded, so a bit past
    # the last row reads outside them; this breaks plotkin, whose
    # Egli-Milner table has two rows per base point
    ("src/infolat/poset.py",
     "    if n < len(table):\n",
     "    if False:\n",
     COMPOSE + EM_ROWS),
    # compose_rows: a jump on an equal row, which is not done yet; this
    # breaks plotkin
    ("src/infolat/poset.py",
     "if sub | row == row and sub != row:",
     "if sub | row == row:",
     COMPOSE),
    # compose_rows: the results of the padding rows returned as well;
    # this breaks plotkin too
    ("src/infolat/poset.py",
     "    return tuple(out[:n])\n",
     "    return tuple(out)\n",
     COMPOSE + EM_ROWS),
    # close_rows: of a component of several rows, only its root gets the
    # closed row; the others stay open
    ("src/infolat/poset.py",
     "                    for w in stack[low - 1:]:\n"
     "                        out[w] = acc\n",
     "                    out[v] = acc\n",
     ["tests/test_kernels.py::test_close_rows_matches_warshall"]),
    # close_rows: an open row treated as closed, its negative depth
    # ORed in; the fixed cycles fail at once, and the Warshall test loops
    ("src/infolat/poset.py",
     "                if done > 0:\n",
     "                if done:\n",
     ["tests/test_kernels.py::test_close_rows_of_fixed_cycles",
      "tests/test_kernels.py::test_close_rows_matches_warshall"]),
    # close_rows: a finished row does not hand its low to its parent
    ("src/infolat/poset.py",
     "            if child_low < low:\n"
     "                low = child_low\n",
     "",
     ["tests/test_kernels.py::test_close_rows_matches_warshall"]),
    # transpose: rows as wide as their number, not n, so an m x n
    # matrix gives m columns, each misread
    ("src/infolat/poset.py",
     '    width = f"0{n}b"\n',
     '    width = f"0{len(rows)}b"\n',
     ["tests/test_kernels.py::test_transpose_matches_pairwise"] + EM_ROWS),
    # transpose: the rows taken first to last, so row i lands at bit
    # m-1-i of each column
    ("src/infolat/poset.py",
     "for row in reversed(rows)]",
     "for row in rows]",
     ["tests/test_kernels.py::test_transpose_matches_pairwise"] + EM_ROWS),
    # _em_rows: the second clause dropped, so Y need not meet r(x) for
    # each x in X
    ("src/infolat/powerdomain.py",
     "points & ~up | x << n for x, up in",
     "points & ~up for x, up in",
     EM_ROWS),
    # _em_rows: the masks that meet r(x) taken for those that miss it
    ("src/infolat/powerdomain.py",
     "misses = [full & ~meets for meets in",
     "misses = [meets for meets in",
     EM_ROWS),
    # _em_rows: the two halves of the table swapped
    ("src/infolat/powerdomain.py",
     "[*members, *misses]",
     "[*misses, *members]",
     EM_ROWS),
    # rows_transitive: a row equal to its jump target clears every bit
    ("src/infolat/poset.py",
     "            if sub == row:\n"
     "                pending ^= low\n",
     "            if sub == row:\n"
     "                pending = 0\n",
     ["tests/test_kernels.py::test_rows_transitive_matches_pairwise",
      "tests/test_kernels.py::test_is_transitive_matches_pairwise"]),
    # rows_transitive: a jump that skips its check
    ("src/infolat/poset.py",
     "            if sub | row != row:\n"
     "                return False\n",
     "",
     ["tests/test_kernels.py::test_rows_transitive_matches_pairwise",
      "tests/test_kernels.py::test_is_transitive_matches_pairwise"]),
    # preorder_cols: a class's down-set without what was pushed to it
    ("src/infolat/poset.py",
     "            down |= 1 << m | pushed[m]\n",
     "            down |= 1 << m\n",
     ["tests/test_kernels.py::test_preorder_cols_matches_pairwise"]),
    # preorder_cols: the class itself left in the pending mask
    ("src/infolat/poset.py",
     "        pending = rows[run[0]] & ~down\n",
     "        pending = rows[run[0]]\n",
     ["tests/test_kernels.py::test_preorder_cols_matches_pairwise"]),
    # row_runs: runs in increasing value
    ("src/infolat/poset.py",
     "key=key, reverse=True)",
     "key=key)",
     ["tests/test_kernels.py::test_row_runs_group_equal_rows",
      "tests/test_kernels.py::test_preorder_cols_matches_pairwise"]),
    # broken_rows: the pairs that keep the flow taken for those that
    # break it
    ("src/infolat/poset.py",
     "row & ~ok for row, ok in",
     "row & ok for row, ok in",
     BROKEN_ROWS),
    # broken_rows: the precondition pulled back in place of the
    # postcondition
    ("src/infolat/poset.py",
     "pull_rows(post, images)",
     "pull_rows(pre, images)",
     BROKEN_ROWS),
    # monotone_witness: the highest broken bit of the first broken row,
    # not the lowest
    ("src/infolat/poset.py",
     "        j = (row & -row).bit_length() - 1\n",
     "        j = row.bit_length() - 1\n",
     ["tests/test_kernels.py::test_monotone_witness_matches_pairwise"]),
    # _closed_supersets: no AND of the earlier rows that hold i
    ("src/infolat/loci.py",
     "                        common &= r\n",
     "                        common &= -1\n",
     CLOSED_SUPERSETS),
    # _closed_supersets: a child pushed with all ones in place of the
    # common its parent computed for its row
    ("src/infolat/loci.py",
     "for r in tail]), i, bit_j << 1, common))",
     "for r in tail]), i, bit_j << 1, -1))",
     CLOSED_SUPERSETS),
    # _closed_supersets: row i's test one column off
    ("src/infolat/loci.py",
     "if add & ~(common & (row | -bit_j)):",
     "if add & ~(common & (row | -(bit_j << 1))):",
     CLOSED_SUPERSETS),
    # _matrix_key: the bits of each byte left in their order, bit 7 first
    ("src/infolat/loci.py",
     "for row in rows]).translate(_REVERSED_BITS)",
     "for row in rows])",
     MATRIX_KEY),
    # _matrix_key: a row's high byte first; alike below 9 points, where a
    # row is one byte
    ("src/infolat/loci.py",
     'row.to_bytes(width, "little")',
     'row.to_bytes(width, "big")',
     MATRIX_KEY),
    # _matrix_key: each row's width rounded down to whole bytes; only the
    # kernel test, since tests/test_loci.py enumerates at import and so
    # would stop at collection
    ("src/infolat/loci.py",
     "    width = (len(rows) + 7) // 8\n",
     "    width = len(rows) // 8\n",
     MATRIX_KEY[:1]),
    # _token_texts: "<=" left split as "<" and "="
    ("src/infolat/cli.py",
     '    return source.replace("< =", " <= ").split()\n',
     "    return source.split()\n",
     TOKENS),
    # _position: lines broken only at "\n", not at every line break
    ("src/infolat/cli.py",
     '    lines = (source[:start] + "x").splitlines()\n',
     '    lines = (source[:start] + "x").split("\\n")\n',
     TOKENS),
    # _position: columns counted from 0
    ("src/infolat/cli.py",
     "    return len(lines), len(lines[-1])\n",
     "    return len(lines), len(lines[-1]) - 1\n",
     TOKENS),
    # _position: every token searched from the start of the source
    ("src/infolat/cli.py",
     "source.index(text, end)",
     "source.index(text)",
     TOKENS),
    # _position: no sentinel, so a line that ends right before the token
    # is lost (and the first token has no line at all)
    ("src/infolat/cli.py",
     '    lines = (source[:start] + "x").splitlines()\n',
     "    lines = source[:start].splitlines()\n",
     TOKENS),
    # _position: the token before token k found instead of token k
    ("src/infolat/cli.py",
     "    for text in texts[:k + 1]:\n",
     "    for text in texts[:k]:\n",
     TOKENS),
    # _parse_poset: the token that ends an element list left unchecked,
    # so any stop token ends it as ";" does
    ("src/infolat/cli.py",
     '    if p.peek() != ";":\n'
     '        p.name("element name")\n',
     "",
     ["tests/test_cli.py::TestParse::test_errors_carry_positions"]),
    # _entries: the parser moved past an entry only after its consumer ran
    ("src/infolat/cli.py",
     "        p.pos = i\n"
     "        yield a, op, b\n",
     "        yield a, op, b\n"
     "        p.pos = i\n",
     ENTRIES),
    # _entries: after a separator, the checking reads start at it
    ("src/infolat/cli.py",
     "            p.pos = i\n"
     "            a, op, b = (",
     "            a, op, b = (",
     ENTRIES),
    # _entries: the right name of an entry read without its check
    ("src/infolat/cli.py",
     "                and (b := tokens[i + 2]) not in _NOT_NAMES):",
     "                and (b := tokens[i + 2]) is not None):",
     ENTRIES),
    # _parse_rel: an equiv body's "<=" entries read one way only
    ("src/infolat/cli.py",
     '        if both or op == "~":\n',
     '        if op == "~":\n',
     ["tests/test_format.py::"
      "test_equiv_bodies_read_as_their_equivalence_closure"]),
    # export_rel: the last member of each class not exported
    ("src/infolat/cli.py",
     "for x in block[1:]]",
     "for x in block[1:-1]]",
     EXPORT_REL),
    # export_rel: a preorder that is not symmetric exported as kind=equiv
    ("src/infolat/cli.py",
     '        kind = "preorder" if covers else "equiv"\n',
     '        kind = "equiv"\n',
     EXPORT_REL),
    # export_rel: the block covers of a preorder dropped
    ("src/infolat/cli.py",
     "        entries += [f\"{blocks[i][0]} <= {blocks[j][0]}\""
     " for i, j in covers]\n",
     "",
     EXPORT_REL),
    # Rel: the range test one bit too wide, so a row holding bit n passes
    ("src/infolat/relation.py",
     "            if row >> n:\n",
     "            if row >> (n + 1):\n",
     [REL_SHAPE, REL_VALIDATION]),
    # Poset: the same range test one bit too wide
    ("src/infolat/poset.py",
     "            if row >> n:\n",
     "            if row >> (n + 1):\n",
     ["tests/test_poset.py::TestConstruction::"
      "test_raw_rows_are_range_checked", REL_VALIDATION]),
    # FnTable: an image equal to the codomain's size let through
    ("src/infolat/poset.py",
     "            if not 0 <= v < k:\n",
     "            if not 0 <= v <= k:\n",
     ["tests/test_poset.py::TestFnTable::"
      "test_direct_construction_checks_images"]),
    # Rel.__init__: the validation hook not called, so nothing is checked
    # and a wrapper on the hook counts no build
    ("src/infolat/relation.py",
     "        self.__post_init__()\n",
     "",
     [REL_SHAPE, REL_VALIDATION]),
    # is_complete_preorder: the carrier's down-sets taken for its up-sets
    ("src/infolat/relation.py",
     "c | r == r for c, r in zip(q.carrier.rows, q.rows)",
     "c | r == r for c, r in zip(q.carrier.cols, q.rows)",
     ["tests/test_loci.py::TestCompleteness"]),
    # build_poset: the name check dropped, so an unknown endpoint hides an
    # empty carrier or a duplicate name
    ("src/infolat/poset.py",
     "    if not elems or len(index) < len(elems):\n"
     "        _check_names(elems)\n",
     "",
     ["tests/test_poset.py::TestConstruction::"
      "test_name_errors_come_before_unknown_endpoints"]),
    # _build_argparser: every subcommand given the same handler
    ("src/infolat/cli.py",
     "        p.set_defaults(handler=handler)\n",
     "        p.set_defaults(handler=_cmd_check)\n",
     ["tests/test_cli.py::TestRun"]),
    # _build_argparser: the last option of each subcommand dropped
    ("src/infolat/cli.py",
     "        for flag, keywords in options:\n",
     "        for flag, keywords in options[:-1]:\n",
     SUBCOMMAND_OPTIONS),
    # the subcommand table: the enumerate and powerdomain --cap defaults
    # swapped
    ("src/infolat/cli.py",
     CAPS.format("DEFAULT_ENUMERATION_CAP", "DEFAULT_POWERDOMAIN_CAP"),
     CAPS.format("DEFAULT_POWERDOMAIN_CAP", "DEFAULT_ENUMERATION_CAP"),
     ["tests/test_cli.py::test_cap_defaults_are_the_library_defaults"]),
    # _build_argparser: the common options left off every subcommand
    ("src/infolat/cli.py",
     "parents=[common], ",
     "",
     SUBCOMMAND_OPTIONS),
    # phi_realisability: a block cycle reported as realisable, so φ
    # disagrees with er(cp(r)) == r
    ("src/infolat/loci.py",
     "RealisabilityResult(False, cycle=cycle)",
     "RealisabilityResult(True, cycle=cycle)",
     ["tests/test_loci.py::TestRealisability::"
      "test_phi_agrees_with_galois_test"]),
    # Poset validation: equal rows looked for among declared neighbours,
    # not sorted ones, so a two-element cycle hides in some orders
    ("src/infolat/poset.py",
     "        ordered = sorted(self.rows)\n",
     "        ordered = self.rows\n",
     ["tests/test_declaration_order.py::"
      "test_declaration_order_changes_no_verdict"]),
]
