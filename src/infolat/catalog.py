"""Workspaces and the bundled worked examples.

A workspace holds named posets, function tables and relations.  Each
bundle is a workspace with a name and notes that the tests and the CLI
share.  Integer-like carriers take a size parameter n (default 10).
Everything is rebuilt and therefore revalidated on every lookup.
"""

from dataclasses import dataclass, field

from .errors import ValidationError
from .poset import (FnTable, Poset, build_poset, chain, check_monotone,
                    discrete, identity_fn, lift, product)
from .powerdomain import plotkin
from .relation import Rel, equivalence_from_blocks, preorder_from_blocks


@dataclass
class Workspace:
    """Named definitions; names are unique across all three kinds."""

    posets: dict[str, Poset] = field(default_factory=dict)
    functions: dict[str, FnTable] = field(default_factory=dict)
    relations: dict[str, Rel] = field(default_factory=dict)
    name: str = ""
    notes: str = ""

    def _claim(self, name: str) -> None:
        if name in self.posets or name in self.functions or name in self.relations:
            raise ValidationError(f"name {name!r} is already defined")

    def add_poset(self, name: str, p: Poset) -> None:
        self._claim(name)
        self.posets[name] = p

    def add_function(self, name: str, f: FnTable) -> None:
        self._claim(name)
        self.functions[name] = f

    def add_relation(self, name: str, r: Rel) -> None:
        self._claim(name)
        self.relations[name] = r

    def merge(self, other: "Workspace") -> None:
        """Add every definition of ``other``; name and notes stay."""
        for name, p in other.posets.items():
            self.add_poset(name, p)
        for name, f in other.functions.items():
            self.add_function(name, f)
        for name, r in other.relations.items():
            self.add_relation(name, r)


def _vee() -> Workspace:
    v = build_poset(("⊥", "c", "a", "b"), (("⊥", "c"), ("c", "a"), ("c", "b")))
    f1 = check_monotone(v, v, {x: "a" for x in v.elements})
    f2 = check_monotone(v, v, {"⊥": "⊥", "c": "c", "a": "a", "b": "c"})
    return Workspace(
        name="V",
        posets={"V": v},
        functions={"f1": f1, "f2": f2},
        notes=("Four-point domain: bottom below c, with incomparable a and b "
               "above c. f1 is the constant-a map, f2 collapses b onto c; the "
               "ordered kernel of f2 is the chain {⊥} <= {c b} <= {a}."))


def _parity(n: int) -> Workspace:
    z = discrete(str(i) for i in range(n))
    out = lift(discrete(("0", "1")))
    out_str = lift(discrete(("Even", "Odd")))
    f0 = check_monotone(z, out, {str(i): "1" if i % 2 == 0 else "⊥"
                                 for i in range(n)})
    f1 = check_monotone(z, out, {str(i): "1" if i % 2 == 0 else "0"
                                 for i in range(n)})
    f2 = check_monotone(z, out_str, {str(i): "Even" if i % 2 == 0 else "Odd"
                                     for i in range(n)})
    return Workspace(
        name="parity",
        posets={"Z": z, "Out": out, "OutStr": out_str},
        functions={"f0": f0, "f1": f1, "f2": f2},
        notes=("Parity observers on a discrete integer carrier. f0 diverges "
               "on odd inputs, f1 answers 0/1, f2 answers strings; all three "
               "share the even/odd kernel but f0 reveals strictly less "
               "through its ordered kernel."))


def _colours() -> Workspace:
    colour = discrete(("Red", "Orange", "Green", "Blue"))
    booln = discrete(("True", "False"))
    answer = discrete(("PrimaryRed", "PrimaryBlue", "NotPrimary"))
    is_primary = check_monotone(colour, booln, {
        "Red": "True", "Blue": "True", "Orange": "False", "Green": "False"})
    is_traffic = check_monotone(colour, booln, {
        "Red": "True", "Orange": "True", "Green": "True", "Blue": "False"})
    primary = check_monotone(colour, answer, {
        "Red": "PrimaryRed", "Blue": "PrimaryBlue",
        "Orange": "NotPrimary", "Green": "NotPrimary"})
    return Workspace(
        name="colours",
        posets={"Colour": colour, "Bool": booln, "Answer": answer},
        functions={"isPrimary": is_primary, "isTrafficLight": is_traffic,
                   "primary": primary},
        notes=("Unordered running example: primary answers strictly more "
               "than isPrimary and isTrafficLight together; its kernel is "
               "their join."))


def _kite() -> Workspace:
    kite = build_poset(
        ("⊥", "Body⊥⊥", "Body*⊥", "Body⊥*", "Body**", "Tail"),
        (("⊥", "Body⊥⊥"), ("⊥", "Tail"), ("Body⊥⊥", "Body*⊥"),
         ("Body⊥⊥", "Body⊥*"), ("Body*⊥", "Body**"), ("Body⊥*", "Body**")))
    booln = discrete(("True", "False"))
    f = check_monotone(booln, kite, {"True": "Body*⊥", "False": "Body⊥*"})
    g = check_monotone(booln, kite, {"True": "Body*⊥", "False": "Tail"})
    g_flip = check_monotone(booln, kite, {"True": "Body⊥*", "False": "Tail"})
    return Workspace(
        name="kite",
        posets={"Kite": kite, "Bool": booln},
        functions={"f_kite": f, "g_kite": g, "g_kite_flip": g_flip},
        notes=("Six-point codomain with two constructors: a bare Tail and a "
               "Body with two lazily evaluated slots. f_kite leaks only "
               "through slot divergence and passes the termination-"
               "insensitive check; g_kite leaks into the choice of "
               "constructor and fails. No single divergence observer "
               "separates f_kite from both orientations of g_kite."))


def _diamond_counterexample() -> Workspace:
    a = build_poset(("⊥", "0", "1", "2"),
                    (("⊥", "0"), ("⊥", "1"), ("⊥", "2")))
    g = check_monotone(a, a, {"⊥": "⊥", "0": "0", "1": "1", "2": "⊥"})
    q = preorder_from_blocks(a, [["⊥"], ["0"], ["1"], ["2"]],
                             [(0, 1), (0, 2), (1, 3), (2, 3)])
    return Workspace(
        name="diamond-counterexample",
        posets={"A": a},
        functions={"g_dia": g, "id_A": identity_fn(a)},
        relations={"Q_dia": q},
        notes=("Flat three-value carrier with a diamond-shaped complete "
               "preorder Q_dia whose mutual classes are singletons. Q_dia "
               "has a top block, so its compatible extension relates "
               "everything; composing through it defeats the naive "
               "candidate for termination-insensitive checking."))


def _iseven(n: int) -> Workspace:
    nats = discrete(str(i) for i in range(n))
    bool_bot = lift(discrete(("T", "F")))
    two = lift(discrete(("*",)))
    diamond = lift(product(two, two))
    even1 = check_monotone(nats, bool_bot,
                           {str(i): "T" if i % 2 == 0 else "F"
                            for i in range(n)})
    even2 = check_monotone(nats, diamond,
                           {str(i): "*.⊥" if i % 2 == 0 else "⊥.*"
                            for i in range(n)})
    return Workspace(
        name="iseven",
        posets={"N": nats, "Bool_bot": bool_bot, "D": diamond},
        functions={"isEven1": even1, "isEven2": even2},
        notes=("Two parity observers with the same kernel and ordered "
               "kernel, one into lifted booleans and one into the lifted "
               "diamond of lazy pairs. No monotone table recovers isEven1 "
               "from isEven2, but the reverse direction exists: ⊥ -> ⊥, "
               "T -> *.⊥, F -> ⊥.*."))


def _omega(n: int) -> Workspace:
    z = discrete(str(i) for i in range(n))
    omega = chain(tuple(str(i) for i in range(n)) + ("ω",))
    s1 = check_monotone(z, omega,
                        {str(i): "ω" if i == 0 else str(i - 1)
                         for i in range(n)})
    s2 = check_monotone(z, omega,
                        {str(i): "ω" if i == 0 else "0" for i in range(n)})
    return Workspace(
        name="omega",
        posets={"Z": z, "Omega": omega},
        functions={"S1": s1, "S2": s2},
        notes=("Finite truncation of the vertical-natural-numbers codomain: "
               "a chain 0..n-1 with ω on top. S1 reveals its whole input "
               "through the chain, S2 only whether the input was 0. In any "
               "finite truncation a monotone table recovers S2 from S1; the "
               "two only come apart over the infinite chain, which is out "
               "of scope here."))


def _three_chain() -> Workspace:
    c3 = chain(("0", "1", "2"))
    s = equivalence_from_blocks(c3, [["0", "2"], ["1"]])
    return Workspace(
        name="three-chain",
        posets={"C3": c3},
        functions={"id_C3": identity_fn(c3)},
        relations={"S": s},
        notes=("Three-element chain with the unrealisable equivalence that "
               "glues the endpoints across the middle: its completion "
               "collapses to the all-relation, so no monotone table has "
               "this kernel."))


def _nd_bool() -> Workspace:
    booln = discrete(("True", "False"))
    bool_bot = lift(discrete(("T", "F")))
    pbool = plotkin(bool_bot)
    c = check_monotone(booln, pbool, {"True": "⊥+T", "False": "⊥+F"})
    return Workspace(
        name="nd-bool",
        posets={"Bool": booln, "Bool_bot": bool_bot, "PBool": pbool},
        functions={"C": c},
        notes=("Nondeterministic leak: C returns its input or diverges, "
               "modelled in the convex powerdomain of lifted booleans. The "
               "two outputs share the upper bound ⊥+T+F, so C passes the "
               "termination-insensitive check."))


_SIZED = {"parity": _parity, "iseven": _iseven, "omega": _omega}
_FIXED = {
    "V": _vee,
    "colours": _colours,
    "kite": _kite,
    "diamond-counterexample": _diamond_counterexample,
    "three-chain": _three_chain,
    "nd-bool": _nd_bool,
}
# the size of a sized bundle's integer-like carriers unless one is given
DEFAULT_CARRIER_SIZE = 10


def list_examples() -> list[str]:
    return sorted(_SIZED | _FIXED)


def get_example(name: str, n: int = DEFAULT_CARRIER_SIZE) -> Workspace:
    """Build the named bundle; integer-like carriers get size ``n``."""
    if name in _SIZED:
        if n < 2:
            raise ValidationError("carrier size n must be at least 2")
        return _SIZED[name](n)
    if name in _FIXED:
        return _FIXED[name]()
    known = ", ".join(list_examples())
    raise ValidationError(f"unknown example {name!r}; available: {known}")
