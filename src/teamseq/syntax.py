"""Formulas, occurrence paths, sequents, and their text/JSON forms.

The language has a classical core (variables, `bot`, `~`, `&`, and the
split disjunction `|`) extended with a second, global disjunction `||`.
Negation applies to classical formulas only, so `||` never occurs below
`~`; constructors enforce this.

Formulas are hash-consed: each constructor returns the live node of its
type and fields when there is one, so equal formulas are one shared,
immutable node, compared and hashed by identity.  A node's text and
classicality are fixed when it is interned, from its children's, so
reading them never recurses, however deep the formula.

Operator precedence is `~` > `&` > `|` > `||`, binary operators associate
to the right.  `render` emits minimal parentheses and round-trips through
`parse_formula`.  Multisets of formulas are tuples sorted by text.
"""

from __future__ import annotations

import re
import threading
import weakref
from _weakref import _remove_dead_weakref
from bisect import insort
from dataclasses import dataclass, fields
from operator import attrgetter

from .errors import (InvalidPath, NonClassicalNegation, ParseError,
                     nesting_limited)

_VAR_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")


class _NodeRef(weakref.ref):
    """An entry of the node table: a weak reference that knows its key."""

    __slots__ = ("key",)


# (type, *fields) -> a weak reference to the live node of that formula
_NODES: dict[tuple, _NodeRef] = {}
_NODES_LOCK = threading.Lock()


def _forget(ref: _NodeRef) -> None:
    """Drop the entry of a collected node.  The removal is the atomic one
    `WeakValueDictionary` uses: it leaves the entry alone when another
    thread has already replaced the dead reference by a live node's."""
    _remove_dead_weakref(_NODES, ref.key)


class _Interned(type):
    """Metaclass of formula nodes: a constructor call returns the live node
    with the same type and fields, and builds (and validates) a node only
    on a miss."""

    def __call__(cls, *args):
        key = (cls, *args)
        ref = _NODES.get(key)
        node = None if ref is None else ref()
        if node is None:
            with _NODES_LOCK:
                # a second lookup: another thread may have built it meanwhile
                ref = _NODES.get(key)
                node = None if ref is None else ref()
                if node is None:
                    node = super().__call__(*args)
                    # fixed before the node is published, from its children
                    text, classical = _fixed(node)
                    node.__dict__.update(_text=text, _classical=classical)
                    ref = _NodeRef(node, _forget)
                    ref.key = key
                    _NODES[key] = ref
        return node


class Formula(metaclass=_Interned):
    """Base class; concrete nodes are Prop, Bot, Neg, And, Or, Gd.

    Equal formulas are one node: constructors intern every node in a
    weak-value table, under a lock on a miss, so two threads never build
    two nodes for one formula, and a node no longer referenced is
    collected with its table entry.  Nodes are immutable and compare and
    hash by identity, which is sound because every node comes from the
    table.  `copy`, `deepcopy` and `pickle` rebuild a node through its
    constructor, so they return the interned node too.

    The text (`render`) and classicality (`is_classical`) of a node are
    stored in its `__dict__` when it is interned, built from its
    children's stored values, before any other thread can see the node.
    `props`, `gd_sides` (per path), `calculus.actives` and
    `resolutions.resolution_steps` (per target) stay lazy: they cache
    their value in the `__dict__` on first use.  Either way the value is
    outside the dataclass fields, so `repr` is unaffected, and it lives
    exactly as long as the node.  A stored value never holds its own
    node, so the caches make no reference cycle and a node is freed as
    soon as it is unreferenced.
    """

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, eq=False)
class Prop(Formula):
    name: str

    def __post_init__(self):
        # `bot` reads back as the constant, so it names no variable
        if not _VAR_RE.fullmatch(self.name) or self.name == "bot":
            raise ValueError(f"bad variable name: {self.name!r}")


@dataclass(frozen=True, eq=False)
class Bot(Formula):
    pass


@dataclass(frozen=True, eq=False)
class Neg(Formula):
    child: Formula

    def __post_init__(self):
        if not self.child._classical:
            raise NonClassicalNegation(
                f"negation of nonclassical formula: {render(self.child)}")


@dataclass(frozen=True, eq=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Gd(Formula):
    """Global (question-forming) disjunction, written `||`."""

    left: Formula
    right: Formula


_PREC = {Gd: 1, Or: 2, And: 3, Neg: 4, Prop: 5, Bot: 5}
_OPS = {Gd: "||", Or: "|", And: "&"}


def _fixed(f: Formula) -> tuple[str, bool]:
    """The text and the classicality of a node being interned, from the
    values its children got when they were interned: no recursion."""
    match f:
        case Prop(name):
            return name, True
        case Bot():
            return "bot", True
        case Neg(c):
            text = c._text
            if _PREC[type(c)] < _PREC[Neg]:
                text = f"({text})"
            return "~" + text, True
        case And(l, r) | Or(l, r) | Gd(l, r):
            prec = _PREC[type(f)]
            left, right = l._text, r._text
            if _PREC[type(l)] <= prec:
                left = f"({left})"
            if _PREC[type(r)] < prec:
                right = f"({right})"
            return (f"{left} {_OPS[type(f)]} {right}",
                    type(f) is not Gd and l._classical and r._classical)
    raise TypeError(f"not a formula: {f!r}")


BOT = Bot()


def children(f: Formula) -> tuple[Formula, ...]:
    match f:
        case Prop() | Bot():
            return ()
        case Neg(c):
            return (c,)
        case And(l, r) | Or(l, r) | Gd(l, r):
            return (l, r)
    raise TypeError(f"not a formula: {f!r}")


def postorder(root, kids, seen: dict):
    """Each object reachable from `root` through `kids` and not in `seen`,
    children first, left to right, on an explicit stack.  The caller puts
    each object it is handed in `seen`, keyed by `id`, before it asks for
    the next, so an object below two parents (the same one) comes once."""
    if id(root) in seen:
        return
    stack = [(root, iter(kids(root)))]
    while stack:
        node, todo = stack[-1]
        for kid in todo:
            if id(kid) not in seen:
                stack.append((kid, iter(kids(kid))))
                break
        else:
            stack.pop()
            yield node


def is_classical(f: Formula) -> bool:
    """True iff no global disjunction occurs in f; fixed when f was
    interned."""
    return f._classical


def props(f: Formula) -> frozenset[str]:
    cache = f.__dict__
    out = cache.get("_props")
    if out is None:
        if isinstance(f, Prop):
            out = frozenset({f.name})
        else:
            out = frozenset().union(*map(props, children(f)))
        cache["_props"] = out
    return out


def signed_props(f: Formula) -> tuple[frozenset[str], frozenset[str]]:
    """Variables with a positive (even-negation) / negative occurrence."""
    pos: set[str] = set()
    neg: set[str] = set()
    stack = [(f, True)]
    while stack:
        g, parity = stack.pop()
        match g:
            case Prop(name):
                (pos if parity else neg).add(name)
            case Neg(c):
                stack.append((c, not parity))
            case And(l, r) | Or(l, r) | Gd(l, r):
                stack += (r, parity), (l, parity)
    return frozenset(pos), frozenset(neg)


def symbol_count(f: Formula) -> int:
    """Number of atom and connective occurrences (parentheses excluded),
    counted without recursion."""
    out, stack = 0, [f]
    while stack:
        out += 1
        stack.extend(children(stack.pop()))
    return out


# ---------------------------------------------------------------------------
# Occurrence paths

OccurrencePath = tuple  # sequence of child indices; () addresses the root


def subformula_at(f: Formula, path) -> Formula:
    cur = f
    for i, step in enumerate(path):
        kids = children(cur)
        if step < 0 or step >= len(kids):
            raise InvalidPath(f"path {list(path)} invalid at step {i} in {render(f)}")
        cur = kids[step]
    return cur


def substitute_at(f: Formula, path, replacement: Formula) -> Formula:
    """Replace exactly the occurrence addressed by `path` with `replacement`."""
    if not path:
        return replacement
    step, rest = path[0], tuple(path[1:])
    match f:
        case Neg(c):
            if step != 0:
                raise InvalidPath(f"path step {step} at a negation")
            return Neg(substitute_at(c, rest, replacement))
        case And(l, r) | Or(l, r) | Gd(l, r):
            if step == 0:
                l = substitute_at(l, rest, replacement)
            elif step == 1:
                r = substitute_at(r, rest, replacement)
            else:
                raise InvalidPath(f"path step {step} at a binary node")
            return type(f)(l, r)
    raise InvalidPath(f"path descends below a leaf in {render(f)}")


def gd_paths(f: Formula) -> tuple[tuple[int, ...], ...]:
    """Paths of all global-disjunction occurrences, in left-to-right
    (infix-position) order; the k-th path carries label k."""
    out: list[tuple[int, ...]] = []
    stack: list = [(f, ())]  # a formula to walk, or (None, path) to list
    while stack:
        g, prefix = stack.pop()
        if g is None:
            out.append(prefix)
        elif isinstance(g, (And, Or, Gd)):
            stack.append((g.right, prefix + (1,)))
            if isinstance(g, Gd):
                stack.append((None, prefix))
            stack.append((g.left, prefix + (0,)))
    return tuple(out)


def gd_count(f: Formula) -> int:
    return len(gd_paths(f))


def gd_sides(f: Formula, path) -> tuple[Formula, Formula]:
    """`f` with the global disjunction at `path` replaced by its left and by
    its right disjunct: the two premise formulas of a deep rule.  Cached
    on `f` per path; a path that addresses no global disjunction raises
    InvalidPath and caches nothing."""
    key = ("_gd_sides", *path)
    out = f.__dict__.get(key)
    if out is None:
        node = subformula_at(f, path)
        if not isinstance(node, Gd):
            raise InvalidPath(f"path {list(path)} does not address a global "
                              f"disjunction in {render(f)}")
        out = f.__dict__[key] = (substitute_at(f, path, node.left),
                                 substitute_at(f, path, node.right))
    return out


def first_gd(formulas):
    """The first nonclassical formula of a canonical multiset and the path
    of its lowest-labelled global disjunction (the next left deep-rule
    split), or None when every formula is classical."""
    for f in formulas:
        if is_classical(f):
            continue
        # labels run in infix order: a `||` follows those in its left side
        path, g = (), f
        while True:
            if not is_classical(g.left):
                path, g = path + (0,), g.left
            elif isinstance(g, Gd):
                return f, path
            else:
                path, g = path + (1,), g.right
    return None


# ---------------------------------------------------------------------------
# Rendering

def render(f: Formula) -> str:
    """The text of `f`, fixed when f was interned."""
    return f._text


# ---------------------------------------------------------------------------
# Multisets of formulas (canonical sorted tuples)

# tuple[Formula, ...] sorted by text; the sort key is the stored text,
# read by C code, so sorting calls no Python function
Multiset = tuple
_by_text = attrgetter("_text")


def mset(items) -> tuple[Formula, ...]:
    return tuple(sorted(items, key=_by_text))


def mset_add(m, *items) -> tuple[Formula, ...]:
    """The canonical multiset `m` with `items` added, each inserted in
    place."""
    out = list(m)
    for x in items:
        insort(out, x, key=_by_text)
    return tuple(out)


def mset_remove(m, item) -> tuple[Formula, ...]:
    """Remove one occurrence of `item` (must be present)."""
    out = list(m)
    out.remove(item)
    return tuple(out)


def mset_sub(m, other) -> tuple[Formula, ...]:
    """Multiset difference; every element of `other` must occur in `m`."""
    out = list(m)
    for x in other:
        out.remove(x)
    return tuple(out)


def mset_leq(small, big) -> bool:
    """Multiset inclusion."""
    pool = list(big)
    for x in small:
        if x not in pool:
            return False
        pool.remove(x)
    return True


# ---------------------------------------------------------------------------
# Sequents

@dataclass(frozen=True, init=False)
class Sequent:
    ant: tuple[Formula, ...]
    suc: tuple[Formula, ...]

    def __init__(self, ant, suc):
        # a public constructor: it sorts whatever it is given, once
        object.__setattr__(self, "ant", mset(ant))
        object.__setattr__(self, "suc", mset(suc))

    def props(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for f in self.ant + self.suc:
            out |= props(f)
        return out

    def is_classical(self) -> bool:
        return all(is_classical(f) for f in self.ant + self.suc)

    def __str__(self):
        return render_sequent(self)


@dataclass(frozen=True, init=False)
class PartitionSequent:
    gamma1: tuple[Formula, ...]
    gamma2: tuple[Formula, ...]
    delta1: tuple[Formula, ...]
    delta2: tuple[Formula, ...]

    def __init__(self, gamma1, gamma2, delta1, delta2):
        # canonical as in `Sequent`: each block sorted once
        object.__setattr__(self, "gamma1", mset(gamma1))
        object.__setattr__(self, "gamma2", mset(gamma2))
        object.__setattr__(self, "delta1", mset(delta1))
        object.__setattr__(self, "delta2", mset(delta2))

    def flatten(self) -> Sequent:
        return Sequent(self.gamma1 + self.gamma2, self.delta1 + self.delta2)

    def __str__(self):
        return render_partition(self)


def render_sequent(s: Sequent) -> str:
    left = ", ".join(render(f) for f in s.ant)
    right = ", ".join(render(f) for f in s.suc)
    return f"{left} => {right}".strip()


def render_partition(p: PartitionSequent) -> str:
    def side(a, b):
        return f"{', '.join(map(render, a))} ; {', '.join(map(render, b))}"

    return f"{side(p.gamma1, p.gamma2)} => {side(p.delta1, p.delta2)}".strip()


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>=>)|(?P<gd>\|\|)|(?P<or>\|)|(?P<and>&)|(?P<neg>~)"
    r"|(?P<lpar>\()|(?P<rpar>\))|(?P<comma>,)|(?P<semi>;)"
    r"|(?P<word>[A-Za-z][A-Za-z0-9_]*))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r} at {pos}",
                             position=pos)
        kind = m.lastgroup
        value = m.group(m.lastgroup)
        tokens.append((kind, value, m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind} at position {tok[2]}, got {tok[1]!r}",
                             position=tok[2], expected=kind)
        return tok

    # precedence-climbing with right associativity
    def formula(self) -> Formula:
        return self.gd()

    def gd(self) -> Formula:
        left = self.disj()
        if self.peek()[0] == "gd":
            self.next()
            return Gd(left, self.gd())
        return left

    def disj(self) -> Formula:
        left = self.conj()
        if self.peek()[0] == "or":
            self.next()
            return Or(left, self.disj())
        return left

    def conj(self) -> Formula:
        left = self.neg()
        if self.peek()[0] == "and":
            self.next()
            return And(left, self.conj())
        return left

    def neg(self) -> Formula:
        tok = self.peek()
        if tok[0] == "neg":
            self.next()
            child = self.neg()
            if not is_classical(child):
                raise NonClassicalNegation(
                    f"`~` scopes over `||` at position {tok[2]}")
            return Neg(child)
        return self.atom()

    def atom(self) -> Formula:
        kind, value, pos = self.next()
        if kind == "word":
            if value == "bot":
                return BOT
            if not _VAR_RE.fullmatch(value):
                raise ParseError(f"bad variable name {value!r} at {pos}",
                                 position=pos)
            return Prop(value)
        if kind == "lpar":
            f = self.formula()
            self.expect("rpar")
            return f
        raise ParseError(f"expected a formula at position {pos}, got {value!r}",
                         position=pos, expected="formula")

    def formula_list(self) -> list[Formula]:
        if self.peek()[0] in ("arrow", "semi", "eof"):
            return []
        out = [self.formula()]
        while self.peek()[0] == "comma":
            self.next()
            out.append(self.formula())
        return out


@nesting_limited
def parse_formula(text: str) -> Formula:
    """The formula of `text`; input nested too deeply for the recursive
    parser raises ResourceLimit."""
    p = _Parser(text)
    f = p.formula()
    p.expect("eof")
    return f


@nesting_limited
def parse_sequent(text: str):
    """Parse `G => D`, or the partitioned form `G1 ; G2 => D1 ; D2`.

    Comma-separated formulas form multisets (duplicates kept); empty sides
    and empty partition blocks are allowed.  Returns a Sequent, or a
    PartitionSequent when `;` is present.  Input nested too deeply for the
    recursive parser raises ResourceLimit.
    """
    p = _Parser(text)
    ant1 = p.formula_list()
    partitioned = p.peek()[0] == "semi"
    ant2: list[Formula] = []
    if partitioned:
        p.next()
        ant2 = p.formula_list()
    p.expect("arrow")
    suc1 = p.formula_list()
    suc2: list[Formula] = []
    if partitioned:
        p.expect("semi")
        suc2 = p.formula_list()
    elif p.peek()[0] == "semi":
        raise ParseError("partition marker `;` on one side only",
                         position=p.peek()[2])
    p.expect("eof")
    if partitioned:
        return PartitionSequent(tuple(ant1), tuple(ant2), tuple(suc1), tuple(suc2))
    return Sequent(tuple(ant1), tuple(suc1))


# ---------------------------------------------------------------------------
# JSON encoding

# JSON op and child fields of each formula type but Prop, for the nested
# objects and for the table entries of `calculus`
_TABLE_OPS = {Bot: ("bot", ()), Neg: ("neg", ("c",)),
              And: ("and", ("l", "r")), Or: ("or", ("l", "r")),
              Gd: ("gd", ("l", "r"))}
_TABLE_TYPES = {op: (cls, keys) for cls, (op, keys) in _TABLE_OPS.items()}


def formula_entry(f: Formula, done: dict) -> dict:
    """The JSON object of the node `f` with each child field holding
    `done[id(child)]`: the child's object, or its formula table index."""
    if isinstance(f, Prop):
        return {"op": "prop", "name": f.name}
    op, keys = _TABLE_OPS[type(f)]
    entry = {"op": op}
    for key, c in zip(keys, children(f)):
        entry[key] = done[id(c)]
    return entry


def formula_to_json(f: Formula):
    """The nested JSON object of `f`, built bottom-up without recursion;
    a subformula that occurs twice is one shared object."""
    done: dict[int, dict] = {}
    for g in postorder(f, children, done):
        done[id(g)] = formula_entry(g, done)
    return done[id(f)]


def _field(obj, key: str):
    """`obj[key]` for a formula's JSON object, or a ParseError that says
    what is wrong."""
    try:
        return obj[key]
    except KeyError:
        raise ParseError(f"bad formula: missing field {key!r}") from None
    except TypeError:
        raise ParseError(f"bad formula: a {type(obj).__name__}, "
                         f"not an object") from None


@nesting_limited
def formula_from_json(obj) -> Formula:
    """The formula of a JSON object; input nested too deeply for the
    recursive walk raises ResourceLimit."""
    return _formula_from_json(obj)


def _formula_from_json(obj) -> Formula:
    op = _field(obj, "op")
    if op == "prop":
        name = _field(obj, "name")
        try:
            return Prop(name)
        except (TypeError, ValueError) as e:
            raise ParseError(f"bad variable name {name!r}") from e
    kind = _TABLE_TYPES.get(op) if isinstance(op, str) else None
    if kind is None:
        raise ParseError(f"unknown formula op {op!r}")
    cls, keys = kind
    kids = []  # a loop, not a comprehension: one stack frame per level
    for key in keys:
        kids.append(_formula_from_json(_field(obj, key)))
    return cls(*kids)


def sequent_to_json(s: Sequent):
    return {"ant": [formula_to_json(f) for f in s.ant],
            "suc": [formula_to_json(f) for f in s.suc]}


@nesting_limited
def sequent_from_json(obj) -> Sequent:
    if not (isinstance(obj, dict) and isinstance(obj.get("ant"), list)
            and isinstance(obj.get("suc"), list)):
        raise ParseError("bad sequent: needs the arrays \"ant\" and \"suc\"")
    return Sequent(tuple(_formula_from_json(x) for x in obj["ant"]),
                   tuple(_formula_from_json(x) for x in obj["suc"]))
