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
`parse_formula`.  Multisets of formulas are tuples sorted by text; the
multiset operations keep a sorted tuple sorted.

The parsers split the text into tokens with one `findall` and read them
with one precedence-climbing rule, which takes one stack frame per `~`,
per parenthesis and per binary operator nested to its right; offsets
are computed only for an error message.
"""

from __future__ import annotations

import re
import weakref
from _weakref import _remove_dead_weakref
from bisect import insort
from dataclasses import dataclass, fields
from itertools import islice
from operator import attrgetter

from .errors import (InvalidPath, NonClassicalNegation, ParseError,
                     TeamSeqError, nesting_limited)

_VAR_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")


class _NodeRef(weakref.ref):
    """An entry of the node table: a weak reference that knows its key."""

    __slots__ = ("key",)


# (type, *fields) -> a weak reference to the live node of that formula
_NODES: dict[tuple, _NodeRef] = {}


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
        if node is not None:
            return node
        # a miss: the node is complete, its fields checked and its text and
        # classicality fixed from its children's, before it is published
        text, classical = _FIXED[cls](*args)
        node = object.__new__(cls)
        node.__dict__.update(zip(_FIELDS[cls], args), _text=text,
                             _classical=classical)
        ref = _NodeRef(node, _forget)
        ref.key = key
        while True:
            # one atomic publish; a live entry that another thread published
            # first wins, and a dead one is dropped, atomically, for ours
            old = _NODES.setdefault(key, ref)
            if old is ref:
                return node
            winner = old()
            if winner is not None:
                return winner
            _remove_dead_weakref(_NODES, key)


class Formula(metaclass=_Interned):
    """Base class; concrete nodes are Prop, Bot, Neg, And, Or, Gd.

    Equal formulas are one node: constructors intern every node in a
    weak-value table.  A miss builds the whole node (fields checked, text
    and classicality fixed) and publishes it with one atomic `setdefault`,
    so of two threads that build one formula, both return the node
    published first; a node no longer referenced is collected with its
    table entry.  Nodes are immutable and compare and hash by identity,
    which is sound because every node comes from the table.  `copy`,
    `deepcopy` and `pickle` rebuild a node through its constructor, so
    they return the interned node too.

    A node is built with `object.__new__`, not through the dataclass
    `__init__`: its fields, its text (`render`) and its classicality
    (`is_classical`) are written straight into its `__dict__`, the last
    two built from its children's stored values, before any other thread
    can see the node.
    `props`, `signed_props`, `gd_sides` (per path), `calculus.actives` and
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

    def __repr__(self) -> str:
        """The dataclass `repr`, e.g. `Neg(child=Prop(name='p'))`, built on
        an explicit stack of nodes and text pieces, at any depth."""
        out, stack = [], [self]
        while stack:
            x = stack.pop()
            if isinstance(x, str):
                out.append(x)
            elif isinstance(x, Prop):
                out.append(f"Prop(name={x.name!r})")
            else:
                out.append(type(x).__qualname__ + "(")
                stack.append(")")
                for i, fd in reversed(list(enumerate(fields(x)))):
                    stack.append(getattr(x, fd.name))
                    stack.append((", " if i else "") + fd.name + "=")
        return "".join(out)


@dataclass(frozen=True, eq=False, repr=False)
class Prop(Formula):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Bot(Formula):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Neg(Formula):
    child: Formula


@dataclass(frozen=True, eq=False, repr=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Gd(Formula):
    """Global (question-forming) disjunction, written `||`."""

    left: Formula
    right: Formula


_PREC = {Gd: 1, Or: 2, And: 3, Neg: 4, Prop: 5, Bot: 5}
_OPS = {Gd: "||", Or: "|", And: "&"}


def _prop_fixed(name: str) -> tuple[str, bool]:
    # `bot` reads back as the constant, so it names no variable
    if not _VAR_RE.fullmatch(name) or name == "bot":
        raise ValueError(f"bad variable name: {name!r}")
    return name, True


def _neg_fixed(c: Formula) -> tuple[str, bool]:
    text = c._text
    if not c._classical:
        raise NonClassicalNegation(
            f"negation of nonclassical formula: {text}")
    return ("~(" + text + ")" if _PREC[type(c)] < _PREC[Neg]
            else "~" + text), True


def _binary_fixed(cls):
    """The text and classicality of a `cls` node from its two children's:
    a left side as loose as `cls` and a looser right side are
    parenthesized, since `cls` associates to the right."""
    prec, op, classical = _PREC[cls], f" {_OPS[cls]} ", cls is not Gd

    def fixed(left: Formula, right: Formula) -> tuple[str, bool]:
        lt, rt = left._text, right._text
        if _PREC[type(left)] <= prec:
            lt = "(" + lt + ")"
        if _PREC[type(right)] < prec:
            rt = "(" + rt + ")"
        return (lt + op + rt,
                classical and left._classical and right._classical)

    return fixed


# per type, the text and the classicality of a node being interned, from
# its fields and the values its children got when they were interned (no
# recursion); a field the type refuses raises here, before the node exists
_FIXED = {Prop: _prop_fixed, Bot: lambda: ("bot", True),
          Neg: _neg_fixed, **{cls: _binary_fixed(cls) for cls in _OPS}}
# per type, the names of its fields, in constructor order
_FIELDS = {cls: tuple(fd.name for fd in fields(cls)) for cls in _FIXED}
# per type, the children of a node, as a tuple
_CHILDREN = {Prop: lambda f: (), Bot: lambda f: (),
             Neg: lambda f: (f.child,),
             **{cls: attrgetter("left", "right") for cls in _OPS}}


BOT = Bot()


def children(f: Formula) -> tuple[Formula, ...]:
    kids = _CHILDREN.get(type(f))
    if kids is None:
        raise TypeError(f"not a formula: {f!r}")
    return kids(f)


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
    """The variables of `f`, cached on `f` on first use.  They are
    gathered on an explicit stack that takes a cached node's variables
    without walking below it, and reaches each node once, so a formula
    with shared nodes costs its size."""
    out = f.__dict__.get("_props")
    if out is None:
        names, seen, stack = set(), set(), [f]
        while stack:
            g = stack.pop()
            if g in seen:
                continue
            seen.add(g)
            known = g.__dict__.get("_props")
            if known is not None:
                names |= known
            elif isinstance(g, Prop):
                names.add(g.name)
            else:
                stack += children(g)
        out = f.__dict__["_props"] = frozenset(names)
    return out


def signed_props(f: Formula) -> tuple[frozenset[str], frozenset[str]]:
    """Variables with a positive (even-negation) / negative occurrence,
    cached on `f` on first use.  They are gathered on an explicit stack
    that takes a cached node's pair (swapped under an odd number of
    negations) without walking below it, and reaches each node at most
    once per parity, so a formula with shared nodes costs its size."""
    out = f.__dict__.get("_signed_props")
    if out is None:
        pos: set[str] = set()
        neg: set[str] = set()
        seen, stack = set(), [(f, True)]
        while stack:
            item = stack.pop()
            if item in seen:
                continue
            seen.add(item)
            g, parity = item
            known = g.__dict__.get("_signed_props")
            if known is not None:
                kp, kn = known if parity else known[::-1]
                pos |= kp
                neg |= kn
            elif isinstance(g, Prop):
                (pos if parity else neg).add(g.name)
            elif isinstance(g, Neg):
                stack.append((g.child, not parity))
            else:
                stack += ((c, parity) for c in children(g))
        out = f.__dict__["_signed_props"] = frozenset(pos), frozenset(neg)
    return out


def symbol_count(f: Formula) -> int:
    """Number of atom and connective occurrences (parentheses excluded),
    counted without recursion once per distinct node, so a formula with
    shared nodes costs its size."""
    done: dict[int, int] = {}
    for g in postorder(f, children, done):
        done[id(g)] = 1 + sum(done[id(c)] for c in children(g))
    return done[id(f)]


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
    """Replace exactly the occurrence addressed by `path` with `replacement`:
    down the path, then the nodes on it rebuilt bottom-up."""
    above = []
    for step in path:
        kids = children(f)
        if not kids:
            raise InvalidPath(f"path descends below a leaf in {render(f)}")
        if step not in range(len(kids)):
            raise InvalidPath(f"path step {step} at a " + (
                "negation" if len(kids) == 1 else "binary node"))
        above.append((f, kids, step))
        f = kids[step]
    for node, kids, step in reversed(above):
        replacement = type(node)(*kids[:step], replacement, *kids[step + 1:])
    return replacement


def gd_paths(f: Formula) -> tuple[tuple[int, ...], ...]:
    """Paths of all global-disjunction occurrences, in left-to-right
    (infix-position) order."""
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
    of its first global disjunction in infix order (the next left
    deep-rule split), or None when every formula is classical."""
    for f in formulas:
        if is_classical(f):
            continue
        # in infix order a `||` follows those in its left side
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

# sets a field of a frozen dataclass from its own `__init__`
_setattr = object.__setattr__


@dataclass(frozen=True, init=False)
class Sequent:
    ant: tuple[Formula, ...]
    suc: tuple[Formula, ...]

    def __init__(self, ant, suc):
        # a public constructor: it sorts whatever it is given, once
        _setattr(self, "ant", mset(ant))
        _setattr(self, "suc", mset(suc))

    @classmethod
    def _canonical(cls, ant: tuple, suc: tuple) -> Sequent:
        """The sequent of two sides already in canonical order, as
        `mset`, `mset_add`, `mset_remove` and `mset_sub` return them; it
        does not sort them again, so the caller keeps the order."""
        s = object.__new__(cls)
        _setattr(s, "ant", ant)
        _setattr(s, "suc", suc)
        return s

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
        _setattr(self, "gamma1", mset(gamma1))
        _setattr(self, "gamma2", mset(gamma2))
        _setattr(self, "delta1", mset(delta1))
        _setattr(self, "delta2", mset(delta2))

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

# a token: a symbol, a word, or a lone character that starts no token
_TOKEN_RE = re.compile(r"=>|\|\||[|&~(),;]|[A-Za-z][A-Za-z0-9_]*|\S")
_STRAY_RE = re.compile(r"[^A-Za-z|&~(),;]")
# binary operator -> (its precedence, its type)
_BINARY = {op: (_PREC[cls], cls) for cls, op in _OPS.items()}
# the names errors give the tokens `expect` asks for
_NAMES = {")": "rpar", "=>": "arrow", ";": "semi", "": "eof"}


class _Parser:
    """The tokens of `text`, found by one `findall`, and a cursor over
    them; the empty string ends the list.  Offsets are found only for an
    error, by one more pass over the text."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)
        self.tokens.append("")
        self.i = 0

    def offset(self, i: int) -> int:
        m = next(islice(_TOKEN_RE.finditer(self.text), i, None), None)
        return len(self.text) if m is None else m.start()

    def stray(self) -> None:
        """Raise the error of the first character that starts no token,
        if there is one: it comes before any other error in the text."""
        for m in _TOKEN_RE.finditer(self.text):
            c = m.group()
            if len(c) == 1 and _STRAY_RE.match(c):
                raise ParseError(f"unexpected character {c!r} at {m.start()}",
                                 position=m.start())

    def expect(self, tok: str) -> None:
        i = self.i
        got = self.tokens[i]
        if got != tok:
            pos = self.offset(i)
            raise ParseError(f"expected {_NAMES[tok]} at position {pos}, "
                             f"got {got!r}", position=pos,
                             expected=_NAMES[tok])
        self.i = i + 1

    def formula(self, prec: int = 1) -> Formula:
        """The formula at the cursor whose binary operators bind at least
        as tightly as `prec`; each right operand is read at its operator's
        own precedence, so binary operators associate to the right."""
        tokens, i = self.tokens, self.i
        tok = tokens[i]
        self.i = i + 1
        if tok == "~":
            child = self.formula(_PREC[Neg])
            if not child._classical:
                raise NonClassicalNegation(
                    f"`~` scopes over `||` at position {self.offset(i)}")
            left = Neg(child)
        elif tok == "(":
            left = self.formula()
            self.expect(")")
        elif tok == "bot":
            left = BOT
        else:
            try:
                left = Prop(tok)
            except ValueError:
                pos = self.offset(i)
                if tok[:1].isalpha():
                    raise ParseError(f"bad variable name {tok!r} at {pos}",
                                     position=pos) from None
                raise ParseError(f"expected a formula at position {pos}, "
                                 f"got {tok!r}", position=pos,
                                 expected="formula") from None
        op = _BINARY.get(tokens[self.i])
        while op is not None and op[0] >= prec:
            self.i += 1
            left = op[1](left, self.formula(op[0]))
            op = _BINARY.get(tokens[self.i])
        return left

    def formula_list(self) -> list[Formula]:
        if self.tokens[self.i] in ("=>", ";", ""):
            return []
        out = [self.formula()]
        while self.tokens[self.i] == ",":
            self.i += 1
            out.append(self.formula())
        return out

    def sequent(self):
        ant1 = self.formula_list()
        partitioned = self.tokens[self.i] == ";"
        ant2: list[Formula] = []
        if partitioned:
            self.i += 1
            ant2 = self.formula_list()
        self.expect("=>")
        suc1 = self.formula_list()
        suc2: list[Formula] = []
        if partitioned:
            self.expect(";")
            suc2 = self.formula_list()
        elif self.tokens[self.i] == ";":
            raise ParseError("partition marker `;` on one side only",
                             position=self.offset(self.i))
        if partitioned:
            return PartitionSequent(tuple(ant1), tuple(ant2), tuple(suc1),
                                    tuple(suc2))
        return Sequent(tuple(ant1), tuple(suc1))


def _parsed(text: str, read):
    """`read(parser)` over all of `text`, or the error the text gets
    first: a character that starts no token is reported before any error
    the parser meets on its way to it, a nesting too deep included."""
    p = _Parser(text)
    try:
        out = read(p)
        p.expect("")
        return out
    except (TeamSeqError, RecursionError):
        p.stray()
        raise


@nesting_limited
def parse_formula(text: str) -> Formula:
    """The formula of `text`; input nested too deeply for the parser,
    which takes one stack frame per level, raises ResourceLimit."""
    return _parsed(text, _Parser.formula)


@nesting_limited
def parse_sequent(text: str):
    """Parse `G => D`, or the partitioned form `G1 ; G2 => D1 ; D2`.

    Comma-separated formulas form multisets (duplicates kept); empty sides
    and empty partition blocks are allowed.  Returns a Sequent, or a
    PartitionSequent when `;` is present.  Input nested too deeply for the
    parser, which takes one stack frame per level, raises ResourceLimit.
    """
    return _parsed(text, _Parser.sequent)


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
