"""Resolutions and partial resolutions of formulas and multisets.

A resolution of a formula is a classical formula obtained by committing to
one disjunct at every global-disjunction occurrence; a partial resolution
of degree n commits at n of them.  Partial resolutions are built in one
memoized pass over the formula's structure.

One generator enumerates resolutions, of a formula and of a multiset's
formulas together, left disjunct first.  Given a list of witness
valuations, it yields only the candidates in which every witness makes
some formula true, and it prunes while it enumerates: a conjunction
resolves both sides under the witnesses, a split disjunction or a multiset
resolves each next part under the witnesses its earlier choices leave
false, and a subtree is cut as soon as some witness falsifies it with
every `||` read as `|`.  The list may grow between pulls; every step reads
it anew.  This is the counterexample-guided search of the prover's
stage 2.

A multiset is covered by one loop over its positions with a stack of
their open streams, so a succedent of any length takes no stack frame per
formula.  A `|` tree with a `||` below is covered the same way, as the
multiset of its maximal non-`|` subformulas, and rebuilt around each
choice; it costs one generator node per position, not one per binary
level.  The generator recurses over `&` and `||` only, one frame per
nesting level of the formula.
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import DegreeOutOfRange, nesting_limited
from .syntax import (And, Formula, Gd, Neg, Or, Prop, children, first_gd,
                     gd_sides, is_classical, mset, postorder, render)


def iter_resolutions(f: Formula) -> Iterator[Formula]:
    """Resolutions of `f`, generated lazily: left disjunct alternatives
    first, each resolution once.  A classical subformula is its own only
    resolution and is yielded as is."""
    t = _TruthMasks([])
    return _gen(f, t.all, t, _no_op)


def resolutions(f: Formula) -> frozenset[Formula]:
    return frozenset(iter_resolutions(f))


def is_resolution(f: Formula, target: Formula) -> bool:
    """Whether `target` is a resolution of `f`, decided on the structure:
    a global disjunction matches through either side, `&` and `|` match
    their own connective child by child, and a classical formula matches
    only itself."""
    if isinstance(f, Gd):
        return is_resolution(f.left, target) or is_resolution(f.right, target)
    if is_classical(f):
        return f == target
    return (type(target) is type(f) and is_resolution(f.left, target.left)
            and is_resolution(f.right, target.right))


def resolution_choices(formulas, witnesses=None, on_node=None
                       ) -> Iterator[tuple[tuple[Formula, Formula], ...]]:
    """All resolution functions for a multiset, as (formula, resolution)
    pairings, choices enumerated left-first.  `formulas` is a canonical
    tuple, such as a sequent side, and is not sorted again.

    The pairings are generated lazily, one per pull, so a caller that stops
    early pays neither the time nor the memory of the rest.  With
    `witnesses`, a list of valuations (dicts from variable to 0/1) that
    the caller may extend between pulls, only the pairings in which every
    witness present when they are reached makes some resolution true are
    yielded, in the same order; `on_node` is called once per generator
    node entered."""
    t = _TruthMasks([] if witnesses is None else witnesses)
    return _covers(formulas, t.all, t, on_node or _no_op)


def resolutions_multiset(formulas) -> frozenset[tuple[Formula, ...]]:
    """Images of a multiset under all resolution functions, as canonical
    multisets."""
    out = set()
    for pairing in resolution_choices(mset(formulas)):
        out.add(mset(r for _, r in pairing))
    return frozenset(out)


# ---------------------------------------------------------------------------
# The generator.  Each node yields its resolutions left-first and reads a
# `need` mask of the witnesses they must make true, re-read at every step
# because the caller's list grows; while the list is empty nothing is
# needed and no mask is read.  A node is cut on entry when some needed
# witness makes it false with every `||` read as `|`, which bounds each of
# its resolutions from above.

def _no_op():
    pass


class _TruthMasks:
    """Truth at the caller's witness valuations as bitmasks: bit i is set
    when valuation i makes the formula true, every `||` read as `|`.  The
    masks are kept until the list grows."""

    def __init__(self, witnesses):
        self.witnesses = witnesses
        self._masks: dict[int, tuple[Formula, int]] = {}  # id -> (pin, mask)
        self._masks_read = 0

    def all(self) -> int:
        return (1 << len(self.witnesses)) - 1

    def of(self, f: Formula) -> int:
        ws = self.witnesses
        if self._masks_read != len(ws):
            self._masks.clear()
            self._masks_read = len(ws)
        hit = self._masks.get(id(f))
        if hit is not None:
            return hit[1]
        if isinstance(f, Prop):
            mask = 0
            for i, w in enumerate(ws):
                if w[f.name]:
                    mask |= 1 << i
        elif isinstance(f, And):
            mask = self.of(f.left) & self.of(f.right)
        elif isinstance(f, (Or, Gd)):
            mask = self.of(f.left) | self.of(f.right)
        elif isinstance(f, Neg):
            mask = self.all() & ~self.of(f.child)
        else:
            mask = 0  # bot
        self._masks[id(f)] = (f, mask)
        return mask

    def any(self, fs, i: int) -> int:
        """Where some formula of `fs[i:]` can be true."""
        out = 0
        for f in fs[i:]:
            out |= self.of(f)
        return out


def _gen(f: Formula, need, t: _TruthMasks, on_node) -> Iterator[Formula]:
    """Resolutions of `f`, left-first and each once, true at every
    witness in `need()`."""
    on_node()
    if t.witnesses and need() & ~t.of(f):
        return
    if is_classical(f):
        yield f
    elif isinstance(f, Gd):
        yield from _gen(f.left, need, t, on_node)
        for x in _gen(f.right, need, t, on_node):
            if not is_resolution(f.left, x):
                yield x
    elif isinstance(f, And):
        for a in _gen(f.left, need, t, on_node):
            right = False
            for b in _gen(f.right, need, t, on_node):
                right = True
                yield And(a, b)
                if t.witnesses and need() & ~t.of(a):
                    break  # a witness added since refutes a
            if not right:  # nor for any later a: b's stream ignores a
                return
    else:  # a `|` tree with a global disjunction below
        leaves, shape = _or_tree(f)
        for pairing in _covers(leaves, need, t, on_node):
            yield _join(shape, pairing)


def _covers(fs, need, t: _TruthMasks, on_node) -> Iterator[tuple]:
    """Pairings (f, r), one per formula f of `fs`, such that each needed
    witness makes some r true: at each position, each choice r under the
    witnesses that the later formulas cannot make true, then the later
    positions under those at which every earlier choice is false.

    One loop over the positions, with a stack of their open streams: a
    classical formula is a one-element stream (one generator node, as
    `_gen` counts it), any other formula a `_gen` stream."""
    n = len(fs)
    streams: list[Iterator[Formula]] = []
    chosen: list[tuple] = []  # a pair (f, r) per stream below the top

    def need_at(i: int) -> int:
        # the witnesses left to positions i and on by the first i choices
        m = need()
        for _, r in chosen[:i]:
            m &= ~t.of(r)
        return m

    while True:
        i = len(streams)  # enter position i
        on_node()
        if t.witnesses and need_at(i) & ~t.any(fs, i):
            pass  # cut: no choice here leaves every witness a true formula
        elif i == n:
            yield tuple(chosen)
        else:
            f = fs[i]
            if is_classical(f):
                on_node()
                streams.append(iter((f,)))
            else:
                streams.append(_gen(
                    f, lambda i=i: need_at(i) & ~t.any(fs, i + 1), t, on_node))
        # take the next choice of the deepest open stream
        while streams:
            k = len(streams) - 1
            del chosen[k:]
            r = next(streams[k], None)
            if r is not None:
                chosen.append((fs[k], r))
                break
            streams.pop()
        else:
            return


def _or_tree(f: Or) -> tuple[tuple[Formula, ...], tuple[bool, ...]]:
    """The maximal non-`|` subformulas of the `|` tree `f`, left to right,
    and its shape in postorder: False for each of them in turn, True for
    each `|` joining the two before it.  Cached on `f`."""
    hit = f.__dict__.get("_or_tree")
    if hit is None:
        leaves, shape = [], []
        stack = [(f, False)]
        while stack:
            g, joined = stack.pop()
            if joined:
                shape.append(True)
            elif isinstance(g, Or):
                stack += ((g, True), (g.right, False), (g.left, False))
            else:
                leaves.append(g)
                shape.append(False)
        hit = f.__dict__["_or_tree"] = (tuple(leaves), tuple(shape))
    return hit


def _join(shape: tuple[bool, ...], pairing) -> Formula:
    """The `|` tree of `shape` over the resolutions of `pairing`."""
    out = []
    it = iter(pairing)
    for joined in shape:
        if joined:
            right = out.pop()
            out[-1] = Or(out[-1], right)
        else:
            out.append(next(it)[1])
    return out[0]


# ---------------------------------------------------------------------------
# Partial resolutions

@nesting_limited
def partial_resolutions(f: Formula, n: int, on_formula=None
                        ) -> frozenset[Formula]:
    """All results of resolving exactly `n` distinct occurrences of `||`
    in `f`, each to either disjunct, in any order.

    One pass over the structure, memoized per (subformula, degree k): `&`
    and `|` split k over their two sides, and so does a `||` left as it
    is.  A `||` resolved to one side spends one step on itself and keeps
    that side resolved to some degree j; the other k - 1 - j steps went
    to occurrences in the discarded side before it was discarded.
    `on_formula` is called once per formula added to the set of a
    (subformula, degree) pair."""
    count: dict[int, int] = {}  # id -> the number of `||` in that node
    for g in postorder(f, children, count):
        count[id(g)] = isinstance(g, Gd) + sum(count[id(c)]
                                              for c in children(g))
    if not 0 <= n <= count[id(f)]:
        raise DegreeOutOfRange(f"degree {n} outside 0..{count[id(f)]}")
    on_formula = on_formula or _no_op
    memo: dict[tuple[Formula, int], set[Formula]] = {}

    def put(out: set, formulas) -> None:
        for x in formulas:
            if x not in out:
                on_formula()
                out.add(x)

    def splits(k: int, left: Formula, right: Formula):
        # the degrees j of `left` that leave k - j to `right`
        return range(max(0, k - count[id(right)]),
                     min(k, count[id(left)]) + 1)

    def part(g: Formula, k: int) -> set[Formula]:
        # 0 <= k <= count[id(g)], so a classical g is asked only for k = 0
        out = memo.get((g, k))
        if out is not None:
            return out
        out = memo[g, k] = set()
        if k == 0:
            put(out, (g,))
            return out
        cls, l, r = type(g), g.left, g.right
        for j in splits(k, l, r):
            ls, rs = part(l, j), part(r, k - j)
            put(out, (cls(a, b) for a in ls for b in rs))
        if cls is Gd:
            for j in splits(k - 1, l, r):
                put(out, part(l, j))
            for j in splits(k - 1, r, l):
                put(out, part(r, j))
        return out

    return frozenset(part(f, n))


def resolution_steps(f: Formula, target: Formula):
    """A step sequence (formula-before, path, side, kept) resolving `f` to
    `target`; `kept` is `formula-before` with the occurrence at `path`
    replaced by its `side` disjunct, the formula the step leaves behind.

    Deterministic: always resolves the first occurrence left to right,
    preferring the left disjunct when both reach `target`.

    Cached on a nonclassical `f` per target as the (path, side, kept)
    triples; each formula-before is rebuilt from the previous `kept` on
    every call.  The first one is `f` itself, which the cache must not
    hold: a node that referred to itself would stay alive until the cyclic
    collector ran.  For the same reason a classical `f`, whose only
    resolution is `f`, is not cached under that target.
    """
    key = ("_steps", target)
    tail = f.__dict__.get(key)
    if tail is None:
        tail = []
        cur = f
        while (hit := first_gd((cur,))) is not None:
            path = hit[1]
            left_version, right_version = gd_sides(cur, path)
            if is_resolution(left_version, target):
                tail.append((path, "L", left_version))
                cur = left_version
            else:
                tail.append((path, "R", right_version))
                cur = right_version
        if cur != target:
            raise ValueError(f"{render(target)} is not a resolution of {render(f)}")
        tail = tuple(tail)
        if tail:
            f.__dict__[key] = tail
    befores = (f,) + tuple(kept for _, _, kept in tail)
    return tuple((before, *step) for before, step in zip(befores, tail))
