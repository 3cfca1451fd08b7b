"""Resolutions and partial resolutions of formulas and multisets.

A resolution of a formula is a classical formula obtained by committing to
one disjunct at every global-disjunction occurrence; partial resolutions
commit only at some occurrences.  Occurrences are identified by labels
assigned left-to-right (infix position), matching `syntax.gd_paths`.

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
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .errors import DegreeOutOfRange, LabelAbsent
from .syntax import (And, Formula, Gd, Neg, Or, Prop, gd_paths, gd_sides,
                     is_classical, mset, render)


def iter_resolutions(f: Formula) -> Iterator[Formula]:
    """Resolutions of `f`, generated lazily: left disjunct alternatives
    first, each resolution once.  A classical subformula is its own only
    resolution and is yielded as is."""
    t = _TruthMasks([])
    return _gen(f, t.all, t, _no_op)


def resolutions_ordered(f: Formula) -> tuple[Formula, ...]:
    """Resolutions in deterministic order: left disjunct alternatives first."""
    return tuple(iter_resolutions(f))


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
    pairings; formulas in canonical order, choices enumerated left-first.

    The pairings are generated lazily, one per pull, so a caller that stops
    early pays neither the time nor the memory of the rest.  With
    `witnesses`, a list of valuations (dicts from variable to 0/1) that
    the caller may extend between pulls, only the pairings in which every
    witness present when they are reached makes some resolution true are
    yielded, in the same order; `on_node` is called once per generator
    node entered."""
    t = _TruthMasks([] if witnesses is None else witnesses)
    return _covers(mset(formulas), t.all, t, on_node or _no_op)


def resolutions_multiset(formulas) -> frozenset[tuple[Formula, ...]]:
    """Images of a multiset under all resolution functions, as canonical
    multisets."""
    out = set()
    for pairing in resolution_choices(formulas):
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
    else:  # `|` with a global disjunction below
        for (_, a), (_, b) in _covers((f.left, f.right), need, t, on_node):
            yield Or(a, b)


def _covers(fs, need, t: _TruthMasks, on_node, i: int = 0):
    """Pairings (f, r) for `fs[i:]` such that each needed witness makes
    some r true: each choice r for `fs[i]` under the witnesses the rest
    cannot make true, then the rest under those at which r is false."""
    on_node()
    if t.witnesses and need() & ~t.any(fs, i):
        return
    if i == len(fs):
        yield ()
        return
    f = fs[i]
    for r in _gen(f, lambda: need() & ~t.any(fs, i + 1), t, on_node):
        for tail in _covers(fs, lambda: need() & ~t.of(r), t, on_node, i + 1):
            yield ((f, r),) + tail


# ---------------------------------------------------------------------------
# Labelled formulas and resolution steps

@dataclass(frozen=True)
class LabelledFormula:
    """A formula with numeric labels on its global-disjunction occurrences.

    `labels` maps occurrence path -> label; `gd_label` assigns 0,1,... in
    left-to-right position order.
    """

    formula: Formula
    labels: tuple[tuple[tuple[int, ...], int], ...]

    def path_of(self, label: int) -> tuple[int, ...] | None:
        for path, lab in self.labels:
            if lab == label:
                return path
        return None


def gd_label(f: Formula) -> LabelledFormula:
    return LabelledFormula(f, tuple((path, i)
                                    for i, path in enumerate(gd_paths(f))))


@dataclass(frozen=True)
class ResolutionStep:
    side: str  # 'L' or 'R'
    label: int
    target: int | None = None  # multiset position, when stepping a multiset


def apply_resolution_step(lf: LabelledFormula, step: ResolutionStep) -> LabelledFormula:
    """Replace the labelled occurrence by its chosen disjunct.

    Labels inside the discarded disjunct vanish; all other labels keep
    their numbers (paths are re-rooted under the contracted node).
    """
    path = lf.path_of(step.label)
    if path is None:
        raise LabelAbsent(f"label {step.label} not present in {render(lf.formula)}")
    keep = 0 if step.side == "L" else 1
    new_formula = gd_sides(lf.formula, path)[keep]
    new_labels = []
    plen = len(path)
    for p, lab in lf.labels:
        if p == path:
            continue
        if p[:plen] == path:
            if p[plen] == keep:
                new_labels.append((path + p[plen + 1:], lab))
            # labels in the discarded disjunct are consumed
        else:
            new_labels.append((p, lab))
    return LabelledFormula(new_formula, tuple(new_labels))


def partial_resolutions(f: Formula, n: int) -> frozenset[Formula]:
    """All results of resolving exactly `n` distinct labelled occurrences."""
    total = len(gd_paths(f))
    if n < 0 or n > total:
        raise DegreeOutOfRange(f"degree {n} outside 0..{total}")
    frontier: set[tuple[LabelledFormula, frozenset[int]]] = {(gd_label(f), frozenset())}
    for _ in range(n):
        nxt: set[tuple[LabelledFormula, frozenset[int]]] = set()
        for lf, used in frontier:
            for _, lab in lf.labels:
                if lab in used:
                    continue
                for side in ("L", "R"):
                    nxt.add((apply_resolution_step(lf, ResolutionStep(side, lab)),
                             used | {lab}))
        frontier = nxt
    return frozenset(lf.formula for lf, _ in frontier)


def resolution_steps(f: Formula, target: Formula):
    """A step sequence (formula-before, path, side, kept) resolving `f` to
    `target`; `kept` is `formula-before` with the occurrence at `path`
    replaced by its `side` disjunct, the formula the step leaves behind.

    Deterministic: always resolves the first (lowest-label) occurrence,
    preferring the left disjunct when both reach `target`.
    """
    steps = []
    cur = f
    while True:
        paths = gd_paths(cur)
        if not paths:
            if cur != target:
                raise ValueError(f"{render(target)} is not a resolution of {render(f)}")
            return tuple(steps)
        path = paths[0]
        left_version, right_version = gd_sides(cur, path)
        if is_resolution(left_version, target):
            steps.append((cur, path, "L", left_version))
            cur = left_version
        else:
            steps.append((cur, path, "R", right_version))
            cur = right_version
