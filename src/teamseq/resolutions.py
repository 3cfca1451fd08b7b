"""Resolutions and partial resolutions of formulas and multisets.

A resolution of a formula is a classical formula obtained by committing to
one disjunct at every global-disjunction occurrence; partial resolutions
commit only at some occurrences.  Occurrences are identified by labels
assigned left-to-right (infix position), matching `syntax.gd_paths`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import DegreeOutOfRange, LabelAbsent
from .syntax import (And, Bot, Formula, Gd, Neg, Or, Prop, gd_paths, gd_sides,
                     mset, render)


def resolutions_ordered(f: Formula) -> tuple[Formula, ...]:
    """Resolutions in deterministic order: left disjunct alternatives first."""
    match f:
        case Prop() | Bot():
            return (f,)
        case Neg(c):
            return tuple(Neg(b) for b in resolutions_ordered(c))
        case And(l, r):
            return tuple(And(a, b)
                         for a in resolutions_ordered(l)
                         for b in resolutions_ordered(r))
        case Or(l, r):
            return tuple(Or(a, b)
                         for a in resolutions_ordered(l)
                         for b in resolutions_ordered(r))
        case Gd(l, r):
            seen: dict[Formula, None] = {}
            for x in resolutions_ordered(l) + resolutions_ordered(r):
                seen.setdefault(x, None)
            return tuple(seen)
    raise TypeError(f"not a formula: {f!r}")


def resolutions(f: Formula) -> frozenset[Formula]:
    return frozenset(resolutions_ordered(f))


def resolution_choices(formulas) -> tuple[tuple[tuple[Formula, Formula], ...], ...]:
    """All resolution functions for a multiset, as (formula, resolution)
    pairings; formulas in canonical order, choices enumerated left-first."""
    ordered = mset(formulas)
    per = [[(f, r) for r in resolutions_ordered(f)] for f in ordered]
    return tuple(product(*per)) if per else ((),)


def resolutions_multiset(formulas) -> frozenset[tuple[Formula, ...]]:
    """Images of a multiset under all resolution functions, as canonical
    multisets."""
    out = set()
    for pairing in resolution_choices(formulas):
        out.add(mset(r for _, r in pairing))
    return frozenset(out)


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


def resolution_steps(f: Formula, target: Formula) -> tuple[tuple[Formula, tuple[int, ...], str], ...]:
    """A step sequence (formula-before, path, side) resolving `f` to `target`.

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
        if target in resolutions(left_version):
            steps.append((cur, path, "L"))
            cur = left_version
        else:
            steps.append((cur, path, "R"))
            cur = right_version
