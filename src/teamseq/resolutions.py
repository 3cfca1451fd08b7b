"""Resolutions and partial resolutions of formulas and multisets.

A resolution of a formula is a classical formula obtained by committing to
one disjunct at every global-disjunction occurrence; partial resolutions
commit only at some occurrences.  Occurrences are identified by labels
assigned left-to-right (infix position), matching `syntax.gd_paths`.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .errors import DegreeOutOfRange, LabelAbsent
from .syntax import (Formula, Gd, gd_paths, gd_sides, is_classical, mset,
                     render)


def iter_resolutions(f: Formula) -> Iterator[Formula]:
    """Resolutions of `f`, generated lazily: left disjunct alternatives
    first, each resolution once.  A classical subformula is its own only
    resolution and is yielded as is."""
    if is_classical(f):
        yield f
    elif isinstance(f, Gd):
        yield from iter_resolutions(f.left)
        for x in iter_resolutions(f.right):
            if not is_resolution(f.left, x):
                yield x
    else:
        op = type(f)  # And or Or with a global disjunction below
        for a in iter_resolutions(f.left):
            for b in iter_resolutions(f.right):
                yield op(a, b)


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


def resolution_choices(formulas) -> Iterator[tuple[tuple[Formula, Formula], ...]]:
    """All resolution functions for a multiset, as (formula, resolution)
    pairings; formulas in canonical order, choices enumerated left-first.

    The pairings are generated lazily, one per pull, so a caller that stops
    early pays neither the time nor the memory of the rest."""
    ordered = mset(formulas)

    def extend(i, prefix):
        if i == len(ordered):
            yield prefix
            return
        f = ordered[i]
        for r in iter_resolutions(f):
            yield from extend(i + 1, prefix + ((f, r),))

    return extend(0, ())


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
        if is_resolution(left_version, target):
            steps.append((cur, path, "L"))
            cur = left_version
        else:
            steps.append((cur, path, "R"))
            cur = right_version
