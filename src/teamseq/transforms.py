"""Proof transformations.

Height-preserving admissible structural rules (weakening, inversion,
contraction), the phase normal form for cutfree derivations (classical
rules above the right deep rule above the left deep rule), the
decomposition of a derivation into classical derivations indexed by
antecedent resolutions, and cut elimination.

The normal form is the paper's: a cutfree derivation is split into
classical branches by inversion (`_split`), and the deep rules are put
back below them (`_reassemble`); `normalize`, `resolve_derivation` and
`reassemble` are that split and that reassembly.  Cut elimination is
the paper's corollary of it: both premises of a cut are split, each pair
of branches is cut classically (`_ccut`), and the deep rules are put
back.

They work in G3, the calculus without the variant rules (LC, RC, RAndI,
LOrI), where weakening and contraction are admissible.  Cut elimination
removes the variant rules too; the others run it first where one occurs.
Each public transform scans its input once (`_scan`) and refuses a rule
without its formula before it reduces anything.

Weakening, inversion, contraction and the classical cut go by induction
on height, as in Negri and von Plato, *Structural Proof Theory* (2001),
and each is one walk (`_walk`): up the rules that hold its formula as
context, on an explicit stack and once per node object, each such rule
rebuilt over its transformed premises.  A walk stops at the axioms, at
an RAnd or LOr whose implicit weakening holds the formula, and at a rule
on the formula itself, where it recurses only into a strictly smaller
formula.  So they answer at any height, and shared nodes stay shared.

Inversion at a rule on the inverted formula is one commutation case.
`_lands` gives where an occurrence of that formula lands in each premise
of a rule: a shallow rule sends it into a child, and a deep rule keeps
it outside the `||` it replaces by a disjunct, shortens its path inside
that disjunct and drops it inside the other (`_track`).  The premises
where the inverted occurrence lands are inverted, and `calculus.rebuild`
reapplies the rule, with another principal formula and path, in each
output where the rule's own occurrence lands.  Contraction reads each
rule the way the calculus steps back through it: `calculus.actives`
gives, per premise, the active formulas that premise adds.  `rebuild`
raises ValueError on misaligned premises.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, replace

from .calculus import (PRINCIPAL_SIDE, Derivation, actives, axiom, derive,
                       fold, is_cutfree, premises_of, rebuild, replay_rgd,
                       rule_nodes)
from .errors import (ContainsCut, FormulaNotDuplicated, NonClassicalAntecedent,
                     NonClassicalRightContraction, ShapeMismatch,
                     nesting_limited)
from .prover import prove_or_countermodel
from .resolutions import resolution_steps, resolutions_multiset
from .syntax import (And, Formula, Gd, Neg, Or, Sequent, children,
                     first_gd, gd_sides, is_classical, mset, mset_add,
                     mset_remove, mset_sub, postorder, render, subformula_at)

_VARIANT = ("LC", "RC", "RAndI", "LOrI")
# the rules with an implicit weakening in the succedent
_WEAK = ("RAnd", "LOr")


def _scan(d: Derivation) -> bool:
    """Whether some node of `d` uses a variant rule.  Raises ShapeMismatch
    on a rule without the formula the transforms read from it: a cut's
    cut formula, any other rule's principal formula."""
    variant = False
    for n in rule_nodes(d):
        what = "cutformula" if n.rule.rule == "Cut" else "formula"
        if getattr(n.rule, what) is None:
            raise ShapeMismatch(f"{n.rule.rule} rule: missing {what}")
        variant = variant or n.rule.rule in _VARIANT
    return variant


def _g3(d: Derivation) -> Derivation:
    """`d` after `_scan`, made a cutfree G3 derivation if some node uses a
    variant rule."""
    return fold(d, _elim) if _scan(d) else d


def _walk(d: Derivation, step) -> list:
    """The outputs of a transform of `d` that walks up its nodes on an
    explicit stack (`postorder`), once per node object.  `step(node)`
    gives a list of the node's outputs where the walk stops, or else a
    tuple of the indices of the premises it goes up; output k of such a
    node is its rule over its premises, each one gone up replaced by that
    premise's output k."""
    steps: dict[int, object] = {}

    def up(node: Derivation):
        out = steps[id(node)] = step(node)
        return [node.premises[i] for i in out] if type(out) is tuple else ()

    done: dict[int, list] = {}
    for node in postorder(d, up, done):
        out = steps[id(node)]
        if type(out) is tuple:
            prems = list(node.premises)
            subs = [done[id(prems[i])] for i in out]
            outs = []
            for k in range(len(subs[0])):
                for i, sub in zip(out, subs):
                    prems[i] = sub[k]
                outs.append(rebuild(node.rule, prems))
            out = outs
        done[id(node)] = out
    return done[id(d)]


def _every(d: Derivation) -> tuple:
    """The indices of all premises of `d`: a walk goes up each."""
    return tuple(range(len(d.premises)))


def _side(side: str, f) -> str:
    """The sequent side 'ant' or 'suc' a transform names 'L' or 'R', where
    it adds or removes the formula `f`."""
    if side not in ("L", "R"):
        raise ShapeMismatch(f"side {side!r} is neither 'L' nor 'R'")
    if not isinstance(f, Formula):
        raise ShapeMismatch(f"{f!r} is not a formula")
    return "ant" if side == "L" else "suc"


# ---------------------------------------------------------------------------
# Weakening

@nesting_limited
def weaken(d: Derivation, side: str, f: Formula) -> Derivation:
    """Add `f` to one side of the endsequent; height-preserving on G3."""
    _side(side, f)
    return _weaken(_g3(d), side, (f,))


def _weaken(d: Derivation, side: str, fs) -> Derivation:
    """`d` with the multiset `fs` added to one side of every node up to
    the axioms, each of which takes `fs`; on the right, an RAnd or LOr
    takes it into its implicit weakening instead, and a Cut passes it to
    its left premise."""
    if not fs:
        return d

    def step(n: Derivation):
        r, c = n.rule, n.conclusion
        if r.rule in ("At", "LBot"):
            if side == "L":
                return [axiom(mset_add(c.ant, *fs), c.suc, r.formula)]
            return [axiom(c.ant, mset_add(c.suc, *fs), r.formula)]
        if side == "R" and r.rule in _WEAK:
            return [rebuild(r, n.premises, weak=mset_add(r.weak or (), *fs))]
        return (0,) if r.rule == "Cut" else _every(n)

    return _walk(d, step)[0]


# ---------------------------------------------------------------------------
# Inversion

def _track(q: tuple, p: tuple, k: int):
    """The path of the occurrence at `q` once the `||` at another path `p`
    is replaced by its disjunct `k`: `q` itself outside that `||`, one
    step shorter inside disjunct `k`, and None inside the other one."""
    if q[:len(p)] != p:
        return q
    return p + q[len(p) + 1:] if q[len(p)] == k else None


def _lands(tag: str, f: Formula, path, side, q: tuple) -> list:
    """Per premise of the rule `tag` on `f` (a deep rule at `path`, RGd on
    `side`), the (formula, path) where the occurrence at `q` in `f` lands,
    or None where that premise drops it.  A shallow rule sends it into
    child q[0]: premise q[0] of RAnd and LOr, the one premise otherwise."""
    if tag in ("LGd", "RGd"):
        hosts = gd_sides(f, path)
        return [None if (t := _track(q, path, k)) is None else (hosts[k], t)
                for k in ((0, 1) if tag == "LGd" else ("LR".index(side),))]
    at = (children(f)[q[0]], q[1:])
    if tag in ("RAnd", "LOr"):
        return [at if k == q[0] else None for k in (0, 1)]
    return [at]


def _invert(d: Derivation, item: tuple):
    """Returns a list of derivations (conjunctive items), or a pair
    (derivation, side) for the disjunctive RGd item.  An item is the
    (tag, formula, path) of the occurrence inverted.  The walk goes up the
    rules that hold the item's occurrence as context; an RGd item goes up
    one premise at each, so it stops at one node, which keeps the side."""
    tag, f, path = item
    side = PRINCIPAL_SIDE[tag]
    kept = []  # the side that node keeps, for an RGd item

    def step(n: Derivation):
        r = n.rule
        if PRINCIPAL_SIDE.get(r.rule) == side and r.formula == f:
            outs = _invert_principal(n, item)
            if tag != "RGd":
                return outs
            kept.append(outs[1])
            return [outs[0]]
        # an axiom or an implicit weakening gives an RGd item one output,
        # which keeps the left side
        if r.rule in ("At", "LBot"):
            c = n.conclusion
            outs = [axiom(a, s, r.formula)
                    for a, s in premises_of(tag, c.ant, c.suc, f, path)]
        elif side == "suc" and r.rule in _WEAK and f in (r.weak or ()):
            # introduced by the implicit weakening: rebuild, adjusting it
            rest = mset_remove(r.weak, f)
            outs = [rebuild(r, tuple(_weaken(p, "L", ant) for p in n.premises),
                            weak=mset_add(rest, *suc))
                    for ant, suc in actives(tag, f, path)]
        elif r.rule == "Cut":
            p1 = n.premises[0].conclusion
            return (0,) if f in (
                p1.ant if side == "ant"
                else mset_remove(p1.suc, r.cutformula)) else (1,)
        elif tag == "RGd" and len(n.premises) != 1:
            # restricted binary contexts are classical, so this is reached
            # only below a cut on a nonclassical formula, where the choice
            # of side need not be uniform across premises
            raise ShapeMismatch(
                f"right deep-rule inversion through {r.rule} with a "
                f"nonclassical antecedent")
        else:
            return _every(n)
        kept.append("L")
        return outs

    outs = _walk(d, step)
    return (outs[0], kept[0]) if tag == "RGd" else outs


def _invert_principal(d: Derivation, item: tuple):
    """The item inverted at a rule on its formula.  The same rule at the
    same path gives its premises.  Any other rule commutes with the
    inversion: each premise where the item lands is inverted, and the rule
    is reapplied in each output where its own occurrence lands; an output
    where it does not land is the first inverted premise's.  An RGd item
    keeps the side of the premise it inverted, or the left side where the
    rule drops it."""
    tag, f, path = item
    r = d.rule
    if r.rule == tag and (r.path or ()) == path:
        outs = [_weaken(p, "R", r.weak or ()) for p in d.premises]
        return (outs[0], r.side) if tag == "RGd" else outs
    prems, subs, side = list(d.premises), {}, "L"
    for i, at in enumerate(_lands(r.rule, f, r.path, r.side, path)):
        if at is not None:
            sub = _invert(prems[i], (tag, *at))
            if tag == "RGd":
                sub, side = [sub[0]], sub[1]
            subs[i] = sub
    outs = []
    for k, at in enumerate(_lands(tag, f, path, side, r.path or ())):
        if at is None:
            outs.append(next(iter(subs.values()))[k])
            continue
        for i, sub in subs.items():
            prems[i] = sub[k]
        outs.append(rebuild(replace(r, formula=at[0], path=at[1]), prems))
    return (outs[0], side) if tag == "RGd" else outs


@nesting_limited
def invert(d: Derivation, tag: str, pos: int, path=()):
    """Inversion of the rule `tag` at the conclusion occurrence `pos` (an
    index into the canonical antecedent/succedent); height-preserving on G3.

    Returns a list of derivations; for tag 'RGd' a pair (derivation, side).
    `path` is read for the deep rules only.
    """
    side = PRINCIPAL_SIDE.get(tag)
    if side is None:
        raise ShapeMismatch(f"unknown inversion tag {tag}")
    if type(pos) is not int:
        raise ShapeMismatch(f"position {pos!r} is not an integer")
    if not isinstance(path, Sequence):
        raise ShapeMismatch(f"path {path!r} is not a sequence")
    pool = d.conclusion.ant if side == "ant" else d.conclusion.suc
    if not 0 <= pos < len(pool):
        raise ShapeMismatch(f"no formula at position {pos}")
    f = pool[pos]
    expected = {"LNeg": Neg, "RNeg": Neg, "LAnd": And, "RAnd": And,
                "LOr": Or, "ROr": Or}.get(tag)
    if expected is not None and not isinstance(f, expected):
        raise ShapeMismatch(f"{tag} inversion needs a {expected.__name__}, "
                            f"got {render(f)}")
    path = tuple(path) if tag in ("LGd", "RGd") else ()
    if tag in ("LGd", "RGd") and not isinstance(subformula_at(f, path), Gd):
        raise ShapeMismatch(f"path {list(path)} in {render(f)} is not a "
                            f"global disjunction")
    if tag == "RGd" and not all(is_classical(g) for g in d.conclusion.ant):
        raise NonClassicalAntecedent(
            "right deep-rule inversion needs a classical antecedent")
    return _invert(_g3(d), (tag, f, path))


# ---------------------------------------------------------------------------
# Contraction

@nesting_limited
def contract(d: Derivation, side: str, f: Formula) -> Derivation:
    """Remove a duplicate of `f` from one side; height-preserving on G3.

    Right contraction demands a classical formula.
    """
    pool = getattr(d.conclusion, _side(side, f))
    if side == "R" and not is_classical(f):
        raise NonClassicalRightContraction(render(f))
    if pool.count(f) < 2:
        raise FormulaNotDuplicated(f"{render(f)} not duplicated on {side}")
    return _contract(_g3(d), side, f)


def _contract(d: Derivation, side: str, f: Formula) -> Derivation:
    """`d` with one copy of `f` less on one side of every node up to the
    axioms, each of which gives one up; on the right, an RAnd or LOr that
    holds `f` in its implicit weakening gives that copy up, and a rule on
    `f` contracts its premises' active formulas (`_contract_principal`).
    A Cut passes the contraction to the premise that holds both copies."""
    principal = _side(side, f)

    def step(n: Derivation):
        r, c = n.rule, n.conclusion
        if r.rule in ("At", "LBot"):
            if side == "L":
                return [axiom(mset_remove(c.ant, f), c.suc, r.formula)]
            return [axiom(c.ant, mset_remove(c.suc, f), r.formula)]
        if side == "R" and r.rule in _WEAK and f in (r.weak or ()):
            return [rebuild(r, n.premises, weak=mset_remove(r.weak, f))]
        if PRINCIPAL_SIDE.get(r.rule) == principal and r.formula == f:
            return [_contract_principal(n, side, f)]
        if r.rule != "Cut":
            return _every(n)
        p1, p2 = n.premises
        phi = r.cutformula
        if side == "L":
            c1 = p1.conclusion.ant.count(f)
            c2 = mset_remove(p2.conclusion.ant, phi).count(f)
        else:
            c1 = mset_remove(p1.conclusion.suc, phi).count(f)
            c2 = p2.conclusion.suc.count(f)
        if c1 >= 2:
            return (0,)
        if c2 >= 2:
            return (1,)
        raise ShapeMismatch("contraction across the two premises of a cut")

    return _walk(d, step)[0]


def _contract_principal(d: Derivation, side: str, f: Formula) -> Derivation:
    """Invert premise k on the other copy of `f` and keep output k: it
    holds each active formula of premise k twice, so contract each."""
    r = d.rule
    item = (r.rule, f, r.path or ())
    prems = []
    for k, (ant, suc) in enumerate(actives(*item)):
        u = _invert(d.premises[k], item)[k]
        for g in ant:
            u = _contract(u, "L", g)
        for g in suc:
            u = _contract(u, "R", g)
        prems.append(u)
    return rebuild(r, prems)


# ---------------------------------------------------------------------------
# Derivation normal form

_PHASE = {"LGd": 0, "RGd": 1}  # of the deep rules; every other rule is 2


def is_normal(d: Derivation) -> bool:
    """Phase predicate: along every root-to-leaf path the rule kinds go
    left-deep, then right-deep, then classical (axioms count classical),
    so the phase never drops from a node to a premise."""
    return all(_PHASE.get(p.rule.rule, 2) >= _PHASE.get(n.rule.rule, 2)
               for n in rule_nodes(d) for p in n.premises)


@nesting_limited
def normalize(d: Derivation) -> Derivation:
    """Transform a cutfree derivation into phase normal form: on every
    branch, classical rules above right deep rules above left deep rules;
    the endsequent is unchanged.  A derivation in normal form is returned
    as it is; any other is split into its classical branches and
    reassembled."""
    if not is_cutfree(d):
        raise ContainsCut("normal form is defined for cutfree derivations")
    d = _g3(d)
    if is_normal(d):
        return d
    return _reassemble((d.conclusion.ant, d.conclusion.suc), _split(d))


# ---------------------------------------------------------------------------
# Cut elimination: split into classical branches, cut each pair of branches
# classically, reassemble

def _ccut(d1: Derivation, d2: Derivation, phi: Formula) -> Derivation:
    """Cutfree classical derivation of the cut of d1 and d2 on phi: a walk
    up d1 to its rules on phi, and from each of them a walk up d2 to its
    rules on phi, where the cut is reduced (`_reduce`).  Whether d2 is an
    axiom that settles the cut is the same at every node of d1, so it is
    read once, at d1's root, after d1's own axiom cases."""
    if d1.rule.rule not in ("At", "LBot") and _settles(d2, phi):
        return _cut_axiom(d1, d2, phi)

    def left(n: Derivation):
        r = n.rule
        if r.rule in ("At", "LBot"):
            return [_cut_axiom(n, d2, phi)]
        if PRINCIPAL_SIDE.get(r.rule) == "suc" and r.formula == phi:
            return [_walk(d2, lambda m: right(n, m))[0]]
        if r.rule in _WEAK and phi in (r.weak or ()):
            # phi is implicitly weakened in: weaken d2's context in instead
            prems = tuple(_weaken(p, "L", mset_remove(d2.conclusion.ant, phi))
                          for p in n.premises)
            new_weak = mset_remove(r.weak, phi) + d2.conclusion.suc
            return [rebuild(r, prems, weak=new_weak)]
        return _every(n)

    def right(n1: Derivation, n: Derivation):
        if _settles(n, phi):
            return [_cut_axiom(n1, n, phi)]
        if PRINCIPAL_SIDE.get(n.rule.rule) == "ant" and n.rule.formula == phi:
            return [_reduce(n1, n, phi)]
        return _every(n)

    return _walk(d1, left)[0]


def _settles(d2: Derivation, phi: Formula) -> bool:
    """Whether the right premise `d2` of a cut on phi is an axiom that
    settles it: At, or LBot on a bot that the cut does not consume, which
    then stays in its conclusion.  (A cut on bot itself always goes up the
    left premise: no rule introduces bot on the right, so it is never
    left-principal.)"""
    r = d2.rule
    return r.rule == "At" or r.rule == "LBot" and \
        d2.conclusion.ant.count(r.formula) > (phi == r.formula)


def _cut_axiom(d1: Derivation, d2: Derivation, phi: Formula) -> Derivation:
    """The cut of d1 and d2 on phi, where d1 is an axiom, or else d2 is one
    that settles the cut: the other premise weakened to the cut's
    conclusion where the axiom is At on phi, and otherwise the axiom over
    that conclusion."""
    ax, other = (d1, d2) if d1.rule.rule in ("At", "LBot") else (d2, d1)
    ant = d1.conclusion.ant + mset_remove(d2.conclusion.ant, phi)
    suc = mset_remove(d1.conclusion.suc, phi) + d2.conclusion.suc
    r = ax.rule
    if r.rule == "At" and r.formula == phi:
        # absorb the other premise with the axiom's antecedent variable intact
        out = _weaken(other, "L", mset_sub(ant, other.conclusion.ant))
        return _weaken(out, "R", mset_sub(suc, other.conclusion.suc))
    return axiom(mset(ant), mset(suc), r.formula)


def _reduce(d1: Derivation, d2: Derivation, phi: Formula) -> Derivation:
    """The cut of d1 and d2 on phi, each with a rule on phi at its root,
    reduced to cuts on phi's immediate subformulas."""
    match phi:
        case Neg(beta):
            u = d1.premises[0]          # ant + beta => suc - phi
            w = d2.premises[0]          # ant - phi => suc + beta
            return _ccut(w, u, beta)
        case And(a, b):
            p1, p2 = d1.premises        # => a, lam   and   => b, lam
            q = d2.premises[0]          # ant + a + b => suc
            e = _ccut(p2, q, b)
            e = _ccut(p1, e, a)
            for g in d1.conclusion.ant:
                e = _contract(e, "L", g)
            lam = mset_remove(d1.premises[0].conclusion.suc, a)
            for g in lam:
                e = _contract(e, "R", g)
            return _weaken(e, "R", d1.rule.weak or ())
        case Or(a, b):
            p = d1.premises[0]          # => a, b, rest
            q1, q2 = d2.premises        # ant + a => lam,  ant + b => lam
            e = _ccut(p, q1, a)
            e = _ccut(e, q2, b)
            for g in mset_remove(d2.conclusion.ant, phi):
                e = _contract(e, "L", g)
            for g in q1.conclusion.suc:
                e = _contract(e, "R", g)
            return _weaken(e, "R", d2.rule.weak or ())
    raise ShapeMismatch(f"cannot reduce cut on {render(phi)}")


def _split(n: Derivation) -> dict[tuple, tuple[Derivation, tuple]]:
    """The classical branches of the cutfree G3 derivation `n`, by
    classical antecedent.  Left deep-rule inversion splits the antecedent
    (where two branches reach the same one, the left one wins), then right
    deep-rule inversion resolves the succedent in order.  Each branch is a
    classical derivation and the (formula, resolution) pairs of `n`'s
    succedent."""
    out = {}
    todo = [n]
    while todo:
        d = todo.pop()
        ant = d.conclusion.ant
        hit = first_gd(ant)
        if hit is not None:
            todo.extend(reversed(_invert(d, ("LGd", *hit))))
        elif ant not in out:
            pairs = []
            for f in n.conclusion.suc:
                g = f
                while (hit := first_gd((g,))) is not None:
                    d, side = _invert(d, ("RGd", g, hit[1]))
                    g = gd_sides(g, hit[1])["LR".index(side)]
                pairs.append((f, g))
            out[ant] = (d, tuple(pairs))
    return out


def _family_step(ant, suc, family):
    """`derive` step over `family`, the derivations by classical antecedent."""
    hit = first_gd(ant)
    if hit is None:
        return family[ant]
    return "LGd", *hit


def _reassemble(goal, branches) -> Derivation:
    """A derivation of `goal` from `branches` as `_split` gives them: each
    branch's right deep rules replayed from its pairs (the last formula's
    nearest the root), then the antecedent split by left deep rules."""
    family = {xi: replay_rgd(c, [step for f, r in reversed(pairs)
                                 for step in resolution_steps(f, r)])
              for xi, (c, pairs) in branches.items()}
    ant, suc = goal
    return derive((mset(ant), mset(suc)), _family_step, family)


def _eliminate_one(d1: Derivation, d2: Derivation, phi: Formula) -> Derivation:
    """Replace a cut with cutfree G3 premises by a cutfree derivation."""
    pi = mset_remove(d2.conclusion.ant, phi)
    right = _split(d2)
    branches = {}
    for xi, (c1, pairs) in _split(d1).items():
        k = [f for f, _r in pairs].index(phi)
        alpha, ctx = pairs[k][1], pairs[:k] + pairs[k + 1:]
        for theta in resolutions_multiset(pi):
            key = mset(xi + theta)
            if key not in branches:
                c2, sig = right[mset_add(theta, alpha)]
                branches[key] = (_ccut(c1, c2, alpha), ctx + sig)
    return _reassemble((d1.conclusion.ant + pi, mset_remove(
        d1.conclusion.suc, phi) + d2.conclusion.suc), branches)


@nesting_limited
def eliminate_cuts(d: Derivation) -> Derivation:
    """Transform any checked derivation into a cutfree G3 derivation with
    the same endsequent; a cutfree G3 derivation is returned as it is.

    Each innermost cut is eliminated as the paper's corollary: both
    (cutfree) premises are split into classical branches, each pair of
    branches that meets on a resolution of the cut formula is cut
    classically, and the deep rules are put back.  A classical cut is
    the case of one branch on each side.  LC and RC become contraction,
    and RAndI (LOrI) two cuts with a derivation of `a, b => a & b`
    (`a | b => a, b`).  A rule without its formula raises ShapeMismatch
    before anything is reduced."""
    _scan(d)
    return fold(d, _elim)


def _elim(d: Derivation, ps) -> Derivation:
    """`fold` step of cut elimination: `d` over its cutfree G3 premises."""
    r = d.rule
    match r.rule:
        case "Cut":
            return _eliminate_one(ps[0], ps[1], r.cutformula)
        case "LC" | "RC":
            return _contract(ps[0], r.rule[0], r.formula)
        case "RAndI":
            a, b = r.formula.left, r.formula.right
            bridge = prove_or_countermodel(Sequent((a, b), (r.formula,)))
            return _eliminate_one(ps[1], _eliminate_one(ps[0], bridge, a), b)
        case "LOrI":
            a, b = r.formula.left, r.formula.right
            bridge = prove_or_countermodel(Sequent((r.formula,), (a, b)))
            return _eliminate_one(_eliminate_one(bridge, ps[0], a), ps[1], b)
    if all(map(operator.is_, ps, d.premises)):
        return d
    return rebuild(r, ps)


# ---------------------------------------------------------------------------
# Derivability resolution

@dataclass(frozen=True)
class ResolvedDerivation:
    """Classical-core decomposition of a derivation: one cutfree classical
    derivation per antecedent resolution, plus the succedent resolution it
    lands on (per-formula pairing preserved for reassembly)."""

    gamma: tuple[Formula, ...]
    delta: tuple[Formula, ...]
    branches: dict[tuple, Derivation]
    mapping: dict[tuple, tuple[Formula, ...]]
    pairings: dict[tuple, tuple[tuple[Formula, Formula], ...]]


@nesting_limited
def resolve_derivation(d: Derivation) -> ResolvedDerivation:
    """Decompose `d` into classical subderivations indexed by antecedent
    resolutions (after cut elimination)."""
    n = eliminate_cuts(d)
    split = _split(n)
    return ResolvedDerivation(
        n.conclusion.ant, n.conclusion.suc,
        {xi: c for xi, (c, _pairs) in split.items()},
        {xi: mset(r for _f, r in pairs) for xi, (_c, pairs) in split.items()},
        {xi: pairs for xi, (_c, pairs) in split.items()})


def reassemble(res: ResolvedDerivation) -> Derivation:
    """Inverse of resolve_derivation: rebuild a derivation of the original
    endsequent from the classical branches."""
    return _reassemble((res.gamma, res.delta),
                       {xi: (c, res.pairings[xi])
                        for xi, c in res.branches.items()})
