"""Proof transformations.

Height-preserving admissible structural rules (weakening, inversion,
contraction), the phase normal form for cutfree derivations (classical
rules above the right deep rule above the left deep rule), the
decomposition of a derivation into classical derivations indexed by
antecedent resolutions, and cut elimination.

Cut elimination is the paper's corollary of the normal form: both premises
of a cut are normalized and split into classical branches (`_split`), each
pair of branches is cut classically (`_ccut`), and the deep rules are put
back (`_reassemble`); `resolve_derivation` and `reassemble` are that split
and that reassembly.

They work in G3, the calculus without the variant rules (LC, RC, RAndI,
LOrI), where weakening and contraction are admissible.  Cut elimination
removes the variant rules too; the others run it first where one occurs.
Each public transform scans its input once (`_scan`) and refuses a rule
without its formula before it reduces anything.

Inversion is the workhorse: its recursion carries out exactly the rule
commutations the other transformations need, including the three ways two
left deep-rule applications on the same formula can interact (disjoint
occurrences, one inside the kept disjunct, one inside the discarded
disjunct).

Inversion, contraction and normalization read each rule the way the
calculus steps back through it: `calculus.actives` gives, per premise,
the active formulas that premise adds, and `calculus.infer` (or `rebuild`
on a recorded rule) reapplies the rule, with another principal formula
or path where a commutation moves it; it raises ValueError on misaligned
premises.  So each commutation is one case over all rules.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace

from .calculus import (PRINCIPAL_SIDE, Derivation, RuleApp, actives,
                       antecedent_taken, axiom, derive, fold, infer,
                       is_cutfree, make_at, make_lbot, premises_of, rebuild,
                       replay_rgd, rule_nodes, swap_antecedents)
from .errors import (ContainsCut, FormulaNotDuplicated, NonClassicalAntecedent,
                     NonClassicalRightContraction, ShapeMismatch,
                     nesting_limited)
from .prover import prove_or_countermodel
from .resolutions import resolution_steps, resolutions_multiset
from .syntax import (And, Formula, Gd, Neg, Or, Sequent, children, first_gd,
                     gd_sides, is_classical, mset, mset_add, mset_remove,
                     mset_sub, render, subformula_at, substitute_at)

_VARIANT = ("LC", "RC", "RAndI", "LOrI")


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


# ---------------------------------------------------------------------------
# Weakening

@nesting_limited
def weaken(d: Derivation, side: str, f: Formula) -> Derivation:
    """Add `f` to one side of the endsequent; height-preserving on G3."""
    return _weaken(_g3(d), side, f)


def _weaken(d: Derivation, side: str, f: Formula) -> Derivation:
    tag = d.rule.rule
    c = d.conclusion
    if tag in ("At", "LBot"):
        if side == "L":
            return axiom(mset_add(c.ant, f), c.suc, d.rule.formula)
        return axiom(c.ant, mset_add(c.suc, f), d.rule.formula)
    if tag in ("RAnd", "LOr") and side == "R":
        return rebuild(d.rule, d.premises, weak=mset_add(d.rule.weak or (), f))
    if tag == "Cut":
        return rebuild(d.rule, (_weaken(d.premises[0], side, f), d.premises[1]))
    return rebuild(d.rule, tuple(_weaken(p, side, f) for p in d.premises))


def _weaken_all(d: Derivation, side: str, fs) -> Derivation:
    for f in fs:
        d = _weaken(d, side, f)
    return d


# ---------------------------------------------------------------------------
# Inversion

@dataclass(frozen=True)
class _Item:
    tag: str            # LNeg RNeg LAnd RAnd LOr ROr LGd RGd
    active: Formula
    path: tuple[int, ...] = ()


def _with(prems, idx: int, d: Derivation) -> tuple:
    """`prems` with premise `idx` replaced by `d`."""
    return tuple(prems[:idx]) + (d,) + tuple(prems[idx + 1:])


def _each_out(item: _Item, sub, fn):
    """Map `fn(k, out)` over the outputs of an inversion on `item`: each
    output of a conjunctive item, or the one output of an RGd item (k the
    index of its side), which keeps its side."""
    if item.tag == "RGd":
        out, side = sub
        return fn("LR".index(side), out), side
    return [fn(k, out) for k, out in enumerate(sub)]


def _path_rel(p: tuple, q: tuple):
    """Relation of p to a different path q: 'disjoint',
    ('p_inside_q', j, rest), or ('q_inside_p', j, rest)."""
    if p[:len(q)] == q:
        return ("p_inside_q", p[len(q)], p[len(q) + 1:])
    if q[:len(p)] == p:
        return ("q_inside_p", q[len(p)], q[len(p) + 1:])
    return "disjoint"


def _invert(d: Derivation, item: _Item):
    """Returns a list of derivations (conjunctive items), or a pair
    (derivation, side) for the disjunctive RGd item."""
    r = d.rule
    if r.rule in ("At", "LBot"):
        outs = [axiom(a, s, r.formula)
                for a, s in premises_of(item.tag, d.conclusion.ant,
                                        d.conclusion.suc, item.active, item.path)]
        return (outs[0], "L") if item.tag == "RGd" else outs

    if PRINCIPAL_SIDE.get(r.rule) == PRINCIPAL_SIDE[item.tag] \
            and r.formula == item.active:
        return _invert_principal(d, item)
    return _invert_context(d, item)


def _invert_context(d: Derivation, item: _Item):
    """The item's active occurrence is a context formula of the root rule."""
    r = d.rule

    if r.rule in ("RAnd", "LOr") and item.active in (r.weak or ()) \
            and PRINCIPAL_SIDE[item.tag] == "suc":
        # introduced by the implicit weakening: rebuild, adjusting the slot
        rest = mset_remove(r.weak, item.active)
        outs = [rebuild(r, tuple(_weaken_all(p, "L", ant) for p in d.premises),
                        weak=mset_add(rest, *suc))
                for ant, suc in actives(item.tag, item.active, item.path)]
        return (outs[0], "L") if item.tag == "RGd" else outs

    if r.rule == "Cut":
        phi = r.cutformula
        p1, p2 = d.premises
        if PRINCIPAL_SIDE[item.tag] == "ant":
            in_first = item.active in p1.conclusion.ant
        else:
            in_first = item.active in mset_remove(p1.conclusion.suc, phi)
        idx = 0 if in_first else 1
        return _each_out(item, _invert(d.premises[idx], item),
                         lambda _k, o: rebuild(r, _with(d.premises, idx, o)))

    if item.tag == "RGd":
        # disjunctive item through a context: only unary rules can occur
        # (restricted binary contexts are classical; reachable otherwise
        # only below a cut on a nonclassical formula, where the choice of
        # side need not be uniform across premises)
        if len(d.premises) != 1:
            raise ShapeMismatch(
                f"right deep-rule inversion through {r.rule} with a "
                f"nonclassical antecedent")
        out, side = _invert(d.premises[0], item)
        return rebuild(r, (out,)), side

    subs = [_invert(p, item) for p in d.premises]
    return [rebuild(r, prems) for prems in zip(*subs)]


def _invert_principal(d: Derivation, item: _Item):
    """The root rule acts on the very formula occurrence being inverted."""
    r, chi = d.rule, item.active
    t_i, t_r = item.tag, r.rule

    if t_i == t_r == "LGd":
        return _invert_lgd_lgd(d, item)
    if t_i == t_r == "RGd":
        return _invert_rgd_rgd(d, item)
    if t_i == t_r:
        return [_weaken_all(p, "R", r.weak or ()) for p in d.premises]

    if t_i in ("LGd", "RGd"):
        # a shallow rule on the formula holding the item's deep occurrence:
        # invert the premise that receives the child holding it
        i, rest = item.path[0], item.path[1:]
        k = i if len(d.premises) == 2 else 0
        sub = _invert(d.premises[k], _Item(t_i, children(chi)[i], rest))
        hosts = gd_sides(chi, item.path)
        return _each_out(item, sub, lambda m, o: rebuild(
            replace(r, formula=hosts[m]), _with(d.premises, k, o)))

    # a deep rule inside the formula the shallow item decomposes: invert
    # each premise, then reapply the deep rule in the output holding it
    i, rest = r.path[0], r.path[1:]
    hosts = gd_sides(chi, r.path)
    if t_r == "RGd":
        hosts = (hosts["LR".index(r.side)],)
    subs = [_invert(p, _Item(t_i, g)) for p, g in zip(d.premises, hosts)]
    inner = replace(r, formula=children(chi)[i], path=rest)
    return [rebuild(inner, [sub[k] for sub in subs])
            if len(subs[0]) == 1 or k == i else subs[0][k]
            for k in range(len(subs[0]))]


def _invert_lgd_lgd(d: Derivation, item: _Item):
    chi = item.active
    pi, pr = item.path, d.rule.path
    if pr == pi:
        return [d.premises[0], d.premises[1]]
    hosts = gd_sides(chi, pi)
    prem_l, prem_r = gd_sides(chi, pr)
    rel = _path_rel(pr, pi)
    if rel == "disjoint" or rel[0] == "p_inside_q":
        # apart, or the root rule's occurrence lies inside the item's
        # disjunct j: the root rule stays in each output that keeps it
        u1 = _invert(d.premises[0], _Item("LGd", prem_l, pi))
        u2 = _invert(d.premises[1], _Item("LGd", prem_r, pi))
        j, path = (None, pr) if rel == "disjoint" else (rel[1], pi + rel[2])
        return [infer("LGd", (u1[k], u2[k]), hosts[k], path) if j in (None, k)
                else u1[k] for k in (0, 1)]
    # the item's occurrence lies inside the root rule's disjunct j
    _, j, rest = rel
    w = _invert(d.premises[j], _Item("LGd", (prem_l, prem_r)[j], pr + rest))
    return [infer("LGd", _with(d.premises, j, w[k]), host, pr)
            for k, host in enumerate(hosts)]


def _invert_rgd_rgd(d: Derivation, item: _Item):
    chi = item.active
    pi, pr = item.path, d.rule.path
    sr = d.rule.side
    if pr == pi:
        return d.premises[0], sr
    prem_formula = gd_sides(chi, pr)["LR".index(sr)]
    rel = _path_rel(pr, pi)
    if rel == "disjoint" or rel[0] == "p_inside_q":
        # apart, or the root rule's occurrence lies inside the item's
        # disjunct j: the root rule stays if the output keeps it
        o, s = _invert(d.premises[0], _Item("RGd", prem_formula, pi))
        if rel != "disjoint" and "LR".index(s) != rel[1]:
            return o, s
        path = pr if rel == "disjoint" else pi + rel[2]
        return infer("RGd", (o,), gd_sides(chi, pi)["LR".index(s)], path, sr), s
    # item's occurrence inside the root rule's disjunct j
    _, j, rest = rel
    if "LR".index(sr) == j:
        o, s = _invert(d.premises[0], _Item("RGd", prem_formula, pr + rest))
        return infer("RGd", (o,), gd_sides(chi, pi)["LR".index(s)], pr, sr), s
    # the item's occurrence sits in the discarded disjunct: reintroduce
    return infer("RGd", d.premises, gd_sides(chi, pi)[0], pr, sr), "L"


@nesting_limited
def invert(d: Derivation, tag: str, pos: int, path=()):
    """Inversion of the rule `tag` at the conclusion occurrence `pos` (an
    index into the canonical antecedent/succedent); height-preserving on G3.

    Returns a list of derivations; for tag 'RGd' a pair (derivation, side).
    """
    side = PRINCIPAL_SIDE.get(tag)
    if side is None:
        raise ShapeMismatch(f"unknown inversion tag {tag}")
    pool = d.conclusion.ant if side == "ant" else d.conclusion.suc
    if not 0 <= pos < len(pool):
        raise ShapeMismatch(f"no formula at position {pos}")
    f = pool[pos]
    expected = {"LNeg": Neg, "RNeg": Neg, "LAnd": And, "RAnd": And,
                "LOr": Or, "ROr": Or}.get(tag)
    if expected is not None and not isinstance(f, expected):
        raise ShapeMismatch(f"{tag} inversion needs a {expected.__name__}, "
                            f"got {render(f)}")
    path = tuple(path)
    if tag in ("LGd", "RGd") and not isinstance(subformula_at(f, path), Gd):
        raise ShapeMismatch(f"path {list(path)} in {render(f)} is not a "
                            f"global disjunction")
    if tag == "RGd" and not all(is_classical(g) for g in d.conclusion.ant):
        raise NonClassicalAntecedent(
            "right deep-rule inversion needs a classical antecedent")
    return _invert(_g3(d), _Item(tag, f, path))


# ---------------------------------------------------------------------------
# Contraction

@nesting_limited
def contract(d: Derivation, side: str, f: Formula) -> Derivation:
    """Remove a duplicate of `f` from one side; height-preserving on G3.

    Right contraction demands a classical formula.
    """
    if side == "R" and not is_classical(f):
        raise NonClassicalRightContraction(render(f))
    pool = d.conclusion.ant if side == "L" else d.conclusion.suc
    if pool.count(f) < 2:
        raise FormulaNotDuplicated(f"{render(f)} not duplicated on {side}")
    return _contract(_g3(d), side, f)


def _contract(d: Derivation, side: str, f: Formula) -> Derivation:
    r = d.rule
    c = d.conclusion
    if r.rule in ("At", "LBot"):
        if side == "L":
            return axiom(mset_remove(c.ant, f), c.suc, r.formula)
        return axiom(c.ant, mset_remove(c.suc, f), r.formula)

    if PRINCIPAL_SIDE.get(r.rule) == ("ant" if side == "L" else "suc") \
            and r.formula == f:
        return _contract_principal(d, side, f)

    if r.rule in ("RAnd", "LOr") and side == "R":
        weak = r.weak or ()
        if f in weak:
            return rebuild(d.rule, d.premises, weak=mset_remove(weak, f))
        return rebuild(d.rule, tuple(_contract(p, side, f) for p in d.premises))

    if r.rule == "Cut":
        phi = r.cutformula
        p1, p2 = d.premises
        if side == "L":
            c1 = p1.conclusion.ant.count(f)
            c2 = mset_remove(p2.conclusion.ant, phi).count(f)
        else:
            c1 = mset_remove(p1.conclusion.suc, phi).count(f)
            c2 = p2.conclusion.suc.count(f)
        if c1 >= 2:
            return rebuild(d.rule, (_contract(p1, side, f), p2))
        if c2 >= 2:
            return rebuild(d.rule, (p1, _contract(p2, side, f)))
        raise ShapeMismatch("contraction across the two premises of a cut")

    return rebuild(d.rule, tuple(_contract(p, side, f) for p in d.premises))


def _contract_principal(d: Derivation, side: str, f: Formula) -> Derivation:
    """Invert premise k on the other copy of `f` and keep output k: it
    holds each active formula of premise k twice, so contract each."""
    r = d.rule
    if side == "R" and f in (r.weak or ()):
        return rebuild(r, d.premises, weak=mset_remove(r.weak, f))
    item = _Item(r.rule, f, r.path or ())
    prems = []
    for k, (ant, suc) in enumerate(actives(item.tag, f, item.path)):
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


def _push_rgd(host: Formula, path, side: str, n: Derivation) -> Derivation:
    """Insert a right deep-rule application below the normalized `n`."""
    if n.rule.rule == "LGd":
        return rebuild(n.rule, [_push_rgd(host, path, side, p)
                                for p in n.premises])
    return infer("RGd", (n,), host, path, side)


def _active_child(r: RuleApp, idx: int, g: Formula, side: str):
    """The index of the child of `r`'s principal formula that premise `idx`
    of `r` receives as an active formula equal to `g` on `side`, or None
    when `g` is a context formula there."""
    acts = actives(r.rule, r.formula)
    if g not in acts[idx][side == "suc"]:
        return None
    # a binary rule gives premise idx child idx; a unary one gives both
    return idx if len(acts) == 2 else children(r.formula).index(g)


def _push_classical(r: RuleApp, premises):
    """Insert the classical rule `r` below normalized premises, commuting
    it past their deep-rule segments."""

    def on(formula):
        """The pushed rule with another principal formula."""
        return replace(r, formula=formula)

    prems = tuple(premises)

    # commute below a left deep rule first
    for idx, n in enumerate(prems):
        if n.rule.rule != "LGd":
            continue
        g, gpath = n.rule.formula, n.rule.path
        i = _active_child(r, idx, g, "ant")
        if i is not None:
            outs = [_push_classical(on(substitute_at(r.formula, (i,), gk)),
                                    _with(prems, idx, n.premises[k]))
                    for k, gk in enumerate(gd_sides(g, gpath))]
            return infer("LGd", outs, r.formula, (i,) + gpath)
        # a context occurrence; in a binary rule, align the other premise
        # by inversion
        if len(prems) == 1:
            aligned = (prems, prems)
        else:
            aligned = [_with(prems, 1 - idx, a)
                       for a in _invert(prems[1 - idx], _Item("LGd", g, gpath))]
        outs = [_push_classical(r, _with(aligned[k], idx, n.premises[k]))
                for k in (0, 1)]
        return rebuild(n.rule, outs)

    # then below a right deep rule
    for idx, n in enumerate(prems):
        if n.rule.rule != "RGd":
            continue
        h, hpath, hside = n.rule.formula, n.rule.path, n.rule.side
        i = _active_child(r, idx, h, "suc")
        if i is not None:
            resolved = gd_sides(h, hpath)["LR".index(hside)]
            out = _push_classical(on(substitute_at(r.formula, (i,), resolved)),
                                  _with(prems, idx, n.premises[0]))
            return infer("RGd", (out,), r.formula, (i,) + hpath, hside)
        # context occurrence: commute straight down (the restricted binary
        # rules cannot reach here: their classical contexts exclude h)
        assert len(prems) == 1, r.rule
        out = _push_classical(r, [n.premises[0]])
        return _push_rgd(h, hpath, hside, out)

    return rebuild(r, prems)


@nesting_limited
def normalize(d: Derivation) -> Derivation:
    """Transform a cutfree derivation into phase normal form: on every
    branch, classical rules above right deep rules above left deep rules;
    the endsequent is unchanged."""
    if not is_cutfree(d):
        raise ContainsCut("normal form is defined for cutfree derivations")
    return fold(_g3(d), _norm)


def _norm(d: Derivation, ps) -> Derivation:
    """`fold` step of `normalize`: `d` over its normalized premises `ps`."""
    r = d.rule
    if all(map(operator.is_, ps, d.premises)) and all(
            _PHASE.get(p.rule.rule, 2) >= _PHASE.get(r.rule, 2) for p in ps):
        return d
    if r.rule == "LGd":
        return rebuild(r, ps)
    if r.rule == "RGd":
        return _push_rgd(r.formula, r.path, r.side, ps[0])
    return _push_classical(r, ps)


# ---------------------------------------------------------------------------
# Cut elimination: split into classical branches, cut each pair of branches
# classically, reassemble

def _ccut(d1: Derivation, d2: Derivation, phi: Formula) -> Derivation:
    """Cutfree classical derivation of the cut of d1 and d2 on phi."""
    t_ant = d1.conclusion.ant + mset_remove(d2.conclusion.ant, phi)
    t_suc = mset_remove(d1.conclusion.suc, phi) + d2.conclusion.suc

    r1, r2 = d1.rule, d2.rule
    if r1.rule == "At":
        if phi == r1.formula:
            # absorb d2 with the axiom's antecedent variable intact
            out = _weaken_all(d2, "L", mset_sub(t_ant, d2.conclusion.ant))
            return _weaken_all(out, "R", mset_sub(t_suc, d2.conclusion.suc))
        return make_at(t_ant, t_suc, r1.formula)
    if r1.rule == "LBot":
        return make_lbot(t_ant, t_suc)
    if r2.rule == "At":
        if phi == r2.formula:
            out = _weaken_all(d1, "L", mset_sub(t_ant, d1.conclusion.ant))
            return _weaken_all(out, "R", mset_sub(t_suc, d1.conclusion.suc))
        return make_at(t_ant, t_suc, r2.formula)
    if r2.rule == "LBot" and d2.conclusion.ant.count(r2.formula) > (phi == r2.formula):
        # a bot that is not consumed by the cut remains in the conclusion
        return make_lbot(t_ant, t_suc)
    # (a cut on bot itself is always commuted into d1: no rule introduces
    # bot on the right, so it is never left-principal)

    if not (PRINCIPAL_SIDE.get(r1.rule) == "suc" and r1.formula == phi):
        if phi in (r1.weak or ()):
            # phi is implicitly weakened in: weaken d2's context in instead
            prems = tuple(_weaken_all(p, "L",
                                      mset_remove(d2.conclusion.ant, phi))
                          for p in d1.premises)
            new_weak = mset_remove(r1.weak, phi) + d2.conclusion.suc
            return rebuild(r1, prems, weak=new_weak)
        return rebuild(r1, tuple(_ccut(p, d2, phi) for p in d1.premises))

    if not (PRINCIPAL_SIDE.get(r2.rule) == "ant" and r2.formula == phi):
        return rebuild(r2, tuple(_ccut(d1, p, phi) for p in d2.premises))

    # principal on both sides: reduce the rank
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
            return _weaken_all(e, "R", d1.rule.weak or ())
        case Or(a, b):
            p = d1.premises[0]          # => a, b, rest
            q1, q2 = d2.premises        # ant + a => lam,  ant + b => lam
            e = _ccut(p, q1, a)
            e = _ccut(e, q2, b)
            for g in mset_remove(d2.conclusion.ant, phi):
                e = _contract(e, "L", g)
            for g in q1.conclusion.suc:
                e = _contract(e, "R", g)
            return _weaken_all(e, "R", d2.rule.weak or ())
    raise ShapeMismatch(f"cannot reduce cut on {render(phi)}")


def _split(n: Derivation) -> dict[tuple, tuple[Derivation, tuple]]:
    """The classical branches of the normalized cutfree G3 derivation `n`,
    by classical antecedent.  Left deep-rule inversion splits the
    antecedent (where two branches reach the same one, the left one wins);
    a `||` whose formula is idle in the derivation (no rule takes it) is
    inverted by one fold that puts each side in its place, which is what
    `_invert` gives without stepping through every node.  Then right
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
            f = hit[0]
            if f in antecedent_taken(d):
                todo.extend(reversed(_invert(d, _Item("LGd", *hit))))
            else:
                todo.extend(swap_antecedents(d, ((f, g),))
                            for g in reversed(gd_sides(*hit)))
        elif ant not in out:
            pairs = []
            for f in n.conclusion.suc:
                g = f
                while (hit := first_gd((g,))) is not None:
                    d, side = _invert(d, _Item("RGd", g, hit[1]))
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
    right = _split(fold(d2, _norm))
    branches = {}
    for xi, (c1, pairs) in _split(fold(d1, _norm)).items():
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
    (cutfree) premises are normalized and split into classical branches,
    each pair of branches that meets on a resolution of the cut formula is
    cut classically, and the deep rules are put back.  A classical cut is
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
    resolutions (after cut elimination and normalization)."""
    n = fold(eliminate_cuts(d), _norm)
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
