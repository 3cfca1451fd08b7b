"""Proof transformations.

Height-preserving admissible structural rules (weakening, inversion,
contraction), the phase normal form for cutfree derivations (classical
rules above the right deep rule above the left deep rule), cut elimination
for the classical subsystem and for the full calculus, and the
decomposition of a derivation into classical derivations indexed by
antecedent resolutions.

Inversion is the workhorse: its recursion carries out exactly the rule
commutations the other transformations need, including the three ways two
left deep-rule applications on the same formula can interact (disjoint
occurrences, one inside the kept disjunct, one inside the discarded
disjunct).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .calculus import (PRINCIPAL_SIDE, Derivation, RuleApp, is_cutfree,
                       make_at, make_land, make_lbot, make_lgd, make_lneg,
                       make_lor, make_rand, make_rgd, make_rneg, make_ror,
                       premises_of, rebuild, replay_rgd)
from .errors import (ContainsCut, FormulaNotDuplicated, NonClassicalAntecedent,
                     NonClassicalInput, NonClassicalRightContraction,
                     ShapeMismatch)
from .resolutions import resolution_steps, resolutions_multiset
from .syntax import (And, Formula, Gd, Neg, Or, Sequent, first_gd, gd_paths,
                     gd_sides, is_classical, mset, mset_add, mset_remove,
                     mset_sub, render, subformula_at, substitute_at)

_STRUCTURAL = ("LC", "RC", "LOrI", "RAndI")


def _guard_gt(d: Derivation) -> None:
    if d.rule.rule in _STRUCTURAL:
        raise ShapeMismatch(f"transformations do not handle the "
                            f"independent-context/structural rule {d.rule.rule}")


def _axiom_on(d: Derivation, ant, suc) -> Derivation:
    if d.rule.rule == "At":
        return make_at(ant, suc, d.rule.formula)
    return make_lbot(ant, suc)


# ---------------------------------------------------------------------------
# Weakening

def weaken(d: Derivation, side: str, f: Formula) -> Derivation:
    """Add `f` to the chosen side of the endsequent, height-preservingly."""
    _guard_gt(d)
    tag = d.rule.rule
    c = d.conclusion
    if tag in ("At", "LBot"):
        if side == "L":
            return _axiom_on(d, mset_add(c.ant, f), c.suc)
        return _axiom_on(d, c.ant, mset_add(c.suc, f))
    if tag in ("RAnd", "LOr") and side == "R":
        return rebuild(d.rule, d.premises, weak=mset_add(d.rule.weak or (), f))
    if tag == "Cut":
        return rebuild(d.rule, (weaken(d.premises[0], side, f), d.premises[1]))
    return rebuild(d.rule, tuple(weaken(p, side, f) for p in d.premises))


def _weaken_all(d: Derivation, side: str, fs) -> Derivation:
    for f in fs:
        d = weaken(d, side, f)
    return d


# ---------------------------------------------------------------------------
# Inversion

@dataclass(frozen=True)
class _Item:
    tag: str            # LNeg RNeg LAnd RAnd LOr ROr LGd RGd
    active: Formula
    path: tuple[int, ...] = ()


def _path_rel(p: tuple, q: tuple):
    """Relation of p to q: 'eq', 'disjoint', ('p_inside_q', j, rest), or
    ('q_inside_p', j, rest)."""
    if p == q:
        return "eq"
    if p[:len(q)] == q:
        return ("p_inside_q", p[len(q)], p[len(q) + 1:])
    if q[:len(p)] == p:
        return ("q_inside_p", q[len(p)], q[len(p) + 1:])
    return "disjoint"


def _invert(d: Derivation, item: _Item):
    """Returns a list of derivations (conjunctive items), or a pair
    (derivation, side) for the disjunctive RGd item."""
    _guard_gt(d)
    r = d.rule
    if r.rule in ("At", "LBot"):
        outs = [_axiom_on(d, a, s)
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

    if r.rule in ("RAnd", "LOr") and PRINCIPAL_SIDE[item.tag] == "suc":
        weak = r.weak or ()
        if item.active in weak:
            # introduced by the implicit weakening: rebuild, adjusting the slot
            def rebuilt(suc_repl, ant_add):
                w = mset_add(mset_remove(weak, item.active), *suc_repl)
                prems = tuple(_weaken_all(p, "L", ant_add) for p in d.premises)
                return rebuild(d.rule, prems, weak=w)

            match item.tag:
                case "RNeg":
                    return [rebuilt((), (item.active.child,))]
                case "RAnd":
                    return [rebuilt((item.active.left,), ()),
                            rebuilt((item.active.right,), ())]
                case "ROr":
                    return [rebuilt((item.active.left, item.active.right), ())]
                case "RGd":
                    return rebuilt((gd_sides(item.active, item.path)[0],), ()), "L"
            raise ShapeMismatch(f"item {item.tag} cannot sit in a weakening slot")

    if r.rule == "Cut":
        phi = r.cutformula
        p1, p2 = d.premises
        if PRINCIPAL_SIDE[item.tag] == "ant":
            in_first = item.active in p1.conclusion.ant
        else:
            in_first = item.active in mset_remove(p1.conclusion.suc, phi)
        target, other = (p1, p2) if in_first else (p2, p1)
        sub = _invert(target, item)
        if item.tag == "RGd":
            out, side = sub
            prems = (out, other) if in_first else (other, out)
            return rebuild(d.rule, prems), side
        outs = []
        for o in sub:
            prems = (o, other) if in_first else (other, o)
            outs.append(rebuild(d.rule, prems))
        return outs

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
        return rebuild(d.rule, (out,)), side

    subs = [_invert(p, item) for p in d.premises]
    return [rebuild(d.rule, prems) for prems in zip(*subs)]


def _invert_principal(d: Derivation, item: _Item):
    """The root rule acts on the very formula occurrence being inverted."""
    r = d.rule
    t_i, t_r = item.tag, r.rule

    if t_i == t_r and t_i in ("LNeg", "RNeg", "LAnd", "ROr"):
        return [d.premises[0]]
    if t_i == t_r and t_i in ("RAnd", "LOr"):
        return [_weaken_all(p, "R", r.weak or ()) for p in d.premises]

    if t_i == "LGd" and t_r == "LGd":
        return _invert_lgd_lgd(d, item)
    if t_i == "RGd" and t_r == "RGd":
        return _invert_rgd_rgd(d, item)

    # a shallow rule on a formula holding the item's deep occurrence
    if t_i == "LGd" and t_r == "LAnd":
        chi = item.active
        i, rest = item.path[0], item.path[1:]
        child = (chi.left, chi.right)[i]
        u = _invert(d.premises[0], _Item("LGd", child, rest))
        return [make_land(u[k], g)
                for k, g in enumerate(gd_sides(chi, item.path))]
    if t_i == "LGd" and t_r == "LOr":
        chi = item.active
        i, rest = item.path[0], item.path[1:]
        child = (chi.left, chi.right)[i]
        u = _invert(d.premises[i], _Item("LGd", child, rest))
        outs = []
        for k, g in enumerate(gd_sides(chi, item.path)):
            prems = (u[k], d.premises[1]) if i == 0 else (d.premises[0], u[k])
            outs.append(make_lor(prems[0], prems[1], g, r.weak or ()))
        return outs
    if t_i == "RGd" and t_r == "ROr":
        chi = item.active
        i, rest = item.path[0], item.path[1:]
        child = (chi.left, chi.right)[i]
        o, s = _invert(d.premises[0], _Item("RGd", child, rest))
        return make_ror(o, gd_sides(chi, item.path)["LR".index(s)]), s
    if t_i == "RGd" and t_r == "RAnd":
        chi = item.active
        i, rest = item.path[0], item.path[1:]
        child = (chi.left, chi.right)[i]
        o, s = _invert(d.premises[i], _Item("RGd", child, rest))
        prems = (o, d.premises[1]) if i == 0 else (d.premises[0], o)
        return make_rand(prems[0], prems[1],
                         gd_sides(chi, item.path)["LR".index(s)],
                         r.weak or ()), s

    # a deep rule inside a formula the shallow item decomposes
    if t_r == "LGd" and t_i in ("LAnd", "LOr"):
        chi = item.active
        i, rest = r.path[0], r.path[1:]
        child = (chi.left, chi.right)[i]
        if t_i == "LAnd":
            u = [_invert(p, _Item("LAnd", g))[0]
                 for p, g in zip(d.premises, gd_sides(chi, r.path))]
            return [make_lgd(u[0], u[1], child, rest)]
        # LOr item: two outputs, the deep rule lands inside one disjunct
        chi_l, chi_r = gd_sides(chi, r.path)
        u1 = _invert(d.premises[0], _Item("LOr", chi_l))
        u2 = _invert(d.premises[1], _Item("LOr", chi_r))
        outs = []
        for k in (0, 1):
            if k == i:
                outs.append(make_lgd(u1[k], u2[k], (chi.left, chi.right)[k], rest))
            else:
                outs.append(u1[k])
        return outs
    if t_r == "RGd" and t_i in ("ROr", "RAnd"):
        chi = item.active
        i, rest = r.path[0], r.path[1:]
        child = (chi.left, chi.right)[i]
        u = _invert(d.premises[0],
                    _Item(t_i, gd_sides(chi, r.path)["LR".index(r.side)]))
        if t_i == "ROr":
            return [make_rgd(u[0], child, rest, r.side)]
        outs = list(u)
        outs[i] = make_rgd(u[i], child, rest, r.side)
        return outs

    raise ShapeMismatch(f"no inversion case for item {t_i} against rule {t_r}")


def _invert_lgd_lgd(d: Derivation, item: _Item):
    chi = item.active
    pi, pr = item.path, d.rule.path
    chi_l, chi_r = gd_sides(chi, pi)
    if pr == pi:
        return [d.premises[0], d.premises[1]]
    prem_l, prem_r = gd_sides(chi, pr)
    rel = _path_rel(pr, pi)
    if rel == "disjoint":
        u1 = _invert(d.premises[0], _Item("LGd", prem_l, pi))
        u2 = _invert(d.premises[1], _Item("LGd", prem_r, pi))
        return [make_lgd(u1[0], u2[0], chi_l, pr),
                make_lgd(u1[1], u2[1], chi_r, pr)]
    if rel[0] == "p_inside_q":
        # the root rule's occurrence lies inside the item's disjunct j
        _, j, _rest = rel
        u1 = _invert(d.premises[0], _Item("LGd", prem_l, pi))
        u2 = _invert(d.premises[1], _Item("LGd", prem_r, pi))
        if j == 0:
            return [make_lgd(u1[0], u2[0], chi_l, pi + rel[2]), u1[1]]
        return [u1[0], make_lgd(u1[1], u2[1], chi_r, pi + rel[2])]
    # the item's occurrence lies inside the root rule's disjunct j
    _, j, rest = rel
    pj = d.premises[j]
    w = _invert(pj, _Item("LGd", (prem_l, prem_r)[j], pr + rest))
    other = d.premises[1 - j]
    outs = []
    for k, host in ((0, chi_l), (1, chi_r)):
        prems = (w[k], other) if j == 0 else (other, w[k])
        outs.append(make_lgd(prems[0], prems[1], host, pr))
    return outs


def _invert_rgd_rgd(d: Derivation, item: _Item):
    chi = item.active
    pi, pr = item.path, d.rule.path
    sr = d.rule.side
    if pr == pi:
        return d.premises[0], sr
    prem_formula = gd_sides(chi, pr)["LR".index(sr)]
    rel = _path_rel(pr, pi)
    if rel == "disjoint":
        o, s = _invert(d.premises[0], _Item("RGd", prem_formula, pi))
        return make_rgd(o, gd_sides(chi, pi)["LR".index(s)], pr, sr), s
    if rel[0] == "p_inside_q":
        # root rule's occurrence inside the item's disjunct j
        _, j, rest = rel
        o, s = _invert(d.premises[0], _Item("RGd", prem_formula, pi))
        if (0 if s == "L" else 1) == j:
            return make_rgd(o, gd_sides(chi, pi)["LR".index(s)], pi + rest, sr), s
        return o, s
    # item's occurrence inside the root rule's disjunct j
    _, j, rest = rel
    if (0 if sr == "L" else 1) == j:
        o, s = _invert(d.premises[0], _Item("RGd", prem_formula, pr + rest))
        return make_rgd(o, gd_sides(chi, pi)["LR".index(s)], pr, sr), s
    # the item's occurrence sits in the discarded disjunct: reintroduce
    return make_rgd(d.premises[0], gd_sides(chi, pi)[0], pr, sr), "L"


def invert(d: Derivation, tag: str, pos: int, path=()):
    """Height-preserving inversion of the rule `tag` at the conclusion
    occurrence `pos` (index into the canonical antecedent/succedent).

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
    return _invert(d, _Item(tag, f, path))


# ---------------------------------------------------------------------------
# Contraction

def contract(d: Derivation, side: str, f: Formula) -> Derivation:
    """Remove a duplicate of `f` from the chosen side, height-preservingly.

    Right contraction demands a classical formula.
    """
    if side == "R" and not is_classical(f):
        raise NonClassicalRightContraction(render(f))
    pool = d.conclusion.ant if side == "L" else d.conclusion.suc
    if pool.count(f) < 2:
        raise FormulaNotDuplicated(f"{render(f)} not duplicated on {side}")
    return _contract(d, side, f)


def _contract(d: Derivation, side: str, f: Formula) -> Derivation:
    _guard_gt(d)
    r = d.rule
    c = d.conclusion
    if r.rule in ("At", "LBot"):
        if side == "L":
            return _axiom_on(d, mset_remove(c.ant, f), c.suc)
        return _axiom_on(d, c.ant, mset_remove(c.suc, f))

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
    r = d.rule
    match r.rule:
        case "LNeg":
            u = _invert(d.premises[0], _Item("LNeg", f))[0]
            return make_lneg(_contract(u, "R", f.child), f)
        case "RNeg":
            u = _invert(d.premises[0], _Item("RNeg", f))[0]
            return make_rneg(_contract(u, "L", f.child), f)
        case "LAnd":
            u = _invert(d.premises[0], _Item("LAnd", f))[0]
            u = _contract(u, "L", f.left)
            u = _contract(u, "L", f.right)
            return make_land(u, f)
        case "ROr":
            u = _invert(d.premises[0], _Item("ROr", f))[0]
            u = _contract(u, "R", f.left)
            u = _contract(u, "R", f.right)
            return make_ror(u, f)
        case "RAnd":
            weak = r.weak or ()
            if f in weak:
                return rebuild(d.rule, d.premises, weak=mset_remove(weak, f))
            u1 = _invert(d.premises[0], _Item("RAnd", f))[0]
            u2 = _invert(d.premises[1], _Item("RAnd", f))[1]
            return make_rand(_contract(u1, "R", f.left),
                             _contract(u2, "R", f.right), f, weak)
        case "LOr":
            weak = r.weak or ()
            u1 = _invert(d.premises[0], _Item("LOr", f))[0]
            u2 = _invert(d.premises[1], _Item("LOr", f))[1]
            return make_lor(_contract(u1, "L", f.left),
                            _contract(u2, "L", f.right), f, weak)
        case "LGd":
            pi = r.path
            fl, fr = gd_sides(f, pi)
            u1 = _invert(d.premises[0], _Item("LGd", f, pi))[0]
            u2 = _invert(d.premises[1], _Item("LGd", f, pi))[1]
            return make_lgd(_contract(u1, "L", fl), _contract(u2, "L", fr),
                            f, pi)
    raise ShapeMismatch(f"contraction against rule {r.rule}")


# ---------------------------------------------------------------------------
# Derivation normal form

def _phase_rank(tag: str) -> int:
    if tag == "LGd":
        return 0
    if tag == "RGd":
        return 1
    return 2


def is_normal(d: Derivation) -> bool:
    """Phase predicate: along every root-to-leaf path the rule kinds go
    left-deep, then right-deep, then classical (axioms count classical)."""

    def walk(node: Derivation, floor: int) -> bool:
        rank = _phase_rank(node.rule.rule)
        if rank < floor:
            return False
        return all(walk(p, rank) for p in node.premises)

    return walk(d, 0)


def _push_rgd(host: Formula, path, side: str, n: Derivation) -> Derivation:
    """Insert a right deep-rule application below the normalized `n`."""
    if n.rule.rule == "LGd":
        return make_lgd(_push_rgd(host, path, side, n.premises[0]),
                        _push_rgd(host, path, side, n.premises[1]),
                        n.rule.formula, n.rule.path)
    return make_rgd(n, host, path, side)


def _push_classical(r: RuleApp, premises):
    """Insert the classical rule `r` below normalized premises, commuting
    it past their deep-rule segments."""
    tag, principal = r.rule, r.formula

    def on(formula):
        """The pushed rule with another principal formula."""
        return replace(r, formula=formula)

    prems = list(premises)

    # commute below a left deep rule first
    for idx, n in enumerate(prems):
        if n.rule.rule != "LGd":
            continue
        g, gpath = n.rule.formula, n.rule.path
        # active formulas of the pushed rule, per premise slot
        if tag == "LAnd" and g in (principal.left, principal.right):
            i = 0 if g == principal.left else 1
            outs = [_push_classical(on(substitute_at(principal, (i,), gk)),
                                    [n.premises[k]])
                    for k, gk in enumerate(gd_sides(g, gpath))]
            return make_lgd(outs[0], outs[1], principal, (i,) + gpath)
        if tag == "LOr" and idx == 0 and g == principal.left:
            outs = [_push_classical(on(substitute_at(principal, (0,), gk)),
                                    [n.premises[k], prems[1]])
                    for k, gk in enumerate(gd_sides(g, gpath))]
            return make_lgd(outs[0], outs[1], principal, (0,) + gpath)
        if tag == "LOr" and idx == 1 and g == principal.right:
            outs = [_push_classical(on(substitute_at(principal, (1,), gk)),
                                    [prems[0], n.premises[k]])
                    for k, gk in enumerate(gd_sides(g, gpath))]
            return make_lgd(outs[0], outs[1], principal, (1,) + gpath)
        # negation actives are classical, so only context cases remain;
        # shared-context occurrence: align the other premise by inversion
        if len(prems) == 1:
            outs = [_push_classical(r, [n.premises[k]]) for k in (0, 1)]
            return make_lgd(outs[0], outs[1], g, gpath)
        other = prems[1 - idx]
        aligned = _invert(other, _Item("LGd", g, gpath))
        outs = []
        for k in (0, 1):
            pair = [n.premises[k], aligned[k]] if idx == 0 \
                else [aligned[k], n.premises[k]]
            outs.append(_push_classical(r, pair))
        return make_lgd(outs[0], outs[1], g, gpath)

    # then below a right deep rule
    for idx, n in enumerate(prems):
        if n.rule.rule != "RGd":
            continue
        h, hpath, hside = n.rule.formula, n.rule.path, n.rule.side
        resolved = gd_sides(h, hpath)["LR".index(hside)]
        # negation actives are classical, so they never hold the occurrence
        if tag == "ROr" and h in (principal.left, principal.right):
            i = 0 if h == principal.left else 1
            out = _push_classical(on(substitute_at(principal, (i,), resolved)),
                                  [n.premises[0]])
            return make_rgd(out, principal, (i,) + hpath, hside)
        if tag == "RAnd" and ((idx == 0 and h == principal.left)
                              or (idx == 1 and h == principal.right)):
            i = idx
            pair = [n.premises[0], prems[1]] if i == 0 else [prems[0], n.premises[0]]
            out = _push_classical(on(substitute_at(principal, (i,), resolved)),
                                  pair)
            return make_rgd(out, principal, (i,) + hpath, hside)
        # context occurrence: commute straight down (the restricted binary
        # rules cannot reach here: their classical contexts exclude h)
        assert tag not in ("RAnd", "LOr"), tag
        out = _push_classical(r, [n.premises[0]])
        return _push_rgd(h, hpath, hside, out)

    return rebuild(r, prems)


def normalize(d: Derivation) -> Derivation:
    """Transform a cutfree derivation into phase normal form: on every
    branch, classical rules above right deep rules above left deep rules;
    the endsequent is unchanged."""
    if not is_cutfree(d):
        raise ContainsCut("normal form is defined for cutfree derivations")
    return _norm(d)


def _norm(d: Derivation) -> Derivation:
    _guard_gt(d)
    if not d.premises:
        return d
    ps = [_norm(p) for p in d.premises]
    r = d.rule
    if r.rule == "LGd":
        return make_lgd(ps[0], ps[1], r.formula, r.path)
    if r.rule == "RGd":
        return _push_rgd(r.formula, r.path, r.side, ps[0])
    return _push_classical(r, ps)


# ---------------------------------------------------------------------------
# Classical cut elimination

def classical_eliminate_cuts(d: Derivation) -> Derivation:
    """Standard cut elimination within the classical subsystem."""
    if not d.conclusion.is_classical():
        raise NonClassicalInput(str(d.conclusion))
    return _celim(d)


def _celim(d: Derivation) -> Derivation:
    ps = tuple(_celim(p) for p in d.premises)
    if d.rule.rule == "Cut":
        return _ccut(ps[0], ps[1], d.rule.cutformula)
    return rebuild(d.rule, ps) if ps else d


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

    left_principal = r1.rule in ("RNeg", "RAnd", "ROr") and r1.formula == phi

    if not left_principal:
        if r1.rule in ("LNeg", "RNeg", "LAnd", "ROr"):
            return rebuild(d1.rule, (_ccut(d1.premises[0], d2, phi),))
        if r1.rule in ("RAnd", "LOr"):
            weak = r1.weak or ()
            if phi in weak:
                prems = tuple(_weaken_all(p, "L",
                                          mset_remove(d2.conclusion.ant, phi))
                              for p in d1.premises)
                new_weak = mset_remove(weak, phi) + d2.conclusion.suc
                return rebuild(d1.rule, prems, weak=new_weak)
            return rebuild(d1.rule, tuple(_ccut(p, d2, phi) for p in d1.premises))
        raise ShapeMismatch(f"unexpected rule {r1.rule} in classical cut")

    right_principal = r2.rule in ("LNeg", "LAnd", "LOr") and r2.formula == phi

    if not right_principal:
        if r2.rule in ("LNeg", "RNeg", "LAnd", "ROr"):
            return rebuild(d2.rule, (_ccut(d1, d2.premises[0], phi),))
        if r2.rule in ("RAnd", "LOr"):
            return rebuild(d2.rule, tuple(_ccut(d1, p, phi) for p in d2.premises))
        raise ShapeMismatch(f"unexpected rule {r2.rule} in classical cut")

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


# ---------------------------------------------------------------------------
# Full cut elimination

def _family(n: Derivation) -> dict[tuple, Derivation]:
    """Split a cutfree derivation along every antecedent global
    disjunction: one derivation per antecedent resolution."""
    hit = first_gd(n.conclusion.ant)
    if hit is None:
        return {n.conclusion.ant: n}
    f, path = hit
    dl, dr = _invert(n, _Item("LGd", f, path))
    out = dict(_family(dr))
    out.update(_family(dl))
    return out


def _classicalize_suc(d: Derivation, entries):
    """Resolve every succedent global disjunction by inversion.

    `entries` lists (key, formula) covering d's succedent.  Returns the
    classical derivation, the inversion records (key, formula-before,
    path, side, kept) in application order, and the final formula per
    entry.
    """
    cur = list(entries)
    records = []
    while True:
        pick = None
        for i, (_key, f) in enumerate(cur):
            if not is_classical(f):
                pick = i
                break
        if pick is None:
            return d, records, cur
        key, f = cur[pick]
        path = gd_paths(f)[0]
        d, side = _invert(d, _Item("RGd", f, path))
        kept = gd_sides(f, path)["LR".index(side)]
        records.append((key, f, path, side, kept))
        cur[pick] = (key, kept)


def _build_lgd_family(target_ant, suc, family) -> Derivation:
    hit = first_gd(target_ant)
    if hit is None:
        out = family[mset(target_ant)]
        assert out.conclusion == Sequent(target_ant, suc)
        return out
    f, path = hit
    dl, dr = (_build_lgd_family(a, s, family)
              for a, s in premises_of("LGd", target_ant, suc, f, path))
    return make_lgd(dl, dr, f, path)


def _eliminate_one(d1: Derivation, d2: Derivation, phi: Formula) -> Derivation:
    """Replace a cut with cutfree premises by a cutfree derivation."""
    if d1.conclusion.is_classical() and d2.conclusion.is_classical():
        return _ccut(d1, d2, phi)

    delta = mset_remove(d1.conclusion.suc, phi)
    sigma = d2.conclusion.suc
    gamma = d1.conclusion.ant
    pi = mset_remove(d2.conclusion.ant, phi)

    n1 = _norm(d1)
    n2 = _norm(d2)
    fam1 = _family(n1)
    fam2 = _family(n2)

    entries1 = [("cut", phi)] + [(("ctx", i), g) for i, g in enumerate(delta)]
    left_parts = {}
    for xi, dd in fam1.items():
        c1, recs1, finals1 = _classicalize_suc(dd, entries1)
        alpha = next(f for k, f in finals1 if k == "cut")
        ctx_recs = [rec for rec in recs1 if rec[0] != "cut"]
        left_parts[xi] = (c1, alpha, ctx_recs)

    big: dict[tuple, Derivation] = {}
    sig_entries = [(("sig", i), g) for i, g in enumerate(sigma)]
    right_cache: dict[tuple, tuple] = {}
    for xi, (c1, alpha, ctx_recs) in left_parts.items():
        for theta in resolutions_multiset(pi):
            key = mset(xi + theta)
            if key in big:
                continue
            theta_key = mset_add(theta, alpha)
            if theta_key not in right_cache:
                right_cache[theta_key] = _classicalize_suc(fam2[theta_key],
                                                           sig_entries)
            c2, recs2, _finals2 = right_cache[theta_key]
            spliced = _ccut(c1, c2, alpha)
            big[key] = replay_rgd(spliced,
                                  [rec[1:] for rec in ctx_recs + recs2])
    return _build_lgd_family(gamma + pi, delta + sigma, big)


def eliminate_cuts(d: Derivation) -> Derivation:
    """Transform any derivation into a cutfree one with the same endsequent.

    Each innermost cut is eliminated by normalizing its (cutfree) premises,
    splicing the classical parts with classical cuts resolution by
    resolution, eliminating those classically, and reassembling the deep
    phases.
    """
    ps = tuple(eliminate_cuts(p) for p in d.premises)
    if d.rule.rule == "Cut":
        return _eliminate_one(ps[0], ps[1], d.rule.cutformula)
    return rebuild(d.rule, ps) if ps else d


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


def resolve_derivation(d: Derivation) -> ResolvedDerivation:
    """Decompose `d` into classical subderivations indexed by antecedent
    resolutions (after cut elimination and normalization)."""
    if not is_cutfree(d):
        d = eliminate_cuts(d)
    n = _norm(d)
    gamma = n.conclusion.ant
    delta = n.conclusion.suc
    entries = [(i, g) for i, g in enumerate(delta)]
    branches: dict[tuple, Derivation] = {}
    mapping: dict[tuple, tuple[Formula, ...]] = {}
    pairings: dict[tuple, tuple] = {}
    for xi, dd in _family(n).items():
        c, _recs, finals = _classicalize_suc(dd, entries)
        branches[xi] = c
        mapping[xi] = mset(f for _k, f in finals)
        pairings[xi] = tuple((delta[k], f) for k, f in finals)
    return ResolvedDerivation(gamma, delta, branches, mapping, pairings)


def reassemble(res: ResolvedDerivation) -> Derivation:
    """Inverse of resolve_derivation: rebuild a derivation of the original
    endsequent from the classical branches."""
    family = {}
    for xi, c in res.branches.items():
        # the last formula's steps end nearest the root
        family[xi] = replay_rgd(c, [step for f, r in reversed(res.pairings[xi])
                                    for step in resolution_steps(f, r)])
    return _build_lgd_family(res.gamma, res.delta, family)
