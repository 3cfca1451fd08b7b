"""Proof objects and a strict checker for the two-disjunction calculus.

A derivation is a finite tree of rule applications.  Rule metadata
identifies the principal formula both by value and by position in the
conclusion's canonical multiset, carries occurrence paths and chosen sides
for the deep rules, the implicit-weakening multiset for the restricted
context rules, the cutformula for cut, and the context split for the
independent-context variants.  `RuleApp` and `Derivation`, like
`Sequent`, are frozen dataclasses with a hand-written `__init__` that sets
each field once through `object.__setattr__`, which the prover and the
transforms call once per node they build.

Each logical rule is described once, by `premises_of`: the premises its
principal formula leaves behind.  `infer`, the one forward step, reads it
leaf-first: it takes each premise's active formulas out of that premise
and concludes the context left, which the premises must share
(ValueError otherwise), plus the principal formula.  `derive` is the one
root-first builder: it steps back with `premises_of` and closes each rule
from the goal it expanded, which needs no `infer`.  It does not expand the
right premise of a left deep rule whose left side is idle in the left
premise's derivation, that is, taken from the antecedent by none of its
rules (`antecedent_taken`): by weakening, that derivation with the side
swapped for the principal formula (`swap_antecedents`, one fold) derives
the goal.

Sequent sides stay in canonical order without being sorted again:
`infer` takes formulas out with `mset_sub` and puts them in with
`mset_add`, which keep a canonical tuple canonical, and builds the
conclusion with `Sequent._canonical`, which does not sort.

The checker validates every side condition: context arithmetic as multiset
equations, classicality of restricted contexts, path legality for the deep
rules, and the classical-only right contraction of the variant system.  It
never repairs anything.  It compares a premise's sides with the expected
multisets as tuples, and sorts only what it concatenates (the Cut
conclusion) or reads from the rule (the RAndI and LOrI split): a side out
of canonical order is refused, never accepted.  `check_inference` looks
the tag up in `_CHECKS`, one check function per rule with its number of
premises; `check_derivation` walks the nodes on a stack of `(node, parent
entry, premise index)` and reads a node's address off those links only
when the node fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .errors import (ArityMismatch, DerivationCheckError, InvalidPath,
                     ParseError, RuleViolation, ShapeMismatch)
from .syntax import (_TABLE_TYPES, And, BOT, Bot, Formula, Neg, Or, Prop,
                     Sequent, children, formula_entry, formula_from_json,
                     gd_sides, is_classical, mset, mset_add, mset_leq,
                     mset_remove, mset_sub, postorder, render, symbol_count)


# sets a field of a frozen dataclass from its own `__init__`
_setattr = object.__setattr__


@dataclass(frozen=True, init=False)
class RuleApp:
    rule: str
    pos: int | None = None            # principal position (ant or suc per rule)
    pos2: int | None = None           # At: position of the variable in the succedent
    formula: Formula | None = None    # principal formula value
    path: tuple[int, ...] | None = None  # LGd/RGd: occurrence path into `formula`
    side: str | None = None           # RGd: 'L' or 'R'
    weak: tuple[Formula, ...] | None = None  # RAnd/LOr: implicit weakening
    cutformula: Formula | None = None
    split: tuple[tuple[Formula, ...], tuple[Formula, ...]] | None = None
    # LOrI/RAndI: premise-1 share of (antecedent context, succedent context)

    def __init__(self, rule, pos=None, pos2=None, formula=None, path=None,
                 side=None, weak=None, cutformula=None, split=None):
        _setattr(self, "rule", rule)
        _setattr(self, "pos", pos)
        _setattr(self, "pos2", pos2)
        _setattr(self, "formula", formula)
        _setattr(self, "path", path)
        _setattr(self, "side", side)
        _setattr(self, "weak", weak)
        _setattr(self, "cutformula", cutformula)
        _setattr(self, "split", split)


@dataclass(frozen=True, init=False)
class Derivation:
    conclusion: Sequent
    rule: RuleApp
    premises: tuple[Derivation, ...] = ()

    def __init__(self, conclusion, rule, premises=()):
        _setattr(self, "conclusion", conclusion)
        _setattr(self, "rule", rule)
        _setattr(self, "premises", tuple(premises))


def height(d: Derivation) -> int:
    """Axioms have height 1; otherwise 1 plus the premise maximum."""
    return fold(d, lambda _node, heights: 1 + max(heights, default=0))


def cutrank(d: Derivation) -> int:
    """Largest symbol count among cutformulas; 0 when cutfree."""
    return max((symbol_count(n.rule.cutformula) for n in rule_nodes(d)
                if n.rule.rule == "Cut"), default=0)


def is_cutfree(d: Derivation) -> bool:
    return all(n.rule.rule != "Cut" for n in rule_nodes(d))


def rule_nodes(d: Derivation):
    """The nodes of `d` in preorder, premises left to right, without
    recursion; a node object held twice comes once, where it is first
    reached."""
    seen: set[int] = set()
    stack = [d]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            yield node
            stack.extend(reversed(node.premises))


def fold(d: Derivation, step):
    """`step(node, values)` over the nodes of `d`, premises first, where
    `values` holds its results on the premises; a node object held twice is
    stepped once (by identity: dataclass equality recurses)."""
    done: dict[int, object] = {}
    for node in postorder(d, lambda n: n.premises, done):
        done[id(node)] = step(node, [done[id(p)] for p in node.premises])
    return done[id(d)]


# ---------------------------------------------------------------------------
# Builders for the axioms, cut and the variant-system rules.  Each computes
# the conclusion from the premises plus the principal data, raising
# ValueError on misuse; the checker remains the independent authority on
# rule legality.

def axiom(ant, suc, f: Formula) -> Derivation:
    """The axiom on `f` over the canonical sides `ant` and `suc`, which it
    does not sort again: LBot when `f` is bot, held by `ant`, and
    otherwise At on the variable `f`, held by both sides."""
    if f is BOT:
        rule = RuleApp("LBot", pos=ant.index(BOT), formula=BOT)
    else:
        rule = RuleApp("At", pos=ant.index(f), pos2=suc.index(f), formula=f)
    return Derivation(Sequent._canonical(ant, suc), rule)


def make_at(ant, suc, var: Formula | None = None) -> Derivation:
    ant, suc = mset(ant), mset(suc)
    if var is None:
        shared = [f for f in ant if isinstance(f, Prop) and f in suc]
        if not shared:
            raise ValueError("no shared variable for an identity axiom")
        var = shared[0]
    return axiom(ant, suc, var)


def make_lbot(ant, suc) -> Derivation:
    return axiom(mset(ant), mset(suc), BOT)


def make_cut(p1: Derivation, p2: Derivation, cutformula: Formula) -> Derivation:
    concl = Sequent(p1.conclusion.ant + mset_remove(p2.conclusion.ant, cutformula),
                    mset_remove(p1.conclusion.suc, cutformula) + p2.conclusion.suc)
    return Derivation(concl, RuleApp("Cut", cutformula=cutformula), (p1, p2))


def make_lc(premise: Derivation, f: Formula) -> Derivation:
    concl = Sequent._canonical(mset_remove(premise.conclusion.ant, f),
                               premise.conclusion.suc)
    return Derivation(concl, RuleApp("LC", pos=concl.ant.index(f), formula=f),
                      (premise,))


def make_rc(premise: Derivation, f: Formula) -> Derivation:
    concl = Sequent._canonical(premise.conclusion.ant,
                               mset_remove(premise.conclusion.suc, f))
    return Derivation(concl, RuleApp("RC", pos=concl.suc.index(f), formula=f),
                      (premise,))


def make_randi(p1: Derivation, p2: Derivation, conj: And) -> Derivation:
    split = (p1.conclusion.ant, mset_remove(p1.conclusion.suc, conj.left))
    concl = Sequent(p1.conclusion.ant + p2.conclusion.ant,
                    split[1] + mset_remove(p2.conclusion.suc, conj.right)
                    + (conj,))
    return Derivation(concl, RuleApp("RAndI", pos=concl.suc.index(conj),
                                     formula=conj, split=split), (p1, p2))


def make_lori(p1: Derivation, p2: Derivation, disj: Or) -> Derivation:
    split = (mset_remove(p1.conclusion.ant, disj.left), p1.conclusion.suc)
    concl = Sequent(split[0] + mset_remove(p2.conclusion.ant, disj.right)
                    + (disj,),
                    p1.conclusion.suc + p2.conclusion.suc)
    return Derivation(concl, RuleApp("LOrI", pos=concl.ant.index(disj),
                                     formula=disj, split=split), (p1, p2))


# ---------------------------------------------------------------------------
# The logical rules, read root-first from `premises_of` and leaf-first by
# `infer`.

# side of the principal formula per logical rule ('ant' or 'suc')
PRINCIPAL_SIDE = {"LNeg": "ant", "RNeg": "suc", "LAnd": "ant", "RAnd": "suc",
                  "LOr": "ant", "ROr": "suc", "LGd": "ant", "RGd": "suc"}


def premises_of(tag: str, ant, suc, f: Formula, path=(), side: str = "L"):
    """The premises `(ant, suc)` of the logical rule `tag` with principal
    `f` in `ant => suc`, one pair per premise: RAnd and LOr without
    implicit weakening, the deep rules at `path`, RGd on `side`."""
    match tag:
        case "LNeg":
            return [(mset_remove(ant, f), mset_add(suc, f.child))]
        case "RNeg":
            return [(mset_add(ant, f.child), mset_remove(suc, f))]
        case "LAnd":
            return [(mset_add(mset_remove(ant, f), f.left, f.right), suc)]
        case "ROr":
            return [(ant, mset_add(mset_remove(suc, f), f.left, f.right))]
        case "RAnd":
            rest = mset_remove(suc, f)
            return [(ant, mset_add(rest, f.left)), (ant, mset_add(rest, f.right))]
        case "LOr":
            rest = mset_remove(ant, f)
            return [(mset_add(rest, f.left), suc), (mset_add(rest, f.right), suc)]
        case "LGd":
            rest = mset_remove(ant, f)
            return [(mset_add(rest, g), suc) for g in gd_sides(f, path)]
        case "RGd":
            g = gd_sides(f, path)["LR".index(side)]
            return [(ant, mset_add(mset_remove(suc, f), g))]
    raise ShapeMismatch(f"no backward step for rule {tag}")


def actives(tag: str, f: Formula, path=(), side: str = "L"):
    """Per premise of the logical rule `tag` on `f`, the formulas
    `(ant, suc)` that premise holds in place of `f`; cached on `f`."""
    key = ("_actives", tag, tuple(path), side)
    out = f.__dict__.get(key)
    if out is None:
        alone = ((f,), ()) if PRINCIPAL_SIDE.get(tag) == "ant" else ((), (f,))
        out = f.__dict__[key] = tuple(premises_of(tag, *alone, f, path, side))
    return out


def infer(tag: str, premises, f: Formula, path=(), side: str | None = None,
          weak=()) -> Derivation:
    """The logical rule `tag` with principal `f` (the deep rules at `path`,
    RGd on `side`) applied to premise derivations.  Each premise less its
    active formulas is the context; the conclusion is that context plus
    `f`, and for RAnd and LOr plus the implicit weakening `weak` in the
    succedent.  Raises ValueError when a premise lacks its active
    formulas or the premises leave different contexts."""
    return _infer(tag, premises, f, actives(tag, f, path, side), path, side,
                  mset(weak) if weak else ())


def _infer(tag: str, premises, f: Formula, acts, path, side, weak):
    """`infer` given the rule's `actives` and a canonical `weak`.  The
    premises' sides are canonical, and each step below keeps them so: no
    side is sorted again."""
    if len(premises) != len(acts):
        raise ValueError(f"premises of the {tag} rule do not align")
    context = None
    for p, (a, s) in zip(premises, acts):
        here = (mset_sub(p.conclusion.ant, a) if a else p.conclusion.ant,
                mset_sub(p.conclusion.suc, s) if s else p.conclusion.suc)
        if context is None:
            context = here
        elif here != context:
            raise ValueError(f"premises of the {tag} rule do not align")
    ant, suc = context
    if tag not in ("RAnd", "LOr"):
        weak = None
    elif weak:
        suc = mset_add(suc, *weak)
    if PRINCIPAL_SIDE[tag] == "ant":
        ant = mset_add(ant, f)
        pos = ant.index(f)
    else:
        suc = mset_add(suc, f)
        pos = suc.index(f)
    return Derivation(Sequent._canonical(ant, suc), RuleApp(
        tag, pos=pos, formula=f, weak=weak,
        path=tuple(path) if tag in ("LGd", "RGd") else None,
        side=side if tag == "RGd" else None), premises)


# rules that take their principal formula from the antecedent, and rules
# whose premises keep their conclusion's whole antecedent
_TAKES = frozenset(("At", "LBot", "LNeg", "LAnd", "LOr", "LGd", "LC"))
_KEEPS = frozenset(("RNeg", "ROr", "RAnd", "RGd", "RC"))


def antecedent_taken(d: Derivation):
    """The formulas the rules of `d` take from the antecedent: the
    principal of each At, LBot, LNeg, LAnd, LOr, LGd and LC, and the whole
    antecedent of a rule that splits it (Cut, LOrI, RAndI).  A formula of
    the endsequent's antecedent that never comes is idle in `d`: every
    node of `d` holds it as context, so `swap_antecedents` may put another
    formula in its place."""
    for n in rule_nodes(d):
        tag = n.rule.rule
        if tag in _TAKES:
            yield n.rule.formula
        elif tag not in _KEEPS:
            yield from n.conclusion.ant


def swap_antecedents(d: Derivation, swaps) -> Derivation:
    """`d` with, for each pair `(a, f)` of `swaps` in order, one `a`
    replaced by `f` in the antecedent of every node, in one fold.  Each
    `a` must be idle where its pair applies (see `antecedent_taken`): the
    rules that take from the antecedent get their principal's new
    position, and every other field is kept."""
    def step(node: Derivation, premises) -> Derivation:
        ant = node.conclusion.ant
        for a, f in swaps:
            ant = mset_add(mset_remove(ant, a), f)
        r = node.rule
        pos = ant.index(r.formula) if r.rule in _TAKES else r.pos
        if pos != r.pos:
            r = RuleApp(r.rule, pos, r.pos2, r.formula, r.path, r.side,
                        r.weak, r.cutformula, r.split)
        return Derivation(Sequent._canonical(ant, node.conclusion.suc), r,
                          premises)

    return fold(d, step)


def derive(goal, step, *args):
    """A derivation of `goal`, a pair `(ant, suc)` of canonical sides,
    built root-first on an explicit stack, or the first failure.
    `step(ant, suc, *args)` returns a Derivation of `ant => suc`, a
    failure (anything but a tuple), or a logical rule `(tag, f, path)`,
    whose premises are derived left to right.  A rule is closed from the
    goal it expanded, which its premises come from: the conclusion is
    that goal, and nothing is inferred again.  A step's derivation of
    another sequent raises ValueError.

    An LGd whose left premise's derivation takes no formula equal to the
    left side `a` from the antecedent (its side is idle) has no right
    premise: by weakening, that derivation with one `a` in every
    antecedent replaced by the principal `f` derives the goal, and the
    right premise is never stepped.  A run of such splits applies its
    replacements in order, in one `swap_antecedents` fold.  So a split is
    pruned only where the goal is proved, and a failure is the one the
    unpruned search meets first.  The idle test reads `taken`, the
    formulas that rules take from the antecedent in closing order, kept
    while a split's left premise is open: that premise's rules are the
    segment from the split's mark on, and a step's derivation is walked
    once."""
    stack = []  # per open rule: goal, tag, f, path, premises, derived, mark
    taken, open_left = [], 0  # `open_left`: splits in their left premise
    ant, suc = goal
    while True:
        out = step(ant, suc, *args)
        if isinstance(out, tuple):
            tag, f, path = out
            premises = premises_of(tag, ant, suc, f, path)
            stack.append((ant, suc, tag, f, path, premises, [], len(taken)))
            open_left += tag == "LGd"
            ant, suc = premises[0]
            continue
        if isinstance(out, Derivation):
            if out.conclusion.ant != ant or out.conclusion.suc != suc:
                raise ValueError(f"a step derived {out.conclusion} for the "
                                 f"goal {Sequent._canonical(ant, suc)}")
            if open_left:
                taken.extend(antecedent_taken(out))
        swaps = []  # `out` derives its goal once these are swapped in
        while isinstance(out, Derivation) and stack:
            ant, suc, tag, f, path, premises, derived, mark = stack[-1]
            if tag == "LGd" and not derived:
                open_left -= 1
                a = gd_sides(f, path)[0]
                try:
                    taken.index(a, mark)
                except ValueError:  # idle: prune the right premise
                    stack.pop()
                    swaps.append((a, f))
                    continue
            if swaps:
                out, swaps = swap_antecedents(out, swaps), []
            derived.append(out)
            if len(derived) < len(premises):
                ant, suc = premises[len(derived)]
                break
            stack.pop()
            if PRINCIPAL_SIDE[tag] == "ant":
                pos = ant.index(f)
                if open_left:
                    taken.append(f)
            else:
                pos = suc.index(f)
            out = Derivation(Sequent._canonical(ant, suc), RuleApp(
                tag, pos=pos, formula=f,
                path=path if tag in ("LGd", "RGd") else None,
                weak=() if tag in ("RAnd", "LOr") else None), derived)
        else:
            return swap_antecedents(out, swaps) if swaps else out


def replay_rgd(d: Derivation, steps) -> Derivation:
    """Reintroduce global disjunctions below `d`.  `steps` lists right
    deep-rule applications (formula-before, path, side, kept) root-first,
    as `resolution_steps` and succedent inversion record them; `kept` is
    the premise formula, so no step splits its formula again."""
    for before, path, side, kept in reversed(steps):
        d = _infer("RGd", (d,), before, [((), (kept,))], path, side, ())
    return d


def rebuild(r: RuleApp, premises, weak=None) -> Derivation:
    """Apply the rule `r` describes over new premises, with the implicit
    weakening `weak` in place of `r.weak` when given."""
    if r.rule == "Cut":
        return make_cut(premises[0], premises[1], r.cutformula)
    return infer(r.rule, premises, r.formula, r.path or (), r.side,
                 (r.weak or ()) if weak is None else weak)


# ---------------------------------------------------------------------------
# Checking


def _principal(rule: RuleApp, seq: Sequent, side: str) -> Formula:
    pool = seq.ant if side == "ant" else seq.suc
    if rule.pos is None or not 0 <= rule.pos < len(pool):
        raise RuleViolation(rule.rule, f"principal position {rule.pos} out of range")
    f = pool[rule.pos]
    if rule.formula != f:
        meta = "none" if rule.formula is None else render(rule.formula)
        raise RuleViolation(rule.rule, f"principal mismatch: meta {meta} vs "
                                       f"conclusion {render(f)}")
    return f


def _deep_sides(rule: RuleApp, f: Formula) -> tuple[Formula, Formula]:
    """`f` with the global disjunction at a deep rule's `path` replaced by
    its left and by its right disjunct."""
    try:
        return gd_sides(f, rule.path or ())
    except InvalidPath as e:
        raise RuleViolation(rule.rule, str(e)) from e


def _want(tag: str, premise: Sequent, ant, suc, which="premise") -> None:
    # `ant` and `suc` are canonical, as a premise's sides are: equal
    # multisets are equal tuples, and unequal ones are refused
    if premise.ant != ant or premise.suc != suc:
        raise RuleViolation(tag, f"{which} is {premise}, "
                                 f"expected {Sequent(ant, suc)}")


# One check per rule: `check(conclusion, rule, premises)`, with the
# premises' sequents already counted against the rule's arity.

def _check_at(c: Sequent, rule: RuleApp, ps) -> None:
    f = _principal(rule, c, "ant")
    if not isinstance(f, Prop):
        raise RuleViolation("At", "identity axiom needs a variable")
    if rule.pos2 is None or not 0 <= rule.pos2 < len(c.suc) or \
            c.suc[rule.pos2] != f:
        raise RuleViolation("At", f"variable {render(f)} not in succedent")


def _check_lbot(c: Sequent, rule: RuleApp, ps) -> None:
    if not isinstance(_principal(rule, c, "ant"), Bot):
        raise RuleViolation("LBot", "principal must be bot")


def _check_lneg(c: Sequent, rule: RuleApp, ps) -> None:
    f = _principal(rule, c, "ant")
    if not isinstance(f, Neg):
        raise RuleViolation("LNeg", "principal must be a negation")
    _want("LNeg", ps[0], mset_remove(c.ant, f), mset_add(c.suc, f.child))


def _check_rneg(c: Sequent, rule: RuleApp, ps) -> None:
    f = _principal(rule, c, "suc")
    if not isinstance(f, Neg):
        raise RuleViolation("RNeg", "principal must be a negation")
    _want("RNeg", ps[0], mset_add(c.ant, f.child), mset_remove(c.suc, f))


def _check_land(c: Sequent, rule: RuleApp, ps) -> None:
    f = _principal(rule, c, "ant")
    if not isinstance(f, And):
        raise RuleViolation("LAnd", "principal must be a conjunction")
    _want("LAnd", ps[0], mset_add(mset_remove(c.ant, f), f.left, f.right),
          c.suc)


def _check_ror(c: Sequent, rule: RuleApp, ps) -> None:
    f = _principal(rule, c, "suc")
    if not isinstance(f, Or):
        raise RuleViolation("ROr", "principal must be a split disjunction")
    _want("ROr", ps[0], c.ant,
          mset_add(mset_remove(c.suc, f), f.left, f.right))


def _classical_context(tag: str, rule: RuleApp, pool):
    """`pool` less the implicit weakening of RAnd or LOr, which must be
    in `pool` and leave a classical context."""
    weak = rule.weak if rule.weak is not None else ()
    if not mset_leq(weak, pool):
        raise RuleViolation(tag, "weakening multiset not in conclusion")
    lam = mset_sub(pool, weak)
    if not all(is_classical(g) for g in lam):
        raise RuleViolation(tag, "premise right context must be classical")
    return lam


def _check_rand(c: Sequent, rule: RuleApp, ps) -> None:
    f = _principal(rule, c, "suc")
    if not isinstance(f, And):
        raise RuleViolation("RAnd", "principal must be a conjunction")
    lam = _classical_context("RAnd", rule, mset_remove(c.suc, f))
    _want("RAnd", ps[0], c.ant, mset_add(lam, f.left), "left premise")
    _want("RAnd", ps[1], c.ant, mset_add(lam, f.right), "right premise")


def _check_lor(c: Sequent, rule: RuleApp, ps) -> None:
    f = _principal(rule, c, "ant")
    if not isinstance(f, Or):
        raise RuleViolation("LOr", "principal must be a split disjunction")
    lam = _classical_context("LOr", rule, c.suc)
    gam = mset_remove(c.ant, f)
    _want("LOr", ps[0], mset_add(gam, f.left), lam, "left premise")
    _want("LOr", ps[1], mset_add(gam, f.right), lam, "right premise")


def _check_lgd(c: Sequent, rule: RuleApp, ps) -> None:
    f = _principal(rule, c, "ant")
    left, right = _deep_sides(rule, f)
    gam = mset_remove(c.ant, f)
    _want("LGd", ps[0], mset_add(gam, left), c.suc, "left premise")
    _want("LGd", ps[1], mset_add(gam, right), c.suc, "right premise")


def _check_rgd(c: Sequent, rule: RuleApp, ps) -> None:
    f = _principal(rule, c, "suc")
    sides = _deep_sides(rule, f)
    if rule.side not in ("L", "R"):
        raise RuleViolation("RGd", f"bad side {rule.side!r}")
    _want("RGd", ps[0], c.ant,
          mset_add(mset_remove(c.suc, f), sides["LR".index(rule.side)]))


def _check_cut(c: Sequent, rule: RuleApp, ps) -> None:
    phi = rule.cutformula
    if phi is None:
        raise RuleViolation("Cut", "missing cutformula")
    left, right = ps
    if phi not in left.suc:
        raise RuleViolation("Cut", "cutformula absent from left premise")
    if phi not in right.ant:
        raise RuleViolation("Cut", "cutformula absent from right premise")
    _want("Cut", c, mset(left.ant + mset_remove(right.ant, phi)),
          mset(mset_remove(left.suc, phi) + right.suc), "conclusion")


def _check_lc(c: Sequent, rule: RuleApp, ps) -> None:
    f = _principal(rule, c, "ant")
    _want("LC", ps[0], mset_add(c.ant, f), c.suc)


def _check_rc(c: Sequent, rule: RuleApp, ps) -> None:
    f = _principal(rule, c, "suc")
    if not is_classical(f):
        raise RuleViolation("RC", "right contraction needs a classical "
                                  "formula")
    _want("RC", ps[0], c.ant, mset_add(c.suc, f))


def _context_split(tag: str, rule: RuleApp):
    """The context split of RAndI or LOrI, as two canonical multisets."""
    if rule.split is None:
        raise RuleViolation(tag, "missing context split")
    ant1, suc1 = map(mset, rule.split)
    return ant1, suc1


def _check_randi(c: Sequent, rule: RuleApp, ps) -> None:
    f = _principal(rule, c, "suc")
    if not isinstance(f, And):
        raise RuleViolation("RAndI", "principal must be a conjunction")
    ant1, suc1 = _context_split("RAndI", rule)
    rest = mset_remove(c.suc, f)
    if not (mset_leq(ant1, c.ant) and mset_leq(suc1, rest)):
        raise RuleViolation("RAndI", "split not contained in conclusion")
    _want("RAndI", ps[0], ant1, mset_add(suc1, f.left), "left premise")
    _want("RAndI", ps[1], mset_sub(c.ant, ant1),
          mset_add(mset_sub(rest, suc1), f.right), "right premise")


def _check_lori(c: Sequent, rule: RuleApp, ps) -> None:
    f = _principal(rule, c, "ant")
    if not isinstance(f, Or):
        raise RuleViolation("LOrI", "principal must be a split disjunction")
    ant1, suc1 = _context_split("LOrI", rule)
    rest = mset_remove(c.ant, f)
    if not (mset_leq(ant1, rest) and mset_leq(suc1, c.suc)):
        raise RuleViolation("LOrI", "split not contained in conclusion")
    _want("LOrI", ps[0], mset_add(ant1, f.left), suc1, "left premise")
    _want("LOrI", ps[1], mset_add(mset_sub(rest, ant1), f.right),
          mset_sub(c.suc, suc1), "right premise")


# rule tag -> (number of premises, check)
_CHECKS = {
    "At": (0, _check_at), "LBot": (0, _check_lbot),
    "LNeg": (1, _check_lneg), "RNeg": (1, _check_rneg),
    "LAnd": (1, _check_land), "ROr": (1, _check_ror),
    "RGd": (1, _check_rgd), "LC": (1, _check_lc), "RC": (1, _check_rc),
    "RAnd": (2, _check_rand), "LOr": (2, _check_lor),
    "LGd": (2, _check_lgd), "Cut": (2, _check_cut),
    "LOrI": (2, _check_lori), "RAndI": (2, _check_randi),
}


def check_inference(conclusion: Sequent, rule: RuleApp, premises) -> None:
    """Validate one rule application; raises RuleViolation/ArityMismatch.
    `premises` is any iterable of the premises' sequents."""
    premises = list(premises)
    _rule_check(rule, len(premises))(conclusion, rule, premises)


def _rule_check(rule: RuleApp, n: int):
    """The check of `rule`'s tag, for a rule with `n` premises."""
    tag = rule.rule
    entry = _CHECKS.get(tag) if isinstance(tag, str) else None
    if entry is None:
        raise RuleViolation(tag, "unknown rule")
    arity, check = entry
    if n != arity:
        raise ArityMismatch(tag, f"expected {arity} premises, got {n}")
    return check


_conclusion = attrgetter("conclusion")


def check_derivation(d: Derivation) -> None:
    """Check every node; raises DerivationCheckError locating the first
    failure (address = child indices from the root).  The walk is in
    preorder, last premise first; a node object held twice is checked
    once, at the first address the walk reaches it by, since its
    inference is valid or not wherever it stands.  Each stack entry is
    `(node, parent entry, premise index)`, and an address is read off
    these links only for the node that fails."""
    seen: set[int] = set()
    stack: list[tuple] = [(d, None, None)]
    while stack:
        entry = stack.pop()
        node = entry[0]
        if id(node) in seen:
            continue
        seen.add(id(node))
        rule, premises = node.rule, node.premises
        try:
            _rule_check(rule, len(premises))(
                node.conclusion, rule, list(map(_conclusion, premises)))
        except RuleViolation as e:
            raise DerivationCheckError(_address(entry), e) from e
        for i, p in enumerate(premises):
            stack.append((p, entry, i))


def _address(entry) -> tuple[int, ...]:
    """The premise indices from the root down to a stack entry of
    `check_derivation`."""
    out = []
    while entry[1] is not None:
        out.append(entry[2])
        entry = entry[1]
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# JSON: `{"formulas": [...], "nodes": [...]}`, two tables of one layout,
# whose entries refer to earlier entries by index.  The formula table lists
# each distinct subformula once, children first; the node table each node
# object once, premises first, the root last, with its formulas given as
# formula table indices.  Both are written over `postorder` and read in one
# loop, at any depth.  Formulas are interned, so writing is one dict lookup
# per formula occurrence and reading one constructor call per table entry.

def derivation_to_json(d: Derivation):
    """The JSON object of `d`: its formula table and its node table."""
    index: dict[int, int] = {}
    formulas: list[dict] = []

    def ref(f: Formula) -> int:
        i = index.get(id(f))
        if i is None:
            for g in postorder(f, children, index):
                index[id(g)] = len(formulas)
                formulas.append(formula_entry(g, index))
            i = index[id(f)]
        return i

    def refs(fs) -> list[int]:
        return [ref(f) for f in fs]

    def rule_to_json(r: RuleApp) -> dict:
        out: dict = {"rule": r.rule}
        if r.pos is not None:
            out["pos"] = r.pos
        if r.pos2 is not None:
            out["pos2"] = r.pos2
        if r.formula is not None:
            out["formula"] = ref(r.formula)
        if r.path is not None:
            out["path"] = list(r.path)
        if r.side is not None:
            out["side"] = r.side
        if r.weak is not None:
            out["weak"] = refs(r.weak)
        if r.cutformula is not None:
            out["cutformula"] = ref(r.cutformula)
        if r.split is not None:
            out["split"] = [refs(part) for part in r.split]
        return out

    nodes: list[dict] = []

    def node_entry(n: Derivation, premises: list[int]) -> int:
        nodes.append({"rule": rule_to_json(n.rule),
                      "conclusion": {"ant": refs(n.conclusion.ant),
                                     "suc": refs(n.conclusion.suc)},
                      "premises": premises})
        return len(nodes) - 1

    fold(d, node_entry)
    return {"formulas": formulas, "nodes": nodes}


def _bad_json(what: str, value) -> ParseError:
    return ParseError(f"bad derivation: {what} is a {type(value).__name__}")


def _read_table(entries, kind: str, read) -> list:
    """The objects of a JSON table, in one pass: `read(entry, table, what)`
    makes each from `table`, the objects of the entries before it."""
    if not isinstance(entries, list):
        raise _bad_json(f"the {kind} table", entries)
    table: list = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise _bad_json(f"{kind} {i}", entry)
        table.append(read(entry, table, f"{kind} {i}"))
    return table


def _lookup(table: list, refs, what: str) -> list:
    """The objects of a JSON array of indices into the table read so
    far."""
    if not isinstance(refs, list):
        raise _bad_json(what, refs)
    size, out = len(table), []
    for ref in refs:
        if type(ref) is not int or not 0 <= ref < size:
            raise ParseError(f"bad derivation: {what} refers to {ref!r}, "
                             f"not to an earlier table entry")
        out.append(table[ref])
    return out


def _formula_entry(entry: dict, table: list, what: str) -> Formula:
    op = entry.get("op")
    kind = _TABLE_TYPES.get(op) if isinstance(op, str) else None
    if kind is None:  # a variable or an unknown op
        return formula_from_json(entry)
    # `table` ends before this entry: a lookup rejects it and later ones
    cls, keys = kind
    return cls(*_lookup(table, [entry.get(k) for k in keys], what))


# the JSON type of each rule field; every field but `rule` is optional
_RULE_FIELDS = {"rule": str, "pos": int, "pos2": int, "formula": int,
                "path": list, "side": str, "weak": list, "cutformula": int,
                "split": list}


def _rule_from_json(obj, table: list) -> RuleApp:
    if not isinstance(obj, dict) or "rule" not in obj:
        raise ParseError("bad derivation: a rule needs an object with \"rule\"")
    for key, value in obj.items():
        kind = _RULE_FIELDS.get(key)
        if kind is not None and (not isinstance(value, kind)
                                 or isinstance(value, bool)):
            raise _bad_json(f"rule field {key!r}", value)
    # every field present is of its JSON type, so None means absent
    get = obj.get
    formula, path, weak, cut, split = (
        get("formula"), get("path"), get("weak"), get("cutformula"),
        get("split"))
    if formula is not None:
        formula, = _lookup(table, [formula], "formula")
    if path is not None:
        if not all(type(step) is int for step in path):
            raise ParseError(f"bad derivation: path {path!r} is not an "
                             f"array of integers")
        path = tuple(path)
    if weak is not None:
        weak = mset(_lookup(table, weak, "weak"))
    if cut is not None:
        cut, = _lookup(table, [cut], "cutformula")
    if split is not None:
        if len(split) != 2:
            raise ParseError("bad derivation: split is not two arrays")
        split = tuple(mset(_lookup(table, part, "split")) for part in split)
    return RuleApp(obj["rule"], get("pos"), get("pos2"), formula, path,
                   get("side"), weak, cut, split)


def derivation_from_json(obj) -> Derivation:
    """The derivation of a JSON object: the last entry of its node table."""
    if not isinstance(obj, dict):
        raise _bad_json("a derivation file", obj)
    formulas = _read_table(obj.get("formulas"), "formula", _formula_entry)

    def node(entry: dict, nodes: list, what: str) -> Derivation:
        concl = entry.get("conclusion")
        if not isinstance(concl, dict):
            raise _bad_json(f"the conclusion of {what}", concl)
        return Derivation(
            Sequent(_lookup(formulas, concl.get("ant"), "ant"),
                    _lookup(formulas, concl.get("suc"), "suc")),
            _rule_from_json(entry.get("rule"), formulas),
            tuple(_lookup(nodes, entry.get("premises"),
                          f"the premises of {what}")))

    nodes = _read_table(obj.get("nodes"), "node", node)
    if not nodes:
        raise ParseError("bad derivation: the node table is empty")
    return nodes[-1]
