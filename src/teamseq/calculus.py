"""Proof objects and a strict checker for the two-disjunction calculus.

A derivation is a finite tree of rule applications.  Rule metadata
identifies the principal formula both by value and by position in the
conclusion's canonical multiset, carries occurrence paths and chosen sides
for the deep rules, the implicit-weakening multiset for the restricted
context rules, the cutformula for cut, and the context split for the
independent-context variants.

The checker validates every side condition: context arithmetic as multiset
equations, classicality of restricted contexts, path legality for the deep
rules, and the classical-only right contraction of the variant system.  It
never repairs anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (ArityMismatch, DerivationCheckError, InvalidPath,
                     ParseError, RuleViolation, ShapeMismatch)
from .syntax import (And, Bot, Formula, Gd, Neg, Or, Prop, Sequent,
                     formula_from_json, formula_to_json, gd_sides,
                     is_classical, mset, mset_add, mset_leq, mset_remove,
                     mset_sub, render, sequent_from_json, sequent_to_json,
                     subformula_at, substitute_at, symbol_count)

AXIOMS = ("At", "LBot")
UNARY = ("LNeg", "RNeg", "LAnd", "ROr", "RGd", "LC", "RC")
BINARY = ("RAnd", "LOr", "LGd", "Cut", "LOrI", "RAndI")
RULES = AXIOMS + UNARY + BINARY


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Derivation:
    conclusion: Sequent
    rule: RuleApp
    premises: tuple[Derivation, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "premises", tuple(self.premises))


def height(d: Derivation) -> int:
    """Axioms have height 1; otherwise 1 plus the premise maximum."""
    if not d.premises:
        return 1
    return 1 + max(height(p) for p in d.premises)


def cutrank(d: Derivation) -> int:
    """Largest symbol count among cutformulas; 0 when cutfree."""
    own = symbol_count(d.rule.cutformula) if d.rule.rule == "Cut" else 0
    return max([own] + [cutrank(p) for p in d.premises])


def is_cutfree(d: Derivation) -> bool:
    return d.rule.rule != "Cut" and all(is_cutfree(p) for p in d.premises)


def rule_nodes(d: Derivation):
    yield d
    for p in d.premises:
        yield from rule_nodes(p)


# ---------------------------------------------------------------------------
# Forward builders.  Each computes the conclusion from the premises plus the
# principal data, raising ValueError on misuse; the checker remains the
# independent authority on rule legality.

def make_at(ant, suc, var: Formula | None = None) -> Derivation:
    ant, suc = mset(ant), mset(suc)
    if var is None:
        shared = [f for f in ant if isinstance(f, Prop) and f in suc]
        if not shared:
            raise ValueError("no shared variable for an identity axiom")
        var = shared[0]
    return Derivation(Sequent(ant, suc),
                      RuleApp("At", pos=ant.index(var), pos2=suc.index(var),
                              formula=var))


def make_lbot(ant, suc) -> Derivation:
    ant, suc = mset(ant), mset(suc)
    return Derivation(Sequent(ant, suc),
                      RuleApp("LBot", pos=ant.index(Bot()), formula=Bot()))


def make_lneg(premise: Derivation, neg: Neg) -> Derivation:
    concl = Sequent(mset_add(premise.conclusion.ant, neg),
                    mset_remove(premise.conclusion.suc, neg.child))
    return Derivation(concl, RuleApp("LNeg", pos=concl.ant.index(neg),
                                     formula=neg), (premise,))


def make_rneg(premise: Derivation, neg: Neg) -> Derivation:
    concl = Sequent(mset_remove(premise.conclusion.ant, neg.child),
                    mset_add(premise.conclusion.suc, neg))
    return Derivation(concl, RuleApp("RNeg", pos=concl.suc.index(neg),
                                     formula=neg), (premise,))


def make_land(premise: Derivation, conj: And) -> Derivation:
    ant = mset_add(mset_sub(premise.conclusion.ant, (conj.left, conj.right)), conj)
    concl = Sequent(ant, premise.conclusion.suc)
    return Derivation(concl, RuleApp("LAnd", pos=concl.ant.index(conj),
                                     formula=conj), (premise,))


def make_ror(premise: Derivation, disj: Or) -> Derivation:
    suc = mset_add(mset_sub(premise.conclusion.suc, (disj.left, disj.right)), disj)
    concl = Sequent(premise.conclusion.ant, suc)
    return Derivation(concl, RuleApp("ROr", pos=concl.suc.index(disj),
                                     formula=disj), (premise,))


def make_rand(p1: Derivation, p2: Derivation, conj: And, weak=()) -> Derivation:
    lam = mset_remove(p1.conclusion.suc, conj.left)
    if p1.conclusion.ant != p2.conclusion.ant or \
            lam != mset_remove(p2.conclusion.suc, conj.right):
        raise ValueError("premises of the conjunction rule do not align")
    concl = Sequent(p1.conclusion.ant, mset_add(lam, conj, *weak))
    return Derivation(concl, RuleApp("RAnd", pos=concl.suc.index(conj),
                                     formula=conj, weak=mset(weak)), (p1, p2))


def make_lor(p1: Derivation, p2: Derivation, disj: Or, weak=()) -> Derivation:
    gam = mset_remove(p1.conclusion.ant, disj.left)
    if p1.conclusion.suc != p2.conclusion.suc or \
            gam != mset_remove(p2.conclusion.ant, disj.right):
        raise ValueError("premises of the disjunction rule do not align")
    concl = Sequent(mset_add(gam, disj),
                    mset_add(p1.conclusion.suc, *weak))
    return Derivation(concl, RuleApp("LOr", pos=concl.ant.index(disj),
                                     formula=disj, weak=mset(weak)), (p1, p2))


def make_lgd(p1: Derivation, p2: Derivation, host: Formula, path) -> Derivation:
    path = tuple(path)
    ant = mset_add(mset_remove(p1.conclusion.ant, gd_sides(host, path)[0]), host)
    concl = Sequent(ant, p1.conclusion.suc)
    return Derivation(concl, RuleApp("LGd", pos=concl.ant.index(host),
                                     formula=host, path=path), (p1, p2))


def make_rgd(premise: Derivation, host: Formula, path, side: str) -> Derivation:
    path = tuple(path)
    kept = gd_sides(host, path)["LR".index(side)]
    return _rgd(premise, host, path, side, kept)


def _rgd(premise: Derivation, host: Formula, path, side: str,
         kept: Formula) -> Derivation:
    suc = mset_add(mset_remove(premise.conclusion.suc, kept), host)
    concl = Sequent(premise.conclusion.ant, suc)
    return Derivation(concl, RuleApp("RGd", pos=concl.suc.index(host),
                                     formula=host, path=path, side=side),
                      (premise,))


def replay_rgd(d: Derivation, steps) -> Derivation:
    """Reintroduce global disjunctions below `d`.  `steps` lists right
    deep-rule applications (formula-before, path, side, kept) root-first,
    as `resolution_steps` and succedent inversion record them; `kept` is
    the premise formula, so no step splits its formula again."""
    for before, path, side, kept in reversed(steps):
        d = _rgd(d, before, tuple(path), side, kept)
    return d


def make_cut(p1: Derivation, p2: Derivation, cutformula: Formula) -> Derivation:
    concl = Sequent(p1.conclusion.ant + mset_remove(p2.conclusion.ant, cutformula),
                    mset_remove(p1.conclusion.suc, cutformula) + p2.conclusion.suc)
    return Derivation(concl, RuleApp("Cut", cutformula=cutformula), (p1, p2))


def make_lc(premise: Derivation, f: Formula) -> Derivation:
    concl = Sequent(mset_remove(premise.conclusion.ant, f), premise.conclusion.suc)
    return Derivation(concl, RuleApp("LC", pos=concl.ant.index(f), formula=f),
                      (premise,))


def make_rc(premise: Derivation, f: Formula) -> Derivation:
    concl = Sequent(premise.conclusion.ant, mset_remove(premise.conclusion.suc, f))
    return Derivation(concl, RuleApp("RC", pos=concl.suc.index(f), formula=f),
                      (premise,))


def make_randi(p1: Derivation, p2: Derivation, conj: And) -> Derivation:
    split = (p1.conclusion.ant, mset_remove(p1.conclusion.suc, conj.left))
    concl = Sequent(p1.conclusion.ant + p2.conclusion.ant,
                    mset_add(split[1] + mset_remove(p2.conclusion.suc, conj.right),
                             conj))
    return Derivation(concl, RuleApp("RAndI", pos=concl.suc.index(conj),
                                     formula=conj, split=split), (p1, p2))


def make_lori(p1: Derivation, p2: Derivation, disj: Or) -> Derivation:
    split = (mset_remove(p1.conclusion.ant, disj.left), p1.conclusion.suc)
    concl = Sequent(mset_add(split[0] + mset_remove(p2.conclusion.ant, disj.right),
                             disj),
                    p1.conclusion.suc + p2.conclusion.suc)
    return Derivation(concl, RuleApp("LOrI", pos=concl.ant.index(disj),
                                     formula=disj, split=split), (p1, p2))


# ---------------------------------------------------------------------------
# The backward step.  Proof search, inversion and interpolation read each
# logical rule root-first: the premises its principal formula leaves
# behind, and the rule rebuilt over new premises.

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


def rebuild(r: RuleApp, premises, weak=None) -> Derivation:
    """Apply the rule `r` describes over new premises, with the implicit
    weakening `weak` in place of `r.weak` when given."""
    w = (r.weak or ()) if weak is None else weak
    match r.rule:
        case "LNeg":
            return make_lneg(premises[0], r.formula)
        case "RNeg":
            return make_rneg(premises[0], r.formula)
        case "LAnd":
            return make_land(premises[0], r.formula)
        case "ROr":
            return make_ror(premises[0], r.formula)
        case "RAnd":
            return make_rand(premises[0], premises[1], r.formula, w)
        case "LOr":
            return make_lor(premises[0], premises[1], r.formula, w)
        case "LGd":
            return make_lgd(premises[0], premises[1], r.formula, r.path)
        case "RGd":
            return make_rgd(premises[0], r.formula, r.path, r.side)
        case "Cut":
            return make_cut(premises[0], premises[1], r.cutformula)
    raise ShapeMismatch(f"cannot rebuild rule {r.rule}")


# ---------------------------------------------------------------------------
# Checking

_ARITY = {"At": 0, "LBot": 0,
          "LNeg": 1, "RNeg": 1, "LAnd": 1, "ROr": 1, "RGd": 1, "LC": 1, "RC": 1,
          "RAnd": 2, "LOr": 2, "LGd": 2, "Cut": 2, "LOrI": 2, "RAndI": 2}


def _principal(rule: RuleApp, seq: Sequent, side: str) -> Formula:
    pool = seq.ant if side == "ant" else seq.suc
    if rule.pos is None or not 0 <= rule.pos < len(pool):
        raise RuleViolation(rule.rule, f"principal position {rule.pos} out of range")
    f = pool[rule.pos]
    if rule.formula is not None and rule.formula != f:
        raise RuleViolation(rule.rule,
                            f"principal mismatch: meta {render(rule.formula)} vs "
                            f"conclusion {render(f)}")
    return f


def _deep_node(rule: RuleApp, f: Formula) -> Gd:
    """The global disjunction a deep rule's `path` addresses in `f`."""
    try:
        node = subformula_at(f, rule.path or ())
    except InvalidPath as e:
        raise RuleViolation(rule.rule, str(e)) from e
    if not isinstance(node, Gd):
        raise RuleViolation(rule.rule, "path must address a global disjunction")
    return node


def check_inference(conclusion: Sequent, rule: RuleApp, premises) -> None:
    """Validate one rule application; raises RuleViolation/ArityMismatch."""
    premises = list(premises)
    tag = rule.rule
    if tag not in RULES:
        raise RuleViolation(tag, "unknown rule")
    if len(premises) != _ARITY[tag]:
        raise ArityMismatch(tag, f"expected {_ARITY[tag]} premises, "
                                 f"got {len(premises)}")

    def want(premise: Sequent, ant, suc, which="premise") -> None:
        target = Sequent(ant, suc)
        if premise != target:
            raise RuleViolation(tag, f"{which} is {premise}, expected {target}")

    match tag:
        case "At":
            f = _principal(rule, conclusion, "ant")
            if not isinstance(f, Prop):
                raise RuleViolation(tag, "identity axiom needs a variable")
            if rule.pos2 is None or not 0 <= rule.pos2 < len(conclusion.suc) or \
                    conclusion.suc[rule.pos2] != f:
                raise RuleViolation(tag, f"variable {render(f)} not in succedent")
        case "LBot":
            f = _principal(rule, conclusion, "ant")
            if not isinstance(f, Bot):
                raise RuleViolation(tag, "principal must be bot")
        case "LNeg":
            f = _principal(rule, conclusion, "ant")
            if not isinstance(f, Neg):
                raise RuleViolation(tag, "principal must be a negation")
            want(premises[0], mset_remove(conclusion.ant, f),
                 mset_add(conclusion.suc, f.child))
        case "RNeg":
            f = _principal(rule, conclusion, "suc")
            if not isinstance(f, Neg):
                raise RuleViolation(tag, "principal must be a negation")
            want(premises[0], mset_add(conclusion.ant, f.child),
                 mset_remove(conclusion.suc, f))
        case "LAnd":
            f = _principal(rule, conclusion, "ant")
            if not isinstance(f, And):
                raise RuleViolation(tag, "principal must be a conjunction")
            want(premises[0],
                 mset_add(mset_remove(conclusion.ant, f), f.left, f.right),
                 conclusion.suc)
        case "ROr":
            f = _principal(rule, conclusion, "suc")
            if not isinstance(f, Or):
                raise RuleViolation(tag, "principal must be a split disjunction")
            want(premises[0], conclusion.ant,
                 mset_add(mset_remove(conclusion.suc, f), f.left, f.right))
        case "RAnd":
            f = _principal(rule, conclusion, "suc")
            if not isinstance(f, And):
                raise RuleViolation(tag, "principal must be a conjunction")
            weak = rule.weak if rule.weak is not None else ()
            rest = mset_remove(conclusion.suc, f)
            if not mset_leq(weak, rest):
                raise RuleViolation(tag, "weakening multiset not in conclusion")
            lam = mset_sub(rest, weak)
            if not all(is_classical(g) for g in lam):
                raise RuleViolation(tag, "premise right context must be classical")
            want(premises[0], conclusion.ant, mset_add(lam, f.left), "left premise")
            want(premises[1], conclusion.ant, mset_add(lam, f.right), "right premise")
        case "LOr":
            f = _principal(rule, conclusion, "ant")
            if not isinstance(f, Or):
                raise RuleViolation(tag, "principal must be a split disjunction")
            weak = rule.weak if rule.weak is not None else ()
            if not mset_leq(weak, conclusion.suc):
                raise RuleViolation(tag, "weakening multiset not in conclusion")
            lam = mset_sub(conclusion.suc, weak)
            if not all(is_classical(g) for g in lam):
                raise RuleViolation(tag, "premise right context must be classical")
            gam = mset_remove(conclusion.ant, f)
            want(premises[0], mset_add(gam, f.left), lam, "left premise")
            want(premises[1], mset_add(gam, f.right), lam, "right premise")
        case "LGd":
            f = _principal(rule, conclusion, "ant")
            node = _deep_node(rule, f)
            gam = mset_remove(conclusion.ant, f)
            want(premises[0],
                 mset_add(gam, substitute_at(f, rule.path, node.left)),
                 conclusion.suc, "left premise")
            want(premises[1],
                 mset_add(gam, substitute_at(f, rule.path, node.right)),
                 conclusion.suc, "right premise")
        case "RGd":
            f = _principal(rule, conclusion, "suc")
            node = _deep_node(rule, f)
            if rule.side not in ("L", "R"):
                raise RuleViolation(tag, f"bad side {rule.side!r}")
            chosen = node.left if rule.side == "L" else node.right
            want(premises[0], conclusion.ant,
                 mset_add(mset_remove(conclusion.suc, f),
                          substitute_at(f, rule.path, chosen)))
        case "Cut":
            phi = rule.cutformula
            if phi is None:
                raise RuleViolation(tag, "missing cutformula")
            left, right = premises
            if phi not in left.suc:
                raise RuleViolation(tag, "cutformula absent from left premise")
            if phi not in right.ant:
                raise RuleViolation(tag, "cutformula absent from right premise")
            want(conclusion, left.ant + mset_remove(right.ant, phi),
                 mset_remove(left.suc, phi) + right.suc, "conclusion")
        case "LC":
            f = _principal(rule, conclusion, "ant")
            want(premises[0], mset_add(conclusion.ant, f), conclusion.suc)
        case "RC":
            f = _principal(rule, conclusion, "suc")
            if not is_classical(f):
                raise RuleViolation(tag, "right contraction needs a classical "
                                         "formula")
            want(premises[0], conclusion.ant, mset_add(conclusion.suc, f))
        case "RAndI":
            f = _principal(rule, conclusion, "suc")
            if not isinstance(f, And):
                raise RuleViolation(tag, "principal must be a conjunction")
            if rule.split is None:
                raise RuleViolation(tag, "missing context split")
            ant1, suc1 = rule.split
            if not (mset_leq(ant1, conclusion.ant)
                    and mset_leq(suc1, mset_remove(conclusion.suc, f))):
                raise RuleViolation(tag, "split not contained in conclusion")
            want(premises[0], ant1, mset_add(suc1, f.left), "left premise")
            want(premises[1], mset_sub(conclusion.ant, ant1),
                 mset_add(mset_sub(mset_remove(conclusion.suc, f), suc1), f.right),
                 "right premise")
        case "LOrI":
            f = _principal(rule, conclusion, "ant")
            if not isinstance(f, Or):
                raise RuleViolation(tag, "principal must be a split disjunction")
            if rule.split is None:
                raise RuleViolation(tag, "missing context split")
            ant1, suc1 = rule.split
            if not (mset_leq(ant1, mset_remove(conclusion.ant, f))
                    and mset_leq(suc1, conclusion.suc)):
                raise RuleViolation(tag, "split not contained in conclusion")
            want(premises[0], mset_add(ant1, f.left), suc1, "left premise")
            want(premises[1],
                 mset_add(mset_sub(mset_remove(conclusion.ant, f), ant1), f.right),
                 mset_sub(conclusion.suc, suc1), "right premise")


def check_derivation(d: Derivation) -> None:
    """Check every node; raises DerivationCheckError locating the first
    failure (address = child indices from the root)."""
    stack: list[tuple[Derivation, tuple[int, ...]]] = [(d, ())]
    while stack:
        node, addr = stack.pop()
        try:
            check_inference(node.conclusion, node.rule,
                            [p.conclusion for p in node.premises])
        except RuleViolation as e:
            raise DerivationCheckError(addr, e) from e
        for i, p in enumerate(node.premises):
            stack.append((p, addr + (i,)))


# ---------------------------------------------------------------------------
# JSON


def ruleapp_to_json(r: RuleApp):
    out: dict = {"rule": r.rule}
    if r.pos is not None:
        out["pos"] = r.pos
    if r.pos2 is not None:
        out["pos2"] = r.pos2
    if r.formula is not None:
        out["formula"] = formula_to_json(r.formula)
    if r.path is not None:
        out["path"] = list(r.path)
    if r.side is not None:
        out["side"] = r.side
    if r.weak is not None:
        out["weak"] = [formula_to_json(f) for f in r.weak]
    if r.cutformula is not None:
        out["cutformula"] = formula_to_json(r.cutformula)
    if r.split is not None:
        out["split"] = [[formula_to_json(f) for f in part] for part in r.split]
    return out


# the JSON type of each rule field; every field but `rule` is optional
_RULE_FIELDS = {"rule": str, "pos": int, "pos2": int, "formula": dict,
                "path": list, "side": str, "weak": list, "cutformula": dict,
                "split": list}


def _bad_json(what: str, value) -> ParseError:
    return ParseError(f"bad derivation: {what} is a {type(value).__name__}")


def ruleapp_from_json(obj) -> RuleApp:
    if not isinstance(obj, dict) or "rule" not in obj:
        raise ParseError("bad derivation: a rule needs an object with \"rule\"")
    for key, value in obj.items():
        kind = _RULE_FIELDS.get(key)
        if kind is not None and (not isinstance(value, kind)
                                 or isinstance(value, bool)):
            raise _bad_json(f"rule field {key!r}", value)
    if "path" in obj and not all(type(step) is int for step in obj["path"]):
        raise ParseError(f"bad derivation: path {obj['path']!r} is not "
                         f"an array of integers")
    split = None
    if "split" in obj:
        if len(obj["split"]) != 2 or \
                not all(isinstance(part, list) for part in obj["split"]):
            raise ParseError("bad derivation: split is not two arrays")
        a, b = obj["split"]
        split = (mset(formula_from_json(x) for x in a),
                 mset(formula_from_json(x) for x in b))
    return RuleApp(
        rule=obj["rule"],
        pos=obj.get("pos"),
        pos2=obj.get("pos2"),
        formula=formula_from_json(obj["formula"]) if "formula" in obj else None,
        path=tuple(obj["path"]) if "path" in obj else None,
        side=obj.get("side"),
        weak=mset(formula_from_json(x) for x in obj["weak"])
        if "weak" in obj else None,
        cutformula=formula_from_json(obj["cutformula"])
        if "cutformula" in obj else None,
        split=split,
    )


def derivation_to_json(d: Derivation):
    return {"rule": ruleapp_to_json(d.rule),
            "conclusion": sequent_to_json(d.conclusion),
            "premises": [derivation_to_json(p) for p in d.premises]}


def derivation_from_json(obj) -> Derivation:
    if not isinstance(obj, dict):
        raise _bad_json("a derivation", obj)
    if not isinstance(obj.get("premises"), list):
        raise _bad_json("premises", obj.get("premises"))
    return Derivation(sequent_from_json(obj.get("conclusion")),
                      ruleapp_from_json(obj.get("rule")),
                      tuple(derivation_from_json(p) for p in obj["premises"]))
