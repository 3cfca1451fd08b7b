"""Decision procedure: cutfree derivation or explicit countermodel team.

Proof search runs in three stages.  Stage 1 splits the antecedent along
its global disjunctions (left deep rule, inverted), leaving classical
antecedents, but splits on demand: a goal whose antecedent holds two or
more `||`-formulas is first given to stages 2 and 3 as it stands, each
`||` idle context, and is split only if that attempt fails.  Stage 2
searches, for each antecedent stage 1 hands it, among the succedent's
resolutions (the right deep rule is only "invertible" in the
choice sense, so this stage is a disjunctive search with backtracking).
Each failed candidate leaves a witness valuation, and one generator
stream per antecedent branch yields only the candidates that every stored
witness leaves open, pruning refuted blocks of the product as it goes;
the stream loops over the succedent's formulas with a stack, so a long
succedent takes no stack frames.
Stage 3 is a backward search over the invertible classical rules, which
either closes every branch with an axiom or exposes an invalid atomic
sequent, whose valuation is a countermodel of the sequent it was reached
from.  It closes on the first antecedent variable, in canonical order,
that the succedent holds as a formula or as a disjunct of a `|` chain,
taking ROr toward it first; stage 1 splits in the same order, so a
branch closes on the side of its outermost open split and leaves the
inner splits idle, whatever the succedent's order.  A stage-3 failure
is a bare record, that valuation as a row and the atomic sequent's
sides: stage 2 keeps the row as its witness, and only
`prove_classical` makes a public `ClassicalCountermodel` of it.
Stage 3 has no rule for `||`, so in an attempt each `||` stays idle
through to the axioms, and LAnd and LOr open an `&` or `|` around one
like any other.
Stages 1 and 3 are step functions of `calculus.derive`, which builds the
derivation root-first on an explicit stack and skips the right premise of
a split that the left premise's proof does not use; stage 2 replays right
deep rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .calculus import Derivation, axiom, derive, replay_rgd
from .errors import (DomainMismatch, NonClassicalInput, ResourceLimit,
                     nesting_limited)
from .resolutions import _or_tree, resolution_choices, resolution_steps
from .semantics import Team
from .syntax import (And, BOT, Neg, Or, Prop, Sequent, first_gd,
                     is_classical, mset)

DEFAULT_NODE_BUDGET = 10 ** 6

_STAGE2_UNIT = "succedent generator node (stage 2)"


class Budget:
    """A count of search units against a limit: `spend` raises
    ResourceLimit, naming the unit, once the count passes the limit."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, what: str) -> None:
        self.used += 1
        if self.used > self.limit:
            raise ResourceLimit(f"search budget {self.limit} exhausted "
                                f"while expanding {what}", unit=what)


@dataclass(frozen=True)
class ClassicalCountermodel:
    """Failure trace of the classical search: the one-valuation team of
    the invalid atomic sequent it reached.  The classical rules are
    invertible, so that valuation satisfies every antecedent formula and
    falsifies every succedent formula on the path down to the root."""

    team: Team
    atomic: Sequent


# ---------------------------------------------------------------------------
# Classical backward search

# per formula type, the rank and tag of the rule stage 3 applies to it on
# each side: the rule of least rank applies, to the first formula it fits
_ANT_RULES = {And: (0, "LAnd"), Neg: (2, "LNeg"), Or: (5, "LOr")}
_SUC_RULES = {Or: (1, "ROr"), Neg: (3, "RNeg"), And: (4, "RAnd")}


class _Refuted:
    """Stage 3's failure: the atomic sequent `ant => suc` it reached, which
    is no axiom, and the valuation `row` over the domain that makes its
    antecedent true, kept bare; `prove_classical` makes the public
    countermodel of it."""

    __slots__ = ("row", "ant", "suc")

    def __init__(self, row, ant, suc):
        self.row, self.ant, self.suc = row, ant, suc


def _classical_step(ant, suc, domain, budget: Budget):
    """`derive` step of stage 3.

    LBot if the antecedent holds bot.  Otherwise the first antecedent
    variable `p` (canonical order) that the succedent holds, or that is a
    leaf of the `|` tree of a succedent formula: At on `p`, or ROr on the
    first such formula, whose premise holds `p` one `|` nearer.  Such a
    sequent is valid and ROr is invertible, so this changes only which
    proof a valid sequent gets.  With no such `p`, the rule of least rank
    in `_ANT_RULES` and `_SUC_RULES`, applied to the first formula it
    fits; with none, the sequent is atomic and refuted."""
    budget.spend("classical sequent")
    if BOT in ant:
        return axiom(ant, suc, BOT)
    for p in ant:
        if isinstance(p, Prop):
            if p in suc:
                return axiom(ant, suc, p)
            for g in suc:
                if isinstance(g, Or) and p in _or_tree(g)[0]:
                    return "ROr", g, ()

    best, pick = (6, None), None  # every rule ranks below 6
    for side, rules in ((ant, _ANT_RULES), (suc, _SUC_RULES)):
        for f in side:
            rule = rules.get(type(f))
            if rule is not None and rule < best:
                best, pick = rule, f
    if pick is not None:
        return best[1], pick, ()

    # atomic and not an axiom: the valuation making the antecedent true
    return _Refuted(tuple(1 if Prop(x) in ant else 0 for x in domain),
                    ant, suc)


@nesting_limited
def prove_classical(s: Sequent, domain=None,
                    node_budget: int = DEFAULT_NODE_BUDGET):
    """Backward root-first search over the invertible classical rules.

    Returns a cutfree Derivation when the sequent is valid, or a
    ClassicalCountermodel carrying the witnessing team otherwise; the
    derivation is not checked here (`calculus.check_derivation` does
    that).  The team is over `domain`, by default the sequent's variables
    sorted; a domain that is not a sequence of variable names, repeats
    one or misses one of the sequent's raises DomainMismatch.  A formula
    too deep for the formula walks raises ResourceLimit.
    """
    if not s.is_classical():
        raise NonClassicalInput(f"nonclassical formula in {s}")
    if domain is None:
        domain = tuple(sorted(s.props()))
    else:
        try:  # a tuple of variable names, each once
            domain = Team(domain, frozenset()).domain
        except (TypeError, ValueError) as e:
            raise DomainMismatch(str(e)) from None
        missing = s.props() - set(domain)
        if missing:
            raise DomainMismatch(f"{sorted(missing)} not in domain {domain}")
    out = derive((s.ant, s.suc), _classical_step, domain,
                 Budget(node_budget))
    if isinstance(out, _Refuted):
        return ClassicalCountermodel(Team(domain, frozenset({out.row})),
                                     Sequent(out.ant, out.suc))
    return out


# ---------------------------------------------------------------------------
# Full proof search

def _search_branch(ant, suc, domain, budget):
    """Stage 2 + 3 for one antecedent: returns a Derivation of `ant =>
    suc`, or the team made of the distinct witnesses of the failed
    candidates, a countermodel when `ant` is classical.

    `ant` may hold `||`-formulas when stage 1 attempts a goal before
    splitting it.  No rule takes a `||`, so the search is the classical
    one with each `||` subformula read as true: that is what a witness
    satisfies then, and the team is no countermodel (`_split_step` drops
    it).  One candidate stream serves the branch and reads the witness
    list as it grows.  A failed candidate's witness v satisfies `ant`
    (so read) and falsifies each of its formulas; classical formulas are
    flat, so a later candidate that a stored witness falsifies throughout
    fails too, and the stream never yields one.  Stage 2 costs one budget
    unit per node of the candidate generator, pruned or not, so the budget
    bounds backtracking through dead subtrees as well as the candidates
    searched.
    """
    witnesses: list[dict[str, int]] = []
    rows = []
    for pairing in resolution_choices(suc, witnesses,
                                      partial(budget.spend, _STAGE2_UNIT)):
        out = derive((ant, mset(r for _, r in pairing)), _classical_step,
                     domain, budget)
        if isinstance(out, Derivation):
            # the last formula's steps end nearest the root
            return replay_rgd(out, [step for f, r in reversed(pairing)
                                    for step in resolution_steps(f, r)])
        rows.append(out.row)
        witnesses.append(dict(zip(domain, out.row)))
    return Team(domain, frozenset(rows))


def _split_step(ant, suc, domain, budget):
    """`derive` step: stage 1, or stages 2 and 3 at a classical antecedent
    and on an attempt.

    Split on demand, the tableau practice of applying branching rules
    last: when two or more antecedent formulas hold `||`, the goal is
    first searched as it stands (`_search_branch`), each `||` idle, and a
    derivation found is the step's answer; otherwise that attempt is
    dropped and the goal split on its first `||`.  An attempt succeeds
    only on a valid goal, whose split-first search fails nowhere, so every
    failure is the one the split-first search meets, with the same
    countermodel.  A valid goal whose proof needs few of its `||`-formulas
    gets a smaller proof, not built again under each of their splits.
    The bound is two formulas, a fixed rule: attempting under one as well
    shrinks the proofs of about one valid random three-variable sequent
    in seven, where the bound shrinks one in seventy-five, and a caller
    that picks its inputs by proof size, as the `rewrite` benchmark's
    set-up does, then draws twice as many."""
    budget.spend("antecedent split")
    hit = first_gd(ant)
    if hit is None:
        return _search_branch(ant, suc, domain, budget)
    if sum(not is_classical(f) for f in ant) >= 2:
        out = _search_branch(ant, suc, domain, budget)
        if isinstance(out, Derivation):
            return out
    return "LGd", *hit


@nesting_limited
def prove_or_countermodel(s: Sequent, node_budget: int = DEFAULT_NODE_BUDGET):
    """Decide `s`: a cutfree Derivation if valid, a countermodel Team if not.

    Deterministic: antecedent splits take the first nonclassical formula
    (canonical order) at its first `||` in infix order; succedent
    candidates are tried left-disjunct first; the reported countermodel
    comes from the first failing antecedent branch and is the union of the
    distinct witnesses found there.  No candidate that a stored witness
    already refutes is searched.  A split whose left premise is proved
    without any rule taking that premise's new formula from the
    antecedent has its right premise left unsearched (see
    `calculus.derive`): that proof, with the split formula in place of its
    left side, proves the split's sequent.  This prunes only proved
    branches, so every verdict and countermodel is the one the full
    search gives; a valid sequent gets a smaller derivation, whose nodes
    up to the axioms may hold the `||`, and spends fewer units.  Stage 3
    closes on the first antecedent variable in canonical order that the
    succedent can reach by ROr alone (see `_classical_step`), which is
    the outermost split's side when the splits are over variables, so how
    many splits are pruned does not depend on the succedent's order.
    Before it splits a goal whose antecedent holds two or more
    `||`-formulas, stage 1 tries to prove it with them idle (see
    `_split_step`); an attempt succeeds only where the goal is valid, so
    this too changes only the proofs of valid sequents.
    `node_budget` counts antecedent splits, nodes of the stage-2 candidate
    generator (including pruned ones) and classical sequents; a failed
    attempt spends stage-2 and stage-3 units too, so an invalid sequent,
    or a valid one whose attempts fail, may spend more units than the
    split-first search;
    `ResourceLimit` names the unit that ran out, in its message and as its
    `unit`.  A formula too deep for the formula walks raises ResourceLimit
    too.
    """
    domain = tuple(sorted(s.props()))
    return derive((s.ant, s.suc), _split_step, domain, Budget(node_budget))
