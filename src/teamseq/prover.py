"""Decision procedure: cutfree derivation or explicit countermodel team.

Proof search runs in three stages.  Stage 1 splits the antecedent along
its global disjunctions (left deep rule, inverted), leaving classical
antecedents.  Stage 2 searches, for each classical antecedent, among the
succedent's resolutions (the right deep rule is only "invertible" in the
choice sense, so this stage is a disjunctive search with backtracking).
Each failed candidate leaves a witness valuation, and one generator
stream per antecedent branch yields only the candidates that every stored
witness leaves open, pruning refuted blocks of the product as it goes.
Stage 3 is a backward search over the invertible classical rules, which
either closes every branch with an axiom or exposes an invalid atomic
sequent, whose valuation is a countermodel of the sequent it was reached
from.  Stages 1 and 3 step back through a rule with
`calculus.premises_of` and reassemble a cutfree derivation with
`calculus.rebuild`; stage 2 replays right deep rules.
"""

from __future__ import annotations

from dataclasses import dataclass

from .calculus import (PRINCIPAL_SIDE, Derivation, RuleApp, make_at,
                       make_lbot, premises_of, rebuild, replay_rgd)
from .errors import NonClassicalInput, ResourceLimit
from .resolutions import resolution_choices, resolution_steps
from .semantics import Team
from .syntax import (And, Bot, Formula, Neg, Or, Prop, Sequent, first_gd,
                     mset)

DEFAULT_NODE_BUDGET = 10 ** 6

_STAGE2_UNIT = "succedent generator node (stage 2)"


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, what: str) -> None:
        self.used += 1
        if self.used > self.limit:
            raise ResourceLimit(f"search budget {self.limit} exhausted "
                                f"while expanding {what}")


@dataclass(frozen=True)
class ClassicalCountermodel:
    """Failure trace of the classical search: the one-valuation team of
    the invalid atomic sequent it reached.  The classical rules are
    invertible, so that valuation satisfies every antecedent formula and
    falsifies every succedent formula on the path down to the root."""

    team: Team
    atomic: Sequent


def _step(prove, tag: str, ant, suc, f: Formula, path=()):
    """Prove each premise of the rule `tag` on `f` with `prove`: the first
    failure, or the rule rebuilt over the premise derivations."""
    subs = []
    for a, s in premises_of(tag, ant, suc, f, path):
        sub = prove(a, s)
        if not isinstance(sub, Derivation):
            return sub
        subs.append(sub)
    return rebuild(RuleApp(tag, formula=f, path=path), subs)


# ---------------------------------------------------------------------------
# Classical backward search

# stage 3 expands the first formula of the first rule that applies
_CLASSICAL_RULES = (("LAnd", And), ("ROr", Or), ("LNeg", Neg), ("RNeg", Neg),
                    ("RAnd", And), ("LOr", Or))


def _prove_classical(ant, suc, domain, budget: _Budget):
    budget.spend("classical sequent")
    if Bot() in ant:
        return make_lbot(ant, suc)
    for f in ant:
        if isinstance(f, Prop) and f in suc:
            return make_at(ant, suc, f)

    for tag, kind in _CLASSICAL_RULES:
        for f in ant if PRINCIPAL_SIDE[tag] == "ant" else suc:
            if isinstance(f, kind):
                return _step(lambda a, s: _prove_classical(a, s, domain, budget),
                             tag, ant, suc, f)

    # atomic and not an axiom: the valuation making the antecedent true
    v = tuple(1 if Prop(x) in ant else 0 for x in domain)
    return ClassicalCountermodel(Team(domain, frozenset({v})),
                                 Sequent(ant, suc))


def prove_classical(s: Sequent, domain=None,
                    node_budget: int = DEFAULT_NODE_BUDGET):
    """Backward root-first search over the invertible classical rules.

    Returns a checked cutfree Derivation when the sequent is valid, or a
    ClassicalCountermodel carrying the witnessing team otherwise.
    """
    if not s.is_classical():
        raise NonClassicalInput(f"nonclassical formula in {s}")
    if domain is None:
        domain = tuple(sorted(s.props()))
    return _prove_classical(s.ant, s.suc, tuple(domain), _Budget(node_budget))


# ---------------------------------------------------------------------------
# Full proof search

def _search_branch(ant, suc, domain, budget):
    """Stage 2 + 3 for one classical antecedent: returns a Derivation of
    `ant => suc`, or the countermodel team made of the distinct witnesses
    of the failed candidates.

    One candidate stream serves the branch and reads the witness list as
    it grows.  A failed candidate's witness v satisfies `ant` and
    falsifies each of its formulas; classical formulas are flat, so a
    later candidate that a stored witness falsifies throughout fails too,
    and the stream never yields one.  Stage 2 costs one budget unit per
    node of the candidate generator, pruned or not, so the budget bounds
    backtracking through dead subtrees as well as the candidates searched.
    """
    witnesses: list[dict[str, int]] = []
    rows = []
    for pairing in resolution_choices(suc, witnesses,
                                      lambda: budget.spend(_STAGE2_UNIT)):
        out = _prove_classical(ant, mset(r for _, r in pairing), domain,
                               budget)
        if isinstance(out, Derivation):
            # the last formula's steps end nearest the root
            return replay_rgd(out, [step for f, r in reversed(pairing)
                                    for step in resolution_steps(f, r)])
        for row in out.team.members:
            rows.append(row)
            witnesses.append(dict(zip(domain, row)))
    return Team(domain, frozenset(rows))


def _search(ant, suc, domain, budget):
    budget.spend("antecedent split")
    hit = first_gd(ant)
    if hit is None:
        return _search_branch(ant, suc, domain, budget)
    f, path = hit
    return _step(lambda a, s: _search(a, s, domain, budget),
                 "LGd", ant, suc, f, path)


def prove_or_countermodel(s: Sequent, node_budget: int = DEFAULT_NODE_BUDGET):
    """Decide `s`: a cutfree Derivation if valid, a countermodel Team if not.

    Deterministic: antecedent splits take the first nonclassical formula
    (canonical order) at its lowest-labelled occurrence; succedent
    candidates are tried left-disjunct first; the reported countermodel
    comes from the first failing antecedent branch and is the union of the
    distinct witnesses found there.  No candidate that a stored witness
    already refutes is searched.  `node_budget` counts antecedent splits,
    nodes of the stage-2 candidate generator (including pruned ones) and
    classical sequents; `ResourceLimit` names the unit that ran out.
    """
    domain = tuple(sorted(s.props()))
    return _search(s.ant, s.suc, domain, _Budget(node_budget))
