"""Decision procedure: cutfree derivation or explicit countermodel team.

Proof search runs in three stages.  Stage 1 splits the antecedent along
its global disjunctions (left deep rule, inverted), leaving classical
antecedents.  Stage 2 searches, for each classical antecedent, among the
succedent's resolutions (the right deep rule is only "invertible" in the
choice sense, so this stage is a disjunctive search with backtracking).
Stage 3 is a backward search over the invertible classical rules, which
either closes every branch with an axiom or exposes an invalid atomic
sequent.  Failures produce countermodels that are lifted back down the
inverted rules; successes reassemble a cutfree derivation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .calculus import (Derivation, make_at, make_land, make_lbot, make_lgd,
                       make_lneg, make_lor, make_rand, make_rneg, make_ror,
                       replay_rgd)
from .errors import NonClassicalInput, ResourceLimit
from .resolutions import resolution_choices, resolution_steps
from .semantics import Team, eval_classical
from .syntax import (And, Bot, Formula, Neg, Or, Prop, Sequent, first_gd,
                     gd_sides, mset, mset_add, mset_remove)

DEFAULT_NODE_BUDGET = 10 ** 6


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
    """Failure trace of the classical search: the lifted countermodel team
    and the invalid atomic sequent it originated from."""

    team: Team
    atomic: Sequent


def _restrict_team(team: Team, alpha: Formula) -> Team:
    """Keep the valuations whose singleton fails `alpha`."""
    keep = frozenset(v for v in team.members
                     if not eval_classical(alpha, dict(zip(team.domain, v))))
    return Team(team.domain, keep)


# ---------------------------------------------------------------------------
# Classical backward search

def _first(pool, pred):
    for f in pool:
        if pred(f):
            return f
    return None


def _prove_classical(ant, suc, domain, budget: _Budget):
    budget.spend("classical sequent")
    bot = Bot()
    if bot in ant:
        return make_lbot(ant, suc)
    shared = _first(ant, lambda f: isinstance(f, Prop) and f in suc)
    if shared is not None:
        return make_at(ant, suc, shared)

    f = _first(ant, lambda g: isinstance(g, And))
    if f is not None:
        sub = _prove_classical(mset_add(mset_remove(ant, f), f.left, f.right),
                               suc, domain, budget)
        return sub if isinstance(sub, ClassicalCountermodel) else make_land(sub, f)

    f = _first(suc, lambda g: isinstance(g, Or))
    if f is not None:
        sub = _prove_classical(ant, mset_add(mset_remove(suc, f), f.left, f.right),
                               domain, budget)
        return sub if isinstance(sub, ClassicalCountermodel) else make_ror(sub, f)

    f = _first(ant, lambda g: isinstance(g, Neg))
    if f is not None:
        sub = _prove_classical(mset_remove(ant, f), mset_add(suc, f.child),
                               domain, budget)
        if isinstance(sub, ClassicalCountermodel):
            return ClassicalCountermodel(_restrict_team(sub.team, f.child),
                                         sub.atomic)
        return make_lneg(sub, f)

    f = _first(suc, lambda g: isinstance(g, Neg))
    if f is not None:
        sub = _prove_classical(mset_add(ant, f.child), mset_remove(suc, f),
                               domain, budget)
        return sub if isinstance(sub, ClassicalCountermodel) else make_rneg(sub, f)

    f = _first(suc, lambda g: isinstance(g, And))
    if f is not None:
        rest = mset_remove(suc, f)
        left = _prove_classical(ant, mset_add(rest, f.left), domain, budget)
        if isinstance(left, ClassicalCountermodel):
            return left
        right = _prove_classical(ant, mset_add(rest, f.right), domain, budget)
        if isinstance(right, ClassicalCountermodel):
            return right
        return make_rand(left, right, f)

    f = _first(ant, lambda g: isinstance(g, Or))
    if f is not None:
        rest = mset_remove(ant, f)
        left = _prove_classical(mset_add(rest, f.left), suc, domain, budget)
        if isinstance(left, ClassicalCountermodel):
            return left
        right = _prove_classical(mset_add(rest, f.right), suc, domain, budget)
        if isinstance(right, ClassicalCountermodel):
            return right
        return make_lor(left, right, f)

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

    Candidates are pulled one at a time, each for one budget unit.  A
    failed candidate's witness v satisfies `ant` and falsifies each of its
    formulas; classical formulas are flat, so a later candidate that a
    stored witness falsifies throughout fails too.  Such a candidate is
    skipped without search: it adds no valuation but still costs its unit.
    """
    witnesses: list[tuple[tuple[int, ...], dict[str, int]]] = []
    for pairing in resolution_choices(suc):
        budget.spend("succedent candidate")
        lam = mset(r for _, r in pairing)
        if any(not any(eval_classical(r, v) for r in lam)
               for _, v in witnesses):
            continue
        out = _prove_classical(ant, lam, domain, budget)
        if isinstance(out, Derivation):
            # the last formula's steps end nearest the root
            return replay_rgd(out, [step for f, r in reversed(pairing)
                                    for step in resolution_steps(f, r)])
        witnesses.extend((row, dict(zip(domain, row)))
                         for row in out.team.members)
    return Team(domain, frozenset(row for row, _ in witnesses))


def _search(ant, suc, domain, budget):
    budget.spend("antecedent split")
    hit = first_gd(ant)
    if hit is None:
        return _search_branch(ant, suc, domain, budget)
    f, path = hit
    fl, fr = gd_sides(f, path)
    rest = mset_remove(ant, f)
    left = _search(mset_add(rest, fl), suc, domain, budget)
    if isinstance(left, Team):
        return left
    right = _search(mset_add(rest, fr), suc, domain, budget)
    if isinstance(right, Team):
        return right
    return make_lgd(left, right, f, path)


def prove_or_countermodel(s: Sequent, node_budget: int = DEFAULT_NODE_BUDGET):
    """Decide `s`: a cutfree Derivation if valid, a countermodel Team if not.

    Deterministic: antecedent splits take the first nonclassical formula
    (canonical order) at its lowest-labelled occurrence; succedent
    candidates are tried left-disjunct first; the reported countermodel
    comes from the first failing antecedent branch and is the union of the
    distinct witnesses found there.  A candidate that a stored witness
    already refutes is skipped: it adds no valuation to the team but still
    costs one unit of `node_budget`.
    """
    domain = tuple(sorted(s.props()))
    return _search(s.ant, s.suc, domain, _Budget(node_budget))
