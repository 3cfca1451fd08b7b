import random
import time
from itertools import product

import pytest

from teamseq.calculus import Derivation, check_derivation, is_cutfree
from teamseq.errors import NonClassicalInput, ResourceLimit
from teamseq.prover import (ClassicalCountermodel, prove_classical,
                            prove_or_countermodel)
from teamseq.resolutions import resolution_choices, resolutions_multiset
from teamseq.semantics import (Team, big_or, eval_classical,
                               find_countermodel_bruteforce, satisfies,
                               sequent_valid)
from teamseq.syntax import Prop, Sequent, mset, parse_formula, parse_sequent

from conftest import gen_sequent, gen_side

pf, ps = parse_formula, parse_sequent
p, q = Prop("p"), Prop("q")


def team(domain, *rows):
    return Team(tuple(domain), frozenset(tuple(r) for r in rows))


def test_classical_golden():
    d = prove_classical(ps("p & ~p =>"))
    check_derivation(d)
    rules = [d.rule.rule, d.premises[0].rule.rule,
             d.premises[0].premises[0].rule.rule]
    assert rules == ["LAnd", "LNeg", "At"]

    cm = prove_classical(ps("p => q"))
    assert isinstance(cm, ClassicalCountermodel)
    assert cm.team == team("pq", (1, 0)) or cm.team == Team(("p", "q"),
                                                            frozenset({(1, 0)}))
    assert cm.atomic == ps("p => q")

    cm0 = prove_classical(ps("=>"))
    assert cm0.team == Team((), frozenset({()}))


def test_classical_rejects_nonclassical():
    with pytest.raises(NonClassicalInput):
        prove_classical(ps("p || q => p"))


def _truth_table_valid(s: Sequent) -> bool:
    vs = sorted(s.props())
    for bits in product((0, 1), repeat=len(vs)):
        v = dict(zip(vs, bits))
        if all(eval_classical(f, v) for f in s.ant) and \
                not any(eval_classical(f, v) for f in s.suc):
            return False
    return True


def test_classical_agreement_random():
    rng = random.Random(101)
    for _ in range(400):
        s = Sequent(gen_side(rng, 2, 3, 0), gen_side(rng, 2, 3, 0))
        out = prove_classical(s)
        if isinstance(out, Derivation):
            check_derivation(out)
            assert _truth_table_valid(s), s
        else:
            assert not _truth_table_valid(s), s
            # the trace's team is a genuine countermodel
            assert all(satisfies(out.team, f) for f in s.ant)
            assert not satisfies(out.team, big_or(s.suc))


def test_golden_countermodel():
    out = prove_or_countermodel(ps("p||(p|~p) => p||~p"))
    assert out == team("p", (0,), (1,))


def test_golden_validity_deep():
    s = ps("(r&x)|(((p&x)||(q&x))|(y&x)) => (x&(r|(p|y)))||(x&(r|(q|y)))")
    d = prove_or_countermodel(s)
    assert isinstance(d, Derivation)
    check_derivation(d)
    assert is_cutfree(d)
    assert d.conclusion == s


def test_immediate_deep_right():
    d = prove_or_countermodel(ps("p => p || ~p"))
    check_derivation(d)
    assert d.rule.rule == "RGd" and d.rule.side == "L"
    assert d.premises[0].rule.rule == "At"


def test_produced_derivations_are_cutfree():
    rng = random.Random(103)
    done = 0
    while done < 60:
        d = prove_or_countermodel(gen_sequent(rng))
        if isinstance(d, Team):
            continue
        done += 1
        assert is_cutfree(d)
        check_derivation(d)


def test_decision_matches_oracle():
    rng = random.Random(107)
    for _ in range(300):
        s = gen_sequent(rng)
        verdict = sequent_valid(s)
        out = prove_or_countermodel(s)
        if isinstance(out, Team):
            assert not verdict
            assert out.domain == tuple(sorted(s.props()))
            assert all(satisfies(out, f) for f in s.ant)
            assert not satisfies(out, big_or(s.suc))
        else:
            assert verdict
            check_derivation(out)


def test_stage2_candidate_count_matches_resolutions():
    rng = random.Random(109)
    for _ in range(100):
        suc = gen_side(rng, 2, 3, 2)
        cands = resolution_choices(suc)
        as_multisets = {mset(r for _, r in pairing) for pairing in cands}
        assert as_multisets == set(resolutions_multiset(suc))


def test_budget_exhaustion():
    with pytest.raises(ResourceLimit):
        prove_or_countermodel(ps("p => p"), node_budget=0)


def test_budget_bounds_candidate_enumeration():
    # 2^16 succedent candidates: the budget stops the stream after ten
    # units instead of after building all of them
    k = 16
    s = ps(" & ".join(f"b{i}" for i in range(k)) + " => "
           + " & ".join(f"(a{i}||b{i})" for i in range(k)))
    start = time.perf_counter()
    with pytest.raises(ResourceLimit):
        prove_or_countermodel(s, node_budget=10)
    assert time.perf_counter() - start < 1.0


def test_countermodel_is_union_of_distinct_witnesses():
    # the candidate ~p fails at p=1, q=0, and that witness already refutes
    # the candidate q, which is skipped
    s = ps("=> ~p || q")
    out = prove_or_countermodel(s)
    assert out == team("pq", (1, 0))
    assert not satisfies(out, big_or(s.suc))


def test_reported_countermodel_is_first_failing_branch():
    # the first antecedent split (left disjunct) succeeds, the second
    # fails; the report comes from the second
    out = prove_or_countermodel(ps("p||(p|~p) => p||~p"))
    assert out == team("p", (0,), (1,))
    # brute force agrees here
    assert find_countermodel_bruteforce(ps("p||(p|~p) => p||~p")) == out
