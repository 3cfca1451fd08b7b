import json
import random
import string
import time
from functools import reduce
from itertools import product

import pytest

from teamseq import cli, prover
from teamseq.calculus import (PRINCIPAL_SIDE, Derivation, check_derivation,
                              derivation_to_json, is_cutfree, make_at,
                              make_lbot, rule_nodes)
from teamseq.errors import DomainMismatch, NonClassicalInput, ResourceLimit
from teamseq.prover import (_STAGE2_UNIT, Budget, ClassicalCountermodel,
                            _classical_step, _Refuted, prove_classical,
                            prove_or_countermodel)
from teamseq.resolutions import resolution_choices, resolutions_multiset
from teamseq.semantics import (Team, big_or, eval_classical,
                               find_countermodel_bruteforce, satisfies,
                               sequent_valid, team_to_json)
from teamseq.syntax import (BOT, And, Gd, Neg, Or, Prop, Sequent,
                            is_classical, mset, parse_formula, parse_sequent,
                            props, sequent_to_json)

from conftest import gen_sequent, gen_side, on_fresh_stack, split_first_step

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
    # 2^16 succedent candidates, but the generator nodes of the first one
    # alone are more than ten units, so the budget stops stage 2 before
    # any classical search
    k = 16
    s = ps(" & ".join(f"b{i}" for i in range(k)) + " => "
           + " & ".join(f"(a{i}||b{i})" for i in range(k)))
    start = time.perf_counter()
    with pytest.raises(ResourceLimit):
        prove_or_countermodel(s, node_budget=10)
    assert time.perf_counter() - start < 1.0


def _stage2_family(k, other):
    return ps(" & ".join(f"b{i}" for i in range(k)) + " => "
              + " & ".join(f"(a{i}||{other}{i})" for i in range(k)))


def test_witnesses_prune_the_candidate_product():
    # 2^40 candidates each: the first one's witness leaves only the all-b
    # candidate open in the valid family and none in the invalid twin
    start = time.perf_counter()
    d = prove_or_countermodel(_stage2_family(40, "b"))
    assert time.perf_counter() - start < 1.0
    check_derivation(d)

    start = time.perf_counter()
    out = prove_or_countermodel(_stage2_family(40, "c"))
    assert time.perf_counter() - start < 1.0
    assert len(out.members) == 1


def test_witness_per_candidate():
    # every candidate of `=> p0||~p0, ..., p7||~p7` is refuted only by its
    # own witness, so all 256 are searched and the team has all 256 rows
    s = ps("=> " + ", ".join(f"p{i}||~p{i}" for i in range(8)))
    out = prove_or_countermodel(s)
    assert out.domain == tuple(sorted(f"p{i}" for i in range(8)))
    assert out.members == set(product((0, 1), repeat=8))


def test_budget_binds_in_stage_2():
    s = ps("=> " + ", ".join(f"p{i}||~p{i}" for i in range(16)))
    with pytest.raises(ResourceLimit, match=r"succedent generator node"):
        prove_or_countermodel(s, node_budget=200)


def test_budget_error_carries_its_unit():
    # raising the budget step by step runs out in each unit in turn
    s = ps("p || q => q || p")
    units = set()
    for budget in range(100):
        try:
            prove_or_countermodel(s, node_budget=budget)
        except ResourceLimit as e:
            assert str(e) == f"search budget {budget} exhausted while " \
                             f"expanding {e.unit}"
            units.add(e.unit)
        else:
            break
    assert units == {"antecedent split", _STAGE2_UNIT, "classical sequent"}
    with pytest.raises(ResourceLimit) as e:
        prove_classical(ps("p => p"), node_budget=0)
    assert e.value.unit == "classical sequent"


def test_prove_or_countermodel_answers_a_long_succedent():
    # stage 2 takes no stack frame per succedent formula
    assert prove_or_countermodel(Sequent((), (p,) * 1000)) == team("p", (0,))


def test_prove_or_countermodel_resolves_a_long_succedent(capsys):
    gd = pf("a || b")
    s = Sequent((gd,), (gd,) * 800)
    d = prove_or_countermodel(s)
    assert isinstance(d, Derivation) and d.conclusion == s
    check_derivation(d)
    assert cli.run(["prove", "a || b => " + ", ".join(["a || b"] * 800)]) == 0
    assert capsys.readouterr().out.startswith('{"formulas"')


def test_prove_classical_answers_a_deep_search():
    # 1000 LNeg steps, one after another, on an explicit stack
    out = prove_classical(Sequent((Neg(Prop("p")),) * 1000, ()))
    assert isinstance(out, ClassicalCountermodel)
    assert out.team == team("p", (0,))
    assert out.atomic == Sequent((), (Prop("p"),) * 1000)


def _decide_text(text):
    s = ps(text)
    return s, prove_or_countermodel(s)


@pytest.mark.parametrize("n", [900, 980])
def test_prover_answers_deep_nesting(n):
    # the parser accepts these; the prover's rule steps take no stack
    # frames, and each formula walk one frame per level
    conj = " & ".join(["p"] * n)
    s, d = on_fresh_stack(_decide_text, "p => " + conj)
    assert isinstance(d, Derivation) and d.conclusion == s
    check_derivation(d)
    s, out = on_fresh_stack(_decide_text, conj + " => q")
    assert out == team("pq", (1, 0))
    # n - 1 antecedent splits, one below the other
    s, d = on_fresh_stack(_decide_text, " || ".join(
        f"p{i % 3}" for i in range(n)) + " => p0, p1, p2")
    assert isinstance(d, Derivation) and d.conclusion == s
    check_derivation(d)


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


# the reference for stage 3's choice: LBot; else, for the first antecedent
# variable that the succedent holds, as a formula or as a disjunct of a
# `|` chain, At on it or ROr on the first formula whose chain holds it;
# else the first rule of this list that applies, to the first formula of
# its side it fits
_CLASSICAL_RULES = (("LAnd", And), ("ROr", Or), ("LNeg", Neg), ("RNeg", Neg),
                    ("RAnd", And), ("LOr", Or))


def _disjuncts(f):
    if isinstance(f, Or):
        return _disjuncts(f.left) + _disjuncts(f.right)
    return [f]


def _first_rule(ant, suc):
    """The case that decides, and the step stage 3 should take."""
    if BOT in ant:
        return "LBot", ("LBot", BOT)
    for x in ant:
        if isinstance(x, Prop):
            if x in suc:
                return "At", ("At", x)
            for g in suc:
                if isinstance(g, Or) and x in _disjuncts(g):
                    return "ROr toward a variable", ("ROr", g, ())
    for tag, kind in _CLASSICAL_RULES:
        for f in ant if PRINCIPAL_SIDE[tag] == "ant" else suc:
            if isinstance(f, kind):
                return tag, (tag, f, ())
    return "atomic", None


def test_classical_step_picks_the_rule_the_scan_picks():
    rng = random.Random(43)
    cases = set()
    for _ in range(3000):
        ant, suc = mset(gen_side(rng, 4, 3, 0)), mset(gen_side(rng, 4, 3, 0))
        domain = tuple(sorted({x for f in ant + suc for x in props(f)}))
        out = _classical_step(ant, suc, domain, Budget(1))
        case, want = _first_rule(ant, suc)
        cases.add(case)
        if isinstance(out, Derivation):
            assert (out.rule.rule, out.rule.formula) == want
            assert out.conclusion == Sequent(ant, suc)
        elif want is None:  # atomic: the row makes the antecedent true
            assert out.row == tuple(int(Prop(x) in ant) for x in domain)
            assert (out.ant, out.suc) == (ant, suc)
        else:
            assert out == want
    assert cases == {"LBot", "At", "ROr toward a variable", "atomic",
                     *(tag for tag, _ in _CLASSICAL_RULES)}


def _seven_pairs():
    """`a0 || b0, …, a6 || b6 => (a0 || b0) | … | (a6 || b6)`, and the
    same with the succedent's pairs in reverse order."""
    pairs = [(f"a{i}", f"b{i}") for i in range(7)]
    return [ps(", ".join(f"{a} || {b}" for a, b in pairs) + " => "
               + " | ".join(f"({a} || {b})" for a, b in order))
            for order in (pairs, pairs[::-1])]


def test_idle_splits_are_not_expanded():
    # the 7-pair split family: one atom closes each antecedent branch, so
    # of the 127 splits only the first is made, and each of its premises
    # is proved with the other six `||`-formulas idle (split on demand);
    # with the succedent's pairs in reverse order too, since stage 3
    # closes on the split's side whatever the succedent's order
    for s in _seven_pairs():
        d = prove_or_countermodel(s)
        check_derivation(d)
        assert d.conclusion == s
        assert sum(1 for _ in rule_nodes(d)) <= 400
        # the units of the unmade splits are not spent: 130 (116 in
        # reverse order) prove it, where expanding every split takes 3845
        assert isinstance(prove_or_countermodel(s, node_budget=300),
                          Derivation)


_NAMES = [c + d for c in string.ascii_lowercase
          for d in string.ascii_lowercase + string.digits]


def _split_family(rng, n):
    """`a0 || b0, …  =>  (a0 || b0) | …` over random names in random
    order, each pair oriented at random, and the `|` chain nested to the
    left or to the right."""
    names = rng.sample(_NAMES, 2 * n)
    pairs = [(names[2 * i], names[2 * i + 1]) for i in range(n)]
    gds = [Gd(Prop(a), Prop(b)) if rng.random() < 0.5 else Gd(Prop(b), Prop(a))
           for a, b in pairs]
    if rng.random() < 0.5:
        chain = reduce(Or, gds)
    else:
        chain = reduce(lambda right, left: Or(left, right), reversed(gds))
    return Sequent(gds, (chain,))


def test_split_pruning_ignores_succedent_order():
    # every renaming keeps one split of the 127, each premise closing on
    # its own side whatever the succedent's order, in 19 to 29 nodes; 104
    # bounds the split-first search too, whose branches close on the side
    # of their outermost open split, so that 7 splits are kept
    rng = random.Random(28)
    for _ in range(300):
        s = _split_family(rng, 7)
        d = prove_or_countermodel(s, node_budget=300)
        check_derivation(d)
        assert d.conclusion == s
        assert sum(1 for _ in rule_nodes(d)) <= 104, s


def test_split_on_demand_proves_the_split_family_small():
    # the root's attempt fails, the first pair is split, and each premise
    # is proved by an attempt, in both succedent orders; splitting first
    # takes up to 104 nodes and 287 units
    for s in _seven_pairs():
        d = prove_or_countermodel(s, node_budget=130)
        check_derivation(d)
        assert d.conclusion == s
        assert sum(1 for _ in rule_nodes(d)) <= 29
        assert [n.rule.rule for n in rule_nodes(d)].count("LGd") == 1


def test_split_on_demand_keeps_every_answer(monkeypatch):
    # against the split-first step: the same verdicts and countermodels,
    # derivations that check, and the same bytes wherever the antecedent
    # holds at most one `||`-formula, where no attempt is made; on the
    # split family every proof is another one
    rng = random.Random(30)
    seqs = [gen_sequent(rng, max_formulas=4, gd_per_side=3)
            for _ in range(3000)]
    rng = random.Random(28)
    family = [_split_family(rng, 7) for _ in range(300)]

    def answers():
        return [prove_or_countermodel(s) for s in seqs + family]

    new = answers()
    with monkeypatch.context() as m:
        m.setattr(prover, "_split_step", split_first_step)
        ref = answers()
    proved, other = 0, [0, 0]  # proofs unlike the reference's, per source
    for i, (s, out, want) in enumerate(zip(seqs + family, new, ref)):
        assert type(out) is type(want), s
        if isinstance(want, Team):
            assert json.dumps(team_to_json(out)) == \
                json.dumps(team_to_json(want)), s
            continue
        check_derivation(out)
        assert out.conclusion == s
        proved += 1
        if json.dumps(derivation_to_json(out)) != \
                json.dumps(derivation_to_json(want)):
            # only an attempt that succeeded gives another proof
            assert sum(not is_classical(f) for f in s.ant) >= 2, s
            other[i >= len(seqs)] += 1
    assert proved > 1800 and other[0] > 90 and other[1] == 300, \
        (proved, other)


def _close_at_first_shared_variable(ant, suc, domain, budget):
    """Stage 3 with the older closing order, the reference for the
    answers: At on the first antecedent variable that the succedent holds
    as a formula, else the rule of least rank, with no ROr toward a
    variable first."""
    budget.spend("classical sequent")
    if BOT in ant:
        return make_lbot(ant, suc)
    for f in ant:
        if isinstance(f, Prop) and f in suc:
            return make_at(ant, suc, f)
    best, pick = (6, None), None
    for side, rules in ((ant, {And: (0, "LAnd"), Neg: (2, "LNeg"),
                               Or: (5, "LOr")}),
                        (suc, {Or: (1, "ROr"), Neg: (3, "RNeg"),
                               And: (4, "RAnd")})):
        for f in side:
            rule = rules.get(type(f))
            if rule is not None and rule < best:
                best, pick = rule, f
    if pick is not None:
        return best[1], pick, ()
    return _Refuted(tuple(1 if Prop(x) in ant else 0 for x in domain),
                    ant, suc)


def _answer(out):
    """A countermodel as JSON, or the derivation, checked."""
    if isinstance(out, Team):
        return json.dumps(team_to_json(out))
    if isinstance(out, ClassicalCountermodel):
        return json.dumps([team_to_json(out.team),
                           sequent_to_json(out.atomic)])
    check_derivation(out)
    return out.conclusion


def test_closing_order_keeps_every_answer(monkeypatch):
    # closing toward a variable changes only the proofs of valid sequents:
    # every failing path takes the older rules, so the witnesses, the
    # candidate streams and the countermodels are the same
    rng = random.Random(28)
    seqs = [gen_sequent(rng, max_formulas=3) for _ in range(1500)]
    classical = [s for s in seqs if s.is_classical()]

    def answers():
        return ([_answer(prove_or_countermodel(s)) for s in seqs]
                + [_answer(prove_classical(s)) for s in classical])

    new = answers()
    with monkeypatch.context() as m:
        m.setattr(prover, "_classical_step", _close_at_first_shared_variable)
        old = answers()
    proved = 0
    for s, out, ref in zip(seqs + classical, new, old):
        assert type(out) is type(ref), s
        if isinstance(out, str):
            assert out == ref, s
        else:
            assert out == s
            proved += 1
    assert proved > 400 and len(classical) > 300, (proved, len(classical))


def test_prove_classical_checks_its_domain():
    s = ps("p => q")
    for domain in (("p",), ("p", "p", "q"), ("p", "q", "1x"), ("p", "q", 1),
                   5):
        with pytest.raises(DomainMismatch):
            prove_classical(s, domain=domain)
    out = prove_classical(s, domain=("r", "q", "p"))
    assert out.team == team("rqp", (0, 0, 1))
    assert satisfies(out.team, p) and not satisfies(out.team, q)
