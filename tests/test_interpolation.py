import random
import time
from dataclasses import replace

import pytest

from teamseq.calculus import (PRINCIPAL_SIDE, Derivation, RuleApp,
                              derivation_to_json, infer, make_at, make_cut,
                              make_lbot, premises_of, rebuild, rule_nodes)
from teamseq.errors import (ContainsCut, DerivationCheckError,
                            NonClassicalLambda1, PartitionMismatch)
from teamseq.interpolation import (NotEntailed, _allocate_weak, craig_lyndon,
                                   interpolate_partition, verify_interpolant)
from teamseq.prover import prove_or_countermodel
from teamseq.semantics import Team, satisfies
from teamseq.syntax import (And, BOT, Gd, Neg, Or, PartitionSequent, Prop,
                            is_classical, mset_add, parse_formula,
                            parse_sequent, props, render, signed_props,
                            symbol_count)
from teamseq.transforms import _g3, _weaken

from conftest import gen_sequent, gen_shuffled, shared_chain

pf, ps = parse_formula, parse_sequent
p, q = Prop("p"), Prop("q")


def proved(s):
    d = prove_or_countermodel(s)
    assert isinstance(d, Derivation)
    return d


def test_golden_interpolant():
    part = ps("(p||q)|r ; ~p => r|s ; q||x")
    d = proved(part.flatten())
    res = interpolate_partition(d, part)
    assert res.interpolant == pf("(p|bot) || (q|bot)")
    assert verify_interpolant(res, part)


def test_axiom_cases():
    # shared variable in each block combination
    cases = [
        ("p ; => p ; ", BOT),
        ("p ; => ; p", p),
        ("; p => p ; ", Neg(p)),
        ("; p => ; p", Neg(BOT)),
    ]
    for text, want in cases:
        part = ps(text)
        d = proved(part.flatten())
        res = interpolate_partition(d, part)
        assert res.interpolant == want, text
        assert verify_interpolant(res, part), text


def test_bot_cases():
    part = ps("bot ; => ;")
    res = interpolate_partition(proved(part.flatten()), part)
    assert res.interpolant == BOT and verify_interpolant(res, part)
    part = ps("; bot => ;")
    res = interpolate_partition(proved(part.flatten()), part)
    assert res.interpolant == Neg(BOT) and verify_interpolant(res, part)


def test_craig_lyndon_basic():
    out = craig_lyndon(pf("p & q"), pf("p | r"))
    assert out.interpolant == p
    assert props(out.interpolant) <= {"p"}
    pos, neg = signed_props(out.interpolant)
    assert pos <= {"p"} and neg == set()
    part = PartitionSequent((pf("p & q"),), (), (), (pf("p | r"),))
    assert verify_interpolant(out, part)


def test_craig_lyndon_shared_atom():
    out = craig_lyndon(p, p)
    pos, neg = signed_props(out.interpolant)
    assert pos <= {"p"} and neg == set()


def test_craig_lyndon_not_entailed():
    out = craig_lyndon(p, q)
    assert isinstance(out, NotEntailed)
    assert satisfies(out.countermodel, p)
    assert not satisfies(out.countermodel, q)


def test_nonclassical_first_block_rejected():
    part = ps("p||~p ; q||~q => (p||~p)&(q||~q)&r ; (p||~p)&(q||~q)&~r")
    d = proved(part.flatten())
    with pytest.raises(NonClassicalLambda1):
        interpolate_partition(d, part)


def test_partition_must_flatten_to_conclusion():
    d = proved(ps("p => p"))
    with pytest.raises(PartitionMismatch):
        interpolate_partition(d, ps("q ; => ; q"))


def test_cut_rejected():
    d = proved(ps("p => p"))
    with pytest.raises(ContainsCut):
        interpolate_partition(make_cut(d, d, p), ps("p ; => ; p"))


def test_unchecked_derivation_raises_library_error():
    # an LNeg whose principal ~q is not in its conclusion ~p, p => q
    prem = make_at((p,), (q, p), p)
    d = Derivation(ps("~p, p => q"), RuleApp("LNeg", pos=0, formula=Neg(q)),
                   (prem,))
    with pytest.raises(DerivationCheckError):
        interpolate_partition(d, PartitionSequent((Neg(p), p), (), (), (q,)))


def test_classicality_propagation():
    # classical second succedent block forces a classical interpolant
    rng = random.Random(157)
    done = 0
    while done < 60:
        s = gen_sequent(rng)
        d = prove_or_countermodel(s)
        if isinstance(d, Team):
            continue
        ant, suc = d.conclusion.ant, d.conclusion.suc
        k = rng.randint(0, len(ant))
        g1, g2 = ant[:k], ant[k:]
        lam1 = tuple(f for f in suc if is_classical(f) and rng.random() < 0.5)
        rest = list(suc)
        for f in lam1:
            rest.remove(f)
        d2 = tuple(rest)
        part = PartitionSequent(g1, g2, lam1, d2)
        res = interpolate_partition(d, part)
        assert verify_interpolant(res, part), str(part)
        if all(is_classical(f) for f in d2):
            assert is_classical(res.interpolant), str(part)
        done += 1


def test_interpolant_size_linear_in_derivation():
    rng = random.Random(163)
    done = 0
    while done < 40:
        s = gen_sequent(rng)
        d = prove_or_countermodel(s)
        if isinstance(d, Team):
            continue
        done += 1
        part = PartitionSequent(d.conclusion.ant, (), (), d.conclusion.suc)
        res = interpolate_partition(d, part)
        nodes = sum(1 for _ in rule_nodes(d))
        # each rule application contributes at most one connective on top
        # of an atomic seed
        assert symbol_count(res.interpolant) <= 2 * nodes + 1


def test_verify_rejects_tampering():
    part = ps("(p||q)|r ; ~p => r|s ; q||x")
    d = proved(part.flatten())
    res = interpolate_partition(d, part)
    bad = replace(res, interpolant=BOT)
    rep = verify_interpolant(bad, part)
    assert not rep and rep.failures
    # polarity violation: a variable foreign to one side
    bad2 = replace(res, interpolant=Or(res.interpolant, Prop("y")))
    rep2 = verify_interpolant(bad2, part)
    assert not rep2
    assert any("vocabulary" in f for f in rep2.failures)


def test_verification_reports_each_goal_team_space():
    # the left goal `G1 => L1, phi` and the right goal `G2, phi => D2`,
    # each with the number of variables its team space is built over
    for text, checked, goal_vars in (
            # p, q, r, s on the left; p, q, x on the right
            ("(p||q)|r ; ~p => r|s ; q||x", True, (4, 3)),
            # five variables on the left, beyond the oracle's cap
            ("a|b|c|d|e ; a => a|b|c|d|e ; a", False, (5, 1))):
        part = ps(text)
        rep = verify_interpolant(
            interpolate_partition(proved(part.flatten()), part), part)
        assert rep.ok and rep.oracle_checked is checked
        assert rep.goal_vars == goal_vars


def test_property_random_partitions():
    rng = random.Random(167)
    done = 0
    while done < 80:
        s = gen_sequent(rng)
        d = prove_or_countermodel(s)
        if isinstance(d, Team):
            continue
        ant, suc = d.conclusion.ant, d.conclusion.suc
        k = rng.randint(0, len(ant))
        idx = sorted(range(len(ant)), key=lambda _: rng.random())
        g1 = tuple(ant[i] for i in idx[:k])
        g2 = tuple(ant[i] for i in idx[k:])
        lam1 = tuple(f for f in suc if is_classical(f) and rng.random() < 0.4)
        rest = list(suc)
        for f in lam1:
            rest.remove(f)
        part = PartitionSequent(g1, g2, lam1, tuple(rest))
        res = interpolate_partition(d, part)
        assert verify_interpolant(res, part), str(part)
        done += 1


def reference_interp(d: Derivation, g1, g2, l1, d2):
    """The extraction in one pass: (interpolant, left derivation, right
    derivation), each premise's flanks built whole and a two-premise rule
    adding the other premise's interpolant with `_weaken`."""
    r = d.rule
    tag = r.rule

    if tag == "At":
        p = r.formula
        in_g1 = p in g1
        in_l1 = p in l1
        if in_g1 and in_l1:
            return (BOT,
                    make_at(g1, mset_add(l1, BOT), p),
                    make_lbot(mset_add(g2, BOT), d2))
        if in_g1:
            return (p,
                    make_at(g1, mset_add(l1, p), p),
                    make_at(mset_add(g2, p), d2, p))
        if in_l1:
            np = Neg(p)
            return (np,
                    infer("RNeg", [make_at(mset_add(g1, p), l1, p)], np),
                    infer("LNeg", [make_at(g2, mset_add(d2, p), p)], np))
        nb = Neg(BOT)
        return (nb,
                infer("RNeg", [make_lbot(mset_add(g1, BOT), l1)], nb),
                infer("LNeg", [make_at(g2, mset_add(d2, BOT), p)], nb))

    if tag == "LBot":
        if BOT in g1:
            return (BOT,
                    make_lbot(g1, mset_add(l1, BOT)),
                    make_lbot(mset_add(g2, BOT), d2))
        nb = Neg(BOT)
        return (nb,
                infer("RNeg", [make_lbot(mset_add(g1, BOT), l1)], nb),
                infer("LNeg", [make_lbot(g2, mset_add(d2, BOT))], nb))

    f = r.formula
    if len(d.premises) == 2:
        w1, w2, l1, d2 = _allocate_weak(r.weak, l1, d2)
    on_left = f in (g1 if PRINCIPAL_SIDE[tag] == "ant" else l1)
    if on_left:
        prems = premises_of(tag, g1, l1, f, r.path, r.side)
        subs = [reference_interp(p, a, g2, s, d2)
                for p, (a, s) in zip(d.premises, prems)]
    else:
        prems = premises_of(tag, g2, d2, f, r.path, r.side)
        subs = [reference_interp(p, g1, a, l1, s)
                for p, (a, s) in zip(d.premises, prems)]

    if len(subs) == 1:
        phi, l, rr = subs[0]
        if on_left:
            return phi, rebuild(r, (l,)), rr
        return phi, l, rebuild(r, (rr,))

    (p1, la, ra), (p2, lb, rb) = subs
    if not on_left:
        phi = And(p1, p2)
        inner = (_weaken(ra, "L", (p2,)), _weaken(rb, "L", (p1,)))
        if tag == "RAnd":
            right = infer("LAnd", [rebuild(r, inner, w2)], phi)
        else:
            right = rebuild(r, [infer("LAnd", [e], phi) for e in inner], w2)
        return phi, infer("RAnd", (la, lb), phi, weak=w1), right
    if tag == "LGd" and not all(is_classical(g) for g in d2):
        phi = Gd(p1, p2)
        left = rebuild(r, (infer("RGd", [la], phi, (), "L"),
                           infer("RGd", [lb], phi, (), "R")))
        return phi, left, infer("LGd", (ra, rb), phi)
    phi = Or(p1, p2)
    left = rebuild(r, (_weaken(la, "R", (p2,)), _weaken(lb, "R", (p1,))),
                   w1)
    return phi, infer("ROr", [left], phi), infer("LOr", (ra, rb), phi, weak=w2)


def test_extraction_matches_the_one_pass_reference():
    # flanks built once, with the weakening carried down, are the flanks
    # the one-pass extraction builds and then weakens: same interpolant,
    # same derivation files.  Half the derivations are shuffled (seldom in
    # phase normal form), and D2 is often nonclassical.
    rng = random.Random(173)
    joins = dict.fromkeys((" & ", " | ", " || "), 0)
    weak = 0
    done = 0
    while done < 1000:
        s = gen_sequent(rng)
        d = prove_or_countermodel(s)
        if isinstance(d, Team):
            continue
        if rng.random() < 0.5:
            d = gen_shuffled(rng, s, rng.randint(1, 6)) or d
        ant, suc = d.conclusion.ant, d.conclusion.suc
        idx = sorted(range(len(ant)), key=lambda _: rng.random())
        k = rng.randint(0, len(ant))
        lam1 = tuple(f for f in suc if is_classical(f) and rng.random() < 0.4)
        rest = list(suc)
        for f in lam1:
            rest.remove(f)
        part = PartitionSequent(tuple(ant[i] for i in idx[:k]),
                                tuple(ant[i] for i in idx[k:]),
                                lam1, tuple(rest))
        res = interpolate_partition(d, part)
        want = reference_interp(_g3(d), part.gamma1, part.gamma2,
                                part.delta1, part.delta2)
        assert res.interpolant == want[0], str(part)
        assert derivation_to_json(res.left_derivation) == \
            derivation_to_json(want[1]), str(part)
        assert derivation_to_json(res.right_derivation) == \
            derivation_to_json(want[2]), str(part)
        text = render(res.interpolant)
        for op in joins:
            joins[op] += op in text
        weak += any(n.rule.weak for n in rule_nodes(res.left_derivation))
        done += 1
    # each join, and implicit weakening on the left flank, is exercised
    assert min(joins.values()) >= 50 and weak >= 50, (joins, weak)


@pytest.mark.parametrize("n", (16, 20))
def test_shared_derivation_interpolates_in_linear_time(n):
    # 2^n paths over n + 1 nodes: each node is extracted once per
    # partition of its sequent, so both flanks stay as shared as the input
    d = shared_chain(n)
    part = PartitionSequent(d.conclusion.ant, (), (), d.conclusion.suc)
    start = time.perf_counter()
    res = interpolate_partition(d, part)
    report = verify_interpolant(res, part)
    assert time.perf_counter() - start < 1.0
    assert report.ok
    assert len(list(rule_nodes(res.left_derivation))) == n + 1
