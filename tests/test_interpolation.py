import random
from dataclasses import replace

import pytest

from teamseq.calculus import (Derivation, RuleApp, make_at, make_cut,
                              rule_nodes)
from teamseq.errors import (ContainsCut, DerivationCheckError,
                            NonClassicalLambda1, PartitionMismatch)
from teamseq.interpolation import (NotEntailed, craig_lyndon,
                                   interpolate_partition, verify_interpolant)
from teamseq.prover import prove_or_countermodel
from teamseq.semantics import Team, satisfies
from teamseq.syntax import (BOT, Neg, Or, PartitionSequent, Prop,
                            is_classical, parse_formula, parse_sequent, props,
                            signed_props, symbol_count)

from conftest import gen_sequent

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
