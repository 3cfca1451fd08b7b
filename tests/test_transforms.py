import random
import time
from dataclasses import replace

import pytest

from teamseq import transforms
from teamseq.calculus import (Derivation, antecedent_taken, check_derivation,
                              cutrank, derivation_to_json, fold, height,
                              infer, is_cutfree, make_at, make_cut,
                              rule_nodes, swap_antecedents)
from teamseq.errors import (ContainsCut, FormulaNotDuplicated,
                            NonClassicalAntecedent,
                            NonClassicalRightContraction, ResourceLimit,
                            ShapeMismatch)
from teamseq.interpolation import interpolate_partition, verify_interpolant
from teamseq.prover import prove_classical, prove_or_countermodel
from teamseq.semantics import Team, sequent_valid
from teamseq.syntax import (And, Neg, Or, PartitionSequent, Prop, Sequent,
                            first_gd, gd_paths, gd_sides, is_classical,
                            mset_add, mset_remove, parse_formula,
                            parse_sequent)
from teamseq.transforms import (ResolvedDerivation, contract, eliminate_cuts,
                                invert, is_normal, normalize, reassemble,
                                resolve_derivation, weaken)

from conftest import (gen_formula, gen_sequent, gen_shuffled,
                      identity_derivation, inject_cut, shared_chain)

pf, ps = parse_formula, parse_sequent
p, q = Prop("p"), Prop("q")


def proved(text):
    d = prove_or_countermodel(ps(text))
    assert isinstance(d, Derivation), text
    return d


def valid_sample(rng, count, **kw):
    out = []
    while len(out) < count:
        d = prove_or_countermodel(gen_sequent(rng, **kw))
        if isinstance(d, Derivation):
            out.append(d)
    return out


# ---------------------------------------------------------------------------
# weakening

def test_weaken_axiom_absorbs():
    d = proved("p => p")
    w = weaken(d, "R", pf("q||r"))
    check_derivation(w)
    assert w.conclusion == ps("p => p, q||r")
    assert height(w) == height(d)


def test_weaken_left_by_bot():
    d = proved("p & q => q")
    w = weaken(d, "L", pf("bot"))
    check_derivation(w)
    assert height(w) <= height(d)


def test_weaken_right_uses_weakening_slot():
    d = proved("p, q => p & q")
    assert d.rule.rule == "RAnd"
    w = weaken(d, "R", pf("x||y"))
    check_derivation(w)
    assert height(w) == height(d)
    assert pf("x||y") in (w.rule.weak or ())


def test_weaken_property_suite():
    rng = random.Random(113)
    for d in valid_sample(rng, 40):
        f = gen_formula(rng, rng.randint(0, 3), 2)
        side = rng.choice("LR")
        w = weaken(d, side, f)
        check_derivation(w)
        assert height(w) <= height(d)
        target = Sequent(d.conclusion.ant + (f,), d.conclusion.suc) \
            if side == "L" else Sequent(d.conclusion.ant,
                                        d.conclusion.suc + (f,))
        assert w.conclusion == target


def test_weaken_refuses_a_side_other_than_l_or_r():
    d = proved("p => p")
    for side in ("X", "left", "r", None):
        with pytest.raises(ShapeMismatch, match="neither 'L' nor 'R'"):
            weaken(d, side, q)


# ---------------------------------------------------------------------------
# inversion

def test_invert_land():
    d = proved("p & q => p")
    (o,) = invert(d, "LAnd", d.conclusion.ant.index(pf("p & q")))
    check_derivation(o)
    assert o.conclusion == ps("p, q => p")
    assert height(o) <= height(d)


def test_invert_rgd_returns_side():
    d = proved("p => p || ~p")
    o, side = invert(d, "RGd", 0, ())
    check_derivation(o)
    assert side == "L"
    assert o.conclusion == ps("p => p")


def test_invert_rgd_needs_classical_antecedent():
    d = proved("p || q => p || q")
    with pytest.raises(NonClassicalAntecedent):
        invert(d, "RGd", 0, ())


def test_invert_lgd_two_outputs():
    d = proved("(p||q) & r => p | q")
    pos = d.conclusion.ant.index(pf("(p||q) & r"))
    o1, o2 = invert(d, "LGd", pos, (0,))
    for o in (o1, o2):
        check_derivation(o)
        assert height(o) <= height(d)
    assert o1.conclusion == ps("p & r => p | q")
    assert o2.conclusion == ps("q & r => p | q")


def test_invert_property_suite():
    rng = random.Random(127)
    done = 0
    while done < 80:
        d = prove_or_countermodel(gen_sequent(rng))
        if isinstance(d, Team):
            continue
        concl = d.conclusion
        cands = []
        for pos, f in enumerate(concl.ant):
            if isinstance(f, Neg):
                cands.append(("LNeg", pos, ()))
            if isinstance(f, And):
                cands.append(("LAnd", pos, ()))
            if isinstance(f, Or):
                cands.append(("LOr", pos, ()))
            for pth in gd_paths(f):
                cands.append(("LGd", pos, pth))
        for pos, f in enumerate(concl.suc):
            if isinstance(f, Neg):
                cands.append(("RNeg", pos, ()))
            if isinstance(f, And):
                cands.append(("RAnd", pos, ()))
            if isinstance(f, Or):
                cands.append(("ROr", pos, ()))
            if all(is_classical(g) for g in concl.ant):
                for pth in gd_paths(f):
                    cands.append(("RGd", pos, pth))
        if not cands:
            continue
        done += 1
        tag, pos, pth = rng.choice(cands)
        out = invert(d, tag, pos, pth)
        outs = [out[0]] if tag == "RGd" else out
        for o in outs:
            check_derivation(o)
            assert height(o) <= height(d), (tag, str(d.conclusion))
            # all rules are semantically invertible (the deep right rule
            # in the choice sense), so inverted sequents stay valid
            assert sequent_valid(o.conclusion), (tag, str(o.conclusion))


# ---------------------------------------------------------------------------
# contraction

def test_contract_left_any_formula():
    d = proved("p||q, p||q => p, q")
    c = contract(d, "L", pf("p||q"))
    check_derivation(c)
    assert c.conclusion == ps("p||q => p, q")
    assert height(c) <= height(d)


def test_contract_right_classical():
    d = proved("p => p | q, p | q")
    c = contract(d, "R", pf("p | q"))
    check_derivation(c)
    assert c.conclusion == ps("p => p | q")
    assert height(c) <= height(d)


def test_contract_right_nonclassical_rejected():
    d = proved("(p||~p)|(p||~p) => p||~p, p||~p")
    with pytest.raises(NonClassicalRightContraction):
        contract(d, "R", pf("p||~p"))
    # and the contracted sequent is indeed not valid
    assert not sequent_valid(ps("(p||~p)|(p||~p) => p||~p"))


def test_contract_refuses_a_side_other_than_l_or_r():
    # before, any side but "L" contracted the succedent
    d = proved("p, p => p, p")
    for side in ("left", "X", "l"):
        with pytest.raises(ShapeMismatch, match="neither 'L' nor 'R'"):
            contract(d, side, p)


def test_contract_missing_duplicate():
    d = proved("p => p")
    with pytest.raises(FormulaNotDuplicated):
        contract(d, "L", p)


def test_contract_property_suite():
    rng = random.Random(131)
    for d in valid_sample(rng, 40):
        f = gen_formula(rng, rng.randint(0, 2), 1)
        w = weaken(weaken(d, "L", f), "L", f)
        c = contract(w, "L", f)
        check_derivation(c)
        assert height(c) <= height(w)
        assert c.conclusion == Sequent(d.conclusion.ant + (f,),
                                       d.conclusion.suc)
        if is_classical(f):
            w2 = weaken(weaken(d, "R", f), "R", f)
            c2 = contract(w2, "R", f)
            check_derivation(c2)
            assert height(c2) <= height(w2)


# ---------------------------------------------------------------------------
# normal form

def worked_example_input() -> Derivation:
    por = pf("p || r")
    d1 = prove_classical(ps("x, ~x | (~q | p), q => p"))
    d2 = prove_classical(ps("x, ~x | (~q | r), q => r"))
    t1 = infer("RGd", (d1,), por, (), "L")
    t2 = infer("RGd", (d2,), por, (), "R")
    lgd = infer("LGd", (t1, t2), pf("~x | (~q | (p || r))"), (1, 1))
    return infer("LAnd", (infer("ROr", (infer("RNeg", (lgd,), pf("~q")),),
                                pf("(p || r) | ~q")),),
                 pf("x & (~x | (~q | (p || r)))"))


def test_normalize_worked_example():
    d = worked_example_input()
    check_derivation(d)
    assert not is_normal(d)
    n = normalize(d)
    check_derivation(n)
    assert is_normal(n)
    assert n.conclusion == d.conclusion
    res = resolve_derivation(n)
    branches = {xi: res.mapping[xi] for xi in res.branches}
    assert branches == {
        (pf("x & (~x | (~q | p))"),): (pf("p | ~q"),),
        (pf("x & (~x | (~q | r))"),): (pf("r | ~q"),),
    }


def test_normalize_classical_unchanged():
    d = prove_classical(ps("p & q => q & p"))
    assert normalize(d) == d


def test_normalize_property_suite():
    rng = random.Random(137)
    for d in valid_sample(rng, 60):
        n = normalize(d)
        check_derivation(n)
        assert is_normal(n)
        assert n.conclusion == d.conclusion


def test_normalize_and_cutelim_shuffled_derivations():
    # rules applied root-first in random order leave deep rules above
    # classical ones, so normalize has to split and reassemble them
    rng = random.Random(157)
    done = not_normal = 0
    while done < 60:
        d = gen_shuffled(rng, gen_sequent(rng), rng.randint(1, 4))
        if d is None:
            continue
        check_derivation(d)
        done += 1
        not_normal += not is_normal(d)
        n = normalize(d)
        check_derivation(n)
        assert is_normal(n)
        assert n.conclusion == d.conclusion
        if d.conclusion.suc:
            e = eliminate_cuts(inject_cut(d, rng.choice(d.conclusion.suc)))
            check_derivation(e)
            assert is_cutfree(e)
            assert e.conclusion == d.conclusion
    assert not_normal >= 10, not_normal


def test_normalize_rejects_cut():
    d = proved("p => p")
    with pytest.raises(ContainsCut):
        normalize(make_cut(d, d, p))


# ---------------------------------------------------------------------------
# cut elimination

def test_classical_cut_elimination_textbook():
    d1 = proved("a, b => a & b")
    d2 = proved("a & b => b")
    c = make_cut(d1, d2, pf("a & b"))
    e = eliminate_cuts(c)
    check_derivation(e)
    assert is_cutfree(e)
    assert e.conclusion == c.conclusion


def test_classical_cut_axiom_absorption():
    idp = proved("p => p")
    e = eliminate_cuts(make_cut(idp, idp, p))
    check_derivation(e)
    assert e.conclusion == ps("p => p")
    assert e.rule.rule == "At"


def test_cut_on_global_disjunction_under_classical_endsequent():
    # classical conclusions, but the cut formula holds `||`, at its top or
    # inside it: the deep rules that introduce it are split off first
    for left, right, phi in [
            ("p => p || q", "p || q => p | q", "p || q"),
            ("p => (p || q) & p", "(p || q) & p => p | q", "(p || q) & p"),
            ("p | q => p || q, p | q", "p || q => p | q", "p || q")]:
        c = make_cut(proved(left), proved(right), pf(phi))
        e = eliminate_cuts(c)
        check_derivation(e)
        assert is_cutfree(e)
        assert e.conclusion == c.conclusion


def test_classical_cut_elimination_random():
    rng = random.Random(139)
    done = 0
    while done < 40:
        d = prove_or_countermodel(gen_sequent(rng, gd_per_side=0))
        if isinstance(d, Team) or not d.conclusion.suc:
            continue
        done += 1
        phi = rng.choice(d.conclusion.suc)
        c = inject_cut(d, phi)
        e = eliminate_cuts(c)
        check_derivation(e)
        assert is_cutfree(e)
        assert e.conclusion == d.conclusion
        assert sequent_valid(e.conclusion)


def _classical_reduction(d, ps):
    if d.rule.rule == "Cut":
        return transforms._ccut(ps[0], ps[1], d.rule.cutformula)
    return d


def test_classical_cut_elimination_is_full_cut_elimination():
    # under a classical endsequent with classical cuts every sequent is
    # classical: each premise is one classical branch, so each cut is
    # reduced by the classical reduction alone
    rng = random.Random(157)
    done = 0
    while done < 60:
        d = prove_or_countermodel(gen_sequent(rng, gd_per_side=0))
        if isinstance(d, Team) or not d.conclusion.suc:
            continue
        done += 1
        c = inject_cut(d, rng.choice(d.conclusion.suc))
        if d.conclusion.ant:
            # a second cut, on an antecedent formula, above the first
            a = rng.choice(d.conclusion.ant)
            c = make_cut(identity_derivation(a), c, a)
        e = eliminate_cuts(c)
        check_derivation(e)
        assert is_cutfree(e)
        assert e.conclusion == d.conclusion
        assert derivation_to_json(e) == \
            derivation_to_json(fold(c, _classical_reduction))


def test_cut_elimination_worked_example():
    d1 = proved("a | (p||q) => p||q, a")
    d2 = proved("b, p||q => (b&p) || (b&q)")
    c = make_cut(d1, d2, pf("p||q"))
    check_derivation(c)
    assert c.conclusion == ps("a | (p||q), b => a, (b&p) || (b&q)")
    # the cut formula twice in the left premise's succedent, and another
    # `||` beside it in the right premise's antecedent
    cuts = [c] + [make_cut(proved(left), proved(right), pf(phi))
                  for left, right, phi in [
        ("p || q => p || q, p || q", "p || q => q || p", "p || q"),
        ("p || q => q || p", "q || p, b || c => (q || p) & (b || c)",
         "q || p")]]
    for cut in cuts:
        check_derivation(cut)
        e = eliminate_cuts(cut)
        check_derivation(e)
        assert is_cutfree(e)
        assert e.conclusion == cut.conclusion
        assert sequent_valid(e.conclusion)


def test_cut_elimination_classical_delegation():
    d1 = proved("p & q => q")
    d2 = proved("q => q | r")
    e = eliminate_cuts(make_cut(d1, d2, q))
    check_derivation(e)
    assert is_cutfree(e)
    assert e.conclusion == ps("p & q => q | r")


def test_cut_elimination_property_suite():
    rng = random.Random(149)
    done = 0
    while done < 60:
        d = prove_or_countermodel(gen_sequent(rng))
        if isinstance(d, Team) or not d.conclusion.suc:
            continue
        done += 1
        phi = rng.choice(d.conclusion.suc)
        c = inject_cut(d, phi)
        assert cutrank(c) > 0
        e = eliminate_cuts(c)
        check_derivation(e)
        assert is_cutfree(e) and cutrank(e) == 0
        assert e.conclusion == d.conclusion
        assert sequent_valid(e.conclusion)


def test_nested_cuts():
    d = proved("p & q => q & p")
    c1 = inject_cut(d, pf("q & p"))
    c2 = make_cut(proved("p & q => p & q"), c1, pf("p & q"))
    assert cutrank(c2) == 3
    e = eliminate_cuts(c2)
    check_derivation(e)
    assert is_cutfree(e)
    assert e.conclusion == ps("p & q => q & p")


@pytest.mark.parametrize("eliminate", [eliminate_cuts, resolve_derivation])
def test_cut_without_cutformula_is_a_shape_mismatch(eliminate, monkeypatch):
    # the cut below is missing its formula; the cut above it is sound, and
    # is not reduced first
    d = proved("p => p")
    upper = make_cut(d, d, p)
    bad = make_cut(upper, d, p)
    bad = Derivation(bad.conclusion, replace(bad.rule, cutformula=None),
                     bad.premises)

    def reduced(*args):
        raise AssertionError("a cut was reduced")

    monkeypatch.setattr(transforms, "_eliminate_one", reduced)
    monkeypatch.setattr(transforms, "_ccut", reduced)
    with pytest.raises(ShapeMismatch, match="missing cutformula"):
        eliminate(bad)


def test_rule_without_its_formula_is_a_shape_mismatch():
    # every public transform scans for it before it reduces anything
    d = proved("p||q, p||q => q||p")
    bad = Derivation(d.conclusion, replace(d.rule, formula=None), d.premises)
    pos = d.conclusion.ant.index(pf("p||q"))
    for fn, args in ((weaken, ("L", q)), (invert, ("LGd", pos, ())),
                     (contract, ("L", pf("p||q"))), (normalize, ()),
                     (eliminate_cuts, ()), (resolve_derivation, ())):
        with pytest.raises(ShapeMismatch, match="missing formula"):
            fn(bad, *args)


# ---------------------------------------------------------------------------
# derivability resolution

def test_resolve_swap_example():
    d = proved("p||q => q||p")
    res = resolve_derivation(d)
    assert set(res.branches) == {(p,), (q,)}
    assert res.mapping[(p,)] == (p,)
    assert res.mapping[(q,)] == (q,)
    for xi, c in res.branches.items():
        check_derivation(c)
        assert c.conclusion == Sequent(xi, res.mapping[xi])
        assert all(r.rule.rule not in ("LGd", "RGd")
                   for r in rule_nodes(c))
    re = reassemble(res)
    check_derivation(re)
    assert re.conclusion == d.conclusion


def test_resolve_classical_singleton():
    d = proved("p & q => q")
    res = resolve_derivation(d)
    assert list(res.branches) == [(pf("p & q"),)]


def test_resolve_round_trip_random():
    rng = random.Random(151)
    for d in valid_sample(rng, 40):
        res = resolve_derivation(d)
        for xi, c in res.branches.items():
            check_derivation(c)
            assert c.conclusion.is_classical()
            assert sequent_valid(c.conclusion)
        re = reassemble(res)
        check_derivation(re)
        assert re.conclusion == d.conclusion


def test_resolve_after_cut():
    d = proved("p||q => q||p")
    c = inject_cut(d, pf("q||p"))
    res = resolve_derivation(c)
    assert set(res.branches) == {(p,), (q,)}


def test_transforms_of_a_deep_derivation_answer_or_are_a_resource_limit():
    # 1501 nodes deep over shallow formulas: an axiom on p, p, x_i, y_i => p,
    # then 1500 LAnd on x_i & y_i
    xs = [Prop(f"x{i}") for i in range(1500)]
    ys = [Prop(f"y{i}") for i in range(1500)]
    d = make_at((p, p, *xs, *ys), (p,))
    for x, y in zip(xs, ys):
        d = infer("LAnd", [d], And(x, y))
    check_derivation(d)
    c = d.conclusion
    assert is_normal(d)
    res = ResolvedDerivation(c.ant, c.suc, {c.ant: d}, {c.ant: c.suc},
                             {c.ant: ((p, p),)})
    assert reassemble(res) is d
    # the transforms that run as folds over the nodes answer at any depth
    # and give back a derivation they leave unchanged as it is
    for fn in (normalize, eliminate_cuts):
        assert fn(d) is d, fn
    res = resolve_derivation(d)
    assert (res.gamma, res.delta) == (c.ant, c.suc)
    assert res.mapping == {c.ant: c.suc}
    check_derivation(res.branches[c.ant])
    # so do the structural rules, which walk up the chain to its axiom
    top = And(xs[0], ys[0])
    w = weaken(d, "L", q)
    (o,) = invert(d, "LAnd", c.ant.index(top))
    k = contract(d, "L", p)
    for out, concl in ((w, Sequent(c.ant + (q,), c.suc)),
                       (o, Sequent(mset_remove(c.ant, top) + (xs[0], ys[0]),
                                   c.suc)),
                       (k, Sequent(mset_remove(c.ant, p), c.suc))):
        check_derivation(out)
        assert out.conclusion == concl
    # interpolation still recurses per node: it answers or raises
    # ResourceLimit
    try:
        interpolate_partition(d, PartitionSequent(c.ant, (), (), c.suc))
    except ResourceLimit as e:
        assert str(e) == "nesting too deep"
    # with `a || b` for one `p`, no rule takes the `||`: `_split` inverts
    # it through the whole chain, and the two branches reassemble
    a, b = Prop("a"), Prop("b")
    d = make_at((p, pf("a || b"), *xs, *ys), (p,))
    for x, y in zip(xs, ys):
        d = infer("LAnd", [d], And(x, y))
    res = resolve_derivation(d)
    assert [xi for xi in res.branches] == \
        [mset_add(mset_remove(d.conclusion.ant, pf("a || b")), g)
         for g in (a, b)]
    for c in res.branches.values():
        check_derivation(c)
    back = reassemble(res)
    check_derivation(back)
    assert back.conclusion == d.conclusion


def test_a_deep_commuting_cut_is_eliminated():
    # the cut formula `q & r` is context in all 1500 LAnd of the left
    # premise, so the classical cut walks up the whole chain to its axiom
    xs = [Prop(f"x{i}") for i in range(1500)]
    ys = [Prop(f"y{i}") for i in range(1500)]
    r = Prop("r")
    d1 = make_at((p, *xs, *ys), (p, And(q, r)), p)
    for x, y in zip(xs, ys):
        d1 = infer("LAnd", [d1], And(x, y))
    d2 = infer("LAnd", [make_at((q, r), (q,), q)], And(q, r))
    c = make_cut(d1, d2, And(q, r))
    check_derivation(c)
    e = eliminate_cuts(c)
    check_derivation(e)
    assert is_cutfree(e)
    assert e.conclusion == c.conclusion


def test_structural_rules_keep_shared_nodes_shared():
    # 21 node objects, 2^20 paths: each walk steps each node object once
    n = 20
    xs = [Prop(f"x{k}") for k in range(n + 1)]
    d = shared_chain(n, make_at((xs[0], p, p, And(p, q)), xs, xs[0]))
    assert len(list(rule_nodes(d))) == n + 1
    pos = d.conclusion.ant.index(And(p, q))
    for fn, args in ((weaken, ("L", q)), (invert, ("LAnd", pos)),
                     (contract, ("L", p))):
        start = time.perf_counter()
        out = fn(d, *args)
        if fn is invert:
            (out,) = out
        assert time.perf_counter() - start < 1.0, fn
        assert len(list(rule_nodes(out))) == n + 1, fn
        check_derivation(out)


def test_an_idle_split_is_inverted_by_one_fold():
    # where no rule of a derivation takes the formula of its first `||`,
    # `swap_antecedents` (which `calculus.derive` uses to prune such a
    # split) puts each side in its place: the same bytes as inversion
    # through every node
    rng = random.Random(11)
    idle = 0
    for d in valid_sample(rng, 1200):
        n = normalize(d)
        hit = first_gd(n.conclusion.ant)
        if hit is None or hit[0] in antecedent_taken(n):
            continue
        idle += 1
        folded = [swap_antecedents(n, ((hit[0], g),)) for g in gd_sides(*hit)]
        inverted = transforms._invert(n, transforms._Item("LGd", *hit))
        assert [derivation_to_json(x) for x in folded] == \
            [derivation_to_json(x) for x in inverted]
    assert idle > 100, idle


def test_normalize_and_resolve_answer_a_deep_rgd():
    # an RGd over an axiom, under 1500 LAnd: `normalize` and
    # `resolve_derivation` invert it through the whole chain, and
    # `normalize` puts it back at the foot
    xs = [Prop(f"x{i}") for i in range(1500)]
    ys = [Prop(f"y{i}") for i in range(1500)]
    d = infer("RGd", [make_at((p, *xs, *ys), (p,))], pf("p || q"), (), "L")
    for x, y in zip(xs, ys):
        d = infer("LAnd", [d], And(x, y))
    n = normalize(d)
    check_derivation(n)
    assert is_normal(n) and n.rule.rule == "RGd"
    assert n.conclusion == d.conclusion
    res = resolve_derivation(d)
    ant = d.conclusion.ant
    assert res.mapping == {ant: (p,)}
    check_derivation(res.branches[ant])
    assert reassemble(res).conclusion == d.conclusion


def test_transforms_of_a_proof_that_opens_a_formula_holding_gd():
    # with two `||`-formulas in the antecedent the prover first tries the
    # goal with no split, so stage 3 takes LAnd or LOr to a formula that
    # holds `||` and leaves the `||` idle to the axioms: every transform
    # and interpolation of such a proof still gives results that check
    for text, tag in (("(p || q) & r, s || r => r", "LAnd"),
                      ("((p || q) & bot) | r, s || r => r", "LOr")):
        d = proved(text)
        assert d.rule.rule == tag and not is_classical(d.rule.formula)
        assert all(n.rule.rule != "LGd" for n in rule_nodes(d)), text
        n = normalize(d)
        check_derivation(n)
        assert is_normal(n) and n.conclusion == d.conclusion
        free = eliminate_cuts(inject_cut(d, pf("r")))
        check_derivation(free)
        assert is_cutfree(free) and free.conclusion == d.conclusion
        res = resolve_derivation(d)
        for xi, c in res.branches.items():
            check_derivation(c)
            assert c.conclusion == Sequent(xi, res.mapping[xi])
        back = reassemble(res)
        check_derivation(back)
        assert back.conclusion == d.conclusion
        ant, suc = d.conclusion.ant, d.conclusion.suc
        for k in range(4):  # each antecedent formula to either block
            g1 = tuple(f for i, f in enumerate(ant) if k >> i & 1)
            g2 = tuple(f for i, f in enumerate(ant) if not k >> i & 1)
            for lam1 in ((), suc):
                lam2 = () if lam1 else suc
                part = PartitionSequent(g1, g2, lam1, lam2)
                report = verify_interpolant(interpolate_partition(d, part),
                                            part)
                assert report.ok and report.oracle_checked, str(part)
