import json
import random
import time
from functools import partial

import pytest

from teamseq import cli, prover, transforms
from teamseq.calculus import (PRINCIPAL_SIDE, Derivation, RuleApp,
                              _formula_entry, _read_table, antecedent_taken,
                              check_derivation,
                              check_inference, cutrank, derive,
                              derivation_from_json, derivation_to_json,
                              height, infer, is_cutfree, make_at, make_cut,
                              make_lbot, make_lc, make_lori, make_randi,
                              make_rc, premises_of, rebuild, rule_nodes)
from teamseq.errors import (ArityMismatch, DerivationCheckError,
                            ParseError, RuleViolation, ShapeMismatch)
from teamseq.interpolation import interpolate_partition, verify_interpolant
from teamseq.prover import (DEFAULT_NODE_BUDGET, Budget, prove_classical,
                            prove_or_countermodel)
from teamseq.semantics import Team, sequent_valid, team_to_json
from teamseq.syntax import (And, BOT, Gd, Neg, Or, PartitionSequent, Prop,
                            Sequent, children, gd_sides, is_classical, mset,
                            mset_add, mset_remove, parse_formula,
                            parse_sequent)
from teamseq.transforms import (contract, eliminate_cuts, invert, is_normal,
                                normalize, reassemble, resolve_derivation,
                                weaken)

from conftest import (gen_sequent, inject_cut, shared_chain,
                      split_first_step, variant_examples)

pf, ps = parse_formula, parse_sequent
p, q, r, s_ = Prop("p"), Prop("q"), Prop("r"), Prop("s")


def ok(d: Derivation):
    check_derivation(d)
    return d


def stub(text):
    """An unchecked leaf standing in for an arbitrary subderivation."""
    return Derivation(ps(text), RuleApp("At", pos=0, pos2=0))


def test_axioms():
    ok(make_at((p, q), (p, r)))
    ok(make_lbot((BOT, q), ()))
    with pytest.raises(ValueError):
        make_at((p,), (q,))
    bad = Derivation(ps("p => q"), RuleApp("At", pos=0, pos2=0, formula=p))
    with pytest.raises(DerivationCheckError):
        check_derivation(bad)


def test_deep_left_rule_instance():
    # a conjunction whose right conjunct is a global disjunction of a
    # split disjunction and a nested global disjunction
    host = And(p, Gd(Or(q, r), Gd(s_, And(q, Neg(p)))))
    g = (Prop("g"),)
    p1 = stub("g, p & (q | r) =>")
    p2 = stub("g, p & (s || q & ~p) =>")
    d = infer("LGd", (p1, p2), host, (1,))
    check_inference(d.conclusion, d.rule, [x.conclusion for x in d.premises])
    assert d.conclusion.ant == Sequent(g + (host,), ()).ant


def test_lgd_path_must_hit_global_disjunction():
    host = And(p, Gd(q, r))
    p1 = stub("p & q =>")
    p2 = stub("p & r =>")
    d = infer("LGd", (p1, p2), host, (1,))
    # (0,) addresses `p`; (2,) and (1, 0, 0) leave the formula
    for path in ((0,), (2,), (1, 0, 0)):
        bad = Derivation(d.conclusion,
                         RuleApp("LGd", pos=0, formula=host, path=path),
                         d.premises)
        with pytest.raises(RuleViolation):
            check_inference(bad.conclusion, bad.rule,
                            [x.conclusion for x in bad.premises])
        with pytest.raises(DerivationCheckError) as err:
            check_derivation(bad)
        assert err.value.address == ()
    rgd = infer("RGd", (stub("=> p & q"),), host, (1,), "L")
    bad = Derivation(rgd.conclusion,
                     RuleApp("RGd", pos=0, formula=host, path=(2,), side="L"),
                     rgd.premises)
    with pytest.raises(DerivationCheckError):
        check_derivation(bad)


def test_restricted_context_rules():
    gd = Gd(p, Neg(p))
    # premise right context of the split-disjunction left rule must be
    # classical
    lor = infer("LOr", (stub("p => p || ~p"), stub("~p => p || ~p")),
                Or(p, Neg(p)))
    with pytest.raises(RuleViolation, match="classical"):
        check_inference(lor.conclusion, lor.rule,
                        [x.conclusion for x in lor.premises])
    # same restriction on the conjunction right rule
    rand = infer("RAnd", (stub("=> p, q || r"), stub("=> q, q || r")),
                 And(p, q))
    with pytest.raises(RuleViolation, match="classical"):
        check_inference(rand.conclusion, rand.rule,
                        [x.conclusion for x in rand.premises])
    # but the implicit weakening slot may hold anything
    d = infer("RAnd", (make_at((p,), (p,)), make_at((p,), (p,))),
              And(p, p), weak=(gd,))
    ok(d)


def test_rgd_has_no_antecedent_restriction():
    # the right deep rule itself applies under a nonclassical antecedent
    prem = ok(make_at((Gd(p, q), p), (p,)))
    d = infer("RGd", (prem,), Gd(p, r), (), "L")
    ok(d)


def test_right_contraction_classical_only():
    gd = Gd(p, Neg(p))
    prem = stub("(p||~p)|(p||~p) => p||~p, p||~p")
    d = make_rc(prem, gd)
    with pytest.raises(RuleViolation, match="classical"):
        check_inference(d.conclusion, d.rule, [prem.conclusion])
    prem2 = ok(make_at((p,), (p, p)))
    ok(make_rc(prem2, p))


def test_cut_checks():
    d1 = ok(make_at((p,), (p,)))
    d2 = ok(make_at((p,), (p,)))
    cut = make_cut(d1, d2, p)
    ok(cut)
    assert cut.conclusion == ps("p => p")
    bad = Derivation(cut.conclusion, RuleApp("Cut", cutformula=q),
                     cut.premises)
    with pytest.raises(DerivationCheckError):
        check_derivation(bad)


def test_arity():
    with pytest.raises(ArityMismatch):
        check_inference(ps("p, p & q => p"), RuleApp("LAnd", pos=1,
                                                     formula=And(p, q)), [])


def test_unknown_rule_rejected():
    d = Derivation(ps("p => p"), RuleApp("LDstr"))
    with pytest.raises(DerivationCheckError) as e:
        check_derivation(d)
    assert "unknown" in str(e.value)


def test_mixed_phase_example_derivation_checks():
    # a derivation mixing deep rules and the classical block, built by hand
    por = pf("p || r")
    d1 = prove_classical(ps("x, ~x | (~q | p), q => p"))
    d2 = prove_classical(ps("x, ~x | (~q | r), q => r"))
    t1 = infer("RGd", (d1,), por, (), "L")
    t2 = infer("RGd", (d2,), por, (), "R")
    lgd = infer("LGd", (t1, t2), pf("~x | (~q | (p || r))"), (1, 1))
    top = infer("LAnd", (infer("ROr", (infer("RNeg", (lgd,), pf("~q")),),
                               pf("(p || r) | ~q")),),
                pf("x & (~x | (~q | (p || r)))"))
    ok(top)
    assert top.conclusion == ps("x & (~x | (~q | (p||r))) => (p||r) | ~q")


def test_height_and_cutrank():
    ax = make_at((p,), (p,))
    assert height(ax) == 1
    d = infer("LNeg", (make_at((p,), (p, p)),), Neg(p))
    assert height(d) == 2
    two = infer("RAnd", (make_at((p,), (p, p)),
                         infer("RNeg", (make_at((p, q), (p,)),), Neg(q))),
                And(p, Neg(q)))
    assert height(two) == 3
    inner = make_cut(ax, ax, p)
    assert cutrank(inner) == 1
    outer = make_cut(stub("=> p & q"), stub("p & q => p"), And(p, q))
    assert cutrank(outer) == 3
    assert cutrank(ax) == 0 and is_cutfree(ax)
    assert not is_cutfree(inner)


def test_mutation_suite():
    # corrupting a checked derivation must be caught
    rng = random.Random(83)
    caught = 0
    tried = 0
    while caught < 30:
        s = gen_sequent(rng)
        d = prove_or_countermodel(s)
        if not isinstance(d, Derivation) or not d.premises:
            continue
        tried += 1
        kind = rng.randrange(3)
        if kind == 0:
            # swap a context formula in the conclusion
            mutated = Derivation(
                Sequent(d.conclusion.ant + (Prop("z"),), d.conclusion.suc),
                d.rule, d.premises)
        elif kind == 1:
            # retarget a deep rule's path to a non-disjunction node
            if d.rule.rule not in ("LGd", "RGd"):
                continue
            mutated = Derivation(d.conclusion,
                                 RuleApp(d.rule.rule, pos=d.rule.pos,
                                         formula=d.rule.formula,
                                         path=d.rule.path + (0,),
                                         side=d.rule.side),
                                 d.premises)
        else:
            # widen a restricted context with a nonclassical formula
            if d.rule.rule not in ("RAnd", "LOr"):
                continue
            gd = Gd(p, q)
            new_prems = tuple(
                Derivation(Sequent(x.conclusion.ant,
                                   x.conclusion.suc + (gd,)),
                           x.rule, x.premises)
                for x in d.premises)
            mutated = Derivation(Sequent(d.conclusion.ant,
                                         d.conclusion.suc + (gd, gd)),
                                 d.rule, new_prems)
        with pytest.raises(DerivationCheckError):
            check_derivation(mutated)
        caught += 1
    assert caught == 30


def test_variant_system_rules():
    # independent contexts, explicit contraction
    left = ok(make_at((p,), (p,)))
    right = ok(make_at((q,), (q,)))
    randi = ok(make_randi(left, right, And(p, q)))
    assert randi.conclusion == ps("p, q => p & q")
    lori = ok(make_lori(left, right, Or(p, q)))
    assert lori.conclusion == ps("p | q => p, q")
    dup = ok(make_at((p, p), (p,)))
    lc = ok(make_lc(dup, p))
    assert lc.conclusion == ps("p => p")
    # soundness spot checks
    assert sequent_valid(randi.conclusion)
    assert sequent_valid(lori.conclusion)
    # every transform and interpolation takes them, also with a context no
    # shared-context rule can join: cut elimination makes them G3 first
    for tag, d in variant_examples().items():
        ok(d)
        assert d.rule.rule == tag
        c = d.conclusion
        outs = [(eliminate_cuts(d), c), (normalize(d), c),
                (weaken(d, "L", q), Sequent(c.ant + (q,), c.suc))]
        assert is_g3(outs[0][0]) and is_normal(outs[1][0])
        if tag == "LC":
            outs.append((contract(d, "L", p), Sequent(c.ant[1:], c.suc)))
            gd = Gd(q, r)
            out, side = invert(d, "RGd", c.suc.index(gd))
            (prem,) = premises_of("RGd", c.ant, c.suc, gd, (), side)
            outs.append((out, Sequent(*prem)))
        else:
            inv = {"RAndI": "RAnd", "LOrI": "LOr"}[tag]
            f = d.rule.formula
            pool = c.suc if inv == "RAnd" else c.ant
            prems = premises_of(inv, c.ant, c.suc, f)
            outs += zip(invert(d, inv, pool.index(f)),
                        (Sequent(*prem) for prem in prems))
        res = resolve_derivation(d)
        assert (res.gamma, res.delta) == (c.ant, c.suc)
        outs += [(b, b.conclusion) for b in res.branches.values()]
        outs.append((reassemble(res), c))
        for out, goal in outs:
            ok(out)
            assert out.conclusion == goal, tag
        part = PartitionSequent(c.ant[:1], c.ant[1:], (), c.suc)
        report = verify_interpolant(interpolate_partition(d, part), part)
        assert report.ok and report.oracle_checked, report


def test_variant_rules_reject_bad_splits():
    left = ok(make_at((p,), (p,)))
    right = ok(make_at((q,), (q,)))
    randi = ok(make_randi(left, right, And(p, q)))
    # declare a split that does not match the premises
    bad = Derivation(randi.conclusion,
                     RuleApp("RAndI", pos=randi.rule.pos, formula=And(p, q),
                             split=((q,), ())),
                     randi.premises)
    with pytest.raises(DerivationCheckError):
        check_derivation(bad)
    lori = ok(make_lori(left, right, Or(p, q)))
    bad2 = Derivation(lori.conclusion,
                      RuleApp("LOrI", pos=lori.rule.pos, formula=Or(p, q),
                              split=((), ())),
                      lori.premises)
    with pytest.raises(DerivationCheckError):
        check_derivation(bad2)


def is_g3(d: Derivation) -> bool:
    """No node of `d` uses a variant rule or cut."""
    return all(n.rule.rule in PRINCIPAL_SIDE or n.rule.rule in ("At", "LBot")
               for n in rule_nodes(d))


def test_variant_equivalence_with_shared_context_rules():
    # rebuild shared-context conjunctions from the variant rules, and
    # translate them back into G3 by cut elimination
    rng = random.Random(89)
    done = 0
    while done < 200:
        s = gen_sequent(rng)
        d = prove_or_countermodel(s)
        if not isinstance(d, Derivation):
            continue
        done += 1
        g = _to_variant(d)
        check_derivation(g)
        assert g.conclusion == d.conclusion
        back = eliminate_cuts(g)
        check_derivation(back)
        assert back.conclusion == g.conclusion
        assert is_g3(back) and height(back) <= height(g)
        assert is_normal(normalize(g))


def _to_variant(d: Derivation) -> Derivation:
    prems = tuple(_to_variant(x) for x in d.premises)
    tag = d.rule.rule
    if tag == "RAnd" and not (d.rule.weak or ()):
        out = make_randi(prems[0], prems[1], d.rule.formula)
        for f in prems[0].conclusion.ant:
            out = make_lc(out, f)
        lam = list(prems[0].conclusion.suc)
        lam.remove(d.rule.formula.left)
        for f in lam:
            out = make_rc(out, f)
        return out
    if tag == "LOr" and not (d.rule.weak or ()):
        out = make_lori(prems[0], prems[1], d.rule.formula)
        ant = list(prems[0].conclusion.ant)
        ant.remove(d.rule.formula.left)
        for f in ant:
            out = make_lc(out, f)
        for f in prems[0].conclusion.suc:
            out = make_rc(out, f)
        return out
    return Derivation(d.conclusion, d.rule, prems) if prems else d


def test_derivation_json_round_trip():
    rng = random.Random(97)
    done = 0
    while done < 15:
        d = prove_or_countermodel(gen_sequent(rng))
        if not isinstance(d, Derivation):
            continue
        done += 1
        blob = json.dumps(derivation_to_json(d))
        back = derivation_from_json(json.loads(blob))
        assert back == d
        check_derivation(back)


def test_derivation_json_round_trip_covers_every_field():
    """Prover output, its normal form, an injected cut, its elimination
    and the variant-rule form all read back equal and checked; together
    they carry every optional rule field."""
    rng = random.Random(613)
    seen = set()
    done = 0
    while done < 30:
        d = prove_or_countermodel(gen_sequent(rng))
        if not isinstance(d, Derivation):
            continue
        done += 1
        derivs = [d, normalize(d), _to_variant(d)]
        if d.conclusion.suc:
            cut = inject_cut(d, rng.choice(d.conclusion.suc))
            derivs += [cut, eliminate_cuts(cut)]
        for top in derivs:
            back = derivation_from_json(
                json.loads(json.dumps(derivation_to_json(top))))
            assert back == top
            check_derivation(back)
            for node in rule_nodes(top):
                seen.update(key for key in ("weak", "cutformula", "split",
                                            "path", "side")
                            if getattr(node.rule, key))
    assert seen == {"weak", "cutformula", "split", "path", "side"}


def _subformulas(f):
    out, todo = set(), [f]
    while todo:
        g = todo.pop()
        if g not in out:
            out.add(g)
            todo.extend(children(g))
    return out


def test_derivation_json_writes_each_subformula_once():
    rng = random.Random(617)
    done = 0
    while done < 20:
        d = prove_or_countermodel(gen_sequent(rng))
        if not isinstance(d, Derivation) or not d.conclusion.suc:
            continue
        done += 1
        top = _to_variant(inject_cut(d, rng.choice(d.conclusion.suc)))
        expected = set()
        for node in rule_nodes(top):
            r = node.rule
            for f in (node.conclusion.ant + node.conclusion.suc
                      + (r.formula, r.cutformula) + (r.weak or ())
                      + sum(r.split or (), ())):
                if f is not None:
                    expected |= _subformulas(f)
        table = derivation_to_json(top)["formulas"]
        read = _read_table(json.loads(json.dumps(table)), "formula",
                           _formula_entry)
        assert len(set(read)) == len(read) == len(table)
        assert set(read) == expected


def test_bad_formula_table_is_a_parse_error(tmp_path, capsys):
    good = derivation_to_json(prove_or_countermodel(ps("p & q => q & p")))
    table, nodes = good["formulas"], good["nodes"]
    first = next(i for i, e in enumerate(table) if "l" in e)
    assert first + 1 < len(table)
    # a node with premises below the root
    inner = next(i for i, n in enumerate(nodes) if n["premises"])
    assert inner + 1 < len(nodes)
    path = tmp_path / "d.json"

    def bad(edit):
        obj = json.loads(json.dumps(good))
        edit(obj)
        with pytest.raises(ParseError):
            derivation_from_json(obj)
        path.write_text(json.dumps(obj))
        assert cli.run(["check", str(path)]) == 2
        assert "input error" in capsys.readouterr().err

    def set_child(value):
        return lambda obj: obj["formulas"][first].update(l=value)

    def set_ant(value):
        return lambda obj: obj["nodes"][-1]["conclusion"]["ant"].append(value)

    def set_principal(value):
        return lambda obj: obj["nodes"][-1]["rule"].update(formula=value)

    def set_premise(value):
        def edit(obj):
            obj["nodes"][inner]["premises"][0] = value
        return edit

    # in a table entry: out of range, negative, a bool, not an int, the
    # entry itself, a later entry, missing
    for value in (len(table), -1, True, False, "0", 0.0, None, first,
                  first + 1):
        bad(set_child(value))
    bad(lambda obj: obj["formulas"][first].pop("l"))
    # in a node: out of range, negative, a bool, not an int
    for value in (len(table), -1, True, "0", 0.0, None):
        bad(set_ant(value))
        bad(set_principal(value))
    # a premise: out of range, negative, a bool, not an int, the entry
    # itself, a later entry, missing
    for value in (len(nodes), -1, True, False, "0", 0.0, None, inner,
                  inner + 1):
        bad(set_premise(value))
    bad(lambda obj: obj["nodes"][inner].pop("premises"))
    # either table: not an array, missing, an entry that is no object
    for key in ("formulas", "nodes"):
        for value in ({"0": good[key][0]}, "[]", None):
            bad(lambda obj: obj.update({key: value}))
        bad(lambda obj: obj[key].insert(0, [0]))
        bad(lambda obj: obj[key].insert(0, 0))
        bad(lambda obj: obj.pop(key))
    # no nodes at all
    bad(lambda obj: obj.update(nodes=[]))

    def old_form(obj):
        # the nested form of earlier versions: one tree under "derivation"
        del obj["nodes"]
        obj["formulas"] = [{"op": "prop", "name": "p"}]
        obj["derivation"] = {
            "rule": {"rule": "At", "pos": 0, "pos2": 0, "formula": 0},
            "conclusion": {"ant": [0], "suc": [0]}, "premises": []}

    bad(old_form)


def test_derivation_from_json_reads_a_deep_node_table():
    obj = derivation_to_json(make_lbot((BOT,), ()))
    leaf = obj["nodes"][0]
    # 3000 entries, each the only premise of the next: the root last
    obj["nodes"] += [{"rule": {"rule": "LBot"},
                      "conclusion": leaf["conclusion"], "premises": [i]}
                     for i in range(3000)]
    text = json.dumps(obj)
    d = derivation_from_json(json.loads(text))
    assert height(d) == 3001
    assert json.dumps(derivation_to_json(d)) == text


def test_derivation_json_round_trip_gives_back_the_text():
    """Seeded: prover output, its normal form and the elimination of an
    injected cut are written, read and written again to the same JSON
    text, and what is read checks."""
    rng = random.Random(4099)
    done = 0
    while done < 100:
        d = prove_or_countermodel(gen_sequent(rng))
        if not isinstance(d, Derivation) or not d.conclusion.suc:
            continue
        done += 1
        cut = inject_cut(d, rng.choice(d.conclusion.suc))
        for top in (d, normalize(d), eliminate_cuts(cut)):
            text = json.dumps(derivation_to_json(top))
            back = derivation_from_json(json.loads(text))
            assert json.dumps(derivation_to_json(back)) == text
            check_derivation(back)
            assert back.conclusion == top.conclusion


def test_deep_derivation_answers_or_is_a_resource_limit():
    # 1501 nodes deep: an axiom with 1501 copies of p, then 1500 LC
    d = make_at((p,) * 1501, (p,))
    for _ in range(1500):
        d = make_lc(d, p)
    check_derivation(d)
    assert height(d) == 1501
    assert cutrank(d) == 0
    assert is_cutfree(d)
    obj = derivation_to_json(d)
    assert len(obj["nodes"]) == 1501
    back = derivation_from_json(json.loads(json.dumps(obj)))
    check_derivation(back)
    assert derivation_to_json(back) == obj
    # a cut formula nested 900 deep, which the parser accepts
    f = parse_formula("p & " * 900 + "p")
    cut = make_cut(make_at((p,), (p, f)), make_at((f, p), (p,)), f)
    check_derivation(cut)
    assert cutrank(cut) == 1801


def test_premises_of_agrees_with_the_checker():
    """The backward step shared by search, inversion and interpolation,
    against the premises of derivations that the independent checker
    accepts: prover output, its phase normal form, and the result of
    eliminating an injected cut."""
    rng = random.Random(331)
    seen = set()
    done = 0
    while done < 40:
        d = prove_or_countermodel(gen_sequent(rng))
        if not isinstance(d, Derivation):
            continue
        done += 1
        derivs = [d, normalize(d)]
        if d.conclusion.suc:
            phi = rng.choice(d.conclusion.suc)
            derivs.append(eliminate_cuts(inject_cut(d, phi)))
        for top in derivs:
            check_derivation(top)
            for node in rule_nodes(top):
                r, c = node.rule, node.conclusion
                if r.rule not in PRINCIPAL_SIDE or r.weak:
                    continue
                assert premises_of(r.rule, c.ant, c.suc, r.formula, r.path,
                                   r.side) == \
                    [(x.conclusion.ant, x.conclusion.suc) for x in node.premises]
                seen.add((r.rule, r.side))
    assert {tag for tag, _ in seen} == set(PRINCIPAL_SIDE)
    assert {("RGd", "L"), ("RGd", "R")} <= seen


def test_rebuild_reproduces_every_node():
    """The forward step, over each node's own premises, gives back the
    node: prover output and its phase normal form."""
    rng = random.Random(523)
    nodes, tags, done = 0, set(), 0
    while done < 120:
        d = prove_or_countermodel(gen_sequent(rng))
        if not isinstance(d, Derivation):
            continue
        done += 1
        for top in (d, normalize(d)):
            for node in rule_nodes(top):
                if node.premises:
                    assert rebuild(node.rule, node.premises) == node
                    nodes += 1
                    tags.add(node.rule.rule)
    assert nodes > 1500
    assert tags == set(PRINCIPAL_SIDE)
    # a rule without a backward step has no forward step either
    with pytest.raises(ShapeMismatch, match="no backward step for rule LC"):
        rebuild(RuleApp("LC", formula=p), (make_at((p, p), (p,)),))


def test_misaligned_premises_raise():
    # the left deep rule checks both premises, as RAnd and LOr do
    for second in (make_at((q,), (q,)), make_at((q, r), (q,))):
        with pytest.raises(ValueError):
            infer("LGd", (make_at((p,), (p,)), second), Gd(p, q))
    with pytest.raises(ValueError):
        infer("LGd", (make_at((p,), (p,)), make_at((r,), (r,))), Gd(p, q))
    with pytest.raises(ValueError):
        infer("RAnd", (make_at((p,), (p,)), make_at((q, r), (q,))), And(p, q))
    with pytest.raises(ValueError):
        infer("LOr", (make_at((p,), (p,)), make_at((q,), (q, r))), Or(p, q))
    with pytest.raises(ValueError):
        infer("LAnd", (make_at((p,), (p,)),), And(p, q))


def test_shared_nodes_are_visited_once(tmp_path, capsys):
    for n in (20, 60):
        d = shared_chain(n)
        path = tmp_path / f"chain{n}.json"
        path.write_text(json.dumps(derivation_to_json(d)))
        start = time.perf_counter()
        check_derivation(d)
        assert is_cutfree(d) and cutrank(d) == 0
        assert len(list(rule_nodes(d))) == n + 1
        assert cli.run(["check", str(path)]) == 0
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().out.startswith("ok:")
    # a failing node below two parents is reported at the first address
    # the walk (last premise first) reaches it by
    xs = [Prop(f"x{k}") for k in range(4)]
    bad = Derivation(Sequent(xs[:1], xs), RuleApp("At", pos=0, pos2=1,
                                                   formula=xs[0]))
    with pytest.raises(DerivationCheckError) as err:
        check_derivation(shared_chain(3, bad))
    assert err.value.address == (1, 1, 1)


def test_check_inference_reads_any_iterable_of_premises():
    d = infer("RAnd", (make_at((p,), (p,)), make_at((p,), (p,))), And(p, p))
    check_inference(d.conclusion, d.rule, (x.conclusion for x in d.premises))
    check_inference(d.conclusion, d.rule, tuple(x.conclusion
                                                for x in d.premises))
    for premises in ((), [d.premises[0].conclusion] * 3):
        with pytest.raises(ArityMismatch, match="expected 2 premises"):
            check_inference(d.conclusion, d.rule, iter(premises))


def test_check_inference_refuses_an_unknown_tag():
    for tag in ("Foo", "at", "", None, 3, ("At",), ["At"]):
        with pytest.raises(RuleViolation, match="unknown rule") as err:
            check_inference(ps("p => p"),
                            RuleApp(tag, pos=0, pos2=0, formula=p), [])
        assert type(err.value) is RuleViolation


def test_check_derivation_locates_a_corrupt_leaf():
    # a stage-1 derivation of 2687 nodes, whose every split is used; each
    # corrupted leaf is reported at the path a seeded walk took to it
    pairs = [(f"a{i}", f"b{i}") for i in range(7)]
    s = ps(", ".join(f"{a} || {b}" for a, b in pairs) + " => "
           + " & ".join(f"({a} || {b})" for a, b in pairs))
    d = prove_or_countermodel(s)
    assert len(list(rule_nodes(d))) > 1000
    rng = random.Random(631)
    for _ in range(10):
        path, nodes = [], [d]
        while nodes[-1].premises:
            path.append(rng.randrange(len(nodes[-1].premises)))
            nodes.append(nodes[-1].premises[path[-1]])
        leaf = nodes.pop()
        out = Derivation(leaf.conclusion, RuleApp(leaf.rule.rule,
                                                  pos=leaf.rule.pos,
                                                  formula=leaf.rule.formula))
        for node, i in zip(reversed(nodes), reversed(path)):
            out = Derivation(node.conclusion, node.rule,
                             node.premises[:i] + (out,)
                             + node.premises[i + 1:])
        with pytest.raises(DerivationCheckError) as err:
            check_derivation(out)
        assert err.value.address == tuple(path)
        assert "not in succedent" in str(err.value.cause)


def canonical(d: Derivation) -> bool:
    return all(n.conclusion.ant == mset(n.conclusion.ant)
               and n.conclusion.suc == mset(n.conclusion.suc)
               for n in rule_nodes(d))


def test_derivations_keep_the_canonical_order():
    """The invariant the checker's direct comparison rests on: every node
    conclusion the prover, the transforms and interpolation build, and
    every one read back from JSON, has its sides in canonical order."""
    rng = random.Random(613)
    done = 0
    while done < 60:
        d = prove_or_countermodel(gen_sequent(rng))
        if not isinstance(d, Derivation):
            continue
        done += 1
        derivs = [d, normalize(d), eliminate_cuts(d)]
        if d.conclusion.suc:
            phi = rng.choice(d.conclusion.suc)
            derivs.append(eliminate_cuts(inject_cut(d, phi)))
        derivs.extend(resolve_derivation(d).branches.values())
        ant = d.conclusion.ant
        k = rng.randint(0, len(ant))
        lam1 = tuple(f for f in d.conclusion.suc if is_classical(f))[:1]
        rest = list(d.conclusion.suc)
        for f in lam1:
            rest.remove(f)
        res = interpolate_partition(
            d, PartitionSequent(ant[:k], ant[k:], lam1, tuple(rest)))
        derivs += [res.left_derivation, res.right_derivation]
        for top in derivs:
            assert canonical(top)
            assert canonical(derivation_from_json(derivation_to_json(top)))


def test_checker_refuses_a_non_canonical_premise():
    # a premise side that is a permutation of the expected multiset, out
    # of canonical order, is refused: equal tuples only
    rng = random.Random(617)
    refused, done = 0, 0
    while done < 30:
        d = prove_or_countermodel(gen_sequent(rng))
        if not isinstance(d, Derivation):
            continue
        done += 1
        for node in rule_nodes(d):
            for i, prem in enumerate(node.premises):
                c = prem.conclusion
                for side in ("ant", "suc"):
                    sides = {"ant": c.ant, "suc": c.suc}
                    if len(set(sides[side])) < 2:
                        continue
                    sides[side] = sides[side][::-1]
                    premises = [x.conclusion for x in node.premises]
                    premises[i] = Sequent._canonical(sides["ant"], sides["suc"])
                    with pytest.raises(RuleViolation):
                        check_inference(node.conclusion, node.rule, premises)
                    refused += 1
    assert refused > 100


# the rules that take their principal formula from the antecedent
_ANT_RULES = ("At", "LBot", "LNeg", "LAnd", "LOr", "LGd", "LC")


def _takes(d: Derivation, a) -> bool:
    """Whether a rule of `d` takes a formula equal to `a` from the
    antecedent, by a walk of every path."""
    todo = [d]
    while todo:
        n = todo.pop()
        if n.rule.rule in _ANT_RULES and n.rule.formula == a:
            return True
        todo.extend(n.premises)
    return False


def _swap_by_infer(d: Derivation, a, f) -> Derivation:
    """`d` with one `a` in every antecedent replaced by `f`, each node
    built again: axioms by `make_at` and `make_lbot`, the rest by
    `infer`."""
    r, c = d.rule, d.conclusion
    if r.rule == "At":
        return make_at(mset_add(mset_remove(c.ant, a), f), c.suc, r.formula)
    if r.rule == "LBot":
        return make_lbot(mset_add(mset_remove(c.ant, a), f), c.suc)
    return infer(r.rule, [_swap_by_infer(x, a, f) for x in d.premises],
                 r.formula, r.path or (), r.side, r.weak or ())


def _derive_by_infer(goal, step, *args, prune=True):
    """The reference for `derive`: the same root-first search, with each
    rule closed by `infer`, which infers its conclusion again from the
    premises.  With `prune`, an LGd whose left premise's derivation takes
    no formula equal to its left side from the antecedent is closed by
    that derivation with the side swapped for the principal, and its
    right premise is never searched."""
    stack = []
    ant, suc = goal
    while True:
        out = step(ant, suc, *args)
        if isinstance(out, tuple):
            tag, f, path = out
            premises = premises_of(tag, ant, suc, f, path)
            stack.append((tag, f, path, premises, []))
            ant, suc = premises[0]
            continue
        while isinstance(out, Derivation) and stack:
            tag, f, path, premises, derived = stack[-1]
            if prune and tag == "LGd" and not derived:
                a = gd_sides(f, path)[0]
                if not _takes(out, a):
                    stack.pop()
                    out = _swap_by_infer(out, a, f)
                    continue
            derived.append(out)
            if len(derived) < len(premises):
                ant, suc = premises[len(derived)]
                break
            stack.pop()
            out = infer(tag, derived, f, path)
        else:
            return out


def _as_json(out):
    if isinstance(out, Team):
        return json.dumps(team_to_json(out))
    check_derivation(out)
    return json.dumps(derivation_to_json(out))


def test_derive_closes_rules_as_infer_does(monkeypatch):
    # a rule closed from its goal is the node `infer` builds from its
    # premises, field for field, and a pruned split's swap is the nodes
    # `infer` builds again: the prover's answers, the reassembled
    # resolutions and the eliminated cuts (whose goal `_reassemble` sorts)
    # are the same bytes with either builder
    rng = random.Random(41)
    seqs = [gen_sequent(rng) for _ in range(1000)]

    def outputs():
        answers, rebuilt = [], []
        for s in seqs:
            out = prove_or_countermodel(s)
            answers.append(_as_json(out))
            if isinstance(out, Derivation) and len(rebuilt) < 300:
                rebuilt.append(_as_json(reassemble(resolve_derivation(out))))
                if out.conclusion.suc:
                    cut = inject_cut(out, out.conclusion.suc[-1])
                    rebuilt.append(_as_json(eliminate_cuts(cut)))
        return answers, rebuilt

    answers, rebuilt = outputs()
    assert len(rebuilt) >= 300
    with monkeypatch.context() as m:
        m.setattr(prover, "derive", _derive_by_infer)
        m.setattr(transforms, "derive", _derive_by_infer)
        assert outputs() == (answers, rebuilt)


def _size(d: Derivation) -> int:
    return sum(1 for _ in rule_nodes(d))


def test_pruned_splits_keep_every_answer(monkeypatch):
    # against the search that expands every split: the same verdicts and
    # countermodels, and derivations that check and are no larger
    rng = random.Random(43)
    seqs = [gen_sequent(rng, max_formulas=3) for _ in range(1500)]
    pruned = [prove_or_countermodel(s) for s in seqs]
    with monkeypatch.context() as m:
        m.setattr(prover, "derive", partial(_derive_by_infer, prune=False))
        full = [prove_or_countermodel(s) for s in seqs]
    proved = smaller = 0
    for s, out, ref in zip(seqs, pruned, full):
        assert type(out) is type(ref), s
        if isinstance(ref, Team):
            assert _as_json(out) == _as_json(ref), s
            continue
        check_derivation(out)
        assert out.conclusion == s
        assert _size(out) <= _size(ref), s
        proved += 1
        smaller += _size(out) < _size(ref)
    assert proved > 400 and smaller > 100, (proved, smaller)


def test_a_split_whose_side_is_taken_is_kept():
    # an At, an LAnd and an LNeg on the left side: both premises stay
    for text in ("p || q => p, q", "(p & r) || q => p, q",
                 "~r || q, r => q"):
        d = ok(prove_or_countermodel(ps(text)))
        assert d.rule.rule == "LGd" and len(d.premises) == 2, text


def test_a_run_of_idle_splits_swaps_in_order():
    # the first split of `(p||q)||r` is on `p||q`, whose left premise
    # holds `p||r`, the formula of the next split; `s` closes the branch,
    # so both are pruned and the axiom holds `(p||q)||r` in their place
    goal = ps("(p || q) || r, s => s")
    d = ok(prove_or_countermodel(goal))
    assert d.rule.rule == "At" and d.conclusion == goal
    assert d.rule.formula == s_ and not d.premises
    # a split kept below a pruned one: `t` takes `t` at the axiom.  The
    # prover proves this goal through `s | ~s` before it splits, so the
    # split-first step drives `derive` here
    goal = ps("(p || q) || r, t || u => s | ~s, t, u")
    d = ok(derive((goal.ant, goal.suc), split_first_step,
                  tuple(sorted(goal.props())), Budget(DEFAULT_NODE_BUDGET)))
    assert d.conclusion == goal
    assert [n.rule.formula for n in rule_nodes(d)
            if n.rule.rule == "LGd"] == [pf("t || u")]
    # the prover's own proof of it splits nothing
    d = ok(prove_or_countermodel(goal))
    assert d.conclusion == goal
    assert all(n.rule.rule != "LGd" for n in rule_nodes(d))


def test_a_split_side_held_twice_is_swapped_once():
    # the axiom takes a `q` equal to the side, so the split stays
    d = ok(prove_or_countermodel(ps("q, q || r => q")))
    assert d.rule.rule == "LGd"
    # no rule takes `q`: one of the two takes the place of `q || r`
    goal = ps("q, q || r, s => s")
    d = ok(prove_or_countermodel(goal))
    assert d.rule.rule == "At" and d.conclusion == goal


def test_antecedent_taken_lists_what_the_rules_take():
    ex = variant_examples()
    assert list(antecedent_taken(ex["LC"])) == [p, p]
    # RAndI and LOrI split the antecedent: all of it is taken
    for tag in ("RAndI", "LOrI"):
        d = ex[tag]
        assert list(antecedent_taken(d))[:len(d.conclusion.ant)] == \
            list(d.conclusion.ant), tag
    cut = inject_cut(prove_or_countermodel(ps("p => p | q")), pf("p | q"))
    assert list(antecedent_taken(cut))[:1] == [p]


def test_derive_refuses_a_derivation_of_another_sequent():
    wrong = make_at((p,), (p, q))
    with pytest.raises(ValueError):
        derive(((p,), (p,)), lambda ant, suc: wrong)

    def step(ant, suc):  # LNeg where it can, and `wrong` at the leaves
        negs = [f for f in ant if isinstance(f, Neg)]
        return ("LNeg", negs[0], ()) if negs else wrong

    with pytest.raises(ValueError):
        derive(((Neg(q),), (p,)), step)
    d = derive((mset((p, Neg(q))), (p,)), step)
    assert d.premises == (wrong,)
    check_derivation(d)
