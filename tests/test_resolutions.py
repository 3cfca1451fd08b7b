import random
from itertools import product

import pytest

from teamseq.errors import DegreeOutOfRange, LabelAbsent
from teamseq.resolutions import (ResolutionStep, apply_resolution_step,
                                 gd_label, is_resolution, iter_resolutions,
                                 partial_resolutions, resolution_choices,
                                 resolution_steps, resolutions,
                                 resolutions_multiset, resolutions_ordered)
from teamseq.semantics import Team, eval_classical, satisfies, sequent_valid
from teamseq.syntax import (And, Bot, Gd, Neg, Or, Prop, Sequent, gd_count,
                            is_classical, mset, parse_formula)

from conftest import gen_formula, gen_side

pf = parse_formula


def rset(*texts):
    return frozenset(pf(t) for t in texts)


def test_resolutions_golden():
    assert resolutions(pf("p || (q || r)")) == rset("p", "q", "r")
    assert resolutions(pf("p & ~q")) == rset("p & ~q")
    assert resolutions(pf("(p||q) | s")) == rset("p | s", "q | s")


def test_resolutions_are_classical():
    rng = random.Random(53)
    for _ in range(200):
        f = gen_formula(rng, rng.randint(0, 4), 3)
        rs = resolutions(f)
        assert rs
        assert all(is_classical(g) for g in rs)
        if is_classical(f):
            assert rs == {f}


def eager_resolutions(f):
    """Reference: the resolutions built bottom-up as whole tuples, left
    disjunct alternatives first, duplicates dropped at each `||`."""
    match f:
        case Prop() | Bot():
            return (f,)
        case Neg(c):
            return tuple(Neg(b) for b in eager_resolutions(c))
        case And(l, r) | Or(l, r):
            return tuple(type(f)(a, b) for a in eager_resolutions(l)
                         for b in eager_resolutions(r))
        case Gd(l, r):
            return tuple(dict.fromkeys(eager_resolutions(l)
                                       + eager_resolutions(r)))


def test_lazy_resolutions_match_eager_reference():
    rng = random.Random(83)
    for _ in range(200):
        f = gen_formula(rng, rng.randint(0, 5), 4)
        assert resolutions_ordered(f) == eager_resolutions(f)


def test_is_resolution_matches_membership():
    # positives from each formula's own resolutions, negatives from the
    # resolutions of the other formulas
    rng = random.Random(89)
    fs = [gen_formula(rng, rng.randint(0, 4), 3, vars=("p", "q"))
          for _ in range(80)]
    pool = {t for f in fs for t in resolutions(f)}
    positives = negatives = 0
    for f in fs:
        rs = resolutions(f)
        for t in pool:
            assert is_resolution(f, t) == (t in rs), (f, t)
            positives += t in rs
            negatives += t not in rs
    assert positives >= 80 and negatives >= 1000


def test_resolution_choices_are_the_ordered_product():
    rng = random.Random(97)
    for _ in range(100):
        fs = gen_side(rng, 3, 3, 3)
        eager = list(product(*[[(f, r) for r in resolutions_ordered(f)]
                               for f in mset(fs)]))
        assert list(resolution_choices(fs)) == eager


VALUATIONS = [dict(zip("pqr", bits)) for bits in product((0, 1), repeat=3)]


def _drive(stream, witnesses, received, seed):
    """Pull up to 40 accepted candidates from `stream`, appending a witness
    after some of them, as the prover does: one that falsifies the
    candidate, or any valuation at all.  `received(c)` says whether the
    consumer takes candidate `c` under the witnesses stored so far."""
    policy = random.Random(seed)
    got = []
    for c in stream:
        if not received(c):
            continue
        got.append(c)
        roll = policy.random()
        if roll < 0.5:
            refuting = [v for v in VALUATIONS
                        if not any(eval_classical(r, v) for r in c)]
            if refuting:
                witnesses.append(policy.choice(refuting))
        elif roll < 0.7:
            witnesses.append(policy.choice(VALUATIONS))
        if len(got) == 40:
            break
    return got


def test_witness_pruned_stream_is_the_filtered_stream():
    # the pruned generators yield exactly the unpruned candidates that
    # every witness present when they are reached makes true somewhere,
    # with witnesses appended mid-stream
    rng = random.Random(131)
    for trial in range(300):
        fs = gen_side(rng, 3, 3, 3)
        start = rng.sample(VALUATIONS, rng.randint(0, 2))

        ws = list(start)
        pruned = _drive(([r for _, r in c]
                         for c in resolution_choices(fs, ws)),
                        ws, lambda c: True, trial)
        ws = list(start)
        plain = _drive(([r for _, r in c] for c in resolution_choices(fs)),
                       ws, lambda c: all(any(eval_classical(r, w) for r in c)
                                         for w in ws), trial)
        assert pruned == plain, fs

        for f in (*fs, gen_formula(rng, rng.randint(0, 4), 3)):
            ws = list(start)
            pruned = _drive(([r for _, r in c]
                             for c in resolution_choices([f], ws)),
                            ws, lambda c: True, trial)
            ws = list(start)
            plain = _drive(([r] for r in iter_resolutions(f)), ws,
                           lambda c: all(eval_classical(c[0], w) for w in ws),
                           trial)
            assert pruned == plain, f


def test_generator_reports_every_node():
    nodes = []
    ws = [dict(p=0, q=1, r=0)]
    out = list(resolution_choices([pf("p || q"), pf("r")], ws,
                                  lambda: nodes.append(1)))
    assert out == [((pf("p || q"), pf("q")), (pf("r"), pf("r")))]
    # the multiset's three levels, the `||` node, the cut `p`, the yielded
    # `q` and `r`
    assert len(nodes) == 7


def test_conjunction_stops_when_its_right_side_is_empty():
    # each witness leaves p||q some resolution, but none is true at both,
    # so the 2^10 resolutions of the left conjunct are not tried in turn
    left = " & ".join(f"(a{i}||b{i})" for i in range(10))
    ones = {f"{x}{i}": 1 for x in "ab" for i in range(10)}
    ws = [dict(ones, p=1, q=0), dict(ones, p=0, q=1)]
    nodes = []
    assert list(resolution_choices([pf(f"({left}) & (p||q)")], ws,
                                   lambda: nodes.append(1))) == []
    assert len(nodes) < 100


def test_resolutions_multiset_golden():
    ms = resolutions_multiset([pf("p||(q||r)"), pf("s||r")])
    want = {mset([pf(a), pf(b)]) for a, b in
            [("p", "s"), ("p", "r"), ("q", "s"), ("q", "r"), ("r", "s"),
             ("r", "r")]}
    assert ms == frozenset(want)
    assert resolutions_multiset([pf("p & q")]) == {mset([pf("p & q")])}
    dup = resolutions_multiset([pf("p||q"), pf("p||q")])
    assert dup == {mset([pf("p"), pf("p")]), mset([pf("p"), pf("q")]),
                   mset([pf("q"), pf("q")])}


def test_partial_resolutions_golden():
    f = pf("p || (q || r)")
    assert partial_resolutions(f, 0) == {f}
    assert partial_resolutions(f, 1) == rset("p", "q || r", "p || q", "p || r")
    assert partial_resolutions(f, 2) == rset("p", "q", "r")
    with pytest.raises(DegreeOutOfRange):
        partial_resolutions(f, 3)
    with pytest.raises(DegreeOutOfRange):
        partial_resolutions(f, -1)


def test_full_degree_partial_resolutions_are_resolutions():
    rng = random.Random(59)
    for _ in range(100):
        f = gen_formula(rng, rng.randint(0, 4), 3)
        k = gd_count(f)
        assert partial_resolutions(f, k) == resolutions(f)
        assert len(resolutions(f)) <= 2 ** k


def test_labelled_steps_golden():
    lf = gd_label(pf("p || (q || r)"))
    assert dict(lf.labels) == {(): 0, (1,): 1}
    a = apply_resolution_step(lf, ResolutionStep("R", 0))
    assert a.formula == pf("q || r")
    assert dict(a.labels) == {(): 1}
    b = apply_resolution_step(a, ResolutionStep("L", 1))
    assert b.formula == Prop("q")
    c = apply_resolution_step(lf, ResolutionStep("L", 1))
    assert c.formula == pf("p || q")
    with pytest.raises(LabelAbsent):
        apply_resolution_step(b, ResolutionStep("L", 0))


def test_step_order_independence():
    rng = random.Random(61)
    checked = 0
    while checked < 60:
        f = gen_formula(rng, rng.randint(1, 4), 3)
        lf = gd_label(f)
        labels = [lab for _, lab in lf.labels]
        if len(labels) < 2:
            continue
        checked += 1
        l1, l2 = rng.sample(labels, 2)
        s1 = ResolutionStep(rng.choice("LR"), l1)
        s2 = ResolutionStep(rng.choice("LR"), l2)
        def run(first, second):
            try:
                return apply_resolution_step(
                    apply_resolution_step(lf, first), second)
            except LabelAbsent:
                # the second step's occurrence sat inside the disjunct the
                # first step discarded
                return None
        one = run(s1, s2)
        other = run(s2, s1)
        if one is not None and other is not None:
            assert one == other


def test_normal_form_equivalence_against_oracle():
    # every team satisfies a formula iff it satisfies some resolution
    rng = random.Random(67)
    from itertools import combinations as comb
    vals = [(a, b) for a in (0, 1) for b in (0, 1)]
    teams = [Team(("p", "q"), frozenset(c))
             for size in range(5) for c in comb(vals, size)]
    for _ in range(40):
        f = gen_formula(rng, rng.randint(0, 3), 2, vars=("p", "q"))
        rs = resolutions(f)
        for t in teams:
            assert satisfies(t, f) == any(satisfies(t, g) for g in rs)


def test_split_property():
    # a classical multiset entails a global disjunction iff it entails a
    # disjunct
    rng = random.Random(71)
    for _ in range(60):
        lam = gen_side(rng, 2, 2, 0)
        phi = gen_formula(rng, rng.randint(0, 2), 1)
        psi = gen_formula(rng, rng.randint(0, 2), 1)
        whole = sequent_valid(Sequent(lam, (Gd(phi, psi),)))
        parts = (sequent_valid(Sequent(lam, (phi,)))
                 or sequent_valid(Sequent(lam, (psi,))))
        assert whole == parts


def test_entailment_reduces_to_resolutions():
    # entailment holds iff each antecedent resolution entails some
    # succedent resolution
    rng = random.Random(73)
    for _ in range(50):
        gamma = gen_side(rng, 2, 2, 2)
        psi = gen_formula(rng, rng.randint(0, 3), 2)
        lhs = sequent_valid(Sequent(gamma, (psi,)))
        rhs = all(any(sequent_valid(Sequent(xi, (alpha,)))
                      for alpha in resolutions(psi))
                  for xi in resolutions_multiset(gamma))
        assert lhs == rhs


def test_resolution_steps_reach_target():
    rng = random.Random(79)
    for _ in range(100):
        f = gen_formula(rng, rng.randint(0, 4), 3)
        for target in resolutions(f):
            steps = resolution_steps(f, target)
            cur = f
            for before, path, side, kept in steps:
                assert before == cur
                node = before
                for i in path:
                    node = (node.left, node.right)[i]
                from teamseq.syntax import substitute_at
                cur = substitute_at(before, path,
                                    node.left if side == "L" else node.right)
                assert kept == cur
            assert cur == target
