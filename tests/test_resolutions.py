import random
import time
from dataclasses import dataclass
from itertools import product

import pytest

from teamseq.errors import DegreeOutOfRange, ResourceLimit
from teamseq.resolutions import (_TruthMasks, is_resolution, iter_resolutions,
                                 partial_resolutions, resolution_choices,
                                 resolution_steps, resolutions,
                                 resolutions_multiset)
from teamseq.semantics import Team, eval_classical, satisfies, sequent_valid
from teamseq.syntax import (And, Bot, Gd, Neg, Or, Prop, Sequent, gd_count,
                            gd_paths, gd_sides, is_classical, mset,
                            parse_formula, render)

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
        assert tuple(iter_resolutions(f)) == eager_resolutions(f)


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
        eager = list(product(*[[(f, r) for r in iter_resolutions(f)]
                               for f in mset(fs)]))
        # a side in canonical order, as the prover hands it over
        assert list(resolution_choices(mset(fs))) == eager


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


def reference_gen(f, need, t, on_node):
    """Reference: the recursive generator with a binary case for `|`,
    which covers its two sides as a two-formula multiset."""
    on_node()
    if t.witnesses and need() & ~t.of(f):
        return
    if is_classical(f):
        yield f
    elif isinstance(f, Gd):
        yield from reference_gen(f.left, need, t, on_node)
        for x in reference_gen(f.right, need, t, on_node):
            if not is_resolution(f.left, x):
                yield x
    elif isinstance(f, And):
        for a in reference_gen(f.left, need, t, on_node):
            right = False
            for b in reference_gen(f.right, need, t, on_node):
                right = True
                yield And(a, b)
                if t.witnesses and need() & ~t.of(a):
                    break
            if not right:
                return
    else:
        for (_, a), (_, b) in reference_covers((f.left, f.right), need, t,
                                               on_node):
            yield Or(a, b)


def reference_covers(fs, need, t, on_node, i=0):
    """Reference: one nested generator, and one `need` closure, per
    position of `fs`."""
    on_node()
    if t.witnesses and need() & ~t.any(fs, i):
        return
    if i == len(fs):
        yield ()
        return
    f = fs[i]
    for r in reference_gen(f, lambda: need() & ~t.any(fs, i + 1), t, on_node):
        for tail in reference_covers(fs, lambda: need() & ~t.of(r), t,
                                     on_node, i + 1):
            yield ((f, r),) + tail


def reference_choices(formulas, witnesses, on_node):
    t = _TruthMasks(witnesses)
    return reference_covers(mset(formulas), t.all, t, on_node)


def or_above_gd(f) -> bool:
    """Whether some `|` in `f` has a global disjunction below it."""
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Or) and not is_classical(g):
            return True
        if isinstance(g, (And, Or, Gd)):
            stack += (g.left, g.right)
    return False


def _drive_every_pull(stream, witnesses, nodes, seed):
    """Pull up to 60 candidates, appending a witness after every pull, as
    the prover does after each failed candidate: a valuation that
    falsifies every formula of the candidate where there is one, else
    any.  Returns each candidate with the node count when it came."""
    policy = random.Random(seed)
    got = []
    for c in stream:
        got.append((c, len(nodes)))
        refuting = [v for v in VALUATIONS
                    if not any(eval_classical(r, v) for _, r in c)]
        witnesses.append(policy.choice(refuting or VALUATIONS))
        if len(got) == 60:
            break
    return got


def test_enumerator_matches_the_recursive_reference():
    # same pairings in the same order under a growing witness list; the
    # same generator-node counts, at every pull, unless a `|` has a `||`
    # below it, where the loop covers the whole `|` tree at once
    rng = random.Random(137)
    mixed = differ = 0
    for trial in range(400):
        fs = gen_side(rng, 3, 4, 3)
        if trial % 4 == 0:  # make sure of many `|` trees over `||`
            fs += (Or(Gd(gen_formula(rng, 2, 1), gen_formula(rng, 2, 1)),
                      gen_formula(rng, 2, 1)),)
        start = rng.sample(VALUATIONS, rng.randint(0, 2))
        ws, nodes = list(start), []
        got = _drive_every_pull(
            resolution_choices(mset(fs), ws, lambda: nodes.append(1)), ws,
            nodes, trial)
        total = len(nodes)
        ws, nodes = list(start), []
        want = _drive_every_pull(
            reference_choices(fs, ws, lambda: nodes.append(1)), ws, nodes,
            trial)
        assert [c for c, _ in got] == [c for c, _ in want], fs
        if any(or_above_gd(f) for f in fs):
            mixed += 1
            differ += total != len(nodes)
        else:
            assert got == want and total == len(nodes), fs
    assert mixed >= 100 and differ >= 10, (mixed, differ)


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


# Reference: partial resolutions as a frontier of labelled formulas, one
# resolution step at a time.  Each `||` occurrence carries a label, 0, 1,
# ... in left-to-right position order; a step replaces a labelled
# occurrence by one of its disjuncts, and the labels inside the discarded
# disjunct vanish.

class LabelAbsent(Exception):
    """A resolution step refers to a label no longer present."""


@dataclass(frozen=True)
class LabelledFormula:
    """A formula with numeric labels on its global-disjunction occurrences:
    `labels` maps occurrence path -> label."""

    formula: object
    labels: tuple

    def path_of(self, label):
        for path, lab in self.labels:
            if lab == label:
                return path
        return None


def gd_label(f):
    return LabelledFormula(f, tuple((path, i)
                                    for i, path in enumerate(gd_paths(f))))


@dataclass(frozen=True)
class ResolutionStep:
    side: str  # 'L' or 'R'
    label: int


def apply_resolution_step(lf, step):
    """Replace the labelled occurrence by its chosen disjunct.  Labels
    inside the discarded disjunct vanish; all other labels keep their
    numbers (paths are re-rooted under the contracted node)."""
    path = lf.path_of(step.label)
    if path is None:
        raise LabelAbsent(f"label {step.label} not present in "
                          f"{render(lf.formula)}")
    keep = 0 if step.side == "L" else 1
    new_labels = []
    plen = len(path)
    for p, lab in lf.labels:
        if p == path:
            continue
        if p[:plen] == path:
            if p[plen] == keep:
                new_labels.append((path + p[plen + 1:], lab))
        else:
            new_labels.append((p, lab))
    return LabelledFormula(gd_sides(lf.formula, path)[keep],
                           tuple(new_labels))


def frontier_partial_resolutions(f, n):
    """All results of resolving exactly `n` distinct labelled occurrences,
    by growing the frontier of (labelled formula, used labels) states."""
    frontier = {(gd_label(f), frozenset())}
    for _ in range(n):
        frontier = {(apply_resolution_step(lf, ResolutionStep(side, lab)),
                     used | {lab})
                    for lf, used in frontier
                    for _, lab in lf.labels if lab not in used
                    for side in "LR"}
    return frozenset(lf.formula for lf, _ in frontier)


def test_partial_resolutions_match_the_frontier_reference():
    rng = random.Random(163)
    fs = [gen_formula(rng, rng.randint(0, 5), 4) for _ in range(600)]
    p, q = pf("p || q"), pf("q || r & p")
    fs += [And(p, p), Or(p, p), Gd(p, p), Gd(Prop("p"), Prop("p")),
           Gd(p, And(p, q)), And(Gd(q, p), Or(q, Gd(q, q)))]
    pairs = 0
    for f in fs:
        for n in range(gd_count(f) + 1):
            assert partial_resolutions(f, n) == \
                frontier_partial_resolutions(f, n), (render(f), n)
            pairs += 1
    assert pairs >= 900, pairs


def gd_chain(n):
    """`p0 || (p1 || ... (p{n-1} || pn))`, built by constructors."""
    f = Prop(f"p{n}")
    for i in reversed(range(n)):
        f = Gd(Prop(f"p{i}"), f)
    return f


def test_partial_resolutions_of_wide_and_deep_formulas():
    # one set per (subformula, degree), not one frontier state per
    # sequence of steps
    wide = pf(" & ".join(f"(a{i} || b{i})" for i in range(10)))
    start = time.perf_counter()
    assert len(partial_resolutions(wide, 10)) == 1024
    assert time.perf_counter() - start < 1
    assert len(partial_resolutions(gd_chain(60), 2)) == 3599


def test_deep_partial_resolutions_answer_or_are_a_resource_limit():
    try:
        out = partial_resolutions(gd_chain(3000), 1)
    except ResourceLimit:
        return
    assert len(out) == 6000


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


def test_resolution_steps_are_stable_and_chain_from_f_to_target():
    rng = random.Random(83)
    for _ in range(150):
        f = gen_formula(rng, rng.randint(0, 4), 3)
        for target in resolutions(f):
            steps = resolution_steps(f, target)
            assert resolution_steps(f, target) == steps
            chain = [f] + [kept for _, _, _, kept in steps]
            assert [before for before, _, _, _ in steps] == chain[:-1]
            assert chain[-1] is target
