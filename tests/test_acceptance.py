"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import random
import time
from itertools import product

import numpy as np
import pytest

from teamseq.calculus import (Derivation, check_derivation, cutrank, height,
                              infer, is_cutfree, make_cut)
from teamseq.errors import (NonClassicalLambda1,
                            NonClassicalRightContraction)
from teamseq.interpolation import interpolate_partition, verify_interpolant
from teamseq.prover import prove_classical, prove_or_countermodel
from teamseq.resolutions import partial_resolutions, resolutions_multiset
from teamseq.semantics import (Team, _Space, big_or, eval_classical,
                               satisfies, sequent_valid)
from teamseq.syntax import (And, Gd, Neg, Or, Prop, Sequent, is_classical,
                            mset, parse_formula, parse_sequent, render)
from teamseq.transforms import (contract, eliminate_cuts, invert, is_normal,
                                normalize, resolve_derivation, weaken)

from conftest import (gen_formula, gen_sequent, gen_side, inject_cut,
                      inversion_candidates)

pf, ps = parse_formula, parse_sequent


def report(number, message):
    print(f"criterion {number}: PASS - {message}")


# ---------------------------------------------------------------------------

def test_criterion_1_golden_countermodel():
    start = time.monotonic()
    out = prove_or_countermodel(ps("p||(p|~p) => p||~p"))
    elapsed = time.monotonic() - start
    assert out == Team(("p",), frozenset({(0,), (1,)}))
    assert elapsed < 1.0
    report(1, f"two-valuation countermodel over p in {elapsed:.3f}s")


def test_criterion_2_golden_validity():
    s = ps("(r&x)|(((p&x)||(q&x))|(y&x)) => (x&(r|(p|y)))||(x&(r|(q|y)))")
    start = time.monotonic()
    d = prove_or_countermodel(s)
    elapsed = time.monotonic() - start
    assert isinstance(d, Derivation)
    assert is_cutfree(d)
    check_derivation(d)
    assert d.conclusion == s
    assert elapsed < 10.0
    report(2, f"cutfree derivation, checked, in {elapsed:.3f}s")


def test_criterion_3_golden_interpolant():
    part = ps("(p||q)|r ; ~p => r|s ; q||x")
    d = prove_or_countermodel(part.flatten())
    assert isinstance(d, Derivation)
    res = interpolate_partition(d, part)
    assert res.interpolant == pf("(p|bot) || (q|bot)")
    assert verify_interpolant(res, part)
    report(3, f"interpolant {render(res.interpolant)} verified")


def test_criterion_4_golden_resolutions():
    f = pf("p||(q||r)")
    assert partial_resolutions(f, 0) == {f}
    assert partial_resolutions(f, 1) == {pf("p"), pf("q||r"), pf("p||q"),
                                         pf("p||r")}
    assert partial_resolutions(f, 2) == {pf("p"), pf("q"), pf("r")}
    ms = resolutions_multiset([pf("p||(q||r)"), pf("s||r")])
    want = {mset([pf(a), pf(b)]) for a, b in
            [("p", "s"), ("p", "r"), ("q", "s"), ("q", "r"),
             ("r", "s"), ("r", "r")]}
    assert len(ms) == 6 and ms == frozenset(want)
    report(4, "partial-resolution tree and 6 multiset resolutions match")


def test_criterion_5_soundness_completeness_suite():
    rng = random.Random(2026)
    start = time.monotonic()
    n_valid = n_invalid = 0
    for _ in range(1000):
        s = gen_sequent(rng, max_formulas=2, depth=4, gd_per_side=2)
        verdict = sequent_valid(s)
        out = prove_or_countermodel(s)
        if isinstance(out, Team):
            assert not verdict, f"prover refuted valid {s}"
            assert all(satisfies(out, f) for f in s.ant), str(s)
            assert not satisfies(out, big_or(s.suc)), str(s)
            n_invalid += 1
        else:
            assert verdict, f"prover proved invalid {s}"
            check_derivation(out)
            assert is_cutfree(out)
            n_valid += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(5, f"1000 sequents ({n_valid} valid, {n_invalid} invalid) agree "
              f"with the oracle in {elapsed:.1f}s")


def test_criterion_6_structural_rules():
    rng = random.Random(2027)
    start = time.monotonic()
    produced = 0
    rejected = 0
    while produced < 300:
        d = prove_or_countermodel(gen_sequent(rng))
        if isinstance(d, Team):
            continue
        produced += 1
        h = height(d)

        f = gen_formula(rng, rng.randint(0, 3), 2)
        side = rng.choice("LR")
        w = weaken(d, side, f)
        check_derivation(w)
        assert height(w) <= h

        g = gen_formula(rng, rng.randint(0, 2), 1)
        dup = weaken(weaken(d, "L", g), "L", g)
        c = contract(dup, "L", g)
        check_derivation(c)
        assert height(c) <= height(dup)
        if is_classical(g):
            dup_r = weaken(weaken(d, "R", g), "R", g)
            c2 = contract(dup_r, "R", g)
            check_derivation(c2)
            assert height(c2) <= height(dup_r)

        # right contraction on a nonclassical duplicate is always rejected
        bad = Gd(g if is_classical(g) else Prop("p"), Neg(Prop("p")))
        dup_bad = weaken(weaken(d, "R", bad), "R", bad)
        with pytest.raises(NonClassicalRightContraction):
            contract(dup_bad, "R", bad)
        rejected += 1

        cands = inversion_candidates(d.conclusion)
        if cands:
            tag, pos, pth = rng.choice(cands)
            out = invert(d, tag, pos, pth)
            outs = [out[0]] if tag == "RGd" else out
            for o in outs:
                check_derivation(o)
                assert height(o) <= h, tag
    elapsed = time.monotonic() - start
    assert rejected == 300
    report(6, f"300 derivations transformed within height bounds; all "
              f"{rejected} nonclassical right contractions rejected "
              f"({elapsed:.1f}s)")


def test_criterion_7_normal_form_suite():
    rng = random.Random(2028)
    start = time.monotonic()
    done = 0
    while done < 200:
        d = prove_or_countermodel(gen_sequent(rng))
        if isinstance(d, Team):
            continue
        done += 1
        n = normalize(d)
        check_derivation(n)
        assert is_normal(n)
        assert n.conclusion == d.conclusion

    # the worked example reproduces the expected classical resolution pair
    por = pf("p || r")
    d1 = prove_classical(ps("x, ~x | (~q | p), q => p"))
    d2 = prove_classical(ps("x, ~x | (~q | r), q => r"))
    lgd = infer("LGd", (infer("RGd", (d1,), por, (), "L"),
                        infer("RGd", (d2,), por, (), "R")),
                pf("~x | (~q | (p || r))"), (1, 1))
    worked = infer("LAnd", (infer("ROr", (infer("RNeg", (lgd,), pf("~q")),),
                                  pf("(p || r) | ~q")),),
                   pf("x & (~x | (~q | (p || r)))"))
    check_derivation(worked)
    n = normalize(worked)
    assert is_normal(n) and n.conclusion == worked.conclusion
    res = resolve_derivation(n)
    assert {xi: res.mapping[xi] for xi in res.branches} == {
        (pf("x & (~x | (~q | p))"),): (pf("p | ~q"),),
        (pf("x & (~x | (~q | r))"),): (pf("r | ~q"),),
    }
    elapsed = time.monotonic() - start
    report(7, f"200 normalized derivations phase-ordered; worked example "
              f"splits into the expected classical pair ({elapsed:.1f}s)")


def test_criterion_8_cut_elimination_suite():
    rng = random.Random(2029)
    start = time.monotonic()

    # the worked cut
    d1 = prove_or_countermodel(ps("a | (p||q) => p||q, a"))
    d2 = prove_or_countermodel(ps("b, p||q => (b&p) || (b&q)"))
    c = make_cut(d1, d2, pf("p||q"))
    e = eliminate_cuts(c)
    check_derivation(e)
    assert is_cutfree(e) and cutrank(e) == 0
    assert e.conclusion == c.conclusion
    assert sequent_valid(e.conclusion)

    done = 0
    while done < 199:
        d = prove_or_countermodel(gen_sequent(rng))
        if isinstance(d, Team) or not d.conclusion.suc:
            continue
        done += 1
        phi = rng.choice(d.conclusion.suc)
        cut = inject_cut(d, phi)
        assert cutrank(cut) > 0
        e = eliminate_cuts(cut)
        check_derivation(e)
        assert is_cutfree(e) and cutrank(e) == 0
        assert e.conclusion == d.conclusion
        assert sequent_valid(e.conclusion)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(8, f"200 cuts (incl. the worked one) eliminated, endsequents "
              f"preserved and oracle-valid ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 9: the impossible partition, and an exhaustive search confirming
# that no formula of depth <= 3 over p,q,r interpolates it

_SPACE = _Space(("p", "q", "r"))
_NT = _SPACE.nteams


def _sig(f):
    s = _SPACE.sat_set(f)
    return np.array([(s >> t) & 1 for t in range(_NT)], dtype=bool)


def _zeta(rows):
    out = rows.astype(np.int64)
    idx = np.arange(_NT)
    for i in range(_SPACE.nvals):
        bit = 1 << i
        hi = idx[(idx & bit) != 0]
        out[..., hi] += out[..., hi ^ bit]
    return out


def _moebius(rows):
    out = rows.copy()
    idx = np.arange(_NT)
    for i in range(_SPACE.nvals):
        bit = 1 << i
        hi = idx[(idx & bit) != 0]
        out[..., hi] -= out[..., hi ^ bit]
    return out


def _or_rows(zrow, zrows):
    """Split-disjunction signatures of one row against many."""
    return _moebius(zrow[None, :] * zrows) > 0


def _neg_sig(s):
    bad = 0
    for v in range(_SPACE.nvals):
        if s[1 << v]:
            bad |= 1 << v
    m = _SPACE._avoiding(bad)
    return np.array([(m >> t) & 1 for t in range(_NT)], dtype=bool)


def _signatures_to_depth(limit: int):
    """All team-satisfaction signatures of formulas over p,q,r up to the
    given connective depth, with a flag marking signatures attainable by a
    classical formula (negation applies to those only)."""
    def key(s):
        return np.packbits(s).tobytes()

    level = {}
    for name in ("p", "q", "r", "bot"):
        s = _sig(pf(name))
        level[key(s)] = (s, True)
    for _ in range(limit):
        items = list(level.values())
        sigs = np.array([s for s, _ in items])
        zs = _zeta(sigs)
        nxt = dict(level)

        def add(s, classical):
            k = key(s)
            if k in nxt:
                old_s, old_c = nxt[k]
                nxt[k] = (old_s, old_c or classical)
            else:
                nxt[k] = (s, classical)

        for i, (s1, c1) in enumerate(items):
            if c1:
                add(_neg_sig(s1), True)
            ors = _or_rows(zs[i], zs)
            for j, (s2, c2) in enumerate(items):
                add(s1 & s2, c1 and c2)
                add(s1 | s2, False)
                add(ors[j], c1 and c2)
        level = nxt
    return level


def test_criterion_9_impossibility():
    start = time.monotonic()
    part = ps("p||~p ; q||~q => (p||~p)&(q||~q)&r ; (p||~p)&(q||~q)&~r")
    seq = part.flatten()
    assert sequent_valid(seq)
    d = prove_or_countermodel(seq)
    assert isinstance(d, Derivation)
    with pytest.raises(NonClassicalLambda1):
        interpolate_partition(d, part)

    # brute force: no candidate of depth <= 3 satisfies even the two
    # derivability conditions of a sequent interpolant
    sig_p = _sig(pf("p||~p"))
    sig_q = _sig(pf("q||~q"))
    sig_ta = _sig(pf("(p||~p)&(q||~q)&r"))
    sig_tb = _sig(pf("(p||~p)&(q||~q)&~r"))
    z_ta = _zeta(sig_ta)

    level = _signatures_to_depth(3)
    sigs = np.array([s for s, _ in level.values()])
    # right flank: teams satisfying q||~q and the candidate must satisfy
    # the target
    right_ok = ~np.any(sigs & sig_q & ~sig_tb, axis=1)
    survivors = sigs[right_ok]
    found = 0
    for s in survivors:
        # left flank: every team satisfying p||~p splits into the target
        # and the candidate
        cover = _or_rows(z_ta, _zeta(s[None, :]))[0]
        if not np.any(sig_p & ~cover):
            found += 1
    assert found == 0
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(9, f"partition rejected; {len(level)} candidate signatures "
              f"(depth <= 3, {len(survivors)} passing the right flank) "
              f"admit no interpolant ({elapsed:.1f}s)")


def _truth_table_valid(s: Sequent) -> bool:
    vs = sorted(s.props())
    for bits in product((0, 1), repeat=len(vs)):
        v = dict(zip(vs, bits))
        if all(eval_classical(f, v) for f in s.ant) and \
                not any(eval_classical(f, v) for f in s.suc):
            return False
    return True


def test_criterion_10_classical_agreement():
    start = time.monotonic()
    # exhaustive over two variables: one representative formula per truth
    # table, all 16 reachable within depth 3, paired in all combinations
    # (every semantic case of a two-variable classical sequent appears)
    def table(f):
        return tuple(eval_classical(f, {"p": a, "q": b})
                     for a in (0, 1) for b in (0, 1))

    reps: dict[tuple, object] = {}
    for f in (pf("p"), pf("q"), pf("bot")):
        reps.setdefault(table(f), f)
    for _depth in range(3):
        for f in list(reps.values()):
            for h in [Neg(f)] + [op(f, g) for g in list(reps.values())
                                 for op in (And, Or)]:
                reps.setdefault(table(h), h)
    assert len(reps) == 16
    checked = 0
    for f in reps.values():
        for g in reps.values():
            for s in (Sequent((f,), (g,)), Sequent((f, g), ()),
                      Sequent((), (f, g))):
                out = prove_classical(s)
                want = _truth_table_valid(s)
                assert isinstance(out, Derivation) == want, str(s)
                if isinstance(out, Derivation):
                    check_derivation(out)
                checked += 1

    # and 1000 random three-variable instances
    rng = random.Random(2030)
    for _ in range(1000):
        s = Sequent(gen_side(rng, 2, 3, 0), gen_side(rng, 2, 3, 0))
        out = prove_classical(s)
        assert isinstance(out, Derivation) == _truth_table_valid(s), str(s)
    elapsed = time.monotonic() - start
    report(10, f"{checked} exhaustive two-variable sequents and 1000 random "
               f"three-variable sequents agree with truth tables "
               f"({elapsed:.1f}s)")
