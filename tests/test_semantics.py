import random
import time
import tracemalloc
from functools import partial, reduce
from itertools import combinations
from operator import and_, or_

import pytest

from teamseq import semantics
from teamseq.cli import run
from teamseq.errors import (DomainMismatch, ParseError, ResourceLimit,
                            TeamSeqError)
from teamseq.semantics import (ClosureReport, Team, _bad_teams, _row_masks,
                               _without, _Space, big_or, closure_properties,
                               eval_classical, find_countermodel_bruteforce,
                               satisfies, sequent_valid, team_from_json,
                               team_to_json)
from teamseq.syntax import (And, BOT, Bot, Gd, Neg, Or, Prop, Sequent,
                            gd_paths, is_classical, parse_formula,
                            parse_sequent, props, render, subformula_at,
                            substitute_at)

from conftest import gen_classical, gen_formula, gen_sequent

pf, ps = parse_formula, parse_sequent


def team(domain, *rows):
    return Team(tuple(domain), frozenset(tuple(r) for r in rows))


def all_teams(domain):
    n = len(domain)
    vals = [tuple((i >> (n - 1 - k)) & 1 for k in range(n))
            for i in range(1 << n)]
    for size in range(len(vals) + 1):
        for combo in combinations(vals, size):
            yield Team(tuple(domain), frozenset(combo))


def test_satisfaction_golden():
    f = pf("p || ~p")
    assert not satisfies(team("p", (1,), (0,)), f)
    assert satisfies(team("p", (1,)), f)
    assert satisfies(team("p"), f)  # empty team
    # split disjunction needs a genuine cover
    g = pf("p | ~p")
    assert satisfies(team("p", (1,), (0,)), g)


def test_empty_team_property_random():
    rng = random.Random(23)
    for _ in range(200):
        f = gen_formula(rng, rng.randint(0, 4), 2)
        dom = tuple(sorted({"p", "q", "r"}))
        assert satisfies(Team(dom, frozenset()), f)


def test_downward_closure_exhaustive():
    rng = random.Random(29)
    for _ in range(40):
        f = gen_formula(rng, rng.randint(0, 3), 2, vars=("p", "q"))
        for t in all_teams(("p", "q")):
            if satisfies(t, f):
                for k in range(len(t.members)):
                    for sub in combinations(t.members, k):
                        assert satisfies(Team(t.domain, frozenset(sub)), f)


def test_flatness_of_classical():
    rng = random.Random(31)
    for _ in range(40):
        f = gen_formula(rng, rng.randint(0, 3), 0, vars=("p", "q"))
        assert is_classical(f)
        for t in all_teams(("p", "q")):
            point = all(satisfies(Team(t.domain, frozenset({v})), f)
                        for v in t.members)
            assert satisfies(t, f) == point
            # singleton satisfaction matches single-valuation truth
            for v in t.members:
                assert (satisfies(Team(t.domain, frozenset({v})), f)
                        == eval_classical(f, dict(zip(t.domain, v))))


def test_global_disjunction_distribution():
    # replacing a global disjunction occurrence by either disjunct covers
    # exactly the satisfying teams of the original
    rng = random.Random(37)
    checked = 0
    while checked < 40:
        f = gen_formula(rng, rng.randint(1, 4), 2, vars=("p", "q"))
        paths = gd_paths(f)
        if not paths:
            continue
        checked += 1
        path = rng.choice(paths)
        node = subformula_at(f, path)
        fl = substitute_at(f, path, node.left)
        fr = substitute_at(f, path, node.right)
        for t in all_teams(("p", "q")):
            assert satisfies(t, f) == (satisfies(t, fl) or satisfies(t, fr))


def test_domain_mismatch():
    with pytest.raises(DomainMismatch):
        satisfies(team("p", (1,)), pf("q"))


def test_satisfies_deep_chains():
    # 984 is the deepest ~ chain the parser reads from a shallow stack; ~
    # is read in a loop on one-valuation teams, so it is answered
    p = Prop("p")
    f = p
    for depth in range(1, 985):
        f = Neg(f)
        if depth in (400, 984):
            assert satisfies(team("p", (1,)), f) == (depth % 2 == 0)
            assert satisfies(team("p", (0,)), f) == (depth % 2 == 1)
            assert not satisfies(team("p", (1,), (0,)), f)
            assert satisfies(team("p"), f)
    # a split-disjunction chain nests the cover search; too deep for it is
    # a resource limit, not a RecursionError
    f = p
    for _ in range(980):
        f = Or(Neg(p), f)
    with pytest.raises(ResourceLimit, match="nesting too deep"):
        satisfies(team("p", (1,), (0,)), f)


def test_sequent_valid_golden():
    assert sequent_valid(ps("(p||~p)|(p||~p) => p||~p, p||~p"))
    assert not sequent_valid(ps("(p||~p)|(p||~p) => p||~p"))
    assert not sequent_valid(ps("p | ~p => p || ~p"))
    assert sequent_valid(ps("p => p"))
    # empty succedent reads as bot
    assert sequent_valid(ps("bot =>"))
    assert not sequent_valid(ps("=>"))


def test_sequent_valid_long_flat_succedent():
    # the succedent's satisfaction sets are folded, not nested in a formula
    p = Prop("p")
    assert not sequent_valid(Sequent((), (p,) * 1000))
    assert sequent_valid(Sequent((p,), (p,) * 1000))


@pytest.mark.parametrize("entry", [
    sequent_valid, find_countermodel_bruteforce,
    lambda s: closure_properties(s.suc[0], ("q",))])
def test_sweeps_on_deep_formula_are_a_resource_limit(entry):
    # a constructor-built `q | (q | …)` chain 3000 deep; its text and
    # variables are cached level by level as it is built, so only the
    # satisfaction-set sweep meets the whole depth
    q = Prop("q")
    f = q
    for _ in range(3000):
        f = Or(q, f)
        render(f)
        props(f)
    with pytest.raises(ResourceLimit, match="nesting too deep"):
        entry(Sequent((), (f,)))


def test_budget():
    with pytest.raises(ResourceLimit):
        sequent_valid(ps("a & b & c & d & e => a"))
    # four variables is the default cap and stays feasible
    assert sequent_valid(ps("a & b & c & d => a & b"))


def loop_or_set(space, sl, sr):
    """Reference cover transform: the zeta/Moebius count one team at a
    time, as plain Python loops over the subset lattice."""
    n_t = space.nteams
    a = [(sl >> t) & 1 for t in range(n_t)]
    b = [(sr >> t) & 1 for t in range(n_t)]
    for i in range(space.nvals):
        bit = 1 << i
        for t in range(n_t):
            if t & bit:
                a[t] += a[t ^ bit]
                b[t] += b[t ^ bit]
    p = [x * y for x, y in zip(a, b)]
    for i in range(space.nvals):
        bit = 1 << i
        for t in range(n_t):
            if t & bit:
                p[t] -= p[t ^ bit]
    out = 0
    for t in range(n_t):
        if p[t]:
            out |= 1 << t
    return out


class ClauseWalk:
    """Reference single-team satisfaction: the defining clauses read on one
    team at a time, memoized, the clause of `|` searching every cover of
    the team.  A team is a mask over the valuation indices of `domain`,
    first variable most significant."""

    def __init__(self, domain):
        self.n = len(domain)
        self.domain = tuple(domain)
        self.memo = {}

    def members(self, mask):
        return [v for v in range(mask.bit_length()) if (mask >> v) & 1]

    def sat(self, mask, f):
        key = (f, mask)
        if key not in self.memo:
            self.memo[key] = self.clause(mask, f)
        return self.memo[key]

    def clause(self, mask, f):
        match f:
            case Prop(name):
                bit = self.n - 1 - self.domain.index(name)
                return all((v >> bit) & 1 for v in self.members(mask))
            case Bot():
                return mask == 0
            case Neg(c):
                # a run of ~ on a one-valuation team is plain negation
                flip = True
                while isinstance(c, Neg):
                    c, flip = c.child, not flip
                return all(self.sat(1 << v, c) != flip
                           for v in self.members(mask))
            case And(l, r):
                return self.sat(mask, l) and self.sat(mask, r)
            case Gd(l, r):
                return self.sat(mask, l) or self.sat(mask, r)
            case Or(l, r):
                # all covers mask = s | u: s over the submasks of mask, then
                # u over the supersets of mask \ s inside mask
                s = mask
                while True:
                    if self.sat(s, l):
                        w = s
                        while True:
                            if self.sat(mask & ~s | w, r):
                                return True
                            if w == 0:
                                break
                            w = (w - 1) & s
                    if s == 0:
                        return False
                    s = (s - 1) & mask


@pytest.mark.parametrize("n", range(5))
def test_or_set_matches_loop_reference(n):
    space = _Space(("a", "b", "c", "d")[:n])
    full = (1 << space.nteams) - 1
    top = 1 << (space.nteams - 1)  # the team of all valuations
    if n < 4:
        edge = [0, 1, full, 2, top]  # none, {empty team}, all, one team
        cases = [(x, y) for x in edge for y in edge]
    else:  # the reference takes about half a second per call here
        cases = [(0, full), (1, full), (full, full), (2, top)]
    rng = random.Random(53 + n)
    for density in (0.01, 0.1, 0.5, 0.9):
        for _ in range(1 if n == 4 else 12):
            x, y = (sum(1 << t for t in range(space.nteams)
                        if rng.random() < density) for _ in range(2))
            cases.append((x, y))
    for x, y in cases:
        assert space._or_set(x, y) == loop_or_set(space, x, y), (n, x, y)


def down_closure(space, sat):
    """The set of all subteams of members of `sat`."""
    return reduce(or_, (space._avoiding(~t) for t in range(space.nteams)
                        if (sat >> t) & 1), 0)


def test_or_set_matches_loop_reference_on_random_and_formula_sets():
    # arbitrary and downward-closed sets, with edge sets on either side
    rng = random.Random(71)
    for n in range(4):
        space = _Space(("a", "b", "c")[:n])
        assert _without(space.nvals) == [space._avoiding(1 << v)
                                         for v in range(space.nvals)]
        full = (1 << space.nteams) - 1
        for _ in range(150):
            x, y = (sum(1 << t for t in range(space.nteams)
                        if rng.random() < rng.choice((0.05, 0.3, 0.7)))
                    for _ in range(2))
            if rng.random() < 0.5:
                x = down_closure(space, x)
            if rng.random() < 0.5:
                y = down_closure(space, y)
            for a, b in ((x, y), (x, 0), (x, 1), (x, full)):
                want = loop_or_set(space, a, b)
                assert space._or_set(a, b) == want, (n, a, b)
                assert space._or_set(b, a) == want, (n, b, a)
    # satisfaction sets of seeded formulas at the four-variable cap; the
    # reference takes about half a second per call here
    space = _Space(("p", "q", "r", "s"))
    for _ in range(3):
        f, g = (gen_formula(rng, rng.randint(1, 4), 2,
                            vars=("p", "q", "r", "s")) for _ in range(2))
        x, y = space.sat_set(f), space.sat_set(g)
        assert space._or_set(x, y) == loop_or_set(space, x, y), (f, g)


def test_or_set_at_four_variables():
    space = _Space(("a", "b", "c", "d"))
    # all teams of at most four valuations: 1820 maximal teams a side
    quads = [sum(1 << v for v in c) for c in combinations(range(16), 4)]
    big = down_closure(space, sum(1 << t for t in quads))
    up_to_8 = sum(1 << t for t in range(space.nteams) if t.bit_count() <= 8)
    assert space._or_set(big, big) == up_to_8
    assert space._or_set(big, 0) == 0 and space._or_set(1, big) == big
    assert space._or_set(2, 4) == 1 << 3  # {{v0}} and {{v1}}: {{v0, v1}}
    # sides that are not downward closed, against the clause of the split
    # disjunction on every team of at most three valuations, with the
    # verdicts of its two sides read from the sets
    small = [t for t in range(space.nteams) if t.bit_count() <= 3]
    a, b = Prop("a"), Prop("b")

    class GivenSides(ClauseWalk):
        def sat(self, mask, f):
            if f in sides:
                return bool((sides[f] >> mask) & 1)
            return super().sat(mask, f)

    rng = random.Random(73)
    for _ in range(4):
        x, y = (sum(1 << t for t in range(1, space.nteams)
                    if rng.random() < (0.3 if t.bit_count() <= 3 else 0.005))
                for _ in range(2))
        assert space._maximal(x) is None and space._maximal(y) is None
        sides = {a: x, b: y}
        walk = GivenSides(space.domain)
        image = space._or_set(x, y)
        assert all(((image >> t) & 1) == walk.sat(t, Or(a, b))
                   for t in small), (x, y)


def test_or_set_refuses_beyond_four_variables():
    # the check comes before any set over all teams is built
    with pytest.raises(ResourceLimit):
        _Space(tuple("abcde"))._or_set(1, 1)


def test_sat_set_is_the_set_of_satisfying_teams():
    # every team checked one by one against the defining clauses, with
    # `~` over classical formulas that hold `|`
    rng = random.Random(79)
    for n in range(4):
        domain = ("p", "q", "r")[:n]
        space, walk = _Space(domain), ClauseWalk(domain)
        vs = domain or ("p",)
        for _ in range(60 if n < 3 else 30):
            f = gen_formula(rng, rng.randint(0, 4), 2, vars=vs)
            if rng.random() < 0.4:
                f = Neg(gen_classical(rng, rng.randint(1, 4), vs))
            if not props(f) <= set(domain):
                continue
            want = sum(1 << t for t in range(space.nteams)
                       if walk.sat(t, f))
            assert space.sat_set(f) == want, render(f)
    for text in ("~(p | q)", "~(p | ~p)", "~(bot | p)", "~~(p & q | r)"):
        f = pf(text)
        space, walk = _Space(("p", "q", "r")), ClauseWalk(("p", "q", "r"))
        assert space.sat_set(f) == sum(1 << t for t in range(space.nteams)
                                       if walk.sat(t, f)), text


def test_team_constants_per_arity():
    # the sets each space used to build for itself
    for n in range(5):
        space = _Space(("a", "b", "c", "d")[:n])
        without = [(1 << (space.nteams >> 1)) - 1]
        for v in reversed(range(space.nvals - 1)):
            without.append(without[-1] ^ without[-1] << (1 << v))
        k = space.nvals
        assert _without(k) == without[::-1]
        assert _without(k) is _without(k)


def test_negation_reads_one_valuation_teams(monkeypatch):
    calls = []
    or_set = _Space._or_set

    def counted(self, sl, sr):
        calls.append((sl, sr))
        return or_set(self, sl, sr)

    monkeypatch.setattr(_Space, "_or_set", counted)
    domain = ("p", "q", "r", "s")
    space, walk = _Space(domain), ClauseWalk(domain)
    for text in ("~(p | q)", "~(p & q | r & ~s)"):
        f = pf(text)
        assert space.sat_set(f) == sum(1 << t for t in range(space.nteams)
                                       if walk.sat(t, f)), text
    assert calls == []
    space.sat_set(pf("p | q"))
    assert len(calls) == 1  # the count sees a cover transform


def test_team_sets_beyond_the_cap_are_refused_before_allocation():
    space = _Space(tuple("abcde"))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit):
            space.sat_set(Prop("a"))
        with pytest.raises(ResourceLimit):
            _without(space.nvals)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a set over all teams of five variables is 2^32 bits, 512 MB
    assert peak < 100_000


def test_single_team_beyond_the_cap():
    # six variables: the set of all teams would be a 2^64-bit mask, but one
    # team's satisfaction never builds it.  Satisfaction is local, so the
    # team restricted to the formula's variables gives the same verdict.
    domain = tuple("abcdef")
    rng = random.Random(59)
    members = frozenset({(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0),
                         (1, 1, 1, 1, 0, 1)})
    big = Team(domain, members)
    small = Team(("a", "b"), frozenset(v[:2] for v in members))
    assert not satisfies(big, pf("a || b"))
    assert satisfies(big, pf("(a || b) | ~f"))  # {100000, 111101} + {010000}
    for _ in range(40):
        f = gen_formula(rng, rng.randint(0, 3), 2, vars=("a", "b"))
        assert satisfies(big, f) == satisfies(small, f)


def test_satisfies_matches_the_clause_walk():
    # seeded teams of up to 8 rows over 0-5 variables, full teams among
    # them, against the reference clause walk; each team is also read in
    # a row space of its rows in shuffled order, and up to four variables
    # its bit in the set over all teams is compared too
    rng = random.Random(97)
    for n in range(6):
        domain = ("p", "q", "r", "s", "t")[:n]
        walk, space = ClauseWalk(domain), _Space(domain) if n <= 4 else None
        for _ in range(100):
            if n:
                f = gen_formula(rng, rng.randint(0, 4), 2, vars=domain)
                if rng.random() < 0.3:
                    f = Neg(gen_classical(rng, rng.randint(1, 4), domain))
            else:
                f = rng.choice(BOT_FORMULAS)
            if n <= 3 and rng.random() < 0.25:
                rows = list(range(1 << n))
            else:
                rows = rng.sample(range(1 << n),
                                  rng.randint(0, min(8, 1 << n)))
            mask = sum(1 << v for v in rows)
            want = walk.sat(mask, f)
            members = [tuple((v >> (n - 1 - i)) & 1 for i in range(n))
                       for v in rows]
            assert satisfies(Team(domain, members), f) == want, (f, rows)
            rng.shuffle(rows)
            assert _Space(domain, rows).sat_all(f) == want, (f, rows)
            if space is not None:
                assert ((space.sat_set(f) >> mask) & 1) == want, (f, rows)


def test_countermodel_golden():
    cm = find_countermodel_bruteforce(ps("p||(p|~p) => p||~p"))
    assert cm == team("p", (1,), (0,))
    assert find_countermodel_bruteforce(ps("p => p")) is None
    # over the empty domain the countermodel is the team holding the
    # empty valuation
    cm0 = find_countermodel_bruteforce(ps("=> bot"))
    assert cm0 == Team((), frozenset({()}))


def test_countermodel_order_smallest_first():
    cm = find_countermodel_bruteforce(ps("p => q"))
    assert cm == Team(("p", "q"), frozenset({(1, 0)}))


def test_countermodel_agrees_with_validity():
    rng = random.Random(41)
    for _ in range(150):
        s = gen_sequent(rng)
        cm = find_countermodel_bruteforce(s)
        assert (cm is None) == sequent_valid(s)
        if cm is not None:
            assert all(satisfies(cm, f) for f in s.ant)
            assert not satisfies(cm, big_or(s.suc))
            # the first bad team in (size, membership) order
            first = next(t for t in all_teams(cm.domain)
                         if all(satisfies(t, f) for f in s.ant)
                         and not satisfies(t, big_or(s.suc)))
            assert cm == first, str(s)


def narrow(space, sub, teams):
    """The set `teams` of team masks of the all-valuations `space`, each
    over the rows of `sub`, as team masks of `sub`."""
    if sub.nvals == space.nvals:
        return teams
    out = [sub.positions(t) for t in space._members(teams)]
    assert [t.bit_count() for t in out] == \
        [t.bit_count() for t in space._members(teams)], "a row outside sub"
    return sum(1 << t for t in out)


def reference_goal(space, suc):
    """The teams satisfying the split disjunction of `suc`: the fold of
    its formulas' satisfaction sets by the loop reference cover image;
    an empty `suc` is `bot`, satisfied by the empty team alone."""
    if not suc:
        return 1
    return reduce(partial(loop_or_set, space), map(space.sat_set, suc))


def first_in_order(domain, teams):
    """The first team of the set `teams` in (size, membership) order."""
    space = _Space(domain)
    members = {space.team(t) for t in space._members(teams)}
    return next((t for t in all_teams(domain) if t in members), None)


BOT_FORMULAS = (BOT, Neg(BOT), Or(BOT, Neg(BOT)), Gd(BOT, Neg(BOT)),
                And(Neg(BOT), Or(Neg(BOT), Neg(BOT))))


def test_bad_teams_matches_the_cover_image_reference(monkeypatch):
    # the succedent fold of `_bad_teams` against `hyp & ~goal`, the goal
    # folded from the succedent's sets by the loop reference over all
    # teams, with the antecedent set given directly in the space of its
    # row union U: none, the empty team alone, one team, arbitrary sets
    # (not downward closed), all teams; succedents of none to three
    # formulas.  Every cover image is built over the 2^|U| teams of U.
    rng = random.Random(83)
    widths = []
    or_set = _Space._or_set

    def counted(self, sl, sr):
        widths.append(self.nvals)
        return or_set(self, sl, sr)

    monkeypatch.setattr(_Space, "_or_set", counted)
    for n in range(5):
        domain = ("a", "b", "c", "d")[:n]
        nteams = 1 << (1 << n)
        hyps = [0, 1, 1 << (nteams - 1), 1 << (nteams // 3),
                (1 << nteams) - 1]
        for density in (0.02, 0.3, 0.8):
            hyps.append(sum(1 << t for t in range(nteams)
                            if rng.random() < density))
        if n == 4:  # sets of a few teams of at most two valuations
            small = [t for t in range(nteams) if t.bit_count() <= 2]
            hyps += [sum(1 << t for t in rng.sample(small, 8))
                     for _ in range(4)]
        succedents = [(), (BOT,), (Neg(BOT), BOT)]
        for _ in range(3 if n == 4 else 8):
            succedents.append(tuple(
                rng.choice(BOT_FORMULAS) if not n
                else gen_formula(rng, rng.randint(0, 3), 2, vars=domain)
                for _ in range(rng.randint(1, 2 if n == 4 else 3))))
        for suc in succedents:
            goal = reference_goal(_Space(domain), suc)
            for hyp in hyps:
                space = _Space(domain)
                rows = reduce(or_, space._members(hyp), 0)
                sub = space.team_space(rows)
                monkeypatch.setattr(semantics, "_hypothesis", lambda *_: (
                    sub, narrow(space, sub, hyp)))
                widths.clear()
                got_space, got = _bad_teams(space, Sequent((), suc))
                assert got_space is sub
                assert got == narrow(space, sub, hyp & ~goal), (n, suc, hyp)
                assert widths.count(rows.bit_count()) == len(widths) \
                    >= len(suc) - 1


def test_countermodels_match_the_cover_image_reference():
    # random sequents over 0-4 variables, empty sides included, against
    # the first team of `hyp & ~goal` in (size, membership) order
    rng = random.Random(89)
    seen_empty = {"ant": False, "suc": False}
    for n in range(5):
        domain = ("a", "b", "c", "d")[:n]
        done = 0
        while done < (4 if n == 4 else 25):
            sides = [tuple(
                rng.choice(BOT_FORMULAS) if not n
                else gen_formula(rng, rng.randint(0, 3), 1, vars=domain)
                for _ in range(rng.randint(0, 2))) for _ in range(2)]
            s = Sequent(*sides)
            if s.props() != set(domain):
                continue
            done += 1
            seen_empty["ant"] |= not s.ant
            seen_empty["suc"] |= not s.suc
            space = _Space(domain)
            hyp = reduce(lambda x, y: x & y, map(space.sat_set, s.ant),
                         (1 << space.nteams) - 1)
            bad = hyp & ~reference_goal(space, s.suc)
            sub, got = _bad_teams(_Space(domain), s)
            assert got == narrow(space, sub, bad), str(s)
            assert find_countermodel_bruteforce(s) == \
                first_in_order(domain, bad), str(s)
            assert sequent_valid(s) == (bad == 0)
    assert all(seen_empty.values())


SMALL_HYPOTHESIS = pf("a & b & c & d")  # the empty team and {1111}


def test_long_succedent_under_a_small_antecedent():
    # four variables, an antecedent of two teams over one row U: the
    # 1000 formulas are folded over U's teams one by one, none nesting
    a = Prop("a")
    for suc, valid in (((a,) * 1000, True), ((Neg(a),) * 1000, False)):
        s = Sequent((SMALL_HYPOTHESIS,), suc)
        assert sequent_valid(s) == valid
        cm = find_countermodel_bruteforce(s)
        assert cm == (None if valid else team("abcd", (1, 1, 1, 1)))


@pytest.mark.parametrize("entry", [sequent_valid,
                                   find_countermodel_bruteforce])
def test_deep_succedent_under_a_small_antecedent_is_a_resource_limit(entry):
    # a 3000-deep `a | (a | …)` chain read over the one row of U still
    # meets its whole depth in the clauses of `sat_set`
    a = Prop("a")
    f = a
    for _ in range(3000):
        f = Or(a, f)
        render(f)
        props(f)
    with pytest.raises(ResourceLimit, match="nesting too deep"):
        entry(Sequent((SMALL_HYPOTHESIS,), (f,)))


def test_small_antecedent_builds_no_cover_image(monkeypatch):
    calls = []
    or_set = _Space._or_set

    def counted(self, sl, sr):
        # only cover images over all teams of the four variables
        if self.nvals == 16:
            calls.append((sl, sr))
        return or_set(self, sl, sr)

    monkeypatch.setattr(_Space, "_or_set", counted)
    for text, valid in (("a & b & c & d => a | b, c", True),
                        ("a & b & c & d => ~a | ~b, ~c", False)):
        assert sequent_valid(ps(text)) == valid, text
    assert calls == []
    # with no antecedent every team is read, by cover images
    assert not sequent_valid(ps("=> a | b, c || d"))
    assert len(calls) >= 1


def test_row_masks_match_the_antecedent_sets():
    # the subteam sets of the masks together are the antecedent's set over
    # all teams, bit for bit, on seeded formulas over 0-4 variables
    rng = random.Random(97)
    seen = set()
    for n in range(5):
        domain = ("a", "b", "c", "d")[:n]
        space = _Space(domain)
        for _ in range(15 if n == 4 else 60):
            ant = tuple(
                rng.choice(BOT_FORMULAS) if not n
                else gen_formula(rng, rng.randint(0, 4), 2, vars=domain)
                for _ in range(rng.randint(0, 3)))
            masks = _row_masks(space, ant)
            want = reduce(and_, map(space.sat_set, ant),
                          (1 << space.nteams) - 1)
            assert reduce(or_, (space._avoiding(~m) for m in masks)) \
                == want, ant
            text = " ".join(map(render, ant))
            seen |= {op for op in ("||", "|", "~", "bot") if op in text}
            seen |= {"empty"} if not ant else set()
    assert seen == {"||", "|", "~", "bot", "empty"}


def blow_up_sequents():
    """(a) the 28 `l || l'` over pairs of the 8 literals of four
    variables, conjoined; (b) a `||`-chain of 30 `|`s of three literals
    of three variables; (c) a `|` of two `||`-chains of `&`-pairs."""
    lits = [lit for v in "pqrs" for lit in (Prop(v), Neg(Prop(v)))]
    pairs = list(combinations(lits, 2))
    p, q, r, s = map(Prop, "pqrs")
    a = Sequent((reduce(And, [Gd(x, y) for x, y in pairs]),), (BOT,))
    triples = [t for t in combinations(lits, 3)
               if len({render(x).strip("~") for x in t}) == 3][:30]
    b = Sequent((reduce(Gd, [Or(Or(x, y), z) for x, y, z in triples]),),
                (Or(Or(Or(p, q), r), s),))
    c = Sequent((Or(reduce(Gd, [And(x, y) for x, y in pairs]),
                    reduce(Gd, [And(y, x) for x, y in reversed(pairs)])),),
                (Gd(p, q),))
    return a, b, c


def test_antecedent_mask_blow_up():
    # products of masks are capped: (a) and (b) are read as masks, (c)
    # goes past the cap to the sets over all teams; each gives the
    # verdict and countermodel of those sets, within 50 ms
    domain = ("p", "q", "r", "s")
    readings = []
    for s in blow_up_sequents():
        space = _Space(domain)
        readings.append(_row_masks(space, s.ant) is not None)
        bad = reduce(and_, map(space.sat_set, s.ant)) \
            & ~reference_goal(space, s.suc)
        best = 1.0
        for _ in range(3):
            start = time.perf_counter()
            valid, cm = sequent_valid(s), find_countermodel_bruteforce(s)
            best = min(best, time.perf_counter() - start)
        assert valid == (bad == 0), str(s)
        assert cm == (first_in_order(domain, bad) if bad else None), str(s)
        assert best < 0.05, (str(s), best)
    assert readings == [True, True, False]


@pytest.mark.parametrize("op", [And, Or, Gd])
def test_deep_antecedent_answers(op):
    # the masks are read on an explicit stack, so a 3000-deep chain in
    # the antecedent answers; only a deep succedent meets the recursion
    a = Prop("a")
    f = a
    for _ in range(3000):
        f = op(a, f)
        render(f)
        props(f)
    assert sequent_valid(Sequent((f,), (a,)))
    assert find_countermodel_bruteforce(Sequent((f,), (Neg(a),))) == \
        team("a", (1,))


def test_closure_properties_golden():
    rep = closure_properties(pf("p || ~p"), ("p",))
    assert (rep.empty_team, rep.downward_closed, rep.union_closed, rep.flat) \
        == (True, True, False, False)
    rep = closure_properties(pf("bot"), ())
    assert rep.flat
    rng = random.Random(43)
    for _ in range(25):
        f = gen_formula(rng, rng.randint(0, 3), 0)
        rep = closure_properties(f, ("p", "q", "r"))
        assert rep.flat and rep.empty_team and rep.downward_closed \
            and rep.union_closed


def test_closure_properties_random_nonclassical():
    rng = random.Random(47)
    for _ in range(25):
        f = gen_formula(rng, rng.randint(0, 3), 2, vars=("p", "q"))
        rep = closure_properties(f, ("p", "q"))
        assert rep.empty_team and rep.downward_closed
        assert rep.flat == (rep.empty_team and rep.downward_closed
                            and rep.union_closed)


def closure_reference(sat, domain):
    """The four closure properties of the set `sat` of teams (member sets)
    over `domain`, by their definitions, one team or pair at a time."""
    teams = [t.members for t in all_teams(domain)]
    downward = all(frozenset(sub) in sat for m in sat
                   for k in range(len(m)) for sub in combinations(m, k))
    union = all(a | b in sat for a in sat for b in sat)
    flat = all((t in sat) == all(frozenset({v}) in sat for v in t)
               for t in teams)
    return ClosureReport(frozenset() in sat, downward, union, flat)


def test_closure_properties_match_definitions():
    rng = random.Random(61)
    for n in (1, 2):
        domain = ("p", "q")[:n]
        for _ in range(60):
            f = gen_formula(rng, rng.randint(0, 4), rng.randint(0, 2),
                            vars=domain)
            sat = {t.members for t in all_teams(domain) if satisfies(t, f)}
            assert closure_properties(f, domain) == \
                closure_reference(sat, domain), str(f)


def test_closure_properties_of_any_team_set(monkeypatch):
    # formulas of this logic all hold on the empty team and downward, so
    # the other outcomes are reached by handing over arbitrary sets
    rng = random.Random(67)
    for n in range(4):
        domain = ("p", "q", "r")[:n]
        space = _Space(domain)
        for _ in range(40):
            density = rng.choice((0.05, 0.5, 0.95))
            sat = sum(1 << t for t in range(space.nteams)
                      if rng.random() < density)
            if rng.random() < 0.5:
                sat = down_closure(space, sat)
            monkeypatch.setattr(_Space, "sat_set", lambda self, f: sat)
            members = {space.team(t).members for t in range(space.nteams)
                       if (sat >> t) & 1}
            assert closure_properties(BOT, domain) == \
                closure_reference(members, domain), (n, sat)


def test_closure_disagreement_is_an_error(monkeypatch, capsys):
    # flatness must equal the conjunction of the other three properties;
    # a broken `_maximal` makes them disagree, which is an error (exit 2),
    # not an assertion that `python -O` would skip, nor a verdict
    monkeypatch.setattr(_Space, "_maximal", lambda self, sat: None)
    with pytest.raises(TeamSeqError, match="flatness disagreement"):
        closure_properties(pf("p"), ("p",))
    assert run(["closure", "p"]) == 2
    assert "flatness disagreement" in capsys.readouterr().err


def test_team_json():
    t = team("pq", *[(1, 0), (0, 1)])
    t = Team(("p", "q"), frozenset({(1, 0), (0, 1)}))
    assert team_from_json(team_to_json(t)) == t
    assert team_to_json(t) == {"vars": ["p", "q"], "team": [[0, 1], [1, 0]]}
    # a missing field is an input error, not a bare KeyError
    for obj in ({"team": []}, {"vars": ["p"]}):
        with pytest.raises(ParseError, match="missing field"):
            team_from_json(obj)
    # a domain names each variable once, as a string the parser accepts
    for names in (["p", "p"], "pq", ["p", 1], ["P"], [""], ["bot"], {"p": 0}):
        with pytest.raises(ParseError, match="bad team"):
            team_from_json({"vars": names, "team": []})
    with pytest.raises(ValueError, match="repeated variable"):
        Team(("p", "q", "p"), frozenset())
