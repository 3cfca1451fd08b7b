"""Brute-force team-semantics oracle.

Teams are sets of valuations over an explicit variable domain.  Everything
here enumerates exhaustively (the split-disjunction clause searches all
covers t = s + u), so it is doubly exponential in the number of variables;
`max_vars` caps that at 4 by default and can only lower the cap, which is
checked before any set over all teams is built.  This module is the ground
truth against which the calculus, prover, and transformations are tested.

Satisfaction sets over all teams are bitmasks with one bit per team.  The
split disjunction's set is the cover image {s | u} of its two sides' sets,
computed by one algorithm: for each team P of one side, the other side is
closed upward along the valuations of P, one shift-or per valuation.  A
downward-closed side needs only its maximal teams; a side that is not
downward closed goes member by member, each closure cut down to the teams
that contain the member; so does a side of at most one team, without the
check.  Downward closure is checked on the concrete set, never assumed
from the formula.  Every formula's set is downward closed.  At
`DEFAULT_MAX_VARS` = 4 variables the costliest such pair, all teams of at
most 8 valuations on both sides, took about 0.5-0.7 s, and the costliest
pair that is not downward closed, all nonempty teams on both sides,
about 3 s (2-core x86-64 host, CPython 3.11).  On a wider
`_Space` built directly the cover image and the set of a variable raise
`ResourceLimit` before they build any set.  Single-team satisfaction
never builds a mask over all teams, so it works on any domain size.

The set of `~c` is read off the valuations v with {v} satisfying c,
computed for all v at once by the clauses on one-valuation teams, so no
set of c over all teams is built.  The sets that depend only on the
number of variables (the teams lacking each valuation, the set of each
variable) are built once per arity, up to `DEFAULT_MAX_VARS`.

Validity builds the antecedent's set over all teams and checks every
team of it against the succedent.  When that set holds few small teams,
each team is read on its own (`_Space.sat_fold`): the succedent is
folded over the team's subteams by the clause of `|`, with single-team
satisfaction, so no cover image over all teams is built; otherwise the
succedent's sets are folded by cover images.  `_bad_teams` states the
fixed cost rule between the two.

The sweeps over all teams are operations on these sets, not loops over
teams: each closure property is its definition evaluated on a formula's
satisfaction set (union closure is the cover image of the set with
itself, flatness compares the set with the teams of its one-valuation
members), and the first countermodel is the first set bit in (size,
membership) order.  None of them uses a closure theorem of the logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import combinations
from operator import and_

from .errors import DomainMismatch, ParseError, ResourceLimit, nesting_limited
from .syntax import (And, Bot, BOT, Formula, Gd, Neg, Or, Prop, Sequent,
                     props)

DEFAULT_MAX_VARS = 4


@dataclass(frozen=True)
class Team:
    """A set of valuations; each valuation is a 0/1 tuple over `domain`."""

    domain: tuple[str, ...]
    members: frozenset[tuple[int, ...]]

    def __post_init__(self):
        object.__setattr__(self, "domain", tuple(self.domain))
        object.__setattr__(self, "members", frozenset(tuple(v) for v in self.members))
        for name in self.domain:
            if not isinstance(name, str):
                raise ValueError(f"variable {name!r} is not a string")
            Prop(name)  # raises ValueError on a malformed name
        if len(set(self.domain)) != len(self.domain):
            raise ValueError(f"repeated variable in domain {self.domain}")
        for v in self.members:
            if len(v) != len(self.domain) or any(b not in (0, 1) for b in v):
                raise ValueError(f"valuation {v} does not fit domain {self.domain}")

    def __str__(self):
        rows = ",".join("{" + ",".join(map(str, v)) + "}" for v in sorted(self.members))
        return f"Team({','.join(self.domain)}: {rows})"


def team_to_json(t: Team):
    return {"vars": list(t.domain), "team": sorted(list(v) for v in t.members)}


def team_from_json(obj) -> Team:
    try:
        names = obj["vars"]
        if not isinstance(names, list):
            raise ValueError(f"vars {names!r} is not an array of strings")
        return Team(tuple(names),
                    frozenset(tuple(row) for row in obj["team"]))
    except KeyError as e:
        raise ParseError(f"bad team: missing field {e}") from e
    except (TypeError, ValueError) as e:
        raise ParseError(f"bad team: {e}") from e


def eval_classical(f: Formula, valuation: dict[str, int]) -> bool:
    """Single-valuation truth of a classical formula."""
    match f:
        case Prop(name):
            return bool(valuation[name])
        case Bot():
            return False
        case Neg(c):
            return not eval_classical(c, valuation)
        case And(l, r):
            return eval_classical(l, valuation) and eval_classical(r, valuation)
        case Or(l, r):
            return eval_classical(l, valuation) or eval_classical(r, valuation)
    raise DomainMismatch(f"not classical: {f}")


def big_or(formulas) -> Formula:
    """Fold a multiset into a split disjunction; the empty fold is `bot`."""
    fs = list(formulas)
    if not fs:
        return BOT
    return reduce(Or, fs)


def big_and(formulas) -> Formula:
    fs = list(formulas)
    if not fs:
        return Neg(BOT)
    return reduce(And, fs)


class _Space:
    """Satisfaction sets over all teams on a fixed domain.

    Valuations are indexed 0..2^n-1 (first domain variable = most
    significant bit); a team is a bitmask over valuation indices; the
    satisfaction set of a formula is a bitmask over team masks.
    """

    def __init__(self, domain: tuple[str, ...]):
        self.domain = tuple(domain)
        self.n = len(self.domain)
        self.nvals = 1 << self.n
        self.nteams = 1 << self.nvals
        self._sets: dict[Formula, int] = {}
        self._points_of: dict[Formula, int] = {}
        self._memo: dict[tuple[Formula, int], bool] = {}

    def valuation(self, vindex: int) -> tuple[int, ...]:
        return tuple((vindex >> (self.n - 1 - i)) & 1 for i in range(self.n))

    def team_mask(self, team: Team) -> int:
        if tuple(team.domain) != self.domain:
            raise DomainMismatch(f"team domain {team.domain} != {self.domain}")
        mask = 0
        for v in team.members:
            idx = 0
            for b in v:
                idx = (idx << 1) | b
            mask |= 1 << idx
        return mask

    def team(self, mask: int) -> Team:
        members = frozenset(self.valuation(i) for i in range(self.nvals)
                            if (mask >> i) & 1)
        return Team(self.domain, members)

    # -- single-team satisfaction (memoized, early exit) -------------------
    def sat(self, mask: int, f: Formula) -> bool:
        key = (f, mask)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        match f:
            case Prop(name):
                i = self.domain.index(name)
                out = all((v >> (self.n - 1 - i)) & 1
                          for v in self._members(mask))
            case Bot():
                out = mask == 0
            case Neg(c):
                # on a one-valuation team the clause of ~ is plain negation,
                # so a run of ~ is read in a loop, not one frame per ~
                flip = True
                while isinstance(c, Neg):
                    c, flip = c.child, not flip
                out = all(self.sat(1 << v, c) != flip
                          for v in self._members(mask))
            case And(l, r):
                out = self.sat(mask, l) and self.sat(mask, r)
            case Or(l, r):
                out = self._sat_split(mask, l, r)
            case Gd(l, r):
                out = self.sat(mask, l) or self.sat(mask, r)
        self._memo[key] = out
        return out

    def _members(self, mask: int):
        """Indices of the set bits of `mask`, lowest first: the valuations
        of a team, or the teams of a set of teams."""
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def sat_fold(self, mask: int, formulas) -> bool:
        """Whether team `mask` satisfies the split disjunction of
        `formulas` folded left to right (`big_or`; the empty fold is
        `bot`), by the clause of `|` and without building the formula.
        A subteam of `mask` satisfies a prefix joined with the next
        formula iff it is s | u for subteams s satisfying the prefix and u
        satisfying the formula, so the subteams satisfying each prefix are
        kept as a set and each formula is read with `sat`."""
        subteams = [mask]
        while subteams[-1]:
            subteams.append((subteams[-1] - 1) & mask)
        held = {0}  # the subteams that satisfy bot
        for f in formulas:
            good = [u for u in subteams if self.sat(u, f)]
            held = {s | u for s in held for u in good}
        return mask in held

    def _sat_split(self, mask: int, l: Formula, r: Formula) -> bool:
        # all covers mask = s | u: iterate s over submasks, then u over
        # supersets of mask \ s inside mask.
        s = mask
        while True:
            if self.sat(s, l):
                rest = mask & ~s
                w = s
                while True:
                    if self.sat(rest | w, r):
                        return True
                    if w == 0:
                        break
                    w = (w - 1) & s
            if s == 0:
                return False
            s = (s - 1) & mask

    # -- full satisfaction sets (for sweeps over all teams) ----------------
    def sat_set(self, f: Formula) -> int:
        hit = self._sets.get(f)
        if hit is not None:
            return hit
        match f:
            case Prop(name):
                out = _constants(self.n).props[self.domain.index(name)]
            case Bot():
                out = 1
            case Neg(c):
                # t satisfies ~c iff no v in t has {v} satisfying c
                out = self._avoiding(self.sat_points(c))
            case And(l, r):
                out = self.sat_set(l) & self.sat_set(r)
            case Gd(l, r):
                out = self.sat_set(l) | self.sat_set(r)
            case Or(l, r):
                out = self._or_set(self.sat_set(l), self.sat_set(r))
        self._sets[f] = out
        return out

    def sat_points(self, f: Formula) -> int:
        """Mask of the valuations v with {v} satisfying `f`, for all v at
        once, by the clauses of `sat` read on one-valuation teams."""
        hit = self._points_of.get(f)
        if hit is not None:
            return hit
        match f:
            case Prop(name):
                bit = self.n - 1 - self.domain.index(name)
                out = sum(1 << v for v in range(self.nvals) if (v >> bit) & 1)
            case Bot():
                out = 0
            case Neg(c):
                out = ~self.sat_points(c) & ((1 << self.nvals) - 1)
            case And(l, r):
                out = self.sat_points(l) & self.sat_points(r)
            case Gd(l, r):
                out = self.sat_points(l) | self.sat_points(r)
            case Or(l, r):
                # the covers of {v} are {v} + {v}, {v} + {} and {} + {v}
                pl, pr = self.sat_points(l), self.sat_points(r)
                out = pl & pr
                if self.sat(0, r):
                    out |= pl
                if self.sat(0, l):
                    out |= pr
        self._points_of[f] = out
        return out

    def _avoiding(self, bad_vals: int) -> int:
        """Set of all team masks disjoint from `bad_vals`.

        Submasks of the complement form a product over its bits, so the
        indicator doubles once per allowed valuation.
        """
        out = 1  # the empty team
        for v in range(self.nvals):
            if not (bad_vals >> v) & 1:
                out |= out << (1 << v)
        return out

    @cached_property
    def _without(self) -> list[int]:
        """`_without[v]` is the set of teams that do not contain valuation
        v, `_avoiding(1 << v)`; see `_constants`."""
        return _constants(self.n).without

    def _maximal(self, sat: int) -> int | None:
        """The maximal teams of `sat` if it is downward closed, else None.

        Bit t of `(sat >> (1 << v)) & _without[v]` is set iff t lacks v and
        t + {v} is in `sat`: these are the members less one valuation.
        `sat` is downward closed iff all of them are members, since by
        induction every subteam of a member is then one, and its maximal
        teams are the members that are not among them."""
        smaller = 0
        for v, without in enumerate(self._without):
            smaller |= (sat >> (1 << v)) & without
        return None if smaller & ~sat else sat & ~smaller

    def _points(self, sat: int) -> int:
        """Mask of the valuations whose one-valuation team is in `sat`."""
        return sum(((sat >> (1 << v)) & 1) << v for v in range(self.nvals))

    def _or_set(self, sl: int, sr: int) -> int:
        """Exact cover image {s | u : s in sl, u in sr} over team masks.

        For a team P, the teams s | u with s a subteam of P and u in the
        other side are the t with t \\ P <= u <= t for some such u: the
        other side closed upward along the valuations of P, one shift-or
        per valuation.  A downward-closed side is the union of the subteam
        sets of its maximal teams, so its image is the union of one such
        closure per maximal team.  A side that is not downward closed goes
        member by member: after the shift-or along each valuation v of a
        member P only the teams that contain v are kept, which leaves the
        teams P | u.  Downward closure is checked on the set itself
        (`_maximal`), never assumed from the formula, and the side whose
        teams need fewer shift-ors is used.  A side of at most one team
        goes member by member with neither the check nor the count.
        """
        if self.n > DEFAULT_MAX_VARS:
            raise ResourceLimit(f"cover transform over {self.n} variables "
                                f"exceeds the {DEFAULT_MAX_VARS}-variable "
                                f"cap")
        without = self._without
        if sl & (sl - 1) == 0 or sr & (sr - 1) == 0:
            teams, other = (sl, sr) if sl & (sl - 1) == 0 else (sr, sl)
            by_member = True
        else:
            best = None
            for side, other in ((sl, sr), (sr, sl)):
                top = self._maximal(side)
                teams = side if top is None else top
                # the sum of |P| over these teams P: each of them counts
                # once per valuation, less once per valuation it lacks
                steps = teams.bit_count() * self.nvals - sum(
                    (teams & w).bit_count() for w in without)
                if best is None or steps < best[0]:
                    best = steps, teams, other, top is None
            _, teams, other, by_member = best
        out = 0
        for team in self._members(teams):
            up = other
            for v in self._members(team):
                lacking = up & without[v]
                up |= lacking << (1 << v)
                if by_member:
                    up ^= lacking
            out |= up
        return out


@dataclass(frozen=True)
class _Constants:
    """The sets of teams that depend only on the number of variables,
    shared by every `_Space` of that arity, which only reads them."""

    without: list[int]  # per valuation v, the teams that lack v
    props: list[int]    # per domain position, the teams that satisfy it


@cache
def _constants(n: int) -> _Constants:
    """The `_Constants` of `n` variables, built once per arity and only up
    to `DEFAULT_MAX_VARS` (2^16-bit sets, under 0.2 MB for all arities);
    a wider arity raises `ResourceLimit` before anything is built.

    Team indices lacking the last valuation are the lower half.  Going
    down, in every block of 2^(v+2) indices the set for v + 1 holds the
    lower half, and xor with itself shifted up by 2^v leaves the first
    and third quarters: the indices with bit v clear.  The teams that
    satisfy the variable at position i are those that lack every
    valuation with its bit clear."""
    if n > DEFAULT_MAX_VARS:
        raise ResourceLimit(f"team sets over {n} variables exceed the "
                            f"{DEFAULT_MAX_VARS}-variable cap")
    nvals = 1 << n
    without = [(1 << (1 << (nvals - 1))) - 1]
    for v in reversed(range(nvals - 1)):
        without.append(without[-1] ^ without[-1] << (1 << v))
    without.reverse()
    props = [reduce(and_, (w for v, w in enumerate(without)
                           if not (v >> (n - 1 - i)) & 1))
             for i in range(n)]
    return _Constants(without, props)


def _space_for(domain, max_vars: int) -> _Space:
    """The space of all teams on `domain`, refused before anything is
    allocated beyond `max_vars` variables, capped at the four-variable size
    of a team-set mask (2^16 bits): `max_vars` can only lower that cap."""
    cap = min(max_vars, DEFAULT_MAX_VARS)
    if len(domain) > cap:
        raise ResourceLimit(f"{len(domain)} variables exceeds budget {cap}")
    return _Space(tuple(domain))


@nesting_limited
def satisfies(team: Team, f: Formula) -> bool:
    """Team satisfaction, straight from the defining clauses."""
    if not props(f) <= set(team.domain):
        raise DomainMismatch(f"{sorted(props(f) - set(team.domain))} not in "
                             f"team domain {team.domain}")
    space = _Space(team.domain)
    return space.sat(space.team_mask(team), f)


@nesting_limited
def sequent_valid(s: Sequent, max_vars: int = DEFAULT_MAX_VARS) -> bool:
    """True iff every team satisfying the antecedent satisfies the split
    disjunction of the succedent, over the sequent's own variables.  Each
    such team is checked, team by team or through cover images over all
    teams as `_bad_teams`'s cost rule chooses, by the defining clauses."""
    space = _space_for(tuple(sorted(s.props())), max_vars)
    return _bad_teams(space, s) == 0


def _bad_teams(space: _Space, s: Sequent) -> int:
    """Set of the team masks that satisfy every antecedent formula but not
    the split disjunction of the succedent.

    The antecedent's set `hyp` is built over all teams (all teams for an
    empty antecedent).  Then every team of `hyp` is decided, by the
    defining clauses only, on one of two exact paths, both folding the
    succedent left to right so that a long succedent nests no formula.
    Team by team, each t in `hyp` is read with `sat_fold`, which costs
    up to 4^|t| pairs of subteams per formula.  Over all teams, the
    succedent's satisfaction sets are joined by cover images (`_or_set`),
    each a run of operations on nteams-bit sets.  The rule: team by team
    iff the sum of 4^|t| over the teams t of `hyp` is at most nteams/256,
    which is 256 at four variables, where the two paths were measured to
    cost about the same (0.1-0.2 ms per goal; 2-core x86-64 host,
    CPython 3.11)."""
    if s.ant:
        hyp = reduce(and_, map(space.sat_set, s.ant))
    else:
        hyp = (1 << space.nteams) - 1
    cap = space.nteams >> 8
    # the count first, so that a large set is not walked
    if hyp.bit_count() <= cap and sum(
            4 ** t.bit_count() for t in space._members(hyp)) <= cap:
        return sum(1 << t for t in space._members(hyp)
                   if not space.sat_fold(t, s.suc))
    goal = reduce(space._or_set, map(space.sat_set, s.suc)) if s.suc else 1
    return hyp & ~goal


@nesting_limited
def find_countermodel_bruteforce(s: Sequent,
                                 max_vars: int = DEFAULT_MAX_VARS) -> Team | None:
    """First team (by size, then membership order) witnessing invalidity."""
    space = _space_for(tuple(sorted(s.props())), max_vars)
    bad = _bad_teams(space, s)
    if bad == 0:
        return None
    for k in range(space.nvals + 1):
        for members in combinations(range(space.nvals), k):
            m = sum(1 << v for v in members)
            if (bad >> m) & 1:
                return space.team(m)


@dataclass(frozen=True)
class ClosureReport:
    empty_team: bool
    downward_closed: bool
    union_closed: bool
    flat: bool


@nesting_limited
def closure_properties(f: Formula, domain,
                       max_vars: int = DEFAULT_MAX_VARS) -> ClosureReport:
    """The four team-semantic closure properties, each its definition
    evaluated on the satisfaction set of `f` over all teams on `domain`."""
    domain = tuple(domain)
    if not props(f) <= set(domain):
        raise DomainMismatch(f"{sorted(props(f) - set(domain))} not in {domain}")
    space = _space_for(domain, max_vars)
    sat = space.sat_set(f)
    empty = bool(sat & 1)
    downward = space._maximal(sat) is not None
    union = space._or_set(sat, sat) & ~sat == 0
    # exactly the teams of valuations whose one-valuation teams satisfy f
    flat = sat == space._avoiding(~space._points(sat))

    # internal consistency: flatness coincides with the three-way conjunction
    assert flat == (empty and downward and union), \
        f"flatness disagreement for {f} on {domain}"
    return ClosureReport(empty, downward, union, flat)
