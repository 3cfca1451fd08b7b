"""Brute-force team-semantics oracle.

Teams are sets of valuations over an explicit variable domain.  Everything
here enumerates exhaustively (the split-disjunction clause ranges over all
covers t = s + u), so it is doubly exponential.  This module is the ground
truth against which the calculus, prover, and transformations are tested.

A `_Space` ranges over a tuple of rows: valuation indices, first domain
variable most significant, by default all 2^n valuations of the domain,
or the rows of one team.  A team of the space is a bitmask over its rows,
and a satisfaction set is a bitmask with one bit per team.  A set over k
rows has 2^k bits, so sets are built for at most 16 rows, the valuations
of four variables; beyond that `sat_set` and the teams lacking each row
raise `ResourceLimit` before anything is built.  Validity and the closure
properties range over all teams of the domain, so `max_vars` caps them at
4 variables and can only lower that cap.

The split disjunction's set is the cover image {s | u} of its two sides'
sets, computed by one algorithm: for each team P of one side, the other
side is closed upward along the rows of P, one shift-or per row.  A
downward-closed side needs only its maximal teams; a side that is not
downward closed goes member by member, each closure cut down to the teams
that contain the member; so does a side of at most one team, without the
check.  Downward closure is checked on the concrete set, never assumed
from the formula.  Every formula's set is downward closed.  At 16 rows
the costliest such pair, all teams of at most 8 rows on both sides, took
about 0.5-0.7 s, and the costliest pair that is not downward closed, all
nonempty teams on both sides, about 3 s (2-core x86-64 host, CPython
3.11).

`sat_points` reads a formula on every one-row team at once, as k bits
for k rows on any number of rows.  A team satisfies a variable, `bot` or
`~c` iff each of its one-row teams does, by their clauses, so their sets
are read off these bits and no set of c over all teams is built.  The
teams lacking each row are built once per row count.

`satisfies` reads one team in the space of its own rows, where the team
is the full mask: `&` and `||` by their clauses, the other leaves from
`sat_points`, and `|` from its set, which is refused above 16 rows.

Validity reads the antecedent as row masks whose subteam sets together
make up its set, by set identities, one per clause (`_row_masks`), that
show the set to be a union of subteam sets rather than assume a closure
theorem, and folds the succedent by cover images once, over their rows.

The sweeps over all teams are operations on these sets, not loops over
teams: each closure property is its definition evaluated on a formula's
satisfaction set (union closure is the cover image of the set with
itself, flatness compares the set with the teams of its one-row
members), and the first countermodel is the first set bit in (size,
membership) order.  None of them uses a closure theorem of the logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import combinations
from operator import and_, or_

from .errors import (DomainMismatch, ParseError, ResourceLimit, TeamSeqError,
                     nesting_limited)
from .syntax import (And, Bot, BOT, Formula, Gd, Neg, Or, Prop, Sequent,
                     children, postorder, props)

DEFAULT_MAX_VARS = 4
_MAX_ROWS = 1 << DEFAULT_MAX_VARS  # team sets of 2^16 bits
_MAX_MASKS = 32  # row masks in one reading of an antecedent


@dataclass(frozen=True)
class Team:
    """A set of valuations; each valuation is a 0/1 tuple over `domain`."""

    domain: tuple[str, ...]
    members: frozenset[tuple[int, ...]]

    def __post_init__(self):
        object.__setattr__(self, "domain", tuple(self.domain))
        members = [tuple(v) for v in self.members]
        for name in self.domain:
            if not isinstance(name, str):
                raise ValueError(f"variable {name!r} is not a string")
            Prop(name)  # raises ValueError on a malformed name
        if len(set(self.domain)) != len(self.domain):
            raise ValueError(f"repeated variable in domain {self.domain}")
        # checked before the set is built, where 1.0 and True equal 1
        for v in members:
            if len(v) != len(self.domain) or any(
                    type(b) is not int or b not in (0, 1) for b in v):
                raise ValueError(f"valuation {v} does not fit domain {self.domain}")
        object.__setattr__(self, "members", frozenset(members))

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
        return Team(tuple(names), obj["team"])
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
    """Satisfaction sets over the teams of a fixed tuple of rows.

    A row is a valuation index (first domain variable = most significant
    bit); the rows are all 2^n valuations unless given.  A team is a
    bitmask over row positions; the satisfaction set of a formula is a
    bitmask over team masks.  In the space of one team's rows that team
    is the full mask, `nteams - 1`.
    """

    def __init__(self, domain: tuple[str, ...], rows=None):
        self.domain = tuple(domain)
        self.n = len(self.domain)
        self.rows = range(1 << self.n) if rows is None else tuple(rows)
        self.nvals = len(self.rows)
        self.nteams = 1 << self.nvals
        self._sets: dict[Formula, int] = {}
        self._points_of: dict[Formula, int] = {}

    def valuation(self, vindex: int) -> tuple[int, ...]:
        return tuple((vindex >> (self.n - 1 - i)) & 1 for i in range(self.n))

    def team(self, mask: int) -> Team:
        members = frozenset(self.valuation(self.rows[i])
                            for i in self._members(mask))
        return Team(self.domain, members)

    def team_space(self, mask: int) -> _Space:
        """The space of the rows of team `mask`."""
        return _Space(self.domain, [self.rows[i] for i in self._members(mask)])

    def positions(self, vals: int) -> int:
        """The team of the rows in `vals`, a mask of valuation indices."""
        return sum(1 << i for i, v in enumerate(self.rows) if vals >> v & 1)

    def _members(self, mask: int):
        """Indices of the set bits of `mask`, lowest first: the rows of a
        team, or the teams of a set of teams."""
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def sat_all(self, f: Formula) -> bool:
        """Whether the team of all the space's rows satisfies `f`, by the
        clauses of `&` and `||`; a `|` is read from its set over all
        teams, any other formula from its one-row teams."""
        match f:
            case And(l, r):
                return self.sat_all(l) and self.sat_all(r)
            case Gd(l, r):
                return self.sat_all(l) or self.sat_all(r)
            case Or():
                return bool((self.sat_set(f) >> (self.nteams - 1)) & 1)
        return self.sat_points(f) == self.nteams - 1

    # -- full satisfaction sets (for sweeps over all teams) ----------------
    def sat_set(self, f: Formula) -> int:
        hit = self._sets.get(f)
        if hit is not None:
            return hit
        if self.nvals > _MAX_ROWS:
            raise ResourceLimit(f"team sets over {self.nvals} rows exceed "
                                f"the {_MAX_ROWS}-row cap")
        match f:
            case And(l, r):
                out = self.sat_set(l) & self.sat_set(r)
            case Gd(l, r):
                out = self.sat_set(l) | self.sat_set(r)
            case Or(l, r):
                out = self._or_set(self.sat_set(l), self.sat_set(r))
            case _:
                # a team satisfies p, bot or ~c iff each of its one-row
                # teams does, so no set of c over all teams is built
                out = self._avoiding(~self.sat_points(f))
        self._sets[f] = out
        return out

    def sat_points(self, f: Formula) -> int:
        """Mask of the rows v with {v} satisfying `f`, for all v at once,
        by the defining clauses read on one-row teams."""
        hit = self._points_of.get(f)
        if hit is not None:
            return hit
        # on a one-row team the clause of ~ is plain negation, so a run of
        # ~ is read in a loop, not one frame per ~
        c, flip = f, False
        while isinstance(c, Neg):
            c, flip = c.child, not flip
        match c:
            case Prop(name):
                bit = self.n - 1 - self.domain.index(name)
                if isinstance(self.rows, range):
                    # valuation indices are n-bit masks: those with `bit`
                    # set are the teams of n rows that hold row `bit`
                    out = (self.nteams - 1) ^ _without(self.n)[bit]
                else:
                    out = sum(1 << i for i, v in enumerate(self.rows)
                              if (v >> bit) & 1)
            case Bot():
                out = 0
            case And(l, r):
                out = self.sat_points(l) & self.sat_points(r)
            case Gd(l, r):
                out = self.sat_points(l) | self.sat_points(r)
            case Or(l, r):
                # the covers of {v} are {v} + {v}, {v} + {} and {} + {v}
                pl, pr = self.sat_points(l), self.sat_points(r)
                out = pl & pr
                if self._no_rows.sat_set(r) & 1:
                    out |= pl
                if self._no_rows.sat_set(l) & 1:
                    out |= pr
        if flip:
            out ^= self.nteams - 1
        self._points_of[f] = out
        return out

    @cached_property
    def _no_rows(self) -> _Space:
        """The space whose only team is the empty team."""
        return _Space(self.domain, ())

    def _avoiding(self, bad_vals: int) -> int:
        """Set of all team masks disjoint from `bad_vals`.

        Submasks of the complement form a product over its bits, so the
        indicator doubles once per allowed row.
        """
        out = 1  # the empty team
        for v in range(self.nvals):
            if not (bad_vals >> v) & 1:
                out |= out << (1 << v)
        return out

    def _maximal(self, sat: int) -> int | None:
        """The maximal teams of `sat` if it is downward closed, else None.

        Bit t of `(sat >> (1 << v)) & without[v]` is set iff t lacks v and
        t + {v} is in `sat`: these are the members less one row.  `sat` is
        downward closed iff all of them are members, since by induction
        every subteam of a member is then one, and its maximal teams are
        the members that are not among them."""
        smaller = 0
        for v, without in enumerate(_without(self.nvals)):
            smaller |= (sat >> (1 << v)) & without
        return None if smaller & ~sat else sat & ~smaller

    def _points(self, sat: int) -> int:
        """Mask of the rows whose one-row team is in `sat`."""
        return sum(((sat >> (1 << v)) & 1) << v for v in range(self.nvals))

    def _or_set(self, sl: int, sr: int) -> int:
        """Exact cover image {s | u : s in sl, u in sr} over team masks.

        For a team P, the teams s | u with s a subteam of P and u in the
        other side are the t with t \\ P <= u <= t for some such u: the
        other side closed upward along the rows of P, one shift-or per
        row.  A downward-closed side is the union of the subteam sets of
        its maximal teams, so its image is the union of one such closure
        per maximal team.  A side that is not downward closed goes member
        by member: after the shift-or along each row v of a member P only
        the teams that contain v are kept, which leaves the teams P | u.
        Downward closure is checked on the set itself (`_maximal`), never
        assumed from the formula, and the side whose teams need fewer
        shift-ors is used.  A side of at most one team goes member by
        member with neither the check nor the count.  Above 16 rows
        `_without` raises `ResourceLimit` before any set is built.
        """
        without = _without(self.nvals)
        if sl & (sl - 1) == 0 or sr & (sr - 1) == 0:
            teams, other = (sl, sr) if sl & (sl - 1) == 0 else (sr, sl)
            by_member = True
        else:
            best = None
            for side, other in ((sl, sr), (sr, sl)):
                top = self._maximal(side)
                teams = side if top is None else top
                # the sum of |P| over these teams P: each of them counts
                # once per row, less once per row it lacks
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


@cache
def _without(k: int) -> list[int]:
    """Per row v of `k` rows, the set of teams that do not contain v,
    `_avoiding(1 << v)`: shared by every `_Space` with that many rows,
    which only reads it.  Built once per row count and only up to
    `_MAX_ROWS` (2^16-bit sets, about 0.25 MB for all counts); more rows
    raise `ResourceLimit` before anything is built.

    Team indices lacking the last row are the lower half.  Going down, in
    every block of 2^(v+2) indices the set for v + 1 holds the lower half,
    and xor with itself shifted up by 2^v leaves the first and third
    quarters: the indices with bit v clear."""
    if k > _MAX_ROWS:
        raise ResourceLimit(f"team sets over {k} rows exceed the "
                            f"{_MAX_ROWS}-row cap")
    without = [(1 << (1 << (k - 1))) - 1] if k else []
    for v in reversed(range(k - 1)):
        without.append(without[-1] ^ without[-1] << (1 << v))
    without.reverse()
    return without


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
    """Team satisfaction by the defining clauses, read in the space of the
    team's own rows (`_Space.sat_all`).  It answers on any number of
    variables and rows, except that a `|` outside `~` is read from its set
    over all subteams, which raises `ResourceLimit` above 16 rows."""
    if not props(f) <= set(team.domain):
        raise DomainMismatch(f"{sorted(props(f) - set(team.domain))} not in "
                             f"team domain {team.domain}")
    rows = (reduce(lambda i, b: i << 1 | b, v, 0) for v in team.members)
    return _Space(team.domain, rows).sat_all(f)


@nesting_limited
def sequent_valid(s: Sequent, max_vars: int = DEFAULT_MAX_VARS) -> bool:
    """True iff every team satisfying the antecedent satisfies the split
    disjunction of the succedent over its variables, by `_bad_teams`."""
    space = _space_for(tuple(sorted(s.props())), max_vars)
    return _bad_teams(space, s)[1] == 0


def _bad_teams(space: _Space, s: Sequent) -> tuple[_Space, int]:
    """The space of the rows U of `_hypothesis`, and its teams that satisfy
    the antecedent but not the succedent's sets folded left to right by
    cover images (`_or_set`), so no formula nests; an empty succedent is
    `bot`.  U's rows keep their order, so its first bad team in (size,
    membership) order is the first overall."""
    sub, hyp = _hypothesis(space, s.ant)
    goal = reduce(sub._or_set, map(sub.sat_set, s.suc)) if s.suc else 1
    return sub, hyp & ~goal


def _hypothesis(space: _Space, ant) -> tuple[_Space, int]:
    """The space of the rows U of `ant`'s row masks and the union of their
    subteam sets; past `_MAX_MASKS`, all rows and the formulas' sets met."""
    masks = _row_masks(space, ant)
    if masks is None:
        return space, reduce(and_, map(space.sat_set, ant))
    sub = space.team_space(reduce(or_, masks))
    return sub, reduce(or_, (sub._avoiding(~sub.positions(m)) for m in masks))


def _row_masks(space: _Space, ant) -> list[int] | None:
    """Row masks R_i such that a team satisfies every formula of `ant` iff
    it lies in some R_i, or None past `_MAX_MASKS`.  With S(R) the
    subteams of R, one set identity per clause, read bottom up: a
    variable, `bot` or `~c` gives [`sat_points`], as a team satisfies it
    iff its one-row teams do; `A & B` the pairwise a & b, as S(a) & S(b)
    is S(a & b); `A || B` both lists; `A | B` the pairwise a | b, as the
    cover image of S(a) and S(b) is S(a | b) (t = (t & a) | (t & b)).  The
    formulas of `ant` meet pairwise from all rows.  No closure theorem is
    used: the identities show each set to be a union of subteam sets.
    The walk is `postorder`; only a `~c` recurses, over c."""
    masks: dict[int, list[int]] = {}
    out = [(1 << space.nvals) - 1]
    for f in ant:
        for g in postorder(f, lambda g: () if isinstance(g, Neg)
                           else children(g), masks):
            match g:
                case And(l, r) | Or(l, r):
                    op = or_ if isinstance(g, Or) else and_
                    m = _outermost(op(a, b) for a in masks[id(l)]
                                   for b in masks[id(r)])
                case Gd(l, r):
                    m = _outermost(masks[id(l)] + masks[id(r)])
                case _:
                    m = [space.sat_points(g)]
            if m is None:
                return None
            masks[id(g)] = m
        out = _outermost(a & b for a in out for b in masks[id(f)])
        if out is None:
            return None
    return out


def _outermost(masks) -> list[int] | None:
    """The masks inside no other, once each, or None past `_MAX_MASKS`;
    sorted by size, each can lie only in one kept before it."""
    kept: list[int] = []
    for m in sorted(masks, key=int.bit_count, reverse=True):
        if all(m & ~k for k in kept):
            if len(kept) == _MAX_MASKS:
                return None
            kept.append(m)
    return kept


@nesting_limited
def find_countermodel_bruteforce(s: Sequent,
                                 max_vars: int = DEFAULT_MAX_VARS) -> Team | None:
    """First team (by size, then membership order) witnessing invalidity."""
    space, bad = _bad_teams(_space_for(tuple(sorted(s.props())), max_vars), s)
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
    if flat != (empty and downward and union):
        raise TeamSeqError(f"flatness disagreement for {f} on {domain}")
    return ClosureReport(empty, downward, union, flat)
