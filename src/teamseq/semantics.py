"""Brute-force team-semantics oracle.

Teams are sets of valuations over an explicit variable domain.  Everything
here enumerates exhaustively (the split-disjunction clause searches all
covers t = s + u), so it is doubly exponential in the number of variables;
`max_vars` caps that at 4 by default and can only lower the cap, which is
checked before any set over all teams is built.  This module is the ground
truth against which the calculus, prover, and transformations are tested.

Satisfaction sets over all teams are bitmasks with one bit per team.  The
cover transform behind the split disjunction counts pairs of teams per
union, and it keeps those counts in 64-bit lanes of one Python int: at
`DEFAULT_MAX_VARS` = 4 variables there are 2^16 teams, so a count is at
most 2^16 * 2^16 = 2^32 and fits a lane.  That lane bound rests on the
four-variable cap, which the oracle's entry points enforce; on a wider
`_Space` built directly the transform raises `ResourceLimit` rather than
overflow a lane.  Single-team satisfaction never builds a mask over all
teams, so it works on any domain size.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import reduce
from operator import and_, mul

from .errors import DomainMismatch, ParseError, ResourceLimit
from .syntax import (And, Bot, BOT, Formula, Gd, Neg, Or, Prop, Sequent,
                     props)

DEFAULT_MAX_VARS = 4

_LANE = 64  # bits per count lane of the cover transform
_LANE_BYTES = _LANE // 8
_BIT_OF_ASCII = bytes.maketrans(b"01", b"\x00\x01")
_ASCII_OF_TOP = bytes.maketrans(b"\x7f\x80", b"01")


@dataclass(frozen=True)
class Team:
    """A set of valuations; each valuation is a 0/1 tuple over `domain`."""

    domain: tuple[str, ...]
    members: frozenset[tuple[int, ...]]

    def __post_init__(self):
        object.__setattr__(self, "domain", tuple(self.domain))
        object.__setattr__(self, "members", frozenset(tuple(v) for v in self.members))
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
        return Team(tuple(obj["vars"]),
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
                out = all(not self.sat(1 << v, c) for v in self._members(mask))
            case And(l, r):
                out = self.sat(mask, l) and self.sat(mask, r)
            case Or(l, r):
                out = self._sat_split(mask, l, r)
            case Gd(l, r):
                out = self.sat(mask, l) or self.sat(mask, r)
        self._memo[key] = out
        return out

    def _members(self, mask: int):
        v = 0
        while mask:
            if mask & 1:
                yield v
            mask >>= 1
            v += 1

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
                i = self.domain.index(name)
                bad = 0
                for v in range(self.nvals):
                    if not (v >> (self.n - 1 - i)) & 1:
                        bad |= 1 << v
                out = self._avoiding(bad)
            case Bot():
                out = 1
            case Neg(c):
                sub = self.sat_set(c)
                bad = 0
                for v in range(self.nvals):
                    if (sub >> (1 << v)) & 1:
                        bad |= 1 << v
                out = self._avoiding(bad)
            case And(l, r):
                out = self.sat_set(l) & self.sat_set(r)
            case Gd(l, r):
                out = self.sat_set(l) | self.sat_set(r)
            case Or(l, r):
                out = self._or_set(self.sat_set(l), self.sat_set(r))
        self._sets[f] = out
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

    def _or_set(self, sl: int, sr: int) -> int:
        """Exact cover image {s | u : s in sl, u in sr} over team masks.

        Counts covers via zeta/Moebius transforms on the subset lattice:
        with A(t) = #{s <= t in sl} and B likewise, the number of pairs
        with union exactly t is sum_{r <= t} (-1)^{|t\\r|} A(r)B(r).

        Team t's counts sit in lane t, bits [64t, 64t + 64), of one int,
        so each transform step over valuation i is one shifted add or
        subtract on the lanes whose index has bit i clear.  The zeta
        transform runs on A and B together, A in the low and B in the high
        half of each lane; both are at most 2^16.  The lane-wise product
        goes through `array`, and the Moebius transform runs on whole
        lanes.  Every partial Moebius sum counts pairs, so it is >= 0 and
        no lane borrows.  The largest count is 2^16 * 2^16 = 2^32 at the
        four-variable cap `DEFAULT_MAX_VARS`, which is why the lanes are
        64 bits wide.  Lane masks are rebuilt per step, not kept, and each
        intermediate is freed before the next is built: at four variables
        every one of them is 512 KB.
        """
        if self.n > DEFAULT_MAX_VARS:
            raise ResourceLimit(f"cover transform over {self.n} variables "
                                f"exceeds the {DEFAULT_MAX_VARS}-variable "
                                f"lane bound")
        nbytes = self.nteams * _LANE_BYTES
        ab = self._lanes_of(sl) | self._lanes_of(sr) << _LANE // 2
        for i in range(self.nvals):
            ab += (ab & self._low_lanes(i)) << (_LANE << i)
        halves = array("I")  # 32-bit items: A(t), B(t) in some order
        halves.frombytes(ab.to_bytes(nbytes, sys.byteorder))
        del ab
        products = array("Q", map(mul, halves[::2], halves[1::2]))
        del halves
        p = int.from_bytes(products.tobytes(), sys.byteorder)
        del products
        for i in range(self.nvals):
            p -= (p & self._low_lanes(i)) << (_LANE << i)
        # a lane plus 2^63 - 1 reaches its top bit iff the lane is nonzero
        p += self._repeat((1 << _LANE - 1) - 1, _LANE)
        top = p.to_bytes(nbytes, "little")[_LANE_BYTES - 1::_LANE_BYTES]
        return int(top.translate(_ASCII_OF_TOP)[::-1], 2)

    def _lanes_of(self, mask: int) -> int:
        """Bit t of `mask` as the count 0 or 1 in lane t."""
        bits = format(mask, "b")[::-1].encode().translate(_BIT_OF_ASCII)
        buf = bytearray(self.nteams * _LANE_BYTES)
        buf[:len(bits) * _LANE_BYTES:_LANE_BYTES] = bits
        return int.from_bytes(buf, "little")

    def _low_lanes(self, i: int) -> int:
        """All-ones lanes at the team indices with bit i clear."""
        return self._repeat((1 << (_LANE << i)) - 1, _LANE << (i + 1))

    def _repeat(self, unit: int, period: int) -> int:
        """`unit` repeated every `period` bits across all lanes."""
        out, width = unit, period
        while width < self.nteams * _LANE:
            out |= out << width
            width <<= 1
        return out


def _space_for(domain, max_vars: int) -> _Space:
    """The space of all teams on `domain`, refused before anything is
    allocated beyond `max_vars` variables, capped at the four-variable size
    of a team-set mask (2^16 bits): `max_vars` can only lower that cap."""
    cap = min(max_vars, DEFAULT_MAX_VARS)
    if len(domain) > cap:
        raise ResourceLimit(f"{len(domain)} variables exceeds budget {cap}")
    return _Space(tuple(domain))


def satisfies(team: Team, f: Formula) -> bool:
    """Team satisfaction, straight from the defining clauses."""
    if not props(f) <= set(team.domain):
        raise DomainMismatch(f"{sorted(props(f) - set(team.domain))} not in "
                             f"team domain {team.domain}")
    space = _Space(team.domain)
    return space.sat(space.team_mask(team), f)


def sequent_valid(s: Sequent, max_vars: int = DEFAULT_MAX_VARS) -> bool:
    """True iff every team satisfying the antecedent satisfies the split
    disjunction of the succedent, over the sequent's own variables."""
    space = _space_for(tuple(sorted(s.props())), max_vars)
    return _bad_teams(space, s) == 0


def _bad_teams(space: _Space, s: Sequent) -> int:
    """Set of the team masks that satisfy every antecedent formula but not
    the split disjunction of the succedent.  The set of all teams is built
    only for an empty antecedent."""
    goal = space.sat_set(big_or(s.suc))
    if s.ant:
        hyp = reduce(and_, map(space.sat_set, s.ant))
    else:
        hyp = (1 << space.nteams) - 1
    return hyp & ~goal


def _ordered_masks(space: _Space) -> list[int]:
    def key(m: int):
        members = tuple(v for v in range(space.nvals) if (m >> v) & 1)
        return (len(members), members)

    return sorted(range(1 << space.nvals), key=key)


def find_countermodel_bruteforce(s: Sequent,
                                 max_vars: int = DEFAULT_MAX_VARS) -> Team | None:
    """First team (by size, then membership order) witnessing invalidity."""
    space = _space_for(tuple(sorted(s.props())), max_vars)
    bad = _bad_teams(space, s)
    if bad == 0:
        return None
    for m in _ordered_masks(space):
        if (bad >> m) & 1:
            return space.team(m)
    return None


@dataclass(frozen=True)
class ClosureReport:
    empty_team: bool
    downward_closed: bool
    union_closed: bool
    flat: bool


def closure_properties(f: Formula, domain,
                       max_vars: int = DEFAULT_MAX_VARS) -> ClosureReport:
    """Exhaustively check the four team-semantic closure properties."""
    domain = tuple(domain)
    if not props(f) <= set(domain):
        raise DomainMismatch(f"{sorted(props(f) - set(domain))} not in {domain}")
    space = _space_for(domain, max_vars)
    sat = space.sat_set(f)
    nteams = 1 << space.nvals

    empty = bool(sat & 1)

    downward = True
    for t in range(nteams):
        if not (sat >> t) & 1:
            continue
        s = (t - 1) & t
        while True:
            if not (sat >> s) & 1:
                downward = False
                break
            if s == 0:
                break
            s = (s - 1) & t
        if not downward:
            break

    sat_teams = [t for t in range(nteams) if (sat >> t) & 1]
    union = all((sat >> (a | b)) & 1 for a in sat_teams for b in sat_teams)

    flat = True
    for t in range(nteams):
        pointwise = all((sat >> (1 << v)) & 1
                        for v in range(space.nvals) if (t >> v) & 1)
        if bool((sat >> t) & 1) != pointwise:
            flat = False
            break

    # internal consistency: flatness coincides with the three-way conjunction
    assert flat == (empty and downward and union), \
        f"flatness disagreement for {f} on {domain}"
    return ClosureReport(empty, downward, union, flat)
