"""Sequent interpolants from cutfree derivations, Maehara style.

A partition sequent splits each side of a sequent in two; an interpolant
of `G1 ; G2 => L1 ; D2` is a formula derivable on the left flank
(`G1 => L1, phi`) and usable on the right (`G2, phi => D2`) whose signed
variables are confined to both flanks.  The first succedent block must be
classical; otherwise no interpolant need exist.

The extraction takes two passes over the derivation.  The first assigns
each axiom its local interpolant and combines premise interpolants per
the flank holding the principal formula: a one-premise rule steps back on
that flank with `calculus.premises_of`, and a two-premise rule joins the
two interpolants with `|` (left flank; `||` for a left deep rule under a
nonclassical D2) or `&` (right flank).  The second builds both flank
derivations with `calculus.infer` and `calculus.rebuild`, which raise
ValueError on misaligned premises.  A join weakens each premise's flank
by the other premise's interpolant; that weakening is carried down as
extra context and put in where the flank is built, so each flank node is
built once, in its final context.  Both passes are memoized per node, so
a derivation whose nodes are shared is extracted in time linear in its
distinct nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .calculus import (PRINCIPAL_SIDE, Derivation, axiom, check_derivation,
                       infer, is_cutfree, premises_of, rebuild)
from .errors import (ContainsCut, NonClassicalLambda1, PartitionMismatch,
                     ResourceLimit, TeamSeqError, nesting_limited)
from .prover import DEFAULT_NODE_BUDGET, prove_or_countermodel
from .semantics import Team, sequent_valid
from .syntax import (And, BOT, Formula, Gd, Neg, Or, PartitionSequent,
                     Sequent, is_classical, mset, mset_add, signed_props)
from .transforms import _g3


@dataclass(frozen=True)
class PolarityBounds:
    positive: frozenset[str]
    negative: frozenset[str]


@dataclass(frozen=True)
class InterpolationResult:
    interpolant: Formula
    left_derivation: Derivation    # G1 => L1, interpolant
    right_derivation: Derivation   # G2, interpolant => D2
    polarity_report: PolarityBounds


@dataclass(frozen=True)
class NotEntailed:
    countermodel: Team


def _signed_union(formulas):
    pos: frozenset[str] = frozenset()
    neg: frozenset[str] = frozenset()
    for f in formulas:
        p, n = signed_props(f)
        pos |= p
        neg |= n
    return pos, neg


def polarity_bounds(p: PartitionSequent) -> PolarityBounds:
    """Allowed signed vocabulary for an interpolant of `p`."""
    g1p, g1n = _signed_union(p.gamma1)
    l1p, l1n = _signed_union(p.delta1)
    g2p, g2n = _signed_union(p.gamma2)
    d2p, d2n = _signed_union(p.delta2)
    pos = (g1p | l1n) & (g2n | d2p)
    neg = (g1n | l1p) & (g2p | d2n)
    return PolarityBounds(pos, neg)


def _allocate_weak(weak, l1, d2):
    """Assign implicit-weakening occurrences to the partition blocks,
    preferring the second block."""
    w1: list[Formula] = []
    w2: list[Formula] = []
    l1_rest, d2_rest = list(l1), list(d2)
    for w in weak or ():
        if w in d2_rest:
            d2_rest.remove(w)
            w2.append(w)
        elif w in l1_rest:
            l1_rest.remove(w)
            w1.append(w)
        else:
            raise PartitionMismatch("weakening content missing from succedent")
    return mset(w1), mset(w2), mset(l1_rest), mset(d2_rest)


def _step(d: Derivation, blocks):
    """Where the rule of `d` sits in the partition `blocks`, that is
    `(g1, g2, l1, d2)`: whether its principal formula is on the left flank
    (G1, L1) or the right one (G2, D2), the blocks of its premises, and a
    two-premise rule's implicit weakening split into its shares `(w1, w2)`
    of L1 and D2 (None for a one-premise rule)."""
    g1, g2, l1, d2 = blocks
    r = d.rule
    tag, f = r.rule, r.formula
    weak = None
    if len(d.premises) == 2:
        w1, w2, l1, d2 = _allocate_weak(r.weak, l1, d2)
        weak = w1, w2
    on_left = f in (g1 if PRINCIPAL_SIDE[tag] == "ant" else l1)
    if on_left:
        prems = [(a, g2, s, d2)
                 for a, s in premises_of(tag, g1, l1, f, r.path, r.side)]
    else:
        prems = [(g1, a, l1, s)
                 for a, s in premises_of(tag, g2, d2, f, r.path, r.side)]
    return on_left, prems, weak


def _interpolant(d: Derivation, blocks, steps: dict) -> Formula:
    """The interpolant of `d` under the partition `blocks`.  `steps` maps
    each (node, blocks) reached to its interpolant and its `_step` (None
    at an axiom), so a node shared in `d` is done once per blocks."""
    key = id(d), blocks
    hit = steps.get(key)
    if hit is not None:
        return hit[0]
    r = d.rule
    if r.rule in ("At", "LBot"):
        # At on p: bot if p is in G1 and L1, p if in G1 only, ~p if in L1
        # only, else ~bot; LBot: bot if bot is in G1, else ~bot
        g1, _, l1, _ = blocks
        p = r.formula
        if p in g1:
            phi = BOT if r.rule == "LBot" or p in l1 else p
        else:
            phi = Neg(p if r.rule == "At" and p in l1 else BOT)
        steps[key] = phi, None
        return phi
    step = on_left, prems, _ = _step(d, blocks)
    subs = [_interpolant(p, b, steps) for p, b in zip(d.premises, prems)]
    if len(subs) == 1:  # LNeg RNeg LAnd ROr RGd
        phi = subs[0]
    elif not on_left:
        phi = And(*subs)
    elif r.rule == "LGd" and not all(is_classical(g) for g in blocks[3]):
        phi = Gd(*subs)
    else:
        phi = Or(*subs)
    steps[key] = phi, step
    return phi


def _interp(d: Derivation, blocks, xl, xr, steps: dict, memo: dict):
    """The flank derivations `(left, right)` of `d` under `blocks`, which
    conclude `G1 => L1, xl, phi` and `G2, xr, phi => D2`, with `phi` and
    the rules' steps read from `steps` (`_interpolant`).

    `xl` and `xr` are premise interpolants that two-premise rules below
    the root join.  Each is put where weakening the built flank
    (`transforms.weaken`) would put it, so no flank is built twice: the
    right flank takes `xr` at its axioms, and the left flank takes `xl`
    at its axioms or as the implicit weakening of the first RAnd or LOr
    on the way up.  Neither enters the blocks the axioms are read from.
    `memo` holds the result per (node, blocks, xl, xr)."""
    key = id(d), blocks, xl, xr
    hit = memo.get(key)
    if hit is not None:
        return hit
    r = d.rule
    tag = r.rule
    phi, step = steps[id(d), blocks]

    if step is None:  # At LBot: phi is c or ~c, c the axiom's variable or bot
        g1, g2, l1, d2 = blocks
        l1, g2 = mset_add(l1, *xl), mset_add(g2, *xr)
        if isinstance(phi, Neg):
            c = phi.child
            out = (infer("RNeg", [axiom(mset_add(g1, c), l1, c)], phi),
                   infer("LNeg", [axiom(g2, mset_add(d2, c), r.formula)],
                         phi))
        else:
            out = (axiom(g1, mset_add(l1, phi), r.formula),
                   axiom(mset_add(g2, phi), d2, phi))
        memo[key] = out
        return out

    on_left, prems, weak = step
    if weak is None:  # LNeg RNeg LAnd ROr RGd
        left, right = _interp(d.premises[0], prems[0], xl, xr, steps, memo)
        out = ((rebuild(r, (left,)), right) if on_left
               else (left, rebuild(r, (right,))))
        memo[key] = out
        return out

    # RAnd LOr LGd
    (a, b), (ba, bb), (w1, w2) = d.premises, prems, weak
    p1, p2 = steps[id(a), ba][0], steps[id(b), bb][0]
    if not on_left:  # phi = p1 & p2
        la, ra = _interp(a, ba, (), mset_add(xr, p2), steps, memo)
        lb, rb = _interp(b, bb, (), mset_add(xr, p1), steps, memo)
        if tag == "RAnd":
            right = infer("LAnd", [rebuild(r, (ra, rb), w2)], phi)
        else:
            right = rebuild(r, [infer("LAnd", [e], phi) for e in (ra, rb)],
                            w2)
        out = infer("RAnd", (la, lb), phi, weak=mset_add(w1, *xl)), right
    elif isinstance(phi, Gd):  # LGd under a nonclassical D2
        la, ra = _interp(a, ba, xl, xr, steps, memo)
        lb, rb = _interp(b, bb, xl, xr, steps, memo)
        out = (rebuild(r, (infer("RGd", [la], phi, (), "L"),
                           infer("RGd", [lb], phi, (), "R"))),
               infer("LGd", (ra, rb), phi))
    else:  # phi = p1 | p2
        if tag == "LGd":  # xl goes up to the premises
            up = xl
        else:  # RAnd and LOr take xl as implicit weakening
            up, w1 = (), mset_add(w1, *xl)
        la, ra = _interp(a, ba, mset_add(up, p2), xr, steps, memo)
        lb, rb = _interp(b, bb, mset_add(up, p1), xr, steps, memo)
        left = rebuild(r, (la, lb), w1)
        out = (infer("ROr", [left], phi),
               infer("LOr", (ra, rb), phi, weak=w2))
    memo[key] = out
    return out


@nesting_limited
def interpolate_partition(d: Derivation,
                          partition: PartitionSequent) -> InterpolationResult:
    """Extract a sequent interpolant of `partition` from a cutfree
    derivation of its flattening.  The derivation is checked first, so a
    malformed one raises `DerivationCheckError`; one that uses a variant
    rule is made G3 by `transforms.eliminate_cuts`."""
    if not is_cutfree(d):
        raise ContainsCut("interpolation requires a cutfree derivation")
    if not all(is_classical(f) for f in partition.delta1):
        raise NonClassicalLambda1(
            "the first succedent block must be classical")
    if partition.flatten() != d.conclusion:
        raise PartitionMismatch(
            f"partition flattens to {partition.flatten()}, derivation "
            f"concludes {d.conclusion}")
    check_derivation(d)
    d = _g3(d)
    blocks = (partition.gamma1, partition.gamma2, partition.delta1,
              partition.delta2)
    steps: dict = {}
    phi = _interpolant(d, blocks, steps)
    left, right = _interp(d, blocks, (), (), steps, {})
    return InterpolationResult(phi, left, right, polarity_bounds(partition))


def craig_lyndon(phi: Formula, psi: Formula,
                 node_budget: int = DEFAULT_NODE_BUDGET):
    """Interpolant between an entailment's two sides, or NotEntailed with
    a countermodel."""
    out = prove_or_countermodel(Sequent((phi,), (psi,)), node_budget)
    if isinstance(out, Team):
        return NotEntailed(out)
    partition = PartitionSequent((phi,), (), (), (psi,))
    return interpolate_partition(out, partition)


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    failures: tuple[str, ...]
    oracle_checked: bool  # False: a goal was beyond the oracle's budget
    # the team space of the left and right goal, as its number of variables
    # n: the oracle ranges over its 2^(2^n) teams when n is within budget
    goal_vars: tuple[int, int]

    def __bool__(self):
        return self.ok


def verify_interpolant(result: InterpolationResult,
                       partition: PartitionSequent) -> VerificationReport:
    """Re-check an interpolation result from scratch: both flank
    derivations, their endsequents, oracle validity (within budget), and
    the polarity inclusions."""
    failures: list[str] = []
    phi = result.interpolant
    left_goal = Sequent(partition.gamma1, mset_add(partition.delta1, phi))
    right_goal = Sequent(mset_add(partition.gamma2, phi), partition.delta2)

    for name, deriv, goal in (("left", result.left_derivation, left_goal),
                              ("right", result.right_derivation, right_goal)):
        try:
            check_derivation(deriv)
        except TeamSeqError as e:
            failures.append(f"{name} derivation fails checking: {e}")
            continue
        if deriv.conclusion != goal:
            failures.append(f"{name} derivation concludes {deriv.conclusion}, "
                            f"expected {goal}")

    oracle_checked = True
    for name, goal in (("left", left_goal), ("right", right_goal)):
        try:
            if not sequent_valid(goal):
                failures.append(f"{name} sequent {goal} is not valid")
        except ResourceLimit:
            # beyond desk scale; the checked derivation still certifies
            oracle_checked = False

    bounds = polarity_bounds(partition)
    pos, neg = signed_props(phi)
    if not pos <= bounds.positive:
        failures.append(f"positive variables {sorted(pos - bounds.positive)} "
                        f"outside the allowed vocabulary")
    if not neg <= bounds.negative:
        failures.append(f"negative variables {sorted(neg - bounds.negative)} "
                        f"outside the allowed vocabulary")
    return VerificationReport(not failures, tuple(failures), oracle_checked,
                              (len(left_goal.props()),
                               len(right_goal.props())))
