"""Sequent interpolants from cutfree derivations, Maehara style.

A partition sequent splits each side of a sequent in two; an interpolant
of `G1 ; G2 => L1 ; D2` is a formula derivable on the left flank
(`G1 => L1, phi`) and usable on the right (`G2, phi => D2`) whose signed
variables are confined to both flanks.  The first succedent block must be
classical; otherwise no interpolant need exist.

The extraction walks the derivation once, assigning each axiom its local
interpolant and combining premise interpolants per the flank holding the
principal formula: a one-premise rule steps back on that flank with
`calculus.premises_of` and is rebuilt there, and a two-premise rule joins
the two interpolants with `|` (left flank; `||` for a left deep rule under
a nonclassical D2) or `&` (right flank).  Both flank derivations are built
alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

from .calculus import (PRINCIPAL_SIDE, Derivation, check_derivation,
                       is_cutfree, make_at, make_land, make_lbot, make_lgd,
                       make_lneg, make_lor, make_rand, make_rgd, make_rneg,
                       make_ror, premises_of, rebuild)
from .errors import (ContainsCut, NonClassicalLambda1, PartitionMismatch,
                     ResourceLimit, ShapeMismatch, TeamSeqError)
from .prover import DEFAULT_NODE_BUDGET, prove_or_countermodel
from .semantics import Team, sequent_valid
from .syntax import (And, BOT, Bot, Formula, Gd, Neg, Or, PartitionSequent,
                     Sequent, is_classical, mset, mset_add, signed_props)
from .transforms import weaken


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


def _interp(d: Derivation, g1, g2, l1, d2):
    """Returns (interpolant, left derivation, right derivation)."""
    r = d.rule
    tag = r.rule

    if tag == "Cut":
        raise ContainsCut("interpolation requires a cutfree derivation")

    if tag == "At":
        p = r.formula
        in_g1 = p in g1
        in_l1 = p in l1
        if in_g1 and in_l1:
            return (BOT,
                    make_at(g1, mset_add(l1, BOT), p),
                    make_lbot(mset_add(g2, BOT), d2))
        if in_g1:
            return (p,
                    make_at(g1, mset_add(l1, p), p),
                    make_at(mset_add(g2, p), d2, p))
        if in_l1:
            np = Neg(p)
            return (np,
                    make_rneg(make_at(mset_add(g1, p), l1, p), np),
                    make_lneg(make_at(g2, mset_add(d2, p), p), np))
        nb = Neg(BOT)
        return (nb,
                make_rneg(make_lbot(mset_add(g1, BOT), l1), nb),
                make_lneg(make_at(g2, mset_add(d2, BOT), p), nb))

    if tag == "LBot":
        if Bot() in g1:
            return (BOT,
                    make_lbot(g1, mset_add(l1, BOT)),
                    make_lbot(mset_add(g2, BOT), d2))
        nb = Neg(BOT)
        return (nb,
                make_rneg(make_lbot(mset_add(g1, BOT), l1), nb),
                make_lneg(make_lbot(g2, mset_add(d2, BOT)), nb))

    if tag not in PRINCIPAL_SIDE:
        raise ShapeMismatch(f"interpolation does not handle rule {tag}")
    f = r.formula
    if len(d.premises) == 2:
        w1, w2, l1, d2 = _allocate_weak(r.weak, l1, d2)
    # the flank holding the principal formula: (G1, L1) or (G2, D2)
    on_left = f in (g1 if PRINCIPAL_SIDE[tag] == "ant" else l1)
    if on_left:
        prems = premises_of(tag, g1, l1, f, r.path, r.side)
        subs = [_interp(p, a, g2, s, d2) for p, (a, s) in zip(d.premises, prems)]
    else:
        prems = premises_of(tag, g2, d2, f, r.path, r.side)
        subs = [_interp(p, g1, a, l1, s) for p, (a, s) in zip(d.premises, prems)]

    if len(subs) == 1:  # LNeg RNeg LAnd ROr RGd
        phi, l, rr = subs[0]
        if on_left:
            return phi, rebuild(r, (l,)), rr
        return phi, l, rebuild(r, (rr,))

    # RAnd LOr LGd
    (p1, la, ra), (p2, lb, rb) = subs
    if not on_left:
        phi = And(p1, p2)
        inner = (weaken(ra, "L", p2), weaken(rb, "L", p1))
        if tag == "RAnd":
            right = make_land(rebuild(r, inner, w2), phi)
        else:
            right = rebuild(r, [make_land(e, phi) for e in inner], w2)
        return phi, make_rand(la, lb, phi, w1), right
    if tag == "LGd" and not all(is_classical(g) for g in d2):
        phi = Gd(p1, p2)
        left = rebuild(r, (make_rgd(la, phi, (), "L"), make_rgd(lb, phi, (), "R")))
        return phi, left, make_lgd(ra, rb, phi, ())
    phi = Or(p1, p2)
    left = rebuild(r, (weaken(la, "R", p2), weaken(lb, "R", p1)), w1)
    return phi, make_ror(left, phi), make_lor(ra, rb, phi, w2)


def interpolate_partition(d: Derivation,
                          partition: PartitionSequent) -> InterpolationResult:
    """Extract a sequent interpolant of `partition` from a cutfree
    derivation of its flattening.  The derivation is checked first, so a
    malformed one raises `DerivationCheckError`."""
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
    phi, left, right = _interp(d, partition.gamma1, partition.gamma2,
                               partition.delta1, partition.delta2)
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
    return VerificationReport(not failures, tuple(failures), oracle_checked)
