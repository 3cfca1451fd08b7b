"""Exception types shared across the package."""

import functools


class TeamSeqError(Exception):
    """Base class for all library errors."""


class ParseError(TeamSeqError):
    """Raised on malformed surface syntax; carries position and expectation."""

    def __init__(self, message, position=None, expected=None):
        super().__init__(message)
        self.position = position
        self.expected = expected


class NonClassicalNegation(TeamSeqError):
    """A global disjunction would end up in the scope of a negation."""


class InvalidPath(TeamSeqError):
    """An occurrence path does not resolve to a subformula."""


class DomainMismatch(TeamSeqError):
    """A formula mentions variables outside a team's domain."""


class ResourceLimit(TeamSeqError):
    """An enumeration or search exceeded its configured budget.  From the
    prover, `unit` names the unit of search that ran out; it is None
    elsewhere."""

    def __init__(self, message, unit=None):
        super().__init__(message)
        self.unit = unit


def nesting_limited(fn):
    """`fn`, with a RecursionError from input nested, or a search run, too
    deep for its recursion raised as ResourceLimit("nesting too deep")."""

    @functools.wraps(fn)
    def limited(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except RecursionError:
            raise ResourceLimit("nesting too deep") from None

    return limited


class DegreeOutOfRange(TeamSeqError):
    """A partial-resolution degree outside 0..count of global disjunctions."""


class RuleViolation(TeamSeqError):
    """An inference fails a rule's side conditions or context arithmetic."""

    def __init__(self, rule, reason):
        super().__init__(f"{rule}: {reason}")
        self.rule = rule
        self.reason = reason


class ArityMismatch(RuleViolation):
    """A rule application has the wrong number of premises."""


class DerivationCheckError(TeamSeqError):
    """A derivation tree failed checking; `address` locates the bad node."""

    def __init__(self, address, cause):
        super().__init__(f"at node {list(address)}: {cause}")
        self.address = tuple(address)
        self.cause = cause


class ShapeMismatch(TeamSeqError):
    """A transformation was asked for on a derivation of the wrong shape."""


class NonClassicalAntecedent(TeamSeqError):
    """Right global-disjunction inversion requires a classical antecedent."""


class NonClassicalRightContraction(TeamSeqError):
    """Right contraction is only admissible for classical formulas."""


class FormulaNotDuplicated(TeamSeqError):
    """Contraction target does not occur twice on the chosen side."""


class ContainsCut(TeamSeqError):
    """A cutfree-only transformation received a derivation with cut."""


class NonClassicalInput(TeamSeqError):
    """A classical-only routine received a nonclassical formula."""


class NonClassicalLambda1(TeamSeqError):
    """Interpolation requires the first succedent block to be classical."""


class PartitionMismatch(TeamSeqError):
    """A partition sequent does not flatten to the derivation's endsequent."""
