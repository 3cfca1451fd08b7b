"""Sequent calculus toolkit for basic propositional team logic.

Formulas combine a classical core with a second, global disjunction; teams
(sets of valuations) interpret them.  The package decides sequent validity
by proof search with countermodel extraction, checks and transforms proof
objects (inversion, phase normal form, cut elimination), and extracts
interpolants from cutfree derivations.
"""

from .calculus import (Derivation, RuleApp, check_derivation, check_inference,
                       cutrank, derivation_from_json, derivation_to_json,
                       height, is_cutfree)
from .errors import (ArityMismatch, ContainsCut, DegreeOutOfRange,
                     DerivationCheckError, DomainMismatch,
                     FormulaNotDuplicated, InvalidPath,
                     NonClassicalAntecedent, NonClassicalInput,
                     NonClassicalLambda1, NonClassicalNegation,
                     NonClassicalRightContraction, ParseError,
                     PartitionMismatch, ResourceLimit, RuleViolation,
                     ShapeMismatch, TeamSeqError)
from .interpolation import (InterpolationResult, NotEntailed, PolarityBounds,
                            VerificationReport, craig_lyndon,
                            interpolate_partition, polarity_bounds,
                            verify_interpolant)
from .prover import (ClassicalCountermodel, prove_classical,
                     prove_or_countermodel)
from .resolutions import (partial_resolutions, resolution_steps, resolutions,
                          resolutions_multiset)
from .semantics import (ClosureReport, Team, big_and, big_or,
                        closure_properties, eval_classical,
                        find_countermodel_bruteforce, satisfies,
                        sequent_valid, team_from_json, team_to_json)
from .syntax import (And, BOT, Bot, Formula, Gd, Neg, Or, PartitionSequent,
                     Prop, Sequent, formula_from_json, formula_to_json, gd_paths,
                     is_classical, parse_formula, parse_sequent, props, render,
                     render_sequent, sequent_from_json, sequent_to_json,
                     signed_props, subformula_at, substitute_at, symbol_count)
from .transforms import (ResolvedDerivation, contract, eliminate_cuts, invert,
                         is_normal, normalize, reassemble, resolve_derivation,
                         weaken)

__version__ = "0.1.0"
