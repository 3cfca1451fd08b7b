"""Command-line front end.

Exit codes are a stable contract: 0 valid/ok, 1 invalid/countermodel or a
failed check, 2 usage or parse errors, 3 exhausted budget.  `--json`
switches every subcommand to machine-readable output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .calculus import (check_derivation, derivation_from_json,
                       derivation_to_json)
from .errors import (DerivationCheckError, ParseError, ResourceLimit,
                     TeamSeqError)
from .interpolation import interpolate_partition, verify_interpolant
from .prover import DEFAULT_NODE_BUDGET, Budget, prove_or_countermodel
from .resolutions import iter_resolutions, partial_resolutions
from .semantics import (DEFAULT_MAX_VARS, Team, closure_properties,
                        satisfies, sequent_valid, team_from_json,
                        team_to_json)
from .syntax import (PartitionSequent, Sequent, formula_to_json,
                     parse_formula, parse_sequent, props, render,
                     render_sequent, sequent_to_json)
from .transforms import eliminate_cuts, normalize, resolve_derivation


def _parse_plain_sequent(text: str) -> Sequent:
    s = parse_sequent(text)
    if isinstance(s, PartitionSequent):
        raise ParseError("expected an unpartitioned sequent")
    return s


def _load_json(path: str):
    """Parsed JSON of a file; unreadable, non-UTF-8 or malformed input is
    a ParseError, so it exits 2 and never reads as a verdict."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        raise ParseError(f"cannot read {path}: {e}") from e


def _nonnegative(text: str) -> int:
    """A `--budget` value; a negative one is a usage error (exit 2)."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{text!r} is not a nonnegative integer")


def _budget(args, default: int) -> int:
    return default if args.budget is None else args.budget


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(text)


def _cmd_prove(args) -> int:
    s = _parse_plain_sequent(args.sequent)
    out = prove_or_countermodel(s, node_budget=_budget(args, DEFAULT_NODE_BUDGET))
    if isinstance(out, Team):
        print(json.dumps(team_to_json(out)))
        return 1
    print(json.dumps(derivation_to_json(out)))
    return 0


def _cmd_check(args) -> int:
    d = derivation_from_json(_load_json(args.file))
    try:
        check_derivation(d)
    except DerivationCheckError as e:
        _emit(args, {"ok": False, "address": list(e.address),
                     "reason": str(e.cause)},
              f"invalid at node {list(e.address)}: {e.cause}")
        return 1
    if args.json:
        print(json.dumps({"ok": True,
                          "conclusion": sequent_to_json(d.conclusion)}))
    else:
        print(f"ok: {render_sequent(d.conclusion)}")
    return 0


def _cmd_eval(args) -> int:
    f = parse_formula(args.formula)
    team = team_from_json(_load_json(args.team))
    result = satisfies(team, f)
    _emit(args, {"satisfies": result}, "true" if result else "false")
    return 0 if result else 1


def _cmd_valid(args) -> int:
    s = _parse_plain_sequent(args.sequent)
    result = sequent_valid(s, max_vars=_budget(args, DEFAULT_MAX_VARS))
    _emit(args, {"valid": result}, "valid" if result else "invalid")
    return 0 if result else 1


def _cmd_resolutions(args) -> int:
    f = parse_formula(args.formula)
    budget = Budget(_budget(args, DEFAULT_NODE_BUDGET))
    if args.degree is None:
        out = []
        for g in iter_resolutions(f):
            budget.spend("resolution")
            out.append(g)
    else:
        out = partial_resolutions(f, args.degree,
                                  functools.partial(budget.spend,
                                                    "partial resolution"))
    rendered = sorted(render(g) for g in out)
    _emit(args, {"formulas": rendered}, "\n".join(rendered))
    return 0


def _cmd_closure(args) -> int:
    f = parse_formula(args.formula)
    domain = tuple(sorted(props(f)))
    rep = closure_properties(f, domain, max_vars=_budget(args, DEFAULT_MAX_VARS))
    payload = {"empty_team": rep.empty_team,
               "downward_closed": rep.downward_closed,
               "union_closed": rep.union_closed,
               "flat": rep.flat}
    text = "\n".join(f"{k}: {str(v).lower()}" for k, v in payload.items())
    _emit(args, payload, text)
    return 0


def _cmd_transform(args) -> int:
    """normalize / cutelim: print the transformed derivation."""
    d = derivation_from_json(_load_json(args.file))
    check_derivation(d)
    # read at call time, so the once-built parser holds no library function
    transform = normalize if args.command == "normalize" else eliminate_cuts
    print(json.dumps(derivation_to_json(transform(d))))
    return 0


def _cmd_resolve(args) -> int:
    d = derivation_from_json(_load_json(args.file))
    check_derivation(d)
    res = resolve_derivation(d)
    payload = {
        "antecedent": [formula_to_json(f) for f in res.gamma],
        "succedent": [formula_to_json(f) for f in res.delta],
        "branches": [
            {"resolution": [formula_to_json(f) for f in xi],
             "image": [formula_to_json(f) for f in res.mapping[xi]],
             "derivation": derivation_to_json(res.branches[xi])}
            for xi in sorted(res.branches, key=lambda k: [render(f) for f in k])
        ],
    }
    print(json.dumps(payload))
    return 0


def _cmd_interpolate(args) -> int:
    p = parse_sequent(args.sequent)
    if isinstance(p, Sequent):
        # default partition: antecedent left, succedent right
        p = PartitionSequent(p.ant, (), (), p.suc)
    d = prove_or_countermodel(p.flatten(),
                              node_budget=_budget(args, DEFAULT_NODE_BUDGET))
    if isinstance(d, Team):
        _emit(args, {"valid": False, "countermodel": team_to_json(d)},
              f"not valid; countermodel {json.dumps(team_to_json(d))}")
        return 1
    res = interpolate_partition(d, p)
    report = verify_interpolant(res, p)
    if args.json:
        payload = {"interpolant": render(res.interpolant),
                   "interpolant_ast": formula_to_json(res.interpolant),
                   "verified": report.ok,
                   "oracle_checked": report.oracle_checked}
        if args.verbose:
            payload["left_derivation"] = derivation_to_json(res.left_derivation)
            payload["right_derivation"] = derivation_to_json(res.right_derivation)
        print(json.dumps(payload))
    else:
        print(render(res.interpolant))
        if args.verbose:
            print("left:", json.dumps(derivation_to_json(res.left_derivation)))
            print("right:", json.dumps(derivation_to_json(res.right_derivation)))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  `parse_args` keeps no
    state between calls, and `prog` is fixed, so `sys.argv` does not
    reach the cached parser."""
    ap = argparse.ArgumentParser(
        prog="teamseq",
        description="Sequent calculus toolkit for basic propositional team "
                    "logic.")
    ap.add_argument("--budget", type=_nonnegative, default=None,
                    help="search node budget (prove/interpolate), count of "
                         "formulas (resolutions) or variable cap "
                         "(valid/closure)")
    ap.add_argument("--json", action="store_true",
                    help="machine-readable output")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="derivation (exit 0) or countermodel "
                                     "team (exit 1)")
    p.add_argument("sequent")
    p.set_defaults(fn=_cmd_prove)

    p = sub.add_parser("check", help="check a derivation JSON file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("eval", help="evaluate a formula on a team JSON file")
    p.add_argument("formula")
    p.add_argument("--team", required=True)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("valid", help="oracle validity verdict")
    p.add_argument("sequent")
    p.set_defaults(fn=_cmd_valid)

    p = sub.add_parser("resolutions", help="resolutions, or partial "
                                           "resolutions of a given degree")
    p.add_argument("formula")
    p.add_argument("--degree", type=int, default=None)
    p.set_defaults(fn=_cmd_resolutions)

    p = sub.add_parser("closure", help="closure properties of a formula")
    p.add_argument("formula")
    p.set_defaults(fn=_cmd_closure)

    p = sub.add_parser("normalize", help="phase normal form of a derivation "
                                         "JSON file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("cutelim", help="eliminate cuts from a derivation "
                                       "JSON file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("resolve", help="classical branches per antecedent "
                                       "resolution")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_resolve)

    p = sub.add_parser("interpolate", help="interpolant of a partition "
                                           "sequent (G1 ; G2 => D1 ; D2)")
    p.add_argument("sequent")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(fn=_cmd_interpolate)

    return ap


def run(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ResourceLimit as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return 3
    except RecursionError:  # backstop for recursion outside the parsers
        print("budget exhausted: nesting too deep", file=sys.stderr)
        return 3
    except MemoryError:
        print("budget exhausted: out of memory", file=sys.stderr)
        return 3
    except (ParseError, KeyError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except TeamSeqError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
