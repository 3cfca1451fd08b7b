"""Shared generators and helpers for the test suite.

Random formulas and sequents are drawn with a seeded RNG: at most three
variables, bounded depth, and a bounded number of global disjunctions per
sequent side (the oracle is doubly exponential, so tests stay small).
"""

import random
from concurrent.futures import ThreadPoolExecutor

from teamseq import prover
from teamseq.calculus import (Derivation, infer, make_at, make_cut, make_lc,
                              make_lori, make_randi, premises_of)
from teamseq.prover import prove_or_countermodel
from teamseq.syntax import (And, BOT, Gd, Neg, Or, Prop, Sequent, first_gd,
                            gd_count, gd_paths, is_classical)

VARS = ("p", "q", "r")


def gen_classical(rng: random.Random, depth: int, vars=VARS):
    if depth == 0 or rng.random() < 0.3:
        return BOT if rng.random() < 0.1 else Prop(rng.choice(vars))
    roll = rng.random()
    if roll < 0.3:
        return Neg(gen_classical(rng, depth - 1, vars))
    op = And if roll < 0.65 else Or
    return op(gen_classical(rng, depth - 1, vars),
              gen_classical(rng, depth - 1, vars))


def gen_formula(rng: random.Random, depth: int, gd_budget: int, vars=VARS):
    if depth == 0 or rng.random() < 0.25:
        return BOT if rng.random() < 0.1 else Prop(rng.choice(vars))
    roll = rng.random()
    if roll < 0.2:
        return Neg(gen_classical(rng, depth - 1, vars))
    left = gen_formula(rng, depth - 1, gd_budget, vars)
    right = gen_formula(rng, depth - 1, gd_budget - gd_count(left), vars)
    ops = [And, Or]
    if gd_count(left) + gd_count(right) < gd_budget:
        ops.append(Gd)
    return rng.choice(ops)(left, right)


def gen_side(rng: random.Random, max_formulas: int, depth: int, gd_budget: int,
             vars=VARS):
    out = []
    remaining = gd_budget
    for _ in range(rng.randint(0, max_formulas)):
        f = gen_formula(rng, rng.randint(0, depth), remaining, vars)
        remaining -= gd_count(f)
        out.append(f)
    return tuple(out)


def gen_sequent(rng: random.Random, max_formulas=2, depth=4, gd_per_side=2,
                vars=VARS):
    return Sequent(gen_side(rng, max_formulas, depth, gd_per_side, vars),
                   gen_side(rng, max_formulas, depth, gd_per_side, vars))


def split_first_step(ant, suc, domain, budget):
    """Stage 1 without split on demand, the reference for the prover's
    answers: every antecedent `||` is split before stages 2 and 3 see the
    goal."""
    budget.spend("antecedent split")
    hit = first_gd(ant)
    if hit is None:
        return prover._search_branch(ant, suc, domain, budget)
    return "LGd", *hit


def identity_derivation(f) -> Derivation:
    d = prove_or_countermodel(Sequent((f,), (f,)))
    assert isinstance(d, Derivation), f
    return d


def inject_cut(d: Derivation, phi) -> Derivation:
    """Test scaffolding: detour a derivation through a cut on a succedent
    formula against its identity derivation; the endsequent is unchanged."""
    assert phi in d.conclusion.suc
    return make_cut(d, identity_derivation(phi), phi)


def variant_examples():
    """Checked derivations by the variant rules: RAndI and LOrI whose
    independent contexts include the nonclassical `q || r`, so no
    shared-context rule can join their premises, and LC."""
    p, q, r, s = (Prop(x) for x in "pqrs")
    left, right = make_at((p,), (p, Gd(q, r))), make_at((s,), (s,))
    return {"RAndI": make_randi(left, right, And(p, s)),
            "LOrI": make_lori(left, right, Or(p, s)),
            "LC": make_lc(make_at((p, p, p), (p, Gd(q, r))), p)}


def _invertible_steps(s: Sequent):
    """Root-first rule applications (tag, principal, path) whose premises
    are valid whenever `s` is: LAnd, LNeg, ROr, RNeg, LGd at any path, and
    LOr and RAnd where their right context is classical."""
    steps = []
    for f in s.ant:
        if isinstance(f, And):
            steps.append(("LAnd", f, ()))
        if isinstance(f, Neg):
            steps.append(("LNeg", f, ()))
        if isinstance(f, Or) and all(is_classical(g) for g in s.suc):
            steps.append(("LOr", f, ()))
        steps.extend(("LGd", f, path) for path in gd_paths(f))
    for i, f in enumerate(s.suc):
        if isinstance(f, Or):
            steps.append(("ROr", f, ()))
        if isinstance(f, Neg):
            steps.append(("RNeg", f, ()))
        if isinstance(f, And) and \
                all(is_classical(g) for g in s.suc[:i] + s.suc[i + 1:]):
            steps.append(("RAnd", f, ()))
    return steps


def gen_shuffled(rng: random.Random, s: Sequent, steps: int):
    """A derivation of `s` that applies up to `steps` random invertible
    rules root-first, in any order, and lets the prover finish each
    branch; None when some branch is not valid.  Unlike prover output, it
    is seldom in phase normal form."""
    choices = _invertible_steps(s) if steps > 0 else []
    if not choices:
        d = prove_or_countermodel(s)
        return d if isinstance(d, Derivation) else None
    tag, f, path = rng.choice(choices)
    prems = []
    for ant, suc in premises_of(tag, s.ant, s.suc, f, path):
        prem = gen_shuffled(rng, Sequent(ant, suc), steps - 1)
        if prem is None:
            return None
        prems.append(prem)
    return infer(tag, prems, f, path)


def inversion_candidates(concl):
    """Every (tag, position, path) that `invert` accepts on `concl`."""
    cands = []
    for pos, f in enumerate(concl.ant):
        if isinstance(f, Neg):
            cands.append(("LNeg", pos, ()))
        if isinstance(f, And):
            cands.append(("LAnd", pos, ()))
        if isinstance(f, Or):
            cands.append(("LOr", pos, ()))
        for pth in gd_paths(f):
            cands.append(("LGd", pos, pth))
    for pos, f in enumerate(concl.suc):
        if isinstance(f, Neg):
            cands.append(("RNeg", pos, ()))
        if isinstance(f, And):
            cands.append(("RAnd", pos, ()))
        if isinstance(f, Or):
            cands.append(("ROr", pos, ()))
        if all(is_classical(g) for g in concl.ant):
            for pth in gd_paths(f):
                cands.append(("RGd", pos, pth))
    return cands


def shared_chain(n: int, leaf: Derivation | None = None) -> Derivation:
    """The axiom `x0 => x0, x1, …, xn` (or `leaf`), then n RAnd steps on
    `x_k & x_k`, each with both premises the same node: n + 1 node
    objects, 2^n paths from the root to the leaf."""
    xs = [Prop(f"x{k}") for k in range(n + 1)]
    d = leaf or make_at((xs[0],), xs, xs[0])
    for x in xs[1:]:
        d = infer("RAnd", (d, d), And(x, x))
    return d


def on_fresh_stack(fn, *args):
    """`fn(*args)` in a new thread, whose stack starts empty, so the
    nesting a test reaches does not depend on the test runner's depth."""
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn, *args).result(timeout=60)
