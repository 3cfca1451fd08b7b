"""Seeded input generators, ops and reference checks for each workload.

Generators build formulas as small tuples and render them to text with
full parentheses, so the inputs do not depend on the library's own
renderer or multiset order.  The library only receives the generated
text (decide, search, interpolate) or the derivation files written from
it during set-up (rewrite).

Every op returns an output whose `summary` is compared between repeats of
the same input and between the traced and untraced passes; `reference`
checks the first output of each input outside the timed phase.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random

# ---------------------------------------------------------------------------
# Formula tuples: a variable is a str, "bot" is falsum, and compound
# formulas are ("~", f), ("&", l, r), ("|", l, r) or ("||", l, r).

BOT = "bot"


def text(f) -> str:
    if isinstance(f, str):
        return f
    if f[0] == "~":
        return f"~{text(f[1])}"
    return f"({text(f[1])} {f[0]} {text(f[2])})"


def sequent_text(ant, suc) -> str:
    return f"{', '.join(map(text, ant))} => {', '.join(map(text, suc))}"


def variables(formulas) -> set:
    out = set()
    stack = list(formulas)
    while stack:
        f = stack.pop()
        if isinstance(f, str):
            if f != BOT:
                out.add(f)
        else:
            stack.extend(f[1:])
    return out


def gd_count(f) -> int:
    if isinstance(f, str):
        return 0
    return (f[0] == "||") + sum(gd_count(c) for c in f[1:])


def or_nodes(formulas) -> set:
    """Distinct split disjunctions occurring in `formulas`."""
    out = set()
    stack = list(formulas)
    while stack:
        f = stack.pop()
        if not isinstance(f, str):
            if f[0] == "|":
                out.add(f)
            stack.extend(f[1:])
    return out


def _atom(rng, vs):
    return BOT if rng.random() < 0.1 else rng.choice(vs)


def gen_classical(rng, depth, vs):
    if depth == 0 or rng.random() < 0.3:
        return _atom(rng, vs)
    roll = rng.random()
    if roll < 0.3:
        return ("~", gen_classical(rng, depth - 1, vs))
    op = "&" if roll < 0.65 else "|"
    return (op, gen_classical(rng, depth - 1, vs),
            gen_classical(rng, depth - 1, vs))


def gen_formula(rng, depth, gd_budget, vs):
    if depth == 0 or rng.random() < 0.25:
        return _atom(rng, vs)
    if rng.random() < 0.2:
        return ("~", gen_classical(rng, depth - 1, vs))
    left = gen_formula(rng, depth - 1, gd_budget, vs)
    right = gen_formula(rng, depth - 1, gd_budget - gd_count(left), vs)
    ops = ["&", "|"]
    if gd_count(left) + gd_count(right) < gd_budget:
        ops.append("||")
    return (rng.choice(ops), left, right)


def gen_side(rng, max_formulas, depth, gd_budget, vs):
    out = []
    remaining = gd_budget
    for _ in range(rng.randint(0, max_formulas)):
        f = gen_formula(rng, rng.randint(0, depth), remaining, vs)
        remaining -= gd_count(f)
        out.append(f)
    return out


def gen_decide_sequent(rng):
    """At most three variables, depth at most 4, at most two formulas and
    two global disjunctions per side."""
    vs = ("p", "q", "r")
    return gen_side(rng, 2, 4, 2, vs), gen_side(rng, 2, 4, 2, vs)


def derivation_nodes(d) -> int:
    n, stack = 0, [d]
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(node.premises)
    return n


# ---------------------------------------------------------------------------

class Decide:
    """Random sequents, about 30% valid: parse, decide, certify."""

    name = "decide"
    pool_size = 8000
    trace_ops = 1500
    tail_pct = 99

    def build(self, tq, rng, workdir):
        return [sequent_text(*gen_decide_sequent(rng))
                for _ in range(self.pool_size)]

    def op(self, tq, item):
        s = tq.syntax.parse_sequent(item)
        out = tq.prover.prove_or_countermodel(s)
        if isinstance(out, tq.calculus.Derivation):
            tq.calculus.check_derivation(out)
            cert = tq.calculus.is_cutfree(out) and out.conclusion == s
            return True, cert, None
        sat = tq.semantics.satisfies
        cert = all(sat(out, f) for f in s.ant) and \
            not sat(out, tq.semantics.big_or(s.suc))
        return False, cert, out

    def summary(self, out):
        return out

    def reference(self, tq, item, out):
        valid, cert, _ = out
        if not cert:
            return "result not certified"
        truth = tq.semantics.sequent_valid(tq.syntax.parse_sequent(item))
        if truth != valid:
            return f"verdict {valid}, oracle says {truth}"
        return None


class Search:
    """Two parametric families, valid by construction: prove and check.

    Stage-1 heavy: a0||b0, ..., => (a0||b0) | ... (antecedent splits).
    Stage-2 heavy: b0 & ... => (a0||b0) & ... (the all-b succedent
    resolution is the last candidate, so stage 2 tries all 2^n).
    The seed picks the variable names, the orientation of each stage-1
    pair and the order of pairs and instances; sizes are fixed.
    """

    name = "search"
    # a split op (7 pairs, about 0.2 s) costs about 1.5 times a resolve op
    # (9 pairs); with three of the former to five of the latter, the median
    # falls inside the resolve ops and the p80 tail inside the split ops,
    # each away from the boundary between them, so a stage-2 change moves
    # op_p50_ms and a stage-1 change moves op_tail_ms
    sizes = (("split", 7),) * 3 + (("resolve", 9),) * 5
    trace_ops = 8
    tail_pct = 80

    @staticmethod
    def _names(rng, n):
        alphabet = "abcdefghijklmnopqrstuvwxyz"
        pool = [c + d for c in alphabet for d in alphabet + "0123456789"]
        return rng.sample(pool, 2 * n)

    def instance(self, rng, family, n):
        names = self._names(rng, n)
        pairs = [(names[2 * i], names[2 * i + 1]) for i in range(n)]
        rng.shuffle(pairs)
        if family == "split":
            pairs = [p if rng.random() < 0.5 else p[::-1] for p in pairs]
            ant = [("||", a, b) for a, b in pairs]
            suc = [ant[0]]
            for g in ant[1:]:
                suc = [("|", suc[0], g)]
            return sequent_text(ant, suc)
        conj = [b for _, b in pairs]
        gds = [("||", a, b) for a, b in pairs]
        left, right = conj[0], gds[0]
        for b, g in zip(conj[1:], gds[1:]):
            left, right = ("&", left, b), ("&", right, g)
        return sequent_text([left], [right])

    def build(self, tq, rng, workdir):
        items = [self.instance(rng, fam, n) for fam, n in self.sizes]
        rng.shuffle(items)
        return items

    def op(self, tq, item):
        s = tq.syntax.parse_sequent(item)
        d = tq.prover.prove_or_countermodel(s)
        if not isinstance(d, tq.calculus.Derivation):
            return False, None
        tq.calculus.check_derivation(d)
        return True, d

    def summary(self, out):
        return out[0], out[1] is not None and out[1].conclusion

    def reference(self, tq, item, out):
        proved, d = out
        if not proved:
            return "valid by construction, but a countermodel was returned"
        if not tq.calculus.is_cutfree(d):
            return "derivation has a cut"
        if d.conclusion != tq.syntax.parse_sequent(item):
            return "endsequent differs from the input"
        return None


GOLDEN_INTERPOLATION = "(p||q)|r ; ~p => r|s ; q||x"


class Interpolate:
    """Partition sequents G1 ; G2 => D1 ; D2 whose flattening is valid.

    The left flank (G1, D1) uses exactly a, b, p, q and the right flank
    (G2, D2) exactly p, q, x, y, so both oracle goals of
    `verify_interpolant` have four variables and the oracle always runs.
    G1 allows `|` only under `~`, D1 allows `&` only under `~`, and
    neither has `||`; then no rule of the extraction builds a `|` in the
    interpolant.  The `|` nodes of both goals are then those of the input
    plus the ones `big_or` adds, and candidates are kept when that count
    is exactly one: every op makes one four-variable cover transform
    (`_or_set`).  The golden sequent, which makes seven, is the first
    input of every pool.
    """

    name = "interpolate"
    pool_size = 48
    trace_ops = 12
    tail_pct = 75
    left_vars = ("a", "b", "p", "q")
    right_vars = ("p", "q", "x", "y")

    def _conj(self, rng, depth):
        """G1 shape: `&` and `~` over the D1 shape; no `bot`, which would
        make most candidates trivially valid."""
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(self.left_vars)
        if rng.random() < 0.7:
            return ("&", self._conj(rng, depth - 1), self._conj(rng, depth - 1))
        return ("~", self._disj(rng, depth - 1))

    def _disj(self, rng, depth):
        """D1 shape without `|`: literals and `~` over the G1 shape."""
        if depth == 0 or rng.random() < 0.5:
            return rng.choice(self.left_vars)
        return ("~", self._conj(rng, depth - 1))

    def _team(self, rng, depth, gd_budget):
        """G2 and D2 shape without `|`: `&`, `||`, and `~` over `&`."""
        vs = self.right_vars
        if depth == 0 or rng.random() < 0.25:
            return _atom(rng, vs)
        if rng.random() < 0.2:
            f = _atom(rng, vs)
            for _ in range(rng.randint(0, depth - 1)):
                f = ("&", f, _atom(rng, vs)) if rng.random() < 0.6 else ("~", f)
            return ("~", f)
        left = self._team(rng, depth - 1, gd_budget)
        right = self._team(rng, depth - 1, gd_budget - gd_count(left))
        op = "||" if gd_count(left) + gd_count(right) < gd_budget \
            and rng.random() < 0.5 else "&"
        return (op, left, right)

    def candidate(self, rng):
        """A partition sequent with one `|` in the oracle goals: either D1
        holds one formula (`big_or` joins it to the interpolant), or one
        formula of G2, D2 gets a top-level `|`."""
        g1 = [self._conj(rng, 3)]
        d1 = [self._disj(rng, 2)] if rng.random() < 0.5 else []
        g2 = [self._team(rng, 3, 1) for _ in range(rng.randint(1, 2))]
        d2 = [self._team(rng, 3, 1)]
        if not d1:
            right = g2 + d2
            k = rng.randrange(len(right))
            right[k] = ("|", right[k], self._team(rng, 1, 0))
            g2, d2 = right[:-1], right[-1:]
        if variables(g1 + d1) != set(self.left_vars) or \
                variables(g2 + d2) != set(self.right_vars):
            return None
        covers = (len(or_nodes(g1 + d1)) + len(d1)
                  + len(or_nodes(g2 + d2)) + len(d2) - 1)
        if covers != 1:
            return None

        def block(fs):
            return ", ".join(map(text, fs))

        return f"{block(g1)} ; {block(g2)} => {block(d1)} ; {block(d2)}"

    def build(self, tq, rng, workdir):
        items = [GOLDEN_INTERPOLATION]
        while len(items) < self.pool_size:
            t = self.candidate(rng)
            if t is None:
                continue
            p = tq.syntax.parse_sequent(t)
            if isinstance(tq.prover.prove_or_countermodel(p.flatten()),
                          tq.calculus.Derivation):
                items.append(t)
        return items

    def op(self, tq, item):
        p = tq.syntax.parse_sequent(item)
        d = tq.prover.prove_or_countermodel(p.flatten())
        if not isinstance(d, tq.calculus.Derivation):
            return None, None
        res = tq.interpolation.interpolate_partition(d, p)
        return tq.interpolation.verify_interpolant(res, p), res

    def summary(self, out):
        report, res = out
        return (report is not None and report.ok,
                res is not None and res.interpolant)

    def reference(self, tq, item, out):
        report, res = out
        if report is None:
            return "valid flattening, but a countermodel was returned"
        if not report.ok:
            return "verify_interpolant failed: " + "; ".join(report.failures)
        p = tq.syntax.parse_sequent(item)
        bounds = tq.interpolation.polarity_bounds(p)
        pos, neg = tq.syntax.signed_props(res.interpolant)
        if not (pos <= bounds.positive and neg <= bounds.negative):
            return "interpolant outside the polarity bounds"
        left = tq.syntax.Sequent(p.gamma1, p.delta1 + (res.interpolant,))
        right = tq.syntax.Sequent(p.gamma2 + (res.interpolant,), p.delta2)
        if max(len(left.props()), len(right.props())) > \
                tq.semantics.DEFAULT_MAX_VARS:
            return "a flank goal is beyond the oracle's variable cap"
        return None


class Rewrite:
    """Derivations of random valid decide-shape sequents with one injected
    cut, written as JSON during set-up, plus the cutfree result of
    eliminating that cut.  Each input yields four CLI ops.

    The pool holds the same number of inputs in each half-octave size
    class of the cut derivation, from 8 to 127 nodes, so that the work
    per pass depends little on the seed.
    """

    name = "rewrite"
    per_class = 8
    size_classes = tuple(range(6, 14))  # floor(2 log2(nodes)): 8..127
    trace_ops = 160
    tail_pct = 90
    commands = (("cutelim", "cut"), ("normalize", "free"),
                ("resolve", "free"), ("check", "cut"))

    def build(self, tq, rng, workdir):
        os.makedirs(workdir, exist_ok=True)
        prove = tq.prover.prove_or_countermodel
        chosen = {c: [] for c in self.size_classes}
        while any(len(v) < self.per_class for v in chosen.values()):
            ant, suc = gen_decide_sequent(rng)
            if not suc:
                continue
            d = prove(tq.syntax.parse_sequent(sequent_text(ant, suc)))
            if not isinstance(d, tq.calculus.Derivation):
                continue
            phi = tq.syntax.parse_formula(text(rng.choice(suc)))
            ident = prove(tq.syntax.Sequent((phi,), (phi,)))
            cut = tq.calculus.make_cut(d, ident, phi)
            size = int(2 * math.log2(derivation_nodes(cut)))
            if size in chosen and len(chosen[size]) < self.per_class:
                chosen[size].append(cut)
        items = []
        for n, cut in enumerate(c for v in chosen.values() for c in v):
            files = {"cut": cut, "free": tq.transforms.eliminate_cuts(cut)}
            paths = {}
            for kind, deriv in files.items():
                paths[kind] = os.path.join(workdir, f"{kind}{n:04d}.json")
                with open(paths[kind], "w", encoding="utf-8") as fh:
                    json.dump(tq.calculus.derivation_to_json(deriv), fh)
            items.extend((cmd, paths[kind]) for cmd, kind in self.commands)
        rng.shuffle(items)
        return items

    def digest_text(self, items):
        parts = []
        for cmd, path in items:
            with open(path, encoding="utf-8") as fh:
                parts.append(f"{cmd} {fh.read()}")
        return "\n".join(parts)

    def op(self, tq, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = tq.cli.run(list(item))
        return rc, buf.getvalue()

    def summary(self, out):
        return out[0], hash(out[1])

    def reference(self, tq, item, out):
        cmd, path = item
        rc, stdout = out
        if rc != 0:
            return f"{cmd} exited {rc}"
        cal = tq.calculus
        with open(path, encoding="utf-8") as fh:
            source = cal.derivation_from_json(json.load(fh))
        if cmd == "check":
            return None if stdout.startswith("ok:") else "check did not say ok"
        payload = json.loads(stdout)
        if cmd == "resolve":
            f = tq.syntax.formula_from_json
            seq = tq.syntax.Sequent(tuple(map(f, payload["antecedent"])),
                                    tuple(map(f, payload["succedent"])))
            derivs = [cal.derivation_from_json(b["derivation"])
                      for b in payload["branches"]]
            if not derivs:
                return "resolve returned no branches"
        else:
            derivs = [cal.derivation_from_json(payload)]
            seq = derivs[0].conclusion
        if seq != source.conclusion:
            return f"{cmd} changed the endsequent"
        for d in derivs:
            cal.check_derivation(d)
            if not cal.is_cutfree(d):
                return f"{cmd} output has a cut"
            if cmd == "normalize" and not tq.transforms.is_normal(d):
                return "normalize output is not in phase normal form"
            if cmd == "resolve" and not d.conclusion.is_classical():
                return "resolve branch is not classical"
        return None


WORKLOADS = {w.name: w for w in (Decide(), Search(), Interpolate(), Rewrite())}


def digest_text(workload, items) -> str:
    custom = getattr(workload, "digest_text", None)
    return custom(items) if custom else "\n".join(items)


def seeded_rng(workload, seed: int) -> random.Random:
    return random.Random(f"{workload.name}:{seed}")
