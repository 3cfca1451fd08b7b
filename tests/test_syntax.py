import copy
import dataclasses
import gc
import pickle
import random
import sys
import threading
import time
import weakref

import pytest

from teamseq import syntax
from teamseq.calculus import Derivation, check_derivation
from teamseq.errors import (InvalidPath, NonClassicalNegation, ParseError,
                            ResourceLimit)
from teamseq.prover import prove_or_countermodel
from teamseq.semantics import big_and, big_or
from teamseq.syntax import (And, BOT, Bot, Gd, Neg, Or, PartitionSequent,
                            Prop, Sequent, children, first_gd,
                            formula_from_json, formula_to_json, gd_paths,
                            gd_sides, is_classical, mset, mset_add, mset_sub,
                            parse_formula, parse_sequent, props, render,
                            sequent_from_json, sequent_to_json,
                            signed_props, subformula_at, substitute_at,
                            symbol_count)

from conftest import gen_classical, gen_formula, gen_side, on_fresh_stack

p, q, r = Prop("p"), Prop("q"), Prop("r")


def test_parse_golden():
    assert parse_formula("p || ~p") == Gd(p, Neg(p))
    assert parse_formula("p & q | r") == Or(And(p, q), r)
    assert parse_formula("bot") == BOT
    # right associativity
    assert parse_formula("p | q | r") == Or(p, Or(q, r))
    assert parse_formula("p || q || r") == Gd(p, Gd(q, r))
    # maximal munch: || is one token
    assert parse_formula("p||q") == Gd(p, q)


def test_nonclassical_negation_rejected():
    with pytest.raises(NonClassicalNegation):
        parse_formula("~(p || q)")
    with pytest.raises(NonClassicalNegation):
        Neg(Gd(p, q))
    with pytest.raises(NonClassicalNegation):
        substitute_at(Neg(p), (0,), Gd(q, r))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_formula("p & ")
    assert e.value.position is not None
    with pytest.raises(ParseError):
        parse_formula("(p")
    with pytest.raises(ParseError):
        parse_formula("p q")


def test_unexpected_character_is_named_at_its_offset():
    # whitespace before the character is skipped, not reported
    for text, char, pos in [("p $ q", "$", 2), ("a é b", "é", 2),
                            ("p =", "=", 2), ("p  $", "$", 3), ("1p", "1", 0),
                            ("p =>> q", ">", 4), ("p & 9", "9", 4)]:
        for parse in (parse_formula, parse_sequent):
            with pytest.raises(ParseError) as e:
                parse(text)
            assert str(e.value) == f"unexpected character {char!r} at {pos}"
            assert (e.value.position, e.value.expected) == (pos, None)


# (text, parse_formula's error, parse_sequent's error), each error as
# (type, position, expected); a character that starts no token is reported
# before any error the parser meets on its way to it
MALFORMED = [
    ("", (ParseError, 0, "formula"), (ParseError, 0, "arrow")),
    (" ", (ParseError, 1, "formula"), (ParseError, 1, "arrow")),
    ("p &", (ParseError, 3, "formula"), (ParseError, 3, "formula")),
    ("(p", (ParseError, 2, "rpar"), (ParseError, 2, "rpar")),
    ("p)", (ParseError, 1, "eof"), (ParseError, 1, "arrow")),
    ("P", (ParseError, 0, None), (ParseError, 0, None)),
    ("x1 & Y", (ParseError, 5, None), (ParseError, 5, None)),
    ("p => q => r", (ParseError, 2, "eof"), (ParseError, 7, "eof")),
    ("p ; q => r", (ParseError, 2, "eof"), (ParseError, 10, "semi")),
    ("p => q ; r", (ParseError, 2, "eof"), (ParseError, 7, None)),
    ("; =>", (ParseError, 0, "formula"), (ParseError, 4, "semi")),
    ("~(p || q)", (NonClassicalNegation, None, None),
     (NonClassicalNegation, None, None)),
    ("p || ~(q || r)", (NonClassicalNegation, None, None),
     (NonClassicalNegation, None, None)),
    ("1p", (ParseError, 0, None), (ParseError, 0, None)),
    ("_p", (ParseError, 0, None), (ParseError, 0, None)),
    ("==> p", (ParseError, 0, None), (ParseError, 0, None)),
    ("p,,q => r", (ParseError, 1, "eof"), (ParseError, 2, "formula")),
    ("(p => q)", (ParseError, 3, "rpar"), (ParseError, 3, "rpar")),
    ("p => q r", (ParseError, 2, "eof"), (ParseError, 7, "eof")),
    ("()", (ParseError, 1, "formula"), (ParseError, 1, "formula")),
    ("~~", (ParseError, 2, "formula"), (ParseError, 2, "formula")),
    ("p ||| q", (ParseError, 4, "formula"), (ParseError, 4, "formula")),
    ("p ~ q", (ParseError, 2, "eof"), (ParseError, 2, "arrow")),
    ("bot bot", (ParseError, 4, "eof"), (ParseError, 4, "arrow")),
    ("((p)", (ParseError, 4, "rpar"), (ParseError, 4, "rpar")),
    ("p ; q", (ParseError, 2, "eof"), (ParseError, 5, "arrow")),
    ("~(p||q) $", (ParseError, 8, None), (ParseError, 8, None)),
    ("(" * 3000 + "p $", (ParseError, 3002, None), (ParseError, 3002, None)),
    ("~" * 3000 + "(p || q)", (ResourceLimit, None, None),
     (ResourceLimit, None, None)),
]


@pytest.mark.parametrize("text,formula_error,sequent_error", MALFORMED,
                         ids=[repr(row[0][:12]) for row in MALFORMED])
def test_malformed_text_errors(text, formula_error, sequent_error):
    for parse, (kind, position, expected) in ((parse_formula, formula_error),
                                              (parse_sequent, sequent_error)):
        with pytest.raises(Exception) as e:
            parse(text)
        assert type(e.value) is kind, (parse.__name__, e.value)
        assert getattr(e.value, "position", None) == position
        assert getattr(e.value, "expected", None) == expected


def _parenthesized(f):
    """The text of `f` with every binary node and negation in parentheses."""
    match f:
        case Prop(name):
            return name
        case Bot():
            return "bot"
        case Neg(c):
            return f"(~{_parenthesized(c)})"
        case And(l, r) | Or(l, r) | Gd(l, r):
            op = {And: "&", Or: "|", Gd: "||"}[type(f)]
            return f"({_parenthesized(l)} {op} {_parenthesized(r)})"


def test_parse_reads_back_rendered_and_parenthesized_text():
    rng = random.Random(41)
    for _ in range(500):
        f = gen_formula(rng, rng.randint(0, 6), 3, "pqrs")
        assert parse_formula(render(f)) is f
        assert parse_formula(_parenthesized(f)) is f
        text = _parenthesized(f)
        assert parse_formula(text.replace(" ", "")) is f
        assert parse_formula(text.replace(" ", "\n\t ")) is f
        s = Sequent(gen_side(rng, 3, 3, 2), (f,))
        assert parse_sequent(str(s)) == s


def test_render_golden():
    assert render(Gd(p, Neg(p))) == "p || ~p"
    assert render(Or(And(p, q), r)) == "p & q | r"
    assert render(And(p, Or(q, r))) == "p & (q | r)"
    assert render(Neg(Neg(p))) == "~~p"
    assert render(Neg(And(p, q))) == "~(p & q)"


def test_render_round_trip_random():
    rng = random.Random(11)
    for _ in range(400):
        f = gen_formula(rng, rng.randint(0, 5), 3)
        assert parse_formula(render(f)) == f


def test_cached_values_leave_formulas_unchanged_and_collectable():
    f = parse_formula("p & (q || ~r)")
    g = parse_formula("p & (q || ~r)")
    assert (render(f), props(f), is_classical(f)) == \
        ("p & (q || ~r)", {"p", "q", "r"}, False)
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
    assert f is g
    ref = weakref.ref(f)
    del f, g
    gc.collect()
    assert ref() is None


def test_equal_formulas_are_one_node():
    f = parse_formula("p & (q || ~r)")
    assert Bot() is BOT and parse_formula("bot") is BOT
    assert parse_formula("p&(q||~r)") is f
    assert And(Prop("p"), Gd(Prop("q"), Neg(Prop("r")))) is f
    assert formula_from_json(formula_to_json(f)) is f
    assert formula_from_json({"op": "bot"}) is BOT
    assert substitute_at(f, (1,), Prop("q")) is parse_formula("p & q")
    left, right = gd_sides(f, (1,))
    assert left is parse_formula("p & q") and right is parse_formula("p & ~r")
    assert big_or((Prop("p"), Prop("q"))) is parse_formula("p | q")
    assert big_and((Prop("p"), Prop("q"))) is parse_formula("p & q")
    assert big_or(()) is BOT and big_and(()) is Neg(BOT)
    for g in (f, BOT, Prop("p")):
        assert copy.copy(g) is g and copy.deepcopy(g) is g
        assert pickle.loads(pickle.dumps(g)) is g
    # the round trips keep the node's cached values
    assert render(copy.deepcopy(f)) == "p & (q || ~r)"


def test_identity_matches_rendering_on_random_pairs():
    rng = random.Random(23)
    same = 0
    for _ in range(300):
        f = gen_formula(rng, rng.randint(0, 3), 2)
        g = gen_formula(rng, rng.randint(0, 3), 2)
        assert (f is g) == (render(f) == render(g))
        assert (f == g) == (f is g)
        same += f is g
    assert same >= 10, same


def _subformulas(f):
    yield f
    for c in children(f):
        yield from _subformulas(c)


def _build_in_threads(seed, count=4):
    """The seeded formulas built by `count` threads at once."""
    def build(out):
        barrier.wait(timeout=60)
        rng = random.Random(seed)
        out.extend(gen_formula(rng, rng.randint(0, 5), 3, "pqrst")
                   for _ in range(300))

    barrier = threading.Barrier(count)
    built = [[] for _ in range(count)]
    threads = [threading.Thread(target=build, args=(out,)) for out in built]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    return built


def test_threads_share_one_node_per_formula():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        rounds = [_build_in_threads(seed) for seed in range(5)]
    finally:
        sys.setswitchinterval(interval)
    for built in rounds:
        assert all(len(out) == 300 for out in built)
        for nodes in zip(*built):
            assert all(n is nodes[0] for n in nodes)
        everything = [g for out in built for f in out
                      for g in _subformulas(f)]
        assert len({id(g) for g in everything}) == \
            len({render(g) for g in everything})


def test_unreferenced_nodes_leave_the_table():
    f = Neg(And(Prop("zcollected"), Prop("zcollected")))
    key = (Prop, "zcollected")
    assert key in syntax._NODES
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None
    assert key not in syntax._NODES
    assert all(entry() is not None for entry in syntax._NODES.values())


def test_refused_nodes_are_never_published():
    # a constructor checks its fields before the node is published, so a
    # refused node leaves the table as it was
    gd = Gd(p, q)
    gc.collect()
    gc.disable()
    try:
        before = dict(syntax._NODES)
        for build, error in ((lambda: Prop("bad name"), ValueError),
                             (lambda: Prop("bot"), ValueError),
                             (lambda: Neg(gd), NonClassicalNegation)):
            with pytest.raises(error):
                build()
            assert syntax._NODES.keys() == before.keys()
            assert all(syntax._NODES[k] is ref for k, ref in before.items())
    finally:
        gc.enable()


class _Stand:
    """An object a table entry can refer to weakly."""


def test_a_dead_entry_gets_a_live_node():
    # an entry whose node is gone but whose removal has not run yet: the
    # next constructor call replaces it with a live node of its own
    key = (Prop, "zdead")
    stand = _Stand()
    ref = syntax._NodeRef(stand)  # no callback: the entry outlives it
    ref.key = key
    syntax._NODES[key] = ref
    del stand
    assert ref() is None and syntax._NODES[key] is ref
    node = Prop("zdead")
    assert render(node) == "zdead" and Prop("zdead") is node
    assert syntax._NODES[key]() is node
    # a node rebuilt from its pickle once the original is collected is the
    # one the constructors return, with its stored values
    data = pickle.dumps(Neg(And(node, p)))
    gc.collect()
    f = pickle.loads(data)
    assert f is Neg(And(Prop("zdead"), p)) and render(f) == "~(zdead & p)"
    assert copy.copy(f) is f and copy.deepcopy(f) is f
    del node, f
    gc.collect()
    assert key not in syntax._NODES


def test_caches_make_no_reference_cycle():
    # proving and checking fill every lazy per-node cache (`actives`,
    # `gd_sides`, `resolution_steps`, the last on a classical formula too);
    # with the cyclic collector off, a cache that held its own node would
    # keep that node in the table after the last reference is dropped
    before = set(syntax._NODES)
    gc.disable()
    try:
        s = parse_sequent("zc0 || zc1, zc2 || zc3 => "
                          "(zc0 || zc1) | (zc2 || zc3), zc4")
        d = prove_or_countermodel(s)
        assert isinstance(d, Derivation)
        check_derivation(d)
        assert set(syntax._NODES) - before
        del s, d
        assert not set(syntax._NODES) - before
    finally:
        gc.enable()


def test_mset_add_matches_sorting():
    rng = random.Random(29)
    for _ in range(300):
        m = mset(gen_side(rng, 4, 3, 2))
        xs = gen_side(rng, 3, 3, 2) + tuple(rng.sample(m, min(len(m), 2)))
        xs = tuple(rng.sample(xs, len(xs)))  # repeats in any order
        assert mset_add(m, *xs) == mset(m + xs)


def _reference_text(f):
    """The text of `f`, rendered from scratch by recursion: `~` binds
    tightest, then `&`, `|`, `||`, each binary operator to the right."""
    def side(g, loose):
        text = _reference_text(g)
        return f"({text})" if isinstance(g, loose) else text

    match f:
        case Prop(name):
            return name
        case Bot():
            return "bot"
        case Neg(c):
            return "~" + side(c, (And, Or, Gd))
        case And(l, r):
            return f"{side(l, (And, Or, Gd))} & {side(r, (Or, Gd))}"
        case Or(l, r):
            return f"{side(l, (Or, Gd))} | {side(r, Gd)}"
        case Gd(l, r):
            return f"{side(l, Gd)} || {_reference_text(r)}"


def _reaches(values, target) -> bool:
    """Whether `target` is reachable from `values` through references
    (classes are not followed)."""
    seen, todo = set(), list(values)
    while todo:
        obj = todo.pop()
        if obj is target:
            return True
        if id(obj) not in seen and not isinstance(obj, type):
            seen.add(id(obj))
            todo.extend(gc.get_referents(obj))
    return False


def test_canonical_order_matches_a_reference_renderer():
    # every node gets its text and classicality when it is interned,
    # however it was reached, and the canonical order is the order of
    # the reference text
    rng = random.Random(37)
    nodes = [BOT]
    for _ in range(150):
        f = gen_formula(rng, rng.randint(0, 5), 3)
        nodes += [f, copy.copy(f), copy.deepcopy(f),
                  pickle.loads(pickle.dumps(f)),
                  formula_from_json(formula_to_json(f))]
        for path in gd_paths(f):
            nodes += gd_sides(f, path)
        paths = list(_occurrence_paths(f))
        nodes.append(substitute_at(f, rng.choice(paths),
                                   gen_classical(rng, 3)))
        props(f)  # fills a lazy cache too
    every = {id(g): g for f in nodes for g in _subformulas(f)}.values()
    fields = {"name", "child", "left", "right"}
    for g in every:
        assert g._text == render(g) == _reference_text(g)
        assert g._classical == is_classical(g) == (not gd_paths(g))
        cached = [v for k, v in vars(g).items() if k not in fields]
        assert not _reaches(cached, g), g
    for _ in range(300):
        xs = rng.choices(nodes, k=rng.randint(0, 6))
        want = tuple(sorted(xs, key=_reference_text))
        assert mset(xs) == want
        assert Sequent(xs, xs[::-1]) == Sequent(want, want)
        m = mset(rng.sample(xs, len(xs) // 2))
        assert mset_add(m, *mset_sub(want, m)) == want


def test_repr_is_the_dataclass_repr_at_any_depth():
    assert repr(And(p, q)) == "And(left=Prop(name='p'), right=Prop(name='q'))"
    assert repr(Gd(Neg(BOT), Or(p, q))) == (
        "Gd(left=Neg(child=Bot()), "
        "right=Or(left=Prop(name='p'), right=Prop(name='q')))")
    f = p
    for _ in range(3000):
        f = And(p, f)
    assert repr(f) == ("And(left=Prop(name='p'), right=" * 3000
                       + "Prop(name='p')" + ")" * 3000)


def test_deep_formulas_built_by_constructors():
    # past the parser's nesting limit: the text and classicality were
    # fixed level by level, so reading them takes no recursion
    f = p
    for _ in range(3000):
        f = And(p, f)
    text = "p & " * 3000 + "p"
    assert render(f) == text
    assert is_classical(f) and not is_classical(Gd(f, p))
    s = Sequent((f,), (p,))
    assert s.ant == (f,) and s.is_classical()
    assert str(s) == f"{text} => p"
    assert Neg(f) is Neg(f)
    # the JSON encoder and the variable and path walks use explicit stacks
    obj = formula_to_json(f)
    for _ in range(3000):
        assert obj["op"] == "and" and obj["l"] == {"op": "prop", "name": "p"}
        obj = obj["r"]
    assert obj == {"op": "prop", "name": "p"}
    assert sequent_to_json(s)["suc"] == [obj]
    assert signed_props(f) == ({"p"}, set())
    assert signed_props(Neg(f)) == (set(), {"p"})
    # props and substitute_at use explicit stacks too
    g = And(q, f)
    assert props(g) == {"p", "q"} and props(f) == {"p"}
    assert Sequent((g, r), ()).props() == {"p", "q", "r"}
    deep = (1,) * 3000
    assert subformula_at(f, deep) is p
    h = substitute_at(f, deep, Gd(q, r))
    assert subformula_at(h, deep) is Gd(q, r) and gd_paths(h) == (deep,)
    assert substitute_at(h, deep, p) is f
    assert gd_sides(h, deep) == (substitute_at(f, deep, q),
                                 substitute_at(f, deep, r))
    with pytest.raises(InvalidPath, match="below a leaf in p"):
        substitute_at(f, deep + (0,), q)
    assert gd_paths(f) == ()
    assert gd_paths(Gd(f, Gd(f, p))) == ((), (1,))


def test_partition_blocks_are_canonical():
    ps = PartitionSequent((r, p, q), (q, p), [r, p], iter((q, r)))
    assert (ps.gamma1, ps.gamma2, ps.delta1, ps.delta2) == \
        ((p, q, r), (p, q), (p, r), (q, r))
    assert ps == PartitionSequent((p, q, r), (p, q), (p, r), (q, r))
    assert dataclasses.replace(ps, gamma2=(r, p)).gamma2 == (p, r)
    assert dataclasses.replace(Sequent((q, p), ()), suc=(r, q)) == \
        Sequent((p, q), (q, r))


def _occurrence_paths(f, prefix=()):
    yield prefix
    for i, c in enumerate(children(f)):
        yield from _occurrence_paths(c, prefix + (i,))


def test_gd_sides_are_cached_per_path():
    rng = random.Random(31)
    for _ in range(200):
        f = gen_formula(rng, rng.randint(1, 5), 3)
        for path in gd_paths(f):
            node = subformula_at(f, path)
            sides = gd_sides(f, path)
            assert sides == (substitute_at(f, path, node.left),
                             substitute_at(f, path, node.right))
            assert gd_sides(f, path) is sides
        cached = {k for k in vars(f) if isinstance(k, tuple)}
        bad = [path for path in _occurrence_paths(f)
               if path not in gd_paths(f)] + [(2,), (0,) * 6]
        for path in bad:
            with pytest.raises(InvalidPath):
                gd_sides(f, path)
        assert {k for k in vars(f) if isinstance(k, tuple)} == cached


DEEP_TEXTS = ("p & " * 1500 + "p", "(" * 3000 + "p" + ")" * 3000,
              "~" * 3000 + "p")


def test_parse_formula_too_deep_is_a_resource_limit():
    for text in DEEP_TEXTS:
        with pytest.raises(ResourceLimit, match="nesting too deep"):
            parse_formula(text)


def test_parse_sequent_too_deep_is_a_resource_limit():
    for text in DEEP_TEXTS:
        with pytest.raises(ResourceLimit, match="nesting too deep"):
            parse_sequent(f"q => {text}")


def test_deep_parentheses_parse():
    # the parser takes one stack frame per parenthesis
    text = "(" * 900 + "p | q" + ")" * 900
    assert on_fresh_stack(parse_formula, text) is Or(p, q)
    assert on_fresh_stack(parse_sequent, f"{text} => {text}") == \
        Sequent((Or(p, q),), (Or(p, q),))


def test_render_deep_formula_round_trips():
    # the text is fixed when each node is interned, so render does not recurse
    f = parse_formula("p & " * 900 + "p")
    assert parse_formula(render(f)) is f


def test_formula_from_json_too_deep_is_a_resource_limit():
    obj = {"op": "prop", "name": "p"}
    for _ in range(3000):
        obj = {"op": "neg", "c": obj}
    with pytest.raises(ResourceLimit, match="nesting too deep"):
        formula_from_json(obj)


def test_is_classical():
    assert is_classical(parse_formula("p & ~q"))
    assert not is_classical(parse_formula("p || q"))
    assert not is_classical(parse_formula("p | (q || r)"))


def test_is_classical_matches_direct_scan():
    rng = random.Random(12)
    for _ in range(200):
        f = gen_formula(rng, rng.randint(0, 5), 2)
        assert is_classical(f) == (len(gd_paths(f)) == 0)


def test_signed_props():
    assert signed_props(parse_formula("~p & p")) == ({"p"}, {"p"})
    assert signed_props(parse_formula("(p||q)|r")) == ({"p", "q", "r"}, set())
    assert signed_props(parse_formula("~p")) == (set(), {"p"})
    assert signed_props(parse_formula("~~p")) == ({"p"}, set())


def test_signed_props_cover_props():
    rng = random.Random(13)
    for _ in range(200):
        f = gen_formula(rng, rng.randint(0, 5), 3)
        pos, neg = signed_props(f)
        assert pos | neg == props(f)


def reference_signed_props(f):
    """Signed variables by a plain walk of every path, no cache."""
    pos, neg, stack = set(), set(), [(f, True)]
    while stack:
        g, parity = stack.pop()
        match g:
            case Prop(name):
                (pos if parity else neg).add(name)
            case Neg(c):
                stack.append((c, not parity))
            case And(l, r) | Or(l, r) | Gd(l, r):
                stack += (r, parity), (l, parity)
    return pos, neg


def test_signed_props_are_cached_and_visit_shared_nodes_once(monkeypatch):
    # cached pairs of subformulas are taken under either parity
    rng = random.Random(14)
    for _ in range(500):
        f = gen_formula(rng, rng.randint(0, 6), 3)
        if is_classical(f) and rng.random() < 0.5:
            f = Neg(f)
        subs = [f]
        for g in subs:
            subs.extend(children(g))
        for g in rng.sample(subs, min(2, len(subs) - 1)):
            signed_props(g)
        assert signed_props(f) == reference_signed_props(f), render(f)
        assert signed_props(f) is signed_props(f)
    f = p
    for _ in range(3000):
        f = And(p, f)
    assert signed_props(Neg(f)) == (set(), {"p"})
    # 2^20 paths over 21 shared nodes (each node's text doubles per level)
    g = q
    for _ in range(20):
        g = And(Neg(g), g)
    steps = []
    monkeypatch.setattr(syntax, "children",
                        lambda h: steps.append(h) or children(h))
    assert signed_props(Or(p, g)) == ({"p", "q"}, {"q"})
    assert props(Or(p, g)) == {"p", "q"}
    assert len(steps) <= 4 * 42


def test_substitute_at():
    host = parse_formula("p & (q || r)")
    assert substitute_at(host, (1,), q) == parse_formula("p & q")
    assert substitute_at(p, (), BOT) == BOT
    with pytest.raises(NonClassicalNegation):
        substitute_at(parse_formula("~p"), (0,), parse_formula("q || r"))
    with pytest.raises(InvalidPath):
        subformula_at(p, (0,))
    with pytest.raises(InvalidPath):
        substitute_at(host, (1, 0, 0), q)
    assert gd_sides(host, (1,)) == (parse_formula("p & q"),
                                    parse_formula("p & r"))
    with pytest.raises(InvalidPath):
        gd_sides(host, (0,))


def test_substitute_then_read_back():
    rng = random.Random(17)
    for _ in range(200):
        f = gen_formula(rng, rng.randint(1, 5), 3)
        paths = gd_paths(f)
        if not paths:
            continue
        path = rng.choice(paths)
        out = substitute_at(f, path, BOT)
        assert subformula_at(out, path) == BOT


def test_gd_paths_label_order():
    # labels follow the left-to-right position of the connective
    assert gd_paths(parse_formula("p || (q || r)")) == ((), (1,))
    assert gd_paths(parse_formula("(p || q) || r")) == ((0,), ())
    assert gd_paths(parse_formula("p & q")) == ()
    # the next deep-rule split is the lowest label, reached by descent
    rng = random.Random(19)
    for _ in range(300):
        f = gen_formula(rng, rng.randint(0, 5), 3)
        paths = gd_paths(f)
        assert first_gd((f,)) == ((f, paths[0]) if paths else None)


def test_symbol_count():
    assert symbol_count(p) == 1
    assert symbol_count(parse_formula("p & q")) == 3
    assert symbol_count(parse_formula("~(p | bot)")) == 4


def _symbols_by_paths(f):
    """The reference: one symbol per node on every path."""
    return 1 + sum(_symbols_by_paths(c) for c in children(f))


def test_symbol_count_matches_a_path_walk():
    rng = random.Random(37)
    for _ in range(500):
        f = gen_formula(rng, rng.randint(0, 6), 3)
        assert symbol_count(f) == _symbols_by_paths(f)


def test_symbol_count_costs_the_distinct_nodes():
    # 21 distinct nodes, 2^21 - 1 symbols; each level doubles the text
    # stored with the node, so the chain stays at 20 levels
    g = p
    for _ in range(20):
        g = And(g, g)
    start = time.perf_counter()
    assert symbol_count(g) == 2 ** 21 - 1
    assert time.perf_counter() - start < 0.1


def test_parse_sequent():
    s = parse_sequent("p, p => p")
    assert isinstance(s, Sequent)
    assert s.ant == (p, p)
    assert s.suc == (p,)
    s = parse_sequent("=> p || ~p")
    assert s.ant == ()
    s = parse_sequent("=>")
    assert s.ant == () and s.suc == ()


def test_parse_partition_sequent():
    ps = parse_sequent("(p||q)|r ; ~p => r|s ; q||x")
    assert isinstance(ps, PartitionSequent)
    assert ps.gamma1 == (parse_formula("(p||q)|r"),)
    assert ps.gamma2 == (Neg(p),)
    assert ps.delta1 == (parse_formula("r|s"),)
    assert ps.delta2 == (parse_formula("q||x"),)
    assert ps.flatten() == parse_sequent("(p||q)|r, ~p => r|s, q||x")
    # empty blocks
    ps2 = parse_sequent("p ; => ; p")
    assert ps2.gamma2 == () and ps2.delta1 == ()
    with pytest.raises(ParseError):
        parse_sequent("p ; q => p")


def test_sequents_are_multisets():
    assert Sequent((p, q), ()) == Sequent((q, p), ())
    assert Sequent((p, p), ()) != Sequent((p,), ())


def test_json_round_trip():
    rng = random.Random(19)
    for _ in range(100):
        f = gen_formula(rng, rng.randint(0, 4), 2)
        assert formula_from_json(formula_to_json(f)) == f
    s = parse_sequent("p, ~q => p | q, bot")
    assert sequent_from_json(sequent_to_json(s)) == s


def test_formula_json_shape():
    f = parse_formula("p || ~p")
    assert formula_to_json(f) == {
        "op": "gd", "l": {"op": "prop", "name": "p"},
        "r": {"op": "neg", "c": {"op": "prop", "name": "p"}}}


def test_bad_variable_name():
    with pytest.raises(ParseError):
        parse_formula("P")
    with pytest.raises(ParseError):
        formula_from_json({"op": "prop", "name": "P"})
    # a missing field is named, not raised as a bare KeyError
    for obj, field in [({"op": "neg"}, "'c'"), ({"op": "prop"}, "'name'"),
                       ({"op": "and", "l": {"op": "bot"}}, "'r'"),
                       ({"name": "p"}, "'op'")]:
        with pytest.raises(ParseError, match=f"missing field {field}"):
            formula_from_json(obj)
    with pytest.raises(ValueError):
        Prop("Q")
    with pytest.raises(ValueError):
        Prop("")
    # `bot` is the constant: as a variable it would render as the constant
    with pytest.raises(ValueError):
        Prop("bot")
    with pytest.raises(ParseError):
        formula_from_json({"op": "prop", "name": "bot"})
