import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from itertools import product
from pathlib import Path

from teamseq import cli
from teamseq.calculus import (check_derivation, derivation_from_json,
                              derivation_to_json, is_cutfree)
from teamseq.cli import run
from teamseq.resolutions import partial_resolutions, resolutions
from teamseq.semantics import team_from_json
from teamseq.syntax import parse_formula, parse_sequent, render
from teamseq.transforms import eliminate_cuts, is_normal, normalize

from conftest import (gen_sequent, gen_shuffled, inject_cut, on_fresh_stack,
                      variant_examples)


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_prove_countermodel_exit_1(capsys):
    code, out = invoke(capsys, "prove", "p||(p|~p) => p||~p")
    assert code == 1
    team = team_from_json(json.loads(out))
    assert team.domain == ("p",)
    assert team.members == {(0,), (1,)}


def test_prove_valid_exit_0(capsys):
    code, out = invoke(capsys, "prove", "p => p")
    assert code == 0
    d = derivation_from_json(json.loads(out))
    assert d.conclusion == parse_sequent("p => p")


def test_check_round_trip(tmp_path, capsys):
    code, derivation = invoke(capsys, "prove", "p & q => q & p")
    path = tmp_path / "d.json"
    path.write_text(derivation)
    code, out = invoke(capsys, "check", str(path))
    assert code == 0
    # corrupt it
    blob = json.loads(path.read_text())
    blob["nodes"][-1]["conclusion"]["ant"] = []
    path.write_text(json.dumps(blob))
    code, out = invoke(capsys, "check", str(path))
    assert code == 1
    # a malformed variable name is an input error, not a failed check
    path.write_text(json.dumps(blob).replace('"name": "p"', '"name": "P"'))
    assert invoke(capsys, "check", str(path))[0] == 2
    # so is a field of the wrong JSON type
    for field, value in (("pos", "x"), ("premises", 5)):
        bad = json.loads(derivation)
        node = bad["nodes"][-1]
        (node["rule"] if field == "pos" else node)[field] = value
        path.write_text(json.dumps(bad))
        assert invoke(capsys, "check", str(path))[0] == 2, field
    # a deep-rule path that leaves its formula fails the check at its node
    code, derivation = invoke(capsys, "prove", "p || q => p, q")
    bad = json.loads(derivation)
    assert bad["nodes"][-1]["rule"]["rule"] == "LGd"
    bad["nodes"][-1]["rule"]["path"] = [2]
    path.write_text(json.dumps(bad))
    code, out = invoke(capsys, "--json", "check", str(path))
    assert code == 1 and json.loads(out)["address"] == []


def test_check_builds_the_json_payload_only_under_json(tmp_path, capsys,
                                                       monkeypatch):
    _, derivation = invoke(capsys, "prove", "p & q => q & p")
    path = tmp_path / "d.json"
    path.write_text(derivation)
    assert invoke(capsys, "--json", "check", str(path)) == \
        (0, '{"ok": true, "conclusion": {"ant": [{"op": "and", "l": '
            '{"op": "prop", "name": "p"}, "r": {"op": "prop", "name": "q"}}], '
            '"suc": [{"op": "and", "l": {"op": "prop", "name": "q"}, '
            '"r": {"op": "prop", "name": "p"}}]}}\n')

    def refuse(_sequent):
        raise AssertionError("text output built the JSON payload")

    monkeypatch.setattr(cli, "sequent_to_json", refuse)
    assert invoke(capsys, "check", str(path)) == (0, "ok: p & q => q & p\n")


def test_valid_exit_codes(capsys):
    assert invoke(capsys, "valid", "p => p")[0] == 0
    code, out = invoke(capsys, "valid", "p => q")
    assert code == 1 and out.strip() == "invalid"


def test_eval(tmp_path, capsys):
    path = tmp_path / "team.json"
    path.write_text(json.dumps({"vars": ["p"], "team": [[1]]}))
    code, out = invoke(capsys, "eval", "p || ~p", "--team", str(path))
    assert code == 0 and out.strip() == "true"
    path.write_text(json.dumps({"vars": ["p"], "team": [[1], [0]]}))
    code, out = invoke(capsys, "eval", "p || ~p", "--team", str(path))
    assert code == 1 and out.strip() == "false"
    # rows that are not 0/1 valuations of the domain are input errors,
    # 1.0 and true too, which equal 1 and would merge with a row [1]
    for rows in ([[2]], [[1, 0]], [[1.0]], [[True]], [[1], [True]]):
        path.write_text(json.dumps({"vars": ["p"], "team": rows}))
        assert invoke(capsys, "eval", "p", "--team", str(path))[0] == 2
    # one team over six variables, far beyond the oracle's sweep cap
    path.write_text(json.dumps({"vars": list("abcdef"),
                                "team": [[1, 0, 0, 0, 0, 0],
                                         [0, 1, 0, 0, 0, 0],
                                         [1, 1, 1, 1, 0, 1]]}))
    code, out = invoke(capsys, "eval", "(a || b) | ~f", "--team", str(path))
    assert code == 0 and out.strip() == "true"
    code, out = invoke(capsys, "eval", "a || b", "--team", str(path))
    assert code == 1 and out.strip() == "false"
    # a repeated variable or a string for `vars` is an input error, not
    # a verdict read off one of the two columns
    for obj in ({"vars": ["p", "p"], "team": [[1, 0]]},
                {"vars": ["p", "p"], "team": [[0, 1]]},
                {"vars": "pq", "team": [[1, 0]]},
                {"vars": ["bot"], "team": [[1]]},
                {"vars": ["p", "q"], "team": [[1.0, True]]}):
        path.write_text(json.dumps(obj))
        assert invoke(capsys, "eval", "p", "--team", str(path))[0] == 2


def test_eval_is_bounded_on_long_and_wide_teams(tmp_path, capsys):
    # a team is read in the space of its own rows: `|` up to 16 rows,
    # beyond that exit 3 before any set over its subteams is built, and
    # every other formula on any number of rows and variables
    path = tmp_path / "team.json"

    def evaluated(formula, names, rows):
        path.write_text(json.dumps({"vars": names, "team": rows}))
        capsys.readouterr()
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code = run(["eval", formula, "--team", str(path)])
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0 and peak < 100_000_000, (formula, elapsed,
                                                      peak)
        out = capsys.readouterr()
        return code, out.out.strip() or out.err.strip()

    def full(n):
        return ([f"p{i}" for i in range(n)],
                [list(v) for v in product((0, 1), repeat=n)])

    assert evaluated("(p0 || ~p0) | (p1 || ~p1) | (p2 || ~p2) | (p3 || ~p3)",
                     *full(4)) == (1, "false")
    assert evaluated("p0 | p1", *full(5)) == \
        (3, "budget exhausted: team sets over 32 rows exceed the 16-row cap")
    for formula, answer in (("~bot & ~(p0 & ~p0)", (0, "true")),
                            ("~(p0 & p1 & p2 & p3 & p4) || p4", (1, "false")),
                            ("~~(p0 | ~p0)", (0, "true"))):
        assert evaluated(formula, *full(5)) == answer
    names, rows = [f"p{i}" for i in range(64)], [[0] * 64, [1] * 64]
    assert evaluated("(p0 | ~p63) & ~(p0 & ~p63)", names, rows) == \
        (0, "true")
    assert evaluated("p0 || p63", names, rows) == (1, "false")


def test_resolutions_degree(capsys):
    code, out = invoke(capsys, "resolutions", "p||(q||r)", "--degree", "1")
    assert code == 0
    assert out.splitlines() == ["p", "p || q", "p || r", "q || r"]
    code, out = invoke(capsys, "resolutions", "p||(q||r)")
    assert out.splitlines() == ["p", "q", "r"]


def test_resolutions_count_against_the_budget(capsys):
    # 8 conjoined `a_i || b_i`: 256 resolutions; at degree 1, 16 results
    # built from 116 formulas over all (subformula, degree) sets
    f = " & ".join(f"(a{i} || b{i})" for i in range(8))
    assert invoke(capsys, "--budget", "100", "resolutions", f) == (3, "")
    code, out = invoke(capsys, "--budget", "300", "resolutions", f)
    assert code == 0
    assert out.splitlines() == sorted(render(g)
                                      for g in resolutions(parse_formula(f)))
    assert len(out.splitlines()) == 256
    assert invoke(capsys, "--budget", "115", "resolutions", f,
                  "--degree", "1") == (3, "")
    code, out = invoke(capsys, "--budget", "116", "resolutions", f,
                       "--degree", "1")
    assert code == 0 and len(out.splitlines()) == 16
    assert out.splitlines() == sorted(
        render(g) for g in partial_resolutions(parse_formula(f), 1))
    assert invoke(capsys, "--budget", "300", "resolutions", f,
                  "--degree", "8") == (3, "")


def test_closure(capsys):
    code, out = invoke(capsys, "--json", "closure", "p || ~p")
    assert code == 0
    assert json.loads(out) == {"empty_team": True, "downward_closed": True,
                               "union_closed": False, "flat": False}
    # at the four-variable cap: 2^16 teams, each property one set operation
    for text, union in [("(p | ~p) & (q | ~q) & (r | ~r) & (s | ~s)", True),
                        ("(p || q) | (r || s)", False)]:
        start = time.perf_counter()
        code, out = invoke(capsys, "--json", "closure", text)
        assert time.perf_counter() - start < 5, text
        assert code == 0
        assert json.loads(out) == {"empty_team": True, "downward_closed": True,
                                   "union_closed": union, "flat": union}


def test_readme_examples(capsys):
    """Every README CLI example that reads no file runs and exits 0 or 1,
    or with the code its comment states."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```")[0]
    ran = 0
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        if any(arg.endswith(".json") for arg in argv):
            continue
        stated = re.search(r"exit (\d)", comment)
        expected = (int(stated[1]),) if stated else (0, 1)
        assert invoke(capsys, *argv)[0] in expected, line
        ran += 1
    assert ran >= 7


def test_normalize_cutelim_resolve(tmp_path, capsys):
    code, out = invoke(capsys, "prove", "p||q => q||p")
    path = tmp_path / "d.json"
    path.write_text(out)
    code, out = invoke(capsys, "normalize", str(path))
    assert code == 0
    derivation_from_json(json.loads(out))
    code, out = invoke(capsys, "cutelim", str(path))
    assert code == 0
    code, out = invoke(capsys, "resolve", str(path))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["branches"]) == 2
    # the implicit-weakening field is optional in derivation JSON
    code, out = invoke(capsys, "prove", "p, q => p & q")
    blob = json.loads(out)
    del blob["nodes"][-1]["rule"]["weak"]
    path.write_text(json.dumps(blob))
    for cmd in ("check", "normalize", "cutelim", "resolve"):
        assert invoke(capsys, cmd, str(path))[0] == 0


def test_variant_rule_files_are_transformed(tmp_path, capsys):
    # cutelim, normalize and resolve take every file that check accepts,
    # variant rules included, and write cutfree derivations of its
    # endsequent
    path = tmp_path / "d.json"
    for tag, d in variant_examples().items():
        path.write_text(json.dumps(derivation_to_json(d)))
        assert invoke(capsys, "check", str(path)) == \
            (0, f"ok: {d.conclusion}\n"), tag
        outs = []
        for cmd in ("cutelim", "normalize"):
            code, out = invoke(capsys, cmd, str(path))
            assert code == 0, (tag, cmd)
            outs.append(derivation_from_json(json.loads(out)))
        code, out = invoke(capsys, "resolve", str(path))
        assert code == 0, (tag, "resolve")
        branches = [derivation_from_json(b["derivation"])
                    for b in json.loads(out)["branches"]]
        assert branches
        for e in outs + branches:
            check_derivation(e)
            assert is_cutfree(e), tag
        assert all(e.conclusion == d.conclusion for e in outs), tag
        # the transforms read the principal formula from the rule, so check
        # requires it there, and the others refuse a file without it
        blob = derivation_to_json(d)
        del blob["nodes"][-1]["rule"]["formula"]
        path.write_text(json.dumps(blob))
        assert [invoke(capsys, cmd, str(path))[0] for cmd in
                ("check", "cutelim", "normalize", "resolve")] == [1, 2, 2, 2]


def test_deep_derivation_is_written_read_and_transformed(tmp_path, capsys):
    # 900 nodes deep: each RAnd's right premise proves the next conjunct;
    # the file is a table, so writing and reading it takes no recursion
    conj = " & ".join(["p"] * 900)
    assert on_fresh_stack(run, ["prove", f"p => {conj}"]) == 0
    path = tmp_path / "d.json"
    path.write_text(capsys.readouterr().out)
    for cmd in ("check", "normalize", "cutelim", "resolve"):
        assert on_fresh_stack(run, [cmd, str(path)]) == 0, cmd
        captured = capsys.readouterr()
        assert captured.out and not captured.err, cmd


def test_every_emitted_derivation_checks(tmp_path, capsys):
    """prove, normalize, cutelim, each resolve branch and both flank
    derivations of interpolate write derivation JSON that check reads
    back and accepts."""
    emitted = []
    code, out = invoke(capsys, "prove", "p||q, r => q||p, r & r")
    assert code == 0
    emitted.append(json.loads(out))
    d = derivation_from_json(emitted[0])
    free, cut = tmp_path / "free.json", tmp_path / "cut.json"
    free.write_text(out)
    cut.write_text(json.dumps(derivation_to_json(
        inject_cut(d, d.conclusion.suc[0]))))
    for cmd, source in (("normalize", free), ("cutelim", cut)):
        code, out = invoke(capsys, cmd, str(source))
        assert code == 0, cmd
        emitted.append(json.loads(out))
    code, out = invoke(capsys, "resolve", str(cut))
    assert code == 0
    branches = json.loads(out)["branches"]
    assert len(branches) == 2
    emitted += [b["derivation"] for b in branches]
    code, out = invoke(capsys, "--json", "interpolate", "-v",
                       "(p||q)|r ; ~p => r|s ; q||x")
    assert code == 0
    payload = json.loads(out)
    emitted += [payload["left_derivation"], payload["right_derivation"]]
    path = tmp_path / "d.json"
    for blob in emitted:
        path.write_text(json.dumps(blob))
        assert invoke(capsys, "check", str(path)) == \
            (0, f"ok: {derivation_from_json(blob).conclusion}\n")
    # a bad formula table is an input error
    blob = emitted[0]
    blob["formulas"].append({"op": "neg", "c": len(blob["formulas"])})
    path.write_text(json.dumps(blob))
    assert invoke(capsys, "check", str(path))[0] == 2


def test_interpolate(capsys, monkeypatch):
    code, out = invoke(capsys, "interpolate", "(p||q)|r ; ~p => r|s ; q||x")
    assert code == 0
    assert out.strip() == "p | bot || q | bot"
    code, out = invoke(capsys, "--json", "interpolate", "p & q => p | r")
    assert code == 0
    payload = json.loads(out)
    assert payload["interpolant"] == "p" and payload["verified"]
    code, out = invoke(capsys, "interpolate", "p => q")
    assert code == 1
    # the report says whether the oracle ran: it does on the golden
    # sequent, and not with five variables per flank, beyond its cap
    for text, checked in (("(p||q)|r ; ~p => r|s ; q||x", True),
                          ("a|b|c|d|e ; a => a|b|c|d|e ; a", False)):
        code, out = invoke(capsys, "--json", "interpolate", text)
        payload = json.loads(out)
        assert code == 0 and payload["verified"]
        assert payload["oracle_checked"] is checked
    # an interpolant that fails `verify_interpolant` is printed as it is,
    # and the failures go to stderr with exit code 1
    real = cli.interpolate_partition
    monkeypatch.setattr(cli, "interpolate_partition", lambda d, p: replace(
        real(d, p), interpolant=parse_formula("x")))
    assert run(["interpolate", "p & q => p | r"]) == 1
    out, err = capsys.readouterr()
    assert out.strip() == "x" and err.startswith("verification failed: ")
    assert run(["--json", "interpolate", "p & q => p | r"]) == 1
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["interpolant"] == "x" and payload["verified"] is False
    assert err.startswith("verification failed: ")


def test_usage_and_parse_errors(tmp_path, capsys):
    assert run(["valid", "p => ()"]) == 2
    assert run(["nosuchcommand"]) == 2
    # a negative budget is a usage error, not an exhausted budget
    for budget in ("-1", "x"):
        for command in ("prove", "valid"):
            assert run(["--budget", budget, command, "p => p"]) == 2
            assert "argument --budget" in capsys.readouterr().err
    assert run(["check", "/nonexistent/file.json"]) == 2
    # a directory and a non-UTF-8 file, as a derivation and as a team
    raw = tmp_path / "latin1.json"
    raw.write_bytes(b'{"vars": ["\xe9"], "team": []}')
    capsys.readouterr()
    for target in (tmp_path, raw):
        assert run(["check", str(target)]) == 2
        assert run(["eval", "p", "--team", str(target)]) == 2
        assert capsys.readouterr().err.startswith("input error: cannot read")


def test_budget_exit_3(capsys):
    assert run(["--budget", "0", "prove", "p => p"]) == 3
    capsys.readouterr()
    deep = " & ".join(["p"] * 1500)
    assert run(["valid", f"{deep} => p"]) == 3
    assert capsys.readouterr().err.strip() == \
        "budget exhausted: nesting too deep"


def test_five_variable_oracle_refused_before_allocating(capsys):
    # 2^32 teams would need 512 MB team-set masks; the cap is checked
    # before any is built, whatever --budget asks for
    capsys.readouterr()
    start = time.perf_counter()
    assert run(["--budget", "5", "valid", "a & b & c & d & e => a"]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.strip() == \
        "budget exhausted: 5 variables exceeds budget 4"


def test_out_of_memory_exits_3(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "sequent_valid", exhausted)
    capsys.readouterr()
    assert run(["valid", "a & b => a"]) == 3
    assert capsys.readouterr().err.strip() == \
        "budget exhausted: out of memory"


def test_interpolate_rejects_nonclassical_first_block(capsys):
    code = run(["interpolate",
                "p||~p ; q||~q => (p||~p)&(q||~q)&r ; (p||~p)&(q||~q)&~r"])
    assert code == 2


def test_json_flag_round_trips(capsys):
    code, out = invoke(capsys, "--json", "valid", "p => p")
    assert json.loads(out) == {"valid": True}
    code, out = invoke(capsys, "--json", "resolutions", "p||q")
    assert json.loads(out) == {"formulas": ["p", "q"]}
    for f in json.loads(out)["formulas"]:
        parse_formula(f)


def test_reused_parser_keeps_no_state_between_runs(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    # a flag of one run does not reach the next
    assert invoke(capsys, "--json", "valid", "p => p") == \
        (0, '{"valid": true}\n')
    assert invoke(capsys, "valid", "p => p") == (0, "valid\n")
    assert invoke(capsys, "--budget", "0", "prove", "p => p")[0] == 3
    assert invoke(capsys, "prove", "p => p")[0] == 0
    # a derivation that is cutfree but not in normal form, so that
    # normalize and cutelim print different derivations
    rng = random.Random(31)
    d = None
    while d is None or is_normal(d):
        d = gen_shuffled(rng, gen_sequent(rng), 3)
    path = tmp_path / "d.json"
    path.write_text(json.dumps(derivation_to_json(d)))
    normalized = json.dumps(derivation_to_json(normalize(d))) + "\n"
    assert normalized != \
        json.dumps(derivation_to_json(eliminate_cuts(d))) + "\n"
    assert invoke(capsys, "nosuchcommand")[0] == 2
    assert invoke(capsys, "normalize", str(path)) == (0, normalized)
    assert invoke(capsys, "cutelim", str(path))[0] == 0
    assert invoke(capsys, "normalize", str(path)) == (0, normalized)


def test_python_dash_m_runs_the_cli():
    # each exit code of the contract, through the module entry point
    root = Path(__file__).resolve().parent.parent
    path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    for argv, code in ((["prove", "p => p"], 0), (["prove", "p => q"], 1),
                       (["prove", "p =>> q"], 2),
                       (["--budget", "0", "prove", "p => p"], 3)):
        proc = subprocess.run([sys.executable, "-m", "teamseq", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == code, (argv, proc.stderr)
