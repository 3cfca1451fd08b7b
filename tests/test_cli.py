import json
import time

from teamseq import cli
from teamseq.calculus import derivation_from_json
from teamseq.cli import run
from teamseq.semantics import team_from_json
from teamseq.syntax import parse_formula, parse_sequent


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
    blob["conclusion"]["ant"] = []
    path.write_text(json.dumps(blob))
    code, out = invoke(capsys, "check", str(path))
    assert code == 1
    # a malformed variable name is an input error, not a failed check
    path.write_text(json.dumps(blob).replace('"name": "p"', '"name": "P"'))
    assert invoke(capsys, "check", str(path))[0] == 2
    # so is a field of the wrong JSON type
    for field, value in (("pos", "x"), ("premises", 5)):
        bad = json.loads(derivation)
        (bad["rule"] if field == "pos" else bad)[field] = value
        path.write_text(json.dumps(bad))
        assert invoke(capsys, "check", str(path))[0] == 2, field
    # a deep-rule path that leaves its formula fails the check at its node
    code, derivation = invoke(capsys, "prove", "p || q => p, q")
    bad = json.loads(derivation)
    assert bad["rule"]["rule"] == "LGd"
    bad["rule"]["path"] = [2]
    path.write_text(json.dumps(bad))
    code, out = invoke(capsys, "--json", "check", str(path))
    assert code == 1 and json.loads(out)["address"] == []


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
    # rows that are not 0/1 valuations of the domain are input errors
    for rows in ([[2]], [[1, 0]]):
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


def test_resolutions_degree(capsys):
    code, out = invoke(capsys, "resolutions", "p||(q||r)", "--degree", "1")
    assert code == 0
    assert out.splitlines() == ["p", "p || q", "p || r", "q || r"]
    code, out = invoke(capsys, "resolutions", "p||(q||r)")
    assert out.splitlines() == ["p", "q", "r"]


def test_closure(capsys):
    code, out = invoke(capsys, "--json", "closure", "p || ~p")
    assert code == 0
    assert json.loads(out) == {"empty_team": True, "downward_closed": True,
                               "union_closed": False, "flat": False}


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
    del blob["rule"]["weak"]
    path.write_text(json.dumps(blob))
    for cmd in ("check", "normalize", "cutelim", "resolve"):
        assert invoke(capsys, cmd, str(path))[0] == 0


def test_interpolate(capsys):
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


def test_usage_and_parse_errors(tmp_path, capsys):
    assert run(["valid", "p => ()"]) == 2
    assert run(["nosuchcommand"]) == 2
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
