import collections
import dataclasses
import io
import json
import os
import subprocess
import sys

import pytest

import goldens
from causelab import cli, dsl
from causelab.cli import (
    EXIT_CAP,
    EXIT_DIAGNOSTICS,
    EXIT_OK,
    LoadedSet,
    RunOptions,
    _error_diag,
    _report,
    corpus_dir,
    load_corpus_entries,
    main,
    run_query,
)
from causelab.dsl import Diagnostic, parse_model_file, parse_query
from causelab.formula import CausalFormula, EngineStats
from causelab.hp import CapExceededError
from causelab.model import (
    CycleError,
    DuplicateVariableError,
    ModelError,
    RangeViolationError,
    Signature,
    TotalityError,
    UnknownVariableError,
)
from causelab.normality import RankConflictError

CORPUS = corpus_dir()


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def run_json(*argv):
    code, text = run_cli(*argv)
    lines = [json.loads(line) for line in text.strip().splitlines()]
    return code, lines


def model_arg(name):
    return str(CORPUS / name)


class TestQueries:
    def test_cause_reports_witness(self):
        code, [report] = run_json(
            "cause", "-m", model_arg("forest_fire.cm"),
            "-q", "cause L=1 of F=1 in ctx(U1=1,U2=1,U3=1)",
        )
        assert code == EXIT_OK
        result = report["result"]
        assert result["verdict"] is True
        assert result["witnesses"][0]["w_set"] == ["ML"]
        assert result["witnesses"][0]["w_setting"] == {"ML": 0}
        assert result["witnesses"][0]["x_prime"] == {"L": 0}
        assert result["witnesses"][0]["changes"] == 1
        assert "witness_world" in result["witnesses"][0]

    def test_resp_prints_exact_rational(self):
        ctx = ",".join(f"UV{i}=0" for i in range(1, 12))
        code, [report] = run_json(
            "resp", "-m", model_arg("vote11.cm"),
            "-q", f"resp V1=0 of W=0 in ctx({ctx})",
        )
        assert code == EXIT_OK
        assert report["result"]["score"] == "1/6"

    def test_blame_over_state(self):
        code, [report] = run_json(
            "blame", "-m", model_arg("forest_fire.cm"), "-s", model_arg("forest_fire.ce"),
            "-q", "blame action ML<-1 of F=1 over state forest_uncertain",
        )
        assert code == EXIT_OK
        assert report["result"]["score"] == "1/2"

    def test_ness_and_eval_and_solve(self):
        code, [report] = run_json(
            "ness", "-m", model_arg("poisoned_tea.cm"),
            "-q", "ness CP=1 of PD=1 in ctx(UC=1,UD=1,UR=1)",
        )
        assert code == EXIT_OK and report["result"]["sufficient_set"] == {"CP": 1, "DR": 1}
        code, [report] = run_json(
            "eval", "-m", model_arg("forest_fire.cm"),
            "-q", "eval [ML<-0]F=1 in ctx(U1=1,U2=1,U3=1)",
        )
        assert code == EXIT_OK and report["result"]["holds"] is True
        assert report["stats"] == {"solves": 1, "subset_checks": 0}
        code, [report] = run_json(
            "solve", "-m", model_arg("forest_fire.cm"), "--ctx", "U1=1,U2=0,U3=2"
        )
        assert code == EXIT_OK and report["result"]["world"] == {"F": 0, "L": 1, "ML": 0}
        assert report["stats"] == {"solves": 1, "subset_checks": 0}

    def test_solve_with_an_empty_context(self, tmp_path):
        # `--ctx ''` is `ctx()`: a model without exogenous variables solves,
        # as `eval ... in ctx()` answers on it.
        (tmp_path / "m.cm").write_text("model m {\n  endogenous X : {0,1,2} = 2;\n}\n")
        code, [report] = run_json("solve", "-m", str(tmp_path / "m.cm"), "--ctx", "")
        assert code == EXIT_OK and report["result"]["world"] == {"X": 2}
        code, [report] = run_json("eval", "-m", str(tmp_path / "m.cm"), "-q", "eval X=2 in ctx()")
        assert code == EXIT_OK and report["result"]["holds"] is True

    def test_solve_prints_its_context_canonically(self):
        reports = []
        for ctx in (" U1 = 1 , U2=0,U3=1", "U1=1,U2=0,U3=1"):
            code, [report] = run_json("solve", "-m", model_arg("forest_fire.cm"), "--ctx", ctx)
            assert code == EXIT_OK
            del report["timing"]
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[0]["query"] == "solve ctx(U1=1,U2=0,U3=1)"

    def test_query_file_answers_in_order(self, tmp_path):
        qfile = tmp_path / "queries.cq"
        qfile.write_text(
            "cause L=1 of F=1 in ctx(U1=1,U2=1,U3=1)\n"
            "# a comment line\n"
            "cause ML=1 of F=1 in ctx(U1=1,U2=0,U3=2)\n"
        )
        code, reports = run_json("cause", "-m", model_arg("forest_fire.cm"), "-Q", str(qfile))
        assert code == EXIT_OK and len(reports) == 2
        assert reports[0]["result"]["verdict"] is True
        assert reports[1]["result"]["failed_condition"] == "AC1"

    def test_query_file_hashes_each_model_once(self, tmp_path, monkeypatch):
        want = {"forest_fire": cli.model_hash(*parse_model_file(CORPUS / "forest_fire.cm"))}
        printed = []

        def print_model(model, order=None):
            printed.append(model.name)
            return dsl.print_model(model, order)

        monkeypatch.setattr(cli, "print_model", print_model)
        qfile = tmp_path / "queries.cq"
        qfile.write_text("".join(f"eval [ML<-{v}]F=1 in ctx(U1=1,U2=1,U3={u})\n" for v in (0, 1) for u in (0, 1, 2)))
        code, reports = run_json("eval", "-m", model_arg("forest_fire.cm"), "-m", model_arg("suzy_billy.cm"),
                                 "--model-name", "forest_fire", "-Q", str(qfile))
        assert code == EXIT_OK and len(reports) == 6
        assert printed == ["forest_fire"]
        assert all(report["models"] == want for report in reports)

    def test_query_file_records_failures_on_each_line(self, tmp_path):
        # `--failures` applies to every query of a `-Q` batch: each line is
        # the report its query gets alone with the flag.
        queries = ["cause ST=1 of BS=1 in ctx(US=1,UB=1)", "cause BT=1 of BS=1 in ctx(US=1,UB=1)"]
        qfile = tmp_path / "queries.cq"
        qfile.write_text("\n".join(queries) + "\n")
        model = model_arg("suzy_billy.cm")
        code, reports = run_json("cause", "-m", model, "--failures", "-Q", str(qfile))
        assert code == EXIT_OK
        alone = [run_json("cause", "-m", model, "--failures", "-q", query)[1][0] for query in queries]
        for report in reports + alone:
            del report["timing"]
        assert reports == alone
        assert [len(r["result"]["ac2b_failures"]) for r in reports] == [0, 13]
        _, plain = run_json("cause", "-m", model, "-Q", str(qfile))
        assert not any("ac2b_failures" in r["result"] for r in plain)

    def test_query_file_diagnostic_names_the_file(self, tmp_path):
        qfile = tmp_path / "q.cq"
        qfile.write_text(_QUERY_FILE)
        code, [payload] = run_json("cause", "-m", model_arg("forest_fire.cm"), "-Q", str(qfile))
        assert code == EXIT_DIAGNOSTICS
        assert payload["diagnostics"] == [{
            "category": "syntax", "col": 44, "line": 3,
            "message": "unexpected character '>'", "origin": str(qfile),
        }]

    def test_preliminary_flag_ignores_normality(self):
        query = "cause B=1 of VS=1 in ctx(UA=1,UB=1)"
        _, [extended] = run_json("cause", "-m", model_arg("assassin.cm"), "-q", query)
        _, [flat] = run_json("cause", "-m", model_arg("assassin.cm"), "--preliminary", "-q", query)
        assert extended["result"]["verdict"] is False
        assert flat["result"]["verdict"] is True

    def test_strategy_flag(self):
        code, [report] = run_json(
            "resp", "-m", model_arg("vote_blocks.cm"), "--strategy", "ways",
            "-q", "resp V2=3 of WIN=1 in ctx(UV1=8,UV2=3)",
        )
        assert code == EXIT_OK and report["result"]["score"] == "3/8"

    def test_pretty_output_is_text(self):
        code, text = run_cli(
            "cause", "-m", model_arg("forest_fire.cm"), "--pretty",
            "-q", "cause L=1 of F=1 in ctx(U1=1,U2=1,U3=1)",
        )
        assert code == EXIT_OK
        assert "verdict" in text and not text.lstrip().startswith("{")


class TestDeterminism:
    def test_identical_runs_identical_bytes_modulo_timing(self):
        argv = (
            "cause", "-m", model_arg("suzy_billy.cm"),
            "-q", "cause BT=1 of BS=1 in ctx(US=1,UB=1)",
        )
        _, first = run_json(*argv)
        _, second = run_json(*argv)
        for report in (first[0], second[0]):
            assert "timing" in report
            report.pop("timing")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


class TestExitCodes:
    def test_syntax_error_exits_one(self):
        code, [payload] = run_json(
            "cause", "-m", model_arg("forest_fire.cm"), "-q", "cause L=1 of F=1 in ctx(U1=1"
        )
        assert code == EXIT_DIAGNOSTICS
        assert payload["diagnostics"][0]["category"] == "syntax"

    def test_unknown_variable_exits_one(self):
        code, [payload] = run_json(
            "cause", "-m", model_arg("forest_fire.cm"),
            "-q", "cause NOPE=1 of F=1 in ctx(U1=1,U2=1,U3=1)",
        )
        assert code == EXIT_DIAGNOSTICS
        assert payload["diagnostics"][0]["category"] == "unknown variable"

    def test_cap_exits_three(self):
        code, [payload] = run_json(
            "cause", "-m", model_arg("vote11.cm"), "--max-vars", "5",
            "-q", f"cause V1=0 of W=0 in {_V11_CTX}",
        )
        assert code == 3 == EXIT_CAP
        [diag] = payload["diagnostics"]
        assert diag["category"] == "resource-cap"

    def test_cause_above_cap_exits_three(self):
        # The 6-5 context, where V1 is but-for critical, is not answered
        # above the cap either.
        code, [payload] = run_json(
            "cause", "-m", model_arg("vote11.cm"), "--max-vars", "5",
            "-q", f"cause V1=0 of W=0 in {_V11_SPLIT_CTX}",
        )
        assert code == 3
        [diag] = payload["diagnostics"]
        assert diag["category"] == "resource-cap"

    def test_resp_above_cap_exits_three(self):
        query = f"resp V1=0 of W=0 in {_V11_CTX}"
        code, [payload] = run_json("resp", "-m", model_arg("vote11.cm"), "--max-vars", "5", "-q", query)
        assert code == 3
        [diag] = payload["diagnostics"]
        assert diag["category"] == "resource-cap"
        code, [exact] = run_json("resp", "-m", model_arg("vote11.cm"), "-q", query)
        assert code == EXIT_OK
        assert set(exact["result"]) == {"kind", "score", "strategy", "witness"}

    def test_weighted_resp_above_cap_exits_three(self):
        weights = ",".join(f"V{i}={i}" for i in range(1, 12)) + ",W=1"
        code, [payload] = run_json(
            "resp", "-m", model_arg("vote11.cm"), "--max-vars", "5",
            "--strategy", "weighted", "--weights", weights,
            "-q", f"resp V1=0 of W=0 in {_V11_CTX}",
        )
        assert code == 3
        [diag] = payload["diagnostics"]
        assert diag["category"] == "resource-cap"

    def test_missing_weights_fail_before_search(self):
        ctx = ",".join(f"UV{i}=0" for i in range(1, 12))
        code, [payload] = run_json(
            "resp", "-m", model_arg("vote11.cm"), "--strategy", "weighted", "--weights", "V1=1",
            "-q", f"resp V1=1 of W=0 in ctx({ctx})",
        )
        assert code == EXIT_DIAGNOSTICS
        assert "missing weights" in payload["diagnostics"][0]["message"]

    def test_kind_mismatch_exits_one(self):
        code, [payload] = run_json(
            "cause", "-m", model_arg("forest_fire.cm"),
            "-q", "resp L=1 of F=1 in ctx(U1=1,U2=1,U3=1)",
        )
        assert code == EXIT_DIAGNOSTICS

    def test_mixed_batch_reports_each_line_and_exits_with_the_worst(self, tmp_path):
        # Each line's exit code follows its diagnostic's category: the cap
        # line makes the batch exit 3, and without it the others exit 1.
        cap = f"cause V1=0 of W=0 in {_V11_CTX}"
        others = [f"cause Q=1 of W=0 in {_V11_CTX}", f"resp V1=0 of W=0 in {_V11_CTX}"]
        expected = {
            cap: ("resource-cap", "model has 12 endogenous variables, above the variable cap of 5; raise --max-vars"),
            others[0]: ("unknown variable", "cause variable 'Q' is not endogenous"),
            others[1]: ("syntax", "subcommand 'cause' got a 'resp' query"),
        }
        for lines, want_code in (([others[0], cap, others[1]], EXIT_CAP), (others, EXIT_DIAGNOSTICS)):
            qfile = tmp_path / "batch.cq"
            qfile.write_text("\n".join(lines) + "\n")
            code, payloads = run_json("cause", "-m", model_arg("vote11.cm"), "--max-vars", "5", "-Q", str(qfile))
            assert code == want_code
            got = [(d["category"], d["message"]) for [d] in (p["diagnostics"] for p in payloads)]
            assert got == [expected[line] for line in lines]

    def test_env_var_overrides_cap(self, monkeypatch):
        monkeypatch.setenv("CAUSELAB_MAX_VARS", "5")
        code, _ = run_json(
            "cause", "-m", model_arg("vote11.cm"), "-q", f"cause V1=0 of W=0 in {_V11_CTX}"
        )
        assert code == 3

    def test_bad_model_file_reports_diagnostics(self, tmp_path):
        bad = tmp_path / "bad.cm"
        bad.write_text("model m { exogenous U : {0,1}; endogenous X : {0,1} = Z; }")
        code, [payload] = run_json("cause", "-m", str(bad), "-q", "cause X=1 of X=1 in ctx(U=1)")
        assert code == EXIT_DIAGNOSTICS
        assert payload["diagnostics"][0]["category"] == "unknown variable"


    def test_bad_env_cap_is_a_usage_error(self, monkeypatch, capsys):
        # Fails like `--max-vars abc`, instead of silently running with 12.
        monkeypatch.setenv("CAUSELAB_MAX_VARS", "abc")
        argv = ["cause", "-m", model_arg("forest_fire.cm"), "-q", "cause L=1 of F=1 in ctx(U1=1,U2=1,U3=1)"]
        with pytest.raises(SystemExit) as exc_info:
            run_cli(*argv)
        assert exc_info.value.code == 2
        assert "argument --max-vars: invalid int value: 'abc'" in capsys.readouterr().err
        code, [report] = run_json(*argv, "--max-vars", "7")  # the flag still wins
        assert code == EXIT_OK and report["options"]["max_vars"] == 7
        monkeypatch.delenv("CAUSELAB_MAX_VARS")
        with pytest.raises(SystemExit) as exc_info:
            run_cli(*argv, "--max-vars", "abc")
        assert exc_info.value.code == 2
        assert "argument --max-vars: invalid int value: 'abc'" in capsys.readouterr().err

    def test_negative_env_cap_is_a_usage_error(self, monkeypatch, capsys):
        # Fails like `--max-vars -1`, instead of answering every query with
        # a cap it cannot meet.
        monkeypatch.setenv("CAUSELAB_MAX_VARS", "-1")
        argv = ["cause", "-m", model_arg("forest_fire.cm"), "-q", "cause L=1 of F=1 in ctx(U1=1,U2=1,U3=1)"]
        with pytest.raises(SystemExit) as exc_info:
            run_cli(*argv)
        assert exc_info.value.code == 2
        assert "argument --max-vars: the variable cap must be 0 or more, not -1" in capsys.readouterr().err
        code, [report] = run_json(*argv, "--max-vars", "0")  # the flag still wins, and 0 is a cap
        assert code == EXIT_CAP and report["diagnostics"][0]["category"] == "resource-cap"

    def test_blame_above_cap_exits_three(self):
        argv = (
            "blame", "-m", model_arg("firing_squad.cm"), "-s", model_arg("firing_squad.ce"),
            "-q", "blame action M1<-1 of D=1 over state firing_uniform",
        )
        code, [payload] = run_json(*argv, "--max-vars", "3")
        assert code == 3
        [diag] = payload["diagnostics"]
        assert diag["category"] == "resource-cap"
        code, [exact] = run_json(*argv)
        assert code == EXIT_OK
        assert set(exact["result"]) == {"kind", "score", "state"}

    def test_zero_denominator_weight_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run_cli("resp", "-m", model_arg("vote11.cm"), "--strategy", "weighted", "--weights", "V1=1/0",
                    "-q", f"resp V1=0 of W=0 in {_V11_CTX}")
        assert exc_info.value.code == 2
        assert "argument --weights: weight 'V1=1/0' divides by zero" in capsys.readouterr().err

    def test_preliminary_and_extended_exclude_each_other(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run_cli("cause", "-m", model_arg("assassin.cm"), "--preliminary", "--extended",
                    "-q", "cause B=1 of VS=1 in ctx(UA=1,UB=1)")
        assert exc_info.value.code == 2
        assert "argument --extended: not allowed with argument --preliminary" in capsys.readouterr().err

    def test_failures_flag_is_for_cause_only(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run_cli("resp", "-m", model_arg("forest_fire.cm"), "--failures",
                    "-q", "resp L=1 of F=1 in ctx(U1=1,U2=1,U3=1)")
        assert exc_info.value.code == 2
        assert "unrecognized arguments: --failures" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [("--strategy", "ways"), ("--weights", "L=1")])
    @pytest.mark.parametrize("argv", [
        ("cause", "-q", "cause L=1 of F=1 in ctx(U1=1,U2=1,U3=1)"),
        ("solve", "--ctx", "U1=1,U2=1,U3=1"),
    ])
    def test_scoring_flags_are_for_resp_and_blame_only(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run_cli(argv[0], "-m", model_arg("forest_fire.cm"), *flag, *argv[1:])
        assert exc_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_resp_weights_without_the_weighted_strategy_stay_a_diagnostic(self):
        code, [payload] = run_json("resp", "-m", model_arg("forest_fire.cm"), "--weights", "L=1",
                                   "-q", "resp L=1 of F=1 in ctx(U1=1,U2=1,U3=1)")
        assert code == EXIT_DIAGNOSTICS
        [diag] = payload["diagnostics"]
        assert (diag["category"], diag["message"]) == ("semantic", "strategy 'reciprocal' takes no weights")

    @pytest.mark.parametrize("flag", [("--sampled",), ("--seed", "3"), ("--samples", "10")])
    def test_sampling_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run_cli("cause", "-m", model_arg("forest_fire.cm"), *flag,
                    "-q", "cause L=1 of F=1 in ctx(U1=1,U2=1,U3=1)")
        assert exc_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


_V11_CTX = "ctx(" + ",".join(f"UV{i}=0" for i in range(1, 12)) + ")"
_V11_SPLIT_CTX = "ctx(" + ",".join(f"UV{i}={int(i > 6)}" for i in range(1, 12)) + ")"
_FF_CTX = "ctx(U1=1,U2=1,U3=1)"
_ONE_X = "model m {\n  exogenous U : {0,1};\n  endogenous X : {0,1} = %s;\n}\n"
_DIGIT = "model m {\n  exogenous U : {0,%s};\n  endogenous X : {0,1} = U;\n}\n"
_NAMED_X = "model m {\n  exogenous U : {0,1};\n  endogenous %s : {0,1} = U;\n}\n"
_TWO_EXO = "model m {\n  exogenous %s : {0,1};\n  exogenous V : {0,1};\n  endogenous X : {0,1} = V;\n}\n"
_ORDERED = (
    "model m {\n  exogenous U : {0,1};\n  endogenous X : {0,1} = U;\n  endogenous Y : {0,1} = X;\n"
    "  normality {\n    %s\n  }\n}\n"
)
_QUERY_FILE = "# one bad query\n\n   cause L=1 of F=1 in ctx(U1=1,U2=1,U3=1) >\n"
_CAUSE_X = ("-q", "cause X=1 of X=1 in ctx(U=1)")
_CAUSE_X_BY_V = ("-q", "cause X=1 of X=1 in ctx(V=1)")
_FOREST2 = "model forest2 {\n  exogenous U : {0,1};\n  endogenous F : {0,1} = U;\n}\n"
_FOREST3 = "model forest3 {\n  exogenous U : {0,1};\n  endogenous L : {0,1} = U;\n  endogenous F : {0} = 0;\n}\n"
_TWO_SITUATIONS = (
    "state s {\n  situation model=forest_fire ctx(U1=1,U2=1,U3=1) prob=1/2;\n"
    "  situation model=%s ctx(U=1) prob=1/2;\n}\n"
)


_ENTRY_SHAPE = (
    "is not an object with a string 'id', a string 'query' and an object 'expect', and, where given,"
    " lists of file names 'models' and 'states' and an object 'options'"
)


def _nested_max(depth: int) -> str:
    body = "U"
    for _ in range(depth):
        body = f"max({body}, U)"
    return body


# (row, files written to a scratch directory, argv with "@name" for those
# files, expected (category, line, col, message)).  Query-time errors point
# at 1:1.
DIAGNOSTIC_TABLE = [
    ("query syntax", {}, ("cause", "-m", model_arg("forest_fire.cm"), "-q", "cause L=1 of F=1 in ctx(U1=1"),
     ("syntax", 1, 29, "expected ')', found 'end of input'")),
    ("model syntax", {"m.cm": "model m {\n  exogenous U : {0,1;\n}\n"}, ("cause", "-m", "@m.cm", *_CAUSE_X),
     ("syntax", 2, 21, "expected '}', found ';'")),
    # Input left over after a whole model, context or query, and a statement
    # that starts none of the forms its block allows.
    ("trailing input after a model", {"m.cm": _ONE_X % "U" + "extra\n"}, ("cause", "-m", "@m.cm", *_CAUSE_X),
     ("syntax", 5, 1, "trailing input after the model block")),
    ("trailing input after a solve context", {"m.cm": _ONE_X % "U"}, ("solve", "-m", "@m.cm", "--ctx", "U=1 V"),
     ("syntax", 1, 5, "trailing input after the context")),
    ("trailing input after a query", {"m.cm": _ONE_X % "U"},
     ("cause", "-m", "@m.cm", "-q", "cause X=1 of X=1 in ctx(U=1) extra"),
     ("syntax", 1, 30, "trailing input after the query")),
    ("unknown query kind", {"m.cm": _ONE_X % "U"}, ("cause", "-m", "@m.cm", "-q", "because X=1 of X=1 in ctx(U=1)"),
     ("syntax", 1, 1, "expected one of: eval, cause, resp, blame, ness")),
    ("normality statement that is neither a rank nor a pair", {"m.cm": _ORDERED % "X=1;"},
     ("cause", "-m", "@m.cm", *_CAUSE_X),
     ("syntax", 6, 5, "expected a rank or pair declaration")),
    # Digits are ASCII only: '²' and '①' are not numbers, and '٣' is not 3.
    ("superscript two as a digit", {"m.cm": _DIGIT % "²"}, ("cause", "-m", "@m.cm", *_CAUSE_X),
     ("syntax", 2, 20, "unexpected character '²'")),
    ("circled one as a digit", {"m.cm": _DIGIT % "①"}, ("cause", "-m", "@m.cm", *_CAUSE_X),
     ("syntax", 2, 20, "unexpected character '①'")),
    ("Arabic-Indic three as a digit", {"m.cm": _DIGIT % "٣"}, ("cause", "-m", "@m.cm", *_CAUSE_X),
     ("syntax", 2, 20, "unexpected character '٣'")),
    # Identifiers are ASCII too: 'é' cannot start one and '²' cannot continue one.
    ("superscript two in an identifier", {"m.cm": _NAMED_X % "X²"}, ("cause", "-m", "@m.cm", *_CAUSE_X),
     ("syntax", 3, 15, "unexpected character '²'")),
    ("accented letter as an identifier", {"m.cm": _NAMED_X % "é"}, ("cause", "-m", "@m.cm", *_CAUSE_X),
     ("syntax", 3, 14, "unexpected character 'é'")),
    # A character in no token class is reported before any grammar fault,
    # even one written before it.
    ("grammar fault before a bad character",
     {"m.cm": "model m {\n  exogenous U : {0,1;\n  endogenous X : {0,1} = U é;\n}\n"},
     ("cause", "-m", "@m.cm", *_CAUSE_X),
     ("syntax", 3, 28, "unexpected character 'é'")),
    # End of input after a trailing comment is placed at the comment's '#'.
    ("end of a model after a trailing comment", {"m.cm": "model m {\n  exogenous U : {0,1};  # no close"},
     ("cause", "-m", "@m.cm", *_CAUSE_X),
     ("syntax", 2, 25, "expected 'exogenous', 'endogenous', or 'normality'")),
    ("end of a query after a trailing comment", {},
     ("cause", "-m", model_arg("forest_fire.cm"), "-q", "cause X=1 of   # c"),
     ("syntax", 1, 16, "expected a variable name, found 'end of input'")),
    # A tab is one column, and '>' is only the first character of '>='.
    ("lone '>' on a tab-indented line", {"m.cm": "model m {\n\texogenous U : {0,1} > ;\n}\n"},
     ("cause", "-m", "@m.cm", *_CAUSE_X),
     ("syntax", 2, 22, "unexpected character '>'")),
    # A query file's diagnostics are placed in the file, indentation included.
    ("query file line", {"q.cq": _QUERY_FILE}, ("cause", "-m", model_arg("forest_fire.cm"), "-Q", "@q.cq"),
     ("syntax", 3, 44, "unexpected character '>'")),
    ("query file line ending in a trailing comment",
     {"q.cq": "# header\ncause L=1 of F=1 in ctx(U1=1,U2=1,U3=1)\n  cause L=1 of   # trailing\n"},
     ("cause", "-m", model_arg("forest_fire.cm"), "-Q", "@q.cq"),
     ("syntax", 3, 18, "expected a variable name, found 'end of input'")),
    ("CRLF line endings", {"m.cm": (_ONE_X % "Z").replace("\n", "\r\n")}, ("cause", "-m", "@m.cm", *_CAUSE_X),
     ("unknown variable", 3, 26, "equation for 'X' references undeclared variable 'Z'")),
    # A repeated assignment is reported at the repeated variable.
    ("cause assigning a variable twice", {},
     ("cause", "-m", model_arg("forest_fire.cm"), "-q", "cause L=1 & L=0 of F=1 in ctx(U1=1)"),
     ("syntax", 1, 13, "conjunction assigns 'L' twice")),
    ("prefix assigning a variable twice", {},
     ("eval", "-m", model_arg("forest_fire.cm"), "-q", "eval [X<-0,X<-1] F=1 in ctx()"),
     ("syntax", 1, 12, "prefix assigns 'X' twice")),
    ("context assigning a variable twice", {},
     ("eval", "-m", model_arg("forest_fire.cm"), "-q", "eval F=1 in ctx(U1=1,U1=0)"),
     ("syntax", 1, 22, "context assigns 'U1' twice")),
    ("situation context assigning a variable twice at one value",
     {"s.ce": "state s {\n  situation model=forest_fire ctx(U1=1,U2=1,U1=1) prob=1;\n}\n"},
     ("blame", "-m", model_arg("forest_fire.cm"), "-s", "@s.ce", "-q", "blame action L<-1 of F=1 over state s"),
     ("syntax", 2, 45, "context assigns 'U1' twice")),
    ("blame action assigning a variable twice", {},
     ("blame", "-m", model_arg("forest_fire.cm"), "-q", "blame action L<-1, L<-0 of F=1 over state s"),
     ("syntax", 1, 20, "action assigns 'L' twice")),
    # `solve --ctx` is parsed as the inside of `ctx(...)`.
    ("solve assigning a variable twice", {"m.cm": _ONE_X % "U"}, ("solve", "-m", "@m.cm", "--ctx", "U=1,U=0"),
     ("syntax", 1, 5, "context assigns 'U' twice")),
    ("solve with a non-integer context value", {"m.cm": _ONE_X % "U"}, ("solve", "-m", "@m.cm", "--ctx", "U=x"),
     ("syntax", 1, 3, "expected an integer, found 'x'")),
    ("solve with a context variable and no value", {"m.cm": _ONE_X % "U"}, ("solve", "-m", "@m.cm", "--ctx", "U"),
     ("syntax", 1, 2, "expected '=', found 'end of input'")),
    ("pattern assigning a variable twice", {"m.cm": _ORDERED % "[X=1, Y=0, X=0] >= [X=0];"},
     ("cause", "-m", "@m.cm", *_CAUSE_X),
     ("syntax", 6, 16, "pattern assigns 'X' twice")),
    # A file that cannot be read, or is not UTF-8, is reported at <run>:1:1;
    # "{dir}" stands for the scratch directory.
    ("query file that does not exist", {}, ("cause", "-m", model_arg("forest_fire.cm"), "-Q", "@nope.cq"),
     ("syntax", 1, 1, "[Errno 2] No such file or directory: '{dir}/nope.cq'")),
    ("model file not in UTF-8", {"m.cm": b"model m {\n  # caf\xe9\n}\n"}, ("cause", "-m", "@m.cm", *_CAUSE_X),
     ("syntax", 1, 1, "{dir}/m.cm: not valid UTF-8")),
    ("state file not in UTF-8", {"s.ce": b"\xff"},
     ("blame", "-m", model_arg("forest_fire.cm"), "-s", "@s.ce", "-q", "blame action L<-1 of F=1 over state s"),
     ("syntax", 1, 1, "{dir}/s.ce: not valid UTF-8")),
    ("query file not in UTF-8", {"q.cq": b"cause L=1 of F=1 in ctx(U1=1,U2=1,U3=1)\n# caf\xe9\n"},
     ("cause", "-m", model_arg("forest_fire.cm"), "-Q", "@q.cq"),
     ("syntax", 1, 1, "{dir}/q.cq: not valid UTF-8")),
    ("corpus without expected.json", {}, ("corpus", "run", "--dir", "@"),
     ("syntax", 1, 1, "[Errno 2] No such file or directory: '{dir}/expected.json'")),
    ("corpus expected.json that is not JSON", {"expected.json": "[{"}, ("corpus", "list", "--dir", "@"),
     ("syntax", 1, 1, "{dir}/expected.json: Expecting property name enclosed in double quotes: line 1 column 3 (char 2)")),
    ("corpus expected.json not in UTF-8", {"expected.json": b"[\xff]"}, ("corpus", "run", "--dir", "@"),
     ("syntax", 1, 1, "{dir}/expected.json: not valid UTF-8")),
    ("corpus entry without a query", {"expected.json": '[{"id": "x"}]'}, ("corpus", "run", "--dir", "@"),
     ("syntax", 1, 1, "{dir}/expected.json: entry 0 " + _ENTRY_SHAPE)),
    ("corpus expected.json that is not a list", {"expected.json": '{"a": 1}'}, ("corpus", "list", "--dir", "@"),
     ("syntax", 1, 1, "{dir}/expected.json: not a list of entries")),
    ("corpus expected.json that is not a list, run", {"expected.json": '{"a": 1}'}, ("corpus", "run", "--dir", "@"),
     ("syntax", 1, 1, "{dir}/expected.json: not a list of entries")),
    ("corpus entry with a numeric id", {"expected.json": '[{"id": 1, "query": "eval F=1 in ctx()", "expect": {}}]'},
     ("corpus", "list", "--dir", "@"),
     ("syntax", 1, 1, "{dir}/expected.json: entry 0 " + _ENTRY_SHAPE)),
    ("corpus entry whose models are not a list",
     {"expected.json": '[{"id": "x", "query": "eval F=1 in ctx()", "expect": {}, "models": "m.cm"}]'},
     ("corpus", "run", "--dir", "@"),
     ("syntax", 1, 1, "{dir}/expected.json: entry 0 " + _ENTRY_SHAPE)),
    # An equation body deeper than 100 levels is reported where it crosses
    # the bound: at the 100th nested 'max', or at the '+' that makes a flat
    # sum 101 levels deep.
    ("equation body nested 400 deep", {"m.cm": _ONE_X % _nested_max(400)}, ("cause", "-m", "@m.cm", *_CAUSE_X),
     ("syntax", 3, 422, "expression nested deeper than 100 levels")),
    ("equation body summing 1,500 terms", {"m.cm": _ONE_X % " + ".join(["U"] * 1500)},
     ("cause", "-m", "@m.cm", *_CAUSE_X),
     ("syntax", 3, 424, "expression nested deeper than 100 levels")),
    # Mixed chains cross it at the operator that makes the tree 101 levels
    # deep: a '+' over products, or an '||' over conjunctions.
    ("equation body of 3,000 terms mixing '+' and '*'", {"m.cm": _ONE_X % " + ".join(["U * U"] * 1500)},
     ("cause", "-m", "@m.cm", *_CAUSE_X),
     ("syntax", 3, 816, "expression nested deeper than 100 levels")),
    ("equation body of 3,000 comparisons mixing '||' and '&&'",
     {"m.cm": _ONE_X % f"if {' || '.join(['U == 1 && U == 0'] * 1500)} then 1 else 0"},
     ("cause", "-m", "@m.cm", *_CAUSE_X),
     ("syntax", 3, 1986, "expression nested deeper than 100 levels")),
    # A query formula has the same bound: at the '&' that makes a chain 101
    # levels deep, or at the 100th nested '!' or '('.
    ("query outcome of 3,000 '&' terms", {},
     ("cause", "-m", model_arg("forest_fire.cm"), "-q", f"cause L=1 of {' & '.join(['F=1'] * 3000)} in {_FF_CTX}"),
     ("syntax", 1, 612, "expression nested deeper than 100 levels")),
    ("eval formula of 3,000 events mixing '|' and '&'", {},
     ("eval", "-m", model_arg("forest_fire.cm"), "-q", f"eval {' | '.join(['F=1 & L=1'] * 1500)} in {_FF_CTX}"),
     ("syntax", 1, 1192, "expression nested deeper than 100 levels")),
    ("eval formula under 150 '!'", {},
     ("eval", "-m", model_arg("forest_fire.cm"), "-q", f"eval {'!' * 150}F=1 in {_FF_CTX}"),
     ("syntax", 1, 105, "expression nested deeper than 100 levels")),
    ("ness outcome inside 150 '('", {},
     ("ness", "-m", model_arg("forest_fire.cm"), "-q", f"ness L=1 of {'(' * 150}F=1{')' * 150} in {_FF_CTX}"),
     ("syntax", 1, 112, "expression nested deeper than 100 levels")),
    ("zero denominator",
     {"s.ce": "state s {\n  situation model=forest_fire ctx(U1=1,U2=1,U3=1) prob=1/0;\n}\n"},
     ("blame", "-m", model_arg("forest_fire.cm"), "-s", "@s.ce", "-q", "blame action L<-1 of F=1 over state s"),
     ("syntax", 2, 58, "zero denominator")),
    ("undeclared reference", {"m.cm": _ONE_X % "Z"}, ("cause", "-m", "@m.cm", *_CAUSE_X),
     ("unknown variable", 3, 26, "equation for 'X' references undeclared variable 'Z'")),
    ("undeclared reference after a comment and a tab",
     {"m.cm": "model m {\n  exogenous U : {0,1};  # the only input\n\tendogenous X : {0,1} = Z;\n}\n"},
     ("cause", "-m", "@m.cm", *_CAUSE_X),
     ("unknown variable", 3, 25, "equation for 'X' references undeclared variable 'Z'")),
    ("unknown pattern variable", {"m.cm": _ORDERED % "[QQ=1] >= [X=0];"}, ("cause", "-m", "@m.cm", *_CAUSE_X),
     ("unknown variable", 6, 6, "pattern variable 'QQ' is not a declared endogenous variable")),
    ("unknown cause variable", {}, ("cause", "-m", model_arg("forest_fire.cm"), "-q", f"cause NOPE=1 of F=1 in {_FF_CTX}"),
     ("unknown variable", 1, 1, "cause variable 'NOPE' is not endogenous")),
    ("unknown ness event variable", {},
     ("ness", "-m", model_arg("forest_fire.cm"), "-q", f"ness NOPE=1 of F=1 in {_FF_CTX}"),
     ("unknown variable", 1, 1, "event variable 'NOPE' is not endogenous")),
    # A query with a bad context and a bad cause reports the context.
    ("bad context and bad cause variable", {},
     ("cause", "-m", model_arg("forest_fire.cm"), "-q", "cause NOPE=1 of F=1 in ctx(U1=1,U2=1)"),
     ("semantic", 1, 1, "context is missing exogenous variable 'U3'")),
    ("unknown state", {}, ("blame", "-m", model_arg("forest_fire.cm"), "-q", "blame action L<-1 of F=1 over state nope"),
     ("unknown variable", 1, 1, "no loaded state named 'nope'")),
    ("state naming an unloaded model", {"s.ce": "state s {\n  situation model=ghost ctx(U1=1,U2=1,U3=1) prob=1;\n}\n"},
     ("blame", "-m", model_arg("forest_fire.cm"), "-s", "@s.ce", "-q", "blame action L<-1 of F=1 over state s"),
     ("unknown variable", 1, 1, "state 's' references unloaded model 'ghost'")),
    ("no model loaded", {}, ("cause", "-q", f"cause L=1 of F=1 in {_FF_CTX}"),
     ("syntax", 1, 1, "no model loaded; pass -m <file>")),
    ("two models and no model name", {"m.cm": _FOREST2},
     ("cause", "-m", model_arg("forest_fire.cm"), "-m", "@m.cm", "-q", f"cause L=1 of F=1 in {_FF_CTX}"),
     ("syntax", 1, 1, "several models loaded; pick one with --model-name")),
    ("unknown model name", {},
     ("cause", "-m", model_arg("forest_fire.cm"), "--model-name", "nope", "-q", f"cause L=1 of F=1 in {_FF_CTX}"),
     ("unknown variable", 1, 1, "no loaded model named 'nope'")),
    ("blame action missing from a situation's model", {"m.cm": _FOREST2, "s.ce": _TWO_SITUATIONS % "forest2"},
     ("blame", "-m", model_arg("forest_fire.cm"), "-m", "@m.cm", "-s", "@s.ce",
      "-q", "blame action L<-1 of F=1 over state s"),
     ("unknown variable", 1, 1, "signature mismatch across situations: cause variable 'L' is not endogenous")),
    ("pattern value out of range", {"m.cm": _ORDERED % "[X=7] >= [X=0];"}, ("cause", "-m", "@m.cm", *_CAUSE_X),
     ("range violation", 6, 8, "value 7 is outside the range of 'X'")),
    ("cause value out of range", {}, ("cause", "-m", model_arg("forest_fire.cm"), "-q", f"cause L=2 of F=1 in {_FF_CTX}"),
     ("range violation", 1, 1, "value 2 outside the range of 'L'")),
    ("context value out of range", {}, ("eval", "-m", model_arg("forest_fire.cm"), "-q", "eval F=1 in ctx(U1=1,U2=1,U3=7)"),
     ("range violation", 1, 1, "value 7 outside the range of 'U3'")),
    ("blame outcome outside a situation's range", {"m.cm": _FOREST3, "s.ce": _TWO_SITUATIONS % "forest3"},
     ("blame", "-m", model_arg("forest_fire.cm"), "-m", "@m.cm", "-s", "@s.ce",
      "-q", "blame action L<-1 of F=1 over state s"),
     ("range violation", 1, 1, "signature mismatch across situations: value 1 outside the range of 'F'")),
    ("two-variable cycle",
     {"m.cm": "model m {\n  exogenous U : {0,1};\n  endogenous X : {0,1} = Y;\n  endogenous Y : {0,1} = X;\n}\n"},
     ("cause", "-m", "@m.cm", *_CAUSE_X),
     ("cycle", 3, 14, "cyclic equations: X -> Y -> X")),
    ("self-reference", {"m.cm": _ONE_X % "X"}, ("cause", "-m", "@m.cm", *_CAUSE_X),
     ("cycle", 3, 14, "equation for 'X' references itself")),
    ("non-total equation", {"m.cm": _ONE_X % "U + 1"}, ("cause", "-m", "@m.cm", *_CAUSE_X),
     ("non-total equation", 3, 14, "equation for 'X' yields 2 outside its range at U=1")),
    ("missing context variable", {"m.cm": _TWO_EXO % "U"}, ("cause", "-m", "@m.cm", *_CAUSE_X_BY_V),
     ("semantic", 1, 1, "context is missing exogenous variable 'U'")),
    ("context assigning an endogenous variable", {},
     ("eval", "-m", model_arg("forest_fire.cm"), "-q", "eval F=1 in ctx(U1=1,U2=1,U3=1,L=1)"),
     ("semantic", 1, 1, "context assigns non-exogenous variable 'L'")),
    # The variable's name must not change the category.
    ("missing context variable named Urange", {"m.cm": _TWO_EXO % "Urange"}, ("cause", "-m", "@m.cm", *_CAUSE_X_BY_V),
     ("semantic", 1, 1, "context is missing exogenous variable 'Urange'")),
    ("missing context variable named Uundeclared", {"m.cm": _TWO_EXO % "Uundeclared"},
     ("cause", "-m", "@m.cm", *_CAUSE_X_BY_V),
     ("semantic", 1, 1, "context is missing exogenous variable 'Uundeclared'")),
    ("situation context missing a variable",
     {"s.ce": "state s {\n  situation model=forest_fire ctx(U1=1,U2=1) prob=1;\n}\n"},
     ("blame", "-m", model_arg("forest_fire.cm"), "-s", "@s.ce", "-q", "blame action L<-1 of F=1 over state s"),
     ("semantic", 1, 1, "context is missing exogenous variable 'U3'")),
    ("rank conflict", {"m.cm": _ORDERED % "rank [X=1] = 0;\n    rank [Y=1] = 1;"}, ("cause", "-m", "@m.cm", *_CAUSE_X),
     ("semantic", 7, 5, "world ranked twice with different ranks: World(X=1, Y=1)")),
    ("missing weights", {},
     ("resp", "-m", model_arg("vote11.cm"), "--strategy", "weighted", "--weights", "V1=1",
      "-q", f"resp V1=1 of W=0 in {_V11_CTX}"),
     ("semantic", 1, 1, "missing weights for ['V2', 'V3', 'V4', 'V5', 'V6', 'V7', 'V8', 'V9', 'V10', 'V11', 'W']")),
    # Weights are read only by the weighted strategy; any other refuses them.
    ("weights without the weighted strategy", {},
     ("resp", "-m", model_arg("forest_fire.cm"), "--weights", "L=1", "-q", f"resp L=1 of F=1 in {_FF_CTX}"),
     ("semantic", 1, 1, "strategy 'reciprocal' takes no weights")),
    ("probabilities not summing to 1",
     {"s.ce": "state s {\n  situation model=forest_fire ctx(U1=1,U2=1,U3=1) prob=1/2;\n}\n"},
     ("blame", "-m", model_arg("forest_fire.cm"), "-s", "@s.ce", "-q", "blame action L<-1 of F=1 over state s"),
     ("semantic", 1, 1, "probabilities must sum exactly to 1")),
    ("variable cap", {}, ("cause", "-m", model_arg("vote11.cm"), "--max-vars", "5", "-q", f"cause V1=0 of W=0 in {_V11_CTX}"),
     ("resource-cap", 1, 1, "model has 12 endogenous variables, above the variable cap of 5; raise --max-vars")),
    # A usage error is argparse's: no diagnostic and no position, only the
    # message on standard error.
    ("weights in the wrong format", {},
     ("resp", "-m", model_arg("vote11.cm"), "--strategy", "weighted", "--weights", "V1",
      "-q", f"resp V1=0 of W=0 in {_V11_CTX}"),
     ("usage", None, None, "argument --weights: weights look like 'V1=1/2,V2=3'")),
    ("weight that is not a number", {},
     ("resp", "-m", model_arg("forest_fire.cm"), "--strategy", "weighted", "--weights", "L=1,ML=abc,F=1",
      "-q", f"resp L=1 of F=1 in {_FF_CTX}"),
     ("usage", None, None, "argument --weights: weight 'ML=abc' is not a number")),
    ("weight given twice", {},
     ("resp", "-m", model_arg("forest_fire.cm"), "--strategy", "weighted", "--weights", "L=1,L=2,ML=1,F=1",
      "-q", f"resp L=1 of F=1 in {_FF_CTX}"),
     ("usage", None, None, "argument --weights: weight for 'L' given twice")),
    # Checked before the missing weights, so an unknown name is named even
    # when the weights miss a variable too.
    ("weight for a variable that is not endogenous", {},
     ("resp", "-m", model_arg("forest_fire.cm"), "--strategy", "weighted", "--weights", "L=1,ML=1,Q=1",
      "-q", f"resp L=1 of F=1 in {_FF_CTX}"),
     ("unknown variable", 1, 1, "weight variable 'Q' is not endogenous")),
    # A blame checks the weights against every situation, also when the
    # action holds in none of them and no situation searches.
    ("blame weight for a variable that is not endogenous, no situation searching", {},
     ("blame", "-m", model_arg("firing_squad.cm"), "-s", model_arg("firing_squad.ce"), "--strategy", "weighted",
      "--weights", "Q=1", "-q", "blame action M1<-0 of D=1 over state firing_uniform"),
     ("unknown variable", 1, 1, "weight variable 'Q' is not endogenous")),
    ("blame missing weights, no situation searching", {},
     ("blame", "-m", model_arg("firing_squad.cm"), "-s", model_arg("firing_squad.ce"), "--strategy", "weighted",
      "--weights", "M1=1", "-q", "blame action M1<-0 of D=1 over state firing_uniform"),
     ("semantic", 1, 1, "missing weights for ['M2', 'M3', 'M4', 'M5', 'M6', 'M7', 'M8', 'M9', 'M10', 'D']")),
    ("negative variable cap", {},
     ("cause", "-m", model_arg("forest_fire.cm"), "--max-vars", "-1", "-q", f"cause L=1 of F=1 in {_FF_CTX}"),
     ("usage", None, None, "argument --max-vars: the variable cap must be 0 or more, not -1")),
]
# The exit code follows the category.
_EXIT_CODES = {"resource-cap": EXIT_CAP, "usage": 2}


class TestDiagnosticsTable:
    @pytest.mark.parametrize("files, argv, expected", [row[1:] for row in DIAGNOSTIC_TABLE],
                             ids=[row[0] for row in DIAGNOSTIC_TABLE])
    def test_category_and_position(self, tmp_path, capsys, files, argv, expected):
        for name, text in files.items():
            if isinstance(text, bytes):
                (tmp_path / name).write_bytes(text)
            else:
                (tmp_path / name).write_text(text)
        argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
        category, line, col, message = expected
        expected = (category, line, col, message.replace("{dir}", str(tmp_path)))
        want_code = _EXIT_CODES.get(category, EXIT_DIAGNOSTICS)
        if category == "usage":
            with pytest.raises(SystemExit) as exc_info:
                run_cli(*argv)
            assert exc_info.value.code == want_code
            assert f"error: {expected[3]}\n" in capsys.readouterr().err
            return
        code, [payload] = run_json(*argv)
        [diag] = payload["diagnostics"]
        assert (diag["category"], diag["line"], diag["col"], diag["message"]) == expected
        assert code == want_code

    @pytest.mark.parametrize("formula", ["!" * 99 + "F=1", " & ".join(["F=1"] * 100)])
    def test_a_formula_100_levels_deep_still_answers(self, formula):
        code, [report] = run_json("eval", "-m", model_arg("forest_fire.cm"), "-q", f"eval {formula} in {_FF_CTX}")
        assert code == EXIT_OK
        assert report["result"] == {"kind": "eval", "holds": formula.startswith("F")}

    def test_every_category_is_covered(self):
        assert {row[-1][0] for row in DIAGNOSTIC_TABLE} == {
            "syntax", "unknown variable", "range violation", "cycle",
            "non-total equation", "semantic", "resource-cap", "usage",
        }


_ERROR_CATEGORIES = [
    (ModelError("m"), "semantic"),
    (DuplicateVariableError("m"), "syntax"),
    (UnknownVariableError("m"), "unknown variable"),
    (RangeViolationError("m"), "range violation"),
    (CycleError("m", ("X", "Y")), "cycle"),
    (TotalityError("m"), "non-total equation"),
    (RankConflictError("m", 1), "semantic"),
    (CapExceededError("m"), "resource-cap"),
    (ValueError("m"), "semantic"),
]


class TestErrorDiagnostic:
    """A library error becomes the diagnostic its class's category names."""

    @pytest.mark.parametrize("exc, category", _ERROR_CATEGORIES, ids=[type(e).__name__ for e, _ in _ERROR_CATEGORIES])
    def test_category_follows_the_error_class(self, exc, category):
        assert _error_diag(exc) == Diagnostic(category, "m", 1, 1, "<run>")

    def test_every_model_error_class_is_listed(self):
        def with_subclasses(cls):
            return {cls}.union(*map(with_subclasses, cls.__subclasses__()))

        assert with_subclasses(ModelError) <= {type(e) for e, _ in _ERROR_CATEGORIES}


class TestEachInputCheckedOnce:
    """The library call that answers a query checks its context once, and a
    NESS query checks no formula per candidate set."""

    @pytest.mark.parametrize("model_name, text", [
        ("forest_fire", f"eval F=1 in {_FF_CTX}"),
        ("forest_fire", f"cause L=1 of F=1 in {_FF_CTX}"),
        ("forest_fire", f"resp L=1 of F=1 in {_FF_CTX}"),
        ("forest_fire_disj", "ness L=1 of F=1 in ctx(U1=1,U2=1)"),
        ("poisoned_tea", "ness CP=1 of PD=1 in ctx(UC=1,UD=1,UR=1)"),
    ])
    def test_checks_per_query(self, corpus, monkeypatch, model_name, text):
        calls = collections.Counter()

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[f"{owner.__name__}.{name}"] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(Signature, "check_context")
        count(CausalFormula, "validate")
        loaded = LoadedSet()
        loaded.add_model(*corpus["models"][model_name])
        query = parse_query(text)
        run_query(query, loaded, RunOptions())
        assert calls["Signature.check_context"] == 1
        # an `eval` query's formula is the one CausalFormula a query checks
        assert calls["CausalFormula.validate"] == (1 if query.kind == "eval" else 0)


class TestCorpusCommand:
    def test_corpus_run_all_pass(self):
        code, text = run_cli("corpus", "run")
        assert code == EXIT_OK
        lines = text.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].endswith("corpus expectations hold")

    def test_corpus_list(self):
        code, text = run_cli("corpus", "list")
        assert code == EXIT_OK
        assert "forest_fire/L_cause_either_mode" in text

    def test_corpus_run_fails_on_mismatch(self, tmp_path):
        import shutil

        for name in ("forest_fire.cm",):
            shutil.copy(str(CORPUS / name), tmp_path / name)
        (tmp_path / "expected.json").write_text(
            '[{"id": "broken", "models": ["forest_fire.cm"],'
            ' "query": "cause L=1 of F=1 in ctx(U1=1,U2=1,U3=1)",'
            ' "expect": {"verdict": false}}]'
        )
        code, text = run_cli("corpus", "run", "--dir", str(tmp_path))
        assert code == EXIT_DIAGNOSTICS
        assert "FAIL broken" in text

    def test_corpus_entry_with_a_missing_model_fails(self, tmp_path):
        (tmp_path / "expected.json").write_text(
            '[{"id": "lost", "models": ["nope.cm"], "query": "eval F=1 in ctx(U=1)", "expect": {}}]'
        )
        code, text = run_cli("corpus", "run", "--dir", str(tmp_path))
        assert code == EXIT_DIAGNOSTICS
        missing = tmp_path / "nope.cm"
        assert text.splitlines() == [
            f"FAIL lost  [0.0 ms]  (<run>:1:1: syntax: [Errno 2] No such file or directory: '{missing}')",
            "0/1 corpus expectations hold",
        ]

    def test_corpus_entry_with_an_unknown_mode_fails(self, tmp_path):
        # Reported as a bad strategy is.
        (tmp_path / "expected.json").write_text(
            '[{"id": "moded", "query": "eval F=1 in ctx(U=1)", "expect": {}, "options": {"mode": "bogus"}}]'
        )
        code, text = run_cli("corpus", "run", "--dir", str(tmp_path))
        assert code == EXIT_DIAGNOSTICS
        assert text.splitlines() == [
            "FAIL moded  [0.0 ms]  (<run>:1:1: semantic: unknown mode 'bogus')",
            "0/1 corpus expectations hold",
        ]

    def test_corpus_entry_with_an_unknown_strategy_fails(self, tmp_path):
        # A `cause` query does not score, so only the entry check sees it.
        (tmp_path / "forest_fire.cm").write_text((CORPUS / "forest_fire.cm").read_text())
        (tmp_path / "expected.json").write_text(
            '[{"id": "scored", "models": ["forest_fire.cm"],'
            ' "query": "cause L=1 of F=1 in ctx(U1=1,U2=1,U3=1)", "expect": {}, "options": {"strategy": "bogus"}}]'
        )
        code, text = run_cli("corpus", "run", "--dir", str(tmp_path))
        assert code == EXIT_DIAGNOSTICS
        assert text.splitlines() == [
            "FAIL scored  [0.0 ms]  (<run>:1:1: semantic: unknown strategy 'bogus')",
            "0/1 corpus expectations hold",
        ]

    @pytest.mark.parametrize("query", [
        "cause L=1 of F=1 in ctx(U1=1,U2=1,U3=1)",
        "eval [ML<-0]F=1 in ctx(U1=1,U2=1,U3=1)",
        "ness L=1 of F=1 in ctx(U1=1,U2=1,U3=1)",
    ])
    def test_corpus_strategy_on_a_query_that_does_not_score_fails(self, tmp_path, query):
        (tmp_path / "forest_fire.cm").write_text((CORPUS / "forest_fire.cm").read_text())
        (tmp_path / "expected.json").write_text(
            f'[{{"id": "unscored", "models": ["forest_fire.cm"], "query": "{query}",'
            ' "expect": {}, "options": {"strategy": "ways"}}]'
        )
        code, text = run_cli("corpus", "run", "--dir", str(tmp_path))
        assert code == EXIT_DIAGNOSTICS
        kind = query.split()[0]
        assert text.splitlines() == [
            f"FAIL unscored  [0.0 ms]  (<run>:1:1: semantic: unknown option 'strategy' for a {kind} query)",
            "0/1 corpus expectations hold",
        ]


    @pytest.mark.parametrize("key, options", [
        # `weights` would be needed by a `weighted` entry, which cannot pass
        # without them; `failures` is a flag of `cause` alone.
        ("weights", '{"strategy": "weighted", "weights": {"L": "1", "ML": "1", "F": "1"}}'),
        ("failures", '{"failures": true}'),
    ])
    def test_corpus_entry_with_an_unknown_option_fails(self, tmp_path, key, options):
        (tmp_path / "forest_fire.cm").write_text((CORPUS / "forest_fire.cm").read_text())
        (tmp_path / "expected.json").write_text(
            '[{"id": "opted", "models": ["forest_fire.cm"],'
            f' "query": "resp L=1 of F=1 in ctx(U1=1,U2=1,U3=1)", "expect": {{}}, "options": {options}}}]'
        )
        code, text = run_cli("corpus", "run", "--dir", str(tmp_path))
        assert code == EXIT_DIAGNOSTICS
        assert text.splitlines() == [
            f"FAIL opted  [0.0 ms]  (<run>:1:1: semantic: unknown option '{key}')",
            "0/1 corpus expectations hold",
        ]


_CAUSE_ENTRIES = [entry for entry in load_corpus_entries() if entry["query"].startswith("cause")]


@pytest.mark.parametrize("entry", _CAUSE_ENTRIES, ids=[entry["id"] for entry in _CAUSE_ENTRIES])
def test_failures_flag_adds_only_the_failure_record(entry):
    """`cause --failures` prints the default report plus `ac2b_failures`,
    outside `timing` and `stats`; the default does no more work."""
    argv = ["cause", *(arg for m in entry["models"] for arg in ("-m", model_arg(m))), "-q", entry["query"]]
    if entry.get("options", {}).get("mode") == "preliminary":
        argv.append("--preliminary")
    _, [plain] = run_json(*argv)
    _, [recorded] = run_json(*argv, "--failures")
    assert isinstance(recorded["result"].pop("ac2b_failures"), list)
    plain_stats, recorded_stats = plain.pop("stats"), recorded.pop("stats")
    del plain["timing"], recorded["timing"]
    assert plain == recorded
    assert plain_stats["solves"] <= recorded_stats["solves"]
    assert plain_stats["subset_checks"] <= recorded_stats["subset_checks"]


class TestWorkCounters:
    """Golden `stats` of the slowest corpus entries and of queries whose
    counts the shared search changed: the memoised search must solve
    exactly these distinct pin sets and make these subset checks."""

    def test_every_solve_is_counted(self):
        """A query's `stats.solves` is the number of solves it makes, on every
        corpus entry run with its options and every `cause` entry also run
        with `--failures`."""
        uncounted = {}
        for entry in load_corpus_entries():
            loaded = cli._load_files(
                [CORPUS / m for m in entry.get("models", [])], [CORPUS / s for s in entry.get("states", [])]
            )
            query = parse_query(entry["query"])
            options = RunOptions(**entry.get("options", {}))
            if not isinstance(query, dsl.BlameQuery):
                options.model_name = next(iter(loaded.models))  # the target model is listed first
            runs = {entry["id"]: options}
            if isinstance(query, dsl.CauseQuery):
                runs[f"{entry['id']} --failures"] = dataclasses.replace(options, failures=True)
            for key, run_options in runs.items():
                _result, stats, _used, solves = goldens.counted_run(query, loaded, run_options)
                if stats.solves != solves:
                    uncounted[key] = (stats.solves, solves)
        assert uncounted == {}

    def test_the_report_prints_every_counter_field(self):
        """`stats` is the counter's fields, so a field added to
        `EngineStats` reaches the report with nothing else to change."""

        @dataclasses.dataclass
        class MoreStats(EngineStats):
            memo_hits: int = 0

        stats = MoreStats(solves=3, subset_checks=2, memo_hits=5)
        report = _report("eval F=1 in ctx(U1=1)", {}, stats, {}, RunOptions(), 0.0)
        assert report["stats"] == {"solves": 3, "subset_checks": 2, "memo_hits": 5}

    def test_vote11_landslide_cause(self):
        ctx = ",".join(f"UV{i}=0" for i in range(1, 12))
        code, lines = run_json("cause", "-m", model_arg("vote11.cm"), "-q", f"cause V1=0 of W=0 in ctx({ctx})")
        assert code == EXIT_OK
        assert lines[0]["result"]["min_changes"] == 5
        # 10,136 subset checks when each of the 252 witnesses swept its own
        # AC2(b) instances, and 1,916 solves with 754 subset checks when each
        # change assignment decided itself; V2..V11 are interchangeable, so
        # each orbit of change assignments is now decided once.  122 subset
        # checks while the search swept contingencies for an AC2(b) failure
        # report before its first witness, which a cause never reports.
        assert lines[0]["stats"] == {"solves": 20, "subset_checks": 7}

    def test_firing_squad_blame_tenth(self):
        code, lines = run_json(
            "blame",
            "-m", model_arg("firing_squad.cm"),
            "-s", model_arg("firing_squad.ce"),
            "-q", "blame action M1<-1 of D=1 over state firing_uniform",
        )
        assert code == EXIT_OK
        assert lines[0]["result"]["score"] == "1/10"
        # 11,641 solves and 32,257 subset checks when each of the nine
        # situations with a blank rifle 1 searched its whole contingency space.
        # Ten of the solves are the situations' pre-action worlds, which went
        # uncounted while the report read 13.
        assert lines[0]["stats"] == {"solves": 23, "subset_checks": 1}

    def test_vote11_weighted_resp_is_one_search(self):
        # One search whose measure is the weight sum, stopped at its first
        # minimal witness (2,241 solves and 10,780 subset checks when a count
        # search ran first; 325 and 644 when it listed every minimal witness;
        # 319 and 608 when each contingency swept its own AC2(b) instances;
        # 314 and 33 while a class of interchangeable voters had to share one
        # weight, so that these distinct weights left none).
        ctx = ",".join(f"UV{i}=0" for i in range(1, 12))
        weights = ",".join(f"V{i}={i}" for i in range(1, 12)) + ",W=1"
        code, lines = run_json(
            "resp", "-m", model_arg("vote11.cm"), "--strategy", "weighted", "--weights", weights,
            "-q", f"resp V1=0 of W=0 in ctx({ctx})",
        )
        assert code == EXIT_OK
        assert lines[0]["result"]["score"] == "1/21"
        assert lines[0]["stats"] == {"solves": 20, "subset_checks": 7}

    @pytest.mark.parametrize("n, score, stats", [
        # 39 and 9, and 107 and 17, while classes had to share one weight.
        (7, "1/10", {"solves": 14, "subset_checks": 5}),
        (9, "1/15", {"solves": 17, "subset_checks": 6}),
    ])
    def test_smaller_votes_weighted_resp(self, tmp_path, n, score, stats):
        # Voter Vi weighs i, so V2..V(k+1) are the cheapest k flips.
        total = " + ".join(f"V{i}" for i in range(1, n + 1))
        model = tmp_path / f"vote{n}.cm"
        model.write_text("\n".join([
            f"model vote{n} {{",
            *(f"  exogenous UV{i} : {{0,1}};" for i in range(1, n + 1)),
            *(f"  endogenous V{i} : {{0,1}} = UV{i};" for i in range(1, n + 1)),
            f"  endogenous W : {{0,1}} = if {total} <= {(n - 1) // 2} then 0 else 1;",
            "}",
        ]))
        ctx = ",".join(f"UV{i}=0" for i in range(1, n + 1))
        weights = ",".join(f"V{i}={i}" for i in range(1, n + 1)) + ",W=1"
        code, lines = run_json(
            "resp", "-m", str(model), "--strategy", "weighted", "--weights", weights,
            "-q", f"resp V1=0 of W=0 in ctx({ctx})",
        )
        assert code == EXIT_OK
        assert lines[0]["result"]["score"] == score
        assert lines[0]["stats"] == stats

    def test_vote11_landslide_resp(self):
        # Scoring reads only the first minimal witness; listing all 252 of
        # them, as `cause` does, took 1,916 solves and 10,136 subset checks;
        # 603 and 844 when each contingency swept its own AC2(b) instances;
        # 598 and 33 before each orbit of change assignments was decided once.
        ctx = ",".join(f"UV{i}=0" for i in range(1, 12))
        code, lines = run_json("resp", "-m", model_arg("vote11.cm"), "-q", f"resp V1=0 of W=0 in ctx({ctx})")
        assert code == EXIT_OK
        assert lines[0]["result"]["score"] == "1/6"
        assert lines[0]["stats"] == {"solves": 19, "subset_checks": 7}

    def test_conjunction_shares_the_ac3_memo(self):
        # The AC3 sub-searches reuse the memo of the whole conjunction's
        # search (10 solves when each built its own).
        code, lines = run_json(
            "cause", "-m", model_arg("forest_fire_disj.cm"),
            "-q", "cause L=1 & ML=1 of F=1 in ctx(U1=1,U2=1)",
        )
        assert code == EXIT_OK
        assert lines[0]["result"]["failed_condition"] == "AC3"
        assert lines[0]["stats"] == {"solves": 7, "subset_checks": 3}

    def test_ness_counts_its_solves(self):
        # The actual world plus one solve per context of each validity check,
        # over the exogenous variables the pinned outcome still reads (27 when
        # every check ranged over all 8 contexts; reported as 0 before NESS
        # passed the query's counters down).
        code, lines = run_json(
            "ness", "-m", model_arg("poisoned_tea.cm"), "-q", "ness CP=1 of PD=1 in ctx(UC=1,UD=1,UR=1)"
        )
        assert code == EXIT_OK
        assert lines[0]["result"]["sufficient_set"] == {"CP": 1, "DR": 1}
        assert lines[0]["stats"] == {"solves": 7, "subset_checks": 0}

    def test_ness_on_conjunctive_fire(self, tmp_path):
        # F needs all seven sources.  A set that pins F, or every source,
        # leaves F reading no exogenous variable: one context each, where
        # every check ranged over all 128 contexts before (14,785 solves).
        n = 7
        decls = [f"model fire{n} {{"]
        decls += [f"  exogenous U{i} : {{0,1}};" for i in range(1, n + 1)]
        decls += [f"  endogenous L{i} : {{0,1}} = U{i};" for i in range(1, n + 1)]
        body = "L1"
        for i in range(2, n + 1):
            body = f"min({body}, L{i})"
        decls += [f"  endogenous F : {{0,1}} = {body};", "}"]
        path = tmp_path / "fire7.cm"
        path.write_text("\n".join(decls) + "\n")
        ctx = ",".join(f"U{i}=1" for i in range(1, n + 1))
        code, lines = run_json("ness", "-m", str(path), "-q", f"ness L7=1 of F=1 in ctx({ctx})")
        assert code == EXIT_OK
        assert lines[0]["result"]["sufficient_set"] == {f"L{i}": 1 for i in range(1, n + 1)}
        assert lines[0]["stats"] == {"solves": 180, "subset_checks": 0}

    def test_ness_on_discharge_units(self):
        # 99 solves when every check ranged over all 32 contexts.
        entry = next(e for e in load_corpus_entries() if e["id"] == "discharge_units/D2_ness_cause")
        code, lines = run_json("ness", "-m", model_arg(entry["models"][0]), "-q", entry["query"])
        assert code == EXIT_OK
        assert all(lines[0]["result"][k] == v for k, v in entry["expect"].items())
        assert lines[0]["stats"] == {"solves": 6, "subset_checks": 0}

    @pytest.mark.parametrize(
        "entry_id, stats",
        [
            # The assigned doctor's omission keeps the work it did before the
            # normality gate moved ahead of solving.
            ("five_doctors/assigned_omission_is_cause", {"solves": 4, "subset_checks": 1}),
            # No world at least as normal as the actual one has another doctor
            # treating, so T2=1 or T5=1 admits none: the actual world is the
            # only solve (1,537 when every contingency was solved first).
            ("five_doctors/other_omission_not_cause", {"solves": 1, "subset_checks": 0}),
            ("five_doctors/fifth_omission_not_cause", {"solves": 1, "subset_checks": 0}),
            # The outcome cannot reach A1 once the context is folded in, so
            # the actual world is the only solve (2 while the failure pass
            # always ran; `test_five_doctors_failure_pass` keeps that count).
            ("five_doctors/assignment_not_cause", {"solves": 1, "subset_checks": 0}),
        ],
    )
    def test_five_doctors(self, entry_id, stats):
        assert corpus_entry_stats(entry_id) == stats

    def test_five_doctors_failure_pass(self):
        # Only the all-zero world admits A1=0, and it moves no other
        # variable: one change set, one solve for it (1,521 before).
        assert corpus_entry_stats("five_doctors/assignment_not_cause", "--failures") == {"solves": 2, "subset_checks": 0}


def corpus_entry_stats(entry_id, *flags):
    """The `stats` of a corpus `cause` entry run with `flags`, once its
    expectations are checked."""
    entry = next(e for e in load_corpus_entries() if e["id"] == entry_id)
    code, lines = run_json("cause", "-m", model_arg(entry["models"][0]), *flags, "-q", entry["query"])
    assert code == EXIT_OK
    assert all(lines[0]["result"][k] == v for k, v in entry["expect"].items())
    return lines[0]["stats"]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "causelab", "corpus", "list"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "poisoned_tea/CP_ness_cause" in proc.stdout


def test_cross_process_determinism():
    # Identical invocations must agree byte-for-byte outside the timing
    # field, regardless of the interpreter's hash seed.
    argv = [
        sys.executable, "-m", "causelab", "cause",
        "-m", model_arg("five_doctors.cm"),
        "-q",
        "cause T2=0 of S=1 in "
        "ctx(UA1=1,UA2=0,UA3=0,UA4=0,UA5=0,UT1=0,UT2=0,UT3=0,UT4=0,UT5=0)",
    ]
    outputs = []
    for seed in ("0", "12345"):
        env = {"PATH": "/usr/bin:/bin", "PYTHONHASHSEED": seed}
        if "PYTHONPATH" in os.environ:  # the package may be importable only from src/
            env["PYTHONPATH"] = os.environ["PYTHONPATH"]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        report.pop("timing")
        outputs.append(json.dumps(report, sort_keys=True))
    assert outputs[0] == outputs[1]
