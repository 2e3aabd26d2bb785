import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from causelab.cli import EXIT_CAP, EXIT_DIAGNOSTICS, EXIT_OK, corpus_dir, main

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
        code, [report] = run_json(
            "solve", "-m", model_arg("forest_fire.cm"), "--ctx", "U1=1,U2=0,U3=2"
        )
        assert code == EXIT_OK and report["result"]["world"] == {"F": 0, "L": 1, "ML": 0}

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

    def test_cap_exits_two_in_exact_mode(self):
        ctx = ",".join(f"UV{i}=0" for i in range(1, 12))
        code, [payload] = run_json(
            "cause", "-m", model_arg("vote11.cm"), "--max-vars", "5",
            "-q", f"cause V1=0 of W=0 in ctx({ctx})",
        )
        assert code == EXIT_CAP
        assert payload["diagnostics"][0]["category"] == "resource-cap"

    def test_sampled_mode_runs_above_cap(self):
        ctx = ",".join(f"UV{i}=0" for i in range(1, 7)) + "," + ",".join(
            f"UV{i}=1" for i in range(7, 12)
        )
        code, [report] = run_json(
            "cause", "-m", model_arg("vote11.cm"), "--max-vars", "5", "--sampled",
            "--samples", "300", "-q", f"cause V1=0 of W=0 in ctx({ctx})",
        )
        assert code == EXIT_OK
        assert report["result"]["sampled_unsound"] is True
        assert report["result"]["verdict"] is True

    def test_sampled_resp_is_marked(self):
        ctx = ",".join(f"UV{i}=0" for i in range(1, 12))
        query = f"resp V1=0 of W=0 in ctx({ctx})"
        code, [sampled] = run_json(
            "resp", "-m", model_arg("vote11.cm"), "--max-vars", "5", "--sampled",
            "--samples", "300", "-q", query,
        )
        assert code == EXIT_OK
        assert sampled["result"]["sampled_unsound"] is True
        code, [exact] = run_json("resp", "-m", model_arg("vote11.cm"), "-q", query)
        assert code == EXIT_OK
        assert "sampled_unsound" not in exact["result"]

    def test_sampled_weighted_resp_respects_cap(self):
        # Above the cap, weighted scoring keeps the best sampled witness by
        # weight: the same samples as the sampled cause query, no exact search.
        ctx = ",".join(f"UV{i}=0" for i in range(1, 12))
        weights = ",".join(f"V{i}={i}" for i in range(1, 12)) + ",W=1"
        sampled = ("-m", model_arg("vote11.cm"), "--max-vars", "5", "--sampled", "--samples", "300")
        code, [resp] = run_json(
            "resp", *sampled, "--strategy", "weighted", "--weights", weights,
            "-q", f"resp V1=0 of W=0 in ctx({ctx})",
        )
        assert code == EXIT_OK
        _, [cause] = run_json("cause", *sampled, "-q", f"cause V1=0 of W=0 in ctx({ctx})")
        assert resp["result"]["sampled_unsound"] is True
        assert resp["stats"] == cause["stats"]
        assert 0 < Fraction(resp["result"]["score"]) <= Fraction(1, 21)  # exact: 1/21

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

    def test_env_var_overrides_cap(self, monkeypatch):
        monkeypatch.setenv("CAUSELAB_MAX_VARS", "5")
        ctx = ",".join(f"UV{i}=0" for i in range(1, 12))
        code, _ = run_json(
            "cause", "-m", model_arg("vote11.cm"), "-q", f"cause V1=0 of W=0 in ctx({ctx})"
        )
        assert code == EXIT_CAP

    def test_bad_model_file_reports_diagnostics(self, tmp_path):
        bad = tmp_path / "bad.cm"
        bad.write_text("model m { exogenous U : {0,1}; endogenous X : {0,1} = Z; }")
        code, [payload] = run_json("cause", "-m", str(bad), "-q", "cause X=1 of X=1 in ctx(U=1)")
        assert code == EXIT_DIAGNOSTICS
        assert payload["diagnostics"][0]["category"] == "unknown variable"


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


class TestWorkCounters:
    """Golden `stats` of the slowest corpus entries and of queries whose
    counts the shared search changed: the memoised search must solve
    exactly these distinct pin sets and make these subset checks."""

    def test_vote11_landslide_cause(self):
        ctx = ",".join(f"UV{i}=0" for i in range(1, 12))
        code, lines = run_json("cause", "-m", model_arg("vote11.cm"), "-q", f"cause V1=0 of W=0 in ctx({ctx})")
        assert code == EXIT_OK
        assert lines[0]["result"]["min_changes"] == 5
        assert lines[0]["stats"] == {"solves": 1916, "subset_checks": 10136}

    def test_firing_squad_blame_tenth(self):
        code, lines = run_json(
            "blame",
            "-m", model_arg("firing_squad.cm"),
            "-s", model_arg("firing_squad.ce"),
            "-q", "blame action M1<-1 of D=1 over state firing_uniform",
        )
        assert code == EXIT_OK
        assert lines[0]["result"]["score"] == "1/10"
        assert lines[0]["stats"] == {"solves": 11641, "subset_checks": 32257}

    def test_vote11_weighted_resp_is_one_search(self):
        # One search whose measure is the weight sum (2,241 solves and 10,780
        # subset checks when a count search ran first).
        ctx = ",".join(f"UV{i}=0" for i in range(1, 12))
        weights = ",".join(f"V{i}={i}" for i in range(1, 12)) + ",W=1"
        code, lines = run_json(
            "resp", "-m", model_arg("vote11.cm"), "--strategy", "weighted", "--weights", weights,
            "-q", f"resp V1=0 of W=0 in ctx({ctx})",
        )
        assert code == EXIT_OK
        assert lines[0]["result"]["score"] == "1/21"
        assert lines[0]["stats"] == {"solves": 325, "subset_checks": 644}

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
