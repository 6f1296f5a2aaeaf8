import json
from pathlib import Path

import jsonschema
import pytest

import lowerprev.cli as cli
from lowerprev.document import (
    DocumentError,
    parse_document,
    problem_schema,
    report_schema,
)
from lowerprev.gambles import BUDGET_ENV_VAR, default_closure_budget

DOCS = Path(__file__).resolve().parent.parent / "demos" / "documents"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def doc_path():
    def lookup(name):
        return str(DOCS / name)

    return lookup


class TestDocumentParsing:
    def test_round_trip(self, doc_path):
        for name in sorted(p.name for p in DOCS.glob("*.json")):
            raw = json.loads((DOCS / name).read_text())
            doc = parse_document(raw)
            assert doc.serialize() == raw

    def test_schema_violation_has_field_path(self):
        with pytest.raises(DocumentError) as err:
            parse_document({"space": ["a"], "assessment": [{"lower": "nope"}]})
        assert "$.assessment[0]" in str(err.value)

    def test_unresolved_gamble_name(self):
        with pytest.raises(DocumentError) as err:
            parse_document(
                {"space": ["a", "b"], "assessment": [{"gamble": "ghost", "lower": "1"}]}
            )
        assert "ghost" in str(err.value)

    def test_vector_width_checked(self):
        with pytest.raises(DocumentError) as err:
            parse_document(
                {
                    "space": ["a", "b"],
                    "gambles": {"f": ["1", "2", "3"]},
                    "assessment": [],
                }
            )
        assert "$.gambles.f" in str(err.value)

    def test_duplicate_entries_rejected(self):
        with pytest.raises(DocumentError):
            parse_document(
                {
                    "space": ["a", "b"],
                    "assessment": [
                        {"gamble": ["1", "0"], "lower": "0"},
                        {"event": ["a"], "lower": "1/2"},
                    ],
                }
            )

    def test_schemas_are_valid_json_schema(self):
        jsonschema.Draft202012Validator.check_schema(problem_schema())
        jsonschema.Draft202012Validator.check_schema(report_schema())

    @pytest.mark.parametrize("schema", [problem_schema(), report_schema()],
                             ids=["problem", "report"])
    def test_schemas_pass_their_own_metaschema(self, schema):
        # parse_document builds its validator without re-checking the schema
        jsonschema.validators.validator_for(schema).check_schema(schema)


class TestCommands:
    def test_check_coherent_step(self, capsys, doc_path):
        code, report = run(capsys, "check-coherent", doc_path("three_point_step.json"))
        assert code == 0
        assert report["results"][0]["decision"] is True
        jsonschema.validate(report, report_schema())

    def test_natext_queries_from_document(self, capsys, doc_path):
        code, report = run(capsys, "natext", doc_path("three_point_step.json"))
        assert code == 0
        assert [r["value"] for r in report["results"]] == ["1", "1/2"]

    def test_natext_flag_overrides(self, capsys, doc_path):
        code, report = run(
            capsys, "natext", doc_path("three_point_step.json"), "--gamble", "1,1,2"
        )
        assert code == 0
        assert report["results"] == [
            {"gamble": ["1", "1", "2"], "mode": "prevision", "value": "1"}
        ]

    def test_nmono_closure_violation(self, capsys, doc_path):
        code, report = run(
            capsys,
            "nmono",
            doc_path("three_point_step_closure.json"),
            "--n",
            "2",
            "--gambles",
            "--verify-witness",
        )
        assert code == 1
        result = report["results"][0]
        assert result["decision"] is False
        witness = result["witness"]
        assert witness["sum"] == "-1/2"
        assert witness["base"] == ["1", "1", "2"]
        assert sorted(tuple(c) for c in witness["companions"]) == [
            ("0", "1", "2"),
            ("1", "1", "1"),
        ]
        assert result["witness_verified"] is True

    def test_check_asl_sure_loss(self, capsys, doc_path):
        code, report = run(
            capsys,
            "check-asl",
            doc_path("event_prices_sure_loss.json"),
            "--verify-witness",
        )
        assert code == 1
        result = report["results"][0]
        assert result["witness"]["kind"] == "sure_loss_combination"
        assert result["witness"]["assessed_total"] == "6/5"
        assert result["witness_verified"] is True

    def test_norm_and_decompose(self, capsys, doc_path):
        code, report = run(capsys, "norm", doc_path("event_price_third.json"))
        assert code == 0 and report["results"][0]["value"] == "1/3"
        code, report = run(capsys, "norm", doc_path("ramp_price.json"))
        assert code == 0 and report["results"][0]["value"] == "1/2"
        code, report = run(capsys, "norm", doc_path("negative_ramp_price.json"))
        assert code == 0 and report["results"][0]["value"] == "1"
        code, report = run(capsys, "decompose", doc_path("event_price_third.json"))
        assert code == 0
        result = report["results"][0]
        assert result["scale"] == "1/3"
        assert result["unique"] is False
        assert result["coherent_part"] == [{"event": ["a"], "lower": "1"}]

    def test_check_exact_and_mobius_on_events(self, capsys, doc_path):
        code, report = run(capsys, "check-exact", doc_path("three_point_step_events.json"))
        assert code == 0 and report["results"][0]["decision"] is True
        code, report = run(capsys, "mobius", doc_path("three_point_step_events.json"))
        assert code == 0
        nonzero = {
            tuple(c["event"]): c["mass"]
            for c in report["results"][0]["coefficients"]
            if c["mass"] != "0"
        }
        assert nonzero == {("b", "c"): "1/2", ("a", "b", "c"): "1/2"}

    def test_choquet_and_inner(self, capsys, doc_path):
        code, report = run(
            capsys, "choquet", doc_path("three_point_step_events.json"), "--gamble", "0,1,2"
        )
        assert code == 0
        assert report["results"][0]["value"] == "1/2"
        code, report = run(
            capsys, "inner", doc_path("three_point_step_events.json"), "--event", "a,c"
        )
        assert code == 0
        assert report["results"][0]["value"] == "0"

    def test_attain_on_events_document(self, capsys, doc_path):
        code, report = run(capsys, "attain", doc_path("three_point_step_events.json"))
        assert code == 0
        result = report["results"][0]
        assert result["found"] is True

    def test_attain_absent_on_closure(self, capsys, doc_path):
        code, report = run(capsys, "attain", doc_path("three_point_step_closure.json"))
        assert code == 1
        assert report["results"][0]["found"] is False

    def test_comadd_closure(self, capsys, doc_path):
        code, report = run(capsys, "comadd", doc_path("three_point_step_closure.json"))
        assert code == 1
        assert report["results"][0]["witness"]["kind"] == "additivity_gap"

    def test_vacuous_and_infinite_nmono(self, capsys, doc_path):
        code, report = run(capsys, "vacuous", doc_path("vacuous_tail.json"))
        assert code == 0
        assert [r["value"] for r in report["results"]] == ["1", "0"]
        code, report = run(capsys, "nmono", doc_path("vacuous_tail.json"), "--n", "inf")
        assert code == 0
        assert report["results"][0]["decision"] is True
        assert report["results"][0]["max_verified"] == "inf"

    def test_schema_violation_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"space": [], "assessment": []}))
        code = cli.main(["check-asl", str(bad)])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert "$.space" in out["error"]

    def test_unreadable_path_exits_2(self, capsys, tmp_path):
        code = cli.main(["check-asl", str(tmp_path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert set(out) == {"schema", "command", "error"}
        assert str(tmp_path) in out["error"]

    def test_too_deeply_nested_json_exits_2(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        code = cli.main(["check-asl", str(deep)])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert set(out) == {"schema", "command", "error"}
        assert out["error"].startswith(f"{deep}: not valid JSON: ")

    @pytest.mark.parametrize("document, error", [
        ({"space": ["a", "b"], "assessment": [{"gamble": ["1", "0"], "lower": "1/0"}]},
         "$.assessment[0].lower: zero denominator: '1/0'"),
        ({"space": ["a", "b"], "gambles": {"f": ["1/0", "1"]},
          "assessment": [{"gamble": "f", "lower": "0"}]},
         "$.gambles.f: zero denominator: '1/0'"),
    ], ids=["lower", "named-gamble"])
    def test_zero_denominator_names_its_field(self, capsys, tmp_path, document, error):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(document))
        code = cli.main(["check-asl", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out == {"schema": "v1", "command": "check-asl", "error": error}

    def test_precondition_error_exits_2(self, capsys, doc_path):
        code = cli.main(
            ["natext", doc_path("event_prices_sure_loss.json"), "--gamble", "1,0"]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert "sure loss" in out["error"]

    def test_choquet_on_gambles_names_its_input(self, capsys, doc_path):
        code = cli.main(["choquet", doc_path("ramp_price.json"), "--gamble", "1,2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out == {
            "schema": "v1",
            "command": "choquet",
            "error": "choquet needs an assessment on events; this document assesses gambles",
        }

    def test_determinism(self, capsys, doc_path):
        first = run(capsys, "natext", doc_path("three_point_step.json"))
        second = run(capsys, "natext", doc_path("three_point_step.json"))
        assert first == second


GOLDEN = Path(__file__).resolve().parent / "golden_cli_reports.json"


class TestReportSchema:
    """Every verdict report validates, and only with exit status 0 or 1."""

    @pytest.fixture(scope="class")
    def validator(self):
        schema = report_schema()
        return jsonschema.validators.validator_for(schema)(schema)

    @pytest.fixture(scope="class")
    def golden(self):
        return [
            (r["exit_status"], json.loads(r["stdout"]))
            for r in json.loads(GOLDEN.read_text())
        ]

    def test_golden_verdict_reports_validate(self, validator, golden):
        for status, report in golden:
            if status != 2:
                assert report["exit_status"] == status
                validator.validate(report)

    def test_wrong_exit_status_fails(self, validator, golden):
        verdict = next(report for status, report in golden if status == 0)
        for wrong in (2, -1, "0", None):
            assert not validator.is_valid({**verdict, "exit_status": wrong})


class TestClosureBudgetVariable:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
        assert default_closure_budget() == 10_000

    def test_override(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "37")
        assert default_closure_budget() == 37

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "many")
        with pytest.raises(ValueError):
            default_closure_budget()
