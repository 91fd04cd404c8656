import json

import pytest

from superimm.cli import main


def test_imm_classical_determinant(capsys):
    assert main(["imm", "--lambda", "1,1", "--rows", "1,2", "--m", "2", "--n", "0"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "x1_1*x2_2 - x1_2*x2_1"


def test_imm_from_matrix_file(tmp_path, capsys):
    doc = {
        "m": 1,
        "n": 1,
        "generators": {"a": "even", "d": "even", "b": "odd", "c": "odd"},
        "entries": [["a", "b"], ["c", "d"]],
    }
    path = tmp_path / "mat.json"
    path.write_text(json.dumps(doc))
    assert main(["imm", "--lambda", "1", "--rows", "2", "--matrix", str(path), "--json"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "-d"
    assert json.loads(out[1]) == [{"coefficient": "-1", "even": [["d", 1]], "odd": []}]


def test_schur_expanded_and_skeleton(capsys):
    assert main(["schur", "--lambda", "1,1", "--m", "1", "--n", "1"]) == 0
    assert capsys.readouterr().out.strip() == "u1*v1 + v1^2"
    assert main(["schur", "--lambda", "2,1", "--m", "1", "--n", "1", "--form", "jacobi-trudi"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["S[2]  S[3]", "S[0]  S[1]"]


def test_berezinian_series_output(capsys):
    assert main(["berezinian", "--m", "1", "--n", "1", "--order", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "u^0: (1)"
    assert lines[1] == "u^1: -(x1_1 - x2_2)"


def test_check_writes_report_and_exit_codes(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(
        [
            "check", "kostant", "--m", "1", "--n", "1", "--max-r", "2",
            "--out", str(out_path),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "pass" in stdout and "2/2 checks passed" in stdout
    data = json.loads(out_path.read_text())
    assert len(data) == 2
    assert all(entry["passed"] for entry in data)
    assert data[0]["params"]["identity"] == "kostant"


def test_check_all_exits_zero(capsys):
    assert main(["check", "all", "--m", "1", "--n", "1", "--max-r", "2", "--order", "2",
                 "--trials", "1"]) == 0


def test_check_failure_exit_code(monkeypatch, capsys):
    import superimm.tensorspace as ts
    import superimm.immanants as imm

    monkeypatch.setattr(ts, "parity_weight", lambda i, m: 1)
    monkeypatch.setattr(imm, "parity_weight", lambda i, m: 1)
    code = main(["check", "kostant", "--m", "1", "--n", "1", "--max-r", "2"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("option", ["--max-r", "--trials"])
@pytest.mark.parametrize("value", ["0", "-1", "two"])
def test_check_rejects_counts_below_one(option, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "littlewood3", "--m", "1", "--n", "1", option, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {option}:" in err and "Traceback" not in err
