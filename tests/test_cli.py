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


def test_schur_skeleton_of_the_empty_shape_is_empty(capsys):
    assert main(["schur", "--lambda", "", "--m", "1", "--n", "1", "--form", "jacobi-trudi"]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("sizes", [[], ["--m", "0", "--n", "0"], ["--m", "5", "--n", "7"]])
def test_schur_skeleton_reads_no_block_sizes(sizes, capsys):
    assert main(["schur", "--lambda", "2,1", *sizes, "--form", "jacobi-trudi"]) == 0
    assert capsys.readouterr().out.splitlines() == ["S[2]  S[3]", "S[0]  S[1]"]


@pytest.mark.parametrize("sizes", [[], ["--m", "1"], ["--n", "1"]])
def test_schur_expanded_needs_both_block_sizes(sizes, capsys):
    assert main(["schur", "--lambda", "2,1", *sizes]) == 2
    assert capsys.readouterr().err == "superimm: error: --form expanded needs both --m and --n\n"


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


def test_check_out_is_byte_identical_across_runs(tmp_path, capsys):
    # timing goes to stdout only, so two runs write the same bytes
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    for path in paths:
        assert main(["check", "macmahon", "--m", "1", "--n", "1", "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    fields = capsys.readouterr().out.splitlines()[0].split()
    assert fields[2].startswith("cases=") and float(fields[-1].removesuffix("s")) >= 0


def test_check_all_exits_zero(capsys):
    assert main(["check", "all", "--m", "1", "--n", "1", "--max-r", "2", "--order", "2",
                 "--trials", "1"]) == 0


def test_check_phi_isomorphism(capsys):
    assert main(["check", "phi-isomorphism", "--m", "2", "--n", "1", "--max-r", "3"]) == 0
    line, summary = capsys.readouterr().out.splitlines()
    name, status, cases = line.split()[:3]
    assert (name, status) == ("phi-isomorphism", "pass")
    assert int(cases.removeprefix("cases=")) > 0
    assert summary == "1/1 checks passed"


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "vanishing", "--m", "-1", "--n", "1", "--max-r", "1"],
         "superimm check: error: argument --m: must be at least 0, got -1"),
        (["check", "littlewood3", "--m", "0", "--n", "0", "--max-r", "1"],
         "superimm: error: block sizes need m + n >= 1"),
        (["berezinian", "--m", "1", "--n", "1", "--order", "-2"],
         "superimm berezinian: error: argument --order: must be at least 0, got -2"),
    ],
)
def test_bad_sizes_and_orders_are_parser_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["imm", "--lambda", "2", "--rows", "1,5", "--m", "1", "--n", "1"],
         "indices must lie in [1, 2]"),
        (["imm", "--lambda", "1", "--rows", "1"],
         "either --matrix FILE or both --m and --n are required"),
    ],
)
def test_bad_matrix_input_is_a_package_error(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"superimm: error: {message}\n"


def test_non_object_matrix_document_is_a_package_error(tmp_path, capsys):
    path = tmp_path / "mat.json"
    path.write_text("[1, 2]")
    assert main(["berezinian", "--matrix", str(path), "--order", "1"]) == 2
    assert capsys.readouterr().err == "superimm: error: matrix document must be a JSON object\n"


_GOOD_DOC = {
    "m": 1,
    "n": 1,
    "generators": {"a": "even", "d": "even", "b": "odd", "c": "odd"},
    "entries": [["a", "b"], ["c", "d"]],
}


@pytest.mark.parametrize(
    "text, message",
    [
        (json.dumps(dict(_GOOD_DOC, generators=["a"])),
         "generators must be a JSON object of parities"),
        (json.dumps(dict(_GOOD_DOC, entries=[[1, 0], [0, 1]])),
         "each entry must be an expression string"),
        (json.dumps(dict(_GOOD_DOC, entries=[None, ["c", "d"]])), "entries must form a 2x2 grid"),
        (json.dumps(dict(_GOOD_DOC, entries=None)), "entries must form a 2x2 grid"),
        (json.dumps(dict(_GOOD_DOC, m=1.7)), "block sizes m and n must be non-negative JSON integers"),
        (json.dumps(dict(_GOOD_DOC, n="1")), "block sizes m and n must be non-negative JSON integers"),
        ("[" * 5000 + "]" * 5000, "matrix document is nested too deeply"),
    ],
    ids=["generators-list", "numeric-cells", "null-row", "null-entries", "float-m", "string-n",
         "deep-nesting"],
)
def test_malformed_matrix_documents_exit_2(text, message, tmp_path, capsys):
    path = tmp_path / "mat.json"
    path.write_text(text)
    assert main(["imm", "--lambda", "1", "--rows", "1", "--matrix", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"superimm: error: {message}\n"


def _assert_one_line_error(prog, err, path):
    assert err.startswith(f"{prog}: error: ") and err.endswith(f"{str(path)!r}\n")
    assert err.count("\n") == 1


def test_missing_matrix_file_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "missing.json"
    assert main(["imm", "--lambda", "1", "--rows", "1", "--matrix", str(path)]) == 2
    _assert_one_line_error("superimm", capsys.readouterr().err, path)


def test_matrix_directory_is_a_one_line_error(tmp_path, capsys):
    assert main(["imm", "--lambda", "1", "--rows", "1", "--matrix", str(tmp_path)]) == 2
    _assert_one_line_error("superimm", capsys.readouterr().err, tmp_path)


def test_check_out_in_a_missing_directory_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    argv = ["check", "vanishing", "--m", "1", "--n", "1", "--max-r", "1", "--out", str(path)]
    assert main(argv) == 2
    _assert_one_line_error("superimm", capsys.readouterr().err, path)


def _sweep_must_not_run(*args, **kwargs):
    raise AssertionError("the sweep ran before --out was opened")


def test_check_opens_out_before_the_sweep(monkeypatch, tmp_path, capsys):
    import superimm.cli as cli

    monkeypatch.setattr(cli, "sweep", _sweep_must_not_run)
    path = tmp_path / "missing" / "x.json"
    assert main(["check", "all", "--m", "2", "--n", "1", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    _assert_one_line_error("superimm", captured.err, path)


def test_check_leaves_no_out_file_when_the_sweep_raises(monkeypatch, tmp_path, capsys):
    import superimm.cli as cli

    def failing_sweep(*args, **kwargs):
        raise ValueError("sweep failed")

    monkeypatch.setattr(cli, "sweep", failing_sweep)
    path = tmp_path / "report.json"
    assert main(["check", "kostant", "--m", "1", "--n", "1", "--out", str(path)]) == 2
    assert capsys.readouterr().err == "superimm: error: sweep failed\n"
    assert not path.exists()


def test_check_labels_vacuous_reports(capsys):
    # at (1|1) the first shape off the hook has size 4
    assert main(["check", "vanishing", "--m", "1", "--n", "1", "--max-r", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines[:4]] == ["vacuous"] * 3 + ["pass"]
    assert lines[-1] == "1/4 checks passed, 3 vacuous (0 cases)"


def _load_script(name: str):
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def _identity_suite_script():
    return _load_script("run_identity_suite")


def test_identity_suite_grid_runs_every_family():
    from superimm.verify import CHECK_FAMILIES

    assert {row[0] for row in _identity_suite_script().GRID} == set(CHECK_FAMILIES)


def test_identity_suite_script_counts_vacuous_reports(monkeypatch, tmp_path, capsys):
    script = _identity_suite_script()
    monkeypatch.setattr(script, "GRID", [("vanishing", 1, 1, 4, {}), ("kostant", 1, 1, 2, {})])
    out_path = tmp_path / "report.json"
    assert script.main(["--out", str(out_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("[vacuous] vanishing ")
    assert lines[0].endswith(" 1/4 checks, 3 vacuous, 5 cases")
    assert lines[1].startswith("[ok     ] kostant ")
    assert lines[3].startswith("3/6 checks passed, 3 vacuous (0 cases), 0 failed in ")
    data = json.loads(out_path.read_text())
    assert [entry["passed"] for entry in data] == [True] * 6


def test_identity_suite_script_rejects_zero_trials(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert _identity_suite_script().main(["--trials", "0", "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "run_identity_suite: error: sweep needs trials >= 1, got 0\n"
    assert not out_path.exists()


def test_identity_suite_out_in_a_missing_directory_is_a_one_line_error(
    monkeypatch, tmp_path, capsys
):
    script = _identity_suite_script()
    monkeypatch.setattr(script, "GRID", [("kostant", 1, 1, 1, {})])
    path = tmp_path / "missing" / "report.json"
    assert script.main(["--out", str(path)]) == 2
    _assert_one_line_error("run_identity_suite", capsys.readouterr().err, path)


def test_identity_suite_opens_out_before_the_sweep(monkeypatch, tmp_path, capsys):
    script = _identity_suite_script()
    monkeypatch.setattr(script, "sweep", _sweep_must_not_run)
    path = tmp_path / "missing" / "x.json"
    assert script.main(["--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    _assert_one_line_error("run_identity_suite", captured.err, path)


@pytest.mark.parametrize("argv, message", [
    (["--m", "0", "--n", "0"], "block sizes (0|0) must be non-negative with m + n >= 1"),
    (["--max-r", "0"], "--max-r must be at least 1, got 0"),
], ids=["empty-blocks", "max-r-zero"])
def test_diagonalize_demo_rejects_bad_input_in_one_line(argv, message, capsys):
    assert _load_script("diagonalize_demo").main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"diagonalize_demo: error: {message}\n"


def test_diagonalize_demo_smoke(capsys):
    assert _load_script("diagonalize_demo").main(["--m", "2", "--n", "1", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "residual exactly zero: True" in out
    assert "MISMATCH" not in out


def test_diagonalize_demo_fails_on_a_nonzero_residual(monkeypatch, capsys):
    import superimm.immanants as immanants

    original = immanants._unipotent_inverse

    def flipped(columns, algebra):
        # F^(d) = +sum_e N^(e) F^(d-e): u^-1 is wrong, the eigenvalues are not
        negated = [[[p if e == 0 else -p for e, p in enumerate(parts)] for parts in column]
                   for column in columns]
        return original(negated, algebra)

    monkeypatch.setattr(immanants, "_unipotent_inverse", flipped)
    assert _load_script("diagonalize_demo").main(["--m", "2", "--n", "1", "--max-r", "2"]) == 1
    out = capsys.readouterr().out
    assert "residual exactly zero: False" in out
    assert "MISMATCH" not in out
