import io
import json

import mpmath as mp
import pytest

from gafunc.cli import main

from conftest import A_EX1_TEXT, IDEMPOTENT_TEXT


def run_cli(capsys, monkeypatch, args, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_minpoly_text(capsys, monkeypatch):
    code, out, err = run_cli(
        capsys, monkeypatch, ["minpoly", "--signature", "3,0"], A_EX1_TEXT
    )
    assert code == 0
    assert out.strip() == "x^4 + 4 x^3 + 8 x^2 + 8 x + 4"


def test_minpoly_structured(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        monkeypatch,
        ["minpoly", "--signature", "3,0", "--output", "structured"],
        A_EX1_TEXT,
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["coefficients"] == ["4", "8", "8", "4", "1"]


def test_charpoly(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, monkeypatch, ["charpoly", "--signature", "3,0"], A_EX1_TEXT
    )
    assert code == 0
    assert out.strip() == "C = [-1, -4, -8, -8, -4]"


def test_rank(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, monkeypatch, ["rank", "--signature", "3,0"], IDEMPOTENT_TEXT
    )
    assert code == 0
    assert out.strip() == "2"


def test_roots(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, monkeypatch, ["roots", "--signature", "3,0"], A_EX1_TEXT
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert all("multiplicity 2" in line for line in lines)


def test_func_exp(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        monkeypatch,
        ["func", "--signature", "3,0", "--function", "exp", "--precision", "30"],
        A_EX1_TEXT,
    )
    assert code == 0
    # scalar part is cos(1)/e
    first = out.split()[0]
    assert abs(float(first) - 0.19876611034641295) < 1e-12


def test_func_structured_round_trips(capsys, monkeypatch):
    args = [
        "func",
        "--signature",
        "3,0",
        "--function",
        "exp",
        "--output",
        "structured",
    ]
    code, out, _ = run_cli(capsys, monkeypatch, args, A_EX1_TEXT)
    assert code == 0
    rec = json.loads(out)
    from gafunc.io import canonical_json, mv_record, record_to_mv

    assert canonical_json(mv_record(record_to_mv(rec), rec["precision"])) == out


def test_func_classical_method_agrees(capsys, monkeypatch):
    base = ["func", "--signature", "3,0", "--function", "exp"]
    _, out1, _ = run_cli(capsys, monkeypatch, base, A_EX1_TEXT)
    _, out2, _ = run_cli(
        capsys, monkeypatch, base + ["--method", "classical"], A_EX1_TEXT
    )
    for a, b in zip(out1.split(), out2.split()):
        try:
            assert abs(float(a) - float(b)) < 1e-38
        except ValueError:
            assert a == b  # blade names and signs


def test_verify(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, monkeypatch, ["verify", "--signature", "3,0"], A_EX1_TEXT
    )
    assert code == 0
    assert "residual" in out
    assert float(out.split()[-1].replace("e-", "E-")) < 1e-40


def test_basis(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, monkeypatch, ["basis", "--signature", "3,0"], A_EX1_TEXT
    )
    assert code == 0
    assert out.count("Q_") == 4  # two roots, multiplicity two each


def test_matfunc(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, monkeypatch, ["matfunc", "--function", "exp"], "1 0; 1 1"
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert abs(float(rows[0].split()[0]) - 2.718281828459045) < 1e-12
    assert abs(float(rows[1].split()[0]) - 2.718281828459045) < 1e-12


def test_input_file(tmp_path, capsys, monkeypatch):
    path = tmp_path / "mv.txt"
    path.write_text(A_EX1_TEXT + "\n")
    code, out, _ = run_cli(
        capsys,
        monkeypatch,
        ["minpoly", "--signature", "3,0", "--input", str(path)],
    )
    assert code == 0
    assert out.strip() == "x^4 + 4 x^3 + 8 x^2 + 8 x + 4"


def test_parse_error_exit_code(capsys, monkeypatch):
    code, out, err = run_cli(
        capsys, monkeypatch, ["minpoly", "--signature", "3,0"], "++garbage"
    )
    assert code == 2
    assert json.loads(err)["error"] == "parse"


@pytest.mark.parametrize("function", ["tanh", "pow:abc"])
@pytest.mark.parametrize(
    "args,stdin",
    [
        (["func", "--signature", "3,0"], A_EX1_TEXT),
        (["matfunc"], "1 0; 1 1"),
    ],
    ids=["func", "matfunc"],
)
def test_unknown_function_is_parse_error(capsys, monkeypatch, args, stdin, function):
    code, out, err = run_cli(
        capsys, monkeypatch, args + ["--function", function], stdin
    )
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "parse"
    assert function in json.loads(lines[0])["detail"]


def test_empty_input_is_parse_error(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["minpoly", "--signature", "3,0"], "")
    assert code == 2


def test_singular_function_exit_code(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys,
        monkeypatch,
        ["func", "--signature", "3,0", "--function", "log"],
        IDEMPOTENT_TEXT,
    )
    assert code == 3
    assert json.loads(err)["error"] == "singular-function"


def test_bad_signature_is_parse_error(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys, monkeypatch, ["minpoly", "--signature", "bogus"], "1"
    )
    assert code == 2


def test_low_precision_rejected(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys,
        monkeypatch,
        ["minpoly", "--signature", "3,0", "--precision", "8"],
        "1",
    )
    assert code == 2
