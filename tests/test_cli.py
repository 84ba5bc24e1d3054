import json
import os
import subprocess
import sys

import pytest

import snkron
from snkron import closed_forms
from snkron.cli import _closed_decomposition, _decomposition_diff, main
from snkron.kronecker import Decomposition

# The child interpreter imports the same snkron as the tests, installed or not.
SRC = os.path.dirname(os.path.dirname(snkron.__file__))


def child_env():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "snkron", *args],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_json(*args):
    code, out, err = run_cli(*args)
    assert code == 0, err
    return json.loads(out)


def test_kron_command():
    record = run_json("kron", "2,2", "2,2", "1,1,1,1")
    assert record["command"] == "kron"
    assert record["inputs"]["partitions"] == [[2, 2], [2, 2], [1, 1, 1, 1]]
    assert record["result"] == 1
    assert "time_ms" in record


def test_kron_trivial_representations():
    assert run_json("kron", "3", "3", "3")["result"] == 1


def test_kron_size_mismatch_exits_2():
    code, out, err = run_cli("kron", "2,1", "2", "2,1")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_kron_parse_error_exits_2():
    code, _, err = run_cli("kron", "2,x", "2", "2")
    assert code == 2
    assert "error" in err


def test_kron_spaced_partition_exits_2():
    code, out, err = run_cli("kron", "3, 1", "2,2", "4")
    assert code == 2
    assert out == ""
    assert "error" in err and "Traceback" not in err


def test_missing_subcommand_exits_2():
    code, _, _ = run_cli()
    assert code == 2


def test_tensor_oracle_mode():
    record = run_json("tensor", "2,1", "2,1")
    assert record["entries"] == [
        {"partition": [3], "mult": 1},
        {"partition": [2, 1], "mult": 1},
        {"partition": [1, 1, 1], "mult": 1},
    ]


def test_tensor_both_mode_theorem1():
    record = run_json("tensor", "2,2", "2,2", "--mode", "both")
    assert record["modes_agree"] is True
    assert {tuple(e["partition"]) for e in record["entries"]} == {
        (4,),
        (2, 2),
        (1, 1, 1, 1),
    }


def test_tensor_both_mode_theorem2():
    record = run_json("tensor", "4,4", "2,2,2,2", "--max-length", "3", "--mode", "both")
    assert record["modes_agree"] is True
    assert record["entries"] == [
        {"partition": [4, 4], "mult": 1},
        {"partition": [4, 2, 2], "mult": 1},
    ]


def test_tensor_closed_mode():
    record = run_json("tensor", "3,3", "3,3", "--mode", "closed")
    assert [tuple(e["partition"]) for e in record["entries"]] == [
        (6,),
        (4, 2),
        (3, 1, 1, 1),
        (2, 2, 2),
    ]


def test_tensor_closed_unavailable_exits_3():
    code, _, err = run_cli("tensor", "3,1", "3,1", "--mode", "closed")
    assert code == 3
    assert "no closed form" in err
    # The four-row rectangle pairing needs the length bound to be covered.
    code, _, _ = run_cli("tensor", "4,4", "2,2,2,2", "--mode", "closed")
    assert code == 3
    code, _, _ = run_cli("tensor", "4,4", "2,2,2,2", "--max-length", "4", "--mode", "closed")
    assert code == 3


def test_tensor_size_mismatch_exits_2():
    code, _, _ = run_cli("tensor", "2,1", "2,2")
    assert code == 2


def test_verify_theorem1():
    code, out, _ = run_cli("verify", "--theorem", "1", "--n-max", "4")
    assert code == 0
    assert out.splitlines() == [f"theorem=1 n={n} pass" for n in range(1, 5)]


def test_verify_theorem2():
    code, out, _ = run_cli("verify", "--theorem", "2", "--n-max", "2")
    assert code == 0
    assert out.splitlines() == ["theorem=2 n=1 pass", "theorem=2 n=2 pass"]


def test_verify_vacuous():
    code, out, _ = run_cli("verify", "--theorem", "1", "--n-max", "0")
    assert code == 0
    assert out == ""


def test_verify_cap_exceeded_exits_2():
    code, _, err = run_cli("verify", "--theorem", "1", "--n-max", "13")
    assert code == 2
    assert "cap" in err


def test_chartable_tsv():
    code, out, _ = run_cli("chartable", "3", "--format", "tsv")
    assert code == 0
    assert out.splitlines() == [
        "3\t3\t1",
        "3\t2,1\t1",
        "3\t1,1,1\t1",
        "2,1\t3\t-1",
        "2,1\t2,1\t0",
        "2,1\t1,1,1\t2",
        "1,1,1\t3\t1",
        "1,1,1\t2,1\t-1",
        "1,1,1\t1,1,1\t1",
    ]


def test_chartable_json():
    record = run_json("chartable", "2", "--format", "json")
    assert record["result"]["classes"] == [[2], [1, 1]]
    assert record["result"]["centralizer_orders"] == [2, 2]
    assert record["result"]["characters"] == [
        {"partition": [2], "values": [1, 1]},
        {"partition": [1, 1], "values": [-1, 1]},
    ]


def test_chartable_cap_exits_2():
    code, _, _ = run_cli("chartable", "25")
    assert code == 2


def test_dim_command():
    assert run_json("dim", "2,2")["result"] == 2
    assert run_json("dim", "2,2", "--gl", "2")["result"] == 1
    assert run_json("dim", "0")["result"] == 1


def test_semigroup_command():
    record = run_json("semigroup", "t1", "3,1,1,1")
    assert record["result"]["member"] is True
    assert record["result"]["coefficients"] == [1, 1, 0, 0]
    assert record["result"]["generators"] == [[1, 1, 1, 1], [2], [2, 2], [2, 2, 2]]

    record = run_json("semigroup", "t2", "6,4,2")
    assert record["result"]["coefficients"] == [1, 0, 1]

    record = run_json("semigroup", "t1", "3,3")
    assert record["result"]["member"] is False
    assert record["result"]["coefficients"] is None

    code, _, _ = run_cli("semigroup", "t1", "3,1,1,1,1")
    assert code == 2


def test_output_is_byte_identical_without_timing():
    first = run_cli("--no-timing", "tensor", "2,2", "2,2", "--mode", "both")
    second = run_cli("--no-timing", "tensor", "2,2", "2,2", "--mode", "both")
    assert first == second
    assert "time_ms" not in json.loads(first[1])


def test_decomposition_diff_reporting():
    oracle = Decomposition(4, {(4,): 1, (2, 2): 2, (1, 1, 1, 1): 1})
    closed = Decomposition(4, {(4,): 1, (2, 2): 1, (3, 1): 1})
    diff = _decomposition_diff(oracle, closed)
    assert diff["oracle_only"] == [{"partition": [1, 1, 1, 1], "mult": 1}]
    assert diff["closed_only"] == [{"partition": [3, 1], "mult": 1}]
    assert diff["multiplicity_mismatch"] == [
        {"partition": [2, 2], "oracle": 2, "closed": 1}
    ]


def test_closed_shape_detection():
    assert _closed_decomposition((2, 2), (2, 2), None).entries == {
        (4,): 1,
        (2, 2): 1,
        (1, 1, 1, 1): 1,
    }
    assert _closed_decomposition((), (), None).entries == {(): 1}
    assert _closed_decomposition((4, 4), (2, 2, 2, 2), 3).entries == {
        (4, 4): 1,
        (4, 2, 2): 1,
    }
    assert _closed_decomposition((2, 2, 2, 2), (4, 4), 3) is not None
    assert _closed_decomposition((4, 4), (2, 2, 2, 2), 2).entries == {(4, 4): 1}
    assert _closed_decomposition((4, 4), (2, 2, 2, 2), None) is None
    assert _closed_decomposition((3, 1), (3, 1), None) is None
    assert _closed_decomposition((4,), (4,), None) is None
    assert _closed_decomposition((2, 2), (2, 2), 2).entries == {(4,): 1, (2, 2): 1}


# argv -> expected exit code, and for exit 0 what stdout holds: one JSON
# record ("json") or plain lines ("lines").
CONTRACT = [
    (["--no-timing", "kron", "2,2", "2,2", "1,1,1,1"], 0, "json"),
    (["kron", "2,1", "2", "2,1"], 2, None),
    (["kron", "2,x", "2", "2"], 2, None),
    (["kron", "3, 1", "2,2", "4"], 2, None),
    (["kron", "25", "25", "25"], 2, None),
    (["kron", "2", "2"], 2, None),
    (["tensor", "2,1", "2,1"], 0, "json"),
    (["tensor", "2,2", "2,2", "--mode", "both"], 0, "json"),
    (["tensor", "2,2,2,2", "4,4", "--max-length", "3", "--mode", "closed"], 0, "json"),
    (["tensor", "3,1", "3,1", "--mode", "closed"], 3, None),
    (["tensor", "4,4", "2,2,2,2", "--mode", "both"], 3, None),
    (["tensor", "2,2", "2,2", "--max-length", "0"], 2, None),
    (["tensor", "2,1", "2,2"], 2, None),
    (["tensor", "2,2", "2,2", "--mode", "nope"], 2, None),
    (["verify", "--theorem", "2", "--n-max", "2"], 0, "lines"),
    (["verify", "--theorem", "1", "--n-max", "13"], 2, None),
    (["verify", "--theorem", "1", "--n-max", "-1"], 2, None),
    (["verify", "--theorem", "3", "--n-max", "1"], 2, None),
    (["chartable", "0"], 0, "json"),
    (["chartable", "4", "--format", "tsv"], 0, "lines"),
    (["chartable", "25"], 2, None),
    (["chartable", "-1"], 2, None),
    (["dim", "0", "--gl", "3"], 0, "json"),
    (["dim", "2,1", "--gl", "0"], 2, None),
    (["semigroup", "t2", "4,4,4"], 0, "json"),
    (["semigroup", "t1", "1,1,1,1,1"], 2, None),
    (["semigroup", "t3", "2"], 2, None),
    ([], 2, None),
]


def test_cli_contract_table(capsys):
    for argv, want, shape in CONTRACT:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code == want, (argv, code, err)
        if code:
            assert out == "", argv
            assert "Traceback" not in err, argv
        elif shape == "json":
            json.loads(out)
        else:
            assert out and all(line for line in out.splitlines()), argv


def test_mismatch_exits_1(capsys, monkeypatch):
    wrong = Decomposition(4, {(4,): 1})
    monkeypatch.setattr(closed_forms, "theorem1_decomposition", lambda n: wrong)
    assert main(["--no-timing", "tensor", "2,2", "2,2", "--mode", "both"]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["modes_agree"] is False
    assert record["diff"]["oracle_only"]
    assert main(["verify", "--theorem", "1", "--n-max", "1"]) == 1
    assert capsys.readouterr().out == "theorem=1 n=1 FAIL\n"


@pytest.mark.parametrize("unbuffered", ["1", None])
def test_closed_reader_exits_2(unbuffered):
    # About 470 kB of output, far past a pipe buffer, so the writer must
    # meet the closed pipe whether it writes line by line or in blocks.
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen(
        [sys.executable, "-m", "snkron", "chartable", "14", "--format", "tsv"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"14\t14\t1\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err
