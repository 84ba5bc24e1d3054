import argparse
import json
import math
import os
import re
import subprocess
import sys

import pytest

import snkron
from snkron import closed_forms
from snkron.cli import _build_parser, _decomposition_diff, main
from snkron.partitions import Decomposition

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
    code, out, err = run_cli("tensor", "3,1", "3,1", "--mode", "closed")
    assert code == 3
    assert out == ""
    assert "no closed form" in err


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


def test_chartable_json():
    record = run_json("chartable", "3")
    assert record["inputs"] == {"n": 3}
    assert record["result"]["classes"] == [[3], [2, 1], [1, 1, 1]]
    assert record["result"]["centralizer_orders"] == [3, 2, 6]
    assert record["result"]["characters"] == [
        {"partition": [3], "values": [1, 1, 1]},
        {"partition": [2, 1], "values": [-1, 0, 2]},
        {"partition": [1, 1, 1], "values": [1, -1, 1]},
    ]


def test_chartable_cap_exits_2():
    code, _, _ = run_cli("chartable", "25")
    assert code == 2


def test_dim_command():
    assert run_json("dim", "2,2")["result"] == 2
    assert run_json("dim", "2,2", "--gl", "2")["result"] == 1
    assert run_json("dim", "0")["result"] == 1


def test_dim_past_the_int_digit_limit(capsys):
    # f^(8000,8000) = Catalan(8000) has 4 806 digits, past the default
    # int-to-str limit of Python >= 3.10.7.  The record is written anyway,
    # the caller's limit is restored, and parsing keeps the limit.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert main(["--no-timing", "dim", "8000,8000"]) == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    out = capsys.readouterr().out
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        record = json.loads(out)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert record == {
        "command": "dim",
        "inputs": {"partition": [8000, 8000], "gl": None},
        "result": math.comb(16000, 8000) // 8001,
    }
    if limit is not None:
        assert main(["dim", "9" * (limit + 1)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "error" in err and "Traceback" not in err


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
    # Two or more entries per list, each list in decreasing order.
    oracle = Decomposition(
        6, {(6,): 1, (5, 1): 2, (4, 2): 1, (3, 3): 3, (2, 2, 2): 1, (1,) * 6: 1}
    )
    closed = Decomposition(
        6, {(6,): 2, (5, 1): 1, (4, 1, 1): 1, (3, 3): 3, (3, 2, 1): 2, (2, 1, 1, 1, 1): 1}
    )
    diff = _decomposition_diff(oracle, closed)
    assert list(diff) == ["oracle_only", "closed_only", "multiplicity_mismatch"]
    assert diff["oracle_only"] == [
        {"partition": [4, 2], "mult": 1},
        {"partition": [2, 2, 2], "mult": 1},
        {"partition": [1, 1, 1, 1, 1, 1], "mult": 1},
    ]
    assert diff["closed_only"] == [
        {"partition": [4, 1, 1], "mult": 1},
        {"partition": [3, 2, 1], "mult": 2},
        {"partition": [2, 1, 1, 1, 1], "mult": 1},
    ]
    assert diff["multiplicity_mismatch"] == [
        {"partition": [6], "oracle": 1, "closed": 2},
        {"partition": [5, 1], "oracle": 2, "closed": 1},
    ]


# argv -> expected exit code, for exit 0 what stdout holds (one JSON record,
# "json", or plain lines, "lines"), and otherwise a substring of stderr.
CONTRACT = [
    (["--no-timing", "kron", "2,2", "2,2", "1,1,1,1"], 0, "json", None),
    (["kron", "2,1", "2", "2,1"], 2, None, "unequal sizes"),
    (["kron", "2,x", "2", "2"], 2, None, "cannot parse"),
    (["kron", "3, 1", "2,2", "4"], 2, None, "cannot parse"),
    (["kron", "25", "25", "25"], 2, None, "cap"),
    (["kron", "2", "2"], 2, None, "required"),
    (["tensor", "2,1", "2,1"], 0, "json", None),
    (["tensor", "2,2", "2,2", "--mode", "both"], 0, "json", None),
    (["tensor", "2,2,2,2", "4,4", "--max-length", "3", "--mode", "closed"], 0, "json", None),
    (["tensor", "3,1", "3,1", "--mode", "closed"], 3, None,
     "error: no closed form covers 3,1 (x) 3,1 with no length bound\n"),
    (["tensor", "4,4", "2,2,2,2", "--mode", "both"], 3, None, "no closed form"),
    # The four-row rectangle pairing needs the length bound to be covered.
    (["tensor", "4,4", "2,2,2,2", "--mode", "closed"], 3, None, "no closed form"),
    (["tensor", "4,4", "2,2,2,2", "--max-length", "4", "--mode", "closed"], 3, None,
     "error: no closed form covers 4,4 (x) 2,2,2,2 with --max-length 4\n"),
    (["tensor", "2,2", "2,2", "--max-length", "0"], 2, None, "length bound"),
    (["tensor", "2,2", "2,2", "--max-length", "0", "--mode", "both"], 2, None, "length bound"),
    (["tensor", "2,1", "2,2"], 2, None, "unequal sizes"),
    (["tensor", "2,1", "2,2", "--mode", "closed"], 2, None, "unequal sizes"),
    (["tensor", "2,2", "2,2", "--mode", "nope"], 2, None, "invalid choice"),
    (["tensor", ",".join(["1"] * 60), ",".join(["1"] * 60)], 2, None, "cap"),
    # Past the closed-form width bound, --mode closed exits before any
    # generation; --mode both meets the oracle's cap first.
    (["tensor", "271,271", "271,271", "--mode", "closed"], 2, None, "closed-form bound of 270"),
    (["tensor", "271,271", "271,271", "--mode", "both"], 2, None, "cap"),
    (["tensor", "542,542", "271,271,271,271", "--max-length", "3", "--mode", "closed"], 2, None,
     "closed-form bound of 270"),
    (["verify", "--theorem", "2", "--n-max", "2"], 0, "lines", None),
    (["verify", "--theorem", "1", "--n-max", "13"], 2, None, "cap"),
    (["verify", "--theorem", "2", "--n-max", "7"], 2, None, "cap"),
    (["verify", "--theorem", "1", "--n-max", "-1"], 2, None, "nonnegative"),
    (["verify", "--theorem", "3", "--n-max", "1"], 2, None, "invalid choice"),
    (["chartable", "0"], 0, "json", None),
    (["chartable", "4", "--format", "tsv"], 2, None, "unrecognized arguments"),
    (["chartable", "25"], 2, None, "cap"),
    (["chartable", "-1"], 2, None, "no symmetric group"),
    (["dim", "0", "--gl", "3"], 0, "json", None),
    (["dim", "2,1", "--gl", "0"], 2, None, "GL dimension"),
    # Sizes past the dimension bound are an input error, not a crash or a
    # long run; the bound is checked before any factorial.
    (["dim", "99999999999999999999"], 2, None, "dimension bound of 40000 cells"),
    (["dim", "99999999999999999999", "--gl", "1"], 2, None, "dimension bound of 40000 cells"),
    (["dim", "40001"], 2, None, "40001 cells exceed"),
    (["dim", "1000000"], 2, None, "dimension bound"),
    (["dim", "300000", "--gl", "2"], 2, None, "dimension bound"),
    # 800 cells at a D of 1 001 bits: 800 bits past the numerator bound.
    (["dim", "800", "--gl", str(2**1000 - 800)], 2, None, "800800 numerator bits exceed"),
    (["semigroup", "t1", "5,3,1,1"], 0, "json", None),
    (["semigroup", "t2", "4,4,4"], 0, "json", None),
    (["semigroup", "t1", "1,1,1,1,1"], 2, None, "more than 4 parts"),
    (["semigroup", "t3", "2"], 2, None, "invalid choice"),
    ([], 2, None, "required"),
]


def test_cli_contract_table(capsys):
    for argv, want, shape, want_err in CONTRACT:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code == want, (argv, code, err)
        if code:
            assert out == "", argv
            assert "Traceback" not in err, argv
            assert "error" in err and want_err in err, (argv, err)
        elif shape == "json":
            # One record per command, and main alone writes its frame.
            record = json.loads(out)
            keys = list(record)
            command = next(arg for arg in argv if not arg.startswith("-"))
            assert keys[0] == "command" and record["command"] == command, argv
            timed = "--no-timing" not in argv
            assert (keys[-1] == "time_ms") == ("time_ms" in record) == timed, argv
        else:
            assert out and all(line for line in out.splitlines()), argv


# README's "Command line" section, from its heading to the next one.
README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
with open(README, encoding="utf-8") as f:
    COMMAND_LINE = f.read().split("\n## Command line\n")[1].split("\n## ")[0]
# (command, argv) for every example in the section's command table.
EXAMPLES = [
    (row.split("`")[1], example.split()[1:])
    for row in COMMAND_LINE.splitlines() if row.startswith("| `")
    for example in re.findall(r"`(snkron [^`]*)`", row)
]


@pytest.mark.parametrize("command, argv", EXAMPLES, ids=[" ".join(a) for _, a in EXAMPLES])
def test_readme_command_examples(capsys, command, argv):
    assert argv[0] == command
    assert main(["--no-timing", *argv]) == 0
    out = capsys.readouterr().out
    if command == "verify":
        theorem, n_max = argv[argv.index("--theorem") + 1], int(argv[argv.index("--n-max") + 1])
        assert out.splitlines() == [f"theorem={theorem} n={n} pass" for n in range(1, n_max + 1)]
    else:
        assert json.loads(out)["command"] == command


def test_readme_json_example(capsys):
    # Seven examples, so a misread table cannot pass as an empty one.
    assert len(EXAMPLES) == 7
    example = json.loads(re.search(r"```json\n(.*?)```", COMMAND_LINE, re.S).group(1))
    assert example.pop("time_ms") == 0
    assert main(["--no-timing", "kron", "2,2", "2,2", "1,1,1,1"]) == 0
    assert json.loads(capsys.readouterr().out) == example


def test_mismatch_exits_1(capsys, monkeypatch):
    wrong = Decomposition(4, {(4,): 1})
    monkeypatch.setattr(closed_forms, "theorem1_decomposition", lambda n: wrong)
    assert main(["--no-timing", "tensor", "2,2", "2,2", "--mode", "both"]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["modes_agree"] is False
    assert record["diff"]["oracle_only"]
    assert main(["verify", "--theorem", "1", "--n-max", "1"]) == 1
    assert capsys.readouterr().out == "theorem=1 n=1 FAIL\n"


def test_both_mode_meets_the_cap_before_the_closed_form(capsys, monkeypatch):
    # Past the oracle's cap, --mode both exits 2 without building the closed
    # form, covered or not.
    def no_closed_form(*args):
        raise AssertionError("closed form built past the cap")

    monkeypatch.setattr(snkron.cli, "closed_form", no_closed_form)
    for argv in (
        ["tensor", "270,270", "270,270", "--mode", "both"],
        ["tensor", "26,26", "13,13,13,13", "--max-length", "3", "--mode", "both"],
        ["tensor", "14,13", "27", "--mode", "both"],
    ):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "exceed the cap" in err, argv


# Every option string of the CLI, global (None) and per command.
OPTIONS = {
    None: {"--no-timing"},
    "kron": set(),
    "tensor": {"--max-length", "--mode"},
    "verify": {"--theorem", "--n-max"},
    "chartable": set(),
    "dim": {"--gl"},
    "semigroup": set(),
}


def test_option_strings_are_pinned():
    def options(parser):
        return {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}

    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {name: options(p) for name, p in sub.choices.items()}
    assert {None: options(parser), **found} == OPTIONS


@pytest.mark.parametrize("unbuffered", ["1", None])
def test_closed_reader_exits_2(unbuffered):
    # One JSON line of about 208 kB, far past a pipe buffer, so the writer
    # must meet the closed pipe whether stdout is buffered or not.  The
    # reader takes only the first bytes; readline() would drain the record.
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen(
        [sys.executable, "-m", "snkron", "chartable", "16"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    head = b'{"command": "chartable"'
    assert proc.stdout.read(len(head)) == head
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err


# The child forks before it measures: a process keeps the peak of the one
# that spawned it (here the test runner) as its own starting ru_maxrss, and
# a forked one starts from its own size.
PEAK_GROWTH = r"""
import io, os, resource
from contextlib import redirect_stdout
from snkron.cli import main

def peak_kib(*argv):
    with redirect_stdout(io.StringIO()):
        assert main(["--no-timing", *argv]) == 0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

read, write = os.pipe()
if not os.fork():
    base = peak_kib("dim", "1")
    os.write(write, b"%d" % (peak_kib("tensor", "12,12", "12,12") - base))
    os._exit(0)
os.close(write)
print(os.read(read, 32).decode())
assert os.wait()[1] == 0
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB and fork exists on Linux")
def test_decomposition_memory_growth_in_a_subprocess():
    # A cold S_24 square grows the peak of a process by about 1.8 MB over a
    # trivial command when candidates' rows are not kept, and by about
    # 5.4 MB when every candidate's full row is stored.
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_GROWTH], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 3 * 1024
