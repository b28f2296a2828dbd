"""Command-line interface: formats, verdicts, exit codes, determinism."""

import json
import time
from pathlib import Path

import pytest

from golaypairs import (
    DecompositionCertificate,
    QaryArray,
    StandardParams,
    verify_certificate,
    verify_theorem,
)
from golaypairs.cli import main

PARAMS = {"q": 2, "m": 2, "pi": [1, 2], "c": [0, 0], "c0": 0, "c_prime": 0}
PAIR = {
    "f": {"q": 2, "m": 2, "entries": [0, 0, 0, 1]},
    "g": {"q": 2, "m": 2, "entries": [0, 1, 0, 0]},
}


GOLDEN = Path(__file__).parent / "golden"


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_construct_writes_the_worked_pair(tmp_path, capsys):
    src = write(tmp_path, "params.json", PARAMS)
    out = tmp_path / "pair.json"
    assert main(["construct", src, "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data == PAIR
    assert capsys.readouterr().out == ""


def test_construct_to_stdout(tmp_path, capsys):
    src = write(tmp_path, "params.json", PARAMS)
    assert main(["construct", src]) == 0
    assert json.loads(capsys.readouterr().out) == PAIR


def test_verify_standard_pair(tmp_path, capsys):
    src = write(tmp_path, "pair.json", PAIR)
    assert main(["verify", src]) == 0
    assert capsys.readouterr().out == "GAP; standard; pi=[1,2]\n"


def test_verify_json_format(tmp_path, capsys):
    src = write(tmp_path, "pair.json", PAIR)
    assert main(["verify", src, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["gap"] is True
    assert data["standard"] == PARAMS
    assert data["verdict"] == "GAP; standard; pi=[1,2]"


def test_verify_non_pair_exits_one(tmp_path, capsys):
    bad = {
        "f": {"q": 2, "m": 1, "entries": [0, 0]},
        "g": {"q": 2, "m": 1, "entries": [0, 0]},
    }
    src = write(tmp_path, "bad.json", bad)
    assert main(["verify", src]) == 1
    assert capsys.readouterr().out == "not a GAP\n"


def test_verify_odd_modulus_pair(tmp_path, capsys):
    pair = {
        "f": {"q": 3, "m": 0, "entries": [1]},
        "g": {"q": 3, "m": 0, "entries": [2]},
    }
    src = write(tmp_path, "odd.json", pair)
    assert main(["verify", src]) == 0
    assert capsys.readouterr().out == "GAP\n"


def test_decompose_round_trips_through_files(tmp_path, capsys):
    src = write(tmp_path, "pair.json", PAIR)
    out = tmp_path / "decomp.json"
    assert main(["decompose", src, "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    params = StandardParams.from_json_dict(data["params"])
    assert params == StandardParams(2, 2, (1, 2), (0, 0), 0, 0)
    cert = DecompositionCertificate.from_json_dict(data["certificate"])
    f = QaryArray.from_json_dict(PAIR["f"])
    g = QaryArray.from_json_dict(PAIR["g"])
    verify_certificate(f, g, cert)


def test_decompose_non_pair_exits_one(tmp_path, capsys):
    bad = {
        "f": {"q": 2, "m": 1, "entries": [0, 0]},
        "g": {"q": 2, "m": 1, "entries": [0, 0]},
    }
    src = write(tmp_path, "bad.json", bad)
    assert main(["decompose", src]) == 1
    assert "error" in capsys.readouterr().err


def test_decompose_odd_modulus_exits_two(tmp_path, capsys):
    pair = {
        "f": {"q": 3, "m": 0, "entries": [1]},
        "g": {"q": 3, "m": 0, "entries": [2]},
    }
    src = write(tmp_path, "odd.json", pair)
    assert main(["decompose", src]) == 2


def test_project_formats(tmp_path, capsys):
    src = write(tmp_path, "arr.json", PAIR["f"])
    assert main(["project", src]) == 0
    assert capsys.readouterr().out == "0,0,0,1\n"
    assert main(["project", src, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == [0, 0, 0, 1]


def test_census_json_report(tmp_path, capsys):
    assert main(["census", "3", "2"]) == 0
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert data["gap_pair_count"] == 0
    assert data["all_standard"] is True
    assert "elapsed" in captured.err
    assert "elapsed" not in captured.out


def test_census_text_report(capsys):
    assert main(["census", "2", "1", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "complementary pairs: 4" in out
    assert "all standard: yes" in out


def test_census_budget_exit_code(capsys):
    assert main(["census", "2", "5"]) == 3
    assert "budget" in capsys.readouterr().err


def test_census_budget_refusal_never_builds_the_space_size(capsys):
    # 2^(2^40) arrays: refused by comparison, not by evaluating the power
    assert main(["census", "2", "40"]) == 3
    err = capsys.readouterr().err
    assert "budget" in err
    assert "Traceback" not in err


def test_census_negative_budget_is_malformed_input(capsys):
    assert main(["census", "4", "1", "--budget", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and len(err.splitlines()) == 1
    assert "budget must be nonnegative" in err
    assert main(["census", "4", "1", "--budget", "0"]) == 3


def test_census_memory_refusal_exits_three_at_once(capsys):
    # 2^32 arrays pass the array budget; the join's memory estimate does not
    t0 = time.perf_counter()
    assert main(["census", "2", "5", "--budget", "10000000000"]) == 3
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert "memory budget" in err
    assert "Traceback" not in err


def test_census_pair_list_refusal_exits_three_within_seconds(capsys):
    # 65,536 arrays pass the array budget and the join estimate; their
    # 8.4 M pairs would not fit the memory budget
    t0 = time.perf_counter()
    assert main(["census", "256", "1"]) == 3
    assert time.perf_counter() - t0 < 5.0
    err = capsys.readouterr().err
    assert "memory budget" in err and "8421376 pairs" in err
    assert "Traceback" not in err


def test_construct_refusal_exits_three_within_seconds(tmp_path, capsys):
    # valid parameters whose 2^40-cell pair would not fit the memory budget
    m = 40
    params = {**PARAMS, "q": 4, "m": m, "pi": list(range(1, m + 1)), "c": [0] * m}
    src = write(tmp_path, "params.json", params)
    t0 = time.perf_counter()
    assert main(["construct", src]) == 3
    assert time.perf_counter() - t0 < 5.0
    captured = capsys.readouterr()
    assert "m=40" in captured.err and "memory budget" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_census_reports_identical_across_workers(tmp_path, capsys):
    outs = []
    for w in ("1", "2", "8"):
        out = tmp_path / f"r{w}.json"
        assert main(
            ["census", "2", "3", "--workers", w, "--output", str(out)]
        ) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_malformed_json_exits_two(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    assert main(["verify", str(p)]) == 2
    assert main(["construct", str(p)]) == 2


def test_missing_file_exits_two(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "absent.json")]) == 2


def test_shape_violations_exit_two(tmp_path, capsys):
    src = write(
        tmp_path,
        "bad.json",
        {"f": {"q": 2, "m": 1, "entries": [0, 0, 0]}, "g": PAIR["g"]},
    )
    assert main(["verify", src]) == 2
    src = write(tmp_path, "bad2.json", {"f": PAIR["f"]})
    assert main(["verify", src]) == 2
    src = write(
        tmp_path,
        "bad3.json",
        {"f": {"q": 2, "m": 1, "entries": [0, 0]}, "g": PAIR["g"]},
    )
    assert main(["verify", src]) == 2
    src = write(tmp_path, "badparams.json", {"q": 3, "m": 1, "pi": [1], "c": [0], "c0": 0, "c_prime": 0})
    assert main(["construct", src]) == 2


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(PAIR)))
    assert main(["verify", "-"]) == 0
    assert capsys.readouterr().out == "GAP; standard; pi=[1,2]\n"


def test_written_files_read_back_without_loss(tmp_path, capsys):
    src = write(tmp_path, "params.json", PARAMS)
    pair_path = tmp_path / "pair.json"
    assert main(["construct", src, "--output", str(pair_path)]) == 0
    # the constructed pair file feeds directly into verify and decompose
    assert main(["verify", str(pair_path)]) == 0
    decomp_path = tmp_path / "decomp.json"
    assert main(["decompose", str(pair_path), "--output", str(decomp_path)]) == 0
    # and the decomposed parameters rebuild the identical pair file
    params2 = json.loads(decomp_path.read_text())["params"]
    src2 = write(tmp_path, "params2.json", params2)
    pair2_path = tmp_path / "pair2.json"
    assert main(["construct", src2, "--output", str(pair2_path)]) == 0
    assert pair2_path.read_bytes() == pair_path.read_bytes()
    capsys.readouterr()


def test_only_boundary_values_are_validated(monkeypatch, capsys):
    # internal arrays are built unchecked; only the two loaded from JSON run
    # the constructor's checks
    calls = []
    check = QaryArray.__post_init__

    def counted(self):
        calls.append(self)
        check(self)

    monkeypatch.setattr(QaryArray, "__post_init__", counted)
    verify_theorem(4, 2)
    assert len(calls) == 0
    assert main(["decompose", str(GOLDEN / "pair_4_4.json")]) == 0
    assert len(calls) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, code, expected",
    [
        (["census", "4", "2"], 0, "census_4_2.json"),
        (["census", "4", "2", "--format", "text"], 0, "census_4_2.txt"),
        (["census", "3", "2"], 0, "census_3_2.json"),
        (["decompose", GOLDEN / "pair_4_4.json"], 0, "decompose_pair_4_4.json"),
        (["verify", GOLDEN / "pair_4_4.json", "--format", "json"], 0,
         "verify_pair_4_4.json"),
        (["verify", GOLDEN / "nonpair_4_4.json", "--format", "json"], 1,
         "verify_nonpair_4_4.json"),
    ],
)
def test_golden_output_bytes(argv, code, expected, capsys):
    # expected stdout was recorded from an earlier release; it must not drift
    assert main([str(a) for a in argv]) == code
    assert capsys.readouterr().out == (GOLDEN / expected).read_text()


def test_debug_switch_writes_the_census_records_to_stderr(capsys):
    import logging

    assert main(["census", "4", "2", "--format", "text"]) == 0
    plain = capsys.readouterr()
    assert "verify_theorem" not in plain.err
    assert main(["--debug", "census", "4", "2", "--format", "text"]) == 0
    debug = capsys.readouterr()
    assert debug.out == plain.out
    (record,) = [line for line in debug.err.splitlines() if line.startswith("verify_theorem")]
    assert "q=4 m=2: 256 pairs certified" in record
    assert "rows per dimension {1: 256, 2: 256}" in record
    assert any(line.startswith("census q=4 m=2: 64 representatives") for line in debug.err.splitlines())
    # the handler goes with the call, and exit codes do not change
    assert logging.getLogger("golaypairs").handlers == []
    assert main(["--debug", "census", "4", "2", "--budget", "0"]) == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "number",
    [
        {"f": {"q": 2.9, "m": 1, "entries": [0, 1.7]},
         "g": {"q": 2, "m": 1.5, "entries": [0, 0]}},
        {"f": {"q": 2, "m": 1, "entries": [0, True]},
         "g": {"q": 2, "m": 1, "entries": [0, 0]}},
        {"f": {"q": 2, "m": 2, "entries": [0, 0, 0, 1]},
         "g": {"q": 2, "m": "2", "entries": [0, 1, 0, 0]}},
    ],
    ids=["float", "bool", "string"],
)
def test_verify_rejects_non_integer_json_numbers(tmp_path, capsys, number):
    assert main(["verify", write(tmp_path, "pair.json", number)]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "field", [{"q": 4.5}, {"c0": True}, {"c_prime": "1"}], ids=["float", "bool", "string"]
)
def test_construct_rejects_non_integer_json_numbers(tmp_path, capsys, field):
    src = write(tmp_path, "params.json", {**PARAMS, **field})
    assert main(["construct", src]) == 2
    assert capsys.readouterr().out == ""


def test_verify_refuses_a_modulus_over_the_bound(tmp_path, capsys):
    # the cyclotomic context for q = 100003 would hold 10^10 integers
    pair = {
        "f": {"q": 100003, "m": 1, "entries": [0, 1]},
        "g": {"q": 100003, "m": 1, "entries": [0, 0]},
    }
    assert main(["verify", write(tmp_path, "pair.json", pair)]) == 2
    err = capsys.readouterr().err
    assert "4096" in err and "Traceback" not in err


@pytest.mark.parametrize("q", [2**63 - 2, 2**70], ids=["2**63-2", "2**70"])
def test_construct_is_exact_for_a_modulus_past_int64(tmp_path, capsys, q):
    # m = 7 takes the numpy transform for small q; its int64 sums would wrap
    m, pi, c = 7, [3, 1, 7, 5, 2, 6, 4], [q - 1 - 3 * k for k in range(7)]
    params = {"q": q, "m": m, "pi": pi, "c": c, "c0": q - 5, "c_prime": q // 3}
    assert main(["construct", write(tmp_path, "params.json", params)]) == 0
    pair = json.loads(capsys.readouterr().out)
    half = q // 2
    f, g = [], []
    for t in range(1 << m):
        x = [t >> k & 1 for k in range(m)]
        path = sum(x[u - 1] * x[v - 1] for u, v in zip(pi, pi[1:]))
        fv = half * path + sum(ck * xk for ck, xk in zip(c, x)) + q - 5
        f.append(fv % q)
        g.append((fv + half * x[pi[0] - 1] + q // 3) % q)
    assert pair == {
        "f": {"q": q, "m": m, "entries": f},
        "g": {"q": q, "m": m, "entries": g},
    }


def test_verify_refuses_a_huge_modulus_before_casting_entries(tmp_path, capsys):
    # an entry of 2**65 does not fit the int64 rows of the correlation kernel
    q = 2**70
    pair = {
        "f": {"q": q, "m": 1, "entries": [0, 2**65]},
        "g": {"q": q, "m": 1, "entries": [0, 0]},
    }
    assert main(["verify", write(tmp_path, "pair.json", pair)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "q must lie in 1..4096" in err and "Traceback" not in err


def test_verify_refuses_a_correlation_plan_over_the_memory_bound(tmp_path, capsys):
    # at m = 14 the plan would hold 4^14 cell combinations, several GiB
    zeros = {"q": 2, "m": 14, "entries": [0] * (1 << 14)}
    assert main(["verify", write(tmp_path, "pair.json", {"f": zeros, "g": zeros})]) == 3
    err = capsys.readouterr().err
    assert "MiB" in err and "Traceback" not in err


@pytest.mark.parametrize("m", [2**40, 2**70], ids=["2**40", "2**70"])
def test_a_huge_dimension_exits_two_before_anything_is_built(tmp_path, capsys, m):
    # 2**m entries or an m-long list would not fit in memory
    array = {"q": 2, "m": m, "entries": [0]}
    params = {"q": 2, "m": m, "pi": [1], "c": [0], "c0": 0, "c_prime": 0}
    for command, obj in [
        ("verify", {"f": array, "g": array}),
        ("decompose", {"f": array, "g": array}),
        ("project", array),
        ("construct", params),
    ]:
        assert main([command, write(tmp_path, "in.json", obj)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_deeply_nested_json_exits_two(tmp_path, capsys, monkeypatch):
    import io

    text = "[" * 200_000
    p = tmp_path / "deep.json"
    p.write_text(text)
    assert main(["verify", str(p)]) == 2
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["verify", "-"]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 2 and "Traceback" not in err
