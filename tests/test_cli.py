import contextlib
import hashlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, currently_in_test_context, event, given, settings
from hypothesis import strategies as st

from sympelem import cli
from sympelem import errors as err
from sympelem.cli import main
from sympelem.identities import corrupt_keys
from sympelem.rings import MAX_TOWER_DEPTH, PolyRing, ring_from_descriptor
from sympelem.matrices import Matrix
from sympelem.symplectic import gen_abcd, gen_corner, gen_s, gen_small, symp_inverse
from sympelem.words import ABCDAtom, CornerAtom, SAtom, word_from_text


def run(argv):
    return main(argv)


def test_verify_tables_pass_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "r1.jsonl"
    out2 = tmp_path / "r2.jsonl"
    assert run(["verify-tables", "--ring", "zmod:15", "--n", "2..2",
                "--seed", "11", "--trials", "1", "--out", str(out1)]) == 0
    captured = capsys.readouterr().out
    assert "items passed" in captured and "FAIL" not in captured
    assert run(["verify-tables", "--ring", "zmod:15", "--n", "2..2",
                "--seed", "11", "--trials", "1", "--out", str(out2)]) == 0
    capsys.readouterr()

    def strip_timing(path):
        recs = [json.loads(line) for line in path.read_text().splitlines()]
        for r in recs:
            r.pop("seconds", None)
        return recs

    assert strip_timing(out1) == strip_timing(out2)


def test_verify_tables_even_modulus(capsys):
    assert run(["verify-tables", "--ring", "zmod:4", "--n", "2..2"]) == 2
    assert "even" in capsys.readouterr().err


def test_verify_tables_corruption_caught(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    code = run(["verify-tables", "--ring", "zmod:15", "--n", "2..2",
                "--seed", "3", "--trials", "1",
                "--corrupt", "commutator:AB:eq", "--out", str(out)])
    assert code == 1
    stdout = capsys.readouterr().out
    assert "FAIL" in stdout and "bindings:" in stdout
    records = [json.loads(line) for line in out.read_text().splitlines()]
    fails = [r for r in records if r["status"] == "FAIL"]
    assert fails and all(r["bindings"] for r in fails)
    assert {r["name"] for r in fails} == {"commutator:A2,B2"}


def test_verify_tables_unknown_corrupt_key_is_a_parse_error(capsys):
    assert run(["verify-tables", "--ring", "zmod:15", "--n", "2",
                "--corrupt", "nosuch:key"]) == 2
    stderr = capsys.readouterr().err
    assert "nosuch:key names no table entry" in stderr and "unit:AC:j1" in stderr


def test_verify_tables_corrupt_key_the_n_range_never_builds(capsys):
    # at n = 2 every commutator item sits at one position: no lt/gt item
    assert run(["verify-tables", "--ring", "zmod:15", "--n", "2",
                "--corrupt", "commutator:AC:lt"]) == 2
    assert "commutator:AC:lt names no table entry that --n 2 builds" in capsys.readouterr().err
    assert run(["verify-tables", "--ring", "zmod:15", "--n", "2..3",
                "--corrupt", "commutator:AC:lt"]) == 1
    assert "FAIL commutator:A2,C3 " in capsys.readouterr().out


def test_verify_tables_corrupt_unit_key_fails_its_item(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    assert run(["verify-tables", "--ring", "zmod:15", "--n", "2", "--seed", "3",
                "--corrupt", "unit:AC:j1", "--out", str(out)]) == 1
    capsys.readouterr()
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert {r["name"] for r in records if r["status"] == "FAIL"} == {"unit-commutator:A2,C@1"}


@pytest.mark.parametrize("args, code, digest", [
    (["--ring", "poly:q:x,y", "--n", "2..3"], 0,
     "279efc5b7eb8a15e28f044284df49cb7d5b554a79cca1a7c358ac46dc3dfef29"),
    (["--ring", "zmod:15", "--n", "2..3", "--seed", "7"], 0,
     "cc72dc5cd2b23dc73abfbba8a0344c24419310ae5ac66ddc4620851f3c7859a4"),
    (["--ring", "zmod:15", "--n", "2..3", "--seed", "7", "--corrupt", "commutator:AD:eq"], 1,
     "52082e90b54c97320c47e0026ae4b168da35b1d8583cc04aef793ea30eb7b4aa"),
    (["--ring", "zmod:15", "--n", "2..3", "--seed", "7", "--corrupt", "unit:AC:j1"], 1,
     "5c59f5721b71cea74d995282436caf8a10ebf46a7bfeaab75f687d41681ac6c9"),
], ids=["poly", "zmod", "corrupt-commutator", "corrupt-unit"])
def test_verify_tables_item_lines_are_pinned(args, code, digest, capsys):
    # every item line, its [..ms] timing stripped: names, order, status and
    # the bindings printed on a FAIL are all part of the pin
    assert run(["verify-tables", *args]) == code
    items = [re.sub(r" \[\d+ms\]", "", line)
             for line in capsys.readouterr().out.splitlines()
             if line.startswith(("PASS ", "FAIL "))]
    kept = "".join(line + "\n" for line in items)
    assert hashlib.sha256(kept.encode()).hexdigest() == digest


def test_decompose_round_trip(tmp_path, capsys):
    src = tmp_path / "w.txt"
    src.write_text("S 1 3 4\nE21 2\nS 2 4 7\n")
    out = tmp_path / "out.txt"
    trace = tmp_path / "trace.txt"
    code = run(["decompose", "--ring", "zmod:15", "--n", "2",
                "--in", str(src), "--out", str(out), "--trace", str(trace)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    lines = [l for l in out.read_text().splitlines() if l.strip()]
    assert lines and all(l.split()[0] in ("A", "B", "C", "D") for l in lines)
    assert trace.read_text().strip()


def test_decompose_trace_lines_are_pinned(tmp_path, capsys):
    # the trace holds atom lists; the CLI digests them when it writes the
    # file. The count and the hash of every line were re-recorded when the
    # rewrite stages became closed forms checked once per transvection.
    example = Path(__file__).resolve().parents[1] / "docs" / "examples" / "word_z15.txt"
    trace = tmp_path / "trace.txt"
    assert run(["decompose", "--ring", "zmod:15", "--n", "2", "--in", str(example),
                "--trace", str(trace)]) == 0
    capsys.readouterr()
    lines = trace.read_text().splitlines()
    assert len(lines) == 14
    assert lines[0] == "transvection-split 53bb2e4cc637 17593d862185"
    kept = "".join(line + "\n" for line in lines)
    assert hashlib.sha256(kept.encode()).hexdigest() == \
        "172178dbb82ce0420683b548ab4f6adcbe6fb20de6dfe2babb160947a33de0bd"


def test_decompose_empty_file(tmp_path, capsys):
    src = tmp_path / "w.txt"
    src.write_text("")
    out = tmp_path / "out.txt"
    assert run(["decompose", "--ring", "zmod:15", "--n", "2",
                "--in", str(src), "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text() == ""


def test_decompose_parse_error_names_line(tmp_path, capsys):
    src = tmp_path / "w.txt"
    src.write_text("S 1 3 4\nBLORP 2\n")
    assert run(["decompose", "--ring", "zmod:15", "--n", "2", "--in", str(src)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_conj_command(capsys):
    assert run(["conj", "--ring", "poly:q:t", "--s", "t", "--n", "3",
                "--xshape", "A", "--i", "2", "--a", "3", "--k", "1",
                "--yshape", "D", "--j", "2", "--m", "4", "--x", "1+t"]) == 0
    out = capsys.readouterr().out
    assert "PASS conj" in out and "length=37" in out
    # same-shape single atom
    assert run(["conj", "--ring", "poly:q:t", "--s", "t", "--n", "3",
                "--xshape", "B", "--i", "2", "--a", "3", "--k", "1",
                "--yshape", "B", "--j", "3", "--m", "2", "--x", "5"]) == 0
    assert "length=1" in capsys.readouterr().out


@pytest.mark.parametrize("k, m, words", [(1, 1, "greater than --k 1"),
                                          (2, 0, "greater than --k 2"),
                                          (1, 1600, "must lie in -64..64"),
                                          (-65, 4, "must lie in -64..64")])
def test_conj_exponents_are_usage_errors(k, m, words, capsys):
    # an unbounded --m made conj run for minutes (m = 1600)
    start = time.perf_counter()
    assert run(["conj", "--ring", "poly:q:t", "--s", "1+t", "--n", "2",
                "--xshape", "A", "--i", "2", "--a", "1", "--k", str(k),
                "--yshape", "D", "--j", "2", "--m", str(m), "--x", "1"]) == 2
    assert words in capsys.readouterr().err
    assert time.perf_counter() - start < 2


def test_dilate_command(tmp_path, capsys):
    src = tmp_path / "w.txt"
    src.write_text("A 2 X*3/t\n")
    out = tmp_path / "out.txt"
    assert run(["dilate", "--ring", "poly:q:t", "--s", "t", "--n", "2",
                "--in", str(src), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "PASS dilate m=1" in stdout
    assert out.read_text().startswith("A 2 3*X")


def test_dilate_rejects_non_shape_word(tmp_path, capsys):
    src = tmp_path / "w.txt"
    src.write_text("S 1 3 X\n")
    assert run(["dilate", "--ring", "poly:q:t", "--s", "t", "--n", "2",
                "--in", str(src)]) == 2
    assert "pure shape word" in capsys.readouterr().err


def test_dilate_refuses_an_exponent_above_its_bound(tmp_path, capsys):
    # X/t^70 clears only at m >= 70, which the parameters show before any
    # attempt; the search bound is 64, so this is a usage error
    src = tmp_path / "w.txt"
    src.write_text("A 2 X/(t^60)/(t^10)\nB 2 1/t^3\nA 2 -X/(t^60)/(t^10)\nB 2 -1/t^3\n")
    start = time.perf_counter()
    assert run(["dilate", "--ring", "poly:q:t", "--s", "t", "--n", "2", "--in", str(src)]) == 2
    err = capsys.readouterr().err
    assert "dilation needs m >= 70" in err and "Traceback" not in err
    assert time.perf_counter() - start < 2


def test_dilate_that_no_exponent_up_to_its_bound_clears_is_a_usage_error(tmp_path, capsys):
    # every m up to 64 leaves a conjugation chain exponent too small; the
    # same word behind a 3-atom prefix clears at m = 36
    src = tmp_path / "w.txt"
    src.write_text("A 2 1/t\nD 2 1/t\nA 2 1/t\nD 2 1/t\nB 2 X\n"
                   "D 2 -1/t\nA 2 -1/t\nD 2 -1/t\nA 2 -1/t\n")
    start = time.perf_counter()
    assert run(["dilate", "--ring", "poly:q:t", "--s", "t", "--n", "2", "--in", str(src)]) == 2
    err = capsys.readouterr().err
    assert "up to 64" in err and "verification failure" not in err
    assert time.perf_counter() - start < 2


def test_decompose_over_localization_at_a_unit(tmp_path, capsys):
    src = tmp_path / "w.txt"
    src.write_text("A 2 1/7\n")
    out = tmp_path / "out.txt"
    assert run(["decompose", "--ring", "loc:zmod:15:s=2", "--n", "2",
                "--in", str(src), "--out", str(out)]) == 0
    assert "PASS" in capsys.readouterr().out
    ring = ring_from_descriptor("loc:zmod:15:s=2")
    got = word_from_text(ring, 2, out.read_text())
    assert got.eval() == word_from_text(ring, 2, src.read_text()).eval()


def test_patch_command(tmp_path, capsys):
    cover = tmp_path / "cover.txt"
    cover.write_text("s=2 c=1 b=2 N=1\ns=4 c=11 b=4 N=1\n")
    alpha = tmp_path / "alpha.txt"
    alpha.write_text("A 2 7*X\n")
    loc1 = tmp_path / "l1.txt"
    loc2 = tmp_path / "l2.txt"
    loc1.write_text("A 2 7*X\n")
    loc2.write_text("A 2 7*X\n")
    out = tmp_path / "out.txt"
    assert run(["patch", "--ring", "zmod:15", "--n", "2", "--cover", str(cover),
                "--alpha", str(alpha), "--locals", str(loc1), str(loc2),
                "--out", str(out)]) == 0
    assert "PASS patch" in capsys.readouterr().out


def test_patch_non_comaximal_cover(tmp_path, capsys):
    cover = tmp_path / "cover.txt"
    cover.write_text("s=2 c=1 b=2 N=1\ns=4 c=1 b=4 N=1\n")
    alpha = tmp_path / "alpha.txt"
    alpha.write_text("A 2 7*X\n")
    loc1 = tmp_path / "l1.txt"
    loc1.write_text("A 2 7*X\n")
    code = run(["patch", "--ring", "zmod:15", "--n", "2", "--cover", str(cover),
                "--alpha", str(alpha), "--locals", str(loc1), str(loc1)])
    assert code == 2
    assert "error: sum of c_i b_i is not 1" in capsys.readouterr().err


@pytest.mark.parametrize("alpha, local, message", [
    ("A 2 7*X\n", "A 2 8*X\n", "local word 0 does not evaluate to alpha"),
    ("A 2 7\n", "A 2 7\n", "alpha(0) must be the identity"),
])
def test_patch_input_that_is_not_a_homotopy_is_a_usage_error(alpha, local, message, tmp_path,
                                                              capsys):
    # a local word unequal to alpha, or an alpha that is not I at X = 0,
    # is wrong input, not a failed check of the program's own work
    (tmp_path / "alpha.txt").write_text(alpha)
    (tmp_path / "local.txt").write_text(local)
    code = run(["patch", "--ring", "zmod:15", "--n", "2",
                "--cover", str(EXAMPLES / "cover_z15.txt"), "--alpha", str(tmp_path / "alpha.txt"),
                "--locals", str(tmp_path / "local.txt"), str(tmp_path / "local.txt")])
    assert code == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_dilate_word_that_is_not_a_homotopy_is_a_usage_error(tmp_path, capsys):
    src = tmp_path / "w.txt"
    src.write_text("A 2 1+X\n")
    assert run(["dilate", "--ring", "poly:q:t", "--s", "t", "--n", "2", "--in", str(src)]) == 2
    assert "error: word does not evaluate to the identity at X = 0" in capsys.readouterr().err


EXAMPLES = Path(__file__).resolve().parents[1] / "docs" / "examples"


@pytest.mark.parametrize("names", [["local1_z15.txt"],
                                   ["local1_z15.txt", "local2_z15.txt", "local2_z15.txt"]])
def test_patch_needs_one_local_word_per_cover_entry(names, capsys):
    # the example cover has two entries; one file too few or too many is
    # a usage error that names both counts
    code = run(["patch", "--ring", "zmod:15", "--n", "2",
                "--cover", str(EXAMPLES / "cover_z15.txt"),
                "--alpha", str(EXAMPLES / "alpha_z15.txt"),
                "--locals", *[str(EXAMPLES / name) for name in names]])
    assert code == 2
    err = capsys.readouterr().err
    assert f"gives {len(names)} word file(s)" in err and "cover of 2 entries" in err


_GUARDED = [
    ["decompose", "--ring", "zmod:15", "--n", "2", "--in", str(EXAMPLES / "word_z15.txt")],
    ["conj", "--ring", "poly:q:t", "--s", "t", "--n", "2", "--xshape", "A", "--i", "2",
     "--a", "1", "--k", "1", "--yshape", "D", "--j", "2", "--m", "3", "--x", "1"],
    ["conj", "--ring", "poly:q:t", "--s", "t", "--n", "3", "--xshape", "A", "--i", "2",
     "--a", "3", "--k", "1", "--yshape", "C", "--j", "3", "--m", "3", "--x", "1"],
    ["normality-demo", "--ring", "zmod:15", "--n", "2", "--gamma", str(EXAMPLES / "gamma_z15.txt"),
     "--h", str(EXAMPLES / "h_z15.txt"), "--cover", str(EXAMPLES / "cover_z15.txt")],
    ["normality-demo", "--ring", "zmod:15", "--n", "2", "--gamma", "<corner>",
     "--h", str(EXAMPLES / "h_z15.txt"), "--cover", str(EXAMPLES / "cover_z15.txt")],
    ["normality-demo", "--ring", "poly:q:t", "--n", "2", "--gamma", str(EXAMPLES / "gamma_qt.txt"),
     "--h", str(EXAMPLES / "h_qt.txt"), "--cover", str(EXAMPLES / "cover_qt.txt")],
]


@pytest.mark.parametrize("argv", _GUARDED, ids=["decompose", "conj-crossing", "conj-placed",
                                                "normality", "normality-corner", "normality-qt"])
def test_word_commands_multiply_no_dense_matrices(argv, monkeypatch, tmp_path, capsys):
    # decompose, conj and normality-demo check their words on the word
    # evaluator: no dense product and no dense inverse, also on the (t, 1 - t)
    # cover of Q[t], where patch dilates
    corner = tmp_path / "corner.txt"
    corner.write_text("CORNER 7 3 2 1\n")  # det 1 mod 15
    argv = [str(corner) if a == "<corner>" else a for a in argv]
    calls = []
    dense_mul = Matrix.mul
    monkeypatch.setattr(Matrix, "mul", lambda a, b: calls.append("mul") or dense_mul(a, b))
    for name, module in list(sys.modules.items()):
        if name.startswith("sympelem") and hasattr(module, "symp_inverse"):
            monkeypatch.setattr(module, "symp_inverse",
                                lambda m: calls.append("symp_inverse") or symp_inverse(m))
    assert run(argv) == 0
    assert "PASS" in capsys.readouterr().out
    assert calls == []


def test_normality_names_the_non_shape_atom_of_h(tmp_path, capsys):
    h = tmp_path / "h.txt"
    h.write_text("S 1 3 2\n")
    assert run(["normality-demo", "--ring", "zmod:15", "--n", "2",
                "--gamma", str(EXAMPLES / "gamma_z15.txt"), "--h", str(h),
                "--cover", str(EXAMPLES / "cover_z15.txt")]) == 2
    err = capsys.readouterr().err
    assert "atom 1 is 'S 1 3 2'" in err and "*T" not in err


def test_normality_corner_gamma_must_have_determinant_one(tmp_path, capsys):
    gamma = tmp_path / "g.txt"
    gamma.write_text("CORNER 1 1 1 1\n")
    assert run(["normality-demo", "--ring", "zmod:15", "--n", "2", "--gamma", str(gamma),
                "--h", str(EXAMPLES / "h_z15.txt"),
                "--cover", str(EXAMPLES / "cover_z15.txt")]) == 2
    assert "line 1: CORNER 1 1 1 1: corner block must have determinant 1" in \
        capsys.readouterr().err


def test_normality_command(tmp_path, capsys):
    cover = tmp_path / "cover.txt"
    cover.write_text("s=2 c=1 b=2 N=1\ns=4 c=11 b=4 N=1\n")
    gamma = tmp_path / "gamma.txt"
    gamma.write_text("S 1 3 4\nE21 2\n")
    h = tmp_path / "h.txt"
    h.write_text("A 2 3\nC 2 7\n")
    out = tmp_path / "out.txt"
    assert run(["normality-demo", "--ring", "zmod:15", "--n", "2",
                "--gamma", str(gamma), "--h", str(h), "--cover", str(cover),
                "--out", str(out)]) == 0
    assert "PASS normality-demo" in capsys.readouterr().out
    assert out.read_text().strip()


def test_report_command(tmp_path, capsys):
    rep = tmp_path / "r.jsonl"
    rep.write_text(json.dumps({"name": "a", "ring": "zmod:15", "n": 2, "status": "PASS"}) + "\n"
                   + json.dumps({"name": "b", "ring": "zmod:15", "n": 2, "status": "FAIL",
                                 "bindings": "x=1"}) + "\n")
    assert run(["report", "--in", str(rep)]) == 1
    out = capsys.readouterr().out
    assert "1/2 items passed" in out and "FAIL b" in out
    ok = tmp_path / "ok.jsonl"
    ok.write_text(json.dumps({"name": "a", "ring": "q", "n": 2, "status": "PASS"}) + "\n")
    assert run(["report", "--in", str(ok)]) == 0


@pytest.mark.parametrize("line", ["1", "[1]"])
def test_report_rejects_a_record_that_is_not_an_object(tmp_path, capsys, line):
    rep = tmp_path / "r.jsonl"
    rep.write_text(json.dumps({"name": "a", "ring": "q", "n": 2, "status": "PASS"}) + "\n"
                   + line + "\n")
    assert run(["report", "--in", str(rep)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_report_without_records_is_a_parse_error(tmp_path, capsys):
    rep = tmp_path / "r.jsonl"
    rep.write_text("\n  \n")
    assert run(["report", "--in", str(rep)]) == 2
    captured = capsys.readouterr()
    assert "no records" in captured.err and "items passed" not in captured.out


@pytest.mark.parametrize("args", [["--n", "3..2"], ["--n", "1"], ["--n", "1..2"], ["--n", "2..x"],
                                  ["--trials", "0"], ["--trials", "-3"]],
                         ids=lambda args: " ".join(args))
def test_verify_tables_that_checks_nothing_is_a_parse_error(args, capsys):
    assert run(["verify-tables", "--ring", "zmod:15", *args]) == 2
    captured = capsys.readouterr()
    assert args[1] in captured.err and captured.out == ""


def test_trials_over_a_polynomial_ring_is_a_parse_error(capsys):
    assert run(["verify-tables", "--ring", "poly:q:x,y", "--n", "2", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert "symbolic" in captured.err and captured.out == ""


def test_verify_tables_names_the_ring_checked_over(tmp_path, capsys):
    # identities over a polynomial ring are checked over Q[symbols]
    out = tmp_path / "r.jsonl"
    assert run(["verify-tables", "--ring", "poly:zmod:15:x", "--n", "2..2",
                "--out", str(out)]) == 0
    capsys.readouterr()
    rings = {json.loads(line)["ring"] for line in out.read_text().splitlines()}
    assert rings and all(r.startswith("poly:q:") for r in rings)


ERROR_CLASSES = sorted((c for c in vars(err).values()
                        if isinstance(c, type) and issubclass(c, err.SympelemError)),
                       key=lambda c: c.__name__)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_every_error_maps_to_an_exit_code(cls, monkeypatch, capsys):
    def fail(args):
        raise cls("injected")

    monkeypatch.setattr(cli, "cmd_report", fail)
    code = run(["report", "--in", "unused.jsonl"])
    assert code == (2 if issubclass(cls, cli.USAGE_ERRORS) else 1)
    assert "injected" in capsys.readouterr().err


def test_verify_tables_localized_ring(capsys):
    assert run(["verify-tables", "--ring", "loc:zmod:15:s=2", "--n", "2..2",
                "--seed", "4", "--trials", "1"]) == 0
    assert "items passed" in capsys.readouterr().out


def test_decompose_rejects_bad_indices_at_parse(tmp_path, capsys):
    src = tmp_path / "w.txt"
    for text in ("S 1 9 4", "S 1 2 4", "S 1 1 4"):
        src.write_text(text + "\n")
        assert run(["decompose", "--ring", "zmod:15", "--n", "2", "--in", str(src)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and text in err and "n=2" in err


def test_decompose_names_corner_atom_by_text(tmp_path, capsys):
    src = tmp_path / "w.txt"
    src.write_text("CORNER 1 1 0 1\n")
    assert run(["decompose", "--ring", "zmod:15", "--n", "2", "--in", str(src)]) == 2
    err = capsys.readouterr().err
    assert "CORNER 1 1 0 1" in err and "Atom(" not in err
    assert "only as the one atom of normality-demo --gamma" in err


def test_malformed_cover_is_a_parse_error(tmp_path, capsys):
    gamma = tmp_path / "gamma.txt"
    gamma.write_text("S 1 3 4\n")
    h = tmp_path / "h.txt"
    h.write_text("A 2 3\n")
    cover = tmp_path / "cover.txt"
    for text in ("s=2 c=1 b=2\n", "s=2 c=1 b=2 N=1 junk\n"):
        cover.write_text(text)
        assert run(["normality-demo", "--ring", "zmod:15", "--n", "2", "--gamma", str(gamma),
                    "--h", str(h), "--cover", str(cover)]) == 2
        assert "line 1" in capsys.readouterr().err


def test_matrix_gamma_file_is_a_parse_error(tmp_path, capsys):
    # a det-1 corner gamma is one CORNER line; a matrix file is no word file
    gamma = tmp_path / "g.txt"
    gamma.write_text("sympmat n=2 ring=zmod:7 entries=2 3 0 0 1 2 0 0 0 0 1 0 0 0 0 1\n")
    assert run(["normality-demo", "--ring", "zmod:15", "--n", "2", "--gamma", str(gamma),
                "--h", str(EXAMPLES / "h_z15.txt"),
                "--cover", str(EXAMPLES / "cover_z15.txt")]) == 2
    assert "line 1: unknown atom kind 'sympmat'" in capsys.readouterr().err


@pytest.mark.parametrize("ring,corner,example,atoms,digest", [
    ("zmod:15", "CORNER 2 3 1 2", "z15", 21,
     "9602e413175411831366987870ae7360f444aee0df590711de9a98b6058258a9"),
    ("poly:q:t", "CORNER 1 t 0 1", "qt", 13,
     "2b64d2433aee10b2591cc531654b7a3bc406ffabd4edfb9074730a9973f8b5c2"),
], ids=["z15", "qt"])
def test_normality_corner_gamma_output_is_pinned(ring, corner, example, atoms, digest,
                                                 tmp_path, capsys):
    gamma = tmp_path / "g.txt"
    gamma.write_text(corner + "\n")
    out = tmp_path / "out.txt"
    assert run(["normality-demo", "--ring", ring, "--n", "2", "--gamma", str(gamma),
                "--h", str(EXAMPLES / f"h_{example}.txt"),
                "--cover", str(EXAMPLES / f"cover_{example}.txt"), "--out", str(out)]) == 0
    assert f"output_atoms={atoms}" in capsys.readouterr().out
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("text,idx", [("CORNER 1 0 0 1\nS 1 3 4\n", 1),
                                      ("S 1 3 4\nCORNER 1 0 0 1\n", 2)])
def test_normality_corner_gamma_must_be_the_only_atom(text, idx, tmp_path, capsys):
    gamma = tmp_path / "g.txt"
    gamma.write_text(text)
    assert run(["normality-demo", "--ring", "zmod:15", "--n", "2", "--gamma", str(gamma),
                "--h", str(EXAMPLES / "h_z15.txt"),
                "--cover", str(EXAMPLES / "cover_z15.txt")]) == 2
    err = capsys.readouterr().err
    assert f"gamma's only atom; atom {idx} is 'CORNER 1 0 0 1'" in err
    assert "accepted only" not in err


def test_localization_at_a_zero_divisor_in_a_tower(tmp_path, capsys):
    src = tmp_path / "w.txt"
    src.write_text("A 2 1\n")
    for ring in ("loc:poly:zmod:200001:t:s=3*t", "loc:poly:poly:zmod:15:y:x:s=3"):
        assert run(["decompose", "--ring", ring, "--n", "2", "--in", str(src)]) == 2
        assert "zero divisor" in capsys.readouterr().err
    # 1 + 3t is no zero divisor, but its leading coefficient 3 is: 5/(1 + 3t)
    # is 5 and could not be divided down to it
    src.write_text("S 1 3 5/(1+3*t)\n")
    assert run(["decompose", "--ring", "loc:poly:zmod:15:t:s=1+3*t", "--n", "2",
                "--in", str(src)]) == 2
    assert "zero-divisor leading coefficient 3" in capsys.readouterr().err


LOCAL_GLOBAL_ARGV = {
    "dilate": ["dilate", "--ring", "poly:q:t", "--s", "t", "--n", "2", "--in", "w.txt"],
    "patch": ["patch", "--ring", "zmod:15", "--n", "2", "--cover", "c.txt", "--alpha", "a.txt",
              "--locals", "l1.txt", "l2.txt"],
    "normality-demo": ["normality-demo", "--ring", "zmod:15", "--n", "2", "--gamma", "g.txt",
                       "--h", "h.txt", "--cover", "c.txt"],
}


@pytest.mark.parametrize("command", sorted(LOCAL_GLOBAL_ARGV))
def test_fuel_flag_is_gone(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run(LOCAL_GLOBAL_ARGV[command] + ["--fuel", "64"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --fuel 64" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["dilate", "patch"])
def test_var_flag_is_gone(command, capsys):
    # word files over R[X] and R_s[X] always name the variable X
    with pytest.raises(SystemExit) as exc:
        run(LOCAL_GLOBAL_ARGV[command] + ["--var", "X"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --var X" in capsys.readouterr().err


def test_oversized_power_is_a_parse_error_not_a_hang(tmp_path):
    src = tmp_path / "w.txt"
    src.write_text("S 1 3 (1+t)^100000\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "sympelem.cli", "decompose", "--ring", "poly:q:t",
                           "--n", "2", "--in", str(src)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 2
    assert "line 1" in done.stderr and "^100000" in done.stderr
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("ring,line", [
    ("zmod:15", "S 1 3 " + "(" * 400 + "1" + ")" * 400),
    ("zmod:15", "S 1 3 " + "-" * 2000 + "1"),
    ("poly:" * 1200 + "q", "S 1 3 4"),
], ids=["parentheses", "minus-signs", "poly-levels"])
def test_deep_nesting_is_a_parse_error(ring, line, tmp_path):
    src = tmp_path / "w.txt"
    src.write_text(line + "\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "sympelem.cli", "decompose", "--ring", ring,
                           "--n", "2", "--in", str(src)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 2
    assert "nested too deeply" in done.stderr and "Traceback" not in done.stderr


def test_tower_too_deep_to_compute_in_is_a_parse_error(tmp_path):
    # 600 poly levels parse, but the arithmetic on them raised RecursionError
    src = tmp_path / "w.txt"
    src.write_text("S 1 3 4\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "sympelem.cli", "decompose", "--ring",
                           "poly:" * 600 + "q" + ":t" * 600, "--n", "2", "--in", str(src)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 2
    assert f"nests 600 poly/loc levels; at most {MAX_TOWER_DEPTH}" in done.stderr
    assert "Traceback" not in done.stderr
    depth = MAX_TOWER_DEPTH
    ring_from_descriptor("loc:" + "poly:" * (depth - 1) + "q" + ":t" * (depth - 1) + ":s=t")
    with pytest.raises(err.ParseError, match=f"nests {depth + 1} poly/loc levels"):
        ring_from_descriptor("loc:" + "poly:" * depth + "q" + ":t" * depth + ":s=t")


class CallTimedOut(Exception):
    pass


@contextlib.contextmanager
def time_bound(seconds):
    """Raise ``CallTimedOut`` in this process if the block runs longer
    than ``seconds``, so a hang fails the test instead of stalling it."""
    def expire(signum, frame):
        raise CallTimedOut(f"the call ran longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("N", ["100000000", "-3"])
def test_cover_exponent_outside_the_fuel_is_a_parse_error(N, tmp_path, capsys):
    # at the unit s = 2 every division of b by s succeeds, so checking
    # b in (s^N) for N = 10^8 divided for minutes; N = -3 was accepted
    cover = tmp_path / "cover.txt"
    cover.write_text(f"s=2 c=1 b=2 N={N}\ns=4 c=11 b=4 N=1\n")
    with time_bound(5):
        code = run(["normality-demo", "--ring", "zmod:15", "--n", "2",
                    "--gamma", str(EXAMPLES / "gamma_z15.txt"), "--h", str(EXAMPLES / "h_z15.txt"),
                    "--cover", str(cover)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"line 1: N={N} must lie in 0..64" in err and "Traceback" not in err


def _draw_cover(data):
    """(m, n, cover lines) over zmod:m, m odd, 3 <= m <= 45, with 1-3
    entries. Half the covers are wild: s and b anywhere in Z/m, N
    anywhere from negative to huge, and sum c*b = 1 only sometimes. The
    others are valid: s and b units, N in 0..64 and c of the last entry
    solved so that sum c*b = 1, so that inputs reach every check."""
    m = data.draw(st.sampled_from(range(3, 46, 2)))
    n = data.draw(st.sampled_from([2, 3]))
    units = st.sampled_from([u for u in range(1, m) if math.gcd(u, m) == 1])
    residue = st.integers(0, m - 1)
    wild = data.draw(st.booleans())
    if wild:
        s_values, b_values, exponents = st.one_of(units, residue), residue, st.one_of(
            st.integers(-3, 3), st.sampled_from([63, 64, 65]), st.integers(10 ** 6, 10 ** 12))
    else:
        s_values, b_values, exponents = units, units, st.integers(0, 64)
    entries = data.draw(st.lists(st.tuples(s_values, residue, b_values, exponents),
                                 min_size=1, max_size=3))
    *rest, (s, c, b, N) = entries
    if math.gcd(b, m) == 1 and (not wild or data.draw(st.booleans())):
        c = (1 - sum(ci * bi for _, ci, bi, _ in rest)) * pow(b, -1, m) % m
    return m, n, [f"s={s} c={c} b={b} N={N}" for s, c, b, N in rest + [(s, c, b, N)]]


def _shape_text(data, m, n, degrees, max_size):
    """A shape word file: A/B/C/D atoms at positions 2..n with parameters
    c*X^d, c in Z/m and d in ``degrees`` (no X when degrees is (0,))."""
    atoms = data.draw(st.lists(st.tuples(st.sampled_from("ABCD"), st.integers(2, n),
                                         st.integers(0, m - 1), st.sampled_from(degrees)),
                               max_size=max_size))
    return "".join(f"{sh} {pos} {c}*X^{d}\n" if d else f"{sh} {pos} {c}\n"
                   for sh, pos, c, d in atoms)


def _run_bounded(argv):
    """``cli.main(argv)`` under a time bound, with its output captured:
    (exit code, stderr). Inside a hypothesis test the exit code is
    recorded as an event."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), time_bound(3):
        code = main(argv)
    if currently_in_test_context():
        event(f"exit {code}")
    return code, err.getvalue()


CONTRACT = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@CONTRACT
@given(st.data())
def test_patch_contract(data):
    # every input ends within the bound with exit 0 or 2 and a message;
    # on exit 0 the patched word evaluates to alpha
    m, n, lines = _draw_cover(data)
    alpha_text = _shape_text(data, m, n, (0, 1, 2), 3)
    local_texts = [alpha_text if data.draw(st.integers(0, 3)) else _shape_text(data, m, n, (1,), 3)
                   for _ in lines]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "cover.txt").write_text("\n".join(lines) + "\n")
        (tmp / "alpha.txt").write_text(alpha_text)
        locals_ = [tmp / f"local{idx}.txt" for idx in range(len(local_texts))]
        for path, text in zip(locals_, local_texts):
            path.write_text(text)
        code, err = _run_bounded(["patch", "--ring", f"zmod:{m}", "--n", str(n),
                                  "--cover", str(tmp / "cover.txt"),
                                  "--alpha", str(tmp / "alpha.txt"),
                                  "--locals", *map(str, locals_), "--out", str(tmp / "out.txt")])
        assert code in (0, 2) and (code == 0 or err.strip())
        if code == 0:
            rx = PolyRing(ring_from_descriptor(f"zmod:{m}"), ("X",))
            out = word_from_text(rx, n, (tmp / "out.txt").read_text())
            assert out.eval() == word_from_text(rx, n, alpha_text).eval()


@CONTRACT
@given(st.data())
def test_normality_demo_contract(data):
    # the same contract for normality-demo: on exit 0 the word evaluates
    # to gamma h gamma^-1; gamma may also hold transvections and corners
    m, n, lines = _draw_cover(data)
    generators = st.tuples(st.sampled_from(["S 1 3", "E12", "E21"]), st.integers(0, m - 1))
    gamma_text = _shape_text(data, m, n, (0,), 2) + "".join(
        f"{head} {c}\n" for head, c in data.draw(st.lists(generators, max_size=2)))
    h_text = _shape_text(data, m, n, (0,), 2)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "cover.txt").write_text("\n".join(lines) + "\n")
        (tmp / "gamma.txt").write_text(gamma_text)
        (tmp / "h.txt").write_text(h_text)
        code, err = _run_bounded(["normality-demo", "--ring", f"zmod:{m}", "--n", str(n),
                                  "--gamma", str(tmp / "gamma.txt"), "--h", str(tmp / "h.txt"),
                                  "--cover", str(tmp / "cover.txt"), "--out", str(tmp / "out.txt")])
        assert code in (0, 2) and (code == 0 or err.strip())
        if code == 0:
            ring = ring_from_descriptor(f"zmod:{m}")
            g = word_from_text(ring, n, gamma_text).eval()
            out = word_from_text(ring, n, (tmp / "out.txt").read_text())
            h = word_from_text(ring, n, h_text).eval()
            assert out.eval() == g.mul(h).mul(symp_inverse(g))


def _generator_product(ring, n, word):
    """The product of the generator matrices of a word of S, corner, shape
    and unit atoms, each built from its definition in ``symplectic``."""
    prod = Matrix.identity(ring, 2 * n)
    for a in word.atoms:
        if isinstance(a, SAtom):
            g = gen_s(ring, n, a.i, a.j, a.e)
        elif isinstance(a, CornerAtom):
            g = gen_corner(ring, n, a.kind, a.e)
        elif isinstance(a, ABCDAtom):
            g = gen_abcd(ring, n, a.shape, a.pos, a.e)
        else:
            g = gen_small(ring, n, a.shape, a.pos, a.e)
        prod = prod.mul(g)
    return prod


def _generator_lines(data, m, n):
    """A word file over zmod:m with up to four lines of any atom kind. Most
    lines are valid; indices may fall outside the generators' range,
    CORNER lines, which decompose refuses, come valid or not, and DENSE
    lines, no atom kind, are refused when parsed."""
    c = st.integers(0, m - 1)
    line = st.one_of(
        st.builds("S {} {} {}".format, st.integers(1, 2 * n), st.integers(1, 2 * n), c),
        st.builds("{} {}".format, st.sampled_from(["E12", "E21"]), c),
        st.builds("{} {} {}".format, st.sampled_from("ABCD"), st.integers(2, n), c),
        st.builds("{} {} {}".format, st.sampled_from(["UB", "UC"]), st.integers(1, n), c),
        st.builds("CORNER 1 {} 0 1".format, c),
        st.builds("CORNER {} {} {} {}".format, c, c, c, c),
        st.just("DENSE " + " ".join("1" if r == k else "0"
                                    for r in range(2 * n) for k in range(2 * n))),
        st.builds(lambda vs: "DENSE " + " ".join(map(str, vs)),
                  st.lists(c, min_size=4 * n * n, max_size=4 * n * n)))
    return "".join(text + "\n" for text in data.draw(st.lists(line, max_size=4)))


@CONTRACT
@given(st.data())
def test_decompose_contract(data):
    # every input ends within the bound with exit 0 or 2 and a message; on
    # exit 0 the output is a shape word whose generator matrices multiply
    # to the input's, a product that does not go through Word.eval
    m = data.draw(st.sampled_from(range(3, 46, 2)))
    n = data.draw(st.integers(2, 4))
    text = _generator_lines(data, m, n)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "word.txt").write_text(text)
        code, err = _run_bounded(["decompose", "--ring", f"zmod:{m}", "--n", str(n),
                                  "--in", str(tmp / "word.txt"), "--out", str(tmp / "out.txt")])
        assert code in (0, 2) and (code == 0 or err.strip())
        if code == 0:
            ring = ring_from_descriptor(f"zmod:{m}")
            out = word_from_text(ring, n, (tmp / "out.txt").read_text())
            assert all(isinstance(a, ABCDAtom) for a in out.atoms)
            assert _generator_product(ring, n, out) == \
                _generator_product(ring, n, word_from_text(ring, n, text))


@pytest.mark.parametrize("argv, ceiling", [
    (["verify-tables", "--ring", "zmod:15", "--n", "2..1000000000"], f"n = {cli.MAX_N}"),
    (["verify-tables", "--ring", "zmod:15", "--n", "2", "--trials", "100000000"],
     f"above {cli.MAX_TRIALS}"),
    (["decompose", "--ring", "zmod:15", "--n", str(cli.MAX_N + 1),
      "--in", str(EXAMPLES / "word_z15.txt")], f"n = {cli.MAX_N}")],
    ids=["n-range", "trials", "decompose-n"])
def test_n_and_trials_above_their_ceilings_are_refused(argv, ceiling):
    # refused before any work: building the range or running the trials
    # would not end within the bound
    code, err = _run_bounded(argv)
    assert code == 2 and ceiling in err


def test_every_n_up_to_the_ceiling_is_accepted():
    assert cli._parse_n_range(f"2..{cli.MAX_N}") == list(range(2, cli.MAX_N + 1))


# descriptors, --n texts, --trials values and --corrupt keys for the
# verify-tables contract, each flagged valid or not; valid --n stays at
# n <= 3 to keep each call cheap
VT_RINGS = [(f"zmod:{m}", True) for m in (3, 15, 45)] + [
    ("q", True), ("poly:q:x,y", True), ("loc:zmod:15:s=2", True),
    ("zmod:4", False), ("zmod:30", False), ("zmod:", False), ("poly:q", False), ("ring", False)]
VT_NS = [("2", True), ("3", True), ("2..3", True), ("3..3", True), ("3..2", False),
         ("0", False), ("1", False), ("1..2", False), ("x", False), ("2.5", False),
         ("2..x", False), (str(cli.MAX_N + 1), False), ("2..1000000000", False)]
VT_TRIALS = [(None, True), ("1", True), ("2", True), ("0", False), ("-1", False),
             (str(cli.MAX_TRIALS + 1), False)]
MALFORMED_LINES = ["{", "not json", "[1, 2]", '"text"', "3"]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_verify_tables_and_report_contract(data):
    # exit 2 with a message when any input is invalid; otherwise 0, or 1
    # when a valid --corrupt key injects a fault. report then reads the
    # JSONL that verify-tables wrote, or generated records, perhaps with
    # one malformed line, and exits 1 exactly when a record is not PASS.
    # Half the draws take every input from the valid ones, so that exits
    # 0 and 1 are reached as often as 2.
    only_valid = data.draw(st.booleans())

    def pick(options):
        return data.draw(st.sampled_from([o for o in options if o[1] or not only_valid]))

    ring, ring_ok = pick(VT_RINGS)
    n_text, n_ok = pick(VT_NS)
    trials, trials_ok = pick(VT_TRIALS[:1] if only_valid and ring.startswith("poly:")
                             else VT_TRIALS)
    trials_ok = trials_ok and (trials is None or not ring.startswith("poly:"))
    n_values = cli._parse_n_range(n_text) if n_ok else [2]
    invalid_keys = [] if only_valid else ["commutator:ZZ:eq", "unit:AB", ""]
    corrupt = data.draw(st.one_of(st.none(), st.sampled_from(
        sorted(corrupt_keys(n_values)) + invalid_keys)))
    corrupt_ok = corrupt is None or corrupt in corrupt_keys(n_values)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.jsonl"
        code, err = _run_bounded(["verify-tables", "--ring", ring, "--n", n_text, "--out", str(out)]
                                 + (["--trials", trials] if trials else [])
                                 + (["--corrupt", corrupt] if corrupt is not None else []))
        valid = ring_ok and n_ok and trials_ok and corrupt_ok
        assert code == (2 if not valid else 1 if corrupt is not None else 0), (code, err)
        assert code != 2 or err.strip()
        if out.exists():
            lines = out.read_text().splitlines()
        else:
            records = st.fixed_dictionaries({"name": st.sampled_from(["commutator", "unit"]),
                                             "status": st.sampled_from(["PASS", "FAIL"]),
                                             "n": st.integers(2, 3)})
            lines = [json.dumps(r) for r in data.draw(st.lists(records, max_size=3))]
        malformed = data.draw(st.booleans())
        if malformed:
            lines.insert(data.draw(st.integers(0, len(lines))),
                         data.draw(st.sampled_from(MALFORMED_LINES)))
        out.write_text("\n".join(lines) + "\n")
        code, err = _run_bounded(["report", "--in", str(out)])
        if malformed or not lines:
            assert code == 2 and err.strip()
        else:
            passed = all(json.loads(line)["status"] == "PASS" for line in lines)
            assert code == (0 if passed else 1)
