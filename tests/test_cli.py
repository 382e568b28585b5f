from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import metricdim
from metricdim import decode_graph6, encode_graph6, make_cycle, make_gadget, parse_family_spec
from metricdim.cli import FAMILY_SPEC_EXAMPLES, main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_both_k2(capsys):
    code, out, _ = run(capsys, "both", "--g6", "A_")
    assert code == 0
    assert out.strip() == "dim=1 edim=0"


def test_dim_family_prints_role_names(capsys):
    code, out, _ = run(capsys, "dim", "--family", "G:7,3,4")
    assert code == 0
    assert out.startswith("dim=4 basis=[")
    assert "j1" in out and "j2" in out and "j3" in out


def test_edim_family(capsys):
    code, out, _ = run(capsys, "edim", "--family", "G:6,1,2")
    assert code == 0
    assert out.startswith("edim=2")


def test_records_format(capsys):
    code, out, _ = run(capsys, "both", "--g6", "A_", "--format", "records")
    assert code == 0
    record, dim, edim = out.strip().split("\t")
    assert (record, dim, edim) == ("A_", "1", "0")


def test_realize_roundtrip(capsys):
    code, out, _ = run(capsys, "realize", "--dim", "2", "--edim", "4", "--order", "23")
    assert code == 0
    record = next(line for line in out.splitlines() if line.startswith("g6=")).split("=", 1)[1]
    g = decode_graph6(record)
    assert g.n == 23


def test_realize_below_construction_order_fails(capsys):
    # (2, 3) occurs at order 4, so the refusal names the construction's
    # bound, not a bound on the pair
    code, out, err = run(capsys, "realize", "--dim", "2", "--edim", "3", "--order", "6")
    assert code == 1
    assert not out
    assert err == "error: the construction for targets (2, 3) needs order >= 10, got 6\n"


def test_realize_equal_targets_fails(capsys):
    code, _, err = run(capsys, "realize", "--dim", "3", "--edim", "3", "--order", "30")
    assert code == 1
    assert "error:" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["dim"])  # no input source
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["nonsense"])
    assert info.value.code == 2


def test_disconnected_input_exits_1(capsys, tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n2 3\n")
    code, _, err = run(capsys, "dim", "--edges", str(path))
    assert code == 1
    assert "connected" in err


def test_edge_list_input(capsys, tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("# a triangle\n0 1\n1 2\n0 2\n")
    code, out, _ = run(capsys, "both", "--edges", str(path))
    assert code == 0
    assert out.strip() == "dim=2 edim=2"


def test_g6_file_input(capsys, tmp_path):
    path = tmp_path / "one.g6"
    path.write_text(">>graph6<<\n" + encode_graph6(make_cycle(6)) + "\n")
    code, out, _ = run(capsys, "dim", "--g6-file", str(path))
    assert code == 0
    assert out.startswith("dim=2")


def test_g6_file_input_takes_a_record_glued_to_its_header(capsys, tmp_path):
    # the same line is the first record for scan and for the solve commands
    path = tmp_path / "glued.g6"
    path.write_text(">>graph6<<Bw\n")
    code, out, _ = run(capsys, "both", "--g6-file", str(path))
    assert code == 0
    assert out.strip() == "dim=2 edim=2"
    code, out, _ = run(capsys, "scan", "--g6-file", str(path), "--pred", "eq", "--format", "records")
    assert code == 0
    assert out.strip() == ">>graph6<<Bw\t2\t2"


def test_family_command_emits_parseable_record(capsys):
    code, out, _ = run(capsys, "family", "--family", "L:2,5,1,2")
    assert code == 0
    record = next(line for line in out.splitlines() if line.startswith("order="))
    assert "size=" in record and "g6=" in record
    g6 = record.split("g6=", 1)[1].split()[0]
    assert decode_graph6(g6).n == 20
    assert "labels:" in out


def test_scan_records_mode(capsys, tmp_path):
    path = tmp_path / "stream.g6"
    path.write_text("A_\nBw\n")
    code, out, _ = run(
        capsys, "scan", "--g6-file", str(path), "--pred", "lt", "--format", "records"
    )
    assert code == 0
    assert out.strip() == "A_\t1\t0"


def test_scan_from_stdin(capsys, monkeypatch):
    import io
    import sys

    stream = io.BytesIO(b">>graph6<<\nA_\nBw\n")
    monkeypatch.setattr(sys, "stdin", type("S", (), {"buffer": stream})())
    code, out, _ = run(capsys, "scan", "--pred", "lt", "--format", "records")
    assert code == 0
    assert out.strip() == "A_\t1\t0"


def test_scan_text_mode(capsys, tmp_path):
    path = tmp_path / "stream.g6"
    path.write_text("A_\nBw\nbroken!\n")
    code, out, err = run(capsys, "scan", "--g6-file", str(path), "--pred", "lt")
    assert code == 0
    assert "records=3" in out and "matches=1" in out
    assert "line 3" in err


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lemma3,lemma4", "--grid", "small")
    assert code == 0
    assert "lemma3: PASS" in out
    assert "lemma4: PASS" in out


def test_verify_small_orders(capsys):
    code, out, _ = run(capsys, "verify", "--small-orders", "4")
    assert code == 0
    assert "PASS: no graph with edim < dim" in out
    assert "order 4: 38 connected graphs" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "lemma99")
    assert code == 1
    assert "unknown suites: 'lemma99'" in err
    # a trailing comma names an empty suite, which the message must show
    code, _, err = run(capsys, "verify", "--suite", "lemma2,")
    assert code == 1
    assert "unknown suites: ''" in err


def test_ratio_command(capsys):
    code, out, _ = run(capsys, "ratio", "--target", "2")
    assert code == 0
    assert "predicted dim=4 edim=2" in out
    assert "confirmed dim=4 edim=2" in out


THEOREM2_LEMMA6_FULL = """\
theorem2: PASS (Xs)
  PASS  ratio_witness(3) predicts (6, 2)
  PASS  L^4(6,1,2): solved (dim, edim) = (6, 2)
  PASS  solver confirms (6, 2)
lemma6: PASS (Xs)
  PASS  L^1(5,1,2) expects (2, 3): solved (dim, edim) = (2, 3)
  PASS  L^2(5,1,2) expects (2, 4): solved (dim, edim) = (2, 4)
  PASS  L^3(5,1,2) expects (2, 5): solved (dim, edim) = (2, 5)
  PASS  L^1(6,1,2) expects (3, 2): solved (dim, edim) = (3, 2)
  PASS  L^2(6,1,2) expects (4, 2): solved (dim, edim) = (4, 2)
  PASS  L^3(6,1,2) expects (5, 2): solved (dim, edim) = (5, 2)
  PASS  L^1(7,1,2) expects (2, 3): solved (dim, edim) = (2, 3)
  PASS  L^2(7,1,2) expects (2, 4): solved (dim, edim) = (2, 4)
  PASS  L^3(7,1,2) expects (2, 5): solved (dim, edim) = (2, 5)
"""


def test_verify_rows_keep_their_text(capsys):
    # every chain row reads its solve, timings masked
    code, out, _ = run(capsys, "verify", "--suite", "theorem2,lemma6", "--grid", "full")
    assert code == 0
    assert re.sub(r"\(\d+\.\ds\)", "(Xs)", out) == THEOREM2_LEMMA6_FULL


@pytest.mark.parametrize(
    "target, lines",
    [
        ("1", ["copies=1 order=11 predicted dim=3 edim=2 ratio=3/2", "confirmed dim=3 edim=2"]),
        ("2", ["copies=2 order=22 predicted dim=4 edim=2 ratio=2", "confirmed dim=4 edim=2"]),
        ("3", ["copies=4 order=44 predicted dim=6 edim=2 ratio=3"]),
        ("16", ["copies=30 order=330 predicted dim=32 edim=2 ratio=16"]),
    ],
)
def test_ratio_lines_keep_their_text(capsys, target, lines):
    # above order 24 the witness is not solved, so no confirmed line
    code, out, err = run(capsys, "ratio", "--target", target)
    assert code == 0 and not err
    assert out.splitlines()[0].startswith("g6=")
    assert out.splitlines()[1:] == lines


@pytest.mark.parametrize("target", ["1/0", "abc", "0.5"])
def test_ratio_rejects_a_bad_target_without_a_traceback(target):
    # run as a command, so an uncaught exception would print its traceback
    src = str(Path(metricdim.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "metricdim", "ratio", "--target", target],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 1
    assert done.stderr.startswith("error:")
    assert "Traceback" not in done.stderr
    assert not done.stdout


def test_help_family_specs_parse():
    for spec in FAMILY_SPEC_EXAMPLES:
        parse_family_spec(spec)


def _refuse_to_build(monkeypatch):
    import metricdim.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(cli, "realize", refuse)
    monkeypatch.setattr(cli, "ratio_witness", refuse)


def test_realize_refuses_order_beyond_graph6(capsys, monkeypatch):
    _refuse_to_build(monkeypatch)
    code, out, err = run(
        capsys, "realize", "--dim", "2", "--edim", "4", "--order", "1000000000"
    )
    assert code == 2
    assert not out
    assert "error:" in err and "graph6" in err


def test_ratio_refuses_target_beyond_graph6(capsys, monkeypatch):
    _refuse_to_build(monkeypatch)
    code, out, err = run(capsys, "ratio", "--target", "1e9")
    assert code == 2
    assert not out
    assert "error:" in err and "graph6" in err


@pytest.mark.parametrize("spec", ["path:300000", "L:30000,6,1,2", "cp:path:600xpath:600"])
def test_family_specs_beyond_graph6_exit_2(capsys, monkeypatch, spec):
    import metricdim.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(cli, "parse_family_spec", refuse)
    for command in ("family", "dim", "edim", "both"):
        code, out, err = run(capsys, command, "--family", spec)
        assert code == 2
        assert not out
        assert err.startswith("error: ") and "graph6" in err and "Traceback" not in err


def test_family_order_at_the_graph6_limit():
    # the order rule alone; no graph of this size is built
    import metricdim.cli as cli
    from metricdim.families import family_order

    for spec, order in (
        ("path:262143", 262143),
        ("cp:path:511xpath:513", 262143),
        ("L:23831,6,1,2", 262141),
        ("L:23832,6,1,2", 262152),
        ("path:262144", 262144),
        ("cp:path:512xcycle:512", 262144),
    ):
        assert family_order(spec) == order
        if order < 1 << 18:
            cli._check_order(order, spec)
        else:
            with pytest.raises(cli.UsageError, match="graph6"):
                cli._check_order(order, spec)


def test_edge_list_beyond_graph6_exits_2_before_building(capsys, monkeypatch, tmp_path):
    import metricdim.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(cli.Graph, "from_edges", refuse)
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n1 262143\n")
    for command in ("family", "dim"):
        code, out, err = run(capsys, command, "--edges", str(path))
        assert code == 2
        assert not out
        assert err == (
            f"error: edge list {path} has order 262144, but graph6 output needs order < 262144\n"
        )


@pytest.mark.parametrize(
    "text, message",
    [("0 1\n1 2 3\n", "is not a 'u v' pair"), ("# nothing\n\n", "is empty")],
    ids=["malformed", "empty"],
)
def test_bad_edge_list_exits_1(capsys, tmp_path, text, message):
    path = tmp_path / "edges.txt"
    path.write_text(text)
    code, out, err = run(capsys, "dim", "--edges", str(path))
    assert code == 1
    assert not out
    assert err.startswith("error: ") and message in err


def test_g6_file_without_a_record_exits_1(capsys, tmp_path):
    path = tmp_path / "header.g6"
    path.write_text(">>graph6<<\n\n")
    code, out, err = run(capsys, "both", "--g6-file", str(path))
    assert code == 1
    assert not out
    assert err == f"error: no graph6 record found in {path}\n"


def test_realize_records_format(capsys):
    argv = ("realize", "--dim", "2", "--edim", "4", "--order", "23", "--format", "records")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    record, dim, edim = out.rstrip("\n").split("\t")
    assert (decode_graph6(record).n, dim, edim) == (23, "2", "4")


def test_verify_small_orders_fail_exits_1(capsys, monkeypatch):
    # a solver and oracle that both read an edim of 3 or more as 2 lower
    # the seven order-4 graphs with edim 3 offenders, K4 (C~) among them
    import dataclasses
    import importlib

    scan_module = importlib.import_module("metricdim.scan")
    solver_module = importlib.import_module("metricdim.solver")
    solve, naive = solver_module._dimension, scan_module.edge_metric_dimension_naive

    def lowered(g, kind, max_k=None):
        dim = solve(g, kind, max_k)
        return dim if kind == "vertex" else dim - 2 * (dim >= 3)

    def lowered_naive(g):
        res = naive(g)
        return dataclasses.replace(res, dimension=res.dimension - 2 * (res.dimension >= 3))

    monkeypatch.setattr(solver_module, "_dimension", lowered)
    monkeypatch.setattr(scan_module, "edge_metric_dimension_naive", lowered_naive)
    code, out, _ = run(capsys, "verify", "--small-orders", "4")
    assert code == 1
    offenders = ["C}", "C|", "Cv", "Cz", "Cn", "C^", "C~"]  # by edge mask
    assert out.splitlines()[2:] == ["FAIL: 7 graphs with edim < dim"] + [
        f"  n=4: {record}" for record in offenders
    ]


def test_scan_io_failure_reports_the_error(capsys, monkeypatch):
    import sys

    def broken():
        yield b"A_\n"
        raise OSError("disk gone")

    monkeypatch.setattr(sys, "stdin", type("S", (), {"buffer": broken()})())
    code, _, err = run(capsys, "scan", "--pred", "lt")
    assert code == 1
    assert "scan incomplete" in err and "disk gone" in err


def test_scan_records_mode_warns_when_the_checkpoint_cannot_be_written(capsys, tmp_path):
    # the match is still printed, alone on stdout; the failed checkpoint
    # write marks the scan incomplete, which stderr says in either format
    path = tmp_path / "stream.g6"
    path.write_text("A_\nBw\n")
    ckpt = str(tmp_path / "missing" / "scan.ckpt")
    code, out, err = run(
        capsys, "scan", "--g6-file", str(path), "--pred", "lt",
        "--checkpoint", ckpt, "--format", "records",
    )
    assert code == 1
    assert out == "A_\t1\t0\n"
    assert "warning: scan incomplete (I/O error:" in err and "scan.ckpt.tmp" in err


def test_scan_refuses_jobs_outside_the_cpu_count(capsys, monkeypatch, tmp_path):
    import metricdim.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("a scan was started")

    monkeypatch.setattr(cli, "scan", refuse)
    missing = str(tmp_path / "never-opened.g6")
    for jobs in ("0", "-1", str(10**6)):
        code, out, err = run(capsys, "scan", "--g6-file", missing, "--jobs", jobs)
        assert code == 2
        assert not out
        assert "error:" in err and "--jobs" in err


def test_scan_malformed_predicate_exits_2(capsys, tmp_path):
    missing = str(tmp_path / "never-opened.g6")
    for pred in ("diff:x", "ratio:1/0", "lt:2", "nonsense"):
        code, out, err = run(capsys, "scan", "--g6-file", missing, "--pred", pred)
        assert code == 2
        assert not out
        assert "malformed predicate" in err


def test_scan_checkpoint_of_another_predicate_exits_2(capsys, tmp_path):
    path = tmp_path / "stream.g6"
    path.write_text("A_\nBw\n")
    ckpt = str(tmp_path / "scan.ckpt")
    code, _, _ = run(capsys, "scan", "--g6-file", str(path), "--pred", "eq", "--checkpoint", ckpt)
    assert code == 0
    code, out, err = run(capsys, "scan", "--g6-file", str(path), "--pred", "gt", "--checkpoint", ckpt)
    assert code == 2
    assert not out
    assert "error:" in err and ckpt in err and "predicate eq" in err


def test_scan_checkpoint_of_another_input_exits_2(capsys, tmp_path):
    path = tmp_path / "stream.g6"
    path.write_text("A_\nBw\n")
    ckpt = str(tmp_path / "scan.ckpt")
    code, _, _ = run(capsys, "scan", "--g6-file", str(path), "--pred", "lt", "--checkpoint", ckpt)
    assert code == 0
    path.write_text("Bw\nA_\n")
    code, out, err = run(capsys, "scan", "--g6-file", str(path), "--pred", "lt", "--checkpoint", ckpt)
    assert code == 2
    assert not out
    assert "error:" in err and ckpt in err and "another input" in err


def test_scan_malformed_checkpoint_exits_2(capsys, tmp_path):
    path = tmp_path / "stream.g6"
    path.write_text("A_\nBw\n")
    ckpt = tmp_path / "scan.ckpt"
    code, _, _ = run(capsys, "scan", "--g6-file", str(path), "--pred", "lt", "--checkpoint", str(ckpt))
    assert code == 0
    ckpt.write_text(ckpt.read_text().replace("total=2", "total=two"))
    code, out, err = run(capsys, "scan", "--g6-file", str(path), "--pred", "lt", "--checkpoint", str(ckpt))
    assert code == 2
    assert not out
    assert "error:" in err and str(ckpt) in err and "total=" in err and "'two'" in err


def test_verify_small_orders_beyond_the_limit_exits_2(capsys):
    code, out, err = run(capsys, "verify", "--small-orders", "9")
    assert code == 2
    assert not out
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [("both", "--g6-file"), ("scan", "--g6-file"), ("both", "--edges")],
    ids=["both-g6-file", "scan-g6-file", "both-edges"],
)
def test_missing_input_file_exits_1(capsys, tmp_path, argv):
    missing = str(tmp_path / "absent.txt")
    code, out, err = run(capsys, *argv, missing)
    assert code == 1
    assert not out
    assert err.startswith("error: ") and "No such file or directory" in err
    assert missing in err and "Traceback" not in err


def test_out_of_memory_exits_1_with_an_error_line(capsys, monkeypatch):
    import metricdim.cli as cli

    def exhausted(spec):
        raise MemoryError()

    monkeypatch.setattr(cli, "parse_family_spec", exhausted)
    code, out, err = run(capsys, "family", "--family", "complete:8000", "--format", "records")
    assert code == 1
    assert not out
    assert err == "error: out of memory\n"


def test_family_records_prints_only_the_record(capsys):
    code, out, err = run(capsys, "family", "--family", "G:5,1,2", "--format", "records")
    assert code == 0 and not err
    assert out == encode_graph6(make_gadget(5, 1, 2)) + "\n"


def test_ratio_malformed_target_exits_1(capsys):
    code, out, err = run(capsys, "ratio", "--target", "abc")
    assert code == 1
    assert not out
    assert err.startswith("error: malformed ratio target 'abc': ")


def test_verify_failing_suite_prints_fail_rows(capsys, monkeypatch):
    # a solver one dimension too high fails every lemma 3 row
    import metricdim.verify as verify

    solved = verify.solved_dims
    monkeypatch.setattr(verify, "solved_dims", lambda g: tuple(d + 1 for d in solved(g)))
    code, out, _ = run(capsys, "verify", "--suite", "lemma3")
    assert code == 1
    head, *rows = out.splitlines()
    assert head.startswith("lemma3: FAIL (")
    assert len(rows) == len(verify.GRIDS["small"].gadgets)
    assert all(row.startswith("  FAIL  G(") for row in rows)
