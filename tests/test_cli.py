import csv
import gc
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import nearindep
import nearindep.verify
from nearindep.cli import main
from nearindep.generate import ClassSpec, _graph_classes, _tree_list
from nearindep.graph6 import emit_graph6
from nearindep.graphs import make_named

from oracles import graph_from_pair_mask


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def feed_stdin(monkeypatch, data: str | bytes) -> None:
    """Back ``sys.stdin`` with bytes, as a process's stdin is."""
    raw = data.encode("ascii") if isinstance(data, str) else data
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw)))


def test_compute_p4(capsys, tmp_path):
    src = tmp_path / "in.g6"
    src.write_text("Ch\n")  # a labelled P4
    code, out, _ = run_cli(capsys, "compute", "--input", str(src))
    assert code == 0
    row = json.loads(out)
    assert (row["sigma0"], row["sigma1"]) == ("8", "5")
    assert (row["q_num"], row["q_den"]) == ("5", "8")
    assert row["n"] == 4 and row["m"] == 3


def test_compute_reads_stdin(capsys, monkeypatch):
    feed_stdin(monkeypatch, "A_\n\nBw\n")
    code, out, _ = run_cli(capsys, "compute")
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and len(rows) == 2
    assert rows[0]["sigma0"] == "3" and rows[1]["graph6"] == "Bw"


def test_compute_csv(capsys, tmp_path):
    src = tmp_path / "in.g6"
    src.write_text("A_\n")
    code, out, _ = run_cli(capsys, "compute", "--input", str(src), "--format", "csv")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "graph6,n,m,sigma0,sigma1,q_num,q_den"
    assert lines[1] == "A_,2,1,3,1,1,3"


def test_csv_rows_end_in_a_bare_newline(capsys, monkeypatch):
    outs = []
    for command in ("compute", "distribution"):
        feed_stdin(monkeypatch, "A_\nCh\n")
        outs.append(run_cli(capsys, command, "--format", "csv")[1])
    outs.append(run_cli(capsys, "verify", "--theorem", "3.4", "--n-max", "4", "--format", "csv")[1])
    for out in outs:
        assert out.endswith("\n") and "\r" not in out
    assert outs[1].split("\n")[2] == "Ch,4,8 5 2 1"


@pytest.mark.parametrize("command, orders", [("compute", (0, 1, 2, 62, 63, 64)), ("distribution", (0, 1, 2, 5))],
                         ids=["compute", "distribution"])
def test_rows_echo_their_input_line(capsys, monkeypatch, command, orders):
    """A row's graph6 field is its input line, stripped and without its
    header, at both ends of the short size form (orders 0 and 62) and in
    the long form (63 and 64); the subset sweep of ``distribution`` stops
    at order 25."""
    lines = [emit_graph6(make_named("path", n)) for n in orders]
    feed_stdin(monkeypatch, "".join(f">>graph6<<{line}\n \t{line} \r\n" for line in lines))
    code, out, _ = run_cli(capsys, command)
    assert code == 0
    assert [json.loads(row)["graph6"] for row in out.splitlines()] == [line for line in lines for _ in range(2)]


def test_distribution(capsys, monkeypatch):
    feed_stdin(monkeypatch, "Bw\n")
    code, out, _ = run_cli(capsys, "distribution")
    row = json.loads(out)
    assert code == 0 and row["counts"] == ["4", "3", "0", "1"]


def test_gen_trees(capsys):
    code, out, _ = run_cli(capsys, "gen", "--class", "trees", "--n", "4")
    assert code == 0 and len(out.splitlines()) == 2


@pytest.mark.parametrize("family, n, digest", [
    ("trees", "16", "b85ca0c739da75deb7359b528450b771cfe249e9582d8211345aee13e5e77ca7"),
    ("forests", "14", "88234319d33ab9c5d61ac26e38c2bdb363513012f6366945c3e137e5792d8ffb"),
], ids=["trees-16", "forests-14"])
def test_gen_tree_and_forest_bytes(capsys, family, n, digest):
    code, out, _ = run_cli(capsys, "gen", "--class", family, "--n", n)
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


@pytest.mark.parametrize("family, n, lines, digest", [
    ("graphs", "7", 1044, "12db98d4b9059bda3ac38b5ec86a51a8d9b8258c748f030aece8692e9f3ddc84"),
    ("connected", "7", 853, "127c41ab469ddbb4e2860ba8dbae27953d8fe51077eb2967442b71ffb433eda0"),
    ("graphs", "8", 12346, "47182265d0d560b6543735acb1d953f620644e6d2897e033e58d6196aafa4ab5"),
    ("connected", "8", 11117, "1934c20ab9b447faa4c3688bb0030dfad51e4af5f342d3d6d7ebbfd46fb5fcd1"),
], ids=["graphs-7", "connected-7", "graphs-8", "connected-8"])
def test_gen_graph_bytes(capsys, family, n, lines, digest):
    """Each class is emitted in its canonical labelling, in code order."""
    code, out, _ = run_cli(capsys, "gen", "--class", family, "--n", n)
    assert code == 0 and len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_verify_forests_and_trees_bytes(capsys):
    """Theorem 4.1's reports over forests to order 14 and trees to order 16,
    witnesses included, pinned byte for byte."""
    code, out, _ = run_cli(capsys, "verify", "--theorem", "4.1", "--n-max", "16")
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
        "3d1d1426006510c0aa5e0cba33df346434f4eeedcf89e9d331f9e9f0cac1dc6a"
    )


def test_gen_pipeline_into_compute(capsys, tmp_path, monkeypatch):
    code, out, _ = run_cli(capsys, "gen", "--class", "connected", "--n", "5")
    assert code == 0 and len(out.splitlines()) == 21
    feed_stdin(monkeypatch, out)
    code, out2, _ = run_cli(capsys, "compute")
    assert code == 0 and len(out2.splitlines()) == 21


def test_gen_delta(capsys):
    code, out, _ = run_cli(capsys, "gen", "--class", "graphs", "--n", "4", "--delta", "1")
    assert code == 0 and len(out.splitlines()) == 2
    code, _, err = run_cli(capsys, "gen", "--class", "trees", "--n", "4", "--delta", "1")
    assert code == 2 and "delta" in err


def test_scan(capsys):
    code, out, _ = run_cli(capsys, "scan", "--class", "forests", "--n", "4",
                           "--objective", "max")
    doc = json.loads(out)
    assert code == 0
    assert doc["objective"] == "max"
    assert (doc["witness"]["q_num"], doc["witness"]["q_den"]) == ("2", "3")
    code, out, _ = run_cli(capsys, "scan", "--class", "trees", "--n", "5")
    doc = json.loads(out)
    assert doc["min_witness"]["q_num"] == "4" and doc["min_witness"]["q_den"] == "17"


@pytest.mark.parametrize("objective, digest", [
    (None, "752220fc45cbc43ce4b7682781dc6ab5c943ee7516a3dbacdc2f8e15928d693a"),
    ("min", "d26aa2c26a33a59a595810d534d424504b71aa58f7280d2f8d1da44f27ef07f4"),
    ("max", "5995ac8bdf51d3c353067a73c2f3d60b2f6176f7d102b62f77e3b8cb0ae12c9d"),
], ids=["both", "min", "max"])
def test_scan_bytes(capsys, objective, digest):
    argv = ["scan", "--class", "graphs", "--n", "6"]
    if objective is not None:
        argv += ["--objective", objective]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


@pytest.mark.parametrize("family, n, digest", [
    ("trees", 16, "184e51754893e36ad5bb806ff2715edcfe6ad3b2cb34634c435919b7a8120328"),
    ("forests", 14, "14c09370b3f650256a922d323929ece788468c62e85293e7d24d18dd22ca95e4"),
])
def test_scan_tree_and_forest_bytes(capsys, family, n, digest):
    """The extremal witnesses are the first least and the first greatest Q
    in generation order; many trees and forests tie on Q, so these pins
    fix the tie rule."""
    code, out, _ = run_cli(capsys, "scan", "--class", family, "--n", str(n))
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_verify_csv(capsys, monkeypatch):
    """Each field of a CSV row is that of the JSONL report of the same
    command: a Q as num/den, and a list of graphs joined by ';'.  The
    second command has violations: 3.2 against a star bound of 1/2.  A
    report without witnesses (the leaf checks) leaves their fields empty."""
    def witness(w):
        return ("", "") if w is None else (w["graph6"], f"{w['q_num']}/{w['q_den']}")

    for argv, patch, exit_code in ((("all", "5"), None, 0), (("3.2", "4"), Fraction(1, 2), 1)):
        if patch is not None:
            monkeypatch.setattr(nearindep.verify, "star_q", lambda n: patch)
        command = ("verify", "--theorem", argv[0], "--n-max", argv[1])
        code, out, _ = run_cli(capsys, *command, "--format", "csv")
        jsonl_code, jsonl, _ = run_cli(capsys, *command)
        assert code == jsonl_code == exit_code
        docs = [json.loads(line) for line in jsonl.splitlines()]
        assert out.split("\n", 1)[0] == ("theorem,family,n,delta,checked,passed,violations,"
                                         "equality_witnesses,min_graph6,min_q,max_graph6,max_q")
        assert list(csv.DictReader(io.StringIO(out))) == [{
            "theorem": d["theorem"], "family": d["family"], "n": str(d["n"]),
            "delta": "" if d["delta"] is None else str(d["delta"]), "checked": str(d["checked"]),
            "passed": str(d["passed"]), "violations": ";".join(v["graph6"] for v in d["violations"]),
            "equality_witnesses": ";".join(d["equality_witnesses"]),
            **dict(zip(("min_graph6", "min_q"), witness(d["min_witness"]))),
            **dict(zip(("max_graph6", "max_q"), witness(d["max_witness"]))),
        } for d in docs]
        assert any(";" in line for line in out.splitlines()[1:])


def test_jobs_do_not_change_output(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--theorem", "3.3", "--n-max", "6", "--jobs", "1")
    _, out2, _ = run_cli(capsys, "verify", "--theorem", "3.3", "--n-max", "6", "--jobs", "2")
    assert out1 == out2
    with pytest.raises(SystemExit) as e:  # only verify keeps the flag
        main(["scan", "--class", "graphs", "--n", "5", "--jobs", "1"])
    assert e.value.code == 2


def test_verify_all_bytes_and_shared_universes(capsys, monkeypatch):
    """The whole catalogue to order 6 is pinned byte for byte, and each
    universe is read once per order from the stream that ``_score`` reads:
    connected and exact-maximum-degree graphs are read off the all-graphs
    universe of the same order."""
    calls: Counter = Counter()

    def counting(name, spec_of):
        real = getattr(nearindep.verify, name)
        monkeypatch.setattr(nearindep.verify, name, lambda arg: calls.update([spec_of(arg)]) or real(arg))

    counting("gen_class", lambda spec: spec)  # the graph tables' stream, zipped with their pairs
    counting("_tree_list", lambda n: ClassSpec("trees", n))
    counting("_forest_classes", lambda n: ClassSpec("forests", n))
    code, out, _ = run_cli(capsys, "verify", "--theorem", "all", "--n-max", "6")
    assert code == 0 and len(out.splitlines()) == 80
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
        "6b4a75d82e1d83326454e7c651251e3cb62fe3a03bea79f14bc147bfdfe303a9"
    )
    families = ("all_graphs", "trees", "forests")
    assert calls == Counter({ClassSpec(f, n): 1 for f in families for n in range(1, 7)})


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as e:
        main(["gen", "--class", "dodecahedra", "--n", "4"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["verify", "--theorem", "3.2"])
    assert e.value.code == 2


def test_input_errors_exit_2(capsys, monkeypatch, tmp_path):
    feed_stdin(monkeypatch, "~~~\n")
    code, _, err = run_cli(capsys, "compute")
    assert code == 2 and "not supported" in err
    feed_stdin(monkeypatch, "Ax\n")
    code, _, err = run_cli(capsys, "compute")
    assert code == 2 and "padding" in err
    feed_stdin(monkeypatch, b"A\x7f\n")  # one past the last digit, '~'
    code, out, err = run_cli(capsys, "compute")
    assert (code, out) == (2, "") and "payload byte 127 outside graph6 range (byte offset 1)" in err
    missing = str(tmp_path / "missing.g6")
    code, _, err = run_cli(capsys, "compute", "--input", missing)
    assert code == 2
    for command in ("compute", "distribution"):  # no CSV header before the error
        code, out, err = run_cli(capsys, command, "--format", "csv", "--input", missing)
        assert code == 2 and out == "" and "missing.g6" in err
    code, _, err = run_cli(capsys, "gen", "--class", "graphs", "--n", "9")
    assert code == 2 and "order <= 8, got 9" in err


def test_stdin_and_input_read_the_same_bytes(capsys, monkeypatch, tmp_path):
    """Stdin and --input take one byte path: the same bytes give the same
    rows, message and exit code, and the message names the byte read."""
    data = b"A_\n\xff\n"
    src = tmp_path / "in.g6"
    src.write_bytes(data)
    feed_stdin(monkeypatch, data)
    piped = run_cli(capsys, "compute")
    assert run_cli(capsys, "compute", "--input", str(src)) == piped
    code, out, err = piped
    assert code == 2 and [json.loads(line)["graph6"] for line in out.splitlines()] == ["A_"]
    assert err == "nearindep: error: size byte 255 outside graph6 range (byte offset 0)\n"


def test_negative_bounds_exit_2(capsys):
    """A negative order bound or maximum degree is a usage error, not an
    empty run: nothing is printed and the exit code is 2."""
    for theorem in ("3.1", "all"):
        code, out, err = run_cli(capsys, "verify", "--theorem", theorem, "--n-max", "-3")
        assert code == 2 and out == "" and "n_max" in err
    code, out, err = run_cli(capsys, "gen", "--class", "graphs", "--n", "4", "--delta", "-1")
    assert code == 2 and out == "" and "maximum degree" in err


def test_sigma_max_n_is_ignored(capsys, monkeypatch):
    """The caps are constants: SIGMA_MAX_N, set to any value, changes no
    output and no exit code."""
    def runs():
        feed_stdin(monkeypatch, "Bw\n")
        return run_cli(capsys, "gen", "--class", "graphs", "--n", "6"), run_cli(capsys, "compute")

    plain = runs()
    assert [code for code, _, _ in plain] == [0, 0] and plain[0][1].count("\n") == 156
    for raw in ("5", "-3", "abc"):
        monkeypatch.setenv("SIGMA_MAX_N", raw)
        assert runs() == plain


def saved_cycles(capsys, argv) -> int:
    """The number of objects in reference cycles that ``main(argv)`` leaves
    behind: a full collection after it saves them instead of freeing them.
    ``main`` freezes what it leaves, so each collection unfreezes first."""
    gc.unfreeze()
    gc.collect()
    flags, start = gc.get_debug(), len(gc.garbage)
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        main(argv)
        gc.unfreeze()
        gc.collect()
        return len(gc.garbage) - start
    finally:
        gc.set_debug(flags)
        del gc.garbage[start:]
        capsys.readouterr()


@pytest.mark.parametrize("small, large", [
    (["compute"], ["compute"]),
    (["distribution"], ["distribution"]),
    (["gen", "--class", "trees", "--n", "1"], ["gen", "--class", "trees", "--n", "14"]),
    (["gen", "--class", "forests", "--n", "1"], ["gen", "--class", "forests", "--n", "12"]),
    (["gen", "--class", "graphs", "--n", "1"], ["gen", "--class", "graphs", "--n", "7"]),
    (["scan", "--class", "graphs", "--n", "1"], ["scan", "--class", "connected", "--n", "7"]),
    (["verify", "--theorem", "all", "--n-max", "1"], ["verify", "--theorem", "all", "--n-max", "7"]),
], ids=["compute", "distribution", "gen-trees", "gen-forests", "gen-graphs", "scan", "verify"])
def test_a_command_leaves_only_the_parsers_cycles(capsys, monkeypatch, small, large):
    """A command runs with the collector off, which is sound because the
    engine builds no reference cycles: from cold caches, a large input
    leaves as many cyclic objects as a small one, the argument parser's
    own (228 on CPython 3.11).  The large stdin is every labelled graph
    on five vertices."""
    labelled5 = "".join(emit_graph6(graph_from_pair_mask(5, m)) + "\n" for m in range(1 << 10))
    counts = []
    for argv, data in ((small, "A_\n"), (large, labelled5)):
        feed_stdin(monkeypatch, data)
        _graph_classes.cache_clear()
        _tree_list.cache_clear()
        counts.append(saved_cycles(capsys, argv))
    assert counts[0] == counts[1] > 0


def test_main_restores_the_collector(capsys, monkeypatch):
    """The command runs with the collector off, and on every way out of
    ``main`` (exit 0, exit 2 on a capability error or on bad graph6, an
    argparse usage error) it is on again exactly when it was on before."""
    during = []
    real = nearindep.cli.gen_class
    monkeypatch.setattr(nearindep.cli, "gen_class", lambda spec: during.append(gc.isenabled()) or real(spec))
    runs = [(["gen", "--class", "trees", "--n", "4"], 0), (["gen", "--class", "graphs", "--n", "9"], 2), (["compute"], 2)]
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for argv, code in runs:
                feed_stdin(monkeypatch, "~~~\n")
                assert run_cli(capsys, *argv)[0] == code and gc.isenabled() is enabled
            with pytest.raises(SystemExit) as e:
                main(["gen", "--class", "dodecahedra", "--n", "4"])
            assert e.value.code == 2 and gc.isenabled() is enabled
    finally:
        gc.enable()
    assert during == [False] * 4


def test_main_freezes_what_the_command_holds(capsys):
    """``main`` freezes every tracked object before the collector comes
    back, so neither the next young collection nor the final one at exit
    walks the cached universes: the trees ``verify`` cached are in no
    generation that a collection examines."""
    try:
        assert run_cli(capsys, "verify", "--theorem", "4.1", "--n-max", "10")[0] == 0
        trees = _tree_list(10)
        assert all(obj is not trees for obj in gc.get_objects())
    finally:
        gc.unfreeze()


def test_closed_stdout_exits_141_quietly():
    """A reader that closes the pipe early, as ``head`` does, is not an input
    error: nothing on stderr, and the status a shell reports for SIGPIPE.
    The 1.2 MB of trees are far more than a pipe buffers."""
    src = str(Path(nearindep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nearindep.cli", "gen", "--class", "trees", "--n", "17"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_cli_import_loads_no_dataclasses():
    """Every ``nearindep`` process imports the CLI first.  ``dataclasses``
    (with ``inspect``, ``ast``, ``dis`` and ``tokenize``) took about 15 ms
    of that import, so the engine's records are built without it."""
    src = str(Path(nearindep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, nearindep.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"False\n", b"")


def run_example(capsys, monkeypatch, command: str) -> list[str]:
    """The output lines of one README shell line, run in-process: printf,
    nearindep and head stages joined by '|', optionally followed by
    '; echo $?' (the exit code of the last nearindep stage)."""
    pipeline, _, echo = command.partition(" ; ")
    out, code = "", 0
    for stage in pipeline.split(" | "):
        name, *args = shlex.split(stage)
        if name == "printf":
            out = args[0].replace("\\n", "\n")
        elif name == "head":
            out = "".join(out.splitlines(keepends=True)[: int(args[0].lstrip("-"))])
        else:
            assert name == "nearindep", stage
            feed_stdin(monkeypatch, out)
            code, out, _ = run_cli(capsys, *args)
    return out.splitlines() + ([str(code)] if echo == "echo $?" else [])


def test_readme_examples(capsys, monkeypatch):
    """Every example in the README's CLI section prints what the README
    shows; a shown line '...text...' stands for one or more lines."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Examples:\n\n```\n", 1)[1].split("\n```", 1)[0]
    examples = [chunk.splitlines() for chunk in block.split("\n\n")]
    assert len(examples) == 4
    for command, *shown in examples:
        got = run_example(capsys, monkeypatch, command.removeprefix("$ "))
        gap = next((i for i, line in enumerate(shown) if line.startswith("...")), None)
        if gap is None:
            assert got == shown, command
        else:
            head, tail = shown[:gap], shown[gap + 1:]
            assert len(got) > len(head) + len(tail), command
            assert (got[:gap], got[len(got) - len(tail):]) == (head, tail), command


def test_readme_library_example():
    """Every line of the README's Library block runs, and each expression
    line evaluates to the repr its comment shows."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library\n\n```python\n", 1)[1].split("\n```", 1)[0]
    namespace, shown = {}, 0
    for line in block.splitlines():
        code, _, expected = line.partition("#")
        if expected:
            assert repr(eval(code, namespace)) == expected.strip(), line
            shown += 1
        else:
            exec(code, namespace)
    assert shown == 5
