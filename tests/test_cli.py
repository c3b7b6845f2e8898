import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import nearindep
import nearindep.verify
from nearindep.cli import main
from nearindep.generate import ClassSpec


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


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "3.2", "--n-max", "5")
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert [d["n"] for d in docs] == [1, 2, 3, 4, 5]
    assert all(d["passed"] for d in docs)


def test_verify_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "3.4", "--n-max", "4",
                           "--format", "csv")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0].startswith("theorem,family,n,delta,checked,passed")
    assert len(lines) == 4  # header + orders 2..4


def test_jobs_do_not_change_output(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--theorem", "3.3", "--n-max", "6", "--jobs", "1")
    _, out2, _ = run_cli(capsys, "verify", "--theorem", "3.3", "--n-max", "6", "--jobs", "2")
    assert out1 == out2
    with pytest.raises(SystemExit) as e:  # only verify keeps the flag
        main(["scan", "--class", "graphs", "--n", "5", "--jobs", "1"])
    assert e.value.code == 2


def test_verify_all_within_caps_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "all", "--n-max", "4")
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert all(d["passed"] for d in docs)
    assert {d["theorem"] for d in docs} >= {"thm-3.2", "cor-3.3", "prop-3.4", "thm-4.1"}


def test_verify_all_bytes_and_shared_universes(capsys, monkeypatch):
    """The whole catalogue to order 6 is pinned byte for byte, and each
    universe is generated once per order: connected and exact-maximum-degree
    graphs are read off the all-graphs universe of the same order."""
    calls: Counter = Counter()
    real_gen_class = nearindep.verify.gen_class

    def counting_gen_class(spec):
        calls[spec] += 1
        return real_gen_class(spec)

    monkeypatch.setattr(nearindep.verify, "gen_class", counting_gen_class)
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
