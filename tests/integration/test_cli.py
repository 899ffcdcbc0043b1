"""The ``python -m repro`` command-line interface."""

import json
import os
import signal
import subprocess
import sys

import pytest

import repro
from repro.__main__ import main
from repro.serve import ServiceClient
from repro.store import STORE_DIR_ENV, RelationStore
from repro.workloads import join_pair


@pytest.fixture
def csv_pair(tmp_path):
    emp = tmp_path / "emp.csv"
    emp.write_text(
        "name,dept\nada,research\ngrace,research\nedsger,theory\n"
    )
    dept = tmp_path / "dept.csv"
    dept.write_text("dept,budget\nresearch,900\ntheory,400\n")
    return emp, dept


class TestQueryCommand:
    def test_join_query(self, csv_pair, capsys):
        emp, dept = csv_pair
        code = main([
            "query", "join(EMP, DEPT, dept == dept)",
            "-r", f"EMP={emp}", "-r", f"DEPT={dept}",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "(3 tuples)" in out
        assert "ada" in out

    def test_engines_agree(self, csv_pair, capsys):
        emp, dept = csv_pair
        outputs = []
        for engine in ("systolic", "software"):
            assert main([
                "query", "project(join(EMP, DEPT, dept == dept), name, budget)",
                "-r", f"EMP={emp}", "-r", f"DEPT={dept}",
                "--engine", engine,
            ]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_backends_agree(self, csv_pair, capsys):
        emp, dept = csv_pair
        outputs = []
        for backend in ("pulse", "lattice"):
            assert main([
                "query", "project(join(EMP, DEPT, dept == dept), name, budget)",
                "-r", f"EMP={emp}", "-r", f"DEPT={dept}",
                "--backend", backend,
            ]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "(3 tuples)" in outputs[1]

    def test_unknown_backend_rejected(self, csv_pair, capsys):
        emp, _ = csv_pair
        with pytest.raises(SystemExit):
            main([
                "query", "dedup(EMP)", "-r", f"EMP={emp}",
                "--backend", "warp",
            ])
        assert "invalid choice" in capsys.readouterr().err

    def test_output_file(self, csv_pair, tmp_path, capsys):
        emp, dept = csv_pair
        out_file = tmp_path / "result.csv"
        assert main([
            "query", "dedup(EMP)",
            "-r", f"EMP={emp}", "--out", str(out_file),
        ]) == 0
        assert "written" in capsys.readouterr().out
        content = out_file.read_text()
        assert content.startswith("name,dept")
        assert "ada" in content

    def test_bad_relation_spec(self, capsys):
        assert main(["query", "dedup(A)", "-r", "nonsense"]) == 1
        assert "NAME=path" in capsys.readouterr().err

    def test_missing_relation(self, csv_pair, capsys):
        emp, _ = csv_pair
        assert main([
            "query", "intersect(EMP, GHOST)", "-r", f"EMP={emp}",
        ]) == 1
        assert "GHOST" in capsys.readouterr().err

    def test_parse_error_reported(self, csv_pair, capsys):
        emp, _ = csv_pair
        assert main(["query", "teleport(EMP)", "-r", f"EMP={emp}"]) == 1
        assert "unknown function" in capsys.readouterr().err


class TestMachineCommand:
    def test_machine_prints_timeline(self, csv_pair, capsys):
        emp, dept = csv_pair
        code = main([
            "machine", "join(EMP, DEPT, dept == dept)",
            "-r", f"EMP={emp}", "-r", f"DEPT={dept}",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "join0" in out
        assert "load EMP" in out

    def test_machine_backend_flag(self, csv_pair, capsys):
        emp, dept = csv_pair
        code = main([
            "machine", "join(EMP, DEPT, dept == dept)",
            "-r", f"EMP={emp}", "-r", f"DEPT={dept}",
            "--backend", "lattice",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "(3 tuples)" in out
        assert "join0" in out

    def test_logic_per_track_flag(self, csv_pair, capsys):
        emp, _ = csv_pair
        code = main([
            "machine", "select(EMP, dept == 0)",
            "-r", f"EMP={emp}", "--logic-per-track",
        ])
        assert code == 0
        out = capsys.readouterr().out
        # Fused into the read: no separate cpu step on the timeline.
        assert "cpu" not in out


class TestExplainAndMachineFlag:
    def test_query_machine_explain(self, csv_pair, capsys):
        emp, dept = csv_pair
        code = main([
            "query", "project(join(EMP, DEPT, dept == dept), name, budget)",
            "-r", f"EMP={emp}", "-r", f"DEPT={dept}",
            "--machine", "--explain",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "physical plan" in out
        assert "join0" in out
        assert "comparison0" in out
        assert "predicted makespan" in out
        assert "simulated" in out
        assert "(3 tuples)" in out

    def test_query_machine_matches_plain_query(self, csv_pair, capsys):
        emp, dept = csv_pair
        args = [
            "query", "project(join(EMP, DEPT, dept == dept), name)",
            "-r", f"EMP={emp}", "-r", f"DEPT={dept}",
        ]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main(args + ["--machine"]) == 0
        machine_out = capsys.readouterr().out
        # Same result table (the machine output adds a timeline after it).
        assert plain.split("(")[0] in machine_out

    def test_machine_explain_shows_blocks(self, csv_pair, capsys):
        emp, dept = csv_pair
        code = main([
            "machine", "join(EMP, DEPT, dept == dept)",
            "-r", f"EMP={emp}", "-r", f"DEPT={dept}", "--explain",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "blocks" in out
        assert "device" in out

    def test_store_and_forward_flag(self, csv_pair, capsys):
        emp, dept = csv_pair
        code = main([
            "machine", "project(join(EMP, DEPT, dept == dept), name)",
            "-r", f"EMP={emp}", "-r", f"DEPT={dept}",
            "--store-and-forward", "--explain",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "store-and-forward" in out
        assert "(3 tuples)" in out


class TestOptimizeFlag:
    def test_optimized_query_same_answer(self, csv_pair, capsys):
        emp, dept = csv_pair
        args_base = [
            "query", "select(dedup(EMP), dept == 0)",
            "-r", f"EMP={emp}",
        ]
        assert main(args_base) == 0
        plain = capsys.readouterr().out
        assert main(args_base + ["--no-optimize"]) == 0
        verbatim = capsys.readouterr().out
        assert plain == verbatim

    def test_optimize_enables_disk_fusion_on_machine(self, csv_pair, capsys):
        emp, _ = csv_pair
        code = main([
            "machine", "select(dedup(EMP), name == 0)",
            "-r", f"EMP={emp}", "--logic-per-track", "--optimize",
        ])
        assert code == 0
        out = capsys.readouterr().out
        # Pushdown sank the select under the dedup, onto the base read.
        assert "cpu" not in out


class TestObservationFlags:
    def test_profile_prints_one_row_per_stage(self, csv_pair, capsys):
        emp, dept = csv_pair
        assert main([
            "machine", "join(EMP, DEPT, dept == dept)",
            "-r", f"EMP={emp}", "-r", f"DEPT={dept}", "--profile",
        ]) == 0
        out = capsys.readouterr().out
        rows = out[out.index("profile (host wall-clock):"):].splitlines()[1:]
        assert [row.split()[0] for row in rows] == [
            "load", "parse", "optimize", "compile", "execute",
            "materialize", "total",
        ]
        stages = [float(row.split()[1]) for row in rows[:-1]]
        assert all(row.endswith("%") for row in rows[:-1])
        assert float(rows[-1].split()[1]) == pytest.approx(
            sum(stages), abs=0.01,
        )

    def test_query_and_machine_trace_is_a_chrome_trace(
        self, csv_pair, tmp_path, capsys,
    ):
        emp, dept = csv_pair
        for command in ("query", "machine"):
            path = tmp_path / f"{command}.json"
            assert main([
                command, "join(EMP, DEPT, dept == dept)",
                "-r", f"EMP={emp}", "-r", f"DEPT={dept}",
                "--trace", str(path),
            ]) == 0
            document = json.loads(path.read_text())
            assert "otherData" not in document  # metrics need --metrics
            assert "cli.execute" in {
                event["name"] for event in document["traceEvents"]
                if event["ph"] == "X"
            }
            capsys.readouterr()
            assert main(["trace", "summarize", str(path)]) == 0
            assert "cli.execute" in capsys.readouterr().out

    def test_serve_trace_is_a_chrome_trace(self, tmp_path, capsys):
        """The trace is written when the server stops, and ``--metrics``
        keeps the registry in it."""
        path = tmp_path / "serve.json"
        env = dict(
            os.environ,
            PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
        )
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--trace", str(path), "--metrics",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env,
        )
        try:
            banner = server.stdout.readline()
            host, port = banner.removeprefix("serving on ").rsplit(":", 1)
            a, b = join_pair(10, 8, 4, seed=31)
            with ServiceClient(host, int(port)) as db:
                db.store("R", a)
                db.store("S", b)
                db.query("project(join(R, S, #0 == #0), #0, #1)")
        finally:
            server.send_signal(signal.SIGINT)
            output, _ = server.communicate(timeout=30)
        assert server.returncode == 0, output
        assert f"written to {path}" in output
        document = json.loads(path.read_text())
        snapshot = document["otherData"]["repro.metrics"]
        assert snapshot["service.queries"]["value"] == 1
        assert main(["trace", "summarize", str(path)]) == 0
        summary = capsys.readouterr().out
        assert any(row.startswith("serve.request ") for row in summary.splitlines())
        assert "service.queries" in summary


class TestStoreDirEnvironment:
    """``$REPRO_STORE_DIR`` stands in for ``--store-dir`` everywhere."""

    @pytest.fixture
    def stored(self, tmp_path, monkeypatch):
        relation, _ = join_pair(12, 8, 4, seed=3)
        RelationStore(tmp_path / "store").write("A", relation)
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path / "store"))
        return relation

    def test_query_reads_the_stored_relation(self, stored, capsys):
        assert main(["query", "A"]) == 0
        assert f"({len(stored)} tuples)" in capsys.readouterr().out

    def test_query_with_shards_refuses_it(self, stored, capsys):
        assert main(["query", "A", "--shards", "2"]) == 2
        assert "single-machine feature" in capsys.readouterr().out
