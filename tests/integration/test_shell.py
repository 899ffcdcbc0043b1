"""The interactive shell, driven through onecmd (no tty needed)."""

import io

import pytest

from repro.shell import SystolicShell


@pytest.fixture
def csv_files(tmp_path):
    emp = tmp_path / "emp.csv"
    emp.write_text("name,dept\nada,research\ngrace,research\nedsger,theory\n")
    dept = tmp_path / "dept.csv"
    dept.write_text("dept,budget\nresearch,900\ntheory,400\n")
    return emp, dept


@pytest.fixture
def shell():
    return SystolicShell(stdout=io.StringIO())


def said(shell) -> str:
    return shell.stdout.getvalue()


class TestLoadAndShow:
    def test_load_reports_shape(self, shell, csv_files):
        emp, _ = csv_files
        shell.onecmd(f"load EMP {emp}")
        assert "EMP: 3 tuples" in said(shell)
        assert "name, dept" in said(shell)

    def test_relations_listing(self, shell, csv_files):
        emp, dept = csv_files
        shell.onecmd(f"load EMP {emp}")
        shell.onecmd(f"load DEPT {dept}")
        shell.onecmd("relations")
        assert "EMP" in said(shell)
        assert "DEPT" in said(shell)

    def test_show(self, shell, csv_files):
        emp, _ = csv_files
        shell.onecmd(f"load EMP {emp}")
        shell.onecmd("show EMP")
        assert "ada" in said(shell)

    def test_show_unknown(self, shell):
        shell.onecmd("show GHOST")
        assert "no relation" in said(shell)

    def test_load_usage_and_missing_file(self, shell):
        shell.onecmd("load JUSTONEARG")
        assert "usage" in said(shell)
        shell.onecmd("load X /nonexistent/file.csv")
        assert "error" in said(shell)


class TestQuerying:
    def test_machine_query_and_timeline(self, shell, csv_files):
        emp, dept = csv_files
        shell.onecmd(f"load EMP {emp}")
        shell.onecmd(f"load DEPT {dept}")
        shell.onecmd("query join(EMP, DEPT, dept == dept)")
        out = said(shell)
        assert "(3 tuples" in out
        assert "makespan" in out
        shell.onecmd("timeline")
        assert "join0" in said(shell)

    def test_same_query_twice_prints_the_same_timeline(self, shell, csv_files):
        emp, dept = csv_files
        shell.onecmd(f"load EMP {emp}")
        shell.onecmd(f"load DEPT {dept}")
        timelines = []
        for _ in range(2):
            shell.onecmd("query intersect(project(EMP, dept), "
                         "project(DEPT, dept))")
            before = len(said(shell))
            shell.onecmd("timeline")
            timelines.append(said(shell)[before:])
        assert "makespan" in timelines[0]
        assert timelines[0] == timelines[1]

    def test_timeline_before_any_query(self, shell):
        shell.onecmd("timeline")
        assert "no machine query" in said(shell)

    def test_let_binds_results(self, shell, csv_files):
        emp, _ = csv_files
        shell.onecmd(f"load EMP {emp}")
        shell.onecmd("let NAMES = project(EMP, name)")
        assert "NAMES: 3 tuples" in said(shell)
        shell.onecmd("query dedup(NAMES)")
        assert "(3 tuples" in said(shell)

    def test_let_usage(self, shell):
        shell.onecmd("let NOEQUALS")
        assert "usage" in said(shell)

    def test_engines_cross_check(self, shell, csv_files):
        emp, _ = csv_files
        shell.onecmd(f"load EMP {emp}")
        shell.onecmd("engines intersect(EMP, EMP)")
        assert "AGREE" in said(shell)

    def test_query_error_reported(self, shell):
        shell.onecmd("query intersect(GHOST, GHOST)")
        assert "error" in said(shell)


class TestShellControls:
    def test_optimize_toggle(self, shell, csv_files):
        emp, _ = csv_files
        shell.onecmd(f"load EMP {emp}")
        shell.onecmd("optimize on")
        assert "enabled" in said(shell)
        shell.onecmd("query dedup(dedup(EMP))")  # rewritten to one dedup
        assert "(3 tuples" in said(shell)
        shell.onecmd("optimize sideways")
        assert "usage" in said(shell)

    def test_explain_shows_physical_plan(self, shell, csv_files):
        emp, dept = csv_files
        shell.onecmd(f"load EMP {emp}")
        shell.onecmd(f"load DEPT {dept}")
        shell.onecmd("explain project(join(EMP, DEPT, dept == dept), name)")
        out = said(shell)
        assert "physical plan" in out
        assert "join0" in out
        assert "predicted makespan" in out

    def test_explain_error_reported(self, shell):
        shell.onecmd("explain join(MISSING, ALSO, x == x)")
        assert "error:" in said(shell)

    def test_quit_returns_true(self, shell):
        assert shell.onecmd("quit") is True
        assert shell.onecmd("exit") is True

    def test_unknown_command(self, shell):
        shell.onecmd("teleport somewhere")
        assert "unknown command" in said(shell)

    def test_empty_line_is_noop(self, shell):
        assert shell.emptyline() is None
