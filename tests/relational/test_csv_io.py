"""CSV import/export and the shared-domain registry."""

import pytest

from repro.errors import RelationError
from repro.relational import algebra
from repro.relational.csv_io import dump_csv, load_csv


@pytest.fixture
def emp_csv(tmp_path):
    path = tmp_path / "emp.csv"
    path.write_text(
        "name,dept,salary\n"
        "ada,research,120000\n"
        "grace,research,150000\n"
        "edsger,theory,95000\n"
    )
    return path


@pytest.fixture
def dept_csv(tmp_path):
    path = tmp_path / "dept.csv"
    path.write_text("dept,budget\nresearch,900000\ntheory,400000\n")
    return path


class TestLoad:
    def test_header_and_types(self, emp_csv):
        relation = load_csv(emp_csv)
        assert relation.schema.names == ("name", "dept", "salary")
        decoded = relation.decoded()
        assert decoded[0] == ("ada", "research", 120000)
        assert isinstance(decoded[0][2], int)

    def test_headerless(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1,2\n3,4\n")
        relation = load_csv(path, has_header=False)
        assert relation.schema.names == ("c0", "c1")
        assert len(relation) == 2

    def test_shared_registry_enables_joins(self, emp_csv, dept_csv):
        registry = {}
        emp = load_csv(emp_csv, registry=registry)
        dept = load_csv(dept_csv, registry=registry)
        joined = algebra.join(emp, dept, [("dept", "dept")])
        assert len(joined) == 3

    def test_separate_registries_keep_files_apart(self, emp_csv, dept_csv):
        emp = load_csv(emp_csv)
        dept = load_csv(dept_csv)
        with pytest.raises(Exception, match="domain"):
            algebra.join(emp, dept, [("dept", "dept")])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("x,y\n1,2\n\n3,4\n")
        assert len(load_csv(path)) == 2

    def test_field_count_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n1,2,3\n")
        with pytest.raises(RelationError, match=":3"):
            load_csv(path)

    def test_duplicate_header_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("x,x\n1,2\n")
        with pytest.raises(RelationError, match="duplicate"):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(RelationError, match="no rows"):
            load_csv(path)

    def test_negative_integers_parse(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("v\n-5\n7\n")
        assert load_csv(path).decoded() == [(-5,), (7,)]


    def test_a_30_digit_integer_loads_as_a_dictionary_code(self, tmp_path):
        """A relation's elements fit a 64-bit word; a CSV value is a
        domain *member*, so its width is no concern of the relation."""
        huge = 123456789012345678901234567890
        path = tmp_path / "wide.csv"
        path.write_text(f"id,name\n{huge},ada\n2,alan\n")
        relation = load_csv(path)
        assert relation.tuples == ((0, 0), (1, 1))
        assert relation.decoded() == [(huge, "ada"), (2, "alan")]


class TestRoundTrip:
    def test_dump_then_load(self, emp_csv, tmp_path):
        original = load_csv(emp_csv)
        out = tmp_path / "out.csv"
        dump_csv(original, out)
        registry = {}
        reloaded = load_csv(out, registry=registry)
        assert reloaded.decoded() == original.decoded()
        assert reloaded.schema.names == original.schema.names
