"""The code-line counter that CHANGES and the ROADMAP quote (tests/code_lines.py)."""

from code_lines import code_lines, table

SOURCE = '''"""A module docstring
over two lines."""

# a comment
import os  # a trailing comment


class A:
    """A class docstring."""

    x = 1

    def f(self, y):
        """A function docstring,

        with a blank line in it."""
        s = """a string
that is not a docstring"""
        "a string statement after the first"
        return (y +
                self.x)
'''


def test_blanks_comments_and_docstrings_do_not_count():
    # import, class, x, def, two lines of s, the string statement, two of return
    assert code_lines(SOURCE) == 9
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n') == 0


def test_the_table_lists_each_module_by_name(tmp_path):
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text("x = 1\n\n# y = 2\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert table(tmp_path) == [("a", 1), ("b", 9)]
