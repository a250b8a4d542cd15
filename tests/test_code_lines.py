"""``code_lines.py`` counts code, not docstrings, comments or blank lines."""

import code_lines

MODULE = '''"""A module docstring
over two lines."""

# a comment line
import math  # a comment after code counts as code


def area(r):
    """A function docstring."""
    text = """a string that is not a docstring
    counts on each of its lines"""
    return (math.pi
            * r * r), text
'''


def test_a_made_up_module_counts_its_code_lines():
    # import, def, text (two lines), return (two lines)
    assert code_lines.code_lines(MODULE) == 6


def test_counts_reads_each_module_of_a_directory(tmp_path):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.counts(str(tmp_path)) == {"a.py": 6, "b.py": 1}
