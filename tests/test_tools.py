import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parent.parent / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module
docstring."""

import os  # a trailing comment counts as code

# a comment line


def f(x):
    """Function docstring."""
    return (x +
            1)


class C:
    """Class docstring."""
    y = "a string that is not a docstring"

    async def g(self):
        """Method
        docstring."""
'''


def test_counts_neither_blanks_nor_comments_nor_docstrings():
    # import, def f, the two lines of its return, class C, y, async def g
    assert code_lines.code_lines(SOURCE) == 7
