import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a comment after code


class A:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring."""
        # a comment line
        return os.path.join(
            x,
            "y",
        )


TEXT = """a string,
not a docstring"""
'''


def test_counts_code_lines_only():
    # import, class, def, the four lines of the call and the two of TEXT
    assert code_lines.count(SNIPPET) == 9


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["9", str(tmp_path / "a.py"), "1", str(tmp_path / "b.py"), "10", "total"]
