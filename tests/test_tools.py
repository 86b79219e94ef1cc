import importlib.util
import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_PATH = _ROOT / "tools" / "code_lines.py"
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


def test_parity_lines_repeat_and_labels_are_unique():
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    command = [sys.executable, str(_ROOT / "tools" / "parity.py")]
    procs = [subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True) for _ in range(2)]
    runs = [proc.communicate()[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0] and runs[0] == runs[1]
    pairs = [line.split("\t") for line in runs[0].splitlines()]
    assert all(len(pair) == 2 and pair[1] == float.fromhex(pair[1]).hex() for pair in pairs)
    labels = [label for label, _ in pairs]
    assert len(labels) > 1000 and len(set(labels)) == len(labels)
