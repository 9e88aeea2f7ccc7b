"""tools/code_size.py counts code lines and settable values."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_size.py"
spec = importlib.util.spec_from_file_location("code_size", TOOL)
code_size = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_size)

SOURCE = '''"""Module docstring,
two lines."""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Config:
    """Class docstring."""
    starts: int = 4          # a comment after code
    seed: int
    tags: list = field(default_factory=list)

    def scaled(self, by=2, *, exact=True, note=None):
        # a comment line
        return [self.starts * by,
                exact]


def plain(a, b):
    """Function
    docstring."""

    return (lambda x=1: x)(a + b)
'''


def test_counts_code_lines_and_settable_values(tmp_path, capsys):
    path = tmp_path / "mod.py"
    path.write_text(SOURCE)
    # import, decorator, class, 3 fields, def + 2-line return, def, return
    assert code_size.code_lines(path) == 11
    # starts, tags; by, exact, note; the lambda's x
    assert code_size.settable_values(path) == 6
    assert code_size.main([str(tmp_path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1].split() == ["mod.py", "11", "6"]
    assert rows[-1].split() == ["total", "11", "6"]


CLI_SOURCE = '''import argparse

parser = argparse.ArgumentParser()
parser.add_argument("--seed", type=int, default=None)
parser.add_argument("--out")
parser.add_argument("--matrix", required=True)
parser.add_argument("--dim", type=int, required=False)
parser.add_argument("path")
parser.add_argument("-v", action="store_true")
'''


def test_counts_each_optional_long_flag_as_a_settable_value(tmp_path):
    path = tmp_path / "cli.py"
    path.write_text(CLI_SOURCE)
    # --seed, --out, --dim; not the required --matrix, the positional or -v
    assert code_size.settable_values(path) == 3
