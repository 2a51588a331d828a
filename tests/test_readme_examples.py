"""README's usage examples: each command-line example is a row of the run
table (`tests/test_run_table.py`), which pins its bytes by sha256, and
the library quickstart runs.
"""

import re
from pathlib import Path

from test_run_table import RUNS

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_examples() -> list[str]:
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line[len("qmol "):] for line in block.splitlines() if line.startswith("qmol ")]


def test_readme_examples_are_rows_of_the_run_table():
    examples = _readme_examples()
    assert len(examples) == 7 and examples[-1] == "verify"
    assert [example for example in examples if example not in RUNS] == []


def test_readme_library_quickstart_runs(capsys):
    section = README.read_text().split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert abs(namespace["cond"].ratio - 3**0.5 / 4) < 1e-15
    assert len(namespace["traj"].times) == 500
    assert namespace["grid"].values.shape == (201, 201)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 4 and abs(float(printed[2]) - 1.0) < 1e-14
