"""README's "Library quick start" block runs against the current public API."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> str:
    """The first ``python`` code block after the "Library quick start" heading."""
    section = README.read_text().split("## Library quick start\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_quick_start_runs(capsys):
    exec(compile(quick_start_block(), str(README), "exec"), {"__name__": "readme"})
    max_accuracy, _ = capsys.readouterr().out.split()
    assert 0.0 < float(max_accuracy) <= 1.0
