"""README's quick-start block runs as written."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text()
    section = text[text.index("## Quick start (API)"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


@pytest.mark.slow
def test_readme_quick_start_runs():
    """The block executes without an error, and its Monte Carlo run at
    the closed-form optimum settles."""
    ns = {"__name__": "readme_quick_start"}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(_quick_start(), str(README), "exec"), ns)
    assert ns["traj"].settled
