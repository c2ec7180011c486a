"""README's quick start runs as written and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _block_after(line: str) -> str:
    """The first ```python block after the given line of README.md."""
    text = README.read_text()
    body = text.index("```python\n", text.index(line)) + len("```python\n")
    return text[body : text.index("```", body)]


def _promised(line: str) -> re.Pattern:
    """The output a `print(...)  # comment` line promises: its comment, in
    which "..." stands for more digits."""
    comment = line.split("  # ", 1)[1]
    return re.compile(re.escape(comment).replace(re.escape("..."), r"\d*"))


def test_chain_and_sampler_quick_start_prints_its_comments():
    code = _block_after("Chain and sampler for the single-loop solution:")
    promised = [_promised(line) for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(promised) == 5
    for pattern, line in zip(promised, printed):
        assert pattern.fullmatch(line), (pattern.pattern, line)
