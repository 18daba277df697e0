"""The README's library example runs and prints the output the README shows."""

import contextlib
import io
import re
from pathlib import Path

from scalefit.simulator import preset_workload
from scalefit.store import write_model_file

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_blocks() -> tuple[str, str]:
    """The ```python and ```text blocks of the README's "Library use" section."""
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    text = re.search(r"```text\n(.*?)```", section, re.S).group(1)
    return code, text


def test_library_example_prints_the_readme_output(tmp_path, monkeypatch):
    code, text = _library_blocks()
    # The example reads model.json: the resnet18-like preset's true coefficients.
    write_model_file(tmp_path / "model.json", preset_workload("resnet18-like").to_perf_model())
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    assert out.getvalue() == text
