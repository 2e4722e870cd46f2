import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_snippet_runs():
    # The README's Library example imports public names; running it keeps
    # it in step with what the package exports.
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:python", "exec"), {})
