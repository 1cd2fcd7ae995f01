import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(block, f"{README}:Library use", "exec"), scope)
    assert scope["student"].layers[0].routing is not None
