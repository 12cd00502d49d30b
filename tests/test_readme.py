"""README's Python examples run as written.

The ```python blocks of README.md are run in order in one namespace (the
second reads the first's `stream`). A call form that changes without the
README following fails here, naming the block and its line in README.md.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


def test_python_blocks_run_in_one_namespace():
    text = README.read_text()
    blocks = list(BLOCK.finditer(text))
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        line = text.count("\n", 0, block.start(1))  # lines before the block's first
        code = compile("\n" * line + block.group(1), str(README), "exec")
        exec(code, namespace)
