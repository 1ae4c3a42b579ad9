"""The README's library example runs and gives the results it states."""

import re

from conftest import REPO_ROOT


def library_example():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_states_its_results():
    code = library_example()
    claims = [line[2:] for line in code.splitlines()
              if line.startswith("# ") and " == " in line]
    assert len(claims) == 3
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    for claim in claims:
        assert eval(claim, namespace), claim

