"""The README's library example runs and gives the results it states, and
its `solve --table` block is what the command prints."""

import re

from conftest import DEMO_PATH, REPO_ROOT
from treeiso.cli import main


def readme_block(heading: str, fence: str = "") -> str:
    """The first fenced block after `heading`."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index(heading):]
    return re.search(r"```%s\n(.*?)```" % fence, section, re.S).group(1)


def library_example():
    return readme_block("## Library use", "python")


def test_library_example_states_its_results():
    code = library_example()
    claims = [line[2:] for line in code.splitlines()
              if line.startswith("# ") and " == " in line]
    assert len(claims) == 3
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    for claim in claims:
        assert eval(claim, namespace), claim


def test_solve_table_block_is_the_command_output(capsys):
    assert main(["solve", str(DEMO_PATH), "--table"]) == 0
    out = capsys.readouterr().out
    assert out == readme_block("`solve --table` on the bundled instance prints")
    assert "kkt_residual = 0.000e+00\n" in out
