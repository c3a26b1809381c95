"""The README's examples run: its ``python`` blocks in order, then each
``gusim`` line of its shell blocks through ``cli.main``, with one trial
where the command takes ``--trials``, so that the documented calls and
commands keep working as written."""

import re
import shlex
from pathlib import Path

from gusim import cli

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCK = re.compile(r"^```(\w*)\n(.*?)^```", re.S | re.M)


def blocks(language: str) -> list[str]:
    return [body for lang, body in BLOCK.findall(README.read_text(encoding="utf-8"))
            if lang == language]


def test_readme_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks("python"):   # the last one writes the config the commands read
        exec(compile(block, str(README), "exec"), namespace)
    commands = [shlex.split(line, comments=True) for block in blocks("sh")
                for line in block.splitlines() if line.startswith("gusim ")]
    assert sorted(argv[1] for argv in commands) == ["fig2", "fig3", "fig4", "run"]
    for argv in commands:
        trials = [] if argv[1] == "fig3" else ["--trials", "1"]   # fig3 runs no trials
        assert cli.main([*argv[1:], *trials]) == 0
        out = Path(argv[argv.index("--out") + 1])
        assert out.is_file() and Path(f"{out}.manifest.txt").is_file()
