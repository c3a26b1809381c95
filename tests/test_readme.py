"""README.md names package functions as `module.name`; each must exist, so
that deleting or renaming a documented function fails until the README
follows."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("gscm", "rx", "scheduling", "localization", "harness", "plain", "cli", "errors")
NAME = re.compile(rf"`({'|'.join(MODULES)})\.([A-Za-z_]\w*)")


def documented_names() -> set[tuple[str, str]]:
    return set(NAME.findall(README.read_text(encoding="utf-8")))


def test_readme_names_resolve():
    names = documented_names()
    assert len(names) >= 20   # the pattern still finds the README's references
    missing = sorted(f"{module}.{name}" for module, name in names
                     if not hasattr(importlib.import_module(f"gusim.{module}"), name))
    assert not missing, f"README.md names functions gusim does not define: {missing}"
