"""README.md names package functions as `module.name` and class members as
`Class.attr`; each must exist, so that deleting or renaming a documented
function, attribute or field fails until the README follows."""

import importlib
import re
from pathlib import Path

import gusim

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("gscm", "rx", "scheduling", "localization", "harness", "plain", "cli", "errors")
NAME = re.compile(rf"`({'|'.join(MODULES)})\.([A-Za-z_]\w*)")
MEMBER = re.compile(r"`([A-Z]\w*)\.([A-Za-z_]\w*)")


def documented_names() -> set[tuple[str, str]]:
    return set(NAME.findall(README.read_text(encoding="utf-8")))


def documented_members() -> set[tuple[type, str]]:
    """(class, attribute) of every `Class.attr` whose class gusim exports."""
    found = MEMBER.findall(README.read_text(encoding="utf-8"))
    return {(getattr(gusim, cls), attr) for cls, attr in found
            if isinstance(getattr(gusim, cls, None), type)}


def test_readme_names_resolve():
    names = documented_names()
    assert len(names) >= 20   # the pattern still finds the README's references
    missing = sorted(f"{module}.{name}" for module, name in names
                     if not hasattr(importlib.import_module(f"gusim.{module}"), name))
    assert not missing, f"README.md names functions gusim does not define: {missing}"


def test_readme_members_resolve():
    members = documented_members()
    assert len(members) >= 4   # the pattern still finds the README's references
    # a dataclass field without a default is not a class attribute
    missing = sorted(f"{cls.__name__}.{attr}" for cls, attr in members
                     if not hasattr(cls, attr)
                     and attr not in getattr(cls, "__dataclass_fields__", {}))
    assert not missing, f"README.md names members gusim does not define: {missing}"


def test_readme_is_at_most_400_lines():
    # the README is the user contract; run measurements go to CHANGES.md
    lines = README.read_text(encoding="utf-8").count("\n")
    assert lines <= 400, f"README.md has {lines} lines; cite CHANGES.md instead of repeating it"
