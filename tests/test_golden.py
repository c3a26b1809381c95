"""Every reference config reproduces the CSV, manifest and trial-row hashes
in ``golden_hashes.json``, so a change that moves any output bit fails
here. A change meant to move outputs re-records the table with
``tests/record_golden.py`` and names each changed entry in CHANGES.md."""

import json

import pytest

from record_golden import ENTRIES, TABLE, entry_hashes, environment, table_changes

GOLDEN = json.loads(TABLE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def same_environment():
    here, there = environment(), GOLDEN["environment"]
    differ = {k: (there.get(k), here.get(k)) for k in here.keys() | there.keys()
              if here.get(k) != there.get(k)}
    if differ:
        pytest.skip(f"golden hashes were recorded on another environment "
                    f"(recorded, here): {differ}")


def test_table_covers_every_config():
    assert sorted(GOLDEN["entries"]) == sorted(f"{n}@{s}" for n, s in ENTRIES)


@pytest.mark.parametrize("name,seed", ENTRIES, ids=[f"{n}@{s}" for n, s in ENTRIES])
def test_outputs_match_golden_hashes(same_environment, name, seed):
    assert entry_hashes(name, seed) == GOLDEN["entries"][f"{name}@{seed}"]


def test_recorder_names_every_moved_hash():
    old = {"environment": {"numpy": "1", "pyyaml": "6"},
           "entries": {"a@1": {"csv": "x", "manifest": "y"}, "gone@1": {"yaml": "z"}}}
    new = {"environment": {"numpy": "2", "blas": "b"},
           "entries": {"a@1": {"csv": "x", "manifest": "w"}, "new@7": {"yaml": "z"}}}
    assert table_changes(old, new) == [
        "environment numpy: '1' -> '2'", "environment blas: None -> 'b'",
        "environment pyyaml: '6' -> None", "changed a@1 manifest", "added new@7",
        "removed gone@1"]
    assert table_changes(GOLDEN, GOLDEN) == []
