"""``atomic_write_text`` gives its file the mode a plain write would."""

import os
import stat

import pytest

from repro.io.atomic import atomic_write_text


def mode_of(path):
    return stat.S_IMODE(path.stat().st_mode)


@pytest.fixture
def umask():
    """Set the process umask for one test, then restore it."""
    saved = os.umask(0o022)
    yield os.umask
    os.umask(saved)


@pytest.mark.parametrize(
    "mask,expected", [(0o022, 0o644), (0o027, 0o640)], ids=["022", "027"]
)
def test_new_file_gets_the_umask_mode(tmp_path, umask, mask, expected):
    umask(mask)
    path = atomic_write_text(tmp_path / "result.json", "{}")
    assert path.read_text() == "{}"
    assert mode_of(path) == expected


def test_replaced_file_keeps_its_mode(tmp_path, umask):
    path = tmp_path / "journal.jsonl"
    path.write_text("old\n")
    path.chmod(0o604)
    umask(0o077)
    atomic_write_text(path, "new\n")
    assert path.read_text() == "new\n"
    assert mode_of(path) == 0o604

