"""Crash-safe file writes: whole-file replaces and append-only JSONL logs.

The write-then-rename idiom guarantees a reader never observes a
half-written file: either the old content (or absence) or the complete
new content, nothing in between.  The temp file lives in the *target's*
directory so the final ``os.replace`` stays within one filesystem (rename
is only atomic there), and it takes the replaced file's mode, or for a
new file the mode ``open()`` would give it (0666 less the umask).

Append-only JSONL logs (run journals, the job journal, a worker's
events file, the run store's index) follow one rule: **a line counts
once its newline is on disk.**  :func:`append_line` writes, flushes and
fsyncs one line; every byte after a log's last newline is a *torn tail*
left by a crash mid-append.  A writer reopening a log
(:func:`reopen_jsonl`) removes that tail before appending, so the next
line never lands on a torn one; a complete line that does not parse is
damage, not a crash, and raises.  Readers (:func:`read_lines`) get the
complete lines and the tail apart and choose their own policy for it.
"""

from __future__ import annotations

import json
import os
import secrets
from pathlib import Path
from typing import IO, Any, List, Tuple, Type, Union

from repro.obs.log import get_logger

log = get_logger("io.atomic")


def atomic_write_text(
    path: Union[str, Path], text: str, durable: bool = True
) -> Path:
    """Write ``text`` to ``path`` atomically (parents created).

    Args:
        path: the destination file.
        text: the full new content.
        durable: also fsync the temp file before the rename, so the
            content survives power loss, not just process crash.

    Returns the resolved destination path.  On any failure the
    destination is untouched and the temp file is removed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_name = path.parent / f"{path.name}.{secrets.token_hex(8)}.tmp"
    # Mode 0666 lets the umask apply, as it does to any new file.
    descriptor = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(descriptor, "w") as handle:
            if path.exists():
                os.chmod(tmp_name, path.stat().st_mode & 0o7777)
            handle.write(text)
            handle.flush()
            if durable:
                os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:  # pragma: no cover - already gone
            pass
        raise
    return path


def append_line(handle: IO[str], line: str) -> None:
    """Append ``line`` and its newline to an open log, durably: write,
    flush, fsync.  The line counts once this returns."""
    handle.write(line + "\n")
    handle.flush()
    os.fsync(handle.fileno())


def read_lines(path: Union[str, Path]) -> Tuple[List[str], str]:
    """A log's complete lines (newlines stripped) and its tail: the
    text after the last newline, ``""`` when the file ends in one."""
    text = Path(path).read_bytes().decode("utf-8", errors="replace")
    cut = text.rfind("\n") + 1
    return text[:cut].split("\n")[:-1], text[cut:]


def parse_jsonl(
    path: Union[str, Path],
    lines: List[str],
    what: str,
    error: Type[Exception],
    tail: str = "",
) -> List[Tuple[int, Any]]:
    """Each non-blank line's JSON value with its 1-based line number.

    A reader passes the log's ``tail`` (see :func:`read_lines`), which
    is parsed as one more line: a log may end without its newline.

    Raises:
        error: for a line that does not parse, naming ``path``, the
            ``what`` log, the line and the damage: a torn last line (the
            tail) or damage mid-stream (a complete line).
    """
    parsed = []
    for number, line in enumerate([*lines, tail], 1):
        if not line.strip():
            continue
        try:
            parsed.append((number, json.loads(line)))
        except json.JSONDecodeError as exc:
            damage = (
                "torn last line (the writer stopped mid-line)"
                if number > len(lines)
                else "the file is damaged mid-stream"
            )
            raise error(f"{path}: corrupt {what} line {number}; {damage}") from exc
    return parsed


def reopen_jsonl(
    path: Union[str, Path], what: str, error: Type[Exception]
) -> List[Tuple[int, Any]]:
    """Ready an existing log for appending: its parsed complete lines
    (see :func:`parse_jsonl`), after removing any torn tail from disk
    with a durable :func:`atomic_write_text` rewrite.

    Raises:
        error: for a damaged complete line; the file is left untouched.
    """
    lines, tail = read_lines(path)
    parsed = parse_jsonl(path, lines, what, error)
    if tail:
        log.warning(
            "log has a torn tail (crash mid-append); removing it",
            extra={"log": str(path), "kept_lines": len(lines),
                   "tail_chars": len(tail)},
        )
        atomic_write_text(path, "".join(line + "\n" for line in lines))
    return parsed
