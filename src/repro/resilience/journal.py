"""The repetition journal: crash-safe checkpoints for long campaigns.

The paper's protocol repeats every configuration up to 100 times; a
journal makes that loop resumable.  One JSONL file per (configuration,
base_seed) records a header line plus one line per *completed*
repetition:

``{"kind": "meta", "format_version": 1, "fingerprint": "..."}``
``{"kind": "rep", "rep": 0, "payload": {...}}``

The file follows the crash rule of :mod:`repro.io.atomic`: a line
counts once its newline is on disk, so a crash can lose at most the
repetition in flight — never a recorded one, and never the file's
integrity.  A torn tail is removed on open; a damaged complete line
raises :class:`~repro.resilience.errors.ResultCorruption`.

Because repetition seeds are pure functions of ``(base_seed, rep)``
(:func:`repro.simulation.rng.child_seed`), replaying only the missing
repetitions reproduces the uninterrupted campaign bit-identically.

The fingerprint ties a journal to the exact configuration + metric set
that produced it; resuming with a different configuration raises
:class:`~repro.resilience.errors.ConfigError` instead of silently mixing
incompatible repetitions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.io.atomic import append_line, reopen_jsonl
from repro.obs.log import get_logger
from repro.resilience.errors import ConfigError, ResultCorruption

log = get_logger("resilience.journal")

FORMAT_VERSION = 1


def config_fingerprint(config: Any, **extra: Any) -> str:
    """A stable hash of a configuration (+ arbitrary context) for journals.

    Dataclasses are canonicalised via ``asdict``; anything non-JSON
    (e.g. a selector instance inside ``selector_kwargs``) falls back to
    ``repr``, which is stable for this library's value-like objects.
    """
    payload: Dict[str, Any] = {"extra": extra}
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        payload["config"] = dataclasses.asdict(config)
    else:
        payload["config"] = config
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


class RunJournal:
    """One campaign's checkpoint file (see module docstring for format).

    Args:
        path: the JSONL journal file; created (with parents) if absent.
        fingerprint: identity of the campaign, from
            :func:`config_fingerprint`.  A mismatch with an existing
            journal raises :class:`ConfigError`.

    Raises:
        ResultCorruption: if an existing journal is damaged beyond the
            recoverable torn-tail case.
    """

    def __init__(self, path: Union[str, Path], fingerprint: str):
        self.path = Path(path)
        self.fingerprint = fingerprint
        self._completed: Dict[int, Dict[str, Any]] = {}
        if self.path.exists():
            self._resume()
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a") as handle:
                append_line(handle, json.dumps(
                    {
                        "kind": "meta",
                        "format_version": FORMAT_VERSION,
                        "fingerprint": fingerprint,
                    },
                    sort_keys=True,
                ))

    # -- resume ----------------------------------------------------------

    def _resume(self) -> None:
        parsed = [
            entry
            for _, entry in reopen_jsonl(self.path, "journal", ResultCorruption)
        ]
        if not parsed:
            raise ResultCorruption(
                f"{self.path}: journal is empty; delete it and re-run"
            )
        meta = parsed[0]
        if meta.get("kind") != "meta" or meta.get("format_version") != FORMAT_VERSION:
            raise ResultCorruption(
                f"{self.path}: not a version-{FORMAT_VERSION} run journal "
                f"(header {meta!r}); delete it and re-run"
            )
        if meta.get("fingerprint") != self.fingerprint:
            raise ConfigError(
                f"{self.path}: journal was written for a different "
                f"configuration (fingerprint {meta.get('fingerprint')!r} != "
                f"{self.fingerprint!r}); point --resume at a fresh directory "
                f"or delete the stale journal"
            )
        for entry in parsed[1:]:
            if entry.get("kind") != "rep" or "rep" not in entry:
                raise ResultCorruption(
                    f"{self.path}: unexpected journal entry {entry!r}; "
                    f"delete the journal and re-run"
                )
            self._completed[int(entry["rep"])] = entry.get("payload", {})
        log.info(
            "journal loaded",
            extra={
                "journal": str(self.path),
                "completed": len(self._completed),
            },
        )

    # -- checkpointing ---------------------------------------------------

    def record(self, rep: int, payload: Dict[str, Any]) -> None:
        """Checkpoint one completed repetition (atomic append + fsync)."""
        if rep < 0:
            raise ValueError(f"rep must be non-negative, got {rep}")
        with self.path.open("a") as handle:
            append_line(handle, json.dumps(
                {"kind": "rep", "rep": rep, "payload": payload},
                sort_keys=True,
            ))
        self._completed[rep] = payload

    def get(self, rep: int) -> Optional[Dict[str, Any]]:
        """The journaled payload for repetition ``rep``, or None."""
        return self._completed.get(rep)

    @property
    def completed_reps(self) -> int:
        """How many repetitions the journal has checkpointed."""
        return len(self._completed)

    def first_missing(self, repetitions: int) -> int:
        """The first repetition in ``0..repetitions-1`` not yet journaled
        (== ``repetitions`` when the campaign is complete)."""
        for rep in range(repetitions):
            if rep not in self._completed:
                return rep
        return repetitions

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RunJournal(path={str(self.path)!r}, "
            f"completed={self.completed_reps})"
        )
