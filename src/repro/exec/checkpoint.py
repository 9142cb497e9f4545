"""Durable work-unit checkpoints for interruptible campaigns.

A :class:`CampaignCheckpoint` is an append-only JSONL file recording one
line per *completed* work unit, keyed by a caller-chosen stable string
(the branch mnemonic, the scan cycle, the attempt index, ...). The first
line stores the campaign's parameter fingerprint (``meta``); resuming
against a file whose meta differs raises :class:`CheckpointMismatch`
rather than silently merging incompatible tallies.

The format is deliberately crash-tolerant: records are appended and
flushed as units complete, so a SIGINT/OOM-killed campaign keeps every
unit that finished, and a torn final line (the process died mid-write)
is skipped on load instead of poisoning the resume. Because work units
are deterministic, a resumed campaign that replays recorded results and
executes only the missing units merges to tallies bit-identical to an
uninterrupted run.

Checkpoints live under ``<cache root>/checkpoints`` by default (the same
root the :class:`~repro.exec.cache.OutcomeCache` uses); campaign drivers
derive the file name from a digest of the campaign parameters, so two
differently-parameterised runs never collide. :func:`open_campaign_checkpoint`
folds the :func:`~repro.exec.cache.semantics_fingerprint` into every
campaign's meta, so a resume after a code change starts a fresh file
instead of merging tallies the old code produced.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from repro.exec.cache import default_cache_root, semantics_fingerprint

#: sentinel distinguishing "no record" from a recorded falsy payload
MISSING = object()


class CheckpointMismatch(ValueError):
    """A resume pointed at a checkpoint written by a different campaign."""


def default_checkpoint_root() -> Path:
    """``<cache root>/checkpoints`` — sibling of the outcome-cache shards."""
    return default_cache_root() / "checkpoints"


def campaign_id(prefix: str, meta: Mapping[str, Any]) -> str:
    """A stable file stem: ``<prefix>-<sha1(meta)[:10]>``.

    The digest covers every campaign parameter, so changing the model,
    guard, stride, k-values, or fault-model seed lands in a fresh file.
    """
    canonical = json.dumps(meta, sort_keys=True, default=str)
    digest = hashlib.sha1(canonical.encode()).hexdigest()[:10]
    return f"{prefix}-{digest}"


class CampaignCheckpoint:
    """Append-only ``key -> result payload`` store, one JSON line per unit."""

    def __init__(
        self,
        path: Union[str, os.PathLike],
        meta: Optional[Mapping[str, Any]] = None,
        resume: bool = False,
        flush_every: int = 1,
    ):
        self.path = Path(path)
        # round-trip through JSON so tuples/ints compare equal to what load() sees
        self.meta: dict = json.loads(json.dumps(dict(meta or {}), default=str))
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.flush_every = flush_every
        self.results: dict[str, Any] = {}
        self._unflushed = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if resume and self.path.exists():
            self._load()
            self._handle = self.path.open("a")
        else:
            self._handle = self.path.open("w")
            self._handle.write(json.dumps({"meta": self.meta}) + "\n")
            self._handle.flush()

    # ------------------------------------------------------------------

    def _load(self) -> None:
        lines = self.path.read_text().splitlines()
        if lines:
            try:
                header = json.loads(lines[0])
            except ValueError:
                raise CheckpointMismatch(
                    f"{self.path} is not a campaign checkpoint (unreadable header)"
                )
            stored = header.get("meta")
            if stored != self.meta:
                raise CheckpointMismatch(
                    f"{self.path} was written by a different campaign: "
                    f"stored meta {stored!r} != expected {self.meta!r}"
                )
        for line in lines[1:]:
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # torn final line from a crash mid-write
            if isinstance(entry, dict) and "key" in entry:
                self.results[entry["key"]] = entry.get("result")

    # ------------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self.results

    def __len__(self) -> int:
        return len(self.results)

    def get(self, key: str, default: Any = MISSING) -> Any:
        return self.results.get(key, default)

    def record(self, key: str, payload: Any) -> None:
        """Persist one completed unit (appended, flushed per ``flush_every``)."""
        self.results[key] = payload
        self._handle.write(json.dumps({"key": key, "result": payload}) + "\n")
        self._unflushed += 1
        if self._unflushed >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
        self._unflushed = 0

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __enter__(self) -> "CampaignCheckpoint":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_campaign_checkpoint(
    checkpoint_dir: Union[str, os.PathLike, None],
    prefix: str,
    meta: Mapping[str, Any],
    resume: bool = False,
    flush_every: int = 1,
) -> CampaignCheckpoint:
    """Open (or resume) the checkpoint for one parameterised campaign.

    ``checkpoint_dir=None`` uses :func:`default_checkpoint_root`. The
    stored meta is ``meta`` plus ``"semantics"``, the
    :func:`~repro.exec.cache.semantics_fingerprint`; the file name embeds
    a digest of it, so a parameter or code change starts fresh instead of
    tripping :class:`CheckpointMismatch`.
    """
    meta = {**meta, "semantics": semantics_fingerprint()}
    root = Path(checkpoint_dir) if checkpoint_dir is not None else default_checkpoint_root()
    path = root / f"{campaign_id(prefix, meta)}.jsonl"
    return CampaignCheckpoint(path, meta=meta, resume=resume, flush_every=flush_every)


__all__ = [
    "MISSING",
    "CampaignCheckpoint",
    "CheckpointMismatch",
    "campaign_id",
    "default_checkpoint_root",
    "open_campaign_checkpoint",
]
