"""Campaign execution: parallel fan-out, caching, checkpoints, progress.

The Figure 2 emulation campaign executes 4 × 2^16 snippets and each
Table VI defense scan fires ~100k ``run_attempt`` calls; this package keeps
those loops out of single-core Python *and* makes them survivable:

- :class:`ExecOptions` carries a campaign's execution options (workers,
  progress, checkpoint/resume, retries, unit timeout) through every
  driver and runs its units;
- :class:`ParallelExecutor` fans picklable work specs out over
  ``multiprocessing`` and merges results deterministically (``workers=1``
  is a pure in-process path, so serial and parallel runs stay
  bit-identical). Failing units retry with exponential backoff, hung
  workers are bounded by ``unit_timeout``, and poisoned specs always
  quarantine into ``failed_units`` instead of killing the campaign;
- :class:`OutcomeCache` persists harness outcomes on disk, one shard per
  replay world's content digest stamped with the code's semantics
  fingerprint, so branches and panels that share a world — and re-runs
  of unchanged code — skip emulation entirely;
- :class:`CampaignCheckpoint` records completed work units as JSONL so an
  interrupted campaign resumes from where it stopped and merges to the
  same tallies an uninterrupted run produces (a checkpoint written by
  other code is never resumed);
- :class:`ProgressReporter` tracks attempts/sec, per-category tallies,
  elapsed time, and ETA, surfaced through a callback (the CLI's
  ``--progress`` flag).
"""

from repro.exec.cache import OutcomeCache, coerce_cache, default_cache_root
from repro.exec.checkpoint import (
    CampaignCheckpoint,
    CheckpointMismatch,
    campaign_id,
    default_checkpoint_root,
    open_campaign_checkpoint,
)
from repro.exec.executor import ExecOptions, FailedUnit, ParallelExecutor, resolve_workers
from repro.exec.progress import ProgressReporter, ProgressSnapshot, console_progress

__all__ = [
    "ExecOptions",
    "ParallelExecutor",
    "FailedUnit",
    "resolve_workers",
    "OutcomeCache",
    "coerce_cache",
    "default_cache_root",
    "CampaignCheckpoint",
    "CheckpointMismatch",
    "campaign_id",
    "default_checkpoint_root",
    "open_campaign_checkpoint",
    "ProgressReporter",
    "ProgressSnapshot",
    "console_progress",
]
