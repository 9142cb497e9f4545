"""Persistent on-disk outcome cache for the corrupted-word harnesses.

A corrupted word's outcome is a pure function of the *replay world* (the
machine paused at the target slot, hashed by
:meth:`repro.glitchsim.harness.WordHarness.world_digest`) and of the code
that emulates and classifies it. So outcomes are memoised across
processes and runs under the world digest alone: branches whose worlds
coincide (Figure 2's 14 snippets have 5 distinct worlds) share one shard,
and the AND/OR/XOR panels share it too.

Layout: one **dense binary shard** per world digest under the cache root,
``<digest>.npz`` holding ``codes`` — a ``uint8`` array of 65,536
category codes (one slot per possible 16-bit corrupted word, ``0`` = not
cached, ``1 + CATEGORIES.index(category)`` otherwise) — and
``semantics``, the :func:`semantics_fingerprint` of the code that wrote
it. The dense shape makes every cache operation an array op: a batch
lookup is one fancy-indexed gather, a batch merge is one scatter. Only
categories are persisted (campaign tallies never consume the free-text
outcome detail). Shards are written atomically (temp file + rename), and
each campaign work unit owns exactly one world, so parallel workers never
contend on a file.

A shard written under another fingerprint is never served: loading it
counts one ``semantic_misses``, warns once per cache handle, and starts
the shard empty, so the next :meth:`OutcomeCache.flush` overwrites it.
A fix to the decoder, the emulator or a classifier therefore re-emulates
instead of serving stale outcomes.

The root defaults to ``$REPRO_CACHE_DIR``, else
``$XDG_CACHE_HOME/repro-glitching``, else ``~/.cache/repro-glitching``.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import warnings
from functools import lru_cache
from pathlib import Path
from typing import Mapping, Optional, Union

import numpy as np

#: size of the 16-bit corrupted-word space — one shard slot per word
WORD_SPACE = 1 << 16

#: every outcome category, in the canonical (paper Section IV) order;
#: must match ``repro.glitchsim.harness.OUTCOME_CATEGORIES`` — the shard
#: code for a category is ``1 + CATEGORIES.index(category)``, and the
#: binary shard format depends on this order staying fixed.
CATEGORIES = (
    "success",
    "bad_read",
    "invalid_instruction",
    "bad_fetch",
    "failed",
    "no_effect",
)

#: category name -> nonzero shard code
CATEGORY_CODES = {name: code for code, name in enumerate(CATEGORIES, start=1)}

#: shard code -> category name (index 0, "not cached", maps to ``None``)
CODE_CATEGORIES = (None,) + CATEGORIES


def default_cache_root() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-glitching"


def source_fingerprint(package_root: Union[str, os.PathLike]) -> str:
    """SHA-256 over every ``*.py`` file under ``package_root``.

    Each file contributes its relative path, its length and its bytes, in
    sorted path order, so editing, adding, renaming or deleting any source
    file changes the fingerprint.
    """
    root = Path(package_root)
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


@lru_cache(maxsize=None)
def semantics_fingerprint() -> str:
    """:func:`source_fingerprint` of the installed ``repro`` package.

    Computed once per process, and only when an :class:`OutcomeCache` or
    a campaign checkpoint is opened. It is deliberately coarse: any source
    change invalidates persisted outcomes and checkpoints, which is what
    keeps them from outliving the semantics that produced them.
    """
    import repro

    return source_fingerprint(Path(repro.__file__).parent)


class OutcomeCache:
    """Disk-backed ``(world digest, word) -> category`` store."""

    def __init__(self, root: Union[str, os.PathLike, None] = None):
        self.root = Path(root) if root is not None else default_cache_root()
        self.root.mkdir(parents=True, exist_ok=True)
        #: the fingerprint shards are written under and must match to be served
        self.fingerprint = semantics_fingerprint()
        self._shards: dict[str, np.ndarray] = {}
        self._dirty: set[str] = set()
        self.hits = 0
        self.misses = 0
        # Words resolved from a harness's in-memory memo before any disk
        # lookup happened. Invisible to hits/misses by design (no shard was
        # consulted), but campaign accounting still wants the denominator:
        # hits + misses + memo_hits == words requested.
        self.memo_hits = 0
        #: shards found on disk but written under another fingerprint
        self.semantic_misses = 0

    # ------------------------------------------------------------------

    def get(self, key: str, word: int) -> Optional[str]:
        code = int(self._shard(key)[word & 0xFFFF])
        if code == 0:
            self.misses += 1
            return None
        self.hits += 1
        return CATEGORIES[code - 1]

    def put(self, key: str, word: int, category: str) -> None:
        code = CATEGORY_CODES.get(category)
        if code is None:
            raise ValueError(f"unknown outcome category {category!r}")
        self._shard(key)[word & 0xFFFF] = code
        self._dirty.add(key)

    def get_shard_codes(self, key: str) -> np.ndarray:
        """The shard's dense ``uint8`` code array, as a read-only view.

        Zero-copy: index it with a word array to resolve a whole batch in
        one gather (``0`` = not cached, else ``CODE_CATEGORIES[code]``).
        It never touches the hit/miss counters — report bulk totals via
        :meth:`account`.
        """
        view = self._shard(key).view()
        view.flags.writeable = False
        return view

    def put_shard_codes(self, key: str, words: np.ndarray, codes: np.ndarray) -> None:
        """Merge parallel ``words``/``codes`` arrays in one scatter.

        ``codes`` must hold valid nonzero category codes
        (``CATEGORY_CODES`` values) — this is the trusted fast path for
        harness batches whose codes came out of a classifier. Words are
        masked to 16 bits, as in :meth:`put`.
        """
        words = np.asarray(words, dtype=np.int64)
        if words.size == 0:
            return
        self._shard(key)[words & 0xFFFF] = np.asarray(codes, dtype=np.uint8)
        self._dirty.add(key)

    def account(self, hits: int = 0, misses: int = 0, memo_hits: int = 0) -> None:
        """Record bulk totals for lookups done outside :meth:`get`.

        ``hits``/``misses`` cover shard lookups done via
        :meth:`get_shard_codes`; ``memo_hits`` covers words a harness
        resolved from its in-memory memo without consulting the disk layer
        at all.
        """
        self.hits += hits
        self.misses += misses
        self.memo_hits += memo_hits

    def counters(self) -> dict[str, int]:
        """This handle's traffic under its observer counter names."""
        return {
            "cache.hits": self.hits,
            "cache.misses": self.misses,
            "cache.memo_hits": self.memo_hits,
            "cache.semantic_misses": self.semantic_misses,
        }

    def flush(self) -> None:
        """Write every dirty shard atomically (temp file + rename)."""
        for key in sorted(self._dirty):
            self._write_shard(key)
        self._dirty.clear()

    def _write_shard(self, key: str) -> None:
        path = self._shard_path(key)
        fd, tmp = tempfile.mkstemp(
            dir=str(self.root), prefix=path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(
                    handle, codes=self._shards[key], semantics=np.array(self.fingerprint)
                )
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        """Entries across the shards loaded so far (not the whole disk store)."""
        return sum(int(np.count_nonzero(shard)) for shard in self._shards.values())

    def __enter__(self) -> "OutcomeCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.flush()

    # ------------------------------------------------------------------

    def _shard_path(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    def _shard(self, key: str) -> np.ndarray:
        shard = self._shards.get(key)
        if shard is None:
            shard = self._shards[key] = self._load_shard(key)
        return shard

    def _load_shard(self, key: str) -> np.ndarray:
        empty = np.zeros(WORD_SPACE, dtype=np.uint8)
        path = self._shard_path(key)
        if not path.exists():
            return empty
        try:
            with np.load(path, allow_pickle=False) as stored:
                codes = stored["codes"]
                semantics = str(stored["semantics"])
        except Exception:
            return empty  # a torn/corrupt shard is a cache miss, not an error
        if (
            codes.shape != (WORD_SPACE,)
            or codes.dtype != np.uint8
            or int(codes.max(initial=0)) > len(CATEGORIES)
        ):
            return empty
        if semantics != self.fingerprint:
            if not self.semantic_misses:
                warnings.warn(
                    f"outcome shard {path} was written by different code; "
                    "re-emulating its world and overwriting it",
                    RuntimeWarning,
                    stacklevel=2,
                )
            self.semantic_misses += 1
            self._dirty.add(key)
            return empty
        return np.ascontiguousarray(codes)


def count_cache_traffic(obs, cache: OutcomeCache, before: Mapping[str, int]) -> None:
    """Add ``cache``'s counter growth since ``before`` (an earlier
    :meth:`OutcomeCache.counters`) to the observer ``obs``."""
    for name, value in cache.counters().items():
        obs.count(name, value - before.get(name, 0))


def coerce_cache(
    cache: Union["OutcomeCache", str, os.PathLike, None]
) -> Optional[OutcomeCache]:
    """Accept an OutcomeCache, a directory path, or None."""
    if cache is None or isinstance(cache, OutcomeCache):
        return cache
    return OutcomeCache(cache)


__all__ = [
    "CATEGORIES",
    "CATEGORY_CODES",
    "CODE_CATEGORIES",
    "OutcomeCache",
    "WORD_SPACE",
    "coerce_cache",
    "count_cache_traffic",
    "default_cache_root",
    "semantics_fingerprint",
    "source_fingerprint",
]
