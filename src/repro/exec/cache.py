"""Persistent on-disk outcome cache for the Section IV snippet harness.

The outcome of executing a corrupted snippet is a pure function of
``(mnemonic, zero_is_invalid, corrupted_word)``, so it can be memoised
across processes and across runs. The Figure 2 panels share corrupted
words heavily — AND and XOR produce overlapping word populations, and the
0x0000-invalid panel re-executes the same words under a different decode
mode — so a warm cache turns a repeat panel into pure array gathers.

Layout: one **dense binary shard** per ``(mnemonic, zero_is_invalid)``
pair under the cache root — a ``uint8`` array of 65,536 category codes
(one slot per possible 16-bit corrupted word, ``0`` = not cached,
``1 + CATEGORIES.index(category)`` otherwise), serialized as a ``.npy``
file. The dense shape makes every cache operation an array op: a batch
lookup is one fancy-indexed gather, a batch merge is one scatter, and the
whole shard is 64 KiB regardless of entry count. Only categories are
persisted (campaign tallies never consume the free-text outcome detail).
Shards are written atomically (temp file + rename), and each campaign
work unit owns exactly one shard, so parallel workers never contend on a
file.

The root defaults to ``$REPRO_CACHE_DIR``, else
``$XDG_CACHE_HOME/repro-glitching``, else ``~/.cache/repro-glitching``.
"""

from __future__ import annotations

import os
import tempfile
from collections.abc import Mapping as _MappingABC
from pathlib import Path
from typing import Iterator, Mapping, Optional, Union

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


class ShardView(_MappingABC):
    """Read-only ``word -> category`` mapping over a dense code array.

    The dict-shaped counterpart of :meth:`OutcomeCache.get_shard_codes`:
    iteration yields only the cached words (nonzero codes), lookups of
    uncached words raise ``KeyError`` (so ``.get`` returns ``None``), and
    the view rejects mutation like the ``MappingProxyType`` it replaced.
    """

    __slots__ = ("_codes",)

    def __init__(self, codes: np.ndarray):
        self._codes = codes

    def __getitem__(self, word) -> str:
        try:
            index = int(word)
        except (TypeError, ValueError):
            raise KeyError(word) from None
        if not 0 <= index < WORD_SPACE:
            raise KeyError(word)
        code = int(self._codes[index])
        if code == 0:
            raise KeyError(word)
        return CATEGORIES[code - 1]

    def __iter__(self) -> Iterator[int]:
        return iter(np.nonzero(self._codes)[0].tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._codes))


class OutcomeCache:
    """Disk-backed ``(mnemonic, zero_is_invalid, word) -> category`` store."""

    def __init__(self, root: Union[str, os.PathLike, None] = None):
        self.root = Path(root) if root is not None else default_cache_root()
        self.root.mkdir(parents=True, exist_ok=True)
        self._shards: dict[tuple[str, bool], np.ndarray] = {}
        self._dirty: set[tuple[str, bool]] = set()
        self.hits = 0
        self.misses = 0
        # Words resolved from a harness's in-memory memo before any disk
        # lookup happened. Invisible to hits/misses by design (no shard was
        # consulted), but campaign accounting still wants the denominator:
        # hits + misses + memo_hits == words requested.
        self.memo_hits = 0

    # ------------------------------------------------------------------

    def get(self, mnemonic: str, zero_is_invalid: bool, word: int) -> Optional[str]:
        code = int(self._shard(mnemonic, zero_is_invalid)[word & 0xFFFF])
        if code == 0:
            self.misses += 1
            return None
        self.hits += 1
        return CATEGORIES[code - 1]

    def put(self, mnemonic: str, zero_is_invalid: bool, word: int, category: str) -> None:
        code = CATEGORY_CODES.get(category)
        if code is None:
            raise ValueError(f"unknown outcome category {category!r}")
        self._shard(mnemonic, zero_is_invalid)[word & 0xFFFF] = code
        self._dirty.add((mnemonic, zero_is_invalid))

    def get_shard(
        self, mnemonic: str, zero_is_invalid: bool
    ) -> Mapping[int, str]:
        """Read-only view of the whole ``(mnemonic, zero_is_invalid)`` shard.

        Bulk counterpart to :meth:`get` for dict-shaped consumers; the
        mask-algebra hot path uses :meth:`get_shard_codes` instead. Does
        **not** touch the hit/miss counters — callers that consult the
        shard directly report their own totals via :meth:`account`.
        """
        return ShardView(self._shard(mnemonic, zero_is_invalid))

    def get_shard_codes(self, mnemonic: str, zero_is_invalid: bool) -> np.ndarray:
        """The shard's dense ``uint8`` code array, as a read-only view.

        Zero-copy: index it with a word array to resolve a whole batch in
        one gather (``0`` = not cached, else ``CODE_CATEGORIES[code]``).
        Like :meth:`get_shard`, it never touches the hit/miss counters —
        report bulk totals via :meth:`account`.
        """
        view = self._shard(mnemonic, zero_is_invalid).view()
        view.flags.writeable = False
        return view

    def put_shard(
        self, mnemonic: str, zero_is_invalid: bool, entries: Mapping[int, str]
    ) -> None:
        """Merge ``entries`` (word → category) into the shard in one pass."""
        if not entries:
            return
        n = len(entries)
        words = np.fromiter(entries.keys(), dtype=np.int64, count=n) & 0xFFFF
        try:
            codes = np.fromiter(
                (CATEGORY_CODES[category] for category in entries.values()),
                dtype=np.uint8,
                count=n,
            )
        except KeyError as exc:
            raise ValueError(f"unknown outcome category {exc.args[0]!r}") from None
        self._shard(mnemonic, zero_is_invalid)[words] = codes
        self._dirty.add((mnemonic, zero_is_invalid))

    def put_shard_codes(
        self,
        mnemonic: str,
        zero_is_invalid: bool,
        words: np.ndarray,
        codes: np.ndarray,
    ) -> None:
        """Merge parallel ``words``/``codes`` arrays in one scatter.

        The array counterpart of :meth:`put_shard`: ``codes`` must hold
        valid nonzero category codes (``CATEGORY_CODES`` values) — this is
        the trusted fast path for harness batches whose codes came out of
        the vector engine's classifier.
        """
        words = np.asarray(words, dtype=np.int64)
        if words.size == 0:
            return
        shard = self._shard(mnemonic, zero_is_invalid)
        shard[words & 0xFFFF] = np.asarray(codes, dtype=np.uint8)
        self._dirty.add((mnemonic, zero_is_invalid))

    def account(self, hits: int = 0, misses: int = 0, memo_hits: int = 0) -> None:
        """Record bulk totals for lookups done outside :meth:`get`.

        ``hits``/``misses`` cover shard lookups done via :meth:`get_shard`
        or :meth:`get_shard_codes`; ``memo_hits`` covers words a harness
        resolved from its in-memory memo without consulting the disk layer
        at all.
        """
        self.hits += hits
        self.misses += misses
        self.memo_hits += memo_hits

    def flush(self) -> None:
        """Write every dirty shard atomically (temp file + rename)."""
        for key in sorted(self._dirty):
            self._write_shard(key)
        self._dirty.clear()

    def _write_shard(self, key: tuple[str, bool]) -> None:
        path = self._shard_path(*key)
        fd, tmp = tempfile.mkstemp(
            dir=str(self.root), prefix=path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.save(handle, self._shards[key])
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

    def _shard_path(self, mnemonic: str, zero_is_invalid: bool) -> Path:
        suffix = "-0invalid" if zero_is_invalid else ""
        return self.root / f"{mnemonic}{suffix}.npy"

    def _shard(self, mnemonic: str, zero_is_invalid: bool) -> np.ndarray:
        key = (mnemonic, zero_is_invalid)
        shard = self._shards.get(key)
        if shard is None:
            shard = self._shards[key] = self._load_shard(*key)
        return shard

    def _load_shard(self, mnemonic: str, zero_is_invalid: bool) -> np.ndarray:
        path = self._shard_path(mnemonic, zero_is_invalid)
        if path.exists():
            try:
                stored = np.load(path, allow_pickle=False)
            except Exception:
                stored = None  # a torn/corrupt shard is a cache miss, not an error
            if (
                stored is not None
                and stored.shape == (WORD_SPACE,)
                and stored.dtype == np.uint8
                and int(stored.max(initial=0)) <= len(CATEGORIES)
            ):
                return np.ascontiguousarray(stored)
        return np.zeros(WORD_SPACE, dtype=np.uint8)


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
    "ShardView",
    "WORD_SPACE",
    "coerce_cache",
    "default_cache_root",
]
