"""Mask-space algebra: closed-form tallying of bit-flip mask sweeps.

The Section IV campaign applies every :math:`\\binom{16}{k}` mask to a
target halfword under a flip model and tallies the outcome of executing
the corrupted word. The executed outcome is a pure function of the
*corrupted word*, so enumerating 2^16 masks per model is redundant work:
it suffices to classify each *unique reachable word* once and derive the
per-``k`` mask tallies arithmetically.

The algebra, per flip model (``width`` = 16, ``p`` = popcount(target)):

- **AND (1→0)** — ``word = target & ~mask``: only the mask bits that
  overlap the target's ``p`` set bits matter, so exactly the ``2^p``
  *submasks of target* are reachable. A word whose cleared-bit set has
  size ``j = p - popcount(word)`` is produced by every mask that contains
  those ``j`` bits plus any ``k - j`` of the ``16 - p`` zero bits:
  ``C(16 - p, k - j)`` masks of popcount ``k``.
- **OR (0→1)** — symmetric on the ``16 - p`` zero bits: the reachable
  words are ``target | s`` for submasks ``s`` of ``~target``, and a word
  with ``j = popcount(word) - p`` added bits is hit by ``C(p, k - j)``
  masks of popcount ``k``.
- **XOR (bidirectional)** — a bijection: every 16-bit word is reachable,
  each for exactly one flip count ``k = hamming_distance(word, target)``,
  with multiplicity 1.

Because the popcount-``k`` mask population partitions over the reachable
words, the tallies satisfy the Vandermonde identity
``sum_j C(p, j) * C(16 - p, k - j) == C(16, k)`` — which
:func:`tally_from_word_outcomes` uses as a completeness check: a word
table missing a reachable word raises instead of silently under-counting.

The word-outcome table is model-independent (it is keyed by the corrupted
word alone), so one table serves all three models for a given replay
world (``WordHarness.world_digest``) — XOR's full 2^16 word set subsumes
AND's submasks and OR's supersets, which is what lets the Figure 2
campaign share a single word sweep across its panels.
"""

from __future__ import annotations

from collections import Counter
from math import comb
from typing import Iterable, Mapping, Optional

import numpy as np

from repro.bits import FLIP_MODELS, hamming_distance, iter_masks, mask, popcount

MODELS = tuple(sorted(FLIP_MODELS))  # ("and", "or", "xor")


def _check_model(model: str) -> None:
    if model not in FLIP_MODELS:
        raise ValueError(
            f"unknown flip model {model!r}; expected one of {MODELS}"
        )


def _submasks(value: int) -> Iterable[int]:
    """Every submask of ``value`` (including 0 and ``value`` itself)."""
    sub = value
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & value


def _allowed_j(
    k_values: Iterable[int], fixed_bits: int, free_bits: int
) -> set[int]:
    """Cleared/added-bit counts ``j`` reachable by some requested ``k``.

    ``fixed_bits`` is the pool the ``j`` determined bits come from (the
    target's set bits under AND, its zero bits under OR); ``free_bits`` is
    the complementary pool a mask may touch without changing the word.
    """
    allowed: set[int] = set()
    for k in k_values:
        low = max(0, k - free_bits)
        high = min(fixed_bits, k)
        allowed.update(range(low, high + 1))
    return allowed


def reachable_words(
    word: int,
    model: str,
    width: int = 16,
    k_values: Optional[Iterable[int]] = None,
) -> list[int]:
    """All corrupted words reachable from ``word`` under ``model``, sorted.

    ``k_values`` restricts the sweep to the given flip counts: only words
    with a non-zero :func:`multiplicity` for at least one requested ``k``
    are returned (``None`` means the full ``0..width`` range). The result
    is sorted ascending — the order :meth:`SnippetHarness.run_many`
    prefers for snapshot locality.
    """
    _check_model(model)
    word &= mask(width)
    full = k_values is None
    ks = tuple(range(width + 1)) if full else tuple(k_values)
    p = popcount(word)
    if model == "and":
        allowed = _allowed_j(ks, p, width - p)
        return sorted(
            sub for sub in _submasks(word) if p - popcount(sub) in allowed
        )
    if model == "or":
        zeros = ~word & mask(width)
        allowed = _allowed_j(ks, width - p, p)
        return sorted(
            word | sub for sub in _submasks(zeros) if popcount(sub) in allowed
        )
    # xor: distance-k shells; the full range is simply every word
    if full or set(range(width + 1)).issubset(ks):
        return list(range(1 << width))
    words: list[int] = []
    for k in sorted({k for k in ks if 0 <= k <= width}):
        words.extend(word ^ m for m in iter_masks(width, k))
    return sorted(words)


def multiplicity(word: int, target: int, model: str, k: int, width: int = 16) -> int:
    """How many popcount-``k`` masks map ``target`` onto ``word``.

    Zero when ``word`` is unreachable under ``model`` or no mask of the
    given flip count produces it. Summed over :func:`reachable_words`,
    the multiplicities of any ``k`` total exactly ``C(width, k)`` — every
    mask lands on exactly one word.
    """
    _check_model(model)
    word &= mask(width)
    target &= mask(width)
    if k < 0 or k > width:
        return 0
    if model == "xor":
        return 1 if hamming_distance(word, target) == k else 0
    p = popcount(target)
    if model == "and":
        if word & ~target:  # sets a bit the target never had
            return 0
        j = p - popcount(word)
        free = width - p
    else:  # or
        if target & ~word:  # clears a bit the target had
            return 0
        j = popcount(word) - p
        free = p
    if j > k or k - j > free:
        return 0
    return comb(free, k - j)


def tally_from_word_codes(
    target: int,
    model: str,
    words: np.ndarray,
    codes: np.ndarray,
    categories: tuple,
    k_values: Optional[Iterable[int]] = None,
    width: int = 16,
) -> dict[int, Counter]:
    """Derive per-``k`` mask tallies from parallel word/category-code arrays.

    The fully vectorized core of :func:`tally_from_word_outcomes`, shaped
    for the harness's :meth:`WordHarness.run_many_codes` output: ``words``
    must be **unique** ``width``-bit words (duplicates would double-count
    masks) with a parallel array of small nonzero integer ``codes``
    indexing into ``categories`` (index 0 is reserved/unused — pass
    :data:`repro.exec.cache.CODE_CATEGORIES` for harness codes). Extra
    words beyond the model's reachable set are ignored, so one table
    serves AND, OR, and XOR alike.

    The whole reduction is two array passes: a ``bincount`` groups the
    valid words into a ``G[j, code]`` count matrix (``j`` = determined-bit
    count), and one integer matmul ``W @ G`` — ``W[i, j]`` the binomial
    weight ``C(free, k_i - j)`` (an identity row-selector under XOR) —
    yields every requested ``k``'s tally at once. The Vandermonde
    completeness identity ``sum_j C(p, j) C(width-p, k-j) == C(width, k)``
    is checked on the matmul row sums: a missing reachable word raises
    instead of silently under-counting.

    Returns ``{k: Counter(category -> mask count)}``, bit-identical to
    enumerating every mask and tallying outcomes one by one.
    """
    _check_model(model)
    target &= mask(width)
    ks = tuple(range(width + 1)) if k_values is None else tuple(k_values)
    p = popcount(target)
    free = {"and": width - p, "or": p, "xor": 0}[model]

    words = np.asarray(words, dtype=np.uint64)
    codes = np.asarray(codes, dtype=np.int64)
    ncat = len(categories)
    if words.size:
        if model == "and":
            valid = (words & np.uint64(~target & mask(width))) == 0
            j = p - np.bitwise_count(words).astype(np.int64)
        elif model == "or":
            valid = (np.uint64(target) & ~words) == 0
            j = np.bitwise_count(words).astype(np.int64) - p
        else:  # xor: j is the Hamming distance and the multiplicity is 1
            valid = np.ones(words.size, dtype=bool)
            j = np.bitwise_count(
                (words & np.uint64(mask(width))) ^ np.uint64(target)
            ).astype(np.int64)
        G = np.bincount(
            j[valid] * ncat + codes[valid], minlength=(width + 1) * ncat
        ).reshape(width + 1, ncat)
    else:
        G = np.zeros((width + 1, ncat), dtype=np.int64)

    # W[i, j] = number of popcount-k_i masks producing a word in group j
    W = np.zeros((len(ks), width + 1), dtype=np.int64)
    for i, k in enumerate(ks):
        if model == "xor":
            if 0 <= k <= width:
                W[i, k] = 1
        else:
            for j_value in range(max(0, k - free), min(width, k) + 1):
                W[i, j_value] = comb(free, k - j_value)
    M = W @ G

    totals = M.sum(axis=1)
    by_k: dict[int, Counter] = {}
    for i, k in enumerate(ks):
        expected = comb(width, k) if 0 <= k <= width else 0
        if int(totals[i]) != expected:
            raise ValueError(
                f"incomplete word-outcome table for {model!r} k={k}: "
                f"tallied {int(totals[i])} masks, expected {expected} "
                f"(a reachable word is missing from the table)"
            )
        counter = Counter()
        row = M[i]
        for code in np.nonzero(row)[0].tolist():
            counter[categories[code]] = int(row[code])
        by_k[k] = counter
    return by_k


def tally_from_word_outcomes(
    target: int,
    model: str,
    word_outcomes: Mapping[int, str],
    k_values: Optional[Iterable[int]] = None,
    width: int = 16,
) -> dict[int, Counter]:
    """Derive per-``k`` mask tallies from a word → category table.

    ``word_outcomes`` must cover every word :func:`reachable_words` lists
    for the requested ``k_values``; extra words (e.g. a full 2^16 table
    shared across models) are ignored, so one table serves AND, OR, and
    XOR alike. Returns ``{k: Counter(category -> mask count)}`` —
    bit-identical to enumerating every mask and tallying outcomes one by
    one. Raises ``ValueError`` when a reachable word is missing (a
    partial table would silently under-count otherwise).

    Dict-shaped wrapper: interns the categories into code arrays and
    delegates the reduction to :func:`tally_from_word_codes`.
    """
    n = len(word_outcomes)
    if n:
        words = np.fromiter(word_outcomes.keys(), dtype=np.uint64, count=n)
        code_of: dict[str, int] = {}
        codes = np.fromiter(
            (code_of.setdefault(c, len(code_of) + 1) for c in word_outcomes.values()),
            dtype=np.int64,
            count=n,
        )
        categories = (None, *code_of)
    else:
        words = np.zeros(0, dtype=np.uint64)
        codes = np.zeros(0, dtype=np.int64)
        categories = (None,)
    return tally_from_word_codes(
        target, model, words, codes, categories, k_values, width
    )


__all__ = [
    "MODELS",
    "reachable_words",
    "multiplicity",
    "tally_from_word_codes",
    "tally_from_word_outcomes",
]
