"""Mask-space algebra: closed-form tallying of bit-flip mask sweeps.

The Section IV campaign applies every :math:`\\binom{16}{k}` mask to a
target halfword under a flip model and tallies the outcome of executing
the corrupted word. The executed outcome is a pure function of the
*corrupted word*, so enumerating 2^16 masks per model is redundant work:
it suffices to classify each *unique reachable word* once and derive the
per-``k`` mask tallies arithmetically.

The algebra, per flip model (``width`` = 16, ``p`` = popcount(target)).
Under every model a corrupted word's group is ``j``, its Hamming distance
to the target (the bits the mask cleared, set or toggled):

- **AND (1→0)** — ``word = target & ~mask``: only the mask bits that
  overlap the target's ``p`` set bits matter, so exactly the ``2^p``
  *submasks of target* are reachable. A word ``j`` bits below the target
  is produced by every mask that contains those ``j`` bits plus any
  ``k - j`` of the ``16 - p`` zero bits: ``C(16 - p, k - j)`` masks of
  popcount ``k``.
- **OR (0→1)** — symmetric on the ``16 - p`` zero bits: the reachable
  words are the *supersets of target*, and a word ``j`` bits above it is
  hit by ``C(p, k - j)`` masks of popcount ``k``.
- **XOR (bidirectional)** — a bijection: every 16-bit word is reachable,
  each for exactly one flip count ``k = j``, with multiplicity 1.

A reachable set is therefore a boolean mask over the ``2^16`` words
(:func:`reachable_words` is its ``flatnonzero``). Because the
popcount-``k`` mask population partitions over the reachable words, the
tallies satisfy the Vandermonde identity
``sum_j C(p, j) * C(16 - p, k - j) == C(16, k)`` — which
:func:`tally_from_word_codes` uses as a completeness check, alongside a
check that no mask lands on an unclassified word: a code array missing a
reachable word raises instead of silently under-counting.

The word outcomes are model-independent (keyed by the corrupted word
alone), so one dense code array serves all three models for a given
replay world (``WordHarness.world_digest``, which covers the decode
mode) — XOR's full 2^16 word set subsumes AND's submasks and OR's
supersets. A branch campaign's work unit relies on this: it classifies
the union of its branches' reachable words under all its models in one
batch, then tallies every (branch, model) sweep from the harness's one
code array in one :func:`tally_from_word_codes` call, so Figure 2's AND,
OR and XOR panels share one word sweep per world.
"""

from __future__ import annotations

from collections import Counter
from math import comb
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.bits import FLIP_MODELS, hamming_distance, mask, popcount

MODELS = tuple(sorted(FLIP_MODELS))  # ("and", "or", "xor")

#: ``_PASCAL[n, r] == C(n, r)`` for word widths up to 32 (zero for ``r > n``)
_PASCAL = np.array(
    [[comb(n, r) for r in range(33)] for n in range(33)], dtype=np.int64
)


def _check_model(model: str) -> None:
    if model not in FLIP_MODELS:
        raise ValueError(
            f"unknown flip model {model!r}; expected one of {MODELS}"
        )


def _allowed_j(
    k_values: Iterable[int], fixed_bits: int, free_bits: int
) -> set[int]:
    """Hamming distances ``j`` reachable by some requested ``k``.

    ``fixed_bits`` is the pool the ``j`` determined bits come from (the
    target's set bits under AND, its zero bits under OR, every bit under
    XOR); ``free_bits`` is the complementary pool a mask may touch without
    changing the word.
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
) -> np.ndarray:
    """All corrupted words reachable from ``word`` under ``model``, sorted.

    ``k_values`` restricts the sweep to the given flip counts: only words
    with a non-zero :func:`multiplicity` for at least one requested ``k``
    are returned (``None`` means the full ``0..width`` range). The result
    is a sorted ascending int64 array — the order
    :meth:`SnippetHarness.run_many` prefers for snapshot locality — the
    ``flatnonzero`` of a boolean mask over all ``2^width`` words: a word's
    group is its Hamming distance ``j`` to ``word`` under every model,
    and AND keeps the submasks of ``word``, OR its supersets, XOR every
    word.
    """
    _check_model(model)
    word &= mask(width)
    ks = tuple(range(width + 1)) if k_values is None else tuple(k_values)
    fixed, free = _pools(word, model, width)
    keep = np.zeros(width + 1, dtype=bool)  # by j
    keep[list(_allowed_j(ks, fixed, free))] = True
    # the narrowest dtype that holds every word keeps the passes cheap
    every = np.arange(1 << width, dtype=np.min_scalar_type(mask(width)))
    reachable = _model_mask(every, word, model)
    if not keep[: fixed + 1].all():  # some distance a reachable word can have is out
        reachable &= keep[np.bitwise_count(every ^ word)]
    return np.flatnonzero(reachable)


def _pools(word: int, model: str, width: int) -> tuple[int, int]:
    """``(fixed, free)`` bit counts of ``word`` under ``model``: a reachable
    word differs from it in ``j`` of the ``fixed`` bits, and a mask may
    also touch any of the ``free`` bits without changing the word."""
    p = popcount(word)
    return {"and": (p, width - p), "or": (width - p, p), "xor": (width, 0)}[model]


def _model_mask(every: np.ndarray, word: int, model: str) -> np.ndarray:
    """Which words of ``every`` some flip of ``word`` under ``model``
    reaches: its submasks under AND, its supersets under OR, all under XOR."""
    if model == "and":
        return (every | word) == word
    if model == "or":
        return (every & word) == word
    return np.ones(every.size, dtype=bool)


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
    sweeps: Sequence[tuple[int, str]],
    codes: np.ndarray,
    categories: tuple,
    k_values: Optional[Iterable[int]] = None,
    width: int = 16,
) -> list[dict[int, Counter]]:
    """Derive per-``k`` mask tallies for many sweeps from one code array.

    ``sweeps`` lists ``(target, model)`` pairs; ``codes`` is the dense
    code array of one replay world (the harness memo): ``codes[word]``
    indexes into ``categories`` for every ``width``-bit word, with 0
    (reserved, pass :data:`repro.exec.cache.CODE_CATEGORIES` for harness
    codes) for a word not classified. Words outside a sweep's reachable
    set are ignored, so one array serves AND, OR and XOR alike.

    Every sweep groups its reachable words by ``j``, the Hamming distance
    to its target, into a ``G[j, code]`` count matrix: the AND and OR
    sweeps' reachable words through one shared ``bincount``, the XOR
    sweeps that share a low half through one ``bincount`` over all
    ``2^width`` words and a shifted row sum per sweep
    (:func:`_xor_distance_counts`). One batched integer matmul ``W @ G`` — ``W[i, j]``
    the binomial weight ``C(free, k_i - j)``, an identity row-selector
    under XOR — yields every sweep's every requested ``k`` at once. The
    Vandermonde identity ``sum_j C(p, j) C(width-p, k-j) == C(width, k)``
    is checked on the matmul row sums, and a mask landing on a word with
    code 0 raises: a missing reachable word never silently under-counts.

    Returns one ``{k: Counter(category -> mask count)}`` per sweep, in
    ``sweeps`` order, bit-identical to enumerating every mask and
    tallying outcomes one by one.
    """
    ks = tuple(range(width + 1)) if k_values is None else tuple(k_values)
    ncat = len(categories)
    cells = (width + 1) * ncat  # one sweep's G, flattened
    # the narrowest dtypes that hold a word and a code keep the passes cheap
    every = np.arange(1 << width, dtype=np.min_scalar_type(mask(width)))
    codes = np.asarray(codes).astype(np.min_scalar_type(ncat), copy=False)
    G = np.empty((len(sweeps), width + 1, ncat), dtype=np.int64)
    free = np.empty(len(sweeps), dtype=np.intp)
    slots, shared = [], []  # the AND/OR sweeps' (j, code) cells
    xor_sweeps: dict[int, list[int]] = {}  # low half -> the XOR sweeps sharing it
    for s, (target, model) in enumerate(sweeps):
        _check_model(model)
        target &= mask(width)
        free[s] = _pools(target, model, width)[1]
        if model == "xor":  # every word counts once
            xor_sweeps.setdefault(target & mask(width // 2), []).append(s)
        else:
            words = np.flatnonzero(_model_mask(every, target, model))
            j = np.bitwise_count(words ^ target).astype(np.intp)
            shared.append(len(slots) * cells + j * ncat + codes[words])
            slots.append(s)
    if slots:
        G[slots] = np.bincount(
            np.concatenate(shared), minlength=len(slots) * cells
        ).reshape(len(slots), width + 1, ncat)
    for members in xor_sweeps.values():
        targets = np.array([sweeps[s][0] & mask(width) for s in members])
        G[members] = _xor_distance_counts(targets, every, codes, ncat, width)

    # W[s, i, j] = C(free_s, k_i - j), the popcount-k_i masks producing a
    # word in group j (zero outside 0 <= k_i - j <= free_s)
    spare = np.asarray(ks, dtype=np.intp)[:, None] - np.arange(width + 1)
    W = np.where(
        (spare >= 0) & (spare <= free[:, None, None]),
        _PASCAL[free[:, None, None], np.clip(spare, 0, width)],
        0,
    )
    M = W @ G

    expected = np.array([comb(width, k) if 0 <= k <= width else 0 for k in ks])
    bad = (M.sum(axis=2) != expected) | (M[:, :, 0] != 0)
    if bad.any():
        s, i = np.argwhere(bad)[0]
        raise ValueError(
            f"incomplete word-outcome table for {sweeps[s][1]!r} k={ks[i]}: "
            f"tallied {int(M[s, i, 1:].sum())} masks, expected {expected[i]} "
            f"(a reachable word is missing from the table)"
        )
    tallies = [{k: Counter() for k in ks} for _ in sweeps]
    hit = np.nonzero(M)
    for s, i, code, count in zip(*(axis.tolist() for axis in hit), M[hit].tolist()):
        tallies[s][ks[i]][categories[code]] = count
    return tallies


def _xor_distance_counts(
    targets: np.ndarray, every: np.ndarray, codes: np.ndarray, ncat: int, width: int
) -> np.ndarray:
    """``G[s, j, code]`` of the XOR sweeps of ``targets``, which share their
    low half: how many of the ``every`` words ``j`` bits from ``targets[s]``
    have that code.

    A word's distance to a target is its high half's distance to the
    target's high half plus its low half's distance to the shared low
    half.  One pass over every word counts it into ``H[high half,
    low-half distance, code]``; a target then sums ``H``'s rows by
    high-half distance (as ``h`` runs over the high halves by weight,
    ``h ^ target_high`` runs over them by distance to the target) and
    shifts each sum by its distance.
    """
    low_bits = width // 2
    high_bits = width - low_bits
    row = (low_bits + 1) * ncat  # one high half's (low-half distance, code) cells
    cell_type = np.min_scalar_type((row << high_bits) - 1)
    low_distance = np.bitwise_count((every & mask(low_bits)) ^ (int(targets[0]) & mask(low_bits)))
    cell = (
        (every >> low_bits).astype(cell_type) * row
        + low_distance.astype(cell_type) * ncat
        + codes
    )
    H = np.bincount(cell, minlength=row << high_bits).reshape(1 << high_bits, row)
    weight = np.bitwise_count(np.arange(1 << high_bits))
    by_weight = np.argsort(weight, kind="stable")
    # every weight 0..high_bits occurs, so no reduceat group is empty
    starts = np.searchsorted(weight[by_weight], np.arange(high_bits + 1))
    G = np.zeros((targets.size, width + 1, ncat), dtype=np.int64)
    for s, target in enumerate(targets.tolist()):
        by_distance = np.add.reduceat(H[by_weight ^ (target >> low_bits)], starts)
        for high_distance, counts in enumerate(by_distance):
            G[s, high_distance:high_distance + low_bits + 1] += counts.reshape(-1, ncat)
    return G


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

    Dict-shaped wrapper: interns the categories into a dense code array
    and delegates the reduction to :func:`tally_from_word_codes`.
    """
    n = len(word_outcomes)
    code_of: dict[str, int] = {}
    codes = np.zeros(1 << width, dtype=np.int64)
    words = np.fromiter(word_outcomes.keys(), dtype=np.uint64, count=n)
    codes[words & mask(width)] = np.fromiter(
        (code_of.setdefault(c, len(code_of) + 1) for c in word_outcomes.values()),
        dtype=np.int64,
        count=n,
    )
    (by_k,) = tally_from_word_codes(
        [(target, model)], codes, (None, *code_of), k_values, width
    )
    return by_k


__all__ = [
    "MODELS",
    "reachable_words",
    "multiplicity",
    "tally_from_word_codes",
    "tally_from_word_outcomes",
]
