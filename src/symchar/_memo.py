"""The bounded memo behind each stage of the pipeline.

Each stage keeps one dict from its checked input to its result: root
systems by (series, rank) in ``rootsys``, weight tables by (root system,
highest weight) in ``weightsys``, pole data by table content in
``pfdcore``, on each ``ClosedCharacter`` its characters by degree,
filled by ``charformula.character_at``, and cyclotomic polynomials by
index in ``charformula``.  Results are shared between callers and never
copied.
"""

from __future__ import annotations

# The most entries any one memo holds.
MEMO_SIZE = 32


def recall(memo: dict, key, compute):
    """memo[key], stored from compute() on a miss; the oldest entry goes when memo is full.

    Keys that compare equal share one entry (1 == 1.0 == True), so every
    caller checks its arguments before it builds the key.
    """
    value = memo.get(key)
    if value is None:
        value = compute()
        if len(memo) >= MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[key] = value
    return value
