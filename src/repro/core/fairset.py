"""Fair sets and their maximal fair subsets, decided on count vectors.

Fairness (Definition 11; with ``theta``, Definition 5) depends only on a
set's count vector, one count per value of the full attribute domain — a
value with no members counts 0, so it makes the set unfair whenever
``k >= 1``. So everything here reads one list of count vectors,
:func:`maximal_fair_vectors`, the maximal fair vectors below a set's
counts: :func:`fair_counts`, :func:`mfs_check` (Algorithm 4) and
:func:`combination` (Algorithm 7; CombinationPro of Sec. III-D with
``theta``).
"""
from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, product
from typing import Hashable, Iterable, Mapping, Sequence


def fair_counts(c: Sequence[int], k: int, delta: int, theta: float | None = None) -> bool:
    """Definition 11 on a count vector ``c`` (one count per attribute value):
    every count >= k and pairwise diffs <= delta; with ``theta``, also
    Definition 5's ratios ``c_a / sum(c) >= theta``. ``c`` is fair iff it
    is its own maximal fair vector (:func:`maximal_fair_vectors`).
    """
    return tuple(c) in maximal_fair_vectors(tuple(c), k, delta, theta)


def _check_theta(theta: float | None, *domains: Sequence[Hashable]) -> None:
    """Raise ValueError unless theta is None or in (0, 1/|A|] for every
    attribute domain A it applies to.

    Above 1/|A| no nonempty set is proportion fair: its smallest class holds
    at most 1/|A| of it.
    """
    if theta is None:
        return
    bound = 1 / max(1, *map(len, domains))
    if not 0 < theta <= bound:
        raise ValueError(f"theta must be in (0, {bound:g}] on these attribute domains, got {theta}")


def _check_query(alpha: int, delta: int, theta: float | None, *domains: Sequence[Hashable]):
    """Raise ValueError unless alpha >= 1, delta >= 0 and ``theta`` fits ``domains``:
    outside these bounds the engines' answers differ from the definitions'."""
    if alpha < 1 or delta < 0:
        raise ValueError(f"the search requires alpha >= 1 and delta >= 0, got {alpha}, {delta}")
    _check_theta(theta, *domains)


def _spread(total: int, room: Sequence[int]) -> list[tuple[int, ...]]:
    """Every vector ``e`` with ``0 <= e_a <= room[a]`` and ``sum(e) == total``,
    for ``0 <= total <= sum(room)``."""
    if not room:
        return [()]
    rest = sum(room[1:])
    return [
        (x, *tail)
        for x in range(max(0, total - rest), min(room[0], total) + 1)
        for tail in _spread(total - x, room[1:])
    ]


@lru_cache(maxsize=1 << 14)
def maximal_fair_vectors(
    n: tuple[int, ...], k: int, delta: int, theta: float | None = None
) -> tuple[tuple[int, ...], ...]:
    """The maximal fair count vectors ``c <= n``.

    A subset of a set with counts ``n`` is a maximal fair subset iff its
    count vector is one of these. With ``m = min(n)`` every one has minimum
    ``m``: raising each smallest count of a fair vector by one keeps it fair
    while its minimum is below ``m``, since ``theta * |A| <= 1`` keeps the
    ratio. So they are the maximal vectors of the box ``c_a in [m,
    min(n_a, m + delta)]`` whose sum is at most the largest ``s`` with
    ``m / s >= theta``: the box's upper corner if it fits, else the box's
    vectors of sum exactly ``s``. Without ``theta`` that is the one corner.
    """
    _check_theta(theta, n)
    m = min(n)
    if m < k:
        return ()
    hi = [min(x, m + delta) for x in n]
    if theta is not None:
        cap = int(m / theta) + 1
        while cap and m / cap < theta:
            cap -= 1
        if cap < sum(hi):
            excess = _spread(cap - m * len(n), [h - m for h in hi])
            return tuple(tuple(m + e for e in es) for es in excess)
    return (tuple(hi),)


def mfs_check(
    counts: Sequence[int],
    hat_counts: Sequence[int],
    k: int,
    delta: int,
    theta: float | None = None,
) -> bool:
    """Algorithm 4: is ``s_hat`` a maximal fair subset of ``s``?

    Takes the count vectors of ``s`` and of ``s_hat ⊆ s`` as tuples, one
    count per attribute value: the answer depends on nothing else. It is
    "is ``s_hat``'s vector one of :func:`maximal_fair_vectors` of ``s``'s".
    With ``theta`` set, fairness means *proportion* fairness (the Pro
    variants re-check the ratio constraint, the paper's Sec. IV-C note).
    """
    return tuple(hat_counts) in maximal_fair_vectors(tuple(counts), k, delta, theta)


def combination(
    s: Iterable[int],
    val: Mapping[int, Hashable] | Sequence[Hashable],
    domain: Sequence[Hashable],
    k: int,
    delta: int,
    theta: float | None = None,
) -> list[frozenset[int]]:
    """Algorithm 7: all maximal fair subsets of ``s``.

    ``val[x]`` is the value of element ``x``: a mapping from vertex ids, or
    a sequence when the elements are bit-view positions, whose subsets then
    come back as frozensets of positions.

    The result is one cross product per vector ``c`` of
    :func:`maximal_fair_vectors` of the class sizes: every choice of ``c_a``
    members of each class ``a``. Without ``theta`` there is one such vector,
    ``min(|S_a|, msize + delta)`` per class for the smallest class size
    ``msize``; with ``theta`` (CombinationPro, Sec. III-D) there may be
    several. Returns [] if some class is below ``k``.
    """
    by_attr: dict[Hashable, list[int]] = {a: [] for a in domain}
    for x in s:
        by_attr[val[x]].append(x)
    classes = [sorted(by_attr[a]) for a in domain]
    return [
        frozenset(chain.from_iterable(combo))
        for c in maximal_fair_vectors(tuple(map(len, classes)), k, delta, theta)
        for combo in product(*map(combinations, classes, c))
    ]
