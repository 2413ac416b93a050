"""Fair sets, maximal fair subsets, and their combinatorial enumeration.

Implements Definition 11 (fair set), Definition 12 / Algorithm 4
(``MFSCheck``) and Algorithm 7 (``Combination``). An optional ``theta``
turns each into its proportion variant (Definition 5, ``CombinationPro`` of
Sec. III-D).

Fairness depends only on a set's count vector, one count per attribute
value: :func:`fair_counts` decides it, and :func:`mfs_check` works on the
count vectors of a set and its candidate subset. :func:`is_fair_set` and
:func:`combination` take an attributed set: any iterable of vertex ids
together with a ``val`` mapping and an explicit attribute domain — the
fairness definitions quantify over the *full* domain, so an attribute value
with zero members makes the set unfair whenever the size threshold is >= 1.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Hashable, Iterable, Mapping, Sequence


def attr_counts(
    s: Iterable[int], val: Mapping[int, Hashable], domain: Sequence[Hashable]
) -> dict[Hashable, int]:
    """Per-attribute-value cardinalities ``|S_{a_i}|`` over the full domain."""
    c = Counter(val[x] for x in s)
    return {a: c.get(a, 0) for a in domain}


def fair_counts(c: Sequence[int], k: int, delta: int, theta: float | None = None) -> bool:
    """Definition 11 on a count vector ``c`` (one count per attribute value):
    every count >= k and pairwise diffs <= delta.

    With ``theta`` set, also Definition 5 condition (3): every ratio
    ``c_a / sum(c)`` is >= theta (proportion fairness).
    """
    lo = min(c)
    if lo < k or max(c) - lo > delta:
        return False
    if theta is None:
        return True
    total = sum(c)
    # An empty set (reachable only for k == 0) has no ratio to violate.
    return total == 0 or lo / total >= theta


def is_fair_set(
    s: Iterable[int],
    val: Mapping[int, Hashable],
    domain: Sequence[Hashable],
    k: int,
    delta: int,
    theta: float | None = None,
) -> bool:
    """Definition 11 (and, with ``theta``, Definition 5) on the set ``s``."""
    return fair_counts(list(attr_counts(s, val, domain).values()), k, delta, theta)


def _check_theta(theta: float | None, *domains: Sequence[Hashable]) -> None:
    """Raise ValueError for a theta the proportion models cannot answer.

    That is a theta outside (0, 0.5], or one set on an attribute domain of
    more than two values: the ratio cap of :func:`combination` holds only
    for two classes.
    """
    if theta is None:
        return
    if not 0 < theta <= 0.5:
        raise ValueError(f"theta must be in (0, 0.5], got {theta}")
    if any(len(d) > 2 for d in domains):
        raise ValueError("theta requires attribute domains of at most two values")


def mfs_check(
    counts: Mapping[Hashable, int],
    hat_counts: Mapping[Hashable, int],
    k: int,
    delta: int,
    theta: float | None = None,
) -> bool:
    """Algorithm 4: is ``s_hat`` a maximal fair subset of ``s``?

    Takes the count vectors of ``s`` and of ``s_hat ⊆ s``, as
    :func:`attr_counts` returns them: the answer depends on nothing else.
    With ``theta`` set, fairness means *proportion* fairness (used by the
    Pro variants, which must re-check the ratio constraint per the paper's
    Sec. IV-C note).

    Faithful to the pseudo-code: (1) fail if ``s_hat`` is not fair; (2) fail
    if every attribute still has spare vertices in ``s - s_hat`` (then one
    vertex per attribute can be added, which keeps all pairwise differences
    and, for theta <= 0.5, every ratio); (3) fail if any single spare vertex
    can be added while keeping fairness.
    """
    hat = list(hat_counts.values())
    if not fair_counts(hat, k, delta, theta):
        return False
    spare = [counts[a] > n for a, n in hat_counts.items()]
    if all(spare):
        return False
    return not any(
        fair_counts(hat[:i] + [hat[i] + 1] + hat[i + 1:], k, delta, theta)
        for i, has_spare in enumerate(spare) if has_spare
    )


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

    Each attribute class contributes exactly ``csize = min(|S_a|, msize +
    delta)`` vertices where ``msize`` is the smallest class size; the result
    is the cross-product of all csize-subsets per class. Returns [] if some
    class is below ``k``.

    With ``theta`` set this is CombinationPro (Sec. III-D), the maximal
    *proportion* fair subsets: ``csize`` is also capped at ``floor(msize *
    (1 - theta) / theta)``, derived from ``msize / (msize + csize) >= theta``.
    """
    _check_theta(theta, domain)
    by_attr: dict[Hashable, list[int]] = {a: [] for a in domain}
    for x in s:
        by_attr[val[x]].append(x)
    if any(len(by_attr[a]) < k for a in domain):
        return []
    msize = min(len(by_attr[a]) for a in domain)
    cap = msize + delta
    if theta is not None:
        cap = min(cap, math.floor(msize * (1.0 - theta) / theta + 1e-9))
    # Per class, its csize-subsets as index tuples; one frozenset per product.
    per_attr = [
        list(itertools.combinations(sorted(by_attr[a]), min(len(by_attr[a]), cap)))
        for a in domain
    ]
    return [
        frozenset(itertools.chain.from_iterable(combo))
        for combo in itertools.product(*per_attr)
    ]

