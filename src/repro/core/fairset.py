"""Fair sets, maximal fair subsets, and their combinatorial enumeration.

Implements Definition 11 (fair set), Definition 12 / Algorithm 4
(``MFSCheck``) and Algorithm 7 (``Combination``). An optional ``theta``
turns each into its proportion variant (Definition 5, ``CombinationPro`` of
Sec. III-D). A brute-force maximal-fair-subset enumerator is provided as a
test oracle.

Throughout, an "attributed set" is represented as any iterable of vertex
ids together with a ``val`` mapping and an explicit attribute domain — the
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


def is_fair_set(
    s: Iterable[int],
    val: Mapping[int, Hashable],
    domain: Sequence[Hashable],
    k: int,
    delta: int,
    theta: float | None = None,
) -> bool:
    """Definition 11: every attribute count >= k and pairwise diffs <= delta.

    With ``theta`` set, also Definition 5 condition (3): every attribute
    ratio ``|S_a| / |S|`` is >= theta (proportion fairness).
    """
    counts = list(attr_counts(s, val, domain).values())
    lo = min(counts)
    if lo < k or max(counts) - lo > delta:
        return False
    if theta is None:
        return True
    total = sum(counts)
    # An empty set (reachable only for k == 0) has no ratio to violate.
    return total == 0 or lo / total >= theta


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
    s: Iterable[int],
    s_hat: Iterable[int],
    val: Mapping[int, Hashable],
    domain: Sequence[Hashable],
    k: int,
    delta: int,
    theta: float | None = None,
) -> bool:
    """Algorithm 4: is ``s_hat`` a maximal fair subset of ``s``?

    With ``theta`` set, fairness means *proportion* fairness (used by the
    Pro variants, which must re-check the ratio constraint per the paper's
    Sec. IV-C note).

    Faithful to the pseudo-code: (1) fail if some attribute of ``s_hat`` is
    below ``k``; (2) fail if every attribute still has spare vertices in
    ``s - s_hat`` (then one vertex per attribute can be added, which keeps
    all pairwise differences and, for theta <= 0.5, every ratio); (3) fail
    if any single spare vertex can be added while keeping fairness.
    """
    s_hat = set(s_hat)
    if not is_fair_set(s_hat, val, domain, k, delta, theta):
        return False
    spare = [x for x in s if x not in s_hat]
    spare_by_attr: dict[Hashable, list[int]] = {a: [] for a in domain}
    for x in spare:
        spare_by_attr[val[x]].append(x)
    if all(spare_by_attr[a] for a in domain):
        return False
    for a in domain:
        # All spare vertices of one attribute are interchangeable here.
        if spare_by_attr[a] and is_fair_set(
            s_hat | {spare_by_attr[a][0]}, val, domain, k, delta, theta
        ):
            return False
    return True


def _subsets_of_size(items: Sequence[int], size: int) -> list[frozenset[int]]:
    return [frozenset(c) for c in itertools.combinations(sorted(items), size)]


def combination(
    s: Iterable[int],
    val: Mapping[int, Hashable],
    domain: Sequence[Hashable],
    k: int,
    delta: int,
    theta: float | None = None,
) -> list[frozenset[int]]:
    """Algorithm 7: all maximal fair subsets of ``s``.

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
    per_attr = [_subsets_of_size(by_attr[a], min(len(by_attr[a]), cap)) for a in domain]
    return [frozenset().union(*combo) for combo in itertools.product(*per_attr)]


def brute_maximal_fair_subsets(
    s: Iterable[int],
    val: Mapping[int, Hashable],
    domain: Sequence[Hashable],
    k: int,
    delta: int,
    theta: float | None = None,
) -> set[frozenset[int]]:
    """Definition-level oracle: all subsets that are fair with no fair proper superset."""
    items = sorted(s)
    fair_subsets = [
        frozenset(c)
        for r in range(len(items) + 1)
        for c in itertools.combinations(items, r)
        if is_fair_set(c, val, domain, k, delta, theta)
    ]
    return {
        a
        for a in fair_subsets
        if not any(a < b for b in fair_subsets)
    }
