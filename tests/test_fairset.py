"""Fair sets, MFSCheck, Combination (with and without theta) — vs definition-level oracles."""
import itertools

import pytest

from repro.core.fairset import attr_counts, combination, is_fair_set, mfs_check
from tests.oracles import brute_maximal_fair_subsets


def _mk(counts):
    """Build (items, val) with counts[a] items of attribute a."""
    val, items, nxt = {}, [], 0
    for a, c in counts.items():
        for _ in range(c):
            val[nxt] = a
            items.append(nxt)
            nxt += 1
    return items, val


DOMAIN = (0, 1)


@pytest.mark.parametrize(
    "counts,k,delta,expected",
    [
        ({0: 2, 1: 2}, 2, 0, True),
        ({0: 2, 1: 2}, 3, 0, False),
        ({0: 3, 1: 2}, 2, 0, False),
        ({0: 3, 1: 2}, 2, 1, True),
        ({0: 5, 1: 2}, 2, 2, False),
        ({0: 5, 1: 3}, 2, 2, True),
        ({0: 2, 1: 0}, 1, 5, False),  # absent attribute value fails k>=1
        ({0: 0, 1: 0}, 0, 0, True),
        ({0: 1, 1: 1}, 1, 0, True),
        ({0: 4, 1: 1}, 1, 2, False),
    ],
)
def test_is_fair_set(counts, k, delta, expected):
    items, val = _mk(counts)
    assert is_fair_set(items, val, DOMAIN, k, delta) is expected


@pytest.mark.parametrize(
    "counts,k,delta,theta,expected",
    [
        ({0: 2, 1: 2}, 2, 0, 0.5, True),
        ({0: 3, 1: 2}, 2, 1, 0.5, False),  # 2/5 < 0.5
        ({0: 3, 1: 2}, 2, 1, 0.4, True),
        ({0: 4, 1: 2}, 2, 2, 0.34, False),  # 2/6 = 1/3 < 0.34
        ({0: 4, 1: 2}, 2, 2, 0.33, True),
    ],
)
def test_is_proportion_fair_set(counts, k, delta, theta, expected):
    items, val = _mk(counts)
    assert is_fair_set(items, val, DOMAIN, k, delta, theta) is expected


def test_attr_counts_includes_zero_classes():
    items, val = _mk({0: 3})
    assert attr_counts(items, val, (0, 1, 2)) == {0: 3, 1: 0, 2: 0}


@pytest.mark.parametrize("c0", range(0, 5))
@pytest.mark.parametrize("c1", range(0, 5))
@pytest.mark.parametrize("k,delta", [(1, 0), (1, 1), (2, 1), (2, 2)])
def test_mfs_check_matches_bruteforce(c0, c1, k, delta):
    """mfs_check(S, S_hat) == (S_hat in the brute-force maximal fair subsets)."""
    items, val = _mk({0: c0, 1: c1})
    truth = brute_maximal_fair_subsets(items, val, DOMAIN, k, delta)
    # Exhaustively test every subset as S_hat.
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            s_hat = frozenset(combo)
            assert mfs_check(items, s_hat, val, DOMAIN, k, delta) == (
                s_hat in truth
            ), f"S_hat={sorted(s_hat)} counts=({c0},{c1}) k={k} d={delta}"


@pytest.mark.parametrize("c0", range(0, 6))
@pytest.mark.parametrize("c1", range(0, 6))
@pytest.mark.parametrize("k,delta", [(1, 0), (1, 1), (1, 2), (2, 0), (2, 2), (3, 1)])
def test_combination_matches_bruteforce(c0, c1, k, delta):
    """Algorithm 7 returns exactly the maximal fair subsets."""
    items, val = _mk({0: c0, 1: c1})
    truth = brute_maximal_fair_subsets(items, val, DOMAIN, k, delta)
    got = set(combination(items, val, DOMAIN, k, delta))
    if any(c < k for c in (c0, c1)):
        assert got == set()
    else:
        assert got == truth


@pytest.mark.parametrize("c0,c1", [(2, 2), (3, 2), (4, 2), (5, 3), (4, 4), (6, 2)])
@pytest.mark.parametrize("k,delta,theta", [
    (1, 1, 0.4), (1, 2, 0.3), (2, 2, 0.4), (2, 1, 0.5), (1, 3, 0.25), (2, 4, 0.45),
])
def test_combination_pro_matches_bruteforce(c0, c1, k, delta, theta):
    """CombinationPro returns exactly the maximal *proportion* fair subsets."""
    items, val = _mk({0: c0, 1: c1})
    truth = brute_maximal_fair_subsets(items, val, DOMAIN, k, delta, theta)
    got = set(combination(items, val, DOMAIN, k, delta, theta))
    assert got == truth


@pytest.mark.parametrize("counts", [{0: 4, 1: 3, 2: 2}, {0: 3, 1: 3, 2: 3}, {0: 5, 1: 2, 2: 2}])
@pytest.mark.parametrize("k,delta", [(1, 1), (2, 1), (2, 2)])
def test_combination_three_attributes(counts, k, delta):
    """The machinery is not 2-attribute-specific."""
    items, val = _mk(counts)
    dom = (0, 1, 2)
    truth = brute_maximal_fair_subsets(items, val, dom, k, delta)
    got = set(combination(items, val, dom, k, delta))
    if any(c < k for c in counts.values()):
        assert got == set()
    else:
        assert got == truth


def test_combination_pro_rejects_bad_theta():
    items, val = _mk({0: 2, 1: 2})
    with pytest.raises(ValueError):
        combination(items, val, DOMAIN, 1, 1, 0.7)
    with pytest.raises(ValueError):
        combination(items, val, DOMAIN, 1, 1, 0.0)
    # The theta cap holds only for two classes: on sizes (1, 1, 2) it would
    # give the full set, whose ratio 1/4 is below theta = 0.3.
    items, val = _mk({0: 1, 1: 1, 2: 2})
    with pytest.raises(ValueError):
        combination(items, val, (0, 1, 2), 1, 1, 0.3)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_combination_empty_when_class_too_small(k):
    items, val = _mk({0: k - 1, 1: k + 2})
    assert combination(items, val, DOMAIN, k, 2) == []


def test_mfs_check_proportion_mode():
    # counts (2,2) with theta=0.5: adding one of class 0 breaks the ratio,
    # so (2,2) is maximal even though class 0 has spares and delta allows it.
    items, val = _mk({0: 3, 1: 2})
    s_hat = frozenset(i for i in items if val[i] == 0)  # wrong: unfair
    assert not mfs_check(items, s_hat, val, DOMAIN, 1, 5, 0.5)
    balanced = frozenset(list(range(2)) + [3, 4])  # 2 of each
    assert mfs_check(items, balanced, val, DOMAIN, 1, 5, 0.5)
    # Without theta, delta=5 lets the spare class-0 vertex in: not maximal.
    assert not mfs_check(items, balanced, val, DOMAIN, 1, 5)
