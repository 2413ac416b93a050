"""Fair sets, MFSCheck, Combination (with and without theta) — vs definition-level oracles."""
import itertools

import pytest

from repro.core import fairset
from repro.core.fairset import combination, fair_counts, maximal_fair_vectors, mfs_check
from tests.oracles import attr_counts, brute_maximal_fair_subsets, is_fair_set


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
    """The count-vector predicate and the oracle's set predicate agree with the table."""
    items, val = _mk(counts)
    assert fair_counts(tuple(counts.values()), k, delta) is expected
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
    assert fair_counts(tuple(counts.values()), k, delta, theta) is expected
    assert is_fair_set(items, val, DOMAIN, k, delta, theta) is expected


def test_attr_counts_includes_zero_classes():
    items, val = _mk({0: 3})
    assert attr_counts(items, val, (0, 1, 2)) == (3, 0, 0)


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
            assert mfs_check(
                attr_counts(items, val, DOMAIN), attr_counts(s_hat, val, DOMAIN), k, delta
            ) == (
                s_hat in truth
            ), f"S_hat={sorted(s_hat)} counts=({c0},{c1}) k={k} d={delta}"


@pytest.mark.parametrize("sizes", list(itertools.product(range(4), repeat=3)))
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("delta", [0, 1, 2])
def test_mfs_check_three_classes_matches_bruteforce(sizes, k, delta):
    """The count-vector MFSCheck on a 3-valued domain, every subset as S_hat."""
    dom = (0, 1, 2)
    items, val = _mk(dict(zip(dom, sizes)))
    truth = brute_maximal_fair_subsets(items, val, dom, k, delta)
    s_counts = attr_counts(items, val, dom)
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            got = mfs_check(s_counts, attr_counts(combo, val, dom), k, delta)
            assert got == (frozenset(combo) in truth), f"S_hat={combo} sizes={sizes}"


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
    # On three classes the bound is 1/3: on sizes (1, 1, 2) theta = 0.3
    # drops the full set, whose ratio 1/4 is below it; 0.34 raises.
    items, val = _mk({0: 1, 1: 1, 2: 2})
    dom = (0, 1, 2)
    got = set(combination(items, val, dom, 1, 1, 0.3))
    assert got == brute_maximal_fair_subsets(items, val, dom, 1, 1, 0.3)
    assert got and all(len(x) == 3 for x in got)
    assert combination(items, val, dom, 1, 1, 1 / 3)
    with pytest.raises(ValueError):
        combination(items, val, dom, 1, 1, 0.34)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_combination_empty_when_class_too_small(k):
    items, val = _mk({0: k - 1, 1: k + 2})
    assert combination(items, val, DOMAIN, k, 2) == []


def test_mfs_check_proportion_mode():
    # counts (2,2) with theta=0.5: adding one of class 0 breaks the ratio,
    # so (2,2) is maximal even though class 0 has spares and delta allows it.
    items, val = _mk({0: 3, 1: 2})
    s_hat = frozenset(i for i in items if val[i] == 0)  # wrong: unfair
    s_counts = attr_counts(items, val, DOMAIN)
    assert not mfs_check(s_counts, attr_counts(s_hat, val, DOMAIN), 1, 5, 0.5)
    balanced = frozenset(list(range(2)) + [3, 4])  # 2 of each
    assert mfs_check(s_counts, attr_counts(balanced, val, DOMAIN), 1, 5, 0.5)
    # Without theta, delta=5 lets the spare class-0 vertex in: not maximal.
    assert not mfs_check(s_counts, attr_counts(balanced, val, DOMAIN), 1, 5)


THETAS = [0.15, 0.2, 0.25, 0.28, 1 / 3, 0.4, 0.5]


@pytest.mark.parametrize(
    "n_classes,theta", [(n, t) for n in (2, 3) for t in THETAS if t * n <= 1]
)
def test_mfs_check_theta_matches_bruteforce(n_classes, theta):
    """Every subset of every set with 0-5 (two classes) or 0-3 (three
    classes) members per class as S_hat, k in {1, 2}, delta in {0, 1, 2}:
    0 wrong against the brute force (theta <= 1/|A| only)."""
    dom = tuple(range(n_classes))
    wrong, checks = [], 0
    for sizes in itertools.product(range(6 if n_classes == 2 else 4), repeat=n_classes):
        items, val = _mk(dict(zip(dom, sizes)))
        s_counts = attr_counts(items, val, dom)
        for k, delta in itertools.product((1, 2), (0, 1, 2)):
            truth = brute_maximal_fair_subsets(items, val, dom, k, delta, theta)
            for r in range(len(items) + 1):
                for combo in itertools.combinations(items, r):
                    checks += 1
                    got = mfs_check(s_counts, attr_counts(combo, val, dom), k, delta, theta)
                    if got != (frozenset(combo) in truth):
                        wrong.append((sizes, k, delta, combo))
    assert checks >= 20_000
    assert wrong == []


@pytest.mark.parametrize("theta", [0.15, 0.2, 0.25, 0.28, 1 / 3])
def test_combination_pro_three_classes_matches_bruteforce(theta):
    """CombinationPro on a 3-valued domain: class sizes 0-3, k in {1, 2},
    delta in {0, 1, 2}."""
    dom = (0, 1, 2)
    for sizes in itertools.product(range(4), repeat=3):
        items, val = _mk(dict(zip(dom, sizes)))
        for k, delta in itertools.product((1, 2), (0, 1, 2)):
            truth = brute_maximal_fair_subsets(items, val, dom, k, delta, theta)
            got = combination(items, val, dom, k, delta, theta)
            assert len(got) == len(set(got))
            assert set(got) == truth, f"sizes={sizes} k={k} delta={delta}"


def test_mfs_check_superset_needs_two_vertices():
    """(2, 2, 2) is proportion fair at theta = 0.25, and reaching it from
    (2, 1, 1) takes two vertices at once."""
    assert fair_counts((2, 2, 2), 1, 1, 0.25)
    assert not mfs_check((2, 2, 2), (2, 1, 1), 1, 1, 0.25)
    assert mfs_check((2, 2, 2), (2, 2, 2), 1, 1, 0.25)


def test_combination_pro_two_maximal_vectors():
    """Class sizes (2, 3, 3), k=1, delta=1, theta=0.28: the answer is a union
    of two cross products, vectors (2, 3, 2) and (2, 2, 3)."""
    items, val = _mk({0: 2, 1: 3, 2: 3})
    dom = (0, 1, 2)
    got = combination(items, val, dom, 1, 1, 0.28)
    assert len(got) == len(set(got)) == 6
    assert {attr_counts(x, val, dom) for x in got} == {(2, 3, 2), (2, 2, 3)}
    assert set(got) == brute_maximal_fair_subsets(items, val, dom, 1, 1, 0.28)


@pytest.mark.parametrize("theta", [None, 0.3, 1 / 3])
def test_maximal_fair_vectors_large_delta(theta):
    """A delta far above the class sizes answers without walking the box."""
    assert maximal_fair_vectors((400, 400, 400), 1, 1000, theta) == ((400, 400, 400),)
    # The box below has 10**12 vectors; only its sum slice is listed.
    n = (1, 10**6, 10**6)
    got = maximal_fair_vectors(n, 1, 10**6, None if theta is None else theta / 300)
    if theta is None:
        assert got == (n,)
    else:
        cap = max(s for s in range(1, 2000) if 1 / s >= theta / 300)
        assert len(got) == cap - 2 and all(sum(c) == cap and c[0] == 1 for c in got)


def test_theta_bound_on_count_vectors():
    """theta must lie in (0, 1/|A|]; maximal_fair_vectors checks it too."""
    assert maximal_fair_vectors((2, 2, 2), 1, 0, 1 / 3) == ((2, 2, 2),)
    for bad in (0.0, 0.34, -0.1):
        with pytest.raises(ValueError):
            maximal_fair_vectors((2, 2, 2), 1, 0, bad)
    with pytest.raises(ValueError):
        fairset._check_theta(0.51, (0, 1), (0,))
    fairset._check_theta(1.0, (0,))
