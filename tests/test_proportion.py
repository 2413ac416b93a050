"""Proportion models (PSSFBC / PBSFBC) vs brute force and degeneracy claims."""
import pytest

from repro.core.bsfbc import expand_to_bsfbc, search_bsfbc
from repro.core.cfcore import bcfcore, cfcore
from repro.core.ssfbc import expand_root, order_candidates, search_ssfbc
from repro.graph.generators import random_bipartite
from tests.oracles import brute_bsfbc, brute_ssfbc

THETA_GRID = [(1, 1, 1, 0.4), (1, 2, 2, 0.3), (2, 2, 2, 0.45), (1, 1, 2, 0.5), (2, 1, 1, 0.25)]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("alpha,beta,delta,theta", THETA_GRID)
def test_pssfbc_matches_bruteforce(seed, alpha, beta, delta, theta):
    g = random_bipartite(6, 6, 0.6, seed=seed)
    truth = brute_ssfbc(g, alpha, beta, delta, theta)
    got = search_ssfbc(cfcore(g, alpha, beta), alpha, beta, delta, theta=theta)
    assert len(got) == len(set(got))
    assert set(got) == truth


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("alpha,beta,delta,theta", THETA_GRID)
def test_pbsfbc_matches_bruteforce(seed, alpha, beta, delta, theta):
    g = random_bipartite(6, 6, 0.6, seed=seed)
    truth = brute_bsfbc(g, alpha, beta, delta, theta)
    got = search_bsfbc(bcfcore(g, alpha, beta), alpha, beta, delta, theta=theta)
    assert len(got) == len(set(got))
    assert set(got) == truth


@pytest.mark.parametrize("seed", range(6))
def test_theta_half_degenerates_to_delta_zero(seed):
    """Paper Exp-7: theta = 0.5 equals the plain model with delta = 0."""
    g = random_bipartite(7, 7, 0.55, seed=seed)
    pro = brute_ssfbc(g, 1, 1, 3, theta=0.5)
    plain = brute_ssfbc(g, 1, 1, 0)
    assert pro == plain


@pytest.mark.parametrize("seed", range(4))
def test_theta_monotone_counts(seed):
    """Smaller theta is a weaker constraint. Both result sets match brute
    force, and every theta=0.5 result lies inside some theta=0.2 result: a
    pair that passes theta=0.5 passes theta=0.2, so a maximal one contains it."""
    g = random_bipartite(7, 7, 0.6, seed=seed)
    gp = cfcore(g, 1, 1)
    lo = set(search_ssfbc(gp, 1, 1, 2, theta=0.2))
    hi = set(search_ssfbc(gp, 1, 1, 2, theta=0.5))
    assert lo == brute_ssfbc(g, 1, 1, 2, 0.2)
    assert hi == brute_ssfbc(g, 1, 1, 2, 0.5)
    for l, r in hi:
        assert any(l <= l2 and r <= r2 for l2, r2 in lo)


def test_end_to_end_wrappers():
    g = random_bipartite(6, 6, 0.6, seed=3)
    got_s = search_ssfbc(cfcore(g, 1, 1), 1, 1, 1, theta=0.4)
    got_b = search_bsfbc(bcfcore(g, 1, 1), 1, 1, 1, theta=0.4)
    assert set(got_s) == brute_ssfbc(g, 1, 1, 1, 0.4)
    assert set(got_b) == brute_bsfbc(g, 1, 1, 1, 0.4)


@pytest.mark.parametrize("theta", [0.0, 0.6, 1.0])
def test_invalid_theta_rejected(theta):
    g = random_bipartite(4, 4, 0.5, seed=0)
    with pytest.raises(ValueError):
        search_bsfbc(g, 1, 1, 1, theta=theta)


def _attrs3(u: bool, v: bool):
    return random_bipartite(
        7, 7, 0.7, n_attrs_u=3 if u else 2, n_attrs_v=3 if v else 2, seed=0
    )


@pytest.mark.parametrize(
    "entry,u,v",
    [
        ("search_ssfbc", False, True),
        ("expand_root", False, True),
        ("search_bsfbc", False, True),
        ("search_bsfbc", True, False),
        ("expand_to_bsfbc", False, True),
        ("expand_to_bsfbc", True, False),
    ],
)
def test_theta_rejected_on_three_valued_domain(entry, u, v):
    """The proportion models hold only for two attribute values on each side
    theta applies to (V for PSSFBC, both for PBSFBC); a third value raises."""
    g = _attrs3(u, v)
    order = order_candidates(g, g.adj_v, "deg")
    call = {
        "search_ssfbc": lambda: search_ssfbc(g, 1, 1, 1, theta=0.3),
        "expand_root": lambda: expand_root(g, 1, 1, 1, order, 0, theta=0.3),
        "search_bsfbc": lambda: search_bsfbc(g, 1, 1, 1, theta=0.3),
        "expand_to_bsfbc": lambda: expand_to_bsfbc(g, [], 1, 1, 1, 0.3),
    }[entry]
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("seed", range(4))
def test_pssfbc_three_valued_upper_side_matches_bruteforce(seed):
    """PSSFBC puts theta on V only, so a 3-valued U domain is accepted."""
    g = random_bipartite(6, 6, 0.6, n_attrs_u=3, seed=seed)
    got = search_ssfbc(cfcore(g, 1, 1), 1, 1, 1, theta=0.4)
    assert set(got) == brute_ssfbc(g, 1, 1, 1, 0.4)
