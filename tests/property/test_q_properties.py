"""Property: the ``Q(v)`` solver matches the network-simplex oracle."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.topology.analysis import core_decomposition
from repro.topology.generators import random_san
from repro.topology.model import TopologyError
from tests.topology.q_oracle import q_values_simplex, search_depth_simplex

san_params = st.fixed_dictionaries(
    {
        "n_switches": st.integers(min_value=1, max_value=8),
        "n_hosts": st.integers(min_value=2, max_value=6),
        "extra_links": st.integers(min_value=0, max_value=4),
        "parallel_link_prob": st.sampled_from([0.0, 0.3, 0.6]),
        "pendant_switches": st.integers(min_value=0, max_value=2),
        "seed": st.integers(min_value=0, max_value=10_000),
    }
)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(params=san_params, pick=st.integers(min_value=0, max_value=5))
def test_q_values_match_simplex_oracle(params, pick):
    try:
        net = random_san(**params)
    except TopologyError:
        return
    hosts = sorted(net.hosts)
    h0 = hosts[pick % len(hosts)]
    d = core_decomposition(net, h0)
    assert d.q_values == q_values_simplex(net, h0)
    assert d.search_depth == search_depth_simplex(net, h0)
