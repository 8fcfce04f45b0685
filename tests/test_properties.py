"""Property tests: incremental PMC enumeration against the subset scan."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from holefree.graph import Graph  # noqa: E402
from holefree.pmc import enumerate_pmcs  # noqa: E402
from holefree.separators import enumerate_minimal_separators  # noqa: E402


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, keep in zip(pairs, present) if keep])


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(graphs())
def test_incremental_pmcs_equal_bruteforce_with_certificates(g):
    incremental = enumerate_pmcs(g, enumerate_minimal_separators(g))
    assert incremental == enumerate_pmcs(g, mode="bruteforce")
