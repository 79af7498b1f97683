"""The embedder's served-dimension check, against the in-process server that serves 3-d vectors."""

import pytest

from propgraph.encoding import OpenAICompatEmbedder
from propgraph.errors import DimensionMismatchError

from test_live_backends import fake_server  # noqa: F401  (the fixture)


@pytest.mark.parametrize("dim", [3, 4])
def test_served_vector_of_another_size_than_dim_is_not_retried(fake_server, dim):  # noqa: F811
    base_url, handler = fake_server
    embedder = OpenAICompatEmbedder(base_url, model="m", dim=dim, max_retries=3, backoff=0.0)
    if dim == 3:
        assert [vec.shape for vec in embedder.embed(["alpha", "beta"])] == [(3,), (3,)]
    else:
        with pytest.raises(DimensionMismatchError, match="served a 3-d vector, expected 4-d"):
            embedder.embed(["alpha", "beta"])
    assert len(handler.seen) == 1
