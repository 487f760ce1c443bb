import copy
import hashlib
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from braidwork.certificates import Certificate


def reference_body_hash(cert):
    """`Certificate.body_hash` as a round trip: dump the body, load it back,
    drop each row's ``timing_ms`` and dump it sorted."""
    stripped = json.loads(json.dumps(cert._body()))
    for row in stripped["results"]:
        row.pop("timing_ms", None)
    dump = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(dump.encode()).hexdigest()


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**300), max_value=2**300),
    st.floats(),
    st.sampled_from([-0.0, 0.0, 1e308, -1e308, 5e-324]),
    st.text(max_size=8),
)
keys = st.text(max_size=6)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(keys, inner, max_size=4),
    ),
    max_leaves=20,
)


@st.composite
def rows(draw):
    row = draw(st.dictionaries(keys.filter(lambda k: k != "timing_ms"), values, max_size=4))
    row["id"] = draw(st.text(max_size=6))
    row["status"] = draw(st.sampled_from(["verified", "failed", "skipped", "degenerate"]))
    if draw(st.booleans()):
        row["timing_ms"] = draw(st.floats(min_value=0, max_value=1e6))
    return row


@given(st.text(max_size=8), st.dictionaries(keys, values, max_size=4),
       st.lists(rows(), max_size=6))
@settings(max_examples=200, deadline=None)
def test_body_hash_equals_the_round_trip_hash(command, inputs, results):
    cert = Certificate(command=command, inputs=inputs, results=results)
    before = copy.deepcopy(results)
    assert cert.body_hash() == reference_body_hash(cert)
    # the hash copies the rows; every timing stays in the certificate
    assert cert.results == before
