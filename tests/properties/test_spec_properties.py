"""Property-based tests for experiment-spec decoding.

Specs arrive as untrusted JSON (``repro exp --spec``, ``POST /jobs``,
the service journal), so decoding must either build a spec or raise
:class:`SpecError` — never a ``TypeError`` or any other exception a
caller would not expect.  Two generators drive this: arbitrary
JSON-shaped documents, and a valid spec with exactly one field (at any
depth) replaced by an arbitrary JSON value.
"""

import copy

from hypothesis import given, settings, strategies as st

from repro.api.spec import ExperimentSpec, SpecError

_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2 ** 40), max_value=2 ** 40)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=12)
)

_JSON = st.recursive(
    _SCALARS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=8), children, max_size=4)
    ),
    max_leaves=12,
)

_SPEC_KEYS = (
    "workloads", "axes", "base", "engine", "executor", "jobs",
    "max_blocks", "name", "store",
)

_VALID = {
    "name": "prop",
    "workloads": ["fib", "gcd"],
    "base": {"codec": "shared-dict", "fault_cycles": 50, "k_compress": 2},
    "axes": [
        {"grid": {"decompression": ["ondemand", "pre-single"]}},
        {"cases": [{"k_compress": "inf", "hierarchy": "spm-front"}]},
    ],
    "engine": "trace",
    "executor": "serial",
    "jobs": 1,
    "max_blocks": 1000,
    "store": None,
}

#: Every place one field of ``_VALID`` can be swapped out.
_PATHS = (
    [(key,) for key in _SPEC_KEYS]
    + [("base", key) for key in _VALID["base"]]
    + [("base", key) for key in (
        "decompression", "k_decompress", "predictor", "granularity",
        "memory_budget", "eviction", "image_scheme", "hierarchy",
        "assignment", "patch_cycles", "contention",
        "max_prefetch_backlog", "trace_events", "record_trace",
        "label",
    )]
    + [
        ("axes", 0),
        ("axes", 0, "grid"),
        ("axes", 0, "grid", "decompression"),
        ("axes", 0, "grid", "decompression", 1),
        ("axes", 1, "cases"),
        ("axes", 1, "cases", 0),
        ("axes", 1, "cases", 0, "k_compress"),
        ("axes", 1, "cases", 0, "hierarchy"),
        ("workloads", 0),
    ]
)


def _mutated(path, value):
    data = copy.deepcopy(_VALID)
    target = data
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return data


def _decode(data):
    """Decode ``data``; SpecError is the only acceptable failure."""
    try:
        ExperimentSpec.from_dict(data)
    except SpecError:
        pass


def test_valid_spec_decodes():
    spec = ExperimentSpec.from_dict(_VALID)
    assert len(spec.configs()) == 3


@settings(max_examples=200, deadline=None)
@given(_JSON)
def test_arbitrary_json_raises_only_spec_error(data):
    _decode(data)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(_SPEC_KEYS), _JSON, max_size=5))
def test_arbitrary_known_keys_raise_only_spec_error(data):
    _decode(data)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_PATHS), _JSON)
def test_single_field_mutation_raises_only_spec_error(path, value):
    _decode(_mutated(path, value))
