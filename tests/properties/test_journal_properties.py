"""Property-based tests for resuming the sweep service's job journal.

Journal files live in the store and outlive the code that wrote them,
so booting a :class:`JobManager` must survive any entry that parses:
a malformed one is skipped, never raised.  Two generators drive this:
arbitrary JSON objects tagged with the journal version, and a valid
finished-job entry with one field replaced by an arbitrary JSON value.
Each example boots worker threads, so the example counts stay small.
"""

import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from repro.api.spec import ExperimentSpec
from repro.service import JobManager, job_key
from repro.service.jobs import JOURNAL_VERSION
from repro.store.cas import ExperimentStore

_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2 ** 40), max_value=2 ** 40)
    | st.floats(allow_nan=False, allow_infinity=False)
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

_SPEC = ExperimentSpec.from_dict({
    "name": "journal-prop",
    "workloads": ["fib"],
    "base": {"codec": "shared-dict", "decompression": "ondemand"},
    "engine": "trace",
})

_VALID = {
    "version": JOURNAL_VERSION,
    "id": "j1-prop",
    "seq": 1,
    "key": job_key(_SPEC),
    "state": "done",
    "spec": _SPEC.to_dict(),
    "created": 0.0,
    "finished": 1.0,
    "progress": {"total": 1, "done": 1},
    "error_rows": [],
    "error": None,
}

_FIELDS = tuple(key for key in _VALID if key != "version")


def _boot(entry):
    """Journal ``entry`` as ``j1-prop.json``, boot a manager over it,
    and return the resumed job's snapshot (None when it was skipped)."""
    with tempfile.TemporaryDirectory() as root:
        store = ExperimentStore(root)
        journal_dir = os.path.join(store.root, "service", "jobs")
        os.makedirs(journal_dir)
        path = os.path.join(journal_dir, "j1-prop.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle)
        manager = JobManager(store=store, workers=1)
        try:
            jobs = manager.list_jobs()
            json.dumps(jobs)
        finally:
            manager.shutdown()
    return jobs[0] if jobs else None


def test_valid_entry_resumes():
    job = _boot(_VALID)
    assert job is not None
    assert job["id"] == "j1-prop" and job["state"] == "done"


@settings(max_examples=20, deadline=None)
@given(st.dictionaries(st.text(max_size=8), _JSON, max_size=6))
def test_arbitrary_versioned_object_boots(data):
    data["version"] = JOURNAL_VERSION
    _boot(data)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_FIELDS), _JSON)
def test_single_field_mutation_boots(field, value):
    entry = dict(_VALID, **{field: value})
    _boot(entry)
