"""Property-based tests (hypothesis) of the SWF layer.

Two round-trip contracts hold for *arbitrary* valid inputs, not just the
hand-written samples:

* ``SwfJob -> as_line() -> parse_line()`` preserves every field value
  exactly, whatever mix of integers, floats and exponent-notation numbers
  the record carries;
* ``WorkloadSpec -> SwfWriter.from_workload -> workload_from_swf`` preserves
  the arrival order, submit times, job sizes and application profiles of any
  valid specification (runtimes live in the SWF record layer and round-trip
  there).

The suite runs with ``derandomize=True``: every CI matrix entry executes the
same example sequence, so a failure reproduces everywhere.
"""

from __future__ import annotations

import io

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from repro.koala import JobKind  # noqa: E402
from repro.workloads import (  # noqa: E402
    JobSpec,
    SwfJob,
    SwfField,
    SwfReader,
    SwfWriter,
    WorkloadSpec,
    workload_from_swf,
)


# -- strategies ----------------------------------------------------------------

#: One SWF field: an integer, or a finite float (SWF has no NaN semantics —
#: and NaN would break equality-based round-trip checking anyway).
field_values = st.one_of(
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)

swf_records = st.tuples(*([field_values] * len(SwfField))).map(
    lambda fields: SwfJob(fields=fields)
)


@st.composite
def workload_specs(draw):
    """Valid workload specifications with rebasing-friendly submit times."""
    count = draw(st.integers(min_value=1, max_value=25))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
            min_size=count,
            max_size=count,
        )
    )
    jobs = []
    time = 0.0
    for index, gap in enumerate(gaps):
        if index > 0:
            time += gap
        profile = draw(st.sampled_from(["gadget2", "ft"]))
        maximum = draw(st.integers(min_value=2, max_value=64))
        jobs.append(
            JobSpec(
                submit_time=time,
                profile_name=profile,
                kind=JobKind.MALLEABLE,
                initial_processors=2,
                minimum_processors=2,
                maximum_processors=maximum,
                name=f"job-{index + 1}",
            )
        )
    return WorkloadSpec(name="prop", jobs=jobs)


# -- record-level round trip ---------------------------------------------------


@given(record=swf_records)
def test_swf_record_round_trips_exactly_through_text(record):
    line = record.as_line()
    reparsed = SwfReader().parse_line(line)
    assert reparsed is not None
    assert len(reparsed.fields) == len(record.fields)
    for original, parsed in zip(record.fields, reparsed.fields):
        assert parsed == original  # numeric equality: 45 == 45.0 is fine
    # Round-tripping again is a fixed point: the text form is canonical.
    assert reparsed.as_line() == SwfReader().parse_line(reparsed.as_line()).as_line()


@given(records=st.lists(swf_records, min_size=0, max_size=20))
def test_swf_file_round_trips_exactly_through_writer(records):
    buffer = io.StringIO()
    SwfWriter(header=["property round trip"]).write(records, buffer)
    reparsed = SwfReader().read(io.StringIO(buffer.getvalue()))
    assert len(reparsed) == len(records)
    for original, parsed in zip(records, reparsed):
        assert all(a == b for a, b in zip(original.fields, parsed.fields))


@given(
    mantissa=st.integers(min_value=-9999, max_value=9999),
    exponent=st.integers(min_value=-8, max_value=8),
    upper=st.booleans(),
)
def test_exponent_notation_parses_like_its_float_value(mantissa, exponent, upper):
    # The regression the robust parser fixes: values like 1e3 / 2E-1 used to
    # hit int() and raise.  They must parse to the float they denote.
    marker = "E" if upper else "e"
    text = f"{mantissa}{marker}{exponent}"
    fields = ["1"] * len(SwfField)
    fields[SwfField.RUN_TIME] = text
    record = SwfReader().parse_line(" ".join(fields))
    assert record is not None
    assert record.fields[SwfField.RUN_TIME] == pytest.approx(float(text))


# -- workload-level round trip -------------------------------------------------


@given(spec=workload_specs())
def test_workload_round_trips_order_sizes_and_profiles(spec):
    records = SwfWriter.from_workload(spec, default_runtime=600.0)
    rebuilt = workload_from_swf(
        records,
        name="prop",
        profile_map={1: "gadget2", 2: "ft"},
        malleable=True,
        minimum_processors=2,
    )
    assert len(rebuilt) == len(spec)
    # Arrival order and submit times survive exactly (first submit is 0, so
    # the reader's rebasing is the identity).
    assert [job.submit_time for job in rebuilt] == [job.submit_time for job in spec]
    # Sizes: the SWF "requested processors" field carries the maximum.
    assert [job.maximum_processors for job in rebuilt] == [
        job.maximum_processors for job in spec
    ]
    assert all(job.minimum_processors == 2 for job in rebuilt)
    # Application profiles survive through the executable-field mapping.
    assert [job.profile_name for job in rebuilt] == [job.profile_name for job in spec]
    # Runtimes live in the record layer: every record carries the declared one.
    assert all(record.run_time == 600.0 for record in records)


@given(spec=workload_specs())
def test_workload_round_trip_is_idempotent(spec):
    once = workload_from_swf(
        SwfWriter.from_workload(spec), profile_map={1: "gadget2", 2: "ft"}
    )
    twice = workload_from_swf(
        SwfWriter.from_workload(once), profile_map={1: "gadget2", 2: "ft"}
    )
    assert [(j.submit_time, j.maximum_processors, j.profile_name) for j in twice] == [
        (j.submit_time, j.maximum_processors, j.profile_name) for j in once
    ]
