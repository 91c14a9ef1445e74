"""The report writer renders a column batch as the records it stands for.

A sweep hands the writer one batch per chunk: the fields every record of
the chunk shares, once, and one list or coded column per other field.  The
text must be what rendering each record alone gives: one
``json.dumps(record, sort_keys=True)`` line per record, or one
``csv.writer`` row per record with empty cells for None and lowercase
booleans.  A coded column (distinct values and one index per record) must
render as the list it stands for.
"""

import csv
import io
import json
import math

from hypothesis import given, strategies as st

from promisecc.cli import _Batch, _Coded, _render_csv, _render_json

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf]),
    # quotes, commas, a backslash, non-ASCII and format directives
    st.text(alphabet='ab,"\\%s\n é→', max_size=6),
)
NAMES = st.lists(
    st.text(alphabet='ab_,"\\%sé', min_size=1, max_size=4),
    min_size=1, max_size=5, unique=True,
)


@st.composite
def batches(draw):
    """Random flat records, all with the same fields, cut into random
    batches; each batch keeps a random subset of its fields fixed."""
    names = draw(NAMES)
    cut = []
    for size in draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)):
        fixed = {name: draw(SCALARS) for name in names if draw(st.booleans())}
        columns = {
            name: draw(st.lists(SCALARS, min_size=size, max_size=size))
            for name in names if name not in fixed
        }
        cut.append(_Batch(fixed, columns, size))
    return names, cut


def _records(cut):
    for batch in cut:
        for r in range(batch.size):
            yield {**batch.fixed, **{k: v[r] for k, v in batch.columns.items()}}


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


@given(batches())
def test_json_batches_are_sorted_key_json_lines(drawn):
    _, cut = drawn
    expected = "".join(json.dumps(r, sort_keys=True) + "\n" for r in _records(cut))
    assert "".join(_render_json(batch) for batch in cut) == expected


@given(batches(), st.booleans())
def test_csv_batches_are_csv_writer_rows(drawn, missing):
    names, cut = drawn
    # a column no record has is left empty
    columns = [*names, "absent"] if missing else names
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for record in _records(cut):
        writer.writerow([_csv_cell(record.get(col)) for col in columns])
    text = "".join(
        _render_csv(columns, batch, header=not i) for i, batch in enumerate(cut)
    )
    assert text == buf.getvalue()


@st.composite
def coded_batches(draw):
    """A batch whose columns are all coded, with the same batch written
    with each column expanded into its list."""
    names = draw(NAMES)
    size = draw(st.integers(1, 6))
    fixed = {name: draw(SCALARS) for name in names if draw(st.booleans())}
    coded, expanded = {}, {}
    for name in names:
        if name in fixed:
            continue
        # duplicates among the values too: equal values may sit at two codes
        values = draw(st.lists(SCALARS, min_size=1, max_size=5))
        codes = draw(st.lists(st.integers(0, len(values) - 1),
                              min_size=size, max_size=size))
        coded[name] = _Coded(values, codes)
        expanded[name] = [values[c] for c in codes]
    return names, _Batch(fixed, coded, size), _Batch(fixed, expanded, size)


@given(coded_batches(), st.booleans())
def test_coded_columns_render_as_their_lists(drawn, header):
    names, coded, expanded = drawn
    assert _render_json(coded) == _render_json(expanded)
    assert _render_csv(names, coded, header) == _render_csv(names, expanded, header)
