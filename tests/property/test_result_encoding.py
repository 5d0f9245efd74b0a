"""Property tests: the one-join result encoder against a one-shot oracle.

``BenchmarkResult.to_json`` joins the document from two pieces per row;
the oracle here is the obvious whole-payload ``json.dumps``. For arbitrary
records — non-ASCII client names, ``None`` contract/function/reason,
int-valued, tiny and huge timestamps — the bytes must be equal and must
parse back to equal records and an equal summary. The encoder writes each
distinct record tail (every field but ``uid``) once per call, so records
drawn from a few shared tails exercise its hits, and pinned rows whose
timestamps compare equal but encode differently (``5`` / ``5.0``,
``0.0`` / ``-0.0``) must each keep their own text. ``summary_from_json``
finds the summary by position, so whatever text the summary's own keys
hold, it must return what a full parse returns. The returned document is
the only full copy of the rows the encoder makes, which a ``tracemalloc``
peak checks.

The records live in a ``RecordTable``, as columns, which rows enter only
through its constructor and ``extend``. Any list of records fed to one,
at once or batch by batch, must read back as the same rows, value and
type, and encode and summarise exactly as the plain list would.
"""

from __future__ import annotations

import json
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import results as results_module
from repro.core.results import BenchmarkResult, RecordTable, TransactionRecord

FIELDS = ("uid", "kind", "contract", "function", "client", "submitted_at",
          "committed_at", "aborted", "abort_reason", "retries")

timestamps = st.one_of(
    st.integers(min_value=0, max_value=10**6),              # int-valued
    st.floats(min_value=0.0, max_value=1e300),
    st.floats(min_value=0.0, max_value=1e-300),             # subnormal-ish
    st.sampled_from([0.1 + 0.2, 1 / 3, 1e16, 1e-7, 123456789.123456789]))
names = st.one_of(st.none(), st.text(max_size=8))

records = st.builds(
    TransactionRecord,
    uid=st.integers(min_value=0, max_value=2**63),
    kind=st.sampled_from(["transfer", "invoke"]),
    contract=names,
    function=names,
    client=st.text(max_size=12),                            # any unicode
    submitted_at=timestamps,
    committed_at=st.one_of(st.none(), timestamps),
    aborted=st.booleans(),
    abort_reason=names,
    retries=st.integers(min_value=0, max_value=50))


def make_result(recs, duration=10.0) -> BenchmarkResult:
    return BenchmarkResult("quorum", "testnet", "w", duration, 0.5,
                           records=RecordTable(recs),
                           chain_stats={"height": 3})


def oracle(result: BenchmarkResult) -> str:
    return json.dumps({
        "summary": result.summary(),
        "transactions": [{name: getattr(record, name) for name in FIELDS}
                         for record in result.records]})


def assert_encodes_like_the_oracle(result: BenchmarkResult) -> None:
    text = result.to_json()
    assert text == oracle(result)
    clone = BenchmarkResult.from_json(text)
    assert clone.records == result.records
    # compared as text: an empty latency window makes the averages NaN
    assert json.dumps(clone.summary()) == json.dumps(result.summary())
    assert clone.to_json() == text


@settings(max_examples=150, deadline=None)
@given(recs=st.lists(records, max_size=13),
       duration=st.sampled_from([0.0, 10.0, 1e6]))
def test_chunked_encoding_equals_one_shot_encoding(recs, duration):
    # zero, one and many records: the first and last rows are joined apart
    assert_encodes_like_the_oracle(make_result(recs, duration))


#: the document's own delimiters, as text inside the summary
hostile = st.one_of(
    st.text(alphabet='{}[]",:\\ é', min_size=1, max_size=8),
    st.sampled_from(['"transactions"', ', "transactions": [', ']}',
                     '{"summary": ', '\\"']))


@given(stats=st.dictionaries(hostile, st.integers(), max_size=4),
       reasons=st.lists(hostile, max_size=4),
       recs=st.lists(records, max_size=3))
def test_summary_reader_is_not_fooled_by_the_summary_text(stats, reasons,
                                                          recs):
    aborted = [TransactionRecord(uid, "transfer", None, None, "c", 0.0, None,
                                 True, reason)
               for uid, reason in enumerate(reasons)]
    result = make_result(recs + aborted)
    result.chain_stats = stats
    text = result.to_json()
    summary = BenchmarkResult.summary_from_json(text)
    assert set(reasons) <= set(summary["aborts"])
    assert summary["chain_stats"] == stats
    assert json.dumps(summary) == json.dumps(json.loads(text)["summary"])


def retyped(value):
    """An equal timestamp of the other numeric type (``5`` <-> ``5.0``)."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and float(value) == value:
        return float(value)
    return value


@st.composite
def shared_tails(draw):
    """Records drawn from a few tails, each reused across many uids.

    The pool may also hold the first tail's twin: equal timestamps of the
    other numeric type, which compare equal but encode differently.
    """
    pool = draw(st.lists(records, min_size=1, max_size=3))
    if draw(st.booleans()):
        first = pool[0]
        pool.append(first._replace(
            submitted_at=retyped(first.submitted_at),
            committed_at=retyped(first.committed_at)))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=17))
    uids = draw(st.lists(st.integers(min_value=0, max_value=2**63),
                         min_size=len(picks), max_size=len(picks)))
    return [pick._replace(uid=uid) for pick, uid in zip(picks, uids)]


@settings(max_examples=150, deadline=None)
@given(recs=shared_tails())
def test_reused_tails_encode_like_the_oracle(recs):
    # up to 17 rows over at most 4 tails: hits, including on the last row
    assert_encodes_like_the_oracle(make_result(recs))


def test_equal_timestamps_of_another_type_or_sign_keep_their_text():
    row = TransactionRecord(0, "transfer", None, None, "c", 5, 7, False,
                            None)
    twins = [row,
             row._replace(uid=1, submitted_at=5.0),
             row._replace(uid=2, committed_at=7.0),
             row._replace(uid=3, submitted_at=5.0, committed_at=7.0),
             row._replace(uid=4),
             row._replace(uid=5, submitted_at=0.0, committed_at=-0.0),
             row._replace(uid=6, submitted_at=-0.0, committed_at=0.0),
             row._replace(uid=7, submitted_at=0.0, committed_at=0.0)]
    result = make_result(twins)
    assert_encodes_like_the_oracle(result)
    # repr tells 5 from 5.0 and -0.0 from 0.0, which == does not
    rows = json.loads(result.to_json())["transactions"]
    assert [(repr(r["submitted_at"]), repr(r["committed_at"]))
            for r in rows] == [
        ("5", "7"), ("5.0", "7"), ("5", "7.0"), ("5.0", "7.0"), ("5", "7"),
        ("0.0", "-0.0"), ("-0.0", "0.0"), ("0.0", "0.0")]


@pytest.mark.parametrize("name, value", [("abort_reason", "evicted"),
                                         ("committed_at", 9.5)])
def test_each_call_encodes_its_own_tails(name, value):
    # the tail texts live for one call: a row the table gained since is
    # encoded, and a second call encodes every distinct tail again
    recs = [TransactionRecord(uid, "transfer", None, None, "c", 1.0, 2.0,
                              False, None) for uid in range(10)]
    result = make_result(recs)
    first = result.to_json()
    assert first == oracle(result)
    result.records.extend([recs[0]._replace(uid=10, **{name: value})])
    expected = oracle(result)
    with mock.patch.object(results_module.json, "dumps",
                           wraps=json.dumps) as dumps:
        second = result.to_json()
    assert second == expected != first
    # the summary, then the shared tail and the new one, each once
    encoded = [args[0] for args, _ in dumps.call_args_list]
    assert len(encoded) == 3
    assert [tail[name] for tail in encoded[1:]] == [getattr(recs[0], name),
                                                    value]


def test_ten_thousand_rows_of_shared_zero_and_twin_tails():
    # shared tails, rows holding a float zero (never memoized), and 5 / 5.0
    # twins that compare equal, interleaved over one long document
    recs = []
    for i in range(10_000):
        submitted = (5, 5.0, 0.0, -0.0, i * 0.001)[i % 5]
        committed = (None, 7, 7.0, 0.0, i * 0.002)[i % 7 % 5]
        recs.append(TransactionRecord(
            i * 7919, ("transfer", "invoke")[i % 2], None,
            "checkDistance" if i % 3 else None, f"clïent-{i % 4}",
            submitted, committed, i % 11 == 0,
            "evicted" if i % 11 == 0 else None, i % 3))
    assert_encodes_like_the_oracle(make_result(recs))


def test_the_document_is_the_only_full_copy_of_the_rows():
    # rows as a run writes them: one client per 100-tx tick, one block per
    # 500 tx, so tails repeat. A second copy of the rows (chunk strings, a
    # list of row strings) would peak at twice the document or more.
    recs = [TransactionRecord(i, "transfer", None, None,
                              f"client-{i // 100 % 8}", i // 100 * 0.1,
                              i // 500 * 0.5 + 1.5, False, None)
            for i in range(20_000)]
    result = make_result(recs)
    result.to_json()                       # warm the summary's code paths
    tracemalloc.start()
    try:
        text = result.to_json()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * len(text), peak / len(text)


#: every timestamp and uid the columns must keep exactly: ints, a
#: negative zero beside a positive one, uids past 64 bits
exact_timestamps = st.one_of(timestamps, st.sampled_from([0, 0.0, -0.0, 5]))
exact_records = st.builds(
    TransactionRecord,
    uid=st.one_of(st.integers(min_value=0, max_value=2**70),
                  st.sampled_from([2**63, 2**64 + 1])),
    kind=st.sampled_from(["transfer", "invoke"]),
    contract=names,
    function=names,
    client=st.sampled_from(["c", "clïent", ""]),
    submitted_at=exact_timestamps,
    committed_at=st.one_of(st.none(), exact_timestamps),
    aborted=st.booleans(),
    abort_reason=st.one_of(st.none(), st.sampled_from(["expired",
                                                       "evicted"])),
    retries=st.integers(min_value=0, max_value=3))


def summary_oracle(recs, duration, scale):
    """The summary's record-derived keys, record by record."""
    committed = [r for r in recs if r.committed_at is not None
                 and not r.aborted]
    in_window = np.array([r.committed_at - r.submitted_at for r in committed
                          if r.committed_at <= duration], dtype=float)

    def rate(count):
        return count / duration / scale if duration > 0 else 0.0

    return {
        "submitted": len(recs),
        "average_load_tps": round(rate(len(recs)), 2),
        "average_throughput_tps": round(rate(in_window.size), 2),
        "average_latency_s": round(float(in_window.mean()), 3)
        if recs and in_window.size else (float("nan") if recs else None),
        "median_latency_s": round(float(np.median(in_window)), 3)
        if recs and in_window.size else (float("nan") if recs else None),
        "commit_ratio": round(len(committed) / len(recs), 4) if recs
        else 0.0,
        "aborts": dict(Counter(r.abort_reason for r in recs
                               if r.aborted and r.abort_reason)),
    }


def assert_holds_the_rows(result, recs):
    """The table reads back *recs*, value and type, and encodes and
    summarises as the plain list would."""
    table = result.records
    assert isinstance(table, RecordTable)
    assert len(table) == len(recs)
    assert list(table) == recs and table == RecordTable(recs)
    # repr tells 5 from 5.0 and -0.0 from 0.0, which == does not
    assert repr(list(table)) == repr(recs)
    assert [repr(table[i]) for i in range(-len(recs), 0)] == \
        [repr(r) for r in recs]
    assert result.to_json() == json.dumps({
        "summary": result.summary(),
        "transactions": [r._asdict() for r in recs]})
    summary = result.summary()
    expected = summary_oracle(recs, result.duration, result.scale)
    assert json.dumps({key: summary[key] for key in expected}) == \
        json.dumps(expected)
    assert result.retries_per_transaction() == (
        sum(r.retries for r in recs) / len(recs) if recs else 0.0)


@settings(max_examples=150, deadline=None)
@given(recs=st.lists(exact_records, max_size=12),
       duration=st.sampled_from([0.0, 10.0, 1e6]))
def test_a_table_reads_back_and_encodes_the_rows_it_was_fed(recs, duration):
    result = BenchmarkResult("quorum", "testnet", "w", duration, 0.5,
                             records=RecordTable(recs))
    assert_holds_the_rows(result, recs)
    assert BenchmarkResult.from_json(result.to_json()) == result


@settings(max_examples=150, deadline=None)
@given(batches=st.lists(st.lists(exact_records, max_size=6), max_size=4))
def test_a_table_extended_batch_by_batch_encodes_like_the_joined_list(
        batches):
    result = make_result([])
    rows = []
    for number, batch in enumerate(batches):
        result.to_json()                   # encode before each batch
        rows += batch
        # a list is spread at once, any other iterable a slice at a time
        result.records.extend(batch if number % 2 else iter(batch))
    assert_holds_the_rows(result, rows)


def test_a_table_takes_rows_only_through_extend():
    row = TransactionRecord(0, "transfer", None, None, "c", 5, None, False,
                            None)
    table = RecordTable([row])
    with pytest.raises(TypeError):
        table[0] = row
    with pytest.raises(TypeError):
        del table[0]
    for name in ("append", "insert", "remove", "pop", "__iadd__"):
        assert not hasattr(table, name)
    assert list(table) == [row]


def test_rows_sharing_a_tail_share_one_entry():
    # a tick whose rows share one tail, then a tick that mixes two
    rows = [TransactionRecord(uid, "transfer", None, None,
                              f"c{uid % 2 if uid >= 300 else 0}",
                              uid // 300 * 0.1, None, False, None)
            for uid in range(600)]
    table = RecordTable()
    table.extend(rows[:300])
    table.extend(rows[300:])
    assert table.tails == [rows[0][1:5] + rows[0][7:],
                           rows[301][1:5] + rows[301][7:]]
    assert table.tail.itemsize == 4
    assert list(table) == rows


@given(record=records)
def test_records_are_immutable_and_compare_field_wise(record):
    for name in FIELDS:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = 1
    values = [getattr(record, name) for name in FIELDS]
    assert TransactionRecord(*values) == record                  # positional
    assert TransactionRecord(**dict(zip(FIELDS, values))) == record
    assert record._replace(uid=record.uid + 1) != record


def test_retries_defaults_to_zero():
    assert TransactionRecord(1, "transfer", None, None, "c", 0.0, None,
                             False, None).retries == 0
