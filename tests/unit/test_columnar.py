"""Unit tests for the columnar tensor data representation (paper §2.1)."""

import numpy as np
import pytest

from repro.core.columnar import (
    LogicalType,
    TensorColumn,
    TensorTable,
    date_literal_to_ns,
    decode_dates,
    decode_strings,
    encode_dates,
    encode_string_literal,
    encode_strings,
)
from repro.dataframe import DataFrame
from repro.errors import ExecutionError
from repro.tensor import ops


def test_string_encoding_shape_and_padding():
    codes = encode_strings(["hi", "teacup", ""])
    assert codes.shape == (3, 6)              # (n x m), m = max length
    assert codes.dtype == np.uint8            # every code point below 256
    assert codes[0, 0] == ord("h") and codes[0, 2] == 0   # right-padded with 0
    np.testing.assert_array_equal(decode_strings(codes), ["hi", "teacup", ""])
    # One code point past Latin-1 widens the whole tensor to int32.
    wide = encode_strings(["hi", "teacup", "漢"])
    assert wide.shape == (3, 6) and wide.dtype == np.int32
    assert wide[2, 0] == ord("漢") and wide[2, 1] == 0
    np.testing.assert_array_equal(decode_strings(wide), ["hi", "teacup", "漢"])


def test_string_encoding_explicit_width_truncates():
    codes = encode_strings(["abcdef"], width=3)
    assert codes.shape == (1, 3)
    assert decode_strings(codes)[0] == "abc"
    literal = encode_string_literal("ab", width=4)
    assert literal.shape == (4,) and literal[2] == 0


def test_string_encoding_handles_none_and_unicode():
    codes = encode_strings([None, "café"])
    decoded = decode_strings(codes)
    assert decoded[0] == "" and decoded[1] == "café"


def test_date_encoding_is_epoch_nanoseconds():
    dates = np.array(["1970-01-02", "1994-01-01"], dtype="datetime64[D]")
    ns = encode_dates(dates)
    assert ns.dtype == np.int64
    assert ns[0] == 86_400_000_000_000
    np.testing.assert_array_equal(decode_dates(ns), dates)
    assert date_literal_to_ns("1970-01-02") == 86_400_000_000_000


def test_column_type_inference_from_numpy():
    assert TensorColumn.from_numpy(np.array([1, 2])).ltype == LogicalType.INT
    assert TensorColumn.from_numpy(np.array([1.0])).ltype == LogicalType.FLOAT
    assert TensorColumn.from_numpy(np.array([True])).ltype == LogicalType.BOOL
    assert TensorColumn.from_numpy(
        np.array(["1994-01-01"], dtype="datetime64[D]")).ltype == LogicalType.DATE
    string_col = TensorColumn.from_numpy(np.array(["ab", "c"], dtype=object))
    assert string_col.ltype == LogicalType.STRING
    assert string_col.tensor.ndim == 2 and string_col.string_width == 2


def test_column_shape_validation():
    with pytest.raises(ExecutionError):
        TensorColumn(ops.tensor([[1, 2]]), LogicalType.INT)      # numeric must be 1-d
    with pytest.raises(ExecutionError):
        TensorColumn(ops.tensor([1, 2]), LogicalType.STRING)      # strings must be 2-d


def test_column_gather_mask_and_validity():
    column = TensorColumn.from_numpy(np.array([10.0, 20.0, 30.0]))
    gathered = column.gather(ops.tensor([2, 0]))
    np.testing.assert_array_equal(gathered.to_numpy(), [30.0, 10.0])
    masked = column.mask(ops.tensor([True, False, True]))
    assert masked.num_rows == 2
    assert column.validity().tolist() == [True, True, True]


def test_column_null_round_trip():
    column = TensorColumn(ops.tensor([1.0, 2.0]), LogicalType.FLOAT,
                          valid=ops.tensor([True, False]))
    values = column.to_numpy()
    assert values[0] == 1.0 and values[1] is None


def test_table_round_trip_from_dataframe():
    frame = DataFrame({
        "k": np.array([1, 2, 3], dtype=np.int64),
        "v": np.array([0.5, 1.5, 2.5]),
        "s": np.array(["x", "yy", "zzz"], dtype=object),
        "d": np.array(["2020-05-01", "2021-06-02", "2022-07-03"],
                      dtype="datetime64[D]"),
    })
    table = TensorTable.from_dataframe(frame)
    assert table.num_rows == 3 and table.num_columns == 4
    assert table.column("s").ltype == LogicalType.STRING
    assert frame.equals(table.to_dataframe())


def test_table_select_rename_gather_mask():
    table = TensorTable.from_dataframe(DataFrame({
        "a": np.array([1, 2, 3], dtype=np.int64),
        "b": np.array(["p", "q", "r"], dtype=object),
    }))
    assert table.select(["b"]).column_names == ["b"]
    renamed = table.rename({"a": "x.a"})
    assert "x.a" in renamed and "b" in renamed
    gathered = table.gather(ops.tensor([1]))
    assert gathered.to_dataframe()["b"].tolist() == ["q"]
    masked = table.mask(ops.tensor([True, False, True]))
    assert masked.num_rows == 2
    with pytest.raises(ExecutionError):
        table.column("zzz")


def test_table_rejects_inconsistent_lengths():
    a = TensorColumn.from_numpy(np.array([1, 2]))
    b = TensorColumn.from_numpy(np.array([1, 2, 3]))
    with pytest.raises(ExecutionError):
        TensorTable({"a": a, "b": b})


def test_empty_table_properties():
    table = TensorTable()
    assert table.num_rows == 0 and table.num_columns == 0
    assert table.device.is_cpu
