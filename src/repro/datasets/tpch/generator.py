"""A pure-Python, vectorized TPC-H ``dbgen`` stand-in.

The official dbgen binary is replaced by a deterministic numpy generator that
preserves the properties the 22 queries rely on: the fixed nation/region
vocabulary, the brand/type/container naming scheme, order/ship/receipt date
relationships, return-flag and line-status derivation, 4 suppliers per part,
customers without orders (for Q22), and comment text containing the words the
LIKE predicates search for.  Absolute row counts scale linearly with the scale
factor exactly like dbgen.
"""

from __future__ import annotations

import numpy as np

from repro.dataframe import DataFrame
from repro.datasets.tpch import schema

_START_DATE = np.datetime64("1992-01-01")
_END_ORDER_DATE = np.datetime64("1998-08-02")
_CURRENT_DATE = np.datetime64("1995-06-17")


def _join(*columns: np.ndarray, sep: str = " ") -> np.ndarray:
    """Row-wise ``sep.join`` of string columns, as one object array.

    The columns are zipped as Python lists: iterating a 2-D object array
    costs a view per row, and chained object-array concatenation keeps three
    copies of the longest column's strings alive at once.
    """
    rows = zip(*(column.tolist() for column in columns))
    return np.fromiter(map(sep.join, rows), dtype=object,
                       count=len(columns[0]))


def _labels(template: str, numbers: np.ndarray) -> np.ndarray:
    """``template.format(n)`` for every ``n`` of ``numbers``, as one object
    array."""
    return np.fromiter(map(template.format, numbers.tolist()), dtype=object,
                       count=len(numbers))


def _comments(rng: np.random.Generator, count: int, words: int = 4) -> np.ndarray:
    """Random comment strings assembled from the TPC-H word list."""
    vocabulary = np.array(schema.COMMENT_WORDS, dtype=object)
    picks = rng.integers(0, len(vocabulary), size=(count, words))
    parts = vocabulary[picks]
    return _join(*parts.T)


def _inject(values: np.ndarray, rng: np.random.Generator, fraction: float,
            text: str) -> np.ndarray:
    """Overwrite a random ``fraction`` of ``values`` with ``text``-bearing comments."""
    count = len(values)
    hits = rng.random(count) < fraction
    values = values.copy()
    values[hits] = np.array([text] * int(hits.sum()), dtype=object)
    return values


def _money(rng: np.random.Generator, count: int, low: float, high: float) -> np.ndarray:
    return np.round(rng.uniform(low, high, size=count), 2)


def _phone(nation_keys: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    country = nation_keys + 10
    local = rng.integers(100, 1000, size=(len(nation_keys), 3))
    return _join(country.astype(str), *local.T.astype(str), sep="-")


def generate_region() -> DataFrame:
    return DataFrame({
        "r_regionkey": np.arange(len(schema.REGIONS), dtype=np.int64),
        "r_name": np.array(schema.REGIONS, dtype=object),
        "r_comment": np.array(["region comment"] * len(schema.REGIONS), dtype=object),
    })


def generate_nation() -> DataFrame:
    names = np.array([name for name, _ in schema.NATIONS], dtype=object)
    regions = np.array([region for _, region in schema.NATIONS], dtype=np.int64)
    return DataFrame({
        "n_nationkey": np.arange(len(schema.NATIONS), dtype=np.int64),
        "n_name": names,
        "n_regionkey": regions,
        "n_comment": np.array(["nation comment"] * len(schema.NATIONS), dtype=object),
    })


def generate_supplier(scale_factor: float, rng: np.random.Generator) -> DataFrame:
    count = max(int(schema.BASE_ROW_COUNTS["supplier"] * scale_factor), 10)
    keys = np.arange(1, count + 1, dtype=np.int64)
    nation_keys = rng.integers(0, len(schema.NATIONS), size=count).astype(np.int64)
    comments = _comments(rng, count)
    # A small fraction of suppliers carries the Q16 "Customer ... Complaints"
    # marker and the Q20-excluded wording, as in dbgen.
    comments = _inject(comments, rng, 0.005, "Customer informed about Complaints")
    return DataFrame({
        "s_suppkey": keys,
        "s_name": _labels("Supplier#{:09d}", keys),
        "s_address": _comments(rng, count, words=2),
        "s_nationkey": nation_keys,
        "s_phone": _phone(nation_keys, rng),
        "s_acctbal": _money(rng, count, -999.99, 9999.99),
        "s_comment": comments,
    })


def generate_part(scale_factor: float, rng: np.random.Generator) -> DataFrame:
    count = max(int(schema.BASE_ROW_COUNTS["part"] * scale_factor), 200)
    keys = np.arange(1, count + 1, dtype=np.int64)
    colors = np.array(schema.COLORS, dtype=object)
    name_parts = colors[rng.integers(0, len(colors), size=(count, 5))]
    names = _join(*name_parts.T)
    mfgr_ids = rng.integers(1, 6, size=count)
    brand_ids = mfgr_ids * 10 + rng.integers(1, 6, size=count)
    syllables = (
        np.array(schema.TYPE_SYLLABLE_1, dtype=object)[rng.integers(0, 6, size=count)],
        np.array(schema.TYPE_SYLLABLE_2, dtype=object)[rng.integers(0, 5, size=count)],
        np.array(schema.TYPE_SYLLABLE_3, dtype=object)[rng.integers(0, 5, size=count)],
    )
    types = _join(*syllables)
    containers = _join(
        np.array(schema.CONTAINER_SYLLABLE_1, dtype=object)[
            rng.integers(0, 5, size=count)],
        np.array(schema.CONTAINER_SYLLABLE_2, dtype=object)[
            rng.integers(0, 8, size=count)],
    )
    retail_price = np.round(
        900 + (keys % 1000) * 0.1 + (keys % 10000) / 100.0, 2
    ).astype(np.float64)
    return DataFrame({
        "p_partkey": keys,
        "p_name": names,
        "p_mfgr": _labels("Manufacturer#{}", mfgr_ids),
        "p_brand": _labels("Brand#{}", brand_ids),
        "p_type": types,
        "p_size": rng.integers(1, 51, size=count).astype(np.int64),
        "p_container": containers,
        "p_retailprice": retail_price,
        "p_comment": _comments(rng, count, words=2),
    })


def generate_partsupp(part: DataFrame, supplier: DataFrame,
                      rng: np.random.Generator) -> DataFrame:
    part_keys = part["p_partkey"]
    supplier_count = len(supplier["s_suppkey"])
    ps_partkey = np.repeat(part_keys, 4)
    # dbgen's supplier spreading formula keeps (part, supplier) pairs unique.
    offsets = np.tile(np.arange(4, dtype=np.int64), len(part_keys))
    ps_suppkey = ((ps_partkey + offsets * (supplier_count // 4 + 1)) % supplier_count) + 1
    count = len(ps_partkey)
    return DataFrame({
        "ps_partkey": ps_partkey.astype(np.int64),
        "ps_suppkey": ps_suppkey.astype(np.int64),
        "ps_availqty": rng.integers(1, 10_000, size=count).astype(np.int64),
        "ps_supplycost": _money(rng, count, 1.0, 1000.0),
        "ps_comment": _comments(rng, count, words=3),
    })


def generate_customer(scale_factor: float, rng: np.random.Generator) -> DataFrame:
    count = max(int(schema.BASE_ROW_COUNTS["customer"] * scale_factor), 150)
    keys = np.arange(1, count + 1, dtype=np.int64)
    nation_keys = rng.integers(0, len(schema.NATIONS), size=count).astype(np.int64)
    segments = np.array(schema.MARKET_SEGMENTS, dtype=object)[
        rng.integers(0, len(schema.MARKET_SEGMENTS), size=count)]
    return DataFrame({
        "c_custkey": keys,
        "c_name": _labels("Customer#{:09d}", keys),
        "c_address": _comments(rng, count, words=2),
        "c_nationkey": nation_keys,
        "c_phone": _phone(nation_keys, rng),
        "c_acctbal": _money(rng, count, -999.99, 9999.99),
        "c_mktsegment": segments,
        "c_comment": _comments(rng, count, words=4),
    })


def generate_orders_and_lineitem(scale_factor: float, customer: DataFrame,
                                 part: DataFrame, partsupp: DataFrame,
                                 rng: np.random.Generator
                                 ) -> tuple[DataFrame, DataFrame]:
    # The floor keeps every query non-trivial at tiny scale factors while
    # still letting serving-regime benchmarks (SF < 1e-3) shrink per-request
    # kernel work instead of clamping every sub-milli SF to the same dataset.
    order_count = max(int(schema.BASE_ROW_COUNTS["orders"] * scale_factor), 150)
    order_keys = np.arange(1, order_count + 1, dtype=np.int64)

    # One third of customers never place orders (dbgen rule, needed by Q13/Q22).
    customer_keys = customer["c_custkey"]
    eligible = customer_keys[customer_keys % 3 != 0]
    o_custkey = rng.choice(eligible, size=order_count).astype(np.int64)

    span_days = int((_END_ORDER_DATE - _START_DATE).astype(int))
    o_orderdate = _START_DATE + rng.integers(0, span_days, size=order_count)

    priorities = np.array(schema.ORDER_PRIORITIES, dtype=object)[
        rng.integers(0, len(schema.ORDER_PRIORITIES), size=order_count)]
    clerks = _labels("Clerk#{:09d}", rng.integers(
        1, max(int(1000 * scale_factor), 10) + 1, size=order_count))
    o_comment = _comments(rng, order_count, words=5)
    o_comment = _inject(o_comment, rng, 0.01,
                        "handle special accounts requests carefully")

    # lineitems: 1..7 per order
    lines_per_order = rng.integers(1, 8, size=order_count)
    l_orderkey = np.repeat(order_keys, lines_per_order)
    line_count = len(l_orderkey)
    l_linenumber = (np.arange(line_count, dtype=np.int64)
                    - np.repeat(np.cumsum(lines_per_order) - lines_per_order,
                                lines_per_order) + 1)

    part_keys = part["p_partkey"]
    l_partkey = rng.choice(part_keys, size=line_count).astype(np.int64)
    # Pick one of the four suppliers dbgen assigns to the part.
    supplier_count = int(partsupp["ps_suppkey"].max())
    offsets = rng.integers(0, 4, size=line_count)
    l_suppkey = ((l_partkey + offsets * (supplier_count // 4 + 1)) % supplier_count) + 1

    l_quantity = rng.integers(1, 51, size=line_count).astype(np.float64)
    retail = part["p_retailprice"][l_partkey - 1]
    l_extendedprice = np.round(l_quantity * retail, 2)
    l_discount = np.round(rng.integers(0, 11, size=line_count) / 100.0, 2)
    l_tax = np.round(rng.integers(0, 9, size=line_count) / 100.0, 2)

    order_dates_per_line = np.repeat(o_orderdate, lines_per_order)
    l_shipdate = order_dates_per_line + rng.integers(1, 122, size=line_count)
    l_commitdate = order_dates_per_line + rng.integers(30, 91, size=line_count)
    l_receiptdate = l_shipdate + rng.integers(1, 31, size=line_count)

    received = l_receiptdate <= _CURRENT_DATE
    l_returnflag = np.where(received,
                            np.where(rng.random(line_count) < 0.5, "R", "A"),
                            "N").astype(object)
    shipped = l_shipdate <= _CURRENT_DATE
    l_linestatus = np.where(shipped, "F", "O").astype(object)

    instructions = np.array(schema.SHIP_INSTRUCTIONS, dtype=object)[
        rng.integers(0, len(schema.SHIP_INSTRUCTIONS), size=line_count)]
    modes = np.array(schema.SHIP_MODES, dtype=object)[
        rng.integers(0, len(schema.SHIP_MODES), size=line_count)]

    lineitem = DataFrame({
        "l_orderkey": l_orderkey,
        "l_partkey": l_partkey,
        "l_suppkey": l_suppkey.astype(np.int64),
        "l_linenumber": l_linenumber,
        "l_quantity": l_quantity,
        "l_extendedprice": l_extendedprice,
        "l_discount": l_discount,
        "l_tax": l_tax,
        "l_returnflag": l_returnflag,
        "l_linestatus": l_linestatus,
        "l_shipdate": l_shipdate.astype("datetime64[D]"),
        "l_commitdate": l_commitdate.astype("datetime64[D]"),
        "l_receiptdate": l_receiptdate.astype("datetime64[D]"),
        "l_shipinstruct": instructions,
        "l_shipmode": modes,
        "l_comment": _comments(rng, line_count, words=3),
    })

    # o_orderstatus: F if every line shipped, O if none shipped, P otherwise.
    shipped_per_order = np.add.reduceat(shipped.astype(np.int64),
                                        np.cumsum(lines_per_order) - lines_per_order)
    status = np.where(shipped_per_order == lines_per_order, "F",
                      np.where(shipped_per_order == 0, "O", "P")).astype(object)

    charge = l_extendedprice * (1.0 + l_tax) * (1.0 - l_discount)
    o_totalprice = np.round(
        np.add.reduceat(charge, np.cumsum(lines_per_order) - lines_per_order), 2
    )

    orders = DataFrame({
        "o_orderkey": order_keys,
        "o_custkey": o_custkey,
        "o_orderstatus": status,
        "o_totalprice": o_totalprice,
        "o_orderdate": o_orderdate.astype("datetime64[D]"),
        "o_orderpriority": priorities,
        "o_clerk": clerks,
        "o_shippriority": np.zeros(order_count, dtype=np.int64),
        "o_comment": o_comment,
    })
    return orders, lineitem


def generate_tables(scale_factor: float = 0.01, seed: int = 19920101
                    ) -> dict[str, DataFrame]:
    """Generate every TPC-H table at ``scale_factor`` (deterministic in ``seed``)."""
    rng = np.random.default_rng(seed)
    region = generate_region()
    nation = generate_nation()
    supplier = generate_supplier(scale_factor, rng)
    part = generate_part(scale_factor, rng)
    partsupp = generate_partsupp(part, supplier, rng)
    customer = generate_customer(scale_factor, rng)
    orders, lineitem = generate_orders_and_lineitem(scale_factor, customer, part,
                                                    partsupp, rng)
    return {
        "region": region,
        "nation": nation,
        "supplier": supplier,
        "part": part,
        "partsupp": partsupp,
        "customer": customer,
        "orders": orders,
        "lineitem": lineitem,
    }
