"""Unit tests for the dataset generators (TPC-H, Amazon reviews, Iris)."""

import hashlib

import numpy as np

from repro.datasets import amazon_reviews, iris, tpch
from repro.datasets.tpch import schema


def test_tpch_tables_and_columns_present():
    tables = tpch.generate_tables(scale_factor=0.001, seed=3)
    assert set(tables) == set(schema.TABLE_NAMES)
    for name, frame in tables.items():
        assert frame.columns == schema.TABLE_COLUMNS[name]
        assert frame.num_rows > 0


def test_tpch_scaling_and_determinism():
    small = tpch.generate_tables(scale_factor=0.002, seed=9)
    large = tpch.generate_tables(scale_factor=0.004, seed=9)
    assert large["orders"].num_rows == 2 * small["orders"].num_rows
    assert large["part"].num_rows == 2 * small["part"].num_rows
    again = tpch.generate_tables(scale_factor=0.002, seed=9)
    assert np.array_equal(small["lineitem"]["l_extendedprice"],
                          again["lineitem"]["l_extendedprice"])
    assert small["nation"].num_rows == 25 and small["region"].num_rows == 5


def test_tpch_referential_integrity_and_value_rules():
    tables = tpch.generate_tables(scale_factor=0.002, seed=5)
    lineitem, orders = tables["lineitem"], tables["orders"]
    part, partsupp, customer = tables["part"], tables["partsupp"], tables["customer"]
    assert set(lineitem["l_orderkey"]) <= set(orders["o_orderkey"])
    assert set(lineitem["l_partkey"]) <= set(part["p_partkey"])
    assert set(orders["o_custkey"]) <= set(customer["c_custkey"])
    # every (l_partkey, l_suppkey) pair exists in partsupp (dbgen invariant)
    ps_pairs = set(zip(partsupp["ps_partkey"].tolist(),
                       partsupp["ps_suppkey"].tolist()))
    li_pairs = set(zip(lineitem["l_partkey"].tolist(), lineitem["l_suppkey"].tolist()))
    assert li_pairs <= ps_pairs
    # ship/commit/receipt date ordering
    assert (lineitem["l_receiptdate"] > lineitem["l_shipdate"]).all()
    assert (lineitem["l_discount"] >= 0).all() and (lineitem["l_discount"] <= 0.10).all()
    # one third of customers never order (needed by Q13/Q22)
    assert len(set(customer["c_custkey"]) - set(orders["o_custkey"])) > 0
    # order status values
    assert set(orders["o_orderstatus"]) <= {"F", "O", "P"}


def test_tpch_vocabularies_support_query_predicates():
    tables = tpch.generate_tables(scale_factor=0.002, seed=5)
    part, lineitem = tables["part"], tables["lineitem"]
    assert any(t.startswith("PROMO") for t in part["p_type"])        # Q14
    assert any("BRASS" in t for t in part["p_type"])                 # Q2
    assert any(b == "Brand#23" for b in part["p_brand"])             # Q17
    assert set(lineitem["l_shipmode"]) <= set(schema.SHIP_MODES)     # Q12
    assert any(m in ("MAIL", "SHIP") for m in lineitem["l_shipmode"])
    assert set(lineitem["l_returnflag"]) <= {"A", "N", "R"}          # Q1/Q10


def test_tpch_query_text_access():
    assert len(tpch.ALL_QUERY_IDS) == 22
    q11 = tpch.query(11, scale_factor=0.01)
    assert "0.01" in q11 or "0.0" in q11
    assert "{q11_fraction}" not in q11
    q6 = tpch.query(6)
    assert "l_discount between" in q6
    import pytest

    with pytest.raises(KeyError):
        tpch.query(23)


def test_amazon_reviews_generator_properties():
    reviews = amazon_reviews.generate_reviews(num_reviews=500, seed=2)
    assert reviews.num_rows == 500
    assert set(reviews["brand"]) <= set(amazon_reviews.BRANDS)
    assert reviews["rating"].min() >= 1 and reviews["rating"].max() <= 5
    positive = reviews["rating"] >= 4
    texts = reviews["text"]
    has_positive_word = np.array(
        [any(w in t for w in amazon_reviews.POSITIVE_WORDS) for t in texts])
    # sentiment vocabulary correlates with the rating
    assert has_positive_word[positive].mean() > has_positive_word[~positive].mean()
    train_x, train_y, test_x, test_y = amazon_reviews.training_split(reviews)
    assert len(train_x) + len(test_x) == 500
    assert set(np.unique(train_y)) <= {0, 1}


def test_iris_generator_properties():
    table = iris.generate_iris(samples_per_species=30, seed=4)
    assert table.num_rows == 90
    assert set(table["species"]) == set(iris.SPECIES)
    X, y = iris.regression_arrays(table)
    assert X.shape == (90, 3) and y.shape == (90,)
    # species clusters are ordered by petal size (as in the real data)
    petal = table["petal_length"]
    species = table["species"]
    assert petal[species == "setosa"].mean() < petal[species == "virginica"].mean()
    again = iris.generate_iris(samples_per_species=30, seed=4)
    assert table.equals(again)


def _digest(values: np.ndarray) -> str:
    """SHA-1 of a column's dtype and values (an object column by ``repr``)."""
    digest = hashlib.sha1(str(values.dtype).encode())
    if values.dtype == object:
        digest.update("\x00".join(map(repr, values.tolist())).encode())
    else:
        digest.update(np.ascontiguousarray(values).tobytes())
    return digest.hexdigest()


#: Every column of ``tpch.generate_tables(0.002)`` and of
#: ``amazon_reviews.generate_reviews(400)``, digested before either generator
#: was vectorized: a faster generator must produce the same data.
PINNED_DIGESTS = {
    "customer.c_acctbal": "650c41cc66232e98c6068cc8adbd080e5f5f2d39",
    "customer.c_address": "f9880e722c634aef05d07b76927ad9a0f0d2adfb",
    "customer.c_comment": "544aa8321f5a661b2e2d87c3f665f56ed8fb9b88",
    "customer.c_custkey": "991c351ce468f6bcabbb4dcd6ce5c9863ef74078",
    "customer.c_mktsegment": "25b7555bdf408b0fc526f4f09926c93366282d5d",
    "customer.c_name": "97b03aff9081acbf2a65267bfbeacc37254e011d",
    "customer.c_nationkey": "bf6e95eccaf34d5b9a30c84f420d5016665ec523",
    "customer.c_phone": "004c10edcb6bc370c0ced9134f0b0920809ae28f",
    "lineitem.l_comment": "0a8021924f7f6e71b2da1f2c39216e9da66a210b",
    "lineitem.l_commitdate": "e23d5ffcc945901a14ea956bab2556b7214df6f9",
    "lineitem.l_discount": "85ed5350a20853adf49cebc5296cd8e04042c5f7",
    "lineitem.l_extendedprice": "cc84adfba6b4d28130e8c7e57b0fd64555dfeac0",
    "lineitem.l_linenumber": "d32ce0b6801865003c5d1ba9d770c6bb9d6923a2",
    "lineitem.l_linestatus": "357b9a8cee7f6a7ff55ce9aacd0399544144b2a4",
    "lineitem.l_orderkey": "a066ff27b710dfb1a0c22537f0506d849dd76fa6",
    "lineitem.l_partkey": "6ae77464c056ebf90bf8edfee3b0c32d477a7065",
    "lineitem.l_quantity": "227962646c33be9468492662c99e559c2649b43d",
    "lineitem.l_receiptdate": "f390c026df0d04acca6816a6f84d71654142c0b0",
    "lineitem.l_returnflag": "f4659df609db2fe6d153a5394758d20fd56acd39",
    "lineitem.l_shipdate": "d362f84d11ef884bc90a04dbc505b7c1a861f7aa",
    "lineitem.l_shipinstruct": "9c379a855adc4861bc8b4ba0c7f1fa4aa1a08745",
    "lineitem.l_shipmode": "9258dbe257ed42868d1226a68b9c37862b95d7d0",
    "lineitem.l_suppkey": "9fe7d5a9fed061b4270f16e7b4e3ff30e6d3aa97",
    "lineitem.l_tax": "6753f9e0698506e8a9e50948afd4864aa145b752",
    "nation.n_comment": "f40b6fc9bbe2120385baba263bc2252e242e5ee5",
    "nation.n_name": "94b1728365710db0d25dace8964cff03049a8517",
    "nation.n_nationkey": "578a5de4731515e59bb93403820b83a7032ad123",
    "nation.n_regionkey": "1718eefa88fbe04ed57b8fc1682558e41a188223",
    "orders.o_clerk": "c9c35f0a0bd2da7fe019d31c2186c1e68264b78f",
    "orders.o_comment": "7664fd52f339366e65cef8531042ad49e5ffc04c",
    "orders.o_custkey": "fb9c2719bddb93ab14c1f760bbf485c3edac64f7",
    "orders.o_orderdate": "9da53a3a818cdf1b176f95c240af7af2a7d21e68",
    "orders.o_orderkey": "b896da41558e7a8e53f2fdcefaec046ffdde8811",
    "orders.o_orderpriority": "7c29688a06b0e449fca4d5f3bcdf817da0f249b8",
    "orders.o_orderstatus": "2b8dad72451c2fcfca033d36f77108be1a2e5f5c",
    "orders.o_shippriority": "5868b76e37bcb7c93143cf002b27798d2cb3660c",
    "orders.o_totalprice": "816288285210eba0dc2114617fdd849059b65350",
    "part.p_brand": "0d9a5111b01e78f2711cb6b2259c308f472e0145",
    "part.p_comment": "55aafd69e755994addef788a6ac72d808e030a32",
    "part.p_container": "5c7495eb5e20c884defde61c4fc32f3e40d2f7e4",
    "part.p_mfgr": "b5af7a1c43d6cb6e2260f759bb090c6529d99bde",
    "part.p_name": "2546494d376f643419505e9c3ae696a65459383d",
    "part.p_partkey": "65b211ad30be03ab53586b7816ebb6d76cf18a97",
    "part.p_retailprice": "176f03e0d0c0e800627780c6c9d65d21078b216a",
    "part.p_size": "2f38efdecd9e67f25fda5f700d296cfa09d9d0ba",
    "part.p_type": "752ce4de63c544422af98c89f39b5c2383c6c71e",
    "partsupp.ps_availqty": "864858bcdfb5f2c82e256bc48cea9018d9dc1e27",
    "partsupp.ps_comment": "1f0e371b0a17103557ce64888e1647e37dab6e2f",
    "partsupp.ps_partkey": "7b2a0fb50ddb5970bb0939a06092ce12217dc539",
    "partsupp.ps_suppkey": "b6fbe5bddcbd44f76ea681b6d3344d74b524b57c",
    "partsupp.ps_supplycost": "0e4eb75c98a515ae10a26fbff129073d8344582d",
    "region.r_comment": "99d005554a1224ec33c3eef67409455a0024689d",
    "region.r_name": "be9755f70ee91ffdd0ce62d2df4087d04e13953e",
    "region.r_regionkey": "5fb1a3c2533db0997bb8748b437c07c9483de61c",
    "supplier.s_acctbal": "c1842407206c50bd2f56d829793b1b9503aa39dd",
    "supplier.s_address": "b4fecc7abf9a91a800885c616bf09db2faa894eb",
    "supplier.s_comment": "66da69ea6bbed6a92e5f8dbc25fb534a2c556642",
    "supplier.s_name": "e0ab71b72768cc348dd64b71a04a4208085455bf",
    "supplier.s_nationkey": "ff00d8a77871490324d0abf65e1ce8597c1f0bbc",
    "supplier.s_phone": "a122c109628839adca206e2aa8a62d2b3a438480",
    "supplier.s_suppkey": "32bf9c280b8db3eddf56272ee584ac628e2308e4",
    "amazon_reviews.brand": "350847bbaf880935a9d2fd47744fc307aab3b2dd",
    "amazon_reviews.rating": "038f3d2d8ebcace7e403956d9736485f51d0a750",
    "amazon_reviews.review_id": "65b211ad30be03ab53586b7816ebb6d76cf18a97",
    "amazon_reviews.text": "efd8e7ac996df140180c7582a72d7fa4d7a02db0",
}


def test_generated_data_is_pinned():
    digests = {f"{table}.{column}": _digest(frame[column])
               for table, frame in tpch.generate_tables(0.002).items()
               for column in frame.columns}
    reviews = amazon_reviews.generate_reviews(400)
    digests.update({f"amazon_reviews.{column}": _digest(reviews[column])
                    for column in reviews.columns})
    changed = sorted(name for name in PINNED_DIGESTS
                     if digests.get(name) != PINNED_DIGESTS[name])
    assert not changed and set(digests) == set(PINNED_DIGESTS), changed
