"""Quickstart: register a DataFrame, compile SQL into a tensor program, run it.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro import DataFrame, ExecutionOptions, TQPSession


def main() -> None:
    # 1. Ingest data (the paper uses Pandas; this repo ships a small stand-in).
    sales = DataFrame({
        "order_id": np.arange(1, 11, dtype=np.int64),
        "region": np.array(["EMEA", "EMEA", "APAC", "AMER", "APAC",
                            "AMER", "EMEA", "APAC", "AMER", "EMEA"], dtype=object),
        "amount": np.array([120.0, 80.0, 45.5, 210.0, 15.0,
                            99.9, 60.0, 310.0, 22.5, 140.0]),
        "order_date": np.array(["2024-01-03", "2024-01-15", "2024-02-01",
                                "2024-02-11", "2024-02-20", "2024-03-02",
                                "2024-03-09", "2024-03-15", "2024-04-01",
                                "2024-04-12"], dtype="datetime64[D]"),
    })

    # 2. Create a session and register the table.
    session = TQPSession()
    session.register("sales", sales)

    # 3. Compile a query.  The compilation stack is: SQL -> physical plan ->
    #    TQP IR -> tensor operator plan -> Executor.
    query = session.compile(
        """
        select region,
               count(*) as orders,
               sum(amount) as total_amount
        from sales
        where order_date >= date '2024-02-01'
        group by region
        order by total_amount desc
        """,
        # torchscript: trace + optimize the whole query as one graph
        options=ExecutionOptions(backend="torchscript", device="cpu"),
    )

    print("== Compiled plan ==")
    print(query.explain())

    # 4. Execute and fetch the result as a DataFrame.
    result = query.execute()
    print("\n== Result ==")
    print(result.to_dataframe())
    print(f"\nexecution time: {result.measured_s * 1e3:.2f} ms "
          f"on backend={result.backend} device={result.device}")

    # 5. One-line change to target another backend/device (Figure 3 of the paper).
    gpu_result = session.compile(query.sql, options=ExecutionOptions(
        backend="torchscript", device="cuda")).execute()
    print(f"simulated GPU time: {gpu_result.reported_s * 1e3:.3f} ms "
          "(results are identical)")
    assert gpu_result.to_dataframe().equals(result.to_dataframe())


if __name__ == "__main__":
    main()
