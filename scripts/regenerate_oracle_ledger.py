"""Rebuild the committed oracle_ledger.csv from scratch.

The ledger pins every ground-truth value the test suite relies on
(quadrature potentials, the closed-form minima of 2, 3 and 4 points on the
unit sphere, the candidate covering radius, a reference energy). The provenance check in ``rieszpoints verify``
replays these rows and demands bitwise agreement.
"""

from pathlib import Path

from rieszpoints.oracles import make_default_ledger_records, write_ledger


def main() -> None:
    root = Path(__file__).resolve().parents[1]
    path = root / "oracle_ledger.csv"
    records = make_default_ledger_records()
    write_ledger(path, records)
    for rec in records:
        print(f"{rec.name}: {rec.value!r} (err {rec.error_estimate:.3e})")
    print(f"wrote {len(records)} rows to {path}")


if __name__ == "__main__":
    main()
