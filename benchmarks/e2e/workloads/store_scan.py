"""``store_scan`` — the out-of-core store and the tuple boxing behind it.

An in-process :class:`~repro.store.RelationStore` in a scratch
directory holds the scaled suppliers-parts ``SP`` relation.  Raw scans
(full, equality-pruned, range-pruned) go through
:meth:`StoredRelation.read`; ``machine_select`` builds a
:class:`SystolicDatabaseMachine`, attaches the store and runs an
equality probe (pruned during the disk read) with a second predicate
for the host CPU — a fresh machine each time, because the machine keeps
results resident and its timeline grows from run to run; and
``write_drop`` writes, opens and drops a fresh relation beside the
reads.  The chunk files were written moments earlier, so reads are
served from the operating system's page cache: latencies are this
sandbox's, not a disk's.
"""

from __future__ import annotations

import numpy as np

from repro.machine import Base, MachineDisk, Select, SystolicDatabaseMachine
from repro.relational.domain import IntegerDomain
from repro.relational.schema import Schema
from repro.store import RelationStore

from benchmarks.e2e.harness import Op, Outcome, Workload, digest_rows

__all__ = ["StoreScan"]

ROWS = 131_072
CHUNK_ROWS = 8_192  # 16 chunks, so the store cuts an 8 x 8 grid
FRESH_ROWS = 32_768  # what write_drop writes: 4 chunks, a 4 x 4 grid
S_VALUES = 1_000
P_VALUES = 2_000
#: per round: 3 full scans (the tail the 90th percentile lands on) among
#: 18 pruned reads (the median lands on scan_range) and one write.
FULL_SCANS = 3
EQ_PROBES = (123, 456, 789, 321)
RANGE_PROBES = (100, 96, 104, 98, 102, 97, 103, 99, 101, 95)  # ~5 % of SP
MACHINE_PROBES = (234, 567, 890, 432)

_INT = IntegerDomain("int")
SCHEMA = Schema.of(("s", _INT), ("p", _INT), ("qty", _INT))
_NUMPY_OPS = {"==": np.equal, "<": np.less}


def sp_rows(n: int, grid: int, seed: int) -> np.ndarray:
    """``n`` distinct (s, p, qty) rows, the same number in every cell of
    a ``grid`` x ``grid`` partition of the (s, p) value space.

    Values are random inside each cell, but the equal cell counts make
    the store's quantile scales and Morton-ordered chunks line up with
    the cells for every seed, so the chunks a probe reads — and the
    simulated disk time billed for them — do not depend on the seed.
    ``qty`` keeps rows distinct under set semantics.
    """
    rng = np.random.default_rng(seed)
    per_cell, rest = divmod(n, grid * grid)
    if rest or S_VALUES % grid or P_VALUES % grid:
        raise ValueError(f"{n} rows do not fill a {grid} x {grid} grid evenly")
    cell = np.repeat(np.arange(grid * grid), per_cell)
    s_width, p_width = S_VALUES // grid, P_VALUES // grid
    rows = np.stack(
        [(cell // grid) * s_width + rng.integers(0, s_width, n),
         (cell % grid) * p_width + rng.integers(0, p_width, n),
         np.arange(n)],
        axis=1,
    )
    return rows[rng.permutation(n)]


class StoreScan(Workload):
    name = "store_scan"

    def setup(self) -> None:
        self.rows = sp_rows(ROWS, 8, self.seed)
        self.fresh = sp_rows(FRESH_ROWS, 4, self.seed + 1)
        self.store = RelationStore(self.scratch / "store")
        self.handle = self.store.write_array(
            "SP", self.rows, SCHEMA, chunk_rows=CHUNK_ROWS,
            index_columns=("s", "p"),
        )
        self.disk = MachineDisk()  # the timing model raw scans are billed by
        on_disk = sum(
            f.stat().st_size for f in self.handle.path.iterdir()
        )
        self.setup_metrics["store.bytes_on_disk_per_user_byte"] = (
            on_disk / self.rows.nbytes
        )

    def describe(self) -> str:
        return (
            f"SP {ROWS} x 3 int64 in {self.handle.n_chunks} chunks of "
            f"{CHUNK_ROWS} rows, indexed on (s, p); write_drop writes "
            f"{FRESH_ROWS} rows; reads come from the OS page cache"
        )

    # -- operations --------------------------------------------------------

    def _scanned(self, scan) -> Outcome:
        element_bytes = (self.disk.element_bits + 7) // 8
        sim = self.disk.model.read_seconds(
            scan.rows_scanned * self.handle.arity * element_bytes
        )
        return Outcome(
            rows=len(scan.relation),
            digest=digest_rows(scan.relation.tuples),
            sim_ms=sim * 1e3,
        )

    def _machine_select(self, value: int):
        machine = SystolicDatabaseMachine(backend="lattice")
        machine.attach_store(self.store)
        probe = Select(Base("SP"), column="s", op="==", value=value)
        return machine.run(
            Select(probe, column="p", op="<", value=P_VALUES // 2)
        )

    @staticmethod
    def _selected(raw) -> Outcome:
        relation, report = raw
        return Outcome(
            rows=len(relation),
            digest=digest_rows(relation.tuples),
            sim_ms=report.makespan * 1e3,
        )

    def _write_drop(self):
        handle = self.store.write_array(
            "FRESH", self.fresh, SCHEMA, chunk_rows=CHUNK_ROWS,
            index_columns=("s", "p"),
        )
        reopened = self.store.open("FRESH")
        # One pruned read proves the new bytes and index are usable.
        scan = reopened.read(("s", "==", EQ_PROBES[0]))
        self.store.drop("FRESH")
        return handle, reopened, scan

    def _written(self, raw) -> Outcome:
        handle, reopened, scan = raw
        if self.store.holds("FRESH") or reopened.digest != handle.digest:
            raise AssertionError("write_drop left the store inconsistent")
        return Outcome(
            rows=reopened.rows + len(scan.relation),
            digest=digest_rows(scan.relation.tuples),
        )

    # -- oracle: numpy brute force over the generated rows ------------------

    def _brute(self, rows: np.ndarray, *selections):
        def run() -> tuple[int, str]:
            hit = rows
            for column, op, value in selections:
                position = SCHEMA.resolve(column)
                hit = hit[_NUMPY_OPS[op](hit[:, position], value)]
            return len(hit), digest_rows(hit)
        return run

    def ops(self) -> list[Op]:
        def scan_op(kind: str, selection, key: str) -> Op:
            oracle = self._brute(
                self.rows, *([selection] if selection else [])
            )
            return Op(
                kind, lambda: self.handle.read(selection), self._scanned,
                oracle, key,
            )

        ops = [scan_op("full_scan", None, "full") for _ in range(FULL_SCANS)]
        ops += [
            scan_op("scan_eq", ("s", "==", v), f"eq/{v}") for v in EQ_PROBES
        ]
        ops += [
            scan_op("scan_range", ("p", "<", v), f"range/{v}")
            for v in RANGE_PROBES
        ]
        ops += [
            Op("machine_select", lambda v=v: self._machine_select(v),
               self._selected,
               self._brute(
                   self.rows, ("s", "==", v), ("p", "<", P_VALUES // 2)
               ),
               f"machine/{v}")
            for v in MACHINE_PROBES
        ]

        def write_reference() -> tuple[int, str]:
            rows, digest = self._brute(
                self.fresh, ("s", "==", EQ_PROBES[0])
            )()
            return FRESH_ROWS + rows, digest

        ops.append(Op("write_drop", self._write_drop, self._written,
                      write_reference, "write"))
        return ops
