"""The cost-based physical planner: lowering, assignment, chains (E18)."""

import pytest

from repro.arrays.decomposition import ArrayCapacity
from repro.machine import (
    Base,
    Dedup,
    Divide,
    Intersect,
    Join,
    Project,
    StageCost,
    SystolicDatabaseMachine,
    analyze_chain,
)
from repro.machine.disk import MachineDisk
from repro.machine.physical import (
    OP_ARRAY,
    OP_LOAD,
    actual_cost,
    roster_fingerprint,
)
from repro.machine.plan import DEVICE_COMPARISON
from repro.perf.disk import DiskModel
from repro.relational import algebra
from repro.workloads import join_pair, overlapping_pair


@pytest.fixture
def joined_catalog():
    ja, jb = join_pair(40, 35, 20, seed=5)
    d = algebra.project(jb, ["b0"])
    return {"JA": ja, "JB": jb, "D": d}


@pytest.fixture
def chain_plan():
    return Divide(
        Project(Join(Base("JA"), Base("JB"), on=(("key", "key"),)),
                ("a0", "b0")),
        Base("D"), a_value="b0", a_group="a0",
    )


def preloaded(catalog, **kwargs):
    machine = SystolicDatabaseMachine(**kwargs)
    for name, relation in catalog.items():
        machine.preload(name, relation)
    return machine


def stored(catalog, **kwargs):
    machine = SystolicDatabaseMachine(**kwargs)
    for name, relation in catalog.items():
        machine.store(name, relation)
    return machine


#: JA (480 bytes) and JB (420) fill a 900-byte cylinder, so D (140)
#: goes onto the next one.  Every read alone still takes one revolution.
SPLIT_DISK = DiskModel(cylinder_bytes=900)


class TestCompile:
    def test_compile_is_pure(self, joined_catalog, chain_plan):
        machine = stored(joined_catalog)
        machine.compile(chain_plan)
        machine.compile(chain_plan)
        # Nothing was loaded into the memories by compiling.
        assert all(m.used_bytes == 0 for m in machine.memories)

    def test_device_assignments_cover_all_kinds(
        self, joined_catalog, chain_plan
    ):
        machine = stored(joined_catalog)
        physical = machine.compile(chain_plan)
        assignments = {op.label: op.device for op in physical.ops}
        assert assignments["join[key==key]"] == "join0"
        assert assignments["project[a0,b0]"] == "comparison0"
        assert assignments["divide"] == "division0"
        assert assignments["load JA"] == "disk"

    def test_block_counts_match_executed_blocks(self, joined_catalog):
        plan = Intersect(Base("JA"), Base("JA2"))
        ja = joined_catalog["JA"]
        machine = stored({"JA": ja, "JA2": ja})
        physical = machine.compile(plan)
        [op] = [op for op in physical.ops if op.kind == OP_ARRAY]
        _, report = machine.run_physical(physical)
        [step] = [s for s in report.steps if s.device == "comparison0"]
        # Base inputs have exact sizes, so predicted blocks are exact.
        assert op.block_runs == step.block_runs
        assert op.cost.total_pulses == step.pulses

    def test_explain_mentions_devices_blocks_and_makespan(
        self, joined_catalog, chain_plan
    ):
        machine = stored(joined_catalog)
        text = machine.compile(chain_plan).explain()
        assert "join0" in text
        assert "comparison0" in text
        assert "division0" in text
        assert "predicted makespan" in text
        assert "chain" in text

    def test_pipeline_false_fuses_nothing(self, joined_catalog, chain_plan):
        machine = preloaded(joined_catalog)
        physical = machine.compile(chain_plan, pipeline=False)
        assert all(op.chain is None for op in physical.ops)

    def test_run_lowers_implicitly(self, joined_catalog, chain_plan):
        machine = stored(joined_catalog)
        result, report = machine.run(chain_plan)
        expected = algebra.divide(
            algebra.project(
                algebra.join(joined_catalog["JA"], joined_catalog["JB"],
                             [("key", "key")]),
                ["a0", "b0"],
            ),
            joined_catalog["D"], a_value="b0", a_group="a0",
        )
        assert result == expected


class TestCostAwarePick:
    def test_routes_to_the_bigger_array(self):
        # Two comparison devices, one tiny and one full-size; both are
        # free, so first-free would take comparison0 (name tie-break) —
        # the cost model must see that the big array runs far fewer §8
        # blocks and finishes sooner.
        a, b = overlapping_pair(60, 60, 20, arity=2, seed=9)
        machine = preloaded(
            {"A": a, "B": b},
            devices=(
                (DEVICE_COMPARISON, 1, ArrayCapacity(max_rows=3, max_cols=2)),
                (DEVICE_COMPARISON, 1, ArrayCapacity(max_rows=63, max_cols=8)),
            ),
        )
        physical = machine.compile(Intersect(Base("A"), Base("B")))
        [op] = [op for op in physical.ops if op.kind == OP_ARRAY]
        assert op.device == "comparison1"
        result, _ = machine.run_physical(physical)
        assert result[0] == algebra.intersection(a, b)

    def test_parallel_work_still_splits_across_twins(self):
        a, b = overlapping_pair(12, 10, 5, arity=2, seed=10)
        machine = preloaded(
            {"A": a, "B": b}, devices=((DEVICE_COMPARISON, 2),)
        )
        physical = machine.compile(
            [Intersect(Base("A"), Base("B")), Dedup(Base("A"))]
        )
        devices = {
            op.device for op in physical.ops if op.kind == OP_ARRAY
        }
        assert devices == {"comparison0", "comparison1"}


class TestPipelinedChains:
    def test_chain_fuses_three_stages(self, joined_catalog, chain_plan):
        machine = preloaded(joined_catalog)
        physical = machine.compile(chain_plan)
        fused = [c for c in physical.chains if len(c) > 1]
        assert len(fused) == 1
        labels = [physical[i].label for i in fused[0].op_ids]
        assert labels == ["join[key==key]", "project[a0,b0]", "divide"]

    def test_makespan_follows_the_pipeline_law(
        self, joined_catalog, chain_plan
    ):
        """Acceptance: simulated pipelined makespan == Σ fill + max stream,
        and it beats store-and-forward, with software-identical results."""
        pipelined = preloaded(joined_catalog)
        physical = pipelined.compile(chain_plan)
        (result_p,), report_p = pipelined.run_physical(physical)
        forward = preloaded(joined_catalog)
        result_s, report_s = forward.run(chain_plan, pipeline=False)

        expected = algebra.divide(
            algebra.project(
                algebra.join(joined_catalog["JA"], joined_catalog["JB"],
                             [("key", "key")]),
                ["a0", "b0"],
            ),
            joined_catalog["D"], a_value="b0", a_group="a0",
        )
        assert result_p == expected
        assert result_s == expected
        assert report_p.makespan < report_s.makespan

        # Rebuild the stage costs independently: stand-alone stage times
        # come from the store-and-forward report, fills from the same
        # schedule arithmetic the devices execute, in the blocked
        # variant each stage runs in the chain.
        variants = {op.label: op.variant for op in physical.ops}
        joined = algebra.join(joined_catalog["JA"], joined_catalog["JB"],
                              [("key", "key")])
        projected = algebra.project(joined, ["a0", "b0"])
        plan_inputs = {
            "join[key==key]": [joined_catalog["JA"], joined_catalog["JB"]],
            "project[a0,b0]": [joined],
            "divide": [projected, joined_catalog["D"]],
        }
        nodes = {
            "join[key==key]": chain_plan.left.child,
            "project[a0,b0]": chain_plan.left,
            "divide": chain_plan,
        }
        stages = []
        for label in ("join[key==key]", "project[a0,b0]", "divide"):
            [step] = [s for s in report_s.steps if s.label == label]
            device = next(
                d for d in forward.devices if d.name == step.device
            )
            cost = actual_cost(
                nodes[label], plan_inputs[label],
                device.capacity.max_rows, device.capacity.max_cols,
                variant=variants[label],
            )
            fill = min(
                device.technology.pulses_to_seconds(cost.fill_pulses),
                step.duration,
            )
            stages.append(StageCost(
                name=label, fill=fill, stream=step.duration - fill
            ))
        timing = analyze_chain(stages)
        chain_steps = [s for s in report_p.steps if s.device != "disk"]
        chain_start = min(s.start for s in chain_steps)
        chain_end = max(s.end for s in chain_steps)
        assert chain_end - chain_start == pytest.approx(timing.pipelined)
        assert report_s.makespan == pytest.approx(timing.store_and_forward)

    def test_intermediates_stream_through_the_switch(
        self, joined_catalog, chain_plan
    ):
        machine = preloaded(joined_catalog)
        _, report = machine.run_physical(machine.compile(chain_plan))
        by_label = {s.label: s for s in report.steps}
        assert by_label["join[key==key]"].output_memory == "->comparison0"
        assert by_label["project[a0,b0]"].output_memory == "->division0"
        assert by_label["divide"].output_memory.startswith("mem")

    def test_fusion_skipped_when_disk_feeds_a_late_input(
        self, joined_catalog, chain_plan
    ):
        # Disk-fed: the divisor load, on another cylinder than the
        # join's inputs, finishes long after the join would, so fusing
        # the divide in would only delay the upstream stages.
        machine = stored(joined_catalog, disk=MachineDisk(SPLIT_DISK))
        physical = machine.compile(chain_plan)
        assert [op.sweep for op in physical.ops if op.kind == OP_LOAD] == [
            0, 0, None,
        ]
        divide_op = next(
            op for op in physical.ops if op.label == "divide"
        )
        join_op = next(
            op for op in physical.ops if op.label.startswith("join")
        )
        assert divide_op.chain != join_op.chain

    def test_predicted_makespan_close_to_simulated(
        self, joined_catalog, chain_plan
    ):
        machine = stored(joined_catalog)
        physical = machine.compile(chain_plan)
        _, report = machine.run_physical(physical)
        # Load times are exact and dominate here; the array-time estimate
        # may differ (estimated rows), but not by an order of magnitude.
        assert physical.predicted_makespan == pytest.approx(
            report.makespan, rel=0.05
        )

    def test_chains_disabled_gives_legacy_store_and_forward(
        self, joined_catalog, chain_plan
    ):
        machine = preloaded(joined_catalog)
        _, report = machine.run_many([chain_plan], pipeline=False)
        steps = sorted(
            (s for s in report.steps if s.device != "disk"),
            key=lambda s: s.start,
        )
        for before, after in zip(steps, steps[1:]):
            assert after.start >= before.end


class TestLoadOps:
    def test_loads_stay_serial_on_the_disk(self, joined_catalog, chain_plan):
        """Loads on one cylinder share one window (§8's whole-cylinder
        read); loads on different cylinders stay serial."""
        machine = stored(joined_catalog)
        physical = machine.compile(chain_plan)
        loads = [op for op in physical.ops if op.kind == OP_LOAD]
        assert len(loads) == 3
        assert {(op.est_start, op.est_end) for op in loads} == {
            (0.0, machine.disk.model.revolution_seconds)
        }
        assert "disk sweep on cylinder 0: ops 0, 1, 4" in physical.explain()

        split = stored(joined_catalog, disk=MachineDisk(SPLIT_DISK))
        ja, jb, d = [
            op for op in split.compile(chain_plan).ops if op.kind == OP_LOAD
        ]
        assert (ja.est_start, ja.est_end) == (jb.est_start, jb.est_end)
        assert d.est_start >= ja.est_end


class TestBitLevelDevices:
    """§8 bit-level comparison arrays in the roster: the planner prices
    word columns against bit comparators and picks whichever finishes
    first."""

    ROSTER = (
        # A column-starved word device: arity-8 tuples re-stream 8×.
        (DEVICE_COMPARISON, 1, ArrayCapacity(max_rows=63, max_cols=1)),
        # The same silicon spent on bit comparators: 256 bit columns
        # swallow an 8-word × 32-bit tuple in one pass.
        (DEVICE_COMPARISON, 1, ArrayCapacity(max_rows=63, max_cols=256), 32),
    )

    def test_planner_picks_the_bit_device_for_wide_tuples(self):
        a, b = overlapping_pair(60, 60, 20, arity=8, seed=9)
        machine = preloaded(
            {"A": a, "B": b}, devices=self.ROSTER, backend="bitplane"
        )
        physical = machine.compile(Intersect(Base("A"), Base("B")))
        [op] = [op for op in physical.ops if op.kind == OP_ARRAY]
        assert op.device == "comparison1"
        assert op.est_bits == 8 * 32
        result, report = machine.run_physical(physical)
        assert result[0] == algebra.intersection(a, b)
        # Base inputs have exact sizes: the bit-comparison cost terms
        # predict the bit device's executed pulses exactly.
        [step] = [s for s in report.steps if s.device == "comparison1"]
        assert op.cost.total_pulses == step.pulses
        assert op.block_runs == step.block_runs

    def test_word_device_keeps_narrow_tuples(self):
        a, b = overlapping_pair(60, 60, 20, arity=2, seed=9)
        machine = preloaded(
            {"A": a, "B": b},
            devices=(
                (DEVICE_COMPARISON, 1,
                 ArrayCapacity(max_rows=63, max_cols=8)),
                (DEVICE_COMPARISON, 1,
                 ArrayCapacity(max_rows=63, max_cols=256), 32),
            ),
        )
        physical = machine.compile(Intersect(Base("A"), Base("B")))
        [op] = [op for op in physical.ops if op.kind == OP_ARRAY]
        assert op.device == "comparison0"
        assert op.est_bits == 2 * machine.element_bits

    def test_bit_device_runs_every_equality_operator(self):
        a, b = overlapping_pair(30, 25, 10, arity=4, seed=4)
        bit_only = (
            (DEVICE_COMPARISON, 1,
             ArrayCapacity(max_rows=63, max_cols=128), 32),
        )
        machine = preloaded(
            {"A": a, "B": b}, devices=bit_only, backend="lattice"
        )
        from repro.machine import Difference, Union
        cases = [
            (Intersect(Base("A"), Base("B")), algebra.intersection(a, b)),
            (Difference(Base("A"), Base("B")), algebra.difference(a, b)),
            (Union(Base("A"), Base("B")), algebra.union(a, b)),
            (Dedup(Base("A")), a),
            (Project(Base("A"), ("c0", "c1")),
             algebra.project(a, ["c0", "c1"])),
        ]
        for plan, expected in cases:
            result, _ = machine.run(plan)
            assert result == expected, plan.describe()

    def test_explain_shows_bits_and_backend(self):
        a, b = overlapping_pair(60, 60, 20, arity=8, seed=9)
        machine = preloaded({"A": a, "B": b}, devices=self.ROSTER)
        text = machine.compile(Intersect(Base("A"), Base("B"))).explain()
        assert "bits" in text
        assert "256" in text          # 8 columns × 32 bits on the bit device
        assert "backend pulse" in text

    def test_bit_devices_are_comparison_only(self):
        from repro.errors import PlanError
        from repro.machine.device import SystolicDevice
        from repro.machine.plan import DEVICE_JOIN
        with pytest.raises(PlanError, match="comparison"):
            SystolicDevice("j0", DEVICE_JOIN, element_bits=32)
        with pytest.raises(PlanError, match=">= 1"):
            SystolicDevice("c0", DEVICE_COMPARISON, element_bits=0)

    def test_roster_fingerprint_sees_element_bits(self):
        # Two machines whose rosters differ only in element_bits must
        # not share compiled plans.
        word = preloaded({}, devices=(
            (DEVICE_COMPARISON, 1, ArrayCapacity(max_rows=63, max_cols=64)),
        ))
        bit = preloaded({}, devices=(
            (DEVICE_COMPARISON, 1,
             ArrayCapacity(max_rows=63, max_cols=64), 8),
        ))
        assert roster_fingerprint(word.devices) != roster_fingerprint(
            bit.devices
        )
