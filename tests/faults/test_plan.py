"""FaultPlan: the spec grammar, deterministic injection, the ledger."""

from __future__ import annotations

import pytest

from repro.errors import (
    ConfigError,
    DeviceFaultError,
    DiskFaultError,
    ExchangeFaultError,
    ShardFaultError,
)
from repro.faults import FaultPlan, FaultRule, parse_faults
from repro.faults.plan import ALWAYS


class TestGrammar:
    def test_every_kind_parses(self):
        plan = parse_faults(
            "device:join0:2,block:join0:1:3,shard:1:2,exchange:*,"
            "disk:R,slow:join0:0.5"
        )
        kinds = [rule.kind for rule in plan.rules]
        assert kinds == [
            "device", "block", "shard", "exchange", "disk", "slow",
        ]
        device, block, shard, exchange, disk, slow = plan.rules
        assert (device.target, device.count) == ("join0", 2)
        assert (block.target, block.block, block.count) == ("join0", 1, 3)
        assert (shard.target, shard.count) == ("1", 2)
        assert (exchange.target, exchange.count) == ("*", 1)
        assert (disk.target, disk.count) == ("R", 1)
        assert (slow.target, slow.seconds) == ("join0", 0.5)

    def test_kill_is_permanent(self):
        (rule,) = parse_faults("device:join1:kill").rules
        assert rule.count == ALWAYS
        assert rule.describe() == "device:join1:kill"

    def test_probability_rule(self):
        (rule,) = parse_faults("device:join0:p0.25").rules
        assert rule.probability == 0.25
        assert rule.describe() == "device:join0:p0.25"

    def test_describe_round_trips(self):
        spec = (
            "device:join0:3,block:join0:2:kill,shard:0,exchange:x,"
            "disk:*:4,slow:disk:0.01,device:comparison0:p0.5"
        )
        first = parse_faults(spec)
        again = parse_faults(
            ",".join(rule.describe() for rule in first.rules)
        )
        assert again.rules == first.rules

    @pytest.mark.parametrize("bad", [
        "",
        "device",
        "meteor:join0",
        "device::2",
        "shard:1:kill",           # only device faults can be permanent
        "exchange:*:kill",
        "device:join0:p1.5",      # probability out of range
        "device:join0:pxyz",
        "device:join0:-1",
        "device:join0:two",
        "device:join0:2:3",       # too many fields
        "block:join0",            # block needs an index
        "block:join0:x",
        "block:join0:-1:2",
        "slow:join0",             # slow needs seconds
        "slow:join0:fast",
        "slow:join0:-1",
    ])
    def test_bad_specs_raise_config_error(self, bad):
        with pytest.raises(ConfigError):
            parse_faults(bad)


class TestDeterministicInjection:
    def test_count_rule_fires_exactly_n_times_per_site(self):
        plan = parse_faults("device:join0:2")
        fired = [
            plan.device_fault("join0", "op0:join") is not None
            for _ in range(5)
        ]
        assert fired == [True, True, False, False, False]
        # A different op key is a different site with its own budget.
        assert plan.device_fault("join0", "op1:join") is not None
        # A different device never matches at all.
        assert plan.device_fault("comparison0", "op0:join") is None

    def test_fault_carries_the_device_name(self):
        plan = parse_faults("device:join0:1")
        fault = plan.device_fault("join0", "op0:join", scope="tenant")
        assert isinstance(fault, DeviceFaultError)
        assert fault.device == "join0"
        assert not fault.quarantined

    def test_probability_rule_is_seed_reproducible(self):
        def firing_sequence(seed):
            plan = parse_faults("device:join0:p0.5", seed=seed)
            return [
                plan.device_fault("join0", "op0") is not None
                for _ in range(32)
            ]

        assert firing_sequence(7) == firing_sequence(7)
        assert True in firing_sequence(7)
        assert False in firing_sequence(7)
        # Some seed pair must disagree, or the coin is not a coin.
        assert any(
            firing_sequence(0) != firing_sequence(seed)
            for seed in range(1, 5)
        )

    def test_block_rule_only_fires_when_the_block_exists(self):
        plan = parse_faults("block:join0:3:1")
        # The op decomposes into 2 blocks: block 3 never runs.
        assert plan.device_fault("join0", "op0", blocks=2) is None
        fault = plan.device_fault("join0", "op0", blocks=5)
        assert isinstance(fault, DeviceFaultError)
        assert "block 3" in str(fault)

    def test_disk_exchange_shard_and_wildcards(self):
        plan = parse_faults("disk:*,exchange:*,shard:2")
        assert isinstance(plan.disk_fault("R"), DiskFaultError)
        assert plan.disk_fault("R") is None          # budget spent
        assert isinstance(plan.disk_fault("S"), DiskFaultError)
        assert isinstance(
            plan.exchange_fault("__shard_x0"), ExchangeFaultError
        )
        assert isinstance(plan.shard_fault(2, "stage0"), ShardFaultError)
        assert plan.shard_fault(1, "stage0") is None

    def test_slowness_is_unconditional_and_per_device(self):
        plan = parse_faults("slow:join0:0.25")
        assert plan.slowness("join0") == 0.25
        assert plan.slowness("join0") == 0.25        # no budget to spend
        assert plan.slowness("comparison0") == 0.0


class TestLedger:
    def test_quarantine_is_idempotent_and_sorted(self):
        plan = parse_faults("device:join0:kill")
        assert plan.quarantine("join1")
        assert not plan.quarantine("join1")
        assert plan.quarantine("join0")
        assert plan.quarantined() == ["join0", "join1"]
        assert "join0" in plan.quarantined()
        assert "comparison0" not in plan.quarantined()

    def test_snapshot_counts_injections_by_kind(self):
        plan = parse_faults("device:join0:2,disk:R", seed=3)
        plan.device_fault("join0", "op0")
        plan.device_fault("join0", "op0")
        plan.disk_fault("R")
        plan.note_retry()
        plan.note_retry()
        snap = plan.snapshot()
        assert snap["injected"] == {"device": 2, "disk": 1}
        assert snap["retries"] == 2
        assert snap["seed"] == 3
        assert snap["rules"] == ["device:join0:2", "disk:R"]
        assert plan.injected == 3
        assert plan.retries == 2

    def test_summary_is_one_human_line(self):
        plan = parse_faults("device:join0:1")
        plan.device_fault("join0", "op0")
        plan.note_retry()
        plan.quarantine("join0")
        line = plan.summary()
        assert "1 injected" in line
        assert "1 retries" in line
        assert "join0" in line

    def test_repr_round_trips_the_rules(self):
        plan = parse_faults("device:join0:2,slow:disk:0.1", seed=5)
        assert "device:join0:2" in repr(plan)
        assert "seed=5" in repr(plan)

    def test_plan_accepts_explicit_rules(self):
        plan = FaultPlan([FaultRule(kind="disk", target="R")], seed=1)
        assert isinstance(plan.disk_fault("R"), DiskFaultError)
