"""The §9 pipelined-chain timing law."""

import pytest

from repro.errors import PlanError
from repro.machine.pipelining import ChainTiming, StageCost, analyze_chain


class TestStageCost:
    def test_total(self):
        assert StageCost("s", fill=3, stream=10).total == 13

    def test_validation(self):
        with pytest.raises(PlanError):
            StageCost("s", fill=-1, stream=0)


class TestChainLaw:
    def test_single_stage_disciplines_coincide(self):
        timing = analyze_chain([StageCost("only", fill=5, stream=20)])
        assert timing.store_and_forward == timing.pipelined == 25
        assert timing.speedup == 1.0

    def test_two_stage_chain(self):
        timing = analyze_chain([
            StageCost("a", fill=4, stream=30),
            StageCost("b", fill=6, stream=20),
        ])
        assert timing.store_and_forward == 60
        # fills in series, streams overlap: 4 + 6 + max(30, 20)
        assert timing.pipelined == 40
        assert timing.speedup == pytest.approx(1.5)

    def test_bottleneck_identified(self):
        timing = analyze_chain([
            StageCost("fast", fill=1, stream=5),
            StageCost("slow", fill=1, stream=50),
            StageCost("mid", fill=1, stream=20),
        ])
        assert timing.bottleneck.name == "slow"

    def test_speedup_grows_with_chain_length(self):
        stage = StageCost("s", fill=2, stream=100)
        short = analyze_chain([stage] * 2)
        long = analyze_chain([stage] * 5)
        assert long.speedup > short.speedup
        # Limit: k stages of equal stream -> speedup -> k as fills vanish.
        assert long.speedup == pytest.approx(
            (5 * 102) / (5 * 2 + 100)
        )

    def test_pipelined_never_slower(self):
        chains = [
            [StageCost("a", 0, 0)],
            [StageCost("a", 3, 7), StageCost("b", 2, 9)],
            [StageCost("a", 1, 1), StageCost("b", 1, 1), StageCost("c", 9, 0)],
        ]
        for stages in chains:
            timing = analyze_chain(stages)
            assert timing.pipelined <= timing.store_and_forward

    def test_zero_length_chain_rejected(self):
        with pytest.raises(PlanError):
            analyze_chain([])

    def test_all_zero_costs(self):
        timing = analyze_chain([StageCost("z", 0, 0)])
        assert timing.pipelined == 0
        assert timing.speedup == 1.0


class TestRealisticChain:
    def test_join_project_chain_from_array_geometry(self):
        # Stage costs straight from the arrays' schedules: a join array
        # (fill ≈ rows) feeding a dedup array (fill ≈ rows + m).
        from repro.systolic.engine.schedule import CounterStreamSchedule

        join_schedule = CounterStreamSchedule(n_a=50, n_b=40, arity=1)
        dedup_schedule = CounterStreamSchedule(n_a=60, n_b=60, arity=2)
        chain = analyze_chain([
            StageCost("join", fill=join_schedule.rows,
                      stream=join_schedule.comparison_pulses),
            StageCost("dedup", fill=dedup_schedule.rows,
                      stream=dedup_schedule.total_pulses),
        ])
        assert chain.pipelined < chain.store_and_forward
        assert chain.speedup > 1.3
