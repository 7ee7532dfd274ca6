"""Direct tests for the barrier trace records."""

from repro.sync.trace import BarrierTrace, InstanceRecord
from repro.telemetry.events import SleepRecord


class TestSleepRecord:
    def test_fields(self):
        record = SleepRecord(
            state_name="Sleep3", resident_ns=1200, flushed_lines=40,
            woke_by="timer",
        )
        assert record.state_name == "Sleep3"
        assert record.resident_ns == 1200
        assert record.flushed_lines == 40
        assert record.woke_by == "timer"
        assert record.penalty_ns == 0  # default

    def test_penalty_is_mutable(self):
        record = SleepRecord("Sleep2", 10, 0, "invalidation")
        record.penalty_ns = 55
        assert record.penalty_ns == 55

    def test_equality(self):
        a = SleepRecord("Sleep1 (Halt)", 5, 0, "timer", penalty_ns=3)
        b = SleepRecord("Sleep1 (Halt)", 5, 0, "timer", penalty_ns=3)
        assert a == b
        assert a != SleepRecord("Sleep1 (Halt)", 5, 0, "invalidation", 3)


class TestInstanceRecord:
    def test_stall_ns_before_release_is_none(self):
        record = InstanceRecord(pc="b1", sequence=0)
        record.arrivals[0] = 100
        assert record.stall_ns(0) is None

    def test_stall_ns_after_release(self):
        record = InstanceRecord(pc="b1", sequence=0)
        record.arrivals = {0: 100, 1: 300}
        record.release_ts = 310
        assert record.stall_ns(0) == 210
        assert record.stall_ns(1) == 10
        assert record.stall_ns(7) is None  # never arrived
        assert record.stalls() == {0: 210, 1: 10}

    def test_stall_clamped_non_negative(self):
        record = InstanceRecord(pc="b1", sequence=0)
        record.arrivals = {0: 500}
        record.release_ts = 400
        assert record.stall_ns(0) == 0

    def test_imbalance_window(self):
        record = InstanceRecord(pc="b1", sequence=0)
        assert record.imbalance_window_ns == 0
        record.arrivals = {0: 100, 1: 250, 2: 180}
        assert record.imbalance_window_ns == 150

    def test_sleeps_hold_sleep_records(self):
        record = InstanceRecord(pc="b1", sequence=0)
        record.sleeps[3] = SleepRecord("Sleep3", 900, 12, "invalidation")
        assert record.sleeps[3].flushed_lines == 12


class TestBarrierTrace:
    def test_open_close_lifecycle(self):
        trace = BarrierTrace()
        record = trace.open_instance("b1")
        assert trace.current("b1") is record
        assert record.sequence == 0
        trace.close_instance("b1")
        assert trace.current("b1") is None
        assert trace.instances == [record]

    def test_sequence_is_global_across_pcs(self):
        trace = BarrierTrace()
        first = trace.open_instance("b1")
        second = trace.open_instance("b2")
        trace.close_instance("b1")
        third = trace.open_instance("b1")
        assert (first.sequence, second.sequence, third.sequence) == (0, 1, 2)

    def test_by_pc_in_dynamic_order(self):
        trace = BarrierTrace()
        a = trace.open_instance("b1")
        trace.open_instance("b2")
        trace.close_instance("b1")
        b = trace.open_instance("b1")
        assert trace.by_pc("b1") == [a, b]

    def test_total_stall_skips_unreleased(self):
        trace = BarrierTrace()
        released = trace.open_instance("b1")
        released.arrivals = {0: 0, 1: 40}
        released.release_ts = 50
        unreleased = trace.open_instance("b2")
        unreleased.arrivals = {0: 10}
        assert trace.total_stall_ns() == 50 + 10
        assert trace.released_instances() == [released]
