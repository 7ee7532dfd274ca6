"""Spin-then-sleep barrier: the conventional low-power wait policy.

Section 5.1 mentions "executing Halt after spinning unsuccessfully for a
while" as the traditional alternative, bounded from below by
Oracle-Halt. This barrier spins for a fixed threshold, then executes
Halt and relies purely on the external (invalidation) wake-up — there is
no prediction, so there is no internal timer.
"""

from repro.energy.accounting import Category
from repro.errors import ConfigError
from repro.sim.events import AnyOf
from repro.sync.barrier import BarrierBase
from repro.telemetry.events import SleepRecord


class SpinThenSleepBarrier(BarrierBase):
    """Spin for ``spin_threshold_ns``, then Halt until invalidated."""

    def __init__(
        self, system, domain, n_threads, pc,
        sleep_state, spin_threshold_ns=50_000, trace=None,
    ):
        super().__init__(system, domain, n_threads, pc, trace=trace)
        if spin_threshold_ns < 0:
            raise ConfigError("spin threshold must be non-negative")
        if not sleep_state.snoops:
            raise ConfigError(
                "spin-then-sleep needs a snooping state (no prediction "
                "exists to amortize a flush)"
            )
        self.sleep_state = sleep_state
        self.spin_threshold_ns = spin_threshold_ns
        self.stats_sleeps = 0

    def wait(self, node, dirty_lines=0):
        thread_id = node.node_id
        sense = self._flip_sense(thread_id)
        is_last, record = yield from self._check_in(node)
        if is_last:
            bit = self.domain.measure_bit(thread_id)
            record.measured_bit = bit
            yield from node.cpu.mem_op_as(
                Category.SPIN,
                self.memsys.store(node.node_id, self.domain.bit_addr, bit),
            )
            yield from self._release(node, sense, record)
            self.domain.record_observed_release(thread_id)
            self._depart(node, record)
            return record
        yield from self._bounded_spin_then_halt(node, sense, record)
        yield from self._spin_on_flag(node, sense)
        self.domain.record_observed_release(thread_id)
        self._depart(node, record)
        return record

    def _bounded_spin_then_halt(self, node, sense, record):
        cpu = node.cpu
        controller = node.controller
        value = yield from cpu.mem_op_as(
            Category.SPIN,
            self.memsys.load(node.node_id, self.flag_addr),
        )
        if value == sense:
            return
        fired = self.sim.event()

        def on_invalidation(_line):
            if not fired.triggered:
                fired.succeed()

        key = controller.arm_flag_monitor(self.flag_addr, on_invalidation)
        if self._monitor_raced(node, sense):
            controller.disarm_flag_monitor(key, on_invalidation)
            return
        deadline = self.sim.timeout(self.spin_threshold_ns)
        winner_race = AnyOf(self.sim, [fired, deadline])
        yield from cpu.spin_until(winner_race)
        if winner_race.value is fired:
            return  # released during the bounded spin
        # Threshold expired: Halt until the invalidation arrives.
        self.stats_sleeps += 1
        outcome = yield from cpu.sleep(self.sleep_state, fired)
        record.sleeps[node.node_id] = SleepRecord(
            state_name=self.sleep_state.name,
            resident_ns=outcome.resident_ns,
            flushed_lines=0,
            woke_by="invalidation",
        )
