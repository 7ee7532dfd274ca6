"""The thrifty barrier (paper Section 3).

An early-arriving thread:

1. checks in (count++ under the lock, Figure 2 S1);
2. estimates its stall: predicted BIT (PC-indexed last-value) plus its
   local BRTS gives the estimated wake-up time; minus "now" gives the
   stall (Section 3.2.1);
3. asks the sleep library for the deepest sleep state whose round-trip
   transition — plus flush cost for non-snooping states — fits the
   estimated stall (Section 3.1); if none fits, or prediction is cold or
   disabled, it spins conventionally;
4. otherwise it programs the cache controller: reads the flag (which
   both checks for an already-released barrier and installs the shared
   copy whose invalidation is the external wake-up), arms the flag
   monitor and the countdown timer, and sleeps; the first wake source
   cancels the other (hybrid wake-up, Section 3.3.2);
5. after waking it spins residually on the flag (correctness against
   false/early wake-ups, Section 3.3.1), reads the published BIT,
   advances its BRTS, and applies the overprediction cut-off
   (Section 3.3.3).

The last thread to arrive measures the actual BIT on its local clock,
passes it through the underprediction filter (Section 3.4.2) before
training the predictor, publishes it in the shared BIT variable (with a
write fence before the flag flip — free in the simulator, noted for
fidelity), and releases the barrier.
"""

from dataclasses import dataclass, field

from repro.config import ThriftyConfig
from repro.energy.states import select_sleep_state
from repro.errors import ConfigError
from repro.predict.thresholds import is_overpredicted, should_update_predictor
from repro.sim.events import AnyOf
from repro.sync.barrier import BarrierBase
from repro.telemetry.events import (
    LateWake,
    PredictorDisable,
    PredictorFiltered,
    PredictorHit,
    PredictorReenable,
    PredictorTrain,
    SleepRecord,
    WakeUp,
)

#: Cycles spent running the prediction/selection code at check-in — the
#: "lightweight control algorithm" whose cost Kumar et al. found
#: negligible; charged as Spin time.
PREDICTION_OVERHEAD_NS = 40

#: Issue cost of the post-barrier read of the shared BIT variable; the
#: miss itself overlaps with the computation that follows.
BIT_READ_OVERHEAD_NS = 24


@dataclass
class ThriftyStats:
    """Per-barrier behaviour counters."""

    arrivals: int = 0
    last_arrivals: int = 0
    sleeps: int = 0
    sleeps_by_state: dict = field(default_factory=dict)
    spin_fallbacks: int = 0      # no state fit the predicted slack
    cold_spins: int = 0          # no prediction available
    disabled_spins: int = 0      # overprediction cut-off engaged
    aborted_sleeps: int = 0      # flag already flipped at monitor arming
    timer_wakes: int = 0
    invalidation_wakes: int = 0
    cutoff_disables: int = 0
    filtered_updates: int = 0
    spurious_wakes: int = 0      # woken by neither source (fault injection)
    fallback_sleeps: int = 0     # disabled thread used spin-then-sleep
    probation_reenables: int = 0  # disable lifted after safe episodes


class ThriftyBarrier(BarrierBase):
    """Drop-in replacement for :class:`ConventionalBarrier`."""

    def __init__(
        self, system, domain, n_threads, pc,
        config=None, trace=None,
    ):
        super().__init__(system, domain, n_threads, pc, trace=trace)
        self.config = config or ThriftyConfig()
        self.stats = ThriftyStats()
        # flush_ns -> ((cost, state), ...) deepest-savings first; see
        # _choose_state.
        self._selection_cache = {}

    # -- the sleep() "library call" of Section 3.1 --------------------------

    def _flush_estimate_ns(self, dirty_lines):
        machine = self.system.config
        return machine.flush_base_ns + dirty_lines * machine.flush_per_line_ns

    def _choose_state(self, est_stall_ns, dirty_lines):
        flush_ns = self._flush_estimate_ns(dirty_lines)
        if not self.config.conditional_sleep:
            return select_sleep_state(
                self.config.sleep_states, est_stall_ns,
                flush_ns=flush_ns, conditional=False,
            )
        # The state menu and flush cost are fixed per dirty footprint,
        # so the table scan of select_sleep_state collapses to a
        # precomputed (cost, state) list ordered by descending savings:
        # the first affordable entry is the answer. Ties keep the
        # table's scan order (sorted() is stable), matching the
        # strictly-greater comparison of the reference scan.
        table = self._selection_cache.get(flush_ns)
        if table is None:
            if not list(self.config.sleep_states):
                raise ConfigError("no sleep states supplied")
            table = tuple(sorted(
                (
                    (
                        state.round_trip_ns
                        + (0 if state.snoops else flush_ns),
                        state,
                    )
                    for state in self.config.sleep_states
                ),
                key=lambda pair: pair[1].power_savings,
                reverse=True,
            ))
            self._selection_cache[flush_ns] = table
        for cost, state in table:
            if cost <= est_stall_ns:
                return state
        return None

    def _sleep(self, node, sense, state, est_wake_ts, dirty_lines, record):
        """Program the controller and sleep; returns the wake timestamp
        (None when the sleep was aborted because the barrier had already
        been released)."""
        cpu = node.cpu
        controller = node.controller
        # The controller reads the flag in: this both checks the value
        # (abort if already flipped) and installs the shared copy whose
        # invalidation will wake us.
        started = self.sim._now
        value = yield from self.memsys.load(node.node_id, self.flag_addr)
        cpu.charge_spin(self.sim._now - started)
        if value == sense:
            self.stats.aborted_sleeps += 1
            return None
        wake_sources = []
        external = None
        monitor_key = None

        def on_invalidation(_line):
            if external is not None and not external.triggered:
                external.succeed()

        if self.config.use_external_wakeup:
            external = self.sim.event()
            monitor_key = controller.arm_flag_monitor(
                self.flag_addr, on_invalidation
            )
            # The controller reads the flag in at arming: abort if the
            # flip already landed, or if the line was invalidated in the
            # same instant our read completed (that INV's wake-up is
            # lost, so sleeping now would miss the release).
            if self._monitor_raced(node, sense):
                controller.disarm_flag_monitor(monitor_key, on_invalidation)
                self.stats.aborted_sleeps += 1
                return None
            wake_sources.append(external)
        timer = None
        timer_handle = None
        if self.config.use_internal_wakeup:
            # Anticipate the release: count down to the predicted wake
            # time minus the exit latency (Section 3.3.2).
            delay = max(
                0, est_wake_ts - self.sim._now - state.transition_latency_ns
            )
            timer = self.sim.event()
            timer_handle = controller.arm_wake_timer(delay, timer.succeed)
            wake_sources.append(timer)
        wake = AnyOf(self.sim, wake_sources)
        outcome = yield from cpu.sleep(
            state, wake, controller=controller, flush_lines=dirty_lines,
        )
        # First wake source cancels the other.
        woke_by = "timer"
        if external is not None and wake.value is external:
            woke_by = "invalidation"
            self.stats.invalidation_wakes += 1
            if timer_handle is not None:
                timer_handle.cancel()
        elif timer is not None and wake.value is timer:
            self.stats.timer_wakes += 1
            if monitor_key is not None:
                controller.disarm_flag_monitor(monitor_key, on_invalidation)
        else:
            # Woken by neither source: a spurious wake-up (fault
            # injection). Both sources are still armed — cancel both;
            # the residual spin re-checks the flag (Section 3.3.1).
            woke_by = "spurious"
            self.stats.spurious_wakes += 1
            if timer_handle is not None:
                timer_handle.cancel()
            if monitor_key is not None:
                controller.disarm_flag_monitor(monitor_key, on_invalidation)
        self.stats.sleeps += 1
        self.stats.sleeps_by_state[state.name] = (
            self.stats.sleeps_by_state.get(state.name, 0) + 1
        )
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.emit(WakeUp(
                ts=self.sim._now, thread=node.node_id, pc=self.pc,
                source=woke_by, state=state.name,
            ))
        record.sleeps[node.node_id] = SleepRecord(
            state_name=state.name,
            resident_ns=outcome.resident_ns,
            flushed_lines=outcome.flushed_lines,
            woke_by=woke_by,
        )
        return self.sim._now

    # -- degraded mode: spin-then-sleep for a disabled (thread, PC) ----------

    def _fallback_state(self):
        """Shallowest snooping state (no prediction exists to amortize
        a flush), or None when the menu has no snooping state."""
        for state in self.config.sleep_states:
            if state.snoops:
                return state
        return None

    def _fallback_sleep(self, node, sense, record):
        """Wait out one episode without a prediction: spin for the
        configured threshold, then Halt relying purely on the external
        (invalidation) wake-up — the conventional spin-then-sleep
        policy of Section 5.1, instead of baseline spinning."""
        cpu = node.cpu
        controller = node.controller
        started = self.sim._now
        value = yield from self.memsys.load(node.node_id, self.flag_addr)
        cpu.charge_spin(self.sim._now - started)
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
        deadline = self.sim.timeout(self.config.fallback_spin_threshold_ns)
        race = AnyOf(self.sim, [fired, deadline])
        started = self.sim._now
        yield race
        cpu.charge_spin(self.sim._now - started)
        if race.value is fired:
            return  # released (or spuriously woken) during the spin
        state = self._fallback_state()
        if state is None:
            # Nothing snooping to halt in; finish the wait spinning.
            started = self.sim._now
            yield fired
            cpu.charge_spin(self.sim._now - started)
            return
        outcome = yield from cpu.sleep(state, fired)
        woke_by = "invalidation"
        if fired.value == "fault:spurious":
            woke_by = "spurious"
            self.stats.spurious_wakes += 1
            controller.disarm_flag_monitor(key, on_invalidation)
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.emit(WakeUp(
                ts=self.sim._now, thread=node.node_id, pc=self.pc,
                source=woke_by, state=state.name,
            ))
        record.sleeps[node.node_id] = SleepRecord(
            state_name=state.name,
            resident_ns=outcome.resident_ns,
            flushed_lines=outcome.flushed_lines,
            woke_by=woke_by,
        )

    # -- the barrier itself --------------------------------------------------

    def wait(self, node, dirty_lines=0):
        thread_id = node.node_id
        self.stats.arrivals += 1
        sense = self._flip_sense(thread_id)
        is_last, record = yield from self._check_in(node)
        if is_last:
            yield from self._last_thread_path(node, sense, record)
            self._depart(node, record)
            return record
        # Predict the stall ahead (Section 3.2.1). The table walk and
        # arithmetic cost a few tens of cycles, charged as Spin.
        yield PREDICTION_OVERHEAD_NS
        node.cpu.charge_spin(PREDICTION_OVERHEAD_NS)
        est_wake_ts, est_stall = self.domain.estimate(self.pc, thread_id)
        telemetry = self.telemetry
        if telemetry.enabled and est_stall is not None:
            telemetry.emit(PredictorHit(
                ts=self.sim._now, thread=thread_id, pc=self.pc,
                predicted_ns=est_wake_ts - self.domain.brts(thread_id),
                est_stall_ns=est_stall,
            ))
        wake_ts = None
        was_disabled = False
        if est_stall is None:
            if self.domain.predictor is not None and (
                self.domain.predictor.is_disabled(self.pc, thread_id)
            ):
                was_disabled = True
                if self.config.fallback_spin_then_sleep:
                    # Graceful degradation: a cut-off (thread, PC) waits
                    # with the conventional spin-then-sleep policy
                    # instead of burning spin power until re-enabled.
                    self.stats.fallback_sleeps += 1
                    yield from self._fallback_sleep(node, sense, record)
                else:
                    self.stats.disabled_spins += 1
            else:
                self.stats.cold_spins += 1
        else:
            state = self._choose_state(est_stall, dirty_lines)
            if state is None:
                self.stats.spin_fallbacks += 1
            else:
                wake_ts = yield from self._sleep(
                    node, sense, state, est_wake_ts, dirty_lines, record
                )
        # Residual spin: covers early wake-ups, aborted sleeps, the pure
        # spin path, and false wake-ups alike (Section 3.3.1).
        yield from self._spin_on_flag(node, sense)
        # Read the published BIT and advance the local BRTS. The BIT
        # value is ordered before the flag flip (footnote 1), and its
        # read is not on the critical path — the out-of-order core
        # overlaps it with post-barrier computation — so only its issue
        # cost is charged.
        bit = self.memsys.peek(self.domain.bit_addr)
        yield BIT_READ_OVERHEAD_NS
        node.cpu.charge_spin(BIT_READ_OVERHEAD_NS)
        release_ts = self.domain.advance(thread_id, bit)
        if wake_ts is not None:
            penalty = wake_ts - release_ts
            sleep_record = record.sleeps.get(thread_id)
            if sleep_record is not None:
                sleep_record.penalty_ns = max(0, penalty)
            if telemetry.enabled:
                telemetry.emit(LateWake(
                    ts=self.sim._now, thread=thread_id, pc=self.pc,
                    penalty_ns=max(0, penalty),
                ))
            if is_overpredicted(
                wake_ts, release_ts, bit,
                threshold=self.config.overprediction_threshold,
            ):
                self.domain.predictor.disable(self.pc, thread_id)
                self.stats.cutoff_disables += 1
                if telemetry.enabled:
                    telemetry.emit(PredictorDisable(
                        ts=self.sim._now, thread=thread_id, pc=self.pc,
                    ))
        if was_disabled and self.domain.predictor.note_safe_episode(
            self.pc, thread_id, self.config.probation_episodes
        ):
            self.stats.probation_reenables += 1
            if telemetry.enabled:
                telemetry.emit(PredictorReenable(
                    ts=self.sim._now, thread=thread_id, pc=self.pc,
                ))
        self._depart(node, record)
        return record

    def _last_thread_path(self, node, sense, record):
        thread_id = node.node_id
        self.stats.last_arrivals += 1
        bit = self.domain.measure_bit(thread_id)
        record.measured_bit = bit
        predictor = self.domain.predictor
        telemetry = self.telemetry
        if predictor is not None:
            previous = predictor.peek(self.pc)
            if should_update_predictor(
                previous, bit,
                factor=self.config.underprediction_factor,
            ):
                predictor.update(self.pc, bit)
                if telemetry.enabled:
                    telemetry.emit(PredictorTrain(
                        ts=self.sim._now, thread=thread_id, pc=self.pc,
                        bit_ns=bit, predicted_ns=previous,
                    ))
            else:
                predictor.note_filtered_update()
                self.stats.filtered_updates += 1
                if telemetry.enabled:
                    telemetry.emit(PredictorFiltered(
                        ts=self.sim._now, thread=thread_id, pc=self.pc,
                        bit_ns=bit,
                    ))
        # Publish the BIT; a write fence orders it before the flag flip
        # under release consistency (footnote 1 of the paper). The
        # simulator's in-order per-thread execution provides the fence.
        started = self.sim._now
        yield from self.memsys.store(
            node.node_id, self.domain.bit_addr, bit
        )
        node.cpu.charge_spin(self.sim._now - started)
        yield from self._release(node, sense, record)
        self.domain.advance(thread_id, bit)
