"""Property-based tests of barrier semantics and energy conservation.

For arbitrary (small) schedules:

* no thread departs a barrier instance before the last arrival
  (synchronization correctness), for every barrier variant;
* thrifty and conventional barriers release the same number of
  instances (no lost wake-ups, no double releases);
* per-CPU accounted time never exceeds the execution time, and the
  energy of each category is consistent with its time and power bounds.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.accounting import Category
from repro.sync import ConventionalBarrier, ThriftyBarrier

from tests.conftest import make_domain, make_system, run_phases

N_THREADS = 4

schedules_strategy = st.integers(2, 5).flatmap(
    lambda n_phases: st.lists(
        st.lists(
            st.integers(1_000, 2_000_000),
            min_size=n_phases, max_size=n_phases,
        ),
        min_size=N_THREADS, max_size=N_THREADS,
    )
)


def run_variant(variant, schedules):
    system = make_system(n_nodes=N_THREADS)
    domain = make_domain(system, N_THREADS)
    barrier = variant(system, domain, N_THREADS, pc="prop")
    trace = run_phases(system, barrier, schedules)
    return system, barrier, trace


def assert_thrifty_cost_bounded(schedules):
    """Thrifty's time and energy stay within a bound of the
    conventional barrier's on the same schedules."""
    base_system, _b, _t = run_variant(ConventionalBarrier, schedules)
    thrifty_system, thrifty, thrifty_trace = run_variant(
        ThriftyBarrier, schedules
    )
    # Hybrid wake-up bounds lateness per instance by one transition
    # round trip (a release during the entry transition still pays the
    # exit); across a whole run the slowdown stays small.
    assert thrifty_system.execution_time_ns <= (
        1.25 * base_system.execution_time_ns + 200_000
    )
    # The absolute epsilon covers the fixed per-arrival overheads
    # (prediction code, BIT read). A sleep released during its entry
    # transition (zero residency) saves nothing and pays its state's
    # entry+exit round trip, allowed here at compute power.
    states = {state.name: state for state in thrifty.config.sleep_states}
    compute_watts = thrifty_system.power.compute_watts
    mispredicted_j = sum(
        states[sleep.state_name].round_trip_ns * compute_watts * 1e-9
        for record in thrifty_trace.released_instances()
        for sleep in record.sleeps.values() if sleep.resident_ns == 0
    )
    assert (
        thrifty_system.total_account().energy_joules()
        <= 1.05 * base_system.total_account().energy_joules() + 1e-4
        + mispredicted_j
    )
    return thrifty_trace


class TestBarrierSemantics:
    @given(schedules_strategy)
    @settings(max_examples=25, deadline=None)
    def test_no_departure_before_last_arrival_conventional(self, schedules):
        _system, _barrier, trace = run_variant(
            ConventionalBarrier, schedules
        )
        for record in trace.released_instances():
            last_arrival = max(record.arrivals.values())
            assert all(
                departure >= last_arrival
                for departure in record.departures.values()
            )

    @given(schedules_strategy)
    @settings(max_examples=25, deadline=None)
    def test_no_departure_before_last_arrival_thrifty(self, schedules):
        _system, _barrier, trace = run_variant(ThriftyBarrier, schedules)
        for record in trace.released_instances():
            last_arrival = max(record.arrivals.values())
            assert all(
                departure >= last_arrival
                for departure in record.departures.values()
            )

    @given(schedules_strategy)
    @settings(max_examples=25, deadline=None)
    def test_all_instances_release_under_thrifty(self, schedules):
        _system, _barrier, trace = run_variant(ThriftyBarrier, schedules)
        assert len(trace.released_instances()) == len(schedules[0])
        for record in trace.released_instances():
            assert set(record.arrivals) == set(range(N_THREADS))
            assert set(record.departures) == set(range(N_THREADS))

    @given(
        st.integers(2, 5).flatmap(
            lambda n_phases: st.lists(
                st.lists(
                    # Paper-scale phases: barrier intervals comfortably
                    # above the sleep-transition scale. Below that the
                    # conditional-sleep decision is marginal and the
                    # exposed transitions legitimately dominate (see
                    # test_marginal_sleep_at_micro_scale).
                    st.integers(100_000, 2_000_000),
                    min_size=n_phases, max_size=n_phases,
                ),
                min_size=N_THREADS, max_size=N_THREADS,
            )
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_thrifty_bounded_cost_at_paper_scale(self, schedules):
        assert_thrifty_cost_bounded(schedules)

    def test_release_during_sleep_entry_at_paper_scale(self):
        # Hypothesis-found adversarial case, kept as a regression pin:
        # episode 0 trains the predictor on thread 3's ~31 us lateness;
        # in episode 1 everyone arrives together, but three threads
        # predict the old stall and sleep. The release lands during
        # their entry transitions (resident 0 ns), so each pays a full
        # entry+exit round trip at compute power: the paper's
        # by-design cost of a misprediction, which two episodes cannot
        # amortize.
        schedules = [[100000, 100000], [100000, 100000],
                     [100000, 100000], [130794, 100000]]
        thrifty_trace = assert_thrifty_cost_bounded(schedules)
        unslept = [
            sleep for record in thrifty_trace.released_instances()
            for sleep in record.sleeps.values() if sleep.resident_ns == 0
        ]
        assert len(unslept) == 3

    def test_marginal_sleep_at_micro_scale(self):
        # Hypothesis-found adversarial case, kept as a regression pin:
        # a ~21 us stall marginally clears Halt's 20 us round trip, so
        # the thread sleeps and the exposed exit transition dominates a
        # ~25 us run. Correctness holds and the costs stay bounded —
        # this is the known-by-design behaviour the conditional-sleep
        # margin trades away at microsecond granularity.
        schedules = [[1000, 1000], [1000, 1000], [1000, 1000],
                     [21258, 1000]]
        base_system, _b, base_trace = run_variant(
            ConventionalBarrier, schedules
        )
        thrifty_system, _b2, thrifty_trace = run_variant(
            ThriftyBarrier, schedules
        )
        assert len(thrifty_trace.released_instances()) == 2
        assert thrifty_system.execution_time_ns < (
            2 * base_system.execution_time_ns
        )
        assert thrifty_system.total_account().energy_joules() < (
            1.3 * base_system.total_account().energy_joules()
        )


class TestEnergyConservation:
    @given(schedules_strategy)
    @settings(max_examples=20, deadline=None)
    def test_cpu_time_bounded_by_execution_time(self, schedules):
        system, _barrier, _trace = run_variant(ThriftyBarrier, schedules)
        for account in system.cpu_accounts()[:N_THREADS]:
            assert account.time_ns() <= system.execution_time_ns

    @given(schedules_strategy)
    @settings(max_examples=20, deadline=None)
    def test_energy_consistent_with_power_bounds(self, schedules):
        system, _barrier, _trace = run_variant(ThriftyBarrier, schedules)
        power = system.power
        for account in system.cpu_accounts()[:N_THREADS]:
            for category in Category:
                joules = account.energy_joules(category)
                seconds = account.time_ns(category) * 1e-9
                assert joules >= 0
                # Nothing draws more than compute power.
                assert joules <= power.compute_watts * seconds * (1 + 1e-9)

    @given(schedules_strategy)
    @settings(max_examples=20, deadline=None)
    def test_sleep_cheaper_than_spin_everywhere(self, schedules):
        system, _barrier, _trace = run_variant(ThriftyBarrier, schedules)
        power = system.power
        deepest_sleep_watts = min(
            power.sleep_watts(state)
            for state in
            __import__("repro.config", fromlist=["x"]).DEFAULT_SLEEP_STATES
        )
        for account in system.cpu_accounts()[:N_THREADS]:
            sleep_seconds = account.time_ns(Category.SLEEP) * 1e-9
            joules = account.energy_joules(Category.SLEEP)
            assert joules <= power.spin_watts * sleep_seconds + 1e-12
            assert joules >= deepest_sleep_watts * sleep_seconds - 1e-12
