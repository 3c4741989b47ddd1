/**
 * @file
 * Performance telemetry for the simulation kernel.
 *
 * RunPerf aggregates, per simulation run, the kernel's hot-path
 * counters (events executed/scheduled, queue depth, callback storage
 * classes, calendar-queue overflow traffic), the message-pool
 * recycling counters, and host wall-clock time. The event totals,
 * pool acquires and simTicks are pure functions of the simulated
 * machine + workload and are therefore byte-identical across hosts,
 * thread counts and kernel shard counts; queue-shape counters
 * (peakQueueDepth, overflowEvents, windowAdvances, poolReuses) and
 * the per-shard telemetry depend on how the run was sharded, so
 * serialization keeps them with the volatile timing fields, out of
 * determinism-checked documents (see src/runner/results.hh).
 */

#ifndef PCSIM_SIM_PERF_HH
#define PCSIM_SIM_PERF_HH

#include <cstdint>
#include <vector>

#include "src/sim/types.hh"

namespace pcsim
{

/** Per-run kernel + pool telemetry. */
struct RunPerf
{
    // Event kernel (EventQueue) counters, whole run.
    std::uint64_t eventsExecuted = 0;
    std::uint64_t eventsScheduled = 0;
    std::uint64_t peakQueueDepth = 0;
    /** Callbacks stored in the event's inline buffer (zero-alloc). */
    std::uint64_t inlineCallbacks = 0;
    /** Callbacks that fell back to a heap allocation. */
    std::uint64_t heapCallbacks = 0;
    /** Events queued at or beyond the calendar's sliding horizon
     *  (EventQueue::horizon ticks ahead), i.e. on the heap path. */
    std::uint64_t overflowEvents = 0;
    /** Tick advances that migrated at least one heap event into the
     *  calendar ring. */
    std::uint64_t windowAdvances = 0;

    // Barrier spin elision (src/cpu/barrier.hh). eventsExecuted counts
    // model events, elided ones included; these say how many of them
    // the kernel skipped. Content-determined, but serialized only with
    // the timing fields so default documents keep their shape.
    /** Events credited instead of executed. */
    std::uint64_t eventsElided = 0;
    /** Spin polls credited instead of executed. */
    std::uint64_t spinPollsElided = 0;
    /** Times a spinner parked on its L1 line. */
    std::uint64_t spinParks = 0;
    /** Wakes whose ordering against the chain was a tie. */
    std::uint64_t spinWakeTies = 0;

    // Folded network drains (src/net/network.hh): eventsExecuted still
    // counts one drain event per distinct (node, arrival tick), as
    // before deliveries booked their own ejection. Content-determined,
    // serialized with the elision counters.
    /** Drain events credited instead of executed. */
    std::uint64_t drainsFolded = 0;
    /** Deliveries whose booked tick was later than their event's,
     *  which ran once more there (not counted in eventsExecuted). */
    std::uint64_t deliveryRearms = 0;

    // Message pool counters.
    std::uint64_t poolAcquires = 0;
    std::uint64_t poolReuses = 0;

    /** Final simulated time of the run. */
    Tick simTicks = 0;

    // Parallel-kernel (PDES) telemetry. The totals above are pure
    // functions of the simulated content and stay byte-identical
    // across shard counts; the per-shard split below depends on the
    // shard map, so serialization keeps it with the host-timing
    // fields (opt-in only).
    /** Shard count the run executed with (1 = sequential kernel). */
    std::uint32_t shards = 1;
    /** Events executed per shard (size == shards when parallel). */
    std::vector<std::uint64_t> shardEvents;
    /** Conservative windows the kernel planned. */
    std::uint64_t kernelWindows = 0;
    /** Barrier passes across all windows. */
    std::uint64_t kernelBarriers = 0;
    /** Messages that crossed a shard boundary in the network. */
    std::uint64_t crossShardMessages = 0;

    /** Host wall-clock seconds (volatile across hosts/runs). */
    double wallSeconds = 0.0;

    /** Events the kernel really ran: model events minus the elided
     *  and folded ones, plus the re-armed runs. */
    std::uint64_t
    eventsRun() const
    {
        return eventsExecuted - eventsElided - drainsFolded +
               deliveryRearms;
    }

    double
    eventsPerSec() const
    {
        return wallSeconds > 0 ? double(eventsRun()) / wallSeconds : 0.0;
    }

    double
    ticksPerSec() const
    {
        return wallSeconds > 0 ? double(simTicks) / wallSeconds : 0.0;
    }

    /** Fraction of pool acquisitions served by recycling. */
    double
    poolHitRate() const
    {
        return poolAcquires ? double(poolReuses) / double(poolAcquires)
                            : 0.0;
    }

    /** Fraction of scheduled callbacks that needed no heap storage. */
    double
    inlineRate() const
    {
        const std::uint64_t total = inlineCallbacks + heapCallbacks;
        return total ? double(inlineCallbacks) / double(total) : 0.0;
    }
};

} // namespace pcsim

#endif // PCSIM_SIM_PERF_HH
