/**
 * @file
 * Layer probes of the pcsim benchmark: pass-through interposers that
 * time calls into public pcsim functions from outside the library,
 * and a kernel-only event-queue probe.
 *
 * The interposers never reorder, delay or drop work, so a traced
 * simulation's deterministic results equal the untraced one's; the
 * driver checks that on every traced run.
 */

#ifndef PCBENCH_PROBES_HH
#define PCBENCH_PROBES_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/net/message.hh"
#include "src/system/system.hh"
#include "src/workload/workload.hh"

namespace pcbench
{

using Clock = std::chrono::steady_clock;

/** Host seconds elapsed since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Totals one traced simulation's interposers collected. */
struct LayerCounts
{
    /** Hub::handleMessage inclusive time minus the Workload::next
     *  time nested inside it. */
    double handleSelfSeconds = 0;
    std::uint64_t msgsHandled = 0;
    double nextSeconds = 0;
    /** Ops returned by Workload::next, and the reads/writes among
     *  them. */
    std::uint64_t ops = 0;
    std::uint64_t rwOps = 0;

    LayerCounts &operator+=(const LayerCounts &o);
};

/**
 * Interposes on one System: a timed MessageHandler per node,
 * registered with Network::registerHandler in place of the node's Hub,
 * and a timed Workload pass-through to hand to System::run.
 *
 * Accumulators are per node (one cache line each): under the sharded
 * kernel a node's handler and CPU only ever run on its shard's thread,
 * so no two threads write one slot. Construct after the System and
 * before System::run; the System and @p inner must outlive this.
 */
class Interposers
{
  public:
    Interposers(pcsim::System &sys, pcsim::Workload &inner);
    ~Interposers();
    Interposers(const Interposers &) = delete;
    Interposers &operator=(const Interposers &) = delete;

    /** The workload to pass to System::run. */
    pcsim::Workload &workload();

    LayerCounts totals() const;

  private:
    struct alignas(64) Slot
    {
        std::int64_t handleNs = 0;
        std::uint64_t msgs = 0;
        std::int64_t nextNs = 0;
        /** Workload::next time spent inside a handler span. */
        std::int64_t nestedNextNs = 0;
        std::uint64_t ops = 0;
        std::uint64_t rwOps = 0;
    };
    class Handler;
    class TimedWorkload;

    std::vector<Slot> _slots;
    std::vector<std::unique_ptr<Handler>> _handlers;
    std::unique_ptr<TimedWorkload> _workload;
};

/**
 * Kernel-only probe: host nanoseconds per event of a bare EventQueue
 * driven through its public schedule/run API by self-rescheduling
 * callbacks, with no protocol objects. Delays are drawn from @p seed;
 * about one in ten lands beyond the near-future horizon, as the
 * protocol's long timers do.
 */
double kernelNsPerEvent(std::uint64_t seed);

} // namespace pcbench

#endif // PCBENCH_PROBES_HH
