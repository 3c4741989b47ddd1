/**
 * @file
 * Master/slave flag barrier executed as real coherence traffic.
 *
 * Layout (one line per flag; first-touch places each at its writer):
 *  - arrival line of CPU s: written by s once per barrier; read
 *    (spun on) by the master -> single-producer / single-consumer,
 *  - release line: written by the master once per barrier; spun on by
 *    all slaves -> single-producer / many-consumer.
 *
 * This is the OpenMP-style barrier structure that produces the
 * "reload flurry" of Section 3.2: the release write invalidates all
 * spinners, they re-read simultaneously, and the home NACKs requests
 * while the line is BUSY. With delegation + speculative updates the
 * release data is instead pushed into the spinners' RACs.
 *
 * Data values are line Versions: CPU s's arrival for generation g is
 * observed once its arrival line's version reaches g (each barrier
 * performs exactly one write per flag line).
 *
 * Spin elision (DESIGN.md, "Barrier spin elision"): a spinner whose
 * stale flag still sits in its L1 would only re-read that copy until
 * its cache controller is next touched, so it parks instead, and the
 * controller wakes it before that touch. The wake credits every poll
 * the skipped chain would have run by then and resumes the chain at
 * its next event, in its original queue position.
 */

#ifndef PCSIM_CPU_BARRIER_HH
#define PCSIM_CPU_BARRIER_HH

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "src/sim/event_queue.hh"
#include "src/sim/types.hh"

namespace pcsim
{

class Hub;

/**
 * The virtual event chain of a parked spinner: poll L_k at
 * firstPoll + (k-1)(spinDelay + hitLatency) and its completion D_k at
 * L_k + hitLatency, k >= 1. L_k is scheduled by D_{k-1} and D_k by
 * L_k, all as normal events.
 */
struct SpinChain
{
    Tick firstPoll = 0;
    Tick spinDelay = 0;
    Tick hitLatency = 0;

    Tick
    pollTick(std::uint64_t k) const
    {
        return firstPoll + (k - 1) * (spinDelay + hitLatency);
    }
};

/** How much of a SpinChain ran before some point of the run. */
struct SpinPrefix
{
    /** Virtual polls L_1..L_polls that ran. */
    std::uint64_t polls = 0;
    /** Virtual completions D_1..D_completions that ran (polls or
     *  polls - 1). */
    std::uint64_t completions = 0;
    /** A chain event shared the waker's tick and position with
     *  nothing to order them; it was counted as having run first. */
    bool tie = false;
};

/**
 * The prefix of chain @p c that ran before the event @p waker running
 * at tick @p now. Events before @p now ran; a chain event at @p now
 * ran first iff its position (a normal event inserted at its
 * inserter's tick) comes before the waker's: it was inserted at an
 * earlier tick, or at the same tick by an inserter that ran first --
 * which is the case unless the waker is early (every remote delivery
 * is). Requires spinDelay >= 1 and hitLatency >= 1 (no chain event
 * shares its tick with its inserter).
 */
SpinPrefix spinWakePrefix(const SpinChain &c, Tick now,
                          const EventOrder &waker);

/** The prefix of chain @p c that ran strictly before tick @p tick. */
SpinPrefix spinPrefixBefore(const SpinChain &c, Tick tick);

/** Coordinates barrier episodes across all CPUs. */
class BarrierDriver
{
  public:
    /** Spin-elision counters (content-determined). */
    struct SpinStats
    {
        /** Polls credited instead of executed. */
        std::uint64_t pollsElided = 0;
        /** Times a spinner parked. */
        std::uint64_t parks = 0;
        /** Wakes whose order was a tie (SpinPrefix::tie). */
        std::uint64_t wakeTies = 0;
        /** Spinners still parked when settleParked ran. */
        std::uint64_t settled = 0;
    };

    /**
     * @param hubs       one hub per CPU (CPU i issues through hubs[i]).
     * @param base       address of the barrier flag region.
     * @param line_bytes coherence line size (flag spacing).
     * @param spin_delay cycles between spin polls (>= 1).
     */
    BarrierDriver(EventQueue &eq, std::vector<Hub *> hubs, Addr base,
                  std::uint32_t line_bytes, Tick spin_delay = 30);

    /** CPU @p cpu reached a barrier; @p done fires when it may pass. */
    void arrive(unsigned cpu, std::function<void()> done);

    /**
     * Invoked each time every CPU has passed generation @p gen.
     * @p max_pass_tick is the largest shard-local tick at which any
     * CPU passed -- a commutative max, so it is the same value no
     * matter which order the per-shard pass events were observed in
     * (the System derives the S-invariant stats-reset boundary from
     * it).
     */
    void
    setOnGeneration(
        std::function<void(std::uint64_t gen, Tick max_pass_tick)> fn)
    {
        _onGeneration = std::move(fn);
    }

    std::uint64_t generationsCompleted() const { return _gensDone; }

    /** Bytes of address space the flag region occupies. */
    Addr regionBytes() const;

    /**
     * Credit every parked spinner's virtual events before tick
     * @p boundary, at a point where all events before it and none
     * after it have run (the stats-reset global action), so the
     * counters the reset zeroes hold exactly the unelided values.
     */
    void settleParked(Tick boundary);

    /** Elision counters summed over CPUs. */
    SpinStats spinStats() const;

  private:
    /** Per-CPU barrier and spin state. Each entry is only touched by
     *  its CPU's shard (and by settleParked while all shards wait). */
    struct Spinner
    {
        std::uint64_t gen = 0;
        std::function<void()> done;
        /** Flag line being polled. */
        Addr flag = 0;
        /** Master: slave whose arrival flag is being collected. */
        unsigned slave = 0;

        bool parked = false;
        /** The stale version every virtual poll reads. */
        Version stale = 0;
        SpinChain chain;
        /** Part of the chain already credited (settleParked). */
        SpinPrefix credited;
        SpinStats stats;
    };

    Addr arrivalLine(unsigned cpu) const
    {
        return _base + (1 + static_cast<Addr>(cpu)) * _lineBytes;
    }
    Addr releaseLine() const { return _base; }

    /** Master: collect the next arrival flag, or release. */
    void collect(unsigned slave);
    /** Issue one poll of the CPU's flag. */
    void poll(unsigned cpu);
    /** A poll of the CPU's flag read @p v. */
    void polled(unsigned cpu, Version v);
    /** The CPU's parked chain is about to become observable. */
    void wake(unsigned cpu);
    /** Credit the chain events in @p upto not yet credited. */
    void credit(unsigned cpu, const SpinPrefix &upto);
    void cpuPassed(unsigned cpu);

    EventQueue &_eq;
    std::vector<Hub *> _hubs;
    Addr _base;
    std::uint32_t _lineBytes;
    Tick _spinDelay;

    std::vector<Spinner> _spinners;
    /** Guards the pass bookkeeping below: under the parallel kernel
     *  CPUs pass on their shard's worker thread. */
    std::mutex _passMutex;
    std::uint64_t _gensDone = 0;
    unsigned _passedCount = 0;
    Tick _maxPassTick = 0;
    std::function<void(std::uint64_t, Tick)> _onGeneration;
};

} // namespace pcsim

#endif // PCSIM_CPU_BARRIER_HH
