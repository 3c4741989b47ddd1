/**
 * @file
 * Discrete event simulation kernel.
 *
 * The EventQueue executes callbacks in (tick, sequence) order:
 * sequence numbers break same-tick ties in schedule order, so a
 * simulation run is fully reproducible for a given seed.
 *
 * Internals (see DESIGN.md, "Simulation kernel internals"): the queue
 * is a two-level calendar. Events within a 4096-tick window of the
 * current one land in per-tick FIFO lists of pooled event nodes
 * (append = schedule order, so same-tick FIFO is structural); rarer
 * far-future events wait in a (tick, seq)-ordered binary heap and
 * migrate into the lists when their window becomes current. A
 * callback is constructed in place inside a recycled node and never
 * moves afterwards, so the common scheduleIn(delta, lambda) path
 * performs zero heap allocations and reuses cache-warm storage.
 */

#ifndef PCSIM_SIM_EVENT_QUEUE_HH
#define PCSIM_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/logging.hh"
#include "src/sim/types.hh"

namespace pcsim
{

/** Kernel hot-path counters (see RunPerf for the per-run rollup). */
struct EventQueueStats
{
    std::uint64_t executed = 0;
    std::uint64_t scheduled = 0;
    std::uint64_t peakPending = 0;
    /** Callbacks constructed in the node's inline buffer. */
    std::uint64_t inlineCallbacks = 0;
    /** Callbacks that fell back to a heap allocation. */
    std::uint64_t heapCallbacks = 0;
    /** Events scheduled beyond the near-future window. */
    std::uint64_t overflowEvents = 0;
    /** Calendar-window advances (overflow migrations). */
    std::uint64_t windowAdvances = 0;
    /** Events a component skipped and credited with creditElided();
     *  already included in executed / scheduled / inlineCallbacks. */
    std::uint64_t elided = 0;
};

/**
 * Where an event sits among the events of its tick. Normal events of
 * one tick run in schedule order, and schedule order is the order
 * their inserters ran in, so an event's position is fixed by the tick
 * it was scheduled at and by whether its inserter ran ahead of every
 * normal event of that tick (an "early" phase-0 event: one queued
 * before its own tick, like the network's arrival drains).
 */
struct EventOrder
{
    /** Tick the event was scheduled at. */
    Tick insertTick = 0;
    /** Its inserter was an early phase-0 event. */
    bool inserterPhase0 = false;
    /** The event itself runs from the phase-0 list (only meaningful
     *  for the running event, see EventQueue::runningOrder()). */
    bool phase0 = false;
};

/**
 * The central simulation event queue.
 *
 * Components schedule closures at absolute or relative ticks; run()
 * drains the queue in (tick, sequence) order until it is empty, a
 * stop condition triggers, or a tick limit is reached.
 */
class EventQueue
{
  public:
    /** Inline callback capacity per event node: sized for the largest
     *  hot protocol closure (a controller pointer plus one 64-byte
     *  Message). Larger callables fall back to one heap allocation. */
    static constexpr std::size_t inlineCallbackBytes = 80;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    ~EventQueue() { destroyPending(); }

    /** Current simulated time. */
    Tick curTick() const { return _curTick; }

    /** Schedule callable @p f at absolute tick @p when (must be
     *  >= curTick). */
    template <typename F>
    void
    schedule(Tick when, F &&f)
    {
        scheduleImpl(when, std::forward<F>(f), false);
    }

    /**
     * Schedule @p f at tick @p when, ahead of every normal event at
     * that tick. Phase-0 events model "the tick begins" work (the
     * network's arrival drains) whose results must be visible to all
     * same-tick protocol events regardless of schedule order; within
     * the phase they keep FIFO schedule order like normal events.
     */
    template <typename F>
    void
    schedulePhase0(Tick when, F &&f)
    {
        scheduleImpl(when, std::forward<F>(f), true);
    }

    /** Schedule callable @p f @p delta ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delta, F &&f)
    {
        schedule(_curTick + delta, std::forward<F>(f));
    }

    /**
     * Schedule normal-phase @p f at tick @p when in the position it
     * would hold had a normal event scheduled it at the earlier tick
     * @p insert_tick: after every event of that tick scheduled at or
     * before @p insert_tick, ahead of those scheduled later. Used to
     * materialize an elided event chain exactly (src/cpu/barrier.hh).
     */
    template <typename F>
    void
    scheduleAs(Tick when, Tick insert_tick, F &&f)
    {
        if (when < _curTick || insert_tick > _curTick)
            panic("scheduleAs: event at %llu inserted at %llu from "
                  "tick %llu",
                  (unsigned long long)when,
                  (unsigned long long)insert_tick,
                  (unsigned long long)_curTick);
        EventNode *n = allocNode();
        emplace(n, std::forward<F>(f));
        n->order = insert_tick << 1;
        ++_stats.scheduled;
        if ((when >> kLogBuckets) == _curWindow) {
            insertSorted(static_cast<std::size_t>(when & kSlotMask), n);
            ++_ringCount;
        } else {
            pushOverflow(when, n, false);
        }
        notePending();
    }

    /** Order key of the event being executed (the last one, between
     *  events). */
    EventOrder
    runningOrder() const
    {
        return EventOrder{_runningOrder >> 1, (_runningOrder & 1) != 0,
                          _runningPhase0};
    }

    /**
     * Account for @p n events a component proved unobservable and
     * skipped. Each stands for one executed event whose inline
     * callback scheduled exactly one successor, so the deterministic
     * executed / scheduled / inlineCallbacks totals stay those of the
     * unelided run; @c elided keeps the count apart.
     */
    void
    creditElided(std::uint64_t n)
    {
        _stats.executed += n;
        _stats.scheduled += n;
        _stats.inlineCallbacks += n;
        _stats.elided += n;
    }

    /** Number of events not yet executed. */
    std::size_t
    numPending() const
    {
        return static_cast<std::size_t>(_ringCount) + _overflow.size();
    }

    /** True if nothing remains to execute. */
    bool empty() const { return numPending() == 0; }

    /** Request that run() / step() stop before executing the next
     *  event. run() clears any stale request on entry; step() consumes
     *  a pending request by returning false once without executing. */
    void requestStop() { _stopRequested = true; }

    /** True while a stop request is pending (not yet consumed). */
    bool stopRequested() const { return _stopRequested; }

    /** Tick of the next pending event without executing it; false
     *  when the queue is empty. */
    bool
    peekNextTick(Tick &when) const
    {
        return findNextTick(when);
    }

    /**
     * Drain the queue.
     *
     * @param limit stop (without executing further events) once the
     *              next event's tick exceeds this value.
     * @return number of events executed.
     */
    std::uint64_t
    run(Tick limit = maxTick)
    {
        std::uint64_t executed = 0;
        _stopRequested = false;
        Tick when;
        while (!_stopRequested && findNextTick(when)) {
            if (when > limit)
                break;
            executeOne(when);
            ++executed;
        }
        return executed;
    }

    /**
     * Execute at most one event.
     *
     * @return false when the queue is empty or a stop request was
     *         pending (the request is consumed without executing).
     */
    bool
    step()
    {
        if (_stopRequested) {
            _stopRequested = false;
            return false;
        }
        Tick when;
        if (!findNextTick(when))
            return false;
        executeOne(when);
        return true;
    }

    /** Reset time and drop all pending events (for reuse in tests). */
    void
    reset()
    {
        destroyPending();
        _ringCount = 0;
        _curWindow = 0;
        _curTick = 0;
        _nextFarSeq = 0;
        _runningOrder = 0;
        _runningPhase0 = false;
        _inserterBit = 0;
        _stopRequested = false;
        _stats = EventQueueStats{};
    }

    /** Kernel telemetry accumulated since construction / reset(). */
    const EventQueueStats &stats() const { return _stats; }

  private:
    /** log2 of the near-future horizon, in ticks. 4096 covers every
     *  latency in Table 1 (hops, DRAM, NI occupancy, retry backoff)
     *  so virtually all protocol events take the in-window path. */
    static constexpr unsigned kLogBuckets = 12;
    static constexpr std::size_t kNumBuckets = std::size_t(1)
                                               << kLogBuckets;
    static constexpr Tick kSlotMask = kNumBuckets - 1;
    static constexpr std::size_t kWords = kNumBuckets / 64;
    static constexpr std::size_t kNodesPerSlab = 256;

    /**
     * One pending event. Nodes are recycled through an intrusive
     * free list and never move while armed, so the callable is
     * constructed directly in @c buf and needs no move support.
     */
    struct EventNode
    {
        /** FIFO link within a tick slot / free-list link. */
        EventNode *next;
        void (*invoke)(void *);
        /** Null for trivially-destructible inline callables; frees
         *  the heap copy for oversized ones. */
        void (*dtor)(void *);
        /** EventOrder packed as insertTick << 1 | inserterPhase0
         *  (fills the padding in front of the aligned buffer). */
        std::uint64_t order;
        alignas(std::max_align_t)
            unsigned char buf[inlineCallbackBytes];
    };
    static_assert(sizeof(EventNode) % alignof(std::max_align_t) == 0,
                  "node stride must preserve buffer alignment");
    static_assert(offsetof(EventNode, buf) == 4 * sizeof(void *),
                  "the order key must live in the buffer's padding");

    /** One tick's worth of events: a phase-0 FIFO (drained first)
     *  and the normal FIFO, each in schedule order. */
    struct Slot
    {
        EventNode *head0 = nullptr;
        EventNode *tail0 = nullptr;
        EventNode *head = nullptr;
        EventNode *tail = nullptr;
        bool empty() const { return !head0 && !head; }
    };

    /** An event beyond the near horizon, heap-ordered by (when,
     *  insertTick, seq); insertTick grows with seq except for
     *  scheduleAs() events, which it places among their tick. */
    struct FarEvent
    {
        Tick when;
        Tick insertTick;
        std::uint64_t seq;
        EventNode *node;
        bool phase0;
    };

    /** Comparator making std::push_heap/pop_heap a min-heap. */
    struct FarLater
    {
        bool
        operator()(const FarEvent &a, const FarEvent &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.insertTick != b.insertTick)
                return a.insertTick > b.insertTick;
            return a.seq > b.seq;
        }
    };

    EventNode *
    allocNode()
    {
        if (_freeNodes) {
            EventNode *n = _freeNodes;
            _freeNodes = n->next;
            return n;
        }
        if (_slabUsed == kNodesPerSlab) {
            _slabs.emplace_back(new EventNode[kNodesPerSlab]);
            _slabUsed = 0;
        }
        return &_slabs.back()[_slabUsed++];
    }

    void
    freeNode(EventNode *n)
    {
        n->next = _freeNodes;
        _freeNodes = n;
    }

    /** Construct the callable inside @p n (inline when it fits). */
    template <typename F>
    void
    emplace(EventNode *n, F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_v<Fn &>,
                      "scheduled callable must be invocable");
        if constexpr (sizeof(Fn) <= inlineCallbackBytes &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            new (n->buf) Fn(std::forward<F>(f));
            n->invoke = [](void *p) { (*static_cast<Fn *>(p))(); };
            if constexpr (std::is_trivially_destructible_v<Fn>)
                n->dtor = nullptr;
            else
                n->dtor = [](void *p) { static_cast<Fn *>(p)->~Fn(); };
            ++_stats.inlineCallbacks;
        } else {
            ::new (n->buf) (Fn *)(new Fn(std::forward<F>(f)));
            n->invoke = [](void *p) { (**static_cast<Fn **>(p))(); };
            n->dtor = [](void *p) { delete *static_cast<Fn **>(p); };
            ++_stats.heapCallbacks;
        }
    }

    template <typename F>
    void
    scheduleImpl(Tick when, F &&f, bool phase0)
    {
        if (when < _curTick)
            panic("scheduling event in the past (%llu < %llu)",
                  (unsigned long long)when, (unsigned long long)_curTick);
        EventNode *n = allocNode();
        emplace(n, std::forward<F>(f));
        n->order = (_curTick << 1) | _inserterBit;
        ++_stats.scheduled;

        const std::uint64_t w = when >> kLogBuckets;
        if (w == _curWindow) {
            appendSlot(static_cast<std::size_t>(when & kSlotMask), n,
                       phase0);
            ++_ringCount;
        } else {
            pushOverflow(when, n, phase0);
        }
        notePending();
    }

    void
    pushOverflow(Tick when, EventNode *n, bool phase0)
    {
        ++_stats.overflowEvents;
        _overflow.push_back(
            FarEvent{when, n->order >> 1, _nextFarSeq++, n, phase0});
        std::push_heap(_overflow.begin(), _overflow.end(), FarLater{});
    }

    void
    notePending()
    {
        const std::uint64_t pending = _ringCount + _overflow.size();
        if (pending > _stats.peakPending)
            _stats.peakPending = pending;
    }

    /** Link normal-phase @p n into @p slot after every node scheduled
     *  at or before its insert tick. A slot's list is sorted by
     *  insert tick: appends carry the current tick and migrations
     *  arrive in (insertTick, seq) order into an empty ring. */
    void
    insertSorted(std::size_t slot, EventNode *n)
    {
        Slot &s = _slots[slot];
        if (s.empty())
            _occupied[slot >> 6] |= std::uint64_t(1) << (slot & 63);
        const Tick at = n->order >> 1;
        EventNode *prev = nullptr;
        EventNode *cur = s.head;
        while (cur && (cur->order >> 1) <= at) {
            prev = cur;
            cur = cur->next;
        }
        n->next = cur;
        (prev ? prev->next : s.head) = n;
        if (!cur)
            s.tail = n;
    }

    void
    appendSlot(std::size_t slot, EventNode *n, bool phase0)
    {
        n->next = nullptr;
        Slot &s = _slots[slot];
        if (s.empty())
            _occupied[slot >> 6] |= std::uint64_t(1) << (slot & 63);
        EventNode *&head = phase0 ? s.head0 : s.head;
        EventNode *&tail = phase0 ? s.tail0 : s.tail;
        if (head)
            tail->next = n;
        else
            head = n;
        tail = n;
    }

    /** First occupied slot >= from, or -1. */
    int
    nextOccupied(std::size_t from) const
    {
        std::size_t word = from >> 6;
        if (word >= kWords)
            return -1;
        std::uint64_t bits = _occupied[word] &
                             (~std::uint64_t(0) << (from & 63));
        while (true) {
            if (bits)
                return static_cast<int>((word << 6) +
                                        __builtin_ctzll(bits));
            if (++word >= kWords)
                return -1;
            bits = _occupied[word];
        }
    }

    /** Slot scanning starts at curTick when it lies in the current
     *  window (earlier slots are already drained), else at 0 (the
     *  window was advanced ahead of curTick by a migration). */
    std::size_t
    scanStart() const
    {
        return (_curTick >> kLogBuckets) == _curWindow
                   ? static_cast<std::size_t>(_curTick & kSlotMask)
                   : 0;
    }

    /** Tick of the next event, without executing. In-window events
     *  always precede overflow events (the overflow holds later
     *  windows only), so the ring is authoritative while non-empty. */
    bool
    findNextTick(Tick &when) const
    {
        if (_ringCount) {
            const int slot = nextOccupied(scanStart());
            if (slot < 0)
                panic("event ring count %llu but no occupied slot",
                      (unsigned long long)_ringCount);
            when = (_curWindow << kLogBuckets) |
                   static_cast<Tick>(slot);
            return true;
        }
        if (!_overflow.empty()) {
            when = _overflow.front().when;
            return true;
        }
        return false;
    }

    /** Make the overflow's earliest window current, migrating its
     *  events into the slots. Heap order is (when, seq), and any
     *  future append to those slots carries a later sequence, so
     *  same-tick FIFO order is preserved across the migration. */
    void
    advanceWindow()
    {
        const std::uint64_t w = _overflow.front().when >> kLogBuckets;
        _curWindow = w;
        ++_stats.windowAdvances;
        while (!_overflow.empty() &&
               (_overflow.front().when >> kLogBuckets) == w) {
            std::pop_heap(_overflow.begin(), _overflow.end(),
                          FarLater{});
            const FarEvent fe = _overflow.back();
            _overflow.pop_back();
            appendSlot(static_cast<std::size_t>(fe.when & kSlotMask),
                       fe.node, fe.phase0);
            ++_ringCount;
        }
    }

    /** Execute the next event; @p when must come from findNextTick. */
    void
    executeOne(Tick when)
    {
        if (!_ringCount)
            advanceWindow();
        const std::size_t slot =
            static_cast<std::size_t>(when & kSlotMask);
        Slot &s = _slots[slot];
        // Detach before invoking: the callback may append same-tick
        // events to this very slot. Phase-0 events drain first.
        const bool phase0 = s.head0 != nullptr;
        EventNode *&head = phase0 ? s.head0 : s.head;
        EventNode *&tail = phase0 ? s.tail0 : s.tail;
        EventNode *n = head;
        head = n->next;
        if (!head)
            tail = nullptr;
        if (s.empty())
            _occupied[slot >> 6] &=
                ~(std::uint64_t(1) << (slot & 63));
        --_ringCount;
        _curTick = when;
        _runningOrder = n->order;
        _runningPhase0 = phase0;
        _inserterBit = phase0 && (n->order >> 1) < when ? 1 : 0;
        n->invoke(n->buf);
        if (n->dtor)
            n->dtor(n->buf);
        freeNode(n);
        ++_stats.executed;
    }

    /** Destroy every pending callable and recycle its node (reset()
     *  and destruction; pending state may own resources). */
    void
    destroyPending()
    {
        for (Slot &s : _slots) {
            for (EventNode *list : {s.head0, s.head}) {
                for (EventNode *n = list; n;) {
                    EventNode *next = n->next;
                    if (n->dtor)
                        n->dtor(n->buf);
                    freeNode(n);
                    n = next;
                }
            }
            s = Slot{};
        }
        std::fill(std::begin(_occupied), std::end(_occupied), 0);
        for (const FarEvent &fe : _overflow) {
            if (fe.node->dtor)
                fe.node->dtor(fe.node->buf);
            freeNode(fe.node);
        }
        _overflow.clear();
    }

    Slot _slots[kNumBuckets];
    std::uint64_t _occupied[kWords] = {};
    std::uint64_t _ringCount = 0;
    std::uint64_t _curWindow = 0;

    std::vector<FarEvent> _overflow;
    std::uint64_t _nextFarSeq = 0;

    EventNode *_freeNodes = nullptr;
    std::vector<std::unique_ptr<EventNode[]>> _slabs;
    std::size_t _slabUsed = kNodesPerSlab;

    Tick _curTick = 0;
    /** Packed order key and phase of the running event, and the
     *  inserterPhase0 bit the events it schedules inherit. */
    std::uint64_t _runningOrder = 0;
    bool _runningPhase0 = false;
    std::uint64_t _inserterBit = 0;
    bool _stopRequested = false;
    EventQueueStats _stats;
};

/**
 * Base class for simulation components. Provides access to the owning
 * event queue and a component name used in trace output.
 */
class SimObject
{
  public:
    SimObject(EventQueue &eq, std::string name)
        : _eq(eq), _name(std::move(name))
    {}
    virtual ~SimObject() = default;

    EventQueue &eventQueue() const { return _eq; }
    Tick curTick() const { return _eq.curTick(); }
    const std::string &name() const { return _name; }

  protected:
    EventQueue &_eq;
    std::string _name;
};

} // namespace pcsim

#endif // PCSIM_SIM_EVENT_QUEUE_HH
