/**
 * @file
 * Discrete event simulation kernel.
 *
 * The EventQueue executes callbacks in (tick, position, sequence)
 * order. An event's position is where its inserter put it among the
 * events of its tick (EventOrder: the insert tick, then "early" ahead
 * of "normal"); sequence numbers break the remaining ties in schedule
 * order, so a simulation run is fully reproducible for a given seed.
 *
 * Internals (see DESIGN.md, "Simulation kernel internals"): the queue
 * is a calendar with a sliding horizon. Events due less than `horizon`
 * ticks ahead sit in a ring of per-tick lists of pooled event nodes,
 * sorted by position and FIFO within a position. Most inserts append;
 * only an event positioned ahead of the list's tail (a resumed spin
 * event, or one queued before a remote delivery's future arrival
 * tick) walks the list. Later events wait in a (tick, position,
 * seq)-ordered heap and move into the ring at the first tick advance
 * that covers them, before that tick's events queue anything. A
 * callback is constructed in place inside a recycled node and never
 * moves, so scheduleIn(delta, lambda) performs zero heap allocations.
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
    /** Events queued at or beyond the horizon (heap path). */
    std::uint64_t overflowEvents = 0;
    /** Tick advances that migrated at least one heap event into the
     *  ring. */
    std::uint64_t windowAdvances = 0;
    /** Events a component skipped and credited with creditElided();
     *  already included in executed / scheduled / inlineCallbacks. */
    std::uint64_t elided = 0;
    /** Events a component folded into another one and credited with
     *  creditFolded(); already included in executed / scheduled /
     *  inlineCallbacks. */
    std::uint64_t folded = 0;
    /** Times a running event re-armed itself (rearm()); not counted
     *  in executed / scheduled. */
    std::uint64_t rearms = 0;
};

/**
 * Where an event sits among the events of its tick. Events of one tick
 * run in order of insert tick; at equal insert ticks, early events run
 * ahead of normal ones, and each group keeps schedule order. A plain
 * schedule is a normal event inserted at the current tick; an early
 * one stands for an event queued by something that ran before every
 * normal event of its insert tick (the network's remote deliveries,
 * positioned as if booked when their message arrived).
 */
struct EventOrder
{
    /** Tick the event counts as scheduled at. */
    Tick insertTick = 0;
    /** Ahead of the normal events inserted at the same tick. */
    bool early = false;

    /** The sort key: insert tick, then early before normal. */
    std::uint64_t
    key() const
    {
        return (insertTick << 1) | (early ? 0 : 1);
    }

    static EventOrder
    fromKey(std::uint64_t key)
    {
        return EventOrder{key >> 1, (key & 1) == 0};
    }
};

/**
 * The central simulation event queue.
 *
 * Components schedule closures at absolute or relative ticks; run()
 * drains the queue in (tick, position, sequence) order until it is
 * empty, a stop condition triggers, or a tick limit is reached.
 */
class EventQueue
{
  public:
    /** Inline callback capacity per event node: room for the largest
     *  hot closure, a cache controller's conflict retry (a pointer, a
     *  write flag, an address, a retry count and a std::function).
     *  Messages are pooled, so network and hub closures capture
     *  [this, pointer]. Larger callables fall back to one heap
     *  allocation. */
    static constexpr std::size_t inlineCallbackBytes = 80;

    /** log2 of the calendar horizon, in ticks. 8192 covers every
     *  latency in Table 1 (hops, DRAM, NI occupancy) and nearly every
     *  NACK retry backoff: on KVServe-256, 109 of 2.07M events are due
     *  further ahead; 4096 left 91,403 of them in the heap. */
    static constexpr unsigned kLogBuckets = 13;
    /** An event due fewer than this many ticks after curTick() is
     *  queued in the O(1) ring; a later one waits in the heap. */
    static constexpr Tick horizon = Tick(1) << kLogBuckets;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    ~EventQueue() { destroyPending(); }

    /** Current simulated time. */
    Tick curTick() const { return _curTick; }

    /** Schedule callable @p f at absolute tick @p when (must be
     *  >= curTick) as a normal event inserted now: after every event
     *  queued for that tick so far, except remote deliveries whose
     *  arrival tick is still ahead. */
    template <typename F>
    void
    schedule(Tick when, F &&f)
    {
        if (when < _curTick)
            panic("scheduling event in the past (%llu < %llu)",
                  (unsigned long long)when, (unsigned long long)_curTick);
        scheduleKeyed(when, (_curTick << 1) | 1, std::forward<F>(f));
    }

    /**
     * Schedule @p f at tick @p when in position @p pos: after every
     * event of that tick whose position is at or before @p pos, ahead
     * of those after it. The insert tick may lie in the past (the
     * barrier resumes an elided spin chain where its virtual inserter
     * put it) or in the future (a remote delivery is queued at send
     * time where the arrival would have put it), but not after
     * @p when, and an event for the current tick may not go ahead of
     * the running one.
     */
    template <typename F>
    void
    schedule(Tick when, const EventOrder &pos, F &&f)
    {
        const std::uint64_t key = pos.key();
        if (when < _curTick || pos.insertTick > when ||
            (when == _curTick && key < _runningOrder))
            panic("schedule: event at %llu in position %llu%s from "
                  "tick %llu",
                  (unsigned long long)when,
                  (unsigned long long)pos.insertTick,
                  pos.early ? " (early)" : "",
                  (unsigned long long)_curTick);
        scheduleKeyed(when, key, std::forward<F>(f));
    }

    /** Schedule callable @p f @p delta ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delta, F &&f)
    {
        schedule(_curTick + delta, std::forward<F>(f));
    }

    /**
     * From inside a running event: once its callback returns, queue
     * the same event again at @p when (> curTick), in its own position,
     * instead of retiring it. It stays one event: neither the re-arm
     * nor the second run counts as scheduled or executed, and the
     * callable is not rebuilt. @c rearms counts these.
     */
    void
    rearm(Tick when)
    {
        if (when <= _curTick)
            panic("rearm at %llu from tick %llu",
                  (unsigned long long)when,
                  (unsigned long long)_curTick);
        _rearmAt = when;
    }

    /** Position of the event being executed (the last one, between
     *  events). */
    EventOrder
    runningOrder() const
    {
        return EventOrder::fromKey(_runningOrder);
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
        credit(n);
        _stats.elided += n;
    }

    /**
     * Account for @p n events a component no longer schedules because
     * their work now rides in another event (the network's arrival
     * drains, folded into its deliveries). Each counts as one executed
     * event with an inline callback, like creditElided(); @c folded
     * keeps the count apart.
     */
    void
    creditFolded(std::uint64_t n)
    {
        credit(n);
        _stats.folded += n;
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
     * @return number of events executed (a re-armed run not counted).
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
            executed += executeOne(when);
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
        _curTick = 0;
        _nextFarSeq = 0;
        _runningOrder = 0;
        _rearmAt = 0;
        _stopRequested = false;
        _stats = EventQueueStats{};
    }

    /** Kernel telemetry accumulated since construction / reset(). */
    const EventQueueStats &stats() const { return _stats; }

  private:
    static constexpr Tick kSlotMask = horizon - 1;
    static constexpr std::size_t kWords = horizon / 64;
    static constexpr std::size_t kNodesPerSlab = 256;

    /**
     * One pending event. Nodes are recycled through an intrusive
     * free list and never move while armed, so the callable is
     * constructed directly in @c buf and needs no move support.
     */
    struct EventNode
    {
        /** Link within a tick slot / free-list link. */
        EventNode *next;
        void (*invoke)(void *);
        /** Null for trivially-destructible inline callables; frees
         *  the heap copy for oversized ones. */
        void (*dtor)(void *);
        /** EventOrder::key() (fills the padding in front of the
         *  aligned buffer). */
        std::uint64_t order;
        alignas(std::max_align_t)
            unsigned char buf[inlineCallbackBytes];
    };
    static_assert(sizeof(EventNode) % alignof(std::max_align_t) == 0,
                  "node stride must preserve buffer alignment");
    static_assert(offsetof(EventNode, buf) == 4 * sizeof(void *),
                  "the order key must live in the buffer's padding");

    /** One tick's events, sorted by position, FIFO within one. */
    struct Slot
    {
        EventNode *head = nullptr;
        EventNode *tail = nullptr;
    };

    /** An event at or beyond the horizon, heap-ordered by (when,
     *  order, seq). */
    struct FarEvent
    {
        Tick when;
        std::uint64_t order;
        std::uint64_t seq;
        EventNode *node;
    };

    /** Comparator making std::push_heap/pop_heap a min-heap. */
    struct FarLater
    {
        bool
        operator()(const FarEvent &a, const FarEvent &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.order != b.order)
                return a.order > b.order;
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
    scheduleKeyed(Tick when, std::uint64_t order, F &&f)
    {
        EventNode *n = allocNode();
        emplace(n, std::forward<F>(f));
        n->order = order;
        ++_stats.scheduled;
        link(when, n);
        notePending();
    }

    void
    credit(std::uint64_t n)
    {
        _stats.executed += n;
        _stats.scheduled += n;
        _stats.inlineCallbacks += n;
    }

    void
    notePending()
    {
        const std::uint64_t pending = _ringCount + _overflow.size();
        if (pending > _stats.peakPending)
            _stats.peakPending = pending;
    }

    /** Queue @p n at tick @p when: into its slot after every node at
     *  or before its position, or into the overflow heap when the
     *  tick lies beyond the horizon. */
    void
    link(Tick when, EventNode *n)
    {
        if (when - _curTick >= horizon) {
            ++_stats.overflowEvents;
            _overflow.push_back(
                FarEvent{when, n->order, _nextFarSeq++, n});
            std::push_heap(_overflow.begin(), _overflow.end(),
                           FarLater{});
            return;
        }
        ++_ringCount;
        const std::size_t slot = static_cast<std::size_t>(when & kSlotMask);
        Slot &s = _slots[slot];
        if (!s.head) {
            _occupied[slot >> 6] |= std::uint64_t(1) << (slot & 63);
            n->next = nullptr;
            s.head = s.tail = n;
        } else if (s.tail->order <= n->order) {
            n->next = nullptr;
            s.tail->next = n;
            s.tail = n;
        } else {
            // Rare: an event positioned ahead of the slot's last one
            // (the tail's position is beyond ours, so the walk stops).
            EventNode **at = &s.head;
            while ((*at)->order <= n->order)
                at = &(*at)->next;
            n->next = *at;
            *at = n;
        }
    }

    /** First occupied slot at or after @p from, wrapping around the
     *  ring (which must not be empty). */
    std::size_t
    nextOccupied(std::size_t from) const
    {
        std::size_t word = from >> 6;
        std::uint64_t bits = _occupied[word] &
                             (~std::uint64_t(0) << (from & 63));
        for (std::size_t i = 0; i <= kWords; ++i) {
            if (bits)
                return (word << 6) + __builtin_ctzll(bits);
            word = (word + 1) % kWords;
            bits = _occupied[word];
        }
        panic("event ring count %llu but no occupied slot",
              (unsigned long long)_ringCount);
    }

    /** Tick of the next event, without executing. Ring events lie
     *  below curTick + horizon and overflow events at or beyond it,
     *  so the ring is authoritative while non-empty. */
    bool
    findNextTick(Tick &when) const
    {
        if (_ringCount) {
            const std::size_t start =
                static_cast<std::size_t>(_curTick & kSlotMask);
            when = _curTick + ((nextOccupied(start) - start) & kSlotMask);
            return true;
        }
        if (!_overflow.empty()) {
            when = _overflow.front().when;
            return true;
        }
        return false;
    }

    /** Move every overflow event the horizon now covers into the
     *  ring. No event of those ticks is in the ring yet, and they
     *  leave the heap in (when, order, seq) order, so each slot fills
     *  already sorted. */
    void
    migrate()
    {
        ++_stats.windowAdvances;
        do {
            std::pop_heap(_overflow.begin(), _overflow.end(),
                          FarLater{});
            const FarEvent fe = _overflow.back();
            _overflow.pop_back();
            link(fe.when, fe.node);
        } while (!_overflow.empty() &&
                 _overflow.front().when - _curTick < horizon);
    }

    /** Execute the next event; @p when must come from findNextTick.
     *  Returns 0 when the event re-armed itself, else 1. */
    unsigned
    executeOne(Tick when)
    {
        if (when != _curTick) {
            // Advance first, so far events reach the ring ahead of
            // anything the new tick's events link.
            _curTick = when;
            if (!_overflow.empty() &&
                _overflow.front().when - when < horizon)
                migrate();
        }
        const std::size_t slot =
            static_cast<std::size_t>(when & kSlotMask);
        Slot &s = _slots[slot];
        // Detach before invoking: the callback may append same-tick
        // events to this very slot.
        EventNode *n = s.head;
        s.head = n->next;
        --_ringCount;
        if (!s.head) {
            s.tail = nullptr;
            _occupied[slot >> 6] &=
                ~(std::uint64_t(1) << (slot & 63));
        }
        _runningOrder = n->order;
        n->invoke(n->buf);
        if (_rearmAt) {
            const Tick at = _rearmAt;
            _rearmAt = 0;
            ++_stats.rearms;
            link(at, n);
            return 0;
        }
        if (n->dtor)
            n->dtor(n->buf);
        freeNode(n);
        ++_stats.executed;
        return 1;
    }

    /** Destroy every pending callable and recycle its node (reset()
     *  and destruction; pending state may own resources). */
    void
    destroyPending()
    {
        for (Slot &s : _slots) {
            for (EventNode *n = s.head; n;) {
                EventNode *next = n->next;
                if (n->dtor)
                    n->dtor(n->buf);
                freeNode(n);
                n = next;
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

    Slot _slots[horizon];
    std::uint64_t _occupied[kWords] = {};
    std::uint64_t _ringCount = 0;

    std::vector<FarEvent> _overflow;
    std::uint64_t _nextFarSeq = 0;

    EventNode *_freeNodes = nullptr;
    std::vector<std::unique_ptr<EventNode[]>> _slabs;
    std::size_t _slabUsed = kNodesPerSlab;

    Tick _curTick = 0;
    /** EventOrder::key() of the running event. */
    std::uint64_t _runningOrder = 0;
    /** Tick the running event asked to be re-armed at (0 = none). */
    Tick _rearmAt = 0;
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
