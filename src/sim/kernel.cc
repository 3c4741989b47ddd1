#include "src/sim/kernel.hh"

#include <algorithm>
#include <thread>

#include "src/sim/logging.hh"

namespace pcsim
{

ShardMap
ShardMap::leafAligned(unsigned num_nodes, unsigned radix,
                      unsigned requested)
{
    if (num_nodes == 0)
        fatal("shard map needs at least one node");
    if (radix == 0)
        fatal("shard map needs a nonzero leaf radix");
    const unsigned leaves = (num_nodes + radix - 1) / radix;
    unsigned shards = std::max(1u, requested);
    shards = std::min(shards, leaves);

    ShardMap map;
    map.numShards = shards;
    map.shardOf.resize(num_nodes);
    // Balanced contiguous partition of whole leaves: leaf l belongs
    // to shard l * shards / leaves, so every shard gets floor or
    // ceil of leaves / shards consecutive leaf routers.
    for (unsigned n = 0; n < num_nodes; ++n) {
        const unsigned leaf = n / radix;
        map.shardOf[n] = static_cast<unsigned>(
            std::uint64_t(leaf) * shards / leaves);
    }
    return map;
}

SimKernel::SimKernel(ShardMap map, Tick action_grid, Tick lookahead)
    : _map(std::move(map)), _grid(action_grid), _lookahead(lookahead)
{
    if (_grid == 0 || _lookahead == 0)
        fatal("kernel needs nonzero action grid and lookahead");
    _queues.reserve(_map.numShards);
    for (unsigned s = 0; s < _map.numShards; ++s)
        _queues.emplace_back(std::make_unique<EventQueue>());
}

void
SimKernel::setFlushHook(std::function<void(unsigned)> flush)
{
    _flush = std::move(flush);
}

Tick
SimKernel::boundaryAfter(Tick at) const
{
    return (at / _grid + 1) * _grid;
}

void
SimKernel::requestGlobalAction(Tick at, std::function<void(Tick)> fn)
{
    std::lock_guard<std::mutex> lk(_actionMutex);
    if (_actionPending)
        panic("a global action is already pending");
    if (!_actionsPossible)
        panic("global action requested after the action phase ended");
    _actionPending = true;
    _actionBoundary = boundaryAfter(at);
    _actionFn = std::move(fn);
    // The sequential path reacts immediately; parallel shards notice
    // at the next window barrier (the grid guarantees the boundary
    // lies at or beyond every shard's current window end).
    if (_map.numShards == 1)
        _queues[0]->requestStop();
}

std::uint64_t
SimKernel::run(Tick limit)
{
    if (_map.numShards == 1)
        return runSequential(limit);
    return runParallel(limit);
}

std::uint64_t
SimKernel::runSequential(Tick limit)
{
    EventQueue &q = *_queues[0];
    std::uint64_t executed = 0;
    while (true) {
        Tick cap = limit;
        {
            std::lock_guard<std::mutex> lk(_actionMutex);
            if (_actionPending)
                cap = std::min(limit, _actionBoundary - 1);
        }
        executed += q.run(cap);

        std::function<void(Tick)> fn;
        Tick boundary = 0;
        {
            std::lock_guard<std::mutex> lk(_actionMutex);
            if (_actionPending) {
                Tick t;
                const bool any = q.peekNextTick(t);
                if (any && t < _actionBoundary) {
                    if (t > limit)
                        return executed; // limit hit before boundary
                    continue; // stop consumed mid-drain; keep going
                }
                fn = std::move(_actionFn);
                boundary = _actionBoundary;
                _actionPending = false;
                _actionsPossible = false;
            }
        }
        if (fn) {
            fn(boundary);
            ++_stats.actionsApplied;
            continue;
        }
        break; // queue empty or next event beyond the limit
    }
    return executed;
}

std::uint64_t
SimKernel::runParallel(Tick limit)
{
    _done = false;
    _executed.store(0, std::memory_order_relaxed);
    const unsigned shards = _map.numShards;
    std::vector<std::thread> workers;
    workers.reserve(shards - 1);
    for (unsigned s = 1; s < shards; ++s)
        workers.emplace_back(
            [this, s, limit]() { workerLoop(s, limit); });
    workerLoop(0, limit);
    for (std::thread &t : workers)
        t.join();
    return _executed.load(std::memory_order_relaxed);
}

void
SimKernel::workerLoop(unsigned shard, Tick limit)
{
    EventQueue &q = *_queues[shard];
    while (true) {
        // (1) every shard finished the previous window (or is just
        // entering); cross-shard channels are now stable.
        barrierWait();
        if (_flush)
            _flush(shard);
        // (2) all inbound traffic is in the calendars; shard 0 can
        // now see the true global minimum next tick.
        barrierWait();
        if (shard == 0)
            planWindow(limit);
        // (3) the window plan (or the done flag) is visible to all.
        barrierWait();
        if (_done)
            break;
        const std::uint64_t n = q.run(std::min(_windowEnd - 1, limit));
        _executed.fetch_add(n, std::memory_order_relaxed);
    }
}

void
SimKernel::planWindow(Tick limit)
{
    Tick next = maxTick;
    bool any = false;
    for (const auto &q : _queues) {
        Tick t;
        if (q->peekNextTick(t)) {
            any = true;
            next = std::min(next, t);
        }
    }

    {
        std::lock_guard<std::mutex> lk(_actionMutex);
        if (_actionPending && (!any || _actionBoundary <= next)) {
            // Every event below the boundary has executed and none at
            // or beyond it has: same partition the sequential kernel
            // applies the action at. The other workers are parked at
            // barrier (3), so the action may touch any shard's state.
            std::function<void(Tick)> fn = std::move(_actionFn);
            const Tick boundary = _actionBoundary;
            _actionPending = false;
            _actionsPossible = false;
            fn(boundary);
            ++_stats.actionsApplied;
        }
    }

    if (!any || next > limit) {
        _done = true;
        return;
    }

    Tick end;
    if (_actionsPossible) {
        // Grid-aligned windows: a global action requested inside this
        // window lands on the next grid boundary, which is exactly
        // the window end -- it can never fall mid-window.
        end = (next / _grid + 1) * _grid;
    } else {
        // Free-running lookahead windows, skipping ahead to the
        // earliest pending event.
        end = next > maxTick - _lookahead ? maxTick : next + _lookahead;
    }
    _windowEnd = end;
    ++_stats.windows;
    _stats.barriers += 3;
}

void
SimKernel::barrierWait()
{
    const std::uint64_t gen =
        _barGeneration.load(std::memory_order_acquire);
    const unsigned n = _map.numShards;
    if (_barArrived.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        _barArrived.store(0, std::memory_order_relaxed);
        _barGeneration.fetch_add(1, std::memory_order_release);
        return;
    }
    unsigned spins = 0;
    while (_barGeneration.load(std::memory_order_acquire) == gen) {
        if (++spins >= 4096) {
            std::this_thread::yield();
            spins = 0;
        }
    }
}

Tick
SimKernel::maxCurTick() const
{
    Tick t = 0;
    for (const auto &q : _queues)
        t = std::max(t, q->curTick());
    return t;
}

EventQueueStats
SimKernel::aggregateStats() const
{
    EventQueueStats sum;
    for (const auto &q : _queues) {
        const EventQueueStats &s = q->stats();
        sum.executed += s.executed;
        sum.scheduled += s.scheduled;
        sum.peakPending = std::max(sum.peakPending, s.peakPending);
        sum.inlineCallbacks += s.inlineCallbacks;
        sum.heapCallbacks += s.heapCallbacks;
        sum.overflowEvents += s.overflowEvents;
        sum.windowAdvances += s.windowAdvances;
        sum.elided += s.elided;
        sum.folded += s.folded;
        sum.rearms += s.rearms;
    }
    return sum;
}

} // namespace pcsim
