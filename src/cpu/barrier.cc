#include "src/cpu/barrier.hh"

#include <algorithm>

#include "src/protocol/hub.hh"
#include "src/sim/logging.hh"

namespace pcsim
{

namespace
{

/**
 * Did a chain event scheduled at @p insert_tick (before the wake tick)
 * by a normal inserter run before @p waker, at the waker's tick? Sets
 * @p tie when nothing orders the two; the chain event then counts as
 * first.
 */
bool
ranFirst(Tick insert_tick, const EventOrder &waker, bool &tie)
{
    if (insert_tick != waker.insertTick)
        return insert_tick < waker.insertTick;
    if (waker.early)
        return false;
    tie = true;
    return true;
}

} // namespace

SpinPrefix
spinWakePrefix(const SpinChain &c, Tick now, const EventOrder &waker)
{
    SpinPrefix p;
    if (now < c.firstPoll)
        return p;
    const Tick period = c.spinDelay + c.hitLatency;
    const Tick since = now - c.firstPoll;
    // L_k <= now < L_{k+1}.
    const std::uint64_t k = since / period + 1;
    const Tick phase = since % period;
    p.polls = k;
    p.completions = k - 1;
    if (phase == 0) {
        // L_k is at now, scheduled by D_{k-1}.
        if (!ranFirst(now - c.spinDelay, waker, p.tie))
            p.polls = k - 1;
    } else if (phase > c.hitLatency ||
               (phase == c.hitLatency &&
                ranFirst(now - c.hitLatency, waker, p.tie))) {
        // D_k is before now, or at now and scheduled by L_k first.
        p.completions = k;
    }
    return p;
}

SpinPrefix
spinPrefixBefore(const SpinChain &c, Tick tick)
{
    // A waker in the first position of @p tick precedes all of it.
    return spinWakePrefix(c, tick, EventOrder{0, true});
}

BarrierDriver::BarrierDriver(EventQueue &eq, std::vector<Hub *> hubs,
                             Addr base, std::uint32_t line_bytes,
                             Tick spin_delay)
    : _eq(eq),
      _hubs(std::move(hubs)),
      _base(base),
      _lineBytes(line_bytes),
      _spinDelay(spin_delay),
      _spinners(_hubs.size())
{
    if (_hubs.empty())
        fatal("barrier driver needs at least one CPU");
}

Addr
BarrierDriver::regionBytes() const
{
    return (_hubs.size() + 1) * static_cast<Addr>(_lineBytes);
}

void
BarrierDriver::arrive(unsigned cpu, std::function<void()> done)
{
    Spinner &s = _spinners.at(cpu);
    ++s.gen;
    s.done = std::move(done);

    if (_hubs.size() == 1) {
        // Degenerate single-CPU system.
        cpuPassed(cpu);
        return;
    }

    if (cpu == 0) {
        // Master: first post its own arrival implicitly by starting to
        // collect the slaves' arrival flags.
        collect(1);
    } else {
        // Slave: publish arrival (one write), then spin on release.
        s.flag = releaseLine();
        _hubs[cpu]->cpuAccess(/*is_write=*/true, arrivalLine(cpu),
                              [this, cpu](Version) { poll(cpu); });
    }
}

void
BarrierDriver::collect(unsigned slave)
{
    if (slave >= _hubs.size()) {
        // Everyone arrived: publish the release (one write), then the
        // master itself may pass.
        _hubs[0]->cpuAccess(/*is_write=*/true, releaseLine(),
                            [this](Version) { cpuPassed(0); });
        return;
    }
    Spinner &s = _spinners[0];
    s.slave = slave;
    s.flag = arrivalLine(slave);
    poll(0);
}

void
BarrierDriver::poll(unsigned cpu)
{
    _hubs[cpu]->cpuAccess(/*is_write=*/false, _spinners[cpu].flag,
                          [this, cpu](Version v) { polled(cpu, v); });
}

void
BarrierDriver::polled(unsigned cpu, Version v)
{
    Spinner &s = _spinners[cpu];
    if (v >= s.gen) {
        if (cpu == 0)
            collect(s.slave + 1);
        else
            cpuPassed(cpu);
        return;
    }

    // Respin on the CPU hub's shard queue (== _eq under the sequential
    // kernel) -- or park, when every poll until the cache controller
    // is next touched would re-read this same L1 copy.
    Hub &hub = *_hubs[cpu];
    EventQueue &eq = hub.eventQueue();
    CacheController &cc = hub.cacheCtrl();
    if (cc.spinCanPark(s.flag, v)) {
        s.parked = true;
        s.stale = v;
        s.chain = SpinChain{eq.curTick() + _spinDelay, _spinDelay,
                            hub.cfg().l1.hitLatency};
        s.credited = SpinPrefix{};
        ++s.stats.parks;
        cc.parkSpinner([this, cpu]() { wake(cpu); });
        return;
    }
    eq.scheduleIn(_spinDelay, [this, cpu]() { poll(cpu); });
}

void
BarrierDriver::wake(unsigned cpu)
{
    Spinner &s = _spinners[cpu];
    EventQueue &eq = _hubs[cpu]->eventQueue();
    const SpinPrefix ran =
        spinWakePrefix(s.chain, eq.curTick(), eq.runningOrder());
    if (ran.tie)
        ++s.stats.wakeTies;
    credit(cpu, ran);
    s.parked = false;

    // Materialize the first chain event that had not run yet, in the
    // queue position its virtual inserter gave it.
    if (ran.completions == ran.polls) {
        const Tick at = s.chain.pollTick(ran.polls + 1);
        eq.schedule(at, EventOrder{at - _spinDelay, false},
                    [this, cpu]() { poll(cpu); });
    } else {
        const Tick at = s.chain.pollTick(ran.polls);
        eq.schedule(at + s.chain.hitLatency, EventOrder{at, false},
                    [this, cpu, v = s.stale]() { polled(cpu, v); });
    }
}

void
BarrierDriver::credit(unsigned cpu, const SpinPrefix &upto)
{
    Spinner &s = _spinners[cpu];
    const std::uint64_t polls = upto.polls - s.credited.polls;
    const std::uint64_t events =
        polls + (upto.completions - s.credited.completions);
    s.credited = upto;
    if (!events)
        return;
    Hub &hub = *_hubs[cpu];
    hub.cacheCtrl().creditSpinPolls(s.flag, polls);
    hub.eventQueue().creditElided(events);
    s.stats.pollsElided += polls;
}

void
BarrierDriver::settleParked(Tick boundary)
{
    for (unsigned cpu = 0; cpu < _spinners.size(); ++cpu) {
        Spinner &s = _spinners[cpu];
        if (s.parked) {
            credit(cpu, spinPrefixBefore(s.chain, boundary));
            ++s.stats.settled;
        }
    }
}

BarrierDriver::SpinStats
BarrierDriver::spinStats() const
{
    SpinStats sum;
    for (const Spinner &s : _spinners) {
        sum.pollsElided += s.stats.pollsElided;
        sum.parks += s.stats.parks;
        sum.wakeTies += s.stats.wakeTies;
        sum.settled += s.stats.settled;
    }
    return sum;
}

void
BarrierDriver::cpuPassed(unsigned cpu)
{
    const Tick pass_tick = _hubs[cpu]->eventQueue().curTick();
    std::uint64_t completed = 0;
    Tick max_pass = 0;
    {
        std::lock_guard<std::mutex> lk(_passMutex);
        _maxPassTick = std::max(_maxPassTick, pass_tick);
        if (++_passedCount == _hubs.size()) {
            _passedCount = 0;
            ++_gensDone;
            completed = _gensDone;
            max_pass = _maxPassTick;
            _maxPassTick = 0;
        }
    }
    if (completed && _onGeneration)
        _onGeneration(completed, max_pass);
    // done() may re-enter arrive() for this CPU's next barrier.
    const std::function<void()> done = std::move(_spinners[cpu].done);
    done();
}

} // namespace pcsim
