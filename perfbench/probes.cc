#include "perfbench/probes.hh"

#include "src/protocol/hub.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/random.hh"

namespace pcbench
{

namespace
{

std::int64_t
nsSince(Clock::time_point start)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - start)
        .count();
}

/** Set while this thread is inside a timed Hub::handleMessage, so a
 *  Workload::next the handler triggers synchronously is subtracted
 *  from protocol self time. */
thread_local bool tlInHandler = false;

} // namespace

LayerCounts &
LayerCounts::operator+=(const LayerCounts &o)
{
    handleSelfSeconds += o.handleSelfSeconds;
    msgsHandled += o.msgsHandled;
    nextSeconds += o.nextSeconds;
    ops += o.ops;
    rwOps += o.rwOps;
    return *this;
}

class Interposers::Handler final : public pcsim::MessageHandler
{
  public:
    Handler(pcsim::Hub &hub, Slot &slot) : _hub(hub), _slot(slot) {}

    void
    handleMessage(const pcsim::Message &msg) override
    {
        const bool outer = tlInHandler;
        tlInHandler = true;
        const auto start = Clock::now();
        _hub.handleMessage(msg);
        _slot.handleNs += nsSince(start);
        ++_slot.msgs;
        tlInHandler = outer;
    }

  private:
    pcsim::Hub &_hub;
    Slot &_slot;
};

class Interposers::TimedWorkload final : public pcsim::Workload
{
  public:
    TimedWorkload(pcsim::Workload &inner, std::vector<Slot> &slots)
        : _inner(inner), _slots(slots)
    {
    }

    const std::string &name() const override { return _inner.name(); }
    unsigned numCpus() const override { return _inner.numCpus(); }

    bool
    next(unsigned cpu, pcsim::MemOp &op) override
    {
        const auto start = Clock::now();
        const bool more = _inner.next(cpu, op);
        const std::int64_t ns = nsSince(start);
        Slot &s = _slots[cpu];
        s.nextNs += ns;
        if (tlInHandler)
            s.nestedNextNs += ns;
        if (more) {
            ++s.ops;
            if (op.kind == pcsim::MemOp::Kind::Read ||
                op.kind == pcsim::MemOp::Kind::Write)
                ++s.rwOps;
        }
        return more;
    }

    void reset() override { _inner.reset(); }

    std::string
    paperProblemSize() const override
    {
        return _inner.paperProblemSize();
    }

    std::string
    scaledProblemSize() const override
    {
        return _inner.scaledProblemSize();
    }

    // Forwarded so page pre-placement sees the same streams.
    const std::vector<pcsim::MemOp> *
    cpuOps(unsigned cpu) const override
    {
        return _inner.cpuOps(cpu);
    }

  private:
    pcsim::Workload &_inner;
    std::vector<Slot> &_slots;
};

Interposers::Interposers(pcsim::System &sys, pcsim::Workload &inner)
    : _slots(sys.numNodes())
{
    for (unsigned n = 0; n < sys.numNodes(); ++n) {
        _handlers.push_back(
            std::make_unique<Handler>(sys.hub(n), _slots[n]));
        sys.network().registerHandler(static_cast<pcsim::NodeId>(n),
                                      _handlers.back().get());
    }
    _workload = std::make_unique<TimedWorkload>(inner, _slots);
}

Interposers::~Interposers() = default;

pcsim::Workload &
Interposers::workload()
{
    return *_workload;
}

LayerCounts
Interposers::totals() const
{
    LayerCounts t;
    for (const Slot &s : _slots) {
        t.handleSelfSeconds += 1e-9 * double(s.handleNs - s.nestedNextNs);
        t.msgsHandled += s.msgs;
        t.nextSeconds += 1e-9 * double(s.nextNs);
        t.ops += s.ops;
        t.rwOps += s.rwOps;
    }
    return t;
}

double
kernelNsPerEvent(std::uint64_t seed)
{
    constexpr unsigned kChains = 64;
    constexpr std::uint64_t kEvents = 2'000'000;

    pcsim::Rng rng(seed);
    std::vector<pcsim::Tick> delays(4096);
    for (auto &d : delays)
        d = rng.below(10) == 0 ? 5000 + rng.below(20000)
                               : 1 + rng.below(400);

    pcsim::EventQueue eq;
    struct Chains
    {
        pcsim::EventQueue &eq;
        const std::vector<pcsim::Tick> &delays;
        std::uint64_t left;
        std::size_t next = 0;

        void
        fire()
        {
            if (left == 0)
                return;
            --left;
            const pcsim::Tick d = delays[next++ % delays.size()];
            eq.scheduleIn(d, [this]() { fire(); });
        }
    } chains{eq, delays, kEvents};
    for (unsigned c = 0; c < kChains; ++c)
        eq.schedule(c, [&chains]() { chains.fire(); });

    const auto start = Clock::now();
    eq.run();
    const double seconds = secondsSince(start);
    return 1e9 * seconds / double(eq.stats().executed);
}

} // namespace pcbench
