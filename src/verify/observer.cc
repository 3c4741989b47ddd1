#include "src/verify/observer.hh"

#include <algorithm>
#include <cstdio>

#include "src/sim/logging.hh"

namespace pcsim::verify
{

std::vector<TransitionObserver::Frame> &
TransitionObserver::stack()
{
    static thread_local std::vector<Frame> frames;
    return frames;
}

void
TransitionObserver::begin(Ctrl c, NodeId node, Addr line, StateId pre,
                          PEvent ev)
{
    const Frame f{_spec.find(c, pre, ev), c, node, line, pre, ev};
    const Fit fit = _spec.fit(c, pre, ev);
    if (fit == Fit::Impossible)
        violation(f, "event declared impossible in this state", "");
    if (fit == Fit::NoRule)
        violation(f, "no rule for this (state, event) pair", "");
    stack().push_back(f);
}

void
TransitionObserver::noteSend(const Message &msg)
{
    if (stack().empty())
        return;
    const Frame &f = stack().back();
    if (!f.rule->allowsSend(msg.type)) {
        violation(f, "handler sent a message the spec does not allow",
                  std::string("sent ") + msgTypeName(msg.type));
    }
}

void
TransitionObserver::end(StateId post)
{
    const Frame f = stack().back();
    stack().pop_back();
    if (_spec.fit(f.ctrl, f.pre, f.event, post) == Fit::NextOutside) {
        violation(f, "next state outside the spec's allowed set",
                  "went to " + _spec.stateName(f.ctrl, post));
    }
    const std::uint32_t key =
        (static_cast<std::uint32_t>(f.ctrl) << 24) |
        (static_cast<std::uint32_t>(f.pre) << 16) |
        (static_cast<std::uint32_t>(f.event) << 8) |
        static_cast<std::uint32_t>(post);
    std::unique_lock<std::mutex> lk(_mutex, std::defer_lock);
    if (_parallel)
        lk.lock();
    ++_counts[key];
}

std::vector<TransitionCount>
TransitionObserver::coverage() const
{
    std::vector<std::pair<std::uint32_t, std::uint64_t>> flat(
        _counts.begin(), _counts.end());
    std::sort(flat.begin(), flat.end());
    std::vector<TransitionCount> out;
    out.reserve(flat.size());
    for (const auto &[key, count] : flat) {
        TransitionCount t;
        t.ctrl = static_cast<std::uint8_t>(key >> 24);
        t.state = static_cast<std::uint8_t>(key >> 16);
        t.event = static_cast<std::uint8_t>(key >> 8);
        t.next = static_cast<std::uint8_t>(key);
        t.count = count;
        out.push_back(t);
    }
    return out;
}

void
TransitionObserver::violation(const Frame &f, const char *what,
                              const std::string &detail) const
{
    std::string trace = _trace
                            ? _trace->format(f.line)
                            : std::string("  (message trace disabled)\n");
    panic("conformance violation: %s\n"
          "  controller %s, node %u, line %#llx\n"
          "  state %s, event %s%s%s\n"
          "recent messages for this line:\n%s",
          what, ctrlName(f.ctrl), unsigned(f.node),
          static_cast<unsigned long long>(f.line),
          _spec.stateName(f.ctrl, f.pre).c_str(), eventName(f.event),
          detail.empty() ? "" : ", ", detail.c_str(), trace.c_str());
}

} // namespace pcsim::verify
