#include "src/verify/mdg.hh"

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <set>

#include "src/mc/protocol_model.hh"

namespace pcsim::verify
{
namespace
{

/** True when @p e is delivery of a message (not a synthetic local
 *  event): PEvent values alias MsgType except the 23..30 block. */
bool
isMessageEvent(PEvent e)
{
    const auto v = static_cast<unsigned>(e);
    if (v >= static_cast<unsigned>(PEvent::NumPEvents))
        return false;
    return v < static_cast<unsigned>(PEvent::CpuLoad) ||
           v > static_cast<unsigned>(PEvent::RacPressure);
}

MsgType
msgOfEvent(PEvent e)
{
    return static_cast<MsgType>(e);
}

std::string
listNames(const std::vector<MsgType> &ts)
{
    std::string out;
    for (MsgType t : ts) {
        if (!out.empty())
            out += ", ";
        out += msgTypeName(t);
    }
    return out;
}

} // namespace

const char *
msgClassName(MsgClass c)
{
    switch (c) {
      case MsgClass::Request: return "request";
      case MsgClass::Intervention: return "intervention";
      case MsgClass::Response: return "response";
    }
    return "?";
}

MsgClass
msgClassOf(MsgType t)
{
    switch (t) {
      // Transaction-opening (or -reopening) messages a home may hold
      // off, forward, or NACK.
      case MsgType::ReqShared:
      case MsgType::ReqExcl:
      case MsgType::ReqUpgrade:
      case MsgType::WritebackM:
      case MsgType::UpdateWB:
      case MsgType::Undele:
        return MsgClass::Request;

      // Home/producer-generated fan-outs bounded by the transaction
      // they serve.
      case MsgType::Inval:
      case MsgType::IntervDowngrade:
      case MsgType::IntervTransfer:
      case MsgType::Delegate:
      case MsgType::Update:
        return MsgClass::Intervention;

      // Terminators and bounces: must always be consumable.
      case MsgType::RespSharedData:
      case MsgType::RespExclData:
      case MsgType::RespUpgradeAck:
      case MsgType::WritebackAck:
      case MsgType::Nack:
      case MsgType::NackNotHome:
      case MsgType::HomeHint:
      case MsgType::InvalAck:
      case MsgType::SharedResp:
      case MsgType::SharedWriteback:
      case MsgType::ExclResp:
      case MsgType::TransferAck:
      case MsgType::IntervNack:
      case MsgType::UpdGrant:
      case MsgType::UpdateDrop:
        return MsgClass::Response;

      case MsgType::NumMsgTypes:
        break;
    }
    return MsgClass::Response;
}

MdgReport
analyzeMdg(const TransitionSpec &spec)
{
    MdgReport r;

    // --- Node set and delivery index --------------------------------
    std::set<MsgType> used;
    // type -> rules that consume it (delivery rules).
    std::map<MsgType, std::vector<const TransitionRule *>> consumers;
    for (const TransitionRule &rule : spec.rules()) {
        if (isMessageEvent(rule.event)) {
            const MsgType t = msgOfEvent(rule.event);
            used.insert(t);
            consumers[t].push_back(&rule);
        }
        for (MsgType t : rule.sends)
            used.insert(t);
    }
    r.messages.assign(used.begin(), used.end());

    // --- Findings: undeliverable sends ------------------------------
    for (MsgType t : r.messages) {
        if (consumers.count(t))
            continue;
        // Sent somewhere (it is in `used`) but nothing consumes it:
        // point at the first offending rule.
        for (const TransitionRule &rule : spec.rules()) {
            if (!rule.allowsSend(t))
                continue;
            r.findings.push_back(
                {"undeliverable-send", ctrlName(rule.ctrl),
                 spec.stateName(rule.ctrl, rule.state),
                 msgTypeName(t),
                 std::string(msgTypeName(t)) +
                     " may be sent while handling " +
                     eventName(rule.event) +
                     " but no controller has a delivery rule for it; "
                     "the message wedges its channel forever"});
            break;
        }
    }

    // --- Sink fixpoint ----------------------------------------------
    // sink(t): t has at least one consumer and every consumer's sends
    // are all sinks. Responses fall out in the first round; a type
    // whose consumption can cascade into a non-sink never joins.
    std::set<MsgType> sinks;
    for (bool changed = true; changed;) {
        changed = false;
        for (MsgType t : r.messages) {
            if (sinks.count(t) || !consumers.count(t))
                continue;
            bool all_sinks = true;
            for (const TransitionRule *rule : consumers[t])
                for (MsgType s : rule->sends)
                    if (!sinks.count(s))
                        all_sinks = false;
            if (all_sinks) {
                sinks.insert(t);
                changed = true;
            }
        }
    }
    r.sinks.assign(sinks.begin(), sinks.end());

    // --- Edges with exemptions --------------------------------------
    for (const TransitionRule &rule : spec.rules()) {
        if (!isMessageEvent(rule.event))
            continue;
        const MsgType recv = msgOfEvent(rule.event);
        const bool nack_escape =
            rule.allowsSend(MsgType::Nack) ||
            rule.allowsSend(MsgType::NackNotHome);
        for (MsgType snd : rule.sends) {
            MdgEdge e{recv, snd, rule.ctrl, rule.state, nullptr};
            if (rule.ctrl == Ctrl::Cache &&
                msgClassOf(snd) == MsgClass::Request) {
                // A cache reissuing/issuing a request: bounded by the
                // requester's MSHR, never amplifies.
                e.exempt = "requester-bound";
                ++r.reissueEdges;
            } else if (rule.ctrl != Ctrl::Cache &&
                       msgClassOf(recv) == MsgClass::Request &&
                       msgClassOf(snd) == MsgClass::Request) {
                if (nack_escape) {
                    e.exempt = "nack-protected";
                    ++r.nackProtectedEdges;
                } else {
                    r.findings.push_back(
                        {"unprotected-forward", ctrlName(rule.ctrl),
                         spec.stateName(rule.ctrl, rule.state),
                         eventName(rule.event),
                         std::string("forwards the request as ") +
                             msgTypeName(snd) +
                             " with no Nack/NackNotHome escape in its "
                             "sends set; under channel pressure the "
                             "forward has no shed path"});
                }
            }
            r.edges.push_back(e);
        }
    }

    // --- Cycle detection (Tarjan over non-sink, non-exempt graph) ---
    std::vector<MsgType> nodes;
    for (MsgType t : r.messages)
        if (!sinks.count(t))
            nodes.push_back(t);
    std::map<MsgType, unsigned> index_of;
    for (unsigned i = 0; i < nodes.size(); ++i)
        index_of[nodes[i]] = i;

    std::vector<std::vector<unsigned>> adj(nodes.size());
    for (const MdgEdge &e : r.edges) {
        if (e.exempt || sinks.count(e.from) || sinks.count(e.to))
            continue;
        auto &out = adj[index_of[e.from]];
        const unsigned to = index_of[e.to];
        if (std::find(out.begin(), out.end(), to) == out.end())
            out.push_back(to);
    }

    const unsigned n = nodes.size();
    std::vector<unsigned> idx(n, 0), low(n, 0);
    std::vector<bool> on_stack(n, false);
    std::vector<unsigned> stack;
    unsigned counter = 1;
    std::vector<std::vector<unsigned>> sccs;

    std::function<void(unsigned)> strongconnect = [&](unsigned v) {
        idx[v] = low[v] = counter++;
        stack.push_back(v);
        on_stack[v] = true;
        for (unsigned w : adj[v]) {
            if (idx[w] == 0) {
                strongconnect(w);
                low[v] = std::min(low[v], low[w]);
            } else if (on_stack[w]) {
                low[v] = std::min(low[v], idx[w]);
            }
        }
        if (low[v] == idx[v]) {
            std::vector<unsigned> scc;
            unsigned w;
            do {
                w = stack.back();
                stack.pop_back();
                on_stack[w] = false;
                scc.push_back(w);
            } while (w != v);
            sccs.push_back(std::move(scc));
        }
    };
    for (unsigned v = 0; v < n; ++v)
        if (idx[v] == 0)
            strongconnect(v);

    for (const auto &scc : sccs) {
        const bool self_loop =
            scc.size() == 1 &&
            std::find(adj[scc[0]].begin(), adj[scc[0]].end(), scc[0]) !=
                adj[scc[0]].end();
        if (scc.size() < 2 && !self_loop)
            continue;
        // Witness: walk first in-SCC successors from the smallest
        // member until a node repeats.
        std::set<unsigned> members(scc.begin(), scc.end());
        const unsigned start = *std::min_element(scc.begin(), scc.end());
        std::vector<unsigned> path{start};
        std::set<unsigned> seen{start};
        unsigned cur = start;
        for (;;) {
            unsigned next = cur;
            for (unsigned w : adj[cur]) {
                if (members.count(w)) {
                    next = w;
                    break;
                }
            }
            path.push_back(next);
            if (seen.count(next))
                break;
            seen.insert(next);
            cur = next;
        }
        std::string cycle, classes;
        std::vector<MsgType> member_types;
        for (unsigned v : path) {
            if (!cycle.empty())
                cycle += " -> ";
            cycle += msgTypeName(nodes[v]);
        }
        for (unsigned v : scc)
            member_types.push_back(nodes[v]);
        std::sort(member_types.begin(), member_types.end());
        for (MsgType t : member_types) {
            if (!classes.empty())
                classes += ", ";
            classes += std::string(msgTypeName(t)) + ":" +
                       msgClassName(msgClassOf(t));
        }
        r.findings.push_back(
            {"channel-cycle", "", "", msgTypeName(nodes[start]),
             "message-dependence cycle among non-sink types: " + cycle +
                 " (" + classes +
                 "); consuming any member may require channel space "
                 "for the next, so bounded channels can wedge"});
    }

    // --- Channel-capacity audit -------------------------------------
    // A single handler activation may emit each allowed send once; if
    // one rule can emit more same-class messages than a bounded
    // channel holds, a burst into one destination can overflow. The
    // src/mc model's per-pair FIFOs are the reference bound.
    for (const TransitionRule &rule : spec.rules()) {
        unsigned per_class[3] = {0, 0, 0};
        for (MsgType t : rule.sends)
            ++per_class[static_cast<unsigned>(msgClassOf(t))];
        for (unsigned c = 0; c < 3; ++c) {
            if (per_class[c] <= mc::chanDepth)
                continue;
            r.findings.push_back(
                {"channel-capacity", ctrlName(rule.ctrl),
                 spec.stateName(rule.ctrl, rule.state),
                 eventName(rule.event),
                 "rule may emit " + std::to_string(per_class[c]) +
                     " " +
                     msgClassName(static_cast<MsgClass>(c)) +
                     "-class messages, exceeding the bounded channel "
                     "depth " +
                     std::to_string(mc::chanDepth) +
                     " of the src/mc reference network"});
        }
    }

    // --- Types the abstract model does not carry --------------------
    std::set<MsgType> modeled(std::begin(mc::modeledMessages),
                              std::end(mc::modeledMessages));
    // The model's ReqExcl also stands for ReqUpgrade.
    modeled.insert(MsgType::ReqUpgrade);
    for (MsgType t : r.messages)
        if (!modeled.count(t))
            r.unmodeled.push_back(t);

    return r;
}

JsonValue
mdgPolicyJson(const std::string &policy, const TransitionSpec &spec,
              const MdgReport &r)
{
    JsonValue doc = JsonValue::object();
    doc["policy"] = JsonValue(policy);
    doc["rules"] = JsonValue(std::uint64_t(spec.rules().size()));
    doc["messages"] = JsonValue(std::uint64_t(r.messages.size()));
    doc["edges"] = JsonValue(std::uint64_t(r.edges.size()));
    JsonValue sinks = JsonValue::array();
    for (MsgType t : r.sinks)
        sinks.push(JsonValue(msgTypeName(t)));
    doc["sinks"] = std::move(sinks);
    JsonValue non_sinks = JsonValue::array();
    for (MsgType t : r.messages)
        if (std::find(r.sinks.begin(), r.sinks.end(), t) ==
            r.sinks.end())
            non_sinks.push(JsonValue(msgTypeName(t)));
    doc["nonSinks"] = std::move(non_sinks);
    doc["reissueEdges"] = JsonValue(r.reissueEdges);
    doc["nackProtectedEdges"] = JsonValue(r.nackProtectedEdges);
    doc["unmodeled"] = JsonValue(listNames(r.unmodeled));
    doc["findings"] = lintFindingsJson(r.findings);
    return doc;
}

} // namespace pcsim::verify
