#include "src/verify/check.hh"

#include <algorithm>
#include <cstdint>
#include <map>

namespace pcsim::verify
{
namespace
{

/** The model cross-check: judge every distinct spec tuple the
 *  explorations took (first config to take it names it). */
void
crossCheck(const TransitionSpec &spec,
           const std::map<SpecTuple, std::string> &observed,
           LintReport &r)
{
    r.mcObserved = observed.size();
    for (const auto &[t, config] : observed) {
        std::string detail = "model (" + config + ")";
        switch (spec.fit(t.ctrl, t.state, t.event, t.next)) {
          case Fit::Ok:
            continue;
          case Fit::Impossible:
            detail += " exercises a pair the spec declares impossible";
            break;
          case Fit::NoRule:
            detail += " exercises a pair the spec has no rule for";
            break;
          case Fit::NextOutside:
            detail += " reaches '" + spec.stateName(t.ctrl, t.next) +
                      "', outside the rule's allowed set";
            break;
        }
        r.findings.push_back({"mc-mismatch", ctrlName(t.ctrl),
                              spec.stateName(t.ctrl, t.state),
                              eventName(t.event), std::move(detail)});
    }
}

JsonValue
u64(std::uint64_t v)
{
    return JsonValue(v);
}

JsonValue
strings(const std::vector<std::string> &v)
{
    JsonValue arr = JsonValue::array();
    for (const std::string &s : v)
        arr.push(JsonValue(s));
    return arr;
}

JsonValue
specJson(const TransitionSpec &spec)
{
    JsonValue sp = JsonValue::object();
    sp["rules"] = u64(spec.rules().size());
    sp["impossible"] = u64(spec.impossible().size());
    JsonValue states = JsonValue::object();
    for (unsigned ci = 0;
         ci < static_cast<unsigned>(Ctrl::NumCtrls); ++ci) {
        const Ctrl c = static_cast<Ctrl>(ci);
        states[ctrlName(c)] = u64(spec.states(c).size());
    }
    sp["states"] = std::move(states);
    return sp;
}

JsonValue
modelJson(const SpecReport &r)
{
    JsonValue model = JsonValue::object();
    model["configs"] = u64(r.lint.mcConfigs);
    model["statesExplored"] = u64(r.lint.mcStates);
    model["observedTransitions"] = u64(r.lint.mcObserved);
    JsonValue configs = JsonValue::array();
    for (const LivenessConfigStats &c : r.liveness.configs) {
        JsonValue e = JsonValue::object();
        e["name"] = JsonValue(c.name);
        e["states"] = u64(c.states);
        e["edges"] = u64(c.edges);
        e["progressEdges"] = u64(c.progressEdges);
        e["quiescentStates"] = u64(c.quiescentStates);
        e["completed"] = JsonValue(c.completed);
        configs.push(std::move(e));
    }
    model["explorations"] = std::move(configs);
    return model;
}

JsonValue
mdgJson(const MdgReport &r)
{
    // messages and sinks are both sorted, so one walk splits them.
    JsonValue sinks = JsonValue::array();
    JsonValue non_sinks = JsonValue::array();
    for (MsgType t : r.messages) {
        const bool sink = std::find(r.sinks.begin(), r.sinks.end(), t) !=
                          r.sinks.end();
        (sink ? sinks : non_sinks).push(JsonValue(msgTypeName(t)));
    }
    std::string unmodeled;
    for (MsgType t : r.unmodeled)
        unmodeled += (unmodeled.empty() ? "" : ", ") +
                     std::string(msgTypeName(t));

    JsonValue mdg = JsonValue::object();
    mdg["messages"] = u64(r.messages.size());
    mdg["edges"] = u64(r.edges.size());
    mdg["sinks"] = std::move(sinks);
    mdg["nonSinks"] = std::move(non_sinks);
    mdg["reissueEdges"] = u64(r.reissueEdges);
    mdg["nackProtectedEdges"] = u64(r.nackProtectedEdges);
    mdg["unmodeled"] = JsonValue(unmodeled);
    return mdg;
}

JsonValue
findingsJson(const SpecReport &r)
{
    JsonValue arr = JsonValue::array();
    for (const auto *list : {&r.lint.findings, &r.mdg.findings}) {
        for (const LintFinding &f : *list) {
            JsonValue e = JsonValue::object();
            e["kind"] = JsonValue(f.kind);
            e["controller"] = JsonValue(f.ctrl);
            e["state"] = JsonValue(f.state);
            e["event"] = JsonValue(f.event);
            e["detail"] = JsonValue(f.detail);
            arr.push(std::move(e));
        }
    }
    for (const LivenessFinding &f : r.liveness.findings) {
        JsonValue e = JsonValue::object();
        e["kind"] = JsonValue(f.kind);
        e["config"] = JsonValue(f.config);
        e["detail"] = JsonValue(f.detail);
        JsonValue w = JsonValue::object();
        w["prefix"] = strings(f.witness.prefix);
        w["cycle"] = strings(f.witness.cycle);
        JsonValue ops = JsonValue::array();
        for (const WitnessOp &op : f.witness.ops) {
            JsonValue o = JsonValue::object();
            o["node"] = u64(op.node);
            o["op"] = JsonValue(op.isWrite ? "write" : "read");
            ops.push(std::move(o));
        }
        w["ops"] = std::move(ops);
        e["witness"] = std::move(w);
        arr.push(std::move(e));
    }
    return arr;
}

} // namespace

SpecReport
checkSpec(const TransitionSpec &spec,
          const std::vector<NamedModelConfig> &configs)
{
    SpecReport r;
    r.spec = &spec;
    r.lint = lintSpec(spec);
    r.mdg = analyzeMdg(spec);
    std::map<SpecTuple, std::string> observed; // tuple -> first config
    for (const NamedModelConfig &c : configs) {
        ModelExploration e = exploreModel(c);
        ++r.lint.mcConfigs;
        r.lint.mcStates += e.stats.states;
        for (const SpecTuple &t : e.observed)
            observed.emplace(t, c.name);
        r.liveness.configs.push_back(std::move(e.stats));
        for (LivenessFinding &f : e.findings)
            r.liveness.findings.push_back(std::move(f));
    }
    crossCheck(spec, observed, r.lint);
    return r;
}

std::vector<SpecReport>
checkPolicies(const std::vector<PolicySpec> &policies)
{
    std::vector<SpecReport> reports;
    std::vector<McCheckSet> sets; // reports[i] was checked with sets[i]
    for (const PolicySpec &p : policies) {
        std::size_t i = 0;
        while (i < reports.size() &&
               (reports[i].spec != p.spec || sets[i] != p.set))
            ++i;
        if (i == reports.size()) {
            reports.push_back(checkSpec(*p.spec, modelConfigsFor(p.set)));
            sets.push_back(p.set);
        }
        reports[i].policies.push_back(p.name);
    }
    return reports;
}

JsonValue
lintDocument(const std::vector<SpecReport> &reports)
{
    JsonValue specs = JsonValue::array();
    for (const SpecReport &r : reports) {
        JsonValue e = JsonValue::object();
        e["policies"] = strings(r.policies);
        e["spec"] = specJson(*r.spec);
        e["model"] = modelJson(r);
        e["mdg"] = mdgJson(r.mdg);
        e["findings"] = findingsJson(r);
        specs.push(std::move(e));
    }
    JsonValue doc = JsonValue::object();
    doc["schemaVersion"] = u64(2);
    doc["generator"] = JsonValue("pcsim-lint");
    doc["specs"] = std::move(specs);
    return doc;
}

} // namespace pcsim::verify
