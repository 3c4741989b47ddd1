#include "src/verify/lint.hh"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <map>
#include <set>

#include "src/verify/liveness.hh"

namespace pcsim::verify
{

namespace
{

void
finding(LintReport &r, const char *kind, Ctrl c, const std::string &state,
        const std::string &event, std::string detail)
{
    r.findings.push_back(
        {kind, ctrlName(c), state, event, std::move(detail)});
}

// --- Pass 1: unhandled (state, event) pairs -------------------------

void
lintUnhandled(const TransitionSpec &spec, LintReport &r)
{
    for (unsigned ci = 0;
         ci < static_cast<unsigned>(Ctrl::NumCtrls); ++ci) {
        const Ctrl c = static_cast<Ctrl>(ci);
        for (const auto &[s, name] : spec.states(c)) {
            for (PEvent e : spec.relevant(c)) {
                if (spec.find(c, s, e) || spec.isImpossible(c, s, e))
                    continue;
                finding(r, "unhandled", c, name, eventName(e),
                        "no rule and no impossible declaration for "
                        "this (state, event) pair");
            }
        }
    }
}

// --- Pass 2: ambiguous / conflicting entries ------------------------

void
lintAmbiguous(const TransitionSpec &spec, LintReport &r)
{
    std::map<SpecTuple, unsigned> seen; // keyed with next = 0
    for (const TransitionRule &rule : spec.rules()) {
        if (++seen[{rule.ctrl, rule.state, rule.event}] == 2) {
            finding(r, "ambiguous", rule.ctrl,
                    spec.stateName(rule.ctrl, rule.state),
                    eventName(rule.event),
                    "duplicate rules for this (state, event) pair; "
                    "lookups use the first");
        }
    }
    for (const TransitionRule &rule : spec.rules()) {
        if (spec.isImpossible(rule.ctrl, rule.state, rule.event)) {
            finding(r, "ambiguous", rule.ctrl,
                    spec.stateName(rule.ctrl, rule.state),
                    eventName(rule.event),
                    "pair has both a rule and an impossible "
                    "declaration");
        }
    }
}

// --- Pass 3: unreachable states -------------------------------------

void
lintUnreachable(const TransitionSpec &spec, LintReport &r)
{
    for (unsigned ci = 0;
         ci < static_cast<unsigned>(Ctrl::NumCtrls); ++ci) {
        const Ctrl c = static_cast<Ctrl>(ci);
        std::set<StateId> reach = {spec.initialState(c)};
        bool grew = true;
        while (grew) {
            grew = false;
            for (const TransitionRule &rule : spec.rules()) {
                if (rule.ctrl != c || !reach.count(rule.state))
                    continue;
                for (StateId n : rule.next)
                    grew |= reach.insert(n).second;
            }
        }
        for (const auto &[s, name] : spec.states(c)) {
            if (!reach.count(s)) {
                finding(r, "unreachable", c, name, "",
                        "no chain of rules reaches this state from "
                        "the initial state '" +
                            spec.stateName(c, spec.initialState(c)) +
                            "'");
            }
        }
    }
}

// --- Pass 4: model cross-check --------------------------------------

void
lintModelCrossCheck(const TransitionSpec &spec, McCheckSet set,
                    LintReport &r)
{
    // The explorations are shared with the liveness pass (see
    // src/verify/liveness.hh): same configuration family, and each
    // configuration is explored once per process.
    std::map<SpecTuple, std::string> observed; // tuple -> first config
    for (const NamedModelConfig &mcfg : modelConfigsFor(set)) {
        const ModelExploration e = exploreModel(mcfg);
        std::string failure = e.violation;
        for (const LivenessFinding &f : e.findings) {
            if (failure.empty() && f.kind == "deadlock")
                failure = f.detail;
        }
        if (!failure.empty()) {
            finding(r, "mc-mismatch", Ctrl::Cache, "", "",
                    "model exploration failed (" + mcfg.name +
                        "): " + failure);
            continue;
        }
        ++r.mcConfigs;
        r.mcStates += e.stats.states;
        for (const SpecTuple &t : e.observed)
            observed.emplace(t, mcfg.name);
    }
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
        finding(r, "mc-mismatch", t.ctrl,
                spec.stateName(t.ctrl, t.state), eventName(t.event),
                std::move(detail));
    }
}

std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

LintReport
lintSpec(const TransitionSpec &spec)
{
    LintReport r;
    lintUnhandled(spec, r);
    lintAmbiguous(spec, r);
    lintUnreachable(spec, r);
    return r;
}

LintReport
lintSpecWithModel(const TransitionSpec &spec, McCheckSet set)
{
    LintReport r = lintSpec(spec);
    lintModelCrossCheck(spec, set, r);
    return r;
}

JsonValue
lintToJson(const TransitionSpec &spec, const LintReport &r)
{
    JsonValue doc = JsonValue::object();
    doc["schemaVersion"] = JsonValue(std::uint64_t(1));
    doc["generator"] = JsonValue("pcsim-lint");

    JsonValue sp = JsonValue::object();
    sp["rules"] = JsonValue(std::uint64_t(spec.rules().size()));
    sp["impossible"] =
        JsonValue(std::uint64_t(spec.impossible().size()));
    JsonValue states = JsonValue::object();
    for (unsigned ci = 0;
         ci < static_cast<unsigned>(Ctrl::NumCtrls); ++ci) {
        const Ctrl c = static_cast<Ctrl>(ci);
        states[ctrlName(c)] =
            JsonValue(std::uint64_t(spec.states(c).size()));
    }
    sp["states"] = std::move(states);
    doc["spec"] = std::move(sp);

    if (r.mcConfigs) {
        JsonValue model = JsonValue::object();
        model["configs"] = JsonValue(r.mcConfigs);
        model["statesExplored"] = JsonValue(r.mcStates);
        model["observedTransitions"] = JsonValue(r.mcObserved);
        doc["model"] = std::move(model);
    }

    doc["findings"] = lintFindingsJson(r.findings);
    return doc;
}

JsonValue
lintFindingsJson(const std::vector<LintFinding> &findings)
{
    JsonValue arr = JsonValue::array();
    for (const LintFinding &f : findings) {
        JsonValue e = JsonValue::object();
        e["kind"] = JsonValue(f.kind);
        e["controller"] = JsonValue(f.ctrl);
        e["state"] = JsonValue(f.state);
        e["event"] = JsonValue(f.event);
        e["detail"] = JsonValue(f.detail);
        arr.push(std::move(e));
    }
    return arr;
}

JsonValue
lintPolicyJson(const std::string &policy, const TransitionSpec &spec,
               const LintReport &r)
{
    // Reuse lintToJson so the fragment cannot drift from the classic
    // single-policy document; only the envelope keys differ.
    const JsonValue full = lintToJson(spec, r);
    JsonValue doc = JsonValue::object();
    doc["policy"] = JsonValue(policy);
    for (const auto &[key, value] : full.members()) {
        if (key != "schemaVersion" && key != "generator")
            doc[key] = value;
    }
    return doc;
}

JsonValue
lintFindingsDocument(const std::string &mode, JsonValue policies)
{
    JsonValue doc = JsonValue::object();
    doc["schemaVersion"] = JsonValue(std::uint64_t(1));
    doc["generator"] = JsonValue("pcsim-lint");
    doc["mode"] = JsonValue(mode);
    doc["policies"] = std::move(policies);
    return doc;
}

std::string
lintToCsv(const LintReport &r)
{
    std::string out = "kind,controller,state,event,detail\n";
    for (const LintFinding &f : r.findings) {
        out += csvField(f.kind) + ',' + csvField(f.ctrl) + ',' +
               csvField(f.state) + ',' + csvField(f.event) + ',' +
               csvField(f.detail) + '\n';
    }
    return out;
}

CoverageReport
computeCoverage(const TransitionSpec &spec,
                const std::vector<TransitionCount> &observed)
{
    std::map<SpecTuple, std::uint64_t> counts;
    for (const TransitionCount &t : observed)
        counts[{static_cast<Ctrl>(t.ctrl), t.state,
                static_cast<PEvent>(t.event), t.next}] += t.count;

    CoverageReport r;
    std::set<SpecTuple> emitted;
    for (const TransitionRule &rule : spec.rules()) {
        for (StateId n : rule.next) {
            const SpecTuple key{rule.ctrl, rule.state, rule.event, n};
            if (!emitted.insert(key).second)
                continue;
            CoverageRow row;
            row.ctrl = rule.ctrl;
            row.state = rule.state;
            row.event = rule.event;
            row.next = n;
            auto it = counts.find(key);
            row.count = it == counts.end() ? 0 : it->second;
            if (row.count)
                ++r.exercised;
            r.rows.push_back(row);
        }
    }
    r.legal = r.rows.size();
    return r;
}

JsonValue
coverageToJson(const TransitionSpec &spec, const CoverageReport &r)
{
    JsonValue doc = JsonValue::object();
    doc["schemaVersion"] = JsonValue(std::uint64_t(1));
    doc["generator"] = JsonValue("pcsim-lint");

    JsonValue summary = JsonValue::object();
    summary["legalTransitions"] = JsonValue(r.legal);
    summary["exercised"] = JsonValue(r.exercised);
    summary["missing"] = JsonValue(r.legal - r.exercised);
    doc["summary"] = std::move(summary);

    auto rowJson = [&](const CoverageRow &row) {
        JsonValue e = JsonValue::object();
        e["controller"] = JsonValue(ctrlName(row.ctrl));
        e["state"] = JsonValue(spec.stateName(row.ctrl, row.state));
        e["event"] = JsonValue(eventName(row.event));
        e["next"] = JsonValue(spec.stateName(row.ctrl, row.next));
        e["count"] = JsonValue(row.count);
        return e;
    };

    JsonValue missing = JsonValue::array();
    for (const CoverageRow &row : r.rows) {
        if (!row.count)
            missing.push(rowJson(row));
    }
    doc["missing"] = std::move(missing);

    JsonValue all = JsonValue::array();
    for (const CoverageRow &row : r.rows)
        all.push(rowJson(row));
    doc["transitions"] = std::move(all);
    return doc;
}

std::string
coverageToCsv(const TransitionSpec &spec, const CoverageReport &r)
{
    std::string out = "controller,state,event,next,count\n";
    for (const CoverageRow &row : r.rows) {
        out += csvField(ctrlName(row.ctrl)) + ',' +
               csvField(spec.stateName(row.ctrl, row.state)) + ',' +
               csvField(eventName(row.event)) + ',' +
               csvField(spec.stateName(row.ctrl, row.next)) + ',' +
               std::to_string(row.count) + '\n';
    }
    return out;
}

} // namespace pcsim::verify
