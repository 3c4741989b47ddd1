#include "src/verify/lint.hh"

#include <algorithm>
#include <map>
#include <set>

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
