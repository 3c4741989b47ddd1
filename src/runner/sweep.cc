#include "src/runner/sweep.hh"

#include <algorithm>
#include <exception>
#include <map>

#include "src/runner/figures.hh"
#include "src/runner/results.hh"
#include "src/system/presets.hh"
#include "src/workload/serving.hh"

namespace pcsim
{
namespace runner
{

void
printColumnTable(const ColumnTable &table,
                 const std::vector<JobResult> &results, std::FILE *out)
{
    const auto baseKey = [](const JobResult &r) {
        return r.job.workload + "/" +
               std::to_string(r.job.cfg.proto.numNodes);
    };
    std::map<std::string, std::uint64_t> baseCycles;
    if (table.baseConfig) {
        for (const auto &r : results)
            if (r.ok && r.job.configName == table.baseConfig)
                baseCycles[baseKey(r)] = r.result.cycles;
    }

    std::fprintf(out, "%-*s", table.labelWidth, table.labelHeader);
    for (const Column &c : table.columns)
        std::fprintf(out, " | %*s", c.width, c.header);
    std::fprintf(out, "\n");
    for (const auto &r : results) {
        std::fprintf(out, "%-*s", table.labelWidth, r.job.label.c_str());
        if (!r.ok) {
            std::fprintf(out, " | FAILED: %s\n", r.error.c_str());
            continue;
        }
        for (const Column &c : table.columns) {
            if (c.value) {
                std::fprintf(out, " | %*llu", c.width,
                             (unsigned long long)c.value(r.result));
                continue;
            }
            char win[16] = "-";
            const auto it = baseCycles.find(baseKey(r));
            if (it != baseCycles.end() && r.result.cycles)
                std::snprintf(win, sizeof(win), "%.3f",
                              double(it->second) /
                                  double(r.result.cycles));
            std::fprintf(out, " | %*s", c.width, win);
        }
        std::fprintf(out, "\n");
    }
}

int
runSweep(const JobSet &set, const SweepOptions &opt,
         const SweepTable &table)
{
    RunnerOptions ropts;
    ropts.threads = opt.threads;
    ropts.progress = opt.progress;

    if (opt.deterministicCheck) {
        // Without host timing: wall-clock rates differ between two
        // otherwise identical runs.
        const std::string a = resultsToJson(runJobs(set, ropts)).dump(2);
        const std::string b = resultsToJson(runJobs(set, ropts)).dump(2);
        if (a == b) {
            std::fprintf(stderr,
                         "deterministic-check: OK (%zu jobs, %zu bytes "
                         "identical)\n",
                         set.size(), a.size());
            return 0;
        }
        std::size_t off = 0;
        while (off < a.size() && off < b.size() && a[off] == b[off])
            ++off;
        std::fprintf(stderr,
                     "deterministic-check: MISMATCH at byte %zu "
                     "(results differ between two identical runs)\n",
                     off);
        return 3;
    }

    const auto results = runJobs(set, ropts);
    const std::string text =
        resultsToJson(results, opt.timing).dump(2) + "\n";
    bool io_ok = true;
    if (!opt.jsonPath.empty()) {
        if (!writeTextFile(opt.jsonPath, text))
            io_ok = false;
        else if (opt.jsonPath != "-")
            std::fprintf(stderr, "results: %s\n", opt.jsonPath.c_str());
    }
    if (!opt.csvPath.empty())
        io_ok &= writeTextFile(opt.csvPath,
                               resultsToCsv(results, opt.timing));

    if (opt.table && opt.jsonPath != "-" && opt.csvPath != "-") {
        if (table.columns)
            printColumnTable(*table.columns, results, stdout);
        // A figure formats the serialized document, so the printed
        // table and the saved file can never disagree.
        if (table.figure)
            table.figure(JsonValue::parse(text), stdout);
    }
    int rc = io_ok ? 0 : 1;
    for (const auto &r : results) {
        if (r.ok)
            continue;
        // Progress lines already named the failure.
        if (!opt.progress)
            std::fprintf(stderr, "pcsim: job %s failed: %s\n",
                         r.job.label.c_str(), r.error.c_str());
        rc = rc ? rc : 2;
    }
    return rc;
}

namespace
{

// --- axis helpers --------------------------------------------------

unsigned
nodesOr(const SweepAxes &a, unsigned fallback)
{
    return a.nodes.empty() ? fallback : a.nodes.front();
}

/** Canonical registry names of @p names (@p fallback when empty);
 *  false with @p err on the first unknown name. */
bool
canonicalWorkloads(const std::vector<std::string> &names,
                   const std::vector<std::string> &fallback,
                   std::vector<std::string> &out, std::string &err)
{
    for (const auto &n : names.empty() ? fallback : names) {
        out.push_back(canonicalWorkload(n));
        if (out.back().empty()) {
            err = "unknown workload '" + n + "' (see 'pcsim list')";
            return false;
        }
    }
    return true;
}

/** The single workload of faults/qos/scale (@p fallback when
 *  none is given). */
bool
oneWorkload(const SweepAxes &a, const std::string &fallback,
            std::string &out, std::string &err)
{
    if (a.workloads.size() > 1) {
        err = "one workload only";
        return false;
    }
    std::vector<std::string> names;
    const bool ok = canonicalWorkloads(a.workloads, {fallback}, names, err);
    out = names.back();
    return ok;
}

/** scenario x node count x @p configs, labelled
 *  "scenario/nN/config" (the serve, compare and scale grids);
 *  @p nodes and @p scale apply when the axes leave them unset. */
void
scenarioGrid(const std::vector<std::string> &scenarios,
             const SweepAxes &a,
             std::vector<presets::NamedConfig> (*configs)(unsigned),
             const std::vector<unsigned> &nodes, double scale,
             JobSet &out)
{
    for (const auto &scen : scenarios) {
        for (unsigned n : a.nodes.empty() ? nodes : a.nodes) {
            for (const auto &named : configs(n)) {
                out.add(scen, named, a.seeds.front(),
                        a.scale.value_or(scale));
                out.jobs().back().label =
                    scen + "/n" + std::to_string(n) + "/" + named.name;
            }
        }
    }
}

// --- grid builders -------------------------------------------------

bool
buildRun(const SweepAxes &a, JobSet &out, std::string &err)
{
    if (a.workloads.empty()) {
        err = "--workload is required (try 'pcsim list')";
        return false;
    }
    std::vector<std::string> workloads;
    if (!canonicalWorkloads(a.workloads, {}, workloads, err))
        return false;
    const unsigned n = nodesOr(a, 16);
    for (const auto &w : workloads) {
        for (const auto &c : a.configs.empty()
                                 ? std::vector<std::string>{"base"}
                                 : a.configs) {
            presets::NamedConfig named;
            if (!namedMachineConfig(c, n, named.cfg, named.name)) {
                err = "unknown config '" + c + "'";
                return false;
            }
            named.cfg.proto.checkerEnabled = a.checker;
            named.cfg.proto.conformanceEnabled = a.conformance;
            named.cfg.proto.sharerGranularityLog2 = log2Ceil(a.coarse);
            out.sweep({w}, {named}, a.scale.value_or(1.0), a.seeds);
        }
    }
    return true;
}

bool
buildServe(const SweepAxes &a, JobSet &out, std::string &err)
{
    const std::vector<std::string> family = servingNames();
    std::vector<std::string> scenarios;
    for (const auto &want : a.scenarios.empty() ? family : a.scenarios) {
        scenarios.push_back(canonicalWorkload(want));
        if (std::find(family.begin(), family.end(), scenarios.back()) ==
            family.end()) {
            err = "unknown scenario '" + want +
                  "' (known: KVServe, WorkQueue, RCU, PubSub)";
            return false;
        }
    }
    scenarioGrid(scenarios, a, presets::scaleConfigs, {16, 64}, 1.0, out);
    return true;
}

bool
buildCompare(const SweepAxes &a, JobSet &out, std::string &err)
{
    std::vector<std::string> scenarios;
    if (!canonicalWorkloads(a.scenarios, {"PCmicro", "PubSub"},
                            scenarios, err))
        return false;
    scenarioGrid(scenarios, a, presets::compareConfigs, {16, 64}, 1.0,
                 out);
    return true;
}

/** The node-count scaling sweep: one workload (default Em3D) at
 *  16..1024 nodes. The checker is off, as it costs 10x the run at
 *  1024 nodes and changes no statistic. */
bool
buildScale(const SweepAxes &a, JobSet &out, std::string &err)
{
    std::string workload;
    if (!oneWorkload(a, "Em3D", workload, err))
        return false;
    scenarioGrid({workload}, a, presets::scaleConfigs,
                 presets::scaleNodeCounts(), 0.25, out);
    for (Job &j : out.jobs())
        j.cfg.proto.checkerEnabled = false;
    return true;
}

/** fault scenario x arbitration x mechanism, checker and conformance
 *  on (the faults and qos grids). */
bool
faultGrid(const SweepAxes &a, const std::vector<std::string> &scenarios,
          const std::vector<std::string> &arbitrations, JobSet &out,
          std::string &err)
{
    std::string workload;
    if (!oneWorkload(a, "PCmicro", workload, err))
        return false;
    // Scenarios run in presets::faultScenarios() order, whatever the
    // order requested.
    std::vector<presets::NamedFaultScenario> picked;
    for (const auto &s : presets::faultScenarios())
        if (std::count(scenarios.begin(), scenarios.end(), s.name))
            picked.push_back(s);
    for (const auto &want : scenarios) {
        if (std::none_of(picked.begin(), picked.end(),
                         [&](const auto &s) { return s.name == want; })) {
            err = "unknown scenario '" + want +
                  "' (known: gray-links, ni-stalls, hotspot, "
                  "dir-pressure, storm)";
            return false;
        }
    }
    std::vector<Arbitration> arbs;
    for (const auto &name : arbitrations) {
        arbs.emplace_back();
        if (!arbitrationFromName(name, arbs.back())) {
            err = "unknown arbitration '" + name +
                  "' (known: nack-retry, queue, aged-priority)";
            return false;
        }
    }

    const unsigned n = nodesOr(a, 16);
    for (const auto &scen : picked) {
        for (const Arbitration arb : arbs) {
            for (presets::NamedConfig named : presets::scaleConfigs(n)) {
                ProtocolConfig &proto = named.cfg.proto;
                proto.faults = scen.faults;
                // The protocol must stay provably coherent and
                // in-spec while being perturbed.
                proto.checkerEnabled = true;
                proto.conformanceEnabled = true;
                // Fault-grade backoff: exponential up to
                // retryBase << 6 so NACK storms spread out.
                proto.retryExpCap = 6;
                proto.arbitration = arb;
                out.add(workload, named, a.seeds.front(),
                        a.scale.value_or(1.0));
                // The default mode keeps its historic labels.
                out.jobs().back().label =
                    arb == Arbitration::NackRetry
                        ? scen.name + "/" + named.name
                        : scen.name + "/" + arbitrationName(arb) + "/" +
                              named.name;
            }
        }
    }
    return true;
}

bool
buildFaults(const SweepAxes &a, JobSet &out, std::string &err)
{
    std::vector<std::string> all;
    for (const auto &s : presets::faultScenarios())
        all.push_back(s.name);
    return faultGrid(a, a.scenarios.empty() ? all : a.scenarios,
                     a.arbitrations.empty()
                         ? std::vector<std::string>{"nack-retry"}
                         : a.arbitrations,
                     out, err);
}

/** The fairness bake-off: the contention scenarios crossed with
 *  every arbitration mode. */
bool
buildQos(const SweepAxes &a, JobSet &out, std::string &err)
{
    return faultGrid(
        a,
        a.scenarios.empty() ? std::vector<std::string>{"storm", "hotspot"}
                            : a.scenarios,
        a.arbitrations.empty()
            ? std::vector<std::string>{"nack-retry", "queue",
                                       "aged-priority"}
            : a.arbitrations,
        out, err);
}

/** A paper figure: @p jobs at (--scale, --nodes), default (1, 16). */
template <JobSet (*jobs)(double, unsigned)>
bool
buildFigure(const SweepAxes &a, JobSet &out, std::string &)
{
    out = jobs(a.scale.value_or(1.0), nodesOr(a, 16));
    return true;
}

/** Table 2 reports problem sizes; it runs no simulation. */
void
printTable2(const SweepAxes &a, std::FILE *out)
{
    figures::printTable2(a.scale.value_or(1.0), nodesOr(a, 16), out);
}

// --- printed tables ------------------------------------------------

const ColumnTable runTable{
    "job",
    24,
    {{"cycles", -12, [](const RunResult &r) { return r.cycles; }},
     {"remote miss", -12,
      [](const RunResult &r) { return r.nodes.remoteMisses; }},
     {"messages", -12,
      [](const RunResult &r) { return r.netMessages; }}},
};

const ColumnTable serveTable{
    "scenario/nodes/config",
    28,
    {{"cycles", 12, [](const RunResult &r) { return r.cycles; }},
     {"messages", 10, [](const RunResult &r) { return r.netMessages; }},
     {"updates", 9, [](const RunResult &r) { return r.updateMessages; }},
     {"updUsed", 9,
      [](const RunResult &r) { return r.nodes.updatesConsumed; }},
     {"missP99", 8, [](const RunResult &r) { return r.missLatencyP99; }},
     {"vs base", 8, nullptr}},
    "base",
};

const ColumnTable scaleTable{
    "workload/nodes/config",
    28,
    {{"cycles", 12, [](const RunResult &r) { return r.cycles; }},
     {"remote miss", 11,
      [](const RunResult &r) { return r.nodes.remoteMisses; }},
     {"racHits", 9, [](const RunResult &r) { return r.nodes.racHits; }},
     {"updates", 9,
      [](const RunResult &r) { return r.nodes.updatesSent; }},
     {"vs base", 8, nullptr}},
    "base",
};

const ColumnTable compareTable{
    "scenario/nodes/policy",
    32,
    {{"cycles", 12, [](const RunResult &r) { return r.cycles; }},
     {"messages", 10, [](const RunResult &r) { return r.netMessages; }},
     {"updates", 9, [](const RunResult &r) { return r.updateMessages; }},
     // Refreshes a consumer absorbed: RAC fills for the
     // invalidate-based policies, in-place SHARED-copy refreshes for
     // the update-based ones.
     {"applied", 9,
      [](const RunResult &r) {
          return r.nodes.updatesApplied + r.nodes.updatesConsumed;
      }},
     {"vs base", 8, nullptr}},
    "mesi-dir",
};

const ColumnTable faultsTable{
    "scenario/config",
    40,
    {{"cycles", 12, [](const RunResult &r) { return r.cycles; }},
     {"nacks", 9, [](const RunResult &r) { return r.nodes.nacksReceived; }},
     {"retries", 9, [](const RunResult &r) { return r.nodes.retries; }},
     {"maxRetry", 8,
      [](const RunResult &r) { return r.nodes.maxRetriesPerLine; }},
     {"stormPk", 8,
      [](const RunResult &r) { return r.nodes.nackStormPeak; }},
     {"delayedMsg", 10,
      [](const RunResult &r) { return r.faultDelayedMessages; }},
     {"maxWait", 8,
      [](const RunResult &r) { return r.nodes.maxLineWaitTicks; }},
     {"p99", 8, [](const RunResult &r) { return r.missLatencyP99; }},
     {"qPeak", 6,
      [](const RunResult &r) { return r.nodes.queueDepthPeak; }}},
};

const SweepPreset presetTable[] = {
    {"run", buildRun, {&runTable}, 1},
    {"serve", buildServe, {&serveTable}, 0},
    {"compare", buildCompare, {&compareTable}, 0},
    {"scale", buildScale, {&scaleTable}, 0},
    {"faults", buildFaults, {&faultsTable}, 0},
    {"qos", buildQos, {&faultsTable}, 0},
    {"fig7", buildFigure<figures::figure7Jobs>,
     {nullptr, figures::printFigure7}, 0},
    {"fig8", buildFigure<figures::figure8Jobs>,
     {nullptr, figures::printFigure8}, 0},
    {"fig9", buildFigure<figures::figure9Jobs>,
     {nullptr, figures::printFigure9}, 0},
    {"fig10", buildFigure<figures::figure10Jobs>,
     {nullptr, figures::printFigure10}, 0},
    {"fig11", buildFigure<figures::figure11Jobs>,
     {nullptr, figures::printFigure11}, 0},
    {"fig12", buildFigure<figures::figure12Jobs>,
     {nullptr, figures::printFigure12}, 0},
    {"table2", nullptr, {}, 0, printTable2},
    {"table3", buildFigure<figures::table3Jobs>,
     {nullptr, figures::printTable3}, 0},
};

} // namespace

const SweepPreset *
findPreset(const std::string &name)
{
    for (const SweepPreset &p : presetTable)
        if (name == p.name)
            return &p;
    return nullptr;
}

bool
buildGrid(const SweepPreset &preset, const SweepAxes &axes, JobSet &out,
          std::string &err)
{
    out = JobSet();
    if (!preset.build || !preset.build(axes, out, err))
        return false;
    for (Job &j : out.jobs()) {
        j.cfg.shards = axes.shards;
        const std::string verr = j.cfg.proto.validateError();
        if (!verr.empty()) {
            err = "invalid configuration '" + j.configName + "' at " +
                  std::to_string(j.cfg.proto.numNodes) +
                  " nodes: " + verr;
            return false;
        }
    }
    return true;
}

int
runPreset(const SweepPreset &preset, const SweepAxes &axes,
          SweepOptions opt)
{
    if (preset.printStatic) {
        // A workload rejects a machine it cannot map onto (Appbt's
        // processor grid) by throwing.
        try {
            preset.printStatic(axes, stdout);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "pcsim %s: %s\n", preset.name, e.what());
            return 1;
        }
        return 0;
    }
    JobSet set;
    std::string err;
    if (!buildGrid(preset, axes, set, err)) {
        std::fprintf(stderr, "pcsim %s: %s\n", preset.name, err.c_str());
        return 1;
    }
    return runSweep(set, opt, preset.table);
}

} // namespace runner
} // namespace pcsim
