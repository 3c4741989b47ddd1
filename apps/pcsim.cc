/**
 * @file
 * `pcsim` -- unified experiment-runner CLI.
 *
 *   pcsim run   --workload em3d --config pcopt --json out.json
 *   pcsim sweep --figure 7 -j8
 *   pcsim list
 *
 * `run`, `serve`, `compare`, `scale`, `faults`, `qos` and `sweep
 * --figure N / --table N` are presets of one sweep path
 * (src/runner/sweep.hh): each builds a job grid from the selection
 * flags, runs it, writes the JSON/CSV results and prints its table
 * as a formatting layer over them. Simulations are deterministic, so
 * `--deterministic-check` (run everything twice and byte-compare the
 * serialized results) should never fail; CI wires it in as a
 * regression tripwire.
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "src/protocol/policy.hh"
#include "src/runner/job.hh"
#include "src/runner/results.hh"
#include "src/runner/sweep.hh"
#include "src/runner/trace_cmd.hh"
#include "src/trace/format.hh"
#include "src/verify/check.hh"

using namespace pcsim;

namespace
{

/** One row of the generated usage table: every subcommand registers
 *  here, so `pcsim help` can never drift out of sync with dispatch. */
struct CommandInfo
{
    const char *name;
    const char *synopsis;
    const char *oneline;
};

const CommandInfo commandTable[] = {
    {"run", "--workload <names> [--config <names>] [options]",
     "cartesian (workload x config x seed) simulation runs"},
    {"sweep", "(--figure 7|8|9|10|11|12 | --table 2|3) [options]",
     "reproduce a paper figure or table"},
    {"scale", "[--nodes n,m,...] [--workload W] [options]",
     "node-count scaling sweep (base/delegation/delegate-update)"},
    {"serve", "[--scenario a,b] [--nodes n,m] [options]",
     "datacenter serving-workload sweep (KVServe/WorkQueue/RCU/PubSub)"},
    {"compare", "[--scenario a,b] [--nodes n,m] [options]",
     "coherence-policy bake-off across every registered policy"},
    {"trace record", "[--workload W] [--config C] -o FILE [options]",
     "capture a run's memory-op stream as a binary PCTR trace"},
    {"trace replay", "FILE [options]",
     "re-drive the simulator from a trace; stats match the source run"},
    {"trace info", "FILE", "print a trace file's header"},
    {"faults", "[--scenario a,b] [--arbitration a,b] [options]",
     "fault-injection robustness sweep"},
    {"qos", "[--scenario a,b] [--arbitration a,b] [options]",
     "fairness bake-off of the directory arbitration modes"},
    {"lint",
     "[--policy P|all] [--json PATH] [--repro PATH] "
     "| --coverage results.json",
     "static checks of the protocol transition specs"},
    {"list", "", "list workloads and configuration presets"},
    {"help", "", "show this text"},
};

/** One option section of the help text and the commands it documents
 *  (space-separated). */
struct HelpSection
{
    const char *commands;
    const char *text;
};

const HelpSection helpSections[] = {
    {"run sweep scale serve compare faults qos trace",
"run selection:\n"
"  --workload a,b         workload names, case-insensitive\n"
"                         (micro is an alias for PCmicro)\n"
"  --config a,b           machine presets (default: base)\n"
"  --seeds n,m            seeds, one job per seed (default: 1)\n"
"  --nodes N              machine size (default: 16); scale takes a\n"
"                         comma-separated list (default: 16..1024)\n"
"  --coarse K             nodes per directory sharer bit (power of\n"
"                         two; default 1 = exact vector)\n"
"  --scale F              workload scale factor (default: 1)\n"
"  --checker              enable the coherence invariant checker\n"
"  --conformance          enable the protocol-spec conformance hook\n"
"                         (fails the run on out-of-spec transitions\n"
"                         and records transition coverage)\n"},
    {"lint",
"lint (every static analysis of each policy's transition spec in one\n"
"pass: the static spec passes, the exhaustive cross-check against the\n"
"src/mc model, the message-dependency graph and liveness over the\n"
"explored model graphs; one report per distinct spec):\n"
"  --policy P             policies to lint: a registered policy name\n"
"                         (mesi-dir, delegation, delegation-updates,\n"
"                         write-update, adaptive-hybrid) or 'all'\n"
"                         (default: all)\n"
"  --json PATH            write the report as JSON; '-' = stdout\n"
"  --repro PATH           write the first liveness witness's CPU-op\n"
"                         schedule as a replayable PCTR trace\n"
"  --coverage PATH        instead, report never-exercised legal\n"
"                         transitions of the full-protocol spec from a\n"
"                         results JSON written by runs with\n"
"                         --conformance (--json/--csv PATH write it;\n"
"                         takes no --policy or --repro)\n"
"  exit status: 0 clean, 1 usage/io error, 2 findings\n"},
    {"sweep",
"sweep (paper figures and tables):\n"
"  --figure N             7 main results, 8 equal area, 9 intervention\n"
"                         delay, 10 hop latency, 11 delegate-cache size,\n"
"                         12 RAC size\n"
"  --table N              2 problem sizes (no simulation), 3 consumers\n"},
    {"scale",
"scale (node-count scaling sweep of base/delegation/delegate-update):\n"
"  --nodes n,m            machine sizes (default: 16,32,64,128,256,\n"
"                         512,1024; exact sharer vectors throughout,\n"
"                         use --coarse with 'run' to study coarse\n"
"                         directories at the top sizes)\n"
"  --workload W           workload per point (default: Em3D)\n"
"  --scale F              workload scale per point (default: 0.25)\n"},
    {"faults",
"faults (fault-injection robustness sweep; checker + conformance are\n"
"always on, and exponential retry backoff is enabled):\n"
"  --scenario a,b         fault scenarios (default: all): gray-links,\n"
"                         ni-stalls, hotspot, dir-pressure, storm\n"
"  --workload W           workload per point (default: PCmicro)\n"
"  --arbitration a,b      directory arbitration modes to cross with\n"
"                         the scenarios (default: nack-retry):\n"
"                         nack-retry, queue, aged-priority\n"},
    {"qos",
"qos (fairness bake-off; the faults sweep restricted to the\n"
"contention scenarios and crossed with every arbitration mode):\n"
"  --scenario a,b         scenarios (default: storm,hotspot)\n"
"  --arbitration a,b      modes (default: all three)\n"},
    {"serve",
"serve (serving sweep of base/delegation/delegate-update):\n"
"  --scenario a,b         scenarios (default: all): KVServe,\n"
"                         WorkQueue, RCU, PubSub\n"
"  --nodes n,m            machine sizes (default: 16,64; any value\n"
"                         up to 4096 validates)\n"},
    {"compare",
"compare (bake-off of every registered coherence policy: mesi-dir,\n"
"delegation, delegation-updates, write-update, adaptive-hybrid):\n"
"  --scenario a,b         scenarios (default: PCmicro,PubSub); any\n"
"                         registry workload is accepted\n"
"  --nodes n,m            machine sizes (default: 16,64)\n"},
    {"trace",
"trace (binary PCTR op traces; see src/trace/format.hh):\n"
"  -o, --output FILE      (record) trace file to write (required)\n"
"  --text                 (record) ingest per-core text trace files\n"
"                         given as positional args ('<label> <hex>'\n"
"                         lines; 0 = load, 1 = store, 2 = compute\n"
"                         cycles) instead of simulating\n"
"  --config C             (replay) override the header's machine\n"
"                         preset (ingested traces default to base)\n"},
    {"run sweep scale serve compare faults qos trace",
"common options:\n"
"  -j N, --jobs N         worker threads; 0 = all cores\n"
"                         (default: 1 for run, all cores for sweep)\n"
"  --parallel-run[=S]     run each simulation on the parallel event\n"
"                         kernel with S shards (default 4; clamped to\n"
"                         the topology's leaf count). Results are\n"
"                         byte-identical to the sequential kernel\n"
"  --json PATH            write JSON results; '-' = stdout (no\n"
"                         document is written without --json/--csv)\n"
"  --csv PATH             write CSV results; '-' = stdout\n"
"  --timing               include host wall-clock perf rates in the\n"
"                         outputs (breaks cross-host byte identity)\n"
"  --deterministic-check  run every job twice, byte-compare the\n"
"                         serialized results; exit 3 on mismatch\n"
"  --no-table             skip the printed table\n"
"  --quiet                suppress per-job progress on stderr\n"
"  -h, --help             print the command's usage and exit\n"},
};

const char *const exitStatusHelp =
"exit status: 0 ok, 1 usage error, 2 job failed, 3 non-deterministic\n";

int
usage(std::FILE *out)
{
    std::fprintf(out,
"pcsim - producer-consumer coherence protocol experiment runner\n"
"\n"
"usage: pcsim <command> [options]\n"
"\n"
"commands:\n");
    for (const auto &c : commandTable) {
        std::fprintf(out, "  %-13s %s\n", c.name, c.oneline);
        if (c.synopsis[0])
            std::fprintf(out, "  %-13s   pcsim %s %s\n", "", c.name,
                         c.synopsis);
    }
    for (const HelpSection &sec : helpSections)
        std::fprintf(out, "\n%s", sec.text);
    std::fprintf(out, "\n%s", exitStatusHelp);
    return out == stderr ? 1 : 0;
}

/** Does the space-separated @p list name @p word? */
bool
listNames(const char *list, const std::string &word)
{
    const std::string padded = std::string(" ") + list + " ";
    return padded.find(" " + word + " ") != std::string::npos;
}

/**
 * `pcsim <command> --help`: the command's synopsis and the option
 * sections that apply to it, on stdout. False, printing nothing, for
 * an unknown command.
 */
bool
commandUsage(const std::string &cmd)
{
    bool known = false;
    for (const auto &c : commandTable) {
        const std::string name = c.name;
        if (name != cmd && name.rfind(cmd + " ", 0) != 0)
            continue;
        std::printf("usage: pcsim %s%s%s\n  %s\n", c.name,
                    c.synopsis[0] ? " " : "", c.synopsis, c.oneline);
        known = true;
    }
    if (!known)
        return false;
    for (const HelpSection &sec : helpSections)
        if (listNames(sec.commands, cmd))
            std::printf("\n%s", sec.text);
    // The lint section states its own exit codes; list has none.
    if (cmd != "lint" && cmd != "list")
        std::printf("\n%s", exitStatusHelp);
    return true;
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        std::size_t comma = s.find(',', start);
        if (comma == std::string::npos)
            comma = s.size();
        if (comma > start)
            out.push_back(s.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

struct Options
{
    std::string command;
    /** Grid selection for the sweep presets (run, serve, compare,
     *  scale, faults, qos, sweep); trace record reads it too. */
    runner::SweepAxes axes;
    std::string lintPolicy;       ///< lint: policy name or "all"
    std::string coveragePath;     ///< lint: results doc for coverage
    std::string reproPath;        ///< lint: PCTR liveness repro out
    /** Output flags (-j, --json, --csv, --timing, ...); lint and
     *  trace read them too. */
    runner::SweepOptions out;
    bool threadsSet = false;
    bool quiet = false;
    bool help = false;     ///< --help / -h: print the command's usage
    unsigned figure = 0;   ///< sweep --figure N
    unsigned tableNum = 0; ///< sweep --table N

    // trace
    std::string outputPath;                ///< -o / --output
    bool textMode = false;                 ///< record: --text ingest
    std::vector<std::string> positional;   ///< trace file operands
};

/** Fetch the value of --opt VALUE / --opt=VALUE; nullptr on error. */
const char *
argValue(int argc, char **argv, int &i, const char *inline_value)
{
    if (inline_value)
        return inline_value;
    if (i + 1 >= argc) {
        std::fprintf(stderr, "pcsim: %s needs a value\n", argv[i]);
        return nullptr;
    }
    return argv[++i];
}

/** Parse all of @p text as a decimal integer in [lo, hi]; false (with
 *  a message naming @p flag) on anything else. */
template <typename T>
bool
parseNumber(const std::string &flag, const std::string &text,
            std::uint64_t lo, std::uint64_t hi, T &out)
{
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (text.empty() || ec != std::errc() || ptr != end || v < lo ||
        v > hi) {
        std::fprintf(stderr,
                     "pcsim: bad %s '%s' (expected an integer from %llu "
                     "to %llu)\n",
                     flag.c_str(), text.c_str(), (unsigned long long)lo,
                     (unsigned long long)hi);
        return false;
    }
    out = T(v);
    return true;
}

/** parseNumber() over every element of a comma-separated list. */
template <typename T>
bool
parseNumberList(const std::string &flag, const char *text,
                std::uint64_t lo, std::uint64_t hi, std::vector<T> &out)
{
    out.clear();
    for (const auto &s : splitList(text)) {
        out.emplace_back();
        if (!parseNumber(flag, s, lo, hi, out.back()))
            return false;
    }
    if (out.empty()) {
        std::fprintf(stderr, "pcsim: %s needs at least one value\n",
                     flag.c_str());
        return false;
    }
    return true;
}

bool
isHelpFlag(const std::string &arg)
{
    return arg == "--help" || arg == "-h";
}

constexpr std::uint64_t maxThreads = 1024;
constexpr std::uint64_t maxNodes = ProtocolConfig::maxNodes;

bool
parseArgs(int argc, char **argv, Options &opt, int first = 2)
{
    runner::SweepAxes &axes = opt.axes;
    for (int i = first; i < argc; ++i) {
        std::string arg = argv[i];
        const char *inline_value = nullptr;
        const std::size_t eq = arg.find('=');
        if (arg.size() > 2 && arg[0] == '-' && arg[1] == '-' &&
            eq != std::string::npos) {
            inline_value = argv[i] + eq + 1;
            arg = arg.substr(0, eq);
        }
        // -jN shorthand.
        if (arg.size() > 2 && arg.compare(0, 2, "-j") == 0 &&
            arg[2] >= '0' && arg[2] <= '9') {
            inline_value = argv[i] + 2;
            arg = "-j";
        }

        const auto value = [&]() {
            return argValue(argc, argv, i, inline_value);
        };
        // Store a string / comma-separated list value.
        const auto text = [&](std::string &out) {
            const char *v = value();
            if (v)
                out = v;
            return v != nullptr;
        };
        const auto list = [&](std::vector<std::string> &out) {
            const char *v = value();
            if (v)
                out = splitList(v);
            return v != nullptr;
        };
        const auto number = [&](auto &out, std::uint64_t lo,
                                std::uint64_t hi) {
            const char *v = value();
            return v && parseNumber(arg, v, lo, hi, out);
        };
        constexpr auto u64max = std::numeric_limits<std::uint64_t>::max();

        if (arg == "--workload" || arg == "--workloads") {
            if (!list(axes.workloads))
                return false;
        } else if (arg == "--config" || arg == "--configs") {
            if (!list(axes.configs))
                return false;
        } else if (arg == "--seed" || arg == "--seeds") {
            const char *v = value();
            if (!v || !parseNumberList(arg, v, 0, u64max, axes.seeds))
                return false;
        } else if (arg == "--nodes") {
            const char *v = value();
            if (!v || !parseNumberList(arg, v, 1, maxNodes, axes.nodes))
                return false;
            if (axes.nodes.size() > 1 && opt.command != "scale" &&
                opt.command != "serve" && opt.command != "compare") {
                std::fprintf(stderr,
                             "pcsim: --nodes takes one value outside "
                             "'pcsim scale', 'pcsim serve' and 'pcsim "
                             "compare'\n");
                return false;
            }
        } else if (arg == "--coarse") {
            if (!number(axes.coarse, 1, maxNodes))
                return false;
            if (!isPowerOfTwo(axes.coarse)) {
                std::fprintf(stderr, "pcsim: --coarse %u must be a "
                                     "power of two\n",
                             axes.coarse);
                return false;
            }
        } else if (arg == "--scale") {
            const char *v = value();
            if (!v)
                return false;
            char *end = nullptr;
            axes.scale = std::strtod(v, &end);
            if (end == v || *end != '\0' || !std::isfinite(*axes.scale) ||
                *axes.scale <= 0) {
                std::fprintf(stderr, "pcsim: bad --scale '%s'\n", v);
                return false;
            }
        } else if (arg == "--parallel-run") {
            // Bare flag defaults to 4 shards; never consumes the next
            // argument (the count rides inline as --parallel-run=S).
            axes.shards = 4;
            if (inline_value && !parseNumber(arg, inline_value, 1,
                                             maxThreads, axes.shards))
                return false;
        } else if (arg == "-j" || arg == "--jobs") {
            if (!number(opt.out.threads, 0, maxThreads))
                return false;
            opt.threadsSet = true;
        } else if (arg == "--json") {
            if (!text(opt.out.jsonPath))
                return false;
        } else if (arg == "--csv") {
            if (!text(opt.out.csvPath))
                return false;
        } else if (arg == "--figure") {
            if (!number(opt.figure, 1, 99))
                return false;
        } else if (arg == "--table" && opt.command == "sweep" &&
                   (inline_value || i + 1 < argc)) {
            if (!number(opt.tableNum, 1, 99))
                return false;
        } else if (arg == "--scenario" || arg == "--scenarios") {
            if (!list(axes.scenarios))
                return false;
        } else if (arg == "--arbitration" || arg == "--arbitrations") {
            if (!list(axes.arbitrations))
                return false;
        } else if (arg == "--output" || arg == "-o") {
            if (!text(opt.outputPath))
                return false;
        } else if (arg == "--text") {
            opt.textMode = true;
        } else if (arg == "--timing") {
            opt.out.timing = true;
        } else if (arg == "--checker") {
            axes.checker = true;
        } else if (arg == "--conformance") {
            axes.conformance = true;
        } else if (arg == "--policy") {
            if (!text(opt.lintPolicy))
                return false;
        } else if (arg == "--coverage") {
            if (!text(opt.coveragePath))
                return false;
        } else if (arg == "--repro") {
            if (!text(opt.reproPath))
                return false;
        } else if (arg == "--deterministic-check") {
            opt.out.deterministicCheck = true;
        } else if (arg == "--no-table") {
            opt.out.table = false;
        } else if (arg == "--quiet" || arg == "-q") {
            opt.quiet = true;
        } else if (isHelpFlag(arg)) {
            opt.help = true;
        } else if (arg.size() && arg[0] != '-' &&
                   opt.command == "trace") {
            opt.positional.push_back(argv[i]);
        } else {
            std::fprintf(stderr, "pcsim: unknown option '%s'\n",
                         argv[i]);
            return false;
        }
    }
    return true;
}

int
listCommand()
{
    std::printf("workloads:\n");
    for (const auto &w : runner::workloadNames())
        std::printf("  %s\n", w.c_str());
    std::printf("\nconfigurations (16-node presets, see "
                "src/system/presets.hh):\n");
    for (const runner::ConfigEntry &e : runner::configEntries()) {
        std::string what = e.description;
        if (e.alias[0])
            what += std::string(" (alias: ") + e.alias + ")";
        std::printf("  %-15s %s\n", e.name, what.c_str());
    }
    std::printf("\ncoherence policies (pcsim compare / lint "
                "--policy):\n");
    for (ProtocolKind kind : registeredPolicyKinds())
        std::printf("  %s\n", policyFor(kind).name());
    return 0;
}

/** run / serve / compare / scale / faults / qos / sweep: one preset
 *  of the shared sweep path (src/runner/sweep.hh). */
int
presetCommand(const Options &opt)
{
    std::string name = opt.command;
    if (name == "sweep")
        name = opt.figure ? "fig" + std::to_string(opt.figure)
                          : "table" + std::to_string(opt.tableNum);
    const runner::SweepPreset *preset = runner::findPreset(name);
    if (!preset) {
        std::fprintf(stderr, "pcsim sweep: pick --figure "
                             "7|8|9|10|11|12 or --table 2|3\n");
        return 1;
    }
    runner::SweepOptions sopt = opt.out;
    if (!opt.threadsSet)
        sopt.threads = preset->defaultThreads;
    sopt.progress = !opt.quiet;
    return runner::runPreset(*preset, opt.axes, sopt);
}

int
lintCoverage(const Options &opt)
{
    // Coverage folds onto the full-protocol spec alone.
    const char *flag = !opt.lintPolicy.empty()  ? "--policy"
                       : !opt.reproPath.empty() ? "--repro"
                                                : nullptr;
    if (flag) {
        std::fprintf(stderr, "pcsim lint: %s does not apply to "
                             "--coverage\n", flag);
        return 1;
    }
    const verify::TransitionSpec &spec = verify::protocolSpec();

    std::string text;
    if (!runner::readTextFile(opt.coveragePath, text)) {
        std::fprintf(stderr, "pcsim lint: cannot read '%s'\n",
                     opt.coveragePath.c_str());
        return 1;
    }
    JsonValue doc;
    try {
        doc = JsonValue::parse(text);
    } catch (const JsonParseError &e) {
        std::fprintf(stderr, "pcsim lint: '%s' is not valid JSON: %s\n",
                     opt.coveragePath.c_str(), e.what());
        return 1;
    }

    // Merge the conformance blocks of every result in the document.
    std::vector<verify::TransitionCount> observed;
    const JsonValue *arr = doc.find("results");
    if (!arr || !arr->isArray()) {
        std::fprintf(stderr,
                     "pcsim lint: '%s' has no \"results\" array\n",
                     opt.coveragePath.c_str());
        return 1;
    }
    unsigned with_conformance = 0;
    for (std::size_t i = 0; i < arr->size(); ++i) {
        const JsonValue *conf = arr->at(i).find("conformance");
        if (!conf)
            continue;
        ++with_conformance;
        const JsonValue &obs = conf->at("observed");
        for (std::size_t k = 0; k < obs.size(); ++k) {
            const JsonValue &e = obs.at(k);
            verify::TransitionCount t;
            t.ctrl = std::uint8_t(e.at("ctrl").asUInt());
            t.state = std::uint8_t(e.at("state").asUInt());
            t.event = std::uint8_t(e.at("event").asUInt());
            t.next = std::uint8_t(e.at("next").asUInt());
            t.count = e.at("count").asUInt();
            observed.push_back(t);
        }
    }
    if (!with_conformance) {
        std::fprintf(stderr,
                     "pcsim lint: no result in '%s' carries "
                     "conformance data (re-run with --conformance)\n",
                     opt.coveragePath.c_str());
        return 1;
    }

    const verify::CoverageReport rep =
        verify::computeCoverage(spec, observed);
    bool io_ok = true;
    if (!opt.out.jsonPath.empty())
        io_ok &= runner::writeTextFile(
            opt.out.jsonPath,
            verify::coverageToJson(spec, rep).dump(2) + "\n");
    if (!opt.out.csvPath.empty())
        io_ok &= runner::writeTextFile(
            opt.out.csvPath, verify::coverageToCsv(spec, rep));

    if (opt.out.jsonPath != "-" && opt.out.csvPath != "-") {
        std::printf("coverage: %llu of %llu legal transitions "
                    "exercised, %llu never seen\n",
                    (unsigned long long)rep.exercised,
                    (unsigned long long)rep.legal,
                    (unsigned long long)(rep.legal - rep.exercised));
        for (const auto &row : rep.rows) {
            if (row.count)
                continue;
            std::printf("  missing %-8s %-10s --%s--> %s\n",
                        verify::ctrlName(row.ctrl),
                        spec.stateName(row.ctrl, row.state).c_str(),
                        verify::eventName(row.event),
                        spec.stateName(row.ctrl, row.next).c_str());
        }
    }
    return io_ok ? 0 : 1;
}

/** Print one spec's lint report: its policies and sizes, the model
 *  explorations, then one line per finding ("kind: where: detail";
 *  model findings name their config and list their witness). */
void
printLintReport(const verify::SpecReport &r)
{
    std::string policies;
    for (const std::string &p : r.policies)
        policies += (policies.empty() ? "" : ", ") + p;
    std::printf("spec %s: %zu rules, %zu impossible pairs\n",
                policies.c_str(), r.spec->rules().size(),
                r.spec->impossible().size());
    std::printf("  mdg: %zu message types, %zu edges, %zu sinks (%llu "
                "requester-bound, %llu nack-protected edges exempt)\n",
                r.mdg.messages.size(), r.mdg.edges.size(),
                r.mdg.sinks.size(), (unsigned long long)r.mdg.reissueEdges,
                (unsigned long long)r.mdg.nackProtectedEdges);
    std::printf("  model cross-check: %llu configs, %llu states, %llu "
                "distinct transitions\n",
                (unsigned long long)r.lint.mcConfigs,
                (unsigned long long)r.lint.mcStates,
                (unsigned long long)r.lint.mcObserved);
    for (const auto &c : r.liveness.configs) {
        std::printf("  config %s: %llu states, %llu edges (%llu "
                    "progress), %llu quiescent%s\n",
                    c.name.c_str(), (unsigned long long)c.states,
                    (unsigned long long)c.edges,
                    (unsigned long long)c.progressEdges,
                    (unsigned long long)c.quiescentStates,
                    c.completed ? "" : " [state limit hit]");
    }
    for (const auto *list : {&r.lint.findings, &r.mdg.findings}) {
        for (const auto &f : *list) {
            std::string where = f.ctrl;
            if (!f.state.empty())
                where += " " + f.state;
            if (!f.event.empty())
                where += (where.empty() ? "" : " x ") + f.event;
            std::printf("%s: %s: %s\n", f.kind.c_str(), where.c_str(),
                        f.detail.c_str());
        }
    }
    const auto printHops = [](const char *what,
                              const std::vector<std::string> &hops) {
        if (hops.empty())
            return;
        std::printf("  %s (%zu steps):\n", what, hops.size());
        for (std::size_t i = 0; i < hops.size(); ++i)
            std::printf("    %3zu. %s\n", i + 1, hops[i].c_str());
    };
    for (const auto &f : r.liveness.findings) {
        std::printf("%s (%s): %s\n", f.kind.c_str(), f.config.c_str(),
                    f.detail.c_str());
        printHops("witness prefix", f.witness.prefix);
        printHops("non-progress cycle", f.witness.cycle);
    }
}

/** Resolve --policy ("" and "all" mean every registered policy). */
bool
resolvePolicies(const std::string &which,
                std::vector<verify::PolicySpec> &out)
{
    const bool all = which.empty() || which == "all";
    ProtocolKind one{};
    if (!all && !protocolKindFromName(which, one)) {
        std::fprintf(stderr,
                     "pcsim lint: unknown policy '%s' (pick one of "
                     "mesi-dir, delegation, delegation-updates, "
                     "write-update, adaptive-hybrid, or 'all')\n",
                     which.c_str());
        return false;
    }
    for (ProtocolKind kind : registeredPolicyKinds()) {
        if (!all && kind != one)
            continue;
        const CoherencePolicy &p = policyFor(kind);
        out.push_back({p.name(), &p.spec(), modelCheckSetFor(kind)});
    }
    return true;
}

/** Write a liveness witness's CPU-op schedule as a PCTR repro trace. */
bool
writeLivenessRepro(const std::string &path, const std::string &config,
                   unsigned nodes,
                   const std::vector<verify::WitnessOp> &ops)
{
    std::vector<std::vector<MemOp>> per_node(nodes);
    for (const verify::WitnessOp &op : ops)
        per_node[op.node].push_back(op.isWrite ? MemOp::write(0)
                                               : MemOp::read(0));
    trace::TraceMeta meta;
    meta.nodeCount = nodes;
    meta.workload = "lint-liveness";
    meta.config = config;
    try {
        trace::writeTraceFile(path, meta, per_node);
    } catch (const trace::TraceError &e) {
        std::fprintf(stderr, "pcsim lint: %s\n", e.what());
        return false;
    }
    return true;
}

/**
 * `pcsim lint`: every analysis of each selected policy's spec in one
 * pass (src/verify/check.hh), one report per distinct spec. Exit 0
 * clean, 1 usage/IO error, 2 findings.
 */
int
lintCommand(const Options &opt)
{
    if (!opt.coveragePath.empty())
        return lintCoverage(opt);
    if (!opt.out.csvPath.empty()) {
        std::fprintf(stderr,
                     "pcsim lint: --csv applies only to --coverage\n");
        return 1;
    }
    std::vector<verify::PolicySpec> policies;
    if (!resolvePolicies(opt.lintPolicy, policies))
        return 1;
    const std::vector<verify::SpecReport> reports =
        verify::checkPolicies(policies);

    const bool print = opt.out.jsonPath != "-";
    std::size_t total = 0;
    const verify::LivenessFinding *repro = nullptr;
    for (const verify::SpecReport &r : reports) {
        if (print)
            printLintReport(r);
        total += r.findings();
        for (const auto &f : r.liveness.findings)
            if (!repro && !f.witness.ops.empty())
                repro = &f;
    }
    bool io_ok = true;
    if (!opt.out.jsonPath.empty())
        io_ok &= runner::writeTextFile(
            opt.out.jsonPath, verify::lintDocument(reports).dump(2) + "\n");
    if (!opt.reproPath.empty() && repro) {
        io_ok &= writeLivenessRepro(opt.reproPath, repro->config, 3,
                                    repro->witness.ops);
        if (print)
            std::printf("repro trace written to %s\n",
                        opt.reproPath.c_str());
    }
    if (print) {
        if (total)
            std::printf("lint: %zu finding(s)\n", total);
        else
            std::printf("lint: clean\n");
    }
    if (!io_ok)
        return 1;
    return total ? 2 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(stderr);
    const std::string cmd = argv[1];
    if (cmd == "help" || isHelpFlag(cmd))
        return usage(stdout);
    // `pcsim <command> --help`; trace's first operand is its action.
    if ((cmd == "list" || cmd == "trace") && argc > 2 &&
        isHelpFlag(argv[2]) && commandUsage(cmd))
        return 0;
    if (cmd == "list")
        return listCommand();

    Options opt;
    opt.command = cmd;
    // `pcsim trace <action> ...`: the action is its own operand.
    std::string traceAction;
    if (cmd == "trace") {
        if (argc < 3) {
            std::fprintf(stderr,
                         "pcsim trace: pick record, replay or info\n");
            return 1;
        }
        traceAction = argv[2];
        if (!parseArgs(argc, argv, opt, 3))
            return 1;
    } else if (!parseArgs(argc, argv, opt)) {
        return 1;
    }
    if (opt.help && commandUsage(cmd))
        return 0;

    if (cmd == "trace") {
        if (traceAction == "record") {
            runner::TraceRecordOptions topt;
            const runner::SweepAxes &axes = opt.axes;
            if (!axes.workloads.empty())
                topt.workload = axes.workloads.front();
            if (!axes.configs.empty())
                topt.config = axes.configs.front();
            if (!axes.nodes.empty())
                topt.nodes = axes.nodes.front();
            topt.scale = axes.scale.value_or(1.0);
            topt.seed = axes.seeds.front();
            topt.outPath = opt.outputPath;
            topt.jsonPath = opt.out.jsonPath;
            topt.quiet = opt.quiet;
            if (opt.textMode) {
                if (opt.positional.empty()) {
                    std::fprintf(stderr,
                                 "pcsim trace record: --text needs "
                                 "per-core trace files as operands\n");
                    return 1;
                }
                topt.textPaths = opt.positional;
            } else if (!opt.positional.empty()) {
                std::fprintf(stderr,
                             "pcsim trace record: unexpected operand "
                             "'%s' (text files need --text)\n",
                             opt.positional.front().c_str());
                return 1;
            }
            return runner::runTraceRecord(topt);
        }
        if ((traceAction == "replay" || traceAction == "info") &&
            opt.positional.size() != 1) {
            std::fprintf(stderr, "pcsim trace %s: exactly one trace "
                                 "file operand required\n",
                         traceAction.c_str());
            return 1;
        }
        if (traceAction == "replay") {
            runner::TraceReplayOptions topt;
            topt.tracePath = opt.positional.front();
            if (!opt.axes.configs.empty())
                topt.config = opt.axes.configs.front();
            topt.out = opt.out;
            if (!opt.threadsSet)
                topt.out.threads = 1;
            topt.out.progress = !opt.quiet;
            topt.out.table = false;
            return runner::runTraceReplay(topt);
        }
        if (traceAction == "info")
            return runner::runTraceInfo(opt.positional.front());
        std::fprintf(stderr,
                     "pcsim trace: unknown action '%s' (pick record, "
                     "replay or info)\n",
                     traceAction.c_str());
        return 1;
    }

    if (cmd == "run" || cmd == "sweep" || cmd == "serve" ||
        cmd == "compare" || cmd == "scale" || cmd == "faults" ||
        cmd == "qos")
        return presetCommand(opt);
    if (cmd == "lint")
        return lintCommand(opt);

    std::fprintf(stderr, "pcsim: unknown command '%s'\n", cmd.c_str());
    return usage(stderr);
}
