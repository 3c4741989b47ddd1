/**
 * @file
 * pcbench: the pcsim benchmark driver.
 *
 * Runs one workload (fig7 or kvserve256) repeatedly for a fixed
 * host-time budget, timing each layer from outside the library by
 * calling its public entry points one at a time: the workload
 * constructors, System::System, System::run and
 * runner::resultsToJson. Every simulation's deterministic result
 * document is checked against a reference. The last stdout line is a
 * JSON object {"correct", "attempted", "failed", "metrics"}.
 *
 *   pcbench --workload fig7|kvserve256 [--seed N] [--seconds S]
 *           [--trace 0|1] [--root DIR]
 *
 * --trace 0 reports the end-to-end metrics of untraced runs. --trace 1
 * rotates untraced, traced (probes.hh interposers) and, on kvserve256,
 * 4-shard iterations, and reports the per-layer metrics, including the
 * traced - untraced run_s overhead. Every kvserve256 run checks that
 * the 4-shard kernel's document equals the sequential one. Host times
 * are reported normalized to a reference host speed, measured by a
 * calibration loop (pcbench --calibrate) before every iteration. See
 * perfbench/README.md for the metric map.
 */

#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/probes.hh"
#include "src/runner/figures.hh"
#include "src/runner/job.hh"
#include "src/runner/results.hh"
#include "src/runner/runner.hh"
#include "src/system/presets.hh"
#include "src/system/system.hh"
#include "src/workload/serving.hh"
#include "src/workload/suite.hh"

namespace pcbench
{
namespace
{

using pcsim::JsonValue;
using pcsim::runner::Job;
using pcsim::runner::JobResult;

/** The seed at which every generator keeps its built-in seed, so the
 *  results must equal the committed reference documents. */
constexpr std::uint64_t kDefaultSeed = 1;
/** A seed kept out of tuning, for checking later claims. */
constexpr std::uint64_t kHeldOutSeed = 977;

constexpr double kFig7Scale = 0.2;
constexpr unsigned kFig7Nodes = 16;
constexpr unsigned kKvNodes = 256;
constexpr unsigned kKvShards = 4;

/** Geomean Figure 7 speedups the paper reports for its small (32-entry
 *  delegate cache, 32K RAC) and large (1K, 1M) systems. */
constexpr double kPaperSmallSpeedup = 1.13;
constexpr double kPaperLargeSpeedup = 1.21;

/** Calibration-loop seconds on the reference host: the 4-core Xeon
 *  the README baseline was measured on, in a quiet period. */
constexpr double kCalibReferenceSeconds = 0.18;

const char *const kFig7Reference = "pcsim-fig7.results.json";
const char *const kKvReference = "perfbench/ref/kvserve256.json";

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    std::string root = ".";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "pcbench: %s\nusage: pcbench --workload "
                 "fig7|kvserve256 [--seed N] [--seconds S] [--trace "
                 "0|1] [--root DIR]\n",
                 msg);
    std::exit(1);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            o.workload = val;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(val.c_str(), &end, 10);
            if (val.empty() || *end)
                usage("bad --seed");
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end || !(o.seconds > 0))
                usage("bad --seconds");
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace takes 0 or 1");
            o.trace = val == "1";
        } else if (arg == "--root") {
            o.root = val;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (o.workload != "fig7" && o.workload != "kvserve256")
        usage("unknown or missing --workload");
    return o;
}

// --- host ------------------------------------------------------------

unsigned
hostCores()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return static_cast<unsigned>(CPU_COUNT(&set));
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return double(tv.tv_sec) + 1e-6 * double(tv.tv_usec);
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
maxRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // Linux reports KiB
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- host speed ------------------------------------------------------

/**
 * The calibration loop: a dependent-load walk over a 32 MiB buffer
 * (full-period LCG order, so every slot is visited and prefetchers
 * cannot follow) with integer mixing between loads. It shares no code
 * with pcsim, so no change to the simulator moves its time; only the
 * host's speed does. Returns its host seconds.
 */
double
calibrationLoop()
{
    constexpr std::uint32_t kSlots = 1u << 23;
    constexpr std::uint32_t kMask = kSlots - 1;
    std::vector<std::uint32_t> buf(kSlots);
    // Zeros the compiler cannot see, so every load stays.
    static volatile std::uint32_t zero = 0;
    for (auto &b : buf)
        b = zero;
    const auto start = Clock::now();
    std::uint32_t at = 0;
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (int step = 0; step < 1'000'000; ++step) {
        at = (at * 1664525u + 1013904223u + buf[at]) & kMask;
        for (int k = 0; k < 40; ++k)
            h = (h ^ (h >> 29)) * 0xbf58476d1ce4e5b9ull + at;
    }
    return secondsSince(start) + (h == 1 ? 1e-12 : 0.0);
}

/**
 * Run the calibration loop in a child process (@p self --calibrate),
 * so its buffer never counts toward this process's peak RSS or CPU
 * time. posix_spawn does not copy the address space, so the
 * simulator's pages are not made copy-on-write.
 */
double
calibrationSeconds(const char *self)
{
    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error("calibration: pipe failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    posix_spawn_file_actions_addclose(&fa, fds[1]);
    char arg0[] = "pcbench";
    char arg1[] = "--calibrate";
    char *args[] = {arg0, arg1, nullptr};
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, self, &fa, nullptr, args, environ);
    posix_spawn_file_actions_destroy(&fa);
    close(fds[1]);
    std::string text;
    char chunk[64];
    ssize_t n = 0;
    while (rc == 0 && (n = read(fds[0], chunk, sizeof(chunk))) > 0)
        text.append(chunk, std::size_t(n));
    close(fds[0]);
    int status = 0;
    if (rc == 0)
        waitpid(pid, &status, 0);
    const double seconds = std::strtod(text.c_str(), nullptr);
    if (rc != 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        !(seconds > 0))
        throw std::runtime_error("calibration child failed");
    return seconds;
}

// --- workloads -------------------------------------------------------

std::vector<Job>
makeJobs(const Options &o)
{
    pcsim::runner::JobSet set;
    if (o.workload == "fig7") {
        set = pcsim::figures::figure7Jobs(kFig7Scale, kFig7Nodes);
    } else {
        // What `pcsim run --workload KVServe --nodes 256 --config base`
        // runs, with the generator seeded from --seed off the default.
        Job j;
        std::string name;
        pcsim::runner::namedMachineConfig("base", kKvNodes, j.cfg, name);
        j.cfg.proto.checkerEnabled = false;
        j.workload = "KVServe";
        j.configName = name;
        const std::uint64_t seed = o.seed;
        j.factory = [seed]() {
            pcsim::KvServingWorkload::Params p;
            if (seed != kDefaultSeed)
                p.seed = seed;
            return std::make_unique<pcsim::KvServingWorkload>(kKvNodes,
                                                              p);
        };
        set.add(std::move(j));
    }
    for (auto &j : set.jobs())
        j.seed = o.seed;
    return set.jobs();
}

// --- one iteration ---------------------------------------------------

/** How an iteration runs its simulations. */
enum class Pass
{
    Untraced,
    Traced,  ///< under the probes.hh interposers
    Sharded, ///< untraced, on the kKvShards-shard kernel
};

/** One pass over every simulation of the workload. */
struct Iteration
{
    Pass pass = Pass::Untraced;
    double genSeconds = 0;
    double buildSeconds = 0;
    double runSeconds = 0;
    double serializeSeconds = 0;
    double wallSeconds = 0;
    double cpuSeconds = 0;
    /** Workload ops, counted from the trace-backed op streams. */
    std::uint64_t ops = 0;
    LayerCounts layers;
    std::vector<JobResult> results;
    /** Deterministic results document (resultsToJson, no timing). */
    std::string doc;
    unsigned failed = 0;
    /** Calibration-loop seconds measured just before it. */
    double calibSeconds = 0;
};

/** Deterministic reference a run's documents must equal. */
struct Reference
{
    std::string source;
    std::string text;
    /** Per-simulation compact dumps, for failure accounting. */
    std::vector<std::string> items;

    static Reference
    fromText(std::string source, std::string text)
    {
        Reference r{std::move(source), std::move(text), {}};
        const JsonValue doc = JsonValue::parse(r.text);
        const JsonValue &arr = doc.at("results");
        for (std::size_t i = 0; i < arr.size(); ++i)
            r.items.push_back(arr.at(i).dump());
        return r;
    }
};

/** maxrss right after the first System of the process is built. */
std::optional<double> rssAfterFirstBuild;

JobResult
runOne(const Job &job, bool traced, Iteration &it)
{
    JobResult out;
    out.job = job;
    try {
        pcsim::MachineConfig cfg = job.cfg;
        cfg.seed = job.seed;

        auto start = Clock::now();
        std::unique_ptr<pcsim::Workload> wl =
            job.factory ? job.factory()
                        : pcsim::runner::makeRunnerWorkload(
                              job.workload, cfg.proto.numNodes,
                              job.scale);
        it.genSeconds += secondsSince(start);
        for (unsigned n = 0; n < wl->numCpus(); ++n)
            if (const auto *ops = wl->cpuOps(n))
                it.ops += ops->size();

        start = Clock::now();
        pcsim::System sys(cfg);
        it.buildSeconds += secondsSince(start);
        if (!rssAfterFirstBuild)
            rssAfterFirstBuild = maxRssMb();

        if (traced) {
            Interposers probes(sys, *wl);
            start = Clock::now();
            out.result = sys.run(probes.workload());
            it.runSeconds += secondsSince(start);
            it.layers += probes.totals();
        } else {
            start = Clock::now();
            out.result = sys.run(*wl);
            it.runSeconds += secondsSince(start);
        }
        out.result.config = job.configName;
        out.ok = true;
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = e.what();
    }
    return out;
}

Iteration
runIteration(const std::vector<Job> &jobs, Pass pass,
             const Reference *ref)
{
    Iteration it;
    it.pass = pass;
    const double cpu0 = cpuSeconds();
    const auto start = Clock::now();
    for (Job job : jobs) {
        if (pass == Pass::Sharded)
            job.cfg.shards = kKvShards;
        it.results.push_back(runOne(job, pass == Pass::Traced, it));
    }

    const auto ser = Clock::now();
    it.doc = pcsim::runner::resultsToJson(it.results).dump(2) + "\n";
    for (std::size_t i = 0; i < it.results.size(); ++i) {
        const JobResult &r = it.results[i];
        bool good = r.ok;
        if (good && ref) {
            good = i < ref->items.size() &&
                   pcsim::runner::toJson(r).dump() == ref->items[i];
        }
        if (!good) {
            ++it.failed;
            std::fprintf(stderr, "pcbench: FAILED %s: %s\n",
                         r.job.label.c_str(),
                         r.ok ? ("differs from " + ref->source).c_str()
                              : r.error.c_str());
        }
    }
    if (ref && it.doc != ref->text && it.failed == 0) {
        // Every simulation matched but the document did not.
        it.failed = 1;
        std::fprintf(stderr, "pcbench: FAILED document differs from %s\n",
                     ref->source.c_str());
    }
    it.serializeSeconds = secondsSince(ser);
    it.wallSeconds = secondsSince(start);
    it.cpuSeconds = cpuSeconds() - cpu0;
    return it;
}

// --- metrics ---------------------------------------------------------

/** How a metric follows host speed (see hostFactor in run()). */
enum class Host
{
    Independent,
    Seconds, ///< scales with host time
    Rate,    ///< scales with 1 / host time
};

struct Metric
{
    std::string name;
    double value;
    const char *unit;
    Host host = Host::Independent;

    /** The value as the reference host would read it. */
    double
    normalized(double host_factor) const
    {
        switch (host) {
          case Host::Seconds:
            return value * host_factor;
          case Host::Rate:
            return value / host_factor;
          default:
            return value;
        }
    }
};

/** Max over the small and large systems of |geomean speedup - paper|. */
double
paperSpeedupError(const std::vector<JobResult> &results)
{
    std::map<std::pair<std::string, std::string>, double> cycles;
    for (const auto &r : results)
        cycles[{r.job.workload, r.job.configName}] =
            double(r.result.cycles);
    const auto configs = pcsim::presets::figure7Configs(kFig7Nodes);
    const auto geomean = [&](const std::string &config) {
        double log_sum = 0;
        const auto apps = pcsim::suiteNames();
        for (const auto &app : apps)
            log_sum += std::log(cycles.at({app, configs[0].name}) /
                                cycles.at({app, config}));
        return std::exp(log_sum / double(apps.size()));
    };
    return std::max(
        std::fabs(geomean(configs[2].name) - kPaperSmallSpeedup),
        std::fabs(geomean(configs[3].name) - kPaperLargeSpeedup));
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

template <typename F>
double
medianOf(const std::vector<const Iteration *> &its, F f)
{
    std::vector<double> v;
    for (const Iteration *it : its)
        v.push_back(f(*it));
    return median(v);
}

std::vector<Metric>
endToEnd(const std::vector<const Iteration *> &its, double peak_rss_mb)
{
    std::uint64_t sim_cycles = 0;
    for (const auto &r : its.front()->results)
        sim_cycles += r.result.cycles;
    const auto seconds = [&](const char *name, auto f) {
        return Metric{name, medianOf(its, f), "s", Host::Seconds};
    };
    return {
        seconds("setup_s",
                [](const Iteration &i) {
                    return i.genSeconds + i.buildSeconds;
                }),
        seconds("run_s", [](const Iteration &i) { return i.runSeconds; }),
        seconds("wall_s",
                [](const Iteration &i) { return i.wallSeconds; }),
        seconds("cpu_s", [](const Iteration &i) { return i.cpuSeconds; }),
        {"sim_ops_per_s", medianOf(its, [](const Iteration &i) {
             return ratio(double(i.ops), i.runSeconds);
         }), "1/s", Host::Rate},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"sim_cycles", double(sim_cycles), "cycles"},
    };
}

/** Sharded-kernel telemetry of one iteration, summed over its
 *  simulations; all zero when it ran sequentially. */
struct KernelCounts
{
    std::uint64_t windows = 0;
    std::uint64_t barriers = 0;
    std::uint64_t crossShardMsgs = 0;
    /** Worst simulation's max/mean of events per shard. */
    double imbalance = 0;

    explicit KernelCounts(const Iteration &it)
    {
        for (const auto &r : it.results) {
            const pcsim::RunPerf &p = r.result.perf;
            windows += p.kernelWindows;
            barriers += p.kernelBarriers;
            crossShardMsgs += p.crossShardMessages;
            if (p.shards > 1 && !p.shardEvents.empty()) {
                const double max = double(*std::max_element(
                    p.shardEvents.begin(), p.shardEvents.end()));
                const double mean = double(p.eventsExecuted) /
                                    double(p.shardEvents.size());
                imbalance = std::max(imbalance, ratio(max, mean));
            }
        }
    }
};

std::vector<Metric>
perLayer(const std::vector<const Iteration *> &untraced,
         const std::vector<const Iteration *> &traced,
         const std::vector<const Iteration *> &sharded,
         std::uint64_t seed, double calib_s)
{
    // Deterministic counters: equal in every iteration (checked), so
    // read them off the first traced one.
    const Iteration &t = *traced.front();
    pcsim::NodeStats n;
    std::uint64_t events = 0, overflow = 0, net_msgs = 0, net_bytes = 0;
    for (const auto &r : t.results) {
        n += r.result.nodes;
        events += r.result.perf.eventsExecuted;
        overflow += r.result.perf.overflowEvents;
        net_msgs += r.result.netMessages;
        net_bytes += r.result.netBytes;
    }
    const LayerCounts &lc = t.layers;
    const double handle_s = medianOf(traced, [](const Iteration &i) {
        return i.layers.handleSelfSeconds;
    });

    std::vector<double> probe;
    for (int i = 0; i < 5; ++i)
        probe.push_back(kernelNsPerEvent(seed));

    const auto run_s = [](const Iteration &i) { return i.runSeconds; };
    const auto cpu_s = [](const Iteration &i) { return i.cpuSeconds; };
    const KernelCounts k = sharded.empty() ? KernelCounts(t)
                                           : KernelCounts(*sharded.front());
    const double sharded_run_s = medianOf(sharded, run_s);
    return {
        {"system.build_s", medianOf(traced, [](const Iteration &i) {
             return i.buildSeconds;
         }), "s", Host::Seconds},
        {"system.rss_after_build_mb", rssAfterFirstBuild.value_or(0),
         "MB"},
        {"workload.gen_s", medianOf(traced, [](const Iteration &i) {
             return i.genSeconds;
         }), "s", Host::Seconds},
        {"workload.next_s", medianOf(traced, [](const Iteration &i) {
             return i.layers.nextSeconds;
         }), "s", Host::Seconds},
        {"sim.events", double(events), "count"},
        {"sim.events_per_op", ratio(double(events), double(lc.ops)),
         "ratio"},
        {"sim.overflow_events", double(overflow), "count"},
        {"sim.ns_per_event", median(probe), "ns", Host::Seconds},
        {"kernel.run_s", sharded_run_s, "s", Host::Seconds},
        {"kernel.cpu_s", medianOf(sharded, cpu_s), "s", Host::Seconds},
        {"kernel.speedup",
         ratio(medianOf(untraced, run_s), sharded_run_s), "ratio"},
        {"kernel.windows", double(k.windows), "count"},
        {"kernel.barriers", double(k.barriers), "count"},
        {"kernel.cross_shard_msgs", double(k.crossShardMsgs), "count"},
        {"kernel.shard_imbalance", k.imbalance, "ratio"},
        {"cpu.accesses_per_op",
         ratio(double(n.reads + n.writes), double(lc.rwOps)), "ratio"},
        {"protocol.handle_s", handle_s, "s", Host::Seconds},
        {"protocol.msgs_handled", double(lc.msgsHandled), "count"},
        {"protocol.ns_per_msg",
         ratio(1e9 * handle_s, double(lc.msgsHandled)), "ns",
         Host::Seconds},
        {"protocol.nack_frac",
         ratio(double(n.nacksSent), double(n.homeRequests)), "ratio"},
        {"protocol.retries", double(n.retries), "count"},
        {"cache.l1_hit_rate",
         ratio(double(n.l1Hits), double(n.reads + n.writes)), "ratio"},
        {"cache.remote_misses", double(n.remoteMisses), "count"},
        {"cache.three_hop_frac",
         ratio(double(n.threeHopMisses), double(n.remoteMisses)),
         "ratio"},
        {"core.rac_hits", double(n.racHits), "count"},
        {"core.delegations", double(n.delegationsGranted), "count"},
        {"core.update_useful_frac",
         ratio(double(n.updatesConsumed), double(n.updatesSent)),
         "ratio"},
        {"mem.home_requests", double(n.homeRequests), "count"},
        {"mem.dir_cache_hit_rate",
         ratio(double(n.dirCacheHits),
               double(n.dirCacheHits + n.dirCacheMisses)),
         "ratio"},
        {"net.msgs", double(net_msgs), "count"},
        {"net.bytes", double(net_bytes), "bytes"},
        {"net.msgs_per_miss",
         ratio(double(net_msgs),
               double(n.localMisses + n.remoteMisses)),
         "ratio"},
        {"runner.serialize_s", medianOf(traced, [](const Iteration &i) {
             return i.serializeSeconds;
         }), "s", Host::Seconds},
        {"trace.run_s_overhead",
         medianOf(traced, run_s) - medianOf(untraced, run_s), "s",
         Host::Seconds},
        {"host.calib_s", calib_s, "s"},
    };
}

void
printMetrics(const char *title, const std::vector<Metric> &ms,
             double host_factor)
{
    std::printf("%s\n  %-26s %16s %16s\n", title, "metric",
                "reference host", "this host");
    for (const Metric &m : ms)
        std::printf("  %-26s %16.6g %16.6g %s\n", m.name.c_str(),
                    m.normalized(host_factor), m.value, m.unit);
}

JsonValue
metricsJson(const std::vector<Metric> &ms, double host_factor)
{
    JsonValue obj = JsonValue::object();
    for (const Metric &m : ms) {
        JsonValue v = JsonValue::object();
        v["value"] = JsonValue(m.normalized(host_factor));
        v["unit"] = JsonValue(m.unit);
        obj[m.name] = std::move(v);
    }
    return obj;
}

const char *
passName(Pass p)
{
    switch (p) {
      case Pass::Traced:
        return " (traced)";
      case Pass::Sharded:
        return " (4 shards)";
      default:
        return "";
    }
}

int
run(const Options &o, const char *self)
{
    const unsigned cores = hostCores();
    const bool kv = o.workload == "kvserve256";
    std::printf("host: nproc=%u build=%s compiler=%s\n", cores,
                PCBENCH_BUILD_TYPE, PCBENCH_COMPILER);
    if (kv && cores < kKvShards) {
        std::printf("host: FLAG nproc %u < %u shards: the 4-shard "
                    "times measure oversubscription, not the sharded "
                    "kernel; claim no speedup from them\n",
                    cores, kKvShards);
    }
    std::printf("workload: %s seed=%llu%s (held-out seed: %llu)\n",
                o.workload.c_str(), (unsigned long long)o.seed,
                o.seed == kDefaultSeed ? " (default: reference checks)"
                                       : "",
                (unsigned long long)kHeldOutSeed);

    const std::vector<Job> jobs = makeJobs(o);
    unsigned attempted = 0, failed = 0;

    std::optional<Reference> ref;
    if (o.seed == kDefaultSeed) {
        const std::string name = kv ? kKvReference : kFig7Reference;
        std::string text;
        if (!pcsim::runner::readTextFile(o.root + "/" + name, text)) {
            std::fprintf(stderr, "pcbench: cannot read %s under %s\n",
                         name.c_str(), o.root.c_str());
            return 1;
        }
        ref = Reference::fromText(name, std::move(text));
    }

    // A deque: pointers to its elements stay valid as it grows.
    std::deque<Iteration> its;
    std::optional<double> peak_rss_mb;
    const auto runPass = [&](Pass pass) {
        const double calib = calibrationSeconds(self);
        its.push_back(runIteration(jobs, pass, ref ? &*ref : nullptr));
        its.back().calibSeconds = calib;
        const Iteration &it = its.back();
        attempted += jobs.size();
        failed += it.failed;
        std::printf("iteration %zu%s: setup %.4f s, run %.4f s, wall "
                    "%.4f s, cpu %.4f s, calibration %.4f s\n",
                    its.size(), passName(pass),
                    it.genSeconds + it.buildSeconds, it.runSeconds,
                    it.wallSeconds, it.cpuSeconds, it.calibSeconds);
        // Without a reference file, the first iteration's document
        // becomes the reference every later one must repeat exactly.
        if (!ref)
            ref = Reference::fromText("the first iteration's document",
                                      it.doc);
        // What one run of the workload costs; later iterations only
        // add allocator fragmentation.
        if (!peak_rss_mb)
            peak_rss_mb = maxRssMb();
    };

    // The passes rotate while the budget lasts, each at least once.
    std::vector<Pass> rotation{Pass::Untraced};
    if (o.trace) {
        rotation.push_back(Pass::Traced);
        if (kv)
            rotation.push_back(Pass::Sharded);
    }
    const auto start = Clock::now();
    do {
        runPass(rotation[its.size() % rotation.size()]);
        // Stop before an iteration that would overrun the budget.
    } while (secondsSince(start) + its.back().wallSeconds <= o.seconds ||
             its.size() < rotation.size());

    std::vector<const Iteration *> untraced, traced, sharded;
    for (const auto &it : its) {
        (it.pass == Pass::Traced    ? traced
         : it.pass == Pass::Sharded ? sharded
                                    : untraced)
            .push_back(&it);
    }

    const std::vector<Metric> e2e = endToEnd(untraced, *peak_rss_mb);
    if (kv && sharded.empty()) {
        runPass(Pass::Sharded);
        sharded.push_back(&its.back());
    }

    bool ops_ok = true;
    for (const Iteration *it : traced) {
        if (it->layers.ops != it->ops) {
            ops_ok = false;
            std::fprintf(stderr,
                         "pcbench: FAILED traced op count %llu != op "
                         "stream size %llu\n",
                         (unsigned long long)it->layers.ops,
                         (unsigned long long)it->ops);
        }
    }
    const auto sameDocs = [&](const std::vector<const Iteration *> &v) {
        bool same = true;
        for (const Iteration *it : v)
            same &= it->doc == untraced.front()->doc;
        return same;
    };
    const bool traced_equal = sameDocs(traced);
    const bool sharded_equal = sameDocs(sharded);

    std::printf("iterations: %zu untraced, %zu traced, %zu 4-shard; "
                "simulations: %u attempted, %u failed\n",
                untraced.size(), traced.size(), sharded.size(),
                attempted, failed);
    std::printf("check: documents equal %s: %s\n", ref->source.c_str(),
                failed ? "NO" : "yes");
    if (o.trace)
        std::printf("check: traced documents equal untraced: %s\n",
                    traced_equal ? "yes" : "NO");
    if (kv)
        std::printf("check: 4-shard documents equal sequential: %s\n",
                    sharded_equal ? "yes" : "NO");

    // Host times are reported as the reference host would read them:
    // scaled by how fast the calibration loop ran here, so drift in a
    // shared host's speed largely cancels.
    std::vector<double> calibs;
    for (const auto &it : its)
        calibs.push_back(it.calibSeconds);
    const double calib_s = median(calibs);
    const double host_factor = kCalibReferenceSeconds / calib_s;
    std::printf("host: calibration loop %.4f s (reference host %.2f s): "
                "host times x %.4f\n",
                calib_s, kCalibReferenceSeconds, host_factor);

    printMetrics("end to end (untraced, medians):", e2e, host_factor);
    if (!kv) {
        std::printf("  %-26s %16.6g %16s %s\n", "paper_speedup_err",
                    paperSpeedupError(untraced.front()->results), "",
                    "speedup");
    }

    std::vector<Metric> reported = e2e;
    if (o.trace) {
        reported = perLayer(untraced, traced, sharded, o.seed, calib_s);
        printMetrics("per layer (traced, medians):", reported,
                     host_factor);
    }

    const bool correct =
        failed == 0 && ops_ok && traced_equal && sharded_equal;
    if (!correct)
        std::fprintf(stderr, "pcbench: CHECKS FAILED\n");
    JsonValue out = JsonValue::object();
    out["correct"] = JsonValue(correct);
    out["attempted"] = JsonValue(std::uint64_t(attempted));
    out["failed"] = JsonValue(std::uint64_t(failed));
    out["metrics"] = metricsJson(reported, host_factor);
    std::printf("%s\n", out.dump().c_str());
    return 0;
}

} // namespace
} // namespace pcbench

int
main(int argc, char **argv)
{
    // The calibration child (see calibrationSeconds).
    if (argc == 2 && std::string(argv[1]) == "--calibrate") {
        std::printf("%.17g\n", pcbench::calibrationLoop());
        return 0;
    }
    return pcbench::run(pcbench::parseArgs(argc, argv), argv[0]);
}
