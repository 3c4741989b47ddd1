#include "src/runner/bench.hh"

#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "src/runner/job.hh"
#include "src/runner/results.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/json.hh"
#include "src/sim/logging.hh"
#include "src/system/presets.hh"
#include "src/system/system.hh"

namespace pcsim
{
namespace runner
{
namespace
{

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// --- kernel microbenchmarks --------------------------------------
//
// A fixed LCG drives self-rescheduling actors, so the schedule/pop
// sequence is identical on every host and every run; only the wall
// time varies.

struct Lcg
{
    std::uint64_t s;
    explicit Lcg(std::uint64_t seed) : s(seed) {}
    std::uint32_t
    next()
    {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<std::uint32_t>(s >> 33);
    }
};

enum class Mode
{
    Shallow, ///< short deltas, tight horizon (the protocol common case)
    Deep,    ///< many actors, deltas up to 1K ticks
    Payload, ///< Shallow + a Message-sized closure capture
    Mixed,   ///< mostly short deltas with occasional far-future jumps
};

struct Payload
{
    unsigned char bytes[64] = {};
};

struct Harness
{
    EventQueue eq;
    Lcg rng{12345};
    std::uint64_t budget = 0;
    Mode mode = Mode::Shallow;

    Tick
    delta()
    {
        switch (mode) {
          case Mode::Shallow:
          case Mode::Payload:
            return 1 + (rng.next() & 63);
          case Mode::Deep:
            return 1 + (rng.next() & 1023);
          case Mode::Mixed:
            return (rng.next() & 7) ? 1 + (rng.next() & 255)
                                    : 8192 + (rng.next() & 65535);
        }
        return 1;
    }

    void
    arm()
    {
        if (budget == 0)
            return;
        --budget;
        if (mode == Mode::Payload) {
            Payload p;
            p.bytes[0] = static_cast<unsigned char>(budget);
            eq.scheduleIn(delta(), [this, p]() {
                (void)p.bytes[0];
                arm();
            });
        } else {
            eq.scheduleIn(delta(), [this]() { arm(); });
        }
    }
};

struct BenchResult
{
    std::string name;
    std::string kind; ///< "kernel" or "protocol"
    std::uint64_t events = 0;
    double wallSeconds = 0.0;
    double eventsPerSec = 0.0;
    /** Protocol benches only. */
    std::string workload;
    std::string config;
    double scale = 0.0;
    Tick cycles = 0;
    double ticksPerSec = 0.0;
    double poolHitRate = 0.0;
    double inlineRate = 0.0;
    std::uint64_t peakQueueDepth = 0;
};

BenchResult
kernelBench(const char *name, Mode mode, unsigned actors,
            const BenchOptions &opt)
{
    BenchResult br;
    br.name = name;
    br.kind = "kernel";
    for (unsigned rep = 0; rep < opt.repeats; ++rep) {
        Harness h;
        h.mode = mode;
        h.budget = opt.kernelEvents;
        for (unsigned i = 0; i < actors; ++i)
            h.arm();

        const double start = now();
        const std::uint64_t executed = h.eq.run();
        const double wall = now() - start;
        if (rep == 0 || wall < br.wallSeconds) {
            br.wallSeconds = wall;
            br.events = executed;
        }
    }
    br.eventsPerSec =
        br.wallSeconds > 0 ? double(br.events) / br.wallSeconds : 0.0;
    return br;
}

BenchResult
protocolBench(const char *name, const std::string &workload,
              const std::string &config, double scale,
              const BenchOptions &opt)
{
    BenchResult br;
    br.name = name;
    br.kind = "protocol";
    br.workload = workload;
    br.config = config;
    br.scale = scale;

    MachineConfig cfg;
    std::string cname;
    if (!namedMachineConfig(config, /*num_nodes=*/16, cfg, cname))
        panic("bench: unknown config '%s'", config.c_str());
    cfg.proto.checkerEnabled = false;
    br.config = cname;

    for (unsigned rep = 0; rep < opt.repeats; ++rep) {
        System sys(cfg);
        auto wl =
            makeRunnerWorkload(workload, sys.numNodes(), scale);
        RunResult r = sys.run(*wl);
        if (rep == 0 || r.perf.wallSeconds < br.wallSeconds) {
            br.wallSeconds = r.perf.wallSeconds;
            br.events = r.perf.eventsRun();
            br.cycles = r.perf.simTicks;
            br.ticksPerSec = r.perf.ticksPerSec();
            br.poolHitRate = r.perf.poolHitRate();
            br.inlineRate = r.perf.inlineRate();
            br.peakQueueDepth = r.perf.peakQueueDepth;
        }
    }
    br.eventsPerSec =
        br.wallSeconds > 0 ? double(br.events) / br.wallSeconds : 0.0;
    return br;
}

JsonValue
toJson(const BenchResult &br)
{
    JsonValue v = JsonValue::object();
    v["name"] = JsonValue(br.name);
    v["kind"] = JsonValue(br.kind);
    v["events"] = JsonValue(br.events);
    v["wallSeconds"] = JsonValue(br.wallSeconds);
    v["eventsPerSec"] = JsonValue(br.eventsPerSec);
    if (br.kind == "protocol") {
        v["workload"] = JsonValue(br.workload);
        v["config"] = JsonValue(br.config);
        v["scale"] = JsonValue(br.scale);
        v["cycles"] = JsonValue(br.cycles);
        v["ticksPerSec"] = JsonValue(br.ticksPerSec);
        v["poolHitRate"] = JsonValue(br.poolHitRate);
        v["inlineRate"] = JsonValue(br.inlineRate);
        v["peakQueueDepth"] = JsonValue(br.peakQueueDepth);
    }
    return v;
}

/** eventsPerSec of the same-named benchmark in a baseline document;
 *  0 when absent. */
double
baselineEps(const JsonValue *baseline, const std::string &name)
{
    if (!baseline)
        return 0.0;
    const JsonValue *arr = baseline->find("benchmarks");
    if (!arr || !arr->isArray())
        return 0.0;
    for (std::size_t i = 0; i < arr->size(); ++i) {
        const JsonValue &e = arr->at(i);
        const JsonValue *n = e.find("name");
        const JsonValue *eps = e.find("eventsPerSec");
        if (n && eps && n->isString() && n->asString() == name)
            return eps->asDouble();
    }
    return 0.0;
}

} // namespace

int
runBenchSuite(const BenchOptions &opt)
{
    JsonValue baseline;
    bool have_baseline = false;
    if (!opt.baselinePath.empty()) {
        std::string text;
        if (!readTextFile(opt.baselinePath, text)) {
            std::fprintf(stderr, "pcsim bench: cannot read baseline "
                                 "'%s'\n",
                         opt.baselinePath.c_str());
            return 1;
        }
        baseline = JsonValue::parse(text);
        have_baseline = true;
    }

    std::vector<BenchResult> results;
    const auto progress = [&](const BenchResult &br) {
        results.push_back(br);
        if (!opt.quiet)
            std::fprintf(stderr, "bench: %-24s %9.0f kev/s\n",
                         br.name.c_str(), br.eventsPerSec / 1e3);
    };

    progress(kernelBench("kernel-selfping-shallow", Mode::Shallow, 64,
                         opt));
    progress(kernelBench("kernel-selfping-deep", Mode::Deep, 4096,
                         opt));
    progress(kernelBench("kernel-payload", Mode::Payload, 64, opt));
    progress(kernelBench("kernel-mixed-overflow", Mode::Mixed, 256,
                         opt));
    progress(protocolBench("proto-pcmicro", "PCmicro", "large", 20.0,
                           opt));
    progress(protocolBench("proto-em3d", "Em3D", "large", 4.0, opt));

    JsonValue doc = JsonValue::object();
    doc["schemaVersion"] = JsonValue(std::uint64_t(1));
    doc["generator"] = JsonValue("pcsim bench");
    doc["kernelEvents"] = JsonValue(opt.kernelEvents);
    doc["repeats"] = JsonValue(std::uint64_t(opt.repeats));
    JsonValue arr = JsonValue::array();
    for (const auto &br : results) {
        JsonValue v = toJson(br);
        const double base =
            have_baseline ? baselineEps(&baseline, br.name) : 0.0;
        if (base > 0) {
            v["baselineEventsPerSec"] = JsonValue(base);
            v["speedup"] = JsonValue(br.eventsPerSec / base);
        }
        arr.push(std::move(v));
    }
    doc["benchmarks"] = std::move(arr);

    // Summary table on stdout.
    std::printf("%-24s | %10s | %12s | %s\n", "benchmark", "wall(s)",
                "events/sec", have_baseline ? "speedup" : "");
    for (const auto &br : results) {
        const double base =
            have_baseline ? baselineEps(&baseline, br.name) : 0.0;
        if (base > 0)
            std::printf("%-24s | %10.4f | %12.0f | %.2fx\n",
                        br.name.c_str(), br.wallSeconds,
                        br.eventsPerSec, br.eventsPerSec / base);
        else
            std::printf("%-24s | %10.4f | %12.0f |\n", br.name.c_str(),
                        br.wallSeconds, br.eventsPerSec);
    }

    if (!opt.jsonPath.empty() &&
        !writeTextFile(opt.jsonPath, doc.dump(2) + "\n"))
        return 1;
    return 0;
}

// --- node-count scaling sweep ------------------------------------

namespace
{

/** One (nodes, config) point of the scaling sweep. */
struct ScalePoint
{
    unsigned nodes = 0;
    std::string config;
    Tick cycles = 0;
    std::uint64_t events = 0;
    double wallSeconds = 0.0;
    double eventsPerSec = 0.0;
    NodeStats stats;
    std::uint64_t netMessages = 0;
    std::uint64_t netBytes = 0;
};

JsonValue
toJson(const ScalePoint &p)
{
    JsonValue v = JsonValue::object();
    v["nodes"] = JsonValue(std::uint64_t(p.nodes));
    v["config"] = JsonValue(p.config);
    v["cycles"] = JsonValue(p.cycles);
    v["events"] = JsonValue(p.events);
    v["wallSeconds"] = JsonValue(p.wallSeconds);
    v["eventsPerSec"] = JsonValue(p.eventsPerSec);
    JsonValue m = JsonValue::object();
    m["l2Hits"] = JsonValue(p.stats.l2Hits);
    m["localMisses"] = JsonValue(p.stats.localMisses);
    m["remoteMisses"] = JsonValue(p.stats.remoteMisses);
    m["racHits"] = JsonValue(p.stats.racHits);
    m["twoHopMisses"] = JsonValue(p.stats.twoHopMisses);
    m["threeHopMisses"] = JsonValue(p.stats.threeHopMisses);
    m["updatesSent"] = JsonValue(p.stats.updatesSent);
    m["updatesConsumed"] = JsonValue(p.stats.updatesConsumed);
    v["missClasses"] = std::move(m);
    v["netMessages"] = JsonValue(p.netMessages);
    v["netBytes"] = JsonValue(p.netBytes);
    v["detectorBitsPerEntry"] =
        JsonValue(std::uint64_t(p.stats.detectorBitsPerEntry));
    return v;
}

} // namespace

int
runScaleSweep(const ScaleOptions &opt)
{
    std::vector<unsigned> counts = opt.nodeCounts;
    if (counts.empty())
        counts = presets::scaleNodeCounts();

    std::vector<ScalePoint> points;
    for (unsigned n : counts) {
        for (const auto &nc : presets::scaleConfigs(n)) {
            MachineConfig cfg = nc.cfg;
            cfg.proto.checkerEnabled = false;
            cfg.shards = opt.parallelShards;
            const std::string err = cfg.proto.validateError();
            if (!err.empty()) {
                std::fprintf(stderr,
                             "pcsim scale: invalid configuration "
                             "'%s' at %u nodes: %s\n",
                             nc.name.c_str(), n, err.c_str());
                return 1;
            }

            ScalePoint p;
            p.nodes = n;
            p.config = nc.name;
            for (unsigned rep = 0; rep < opt.repeats; ++rep) {
                System sys(cfg);
                auto wl = makeRunnerWorkload(opt.workload,
                                             sys.numNodes(), opt.scale);
                RunResult r = sys.run(*wl);
                if (rep == 0 || r.perf.wallSeconds < p.wallSeconds) {
                    p.cycles = r.cycles;
                    p.events = r.perf.eventsRun();
                    p.wallSeconds = r.perf.wallSeconds;
                    p.stats = r.nodes;
                    p.netMessages = r.netMessages;
                    p.netBytes = r.netBytes;
                }
            }
            p.eventsPerSec = p.wallSeconds > 0
                                 ? double(p.events) / p.wallSeconds
                                 : 0.0;
            if (!opt.quiet)
                std::fprintf(stderr,
                             "scale: %3u nodes %-16s %12llu cycles "
                             "%9.0f kev/s\n",
                             n, p.config.c_str(),
                             (unsigned long long)p.cycles,
                             p.eventsPerSec / 1e3);
            points.push_back(std::move(p));
        }
    }

    JsonValue doc = JsonValue::object();
    doc["schemaVersion"] = JsonValue(std::uint64_t(1));
    doc["generator"] = JsonValue("pcsim scale");
    doc["workload"] = JsonValue(opt.workload);
    doc["scale"] = JsonValue(opt.scale);
    doc["repeats"] = JsonValue(std::uint64_t(opt.repeats));
    JsonValue arr = JsonValue::array();
    for (const auto &p : points)
        arr.push(toJson(p));
    doc["results"] = std::move(arr);

    std::printf("%5s | %-16s | %12s | %12s | %10s | %10s | %9s\n",
                "nodes", "config", "cycles", "events/sec", "remote",
                "racHits", "updates");
    for (const auto &p : points)
        std::printf("%5u | %-16s | %12llu | %12.0f | %10llu | %10llu "
                    "| %9llu\n",
                    p.nodes, p.config.c_str(),
                    (unsigned long long)p.cycles, p.eventsPerSec,
                    (unsigned long long)p.stats.remoteMisses,
                    (unsigned long long)p.stats.racHits,
                    (unsigned long long)p.stats.updatesSent);

    if (!opt.jsonPath.empty() &&
        !writeTextFile(opt.jsonPath, doc.dump(2) + "\n"))
        return 1;
    return 0;
}

// --- parallel-kernel shard scaling -------------------------------

namespace
{

/** One workload x machine of the shard-scaling suite. */
struct ParallelSpec
{
    const char *name;
    const char *workload;
    const char *config;
    unsigned nodes;
    double scale;
};

} // namespace

int
runParallelBench(const BenchOptions &opt)
{
    // PCmicro is the paper's producer-consumer stressor; the 256-node
    // KVServe point is the serving-scale machine the CI release job
    // byte-diffs against the sequential golden. 64 nodes cap at 8
    // leaf-aligned shards, so the 8-shard point is the topology limit.
    static const ParallelSpec specs[] = {
        {"parallel-pcmicro-64", "PCmicro", "large", 64, 4.0},
        {"parallel-kvserve-256", "KVServe", "base", 256, 1.0},
    };
    static const unsigned shard_counts[] = {1, 2, 4, 8};

    bool identical = true;
    JsonValue benches = JsonValue::array();
    std::printf("%-22s | %6s | %9s | %10s | %12s | %7s\n", "benchmark",
                "shards", "(actual)", "wall(s)", "events/sec",
                "speedup");
    for (const auto &spec : specs) {
        MachineConfig cfg;
        std::string cname;
        if (!namedMachineConfig(spec.config, spec.nodes, cfg, cname))
            panic("bench --parallel: unknown config '%s'",
                  spec.config);
        cfg.proto.checkerEnabled = false;

        std::string oracle; // serialized shards=1 statistics
        double oracle_wall = 0.0;
        JsonValue points = JsonValue::array();
        for (unsigned shards : shard_counts) {
            cfg.shards = shards;
            std::uint64_t events = 0;
            std::uint32_t effective = 1;
            double wall = 0.0;
            std::string serialized;
            for (unsigned rep = 0; rep < opt.repeats; ++rep) {
                System sys(cfg);
                auto wl = makeRunnerWorkload(spec.workload,
                                             sys.numNodes(),
                                             spec.scale);
                RunResult r = sys.run(*wl);
                if (rep == 0 || r.perf.wallSeconds < wall) {
                    wall = r.perf.wallSeconds;
                    events = r.perf.eventsRun();
                }
                effective = r.perf.shards;
                // Every repeat must serialize identically -- the
                // deterministic fields carry no trace of S or the
                // host, so one capture per point suffices.
                if (rep == 0)
                    serialized =
                        toJson(r, /*with_timing=*/false).dump(2);
            }
            if (shards == 1) {
                oracle = serialized;
                oracle_wall = wall;
            }
            const bool point_ok = serialized == oracle;
            identical &= point_ok;
            const double eps =
                wall > 0 ? double(events) / wall : 0.0;
            const double speedup = wall > 0 ? oracle_wall / wall : 0.0;

            JsonValue p = JsonValue::object();
            p["shards"] = JsonValue(std::uint64_t(shards));
            p["effectiveShards"] = JsonValue(std::uint64_t(effective));
            p["events"] = JsonValue(events);
            p["wallSeconds"] = JsonValue(wall);
            p["eventsPerSec"] = JsonValue(eps);
            p["speedupVsSequential"] = JsonValue(speedup);
            p["identicalToSequential"] = JsonValue(point_ok);
            points.push(std::move(p));

            std::printf("%-22s | %6u | %9u | %10.4f | %12.0f | "
                        "%6.2fx%s\n",
                        spec.name, shards, effective, wall, eps,
                        speedup, point_ok ? "" : "  IDENTITY FAIL");
            if (!opt.quiet)
                std::fprintf(stderr,
                             "bench: %s x%u done (%s)\n", spec.name,
                             shards, point_ok ? "identical" : "DIFF");
        }

        JsonValue b = JsonValue::object();
        b["name"] = JsonValue(std::string(spec.name));
        b["workload"] = JsonValue(std::string(spec.workload));
        b["config"] = JsonValue(cname);
        b["nodes"] = JsonValue(std::uint64_t(spec.nodes));
        b["scale"] = JsonValue(spec.scale);
        b["points"] = std::move(points);
        benches.push(std::move(b));
    }

    JsonValue doc = JsonValue::object();
    doc["schemaVersion"] = JsonValue(std::uint64_t(1));
    doc["generator"] = JsonValue("pcsim bench --parallel");
    doc["repeats"] = JsonValue(std::uint64_t(opt.repeats));
    // Speedup is bounded by the host: a single-core runner reports
    // ~1x (barrier overhead and all), and the document says so.
    doc["hostCores"] = JsonValue(
        std::uint64_t(std::thread::hardware_concurrency()));
    doc["identicalToSequential"] = JsonValue(identical);
    doc["benchmarks"] = std::move(benches);

    if (!opt.jsonPath.empty() &&
        !writeTextFile(opt.jsonPath, doc.dump(2) + "\n"))
        return 1;
    if (!identical) {
        std::fprintf(stderr, "bench --parallel: parallel kernel "
                             "diverged from the sequential oracle\n");
        return 2;
    }
    return 0;
}

} // namespace runner
} // namespace pcsim
