#include "src/runner/figures.hh"

#include <array>
#include <cmath>
#include <utility>
#include <vector>

#include "src/runner/results.hh"
#include "src/workload/suite.hh"

namespace pcsim
{
namespace figures
{

namespace
{

/** The per-figure sweep axes, defined once for jobs and printers. */

const std::vector<std::pair<const char *, Tick>> &
figure9Delays()
{
    static const std::vector<std::pair<const char *, Tick>> delays = {
        {"5", 5},        {"50", 50},       {"500", 500},
        {"5K", 5000},    {"50K", 50000},   {"500K", 500000},
        {"5M", 5000000}, {"Infinite", maxTick},
    };
    return delays;
}

// 2 GHz core: 25/50/100/200 ns = 50/100/200/400 cycles.
const std::vector<std::pair<const char *, Tick>> &
figure10Hops()
{
    static const std::vector<std::pair<const char *, Tick>> hops = {
        {"25ns", 50}, {"50ns", 100}, {"100ns", 200}, {"200ns", 400}};
    return hops;
}

/** One delegate-cache x RAC sizing point of Figures 11 and 12. */
struct SizePoint
{
    std::size_t entries;
    std::size_t racBytes;
    std::string name; ///< config name and printed row label
};

/** Figure 11 grows the delegate cache beside a 32K RAC; Figure 12
 *  grows the RAC beside a 32-entry delegate cache. Both end on the
 *  paper's large configuration. */
std::vector<SizePoint>
sizePoints(bool grow_rac)
{
    std::vector<SizePoint> points;
    for (std::size_t n = 32; n <= 1024; n *= 2) {
        const std::size_t entries = grow_rac ? 32 : n;
        const std::size_t rac_kb = grow_rac ? n : 32;
        points.push_back({entries, rac_kb * 1024,
                          std::to_string(entries) + "-entry deledc & " +
                              std::to_string(rac_kb) + "K RAC"});
    }
    points.push_back({1024, 1024 * 1024, "1K-entry deledc & 1M RAC"});
    return points;
}

/** Paper speedups read off Figure 7 (approximate bar heights). */
struct PaperRow
{
    const char *app;
    double small; ///< 32-entry deledc & 32K RAC
    double large; ///< 1K-entry deledc & 1M RAC
};

const PaperRow paperSpeedups[] = {
    {"Barnes", 1.17, 1.23}, {"Ocean", 1.08, 1.11},
    {"Em3D", 1.33, 1.40},   {"LU", 1.31, 1.40},
    {"CG", 1.04, 1.06},     {"MG", 1.09, 1.22},
    {"Appbt", 1.08, 1.24},
};

/** Table 3 as printed in the paper: % of producer-consumer writes
 *  whose invalidation hit 1 / 2 / 3 / 4 / 4+ consumers. */
struct ConsumerRow
{
    const char *app;
    double c1, c2, c3, c4, c4p;
};

const ConsumerRow paperConsumers[] = {
    {"Barnes", 13.9, 6.8, 9.4, 8.1, 61.7},
    {"Ocean", 97.7, 1.8, 0.5, 0.0, 0.0},
    {"Em3D", 67.8, 32.2, 0.0, 0.0, 0.0},
    {"LU", 99.4, 0.0, 0.0, 0.4, 0.1},
    {"CG", 0.1, 0.2, 0.0, 0.0, 99.7},
    {"MG", 0.0, 0.3, 6.7, 1.4, 91.6},
    {"Appbt", 78.3, 11.4, 2.9, 1.8, 36.7},
};

double
geomean(const std::vector<double> &v)
{
    double p = 1.0;
    for (double x : v)
        p *= x;
    return v.empty() ? 0.0 : std::pow(p, 1.0 / v.size());
}

double
mean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / v.size();
}

/** The result of (workload, config) in @p doc; false when absent or
 *  failed. */
bool
lookup(const JsonValue &doc, const std::string &workload,
       const std::string &config, RunResult &out)
{
    const JsonValue *e = runner::findResult(doc, workload, config);
    if (!e)
        return false;
    if (const JsonValue *ok = e->find("ok"))
        if (ok->isBool() && !ok->asBool())
            return false;
    out = runner::runResultFromJson(*e);
    return true;
}

/** Speedup / traffic / remote triple normalized to a base run. */
struct Norm
{
    double speedup = 1.0;
    double messages = 1.0;
    double remote = 1.0;
};

Norm
normalize(const RunResult &base, const RunResult &e)
{
    Norm n;
    n.speedup = double(base.cycles) / double(e.cycles);
    n.messages = double(e.netMessages) / double(base.netMessages);
    n.remote =
        double(e.nodes.remoteMisses) / double(base.nodes.remoteMisses);
    return n;
}

/** Jobs run with the checker off: the figure sweeps measure speed,
 *  the invariant checks live in tests/ and examples/. */
void
disableChecker(runner::JobSet &set)
{
    for (auto &j : set.jobs())
        j.cfg.proto.checkerEnabled = false;
}

} // namespace

runner::JobSet
figure7Jobs(double bench_scale, unsigned num_nodes)
{
    runner::JobSet set;
    set.sweep(suiteNames(), presets::figure7Configs(num_nodes),
              bench_scale);
    disableChecker(set);
    return set;
}

runner::JobSet
figure8Jobs(double bench_scale, unsigned num_nodes)
{
    // Base: 1 MB L2. Inter: 1 MB L2 + 32-entry delegate cache + 32 KB
    // RAC. Equal: the same silicon spent on a 1.04 MB L2 -- 2128 sets
    // of 4 ways x 128 B, the only shipped non-power-of-two set count.
    presets::NamedConfig base{"base", presets::base(num_nodes)};
    base.cfg.proto.l2SizeBytes = 1024 * 1024;
    presets::NamedConfig inter{"inter", presets::small(num_nodes)};
    inter.cfg.proto.l2SizeBytes = 1024 * 1024;
    presets::NamedConfig equal = base;
    equal.name = "equal";
    equal.cfg.proto.l2SetsOverride = (1024 * 1024 + 40 * 1024) / (4 * 128);

    runner::JobSet set;
    set.sweep(suiteNames(), {base, inter, equal}, bench_scale);
    disableChecker(set);
    return set;
}

runner::JobSet
figure9Jobs(double bench_scale, unsigned num_nodes)
{
    runner::JobSet set;
    for (const auto &app : suiteNames()) {
        for (const auto &[label, delay] : figure9Delays()) {
            runner::Job j;
            j.workload = app;
            j.cfg = presets::large(num_nodes);
            j.cfg.proto.interventionDelay = delay;
            j.configName = label;
            j.scale = bench_scale * 0.5;
            set.add(std::move(j));
        }
    }
    disableChecker(set);
    return set;
}

runner::JobSet
figure10Jobs(double bench_scale, unsigned num_nodes)
{
    runner::JobSet set;
    for (const auto &[label, cycles] : figure10Hops()) {
        for (bool enhanced : {false, true}) {
            runner::Job j;
            j.workload = "Appbt";
            j.cfg = enhanced ? presets::small(num_nodes)
                             : presets::base(num_nodes);
            j.cfg.net.hopLatency = cycles;
            j.configName =
                std::string(enhanced ? "enh-" : "base-") + label;
            j.scale = bench_scale * 0.5;
            set.add(std::move(j));
        }
    }
    disableChecker(set);
    return set;
}

namespace
{

/** Base plus every sizing point on @p app. */
runner::JobSet
sizeSweepJobs(const char *app, bool grow_rac, double scale,
              unsigned num_nodes)
{
    std::vector<presets::NamedConfig> configs = {
        {"base", presets::base(num_nodes)}};
    for (const SizePoint &p : sizePoints(grow_rac))
        configs.push_back({p.name, presets::delegateUpdate(
                                       p.entries, p.racBytes, num_nodes)});
    runner::JobSet set;
    set.sweep({app}, configs, scale);
    disableChecker(set);
    return set;
}

/** The Figure 11 / 12 table; Figure 12 adds the updates column. */
void
printSizeSweep(const JsonValue &doc, const char *app, bool grow_rac,
               std::FILE *out)
{
    const char *upd = grow_rac ? " | updates used/sent" : "";
    std::fprintf(out, "%-26s | %-8s | %-9s | %-13s%s\n", "config",
                 "speedup", "messages", "remote misses", upd);
    std::fprintf(out, "---------------------------+----------+-----------"
                      "+-------------%s\n",
                 grow_rac ? "-+------------------" : "");
    RunResult base;
    if (!lookup(doc, app, "base", base)) {
        std::fprintf(out, "(missing base result)\n");
        return;
    }
    std::fprintf(out, "%-26s | %-8.3f | %-9.3f | %-13.3f%s\n",
                 "Base (no mechanisms)", 1.0, 1.0, 1.0,
                 grow_rac ? " |" : "");
    for (const SizePoint &p : sizePoints(grow_rac)) {
        RunResult r;
        if (!lookup(doc, app, p.name, r)) {
            std::fprintf(out, "%-26s | (missing result)\n",
                         p.name.c_str());
            continue;
        }
        const Norm n = normalize(base, r);
        std::fprintf(out, "%-26s | %-8.3f | %-9.3f | %-13.3f",
                     p.name.c_str(), n.speedup, n.messages, n.remote);
        if (grow_rac)
            std::fprintf(out, " | %llu/%llu",
                         (unsigned long long)r.nodes.updatesConsumed,
                         (unsigned long long)r.nodes.updatesSent);
        std::fprintf(out, "\n");
    }
}

} // namespace

runner::JobSet
figure11Jobs(double bench_scale, unsigned num_nodes)
{
    return sizeSweepJobs("MG", false, bench_scale * 0.75, num_nodes);
}

runner::JobSet
figure12Jobs(double bench_scale, unsigned num_nodes)
{
    return sizeSweepJobs("Appbt", true, bench_scale * 0.75, num_nodes);
}

runner::JobSet
table3Jobs(double bench_scale, unsigned num_nodes)
{
    // The baseline system: the detector sees the application's
    // inherent sharing pattern.
    runner::JobSet set;
    set.sweep(suiteNames(), {{"base", presets::base(num_nodes)}},
              bench_scale);
    disableChecker(set);
    return set;
}

void
printFigure7(const JsonValue &doc, std::FILE *out)
{
    const auto configs = presets::figure7Configs();
    const auto apps = suiteNames();

    const auto header = [&](const char *title) {
        std::fprintf(out, "%s:\n%-8s", title, "App");
        for (const auto &c : configs)
            std::fprintf(out, " | %-13.13s", c.name.c_str());
        std::fprintf(out, "\n");
    };
    header("speedup (paper small/large in brackets)");

    std::vector<std::vector<Norm>> all;

    for (std::size_t a = 0; a < apps.size(); ++a) {
        const std::string &app = apps[a];
        RunResult base;
        if (!lookup(doc, app, configs[0].name, base)) {
            std::fprintf(out, "%-8s | (missing base result)\n",
                         app.c_str());
            all.emplace_back();
            continue;
        }
        std::vector<Norm> norms;
        norms.push_back({1.0, 1.0, 1.0});
        for (std::size_t c = 1; c < configs.size(); ++c) {
            RunResult e;
            norms.push_back(lookup(doc, app, configs[c].name, e)
                                ? normalize(base, e)
                                : Norm{0, 0, 0});
        }
        all.push_back(norms);

        std::fprintf(out, "%-8s", app.c_str());
        for (const Norm &n : norms)
            std::fprintf(out, " | %-13.3f", n.speedup);
        std::fprintf(out, "   [paper: %.2f / %.2f]\n",
                     paperSpeedups[a].small, paperSpeedups[a].large);
    }

    for (const auto &[title, field] :
         {std::pair{"\nnetwork messages (normalized to Base)",
                    &Norm::messages},
          std::pair{"\nremote misses (normalized to Base)",
                    &Norm::remote}}) {
        header(title);
        for (std::size_t a = 0; a < all.size(); ++a) {
            std::fprintf(out, "%-8s", apps[a].c_str());
            for (const Norm &n : all[a])
                std::fprintf(out, " | %-13.3f", n.*field);
            std::fprintf(out, "\n");
        }
    }

    // Headline aggregates (Section 3.2's summary paragraph).
    std::vector<double> sp_small, sp_large, msg_small, msg_large,
        rm_small, rm_large;
    for (const auto &norms : all) {
        if (norms.size() < 4)
            continue;
        sp_small.push_back(norms[2].speedup);
        sp_large.push_back(norms[3].speedup);
        msg_small.push_back(norms[2].messages);
        msg_large.push_back(norms[3].messages);
        rm_small.push_back(norms[2].remote);
        rm_large.push_back(norms[3].remote);
    }
    std::fprintf(out, "\nsummary (paper in brackets):\n");
    std::fprintf(out,
                 "  small config: geomean speedup %.2f [1.13], traffic "
                 "%+.0f%% [-17%%], remote misses %+.0f%% [-29%%]\n",
                 geomean(sp_small), 100 * (mean(msg_small) - 1),
                 100 * (mean(rm_small) - 1));
    std::fprintf(out,
                 "  large config: geomean speedup %.2f [1.21], traffic "
                 "%+.0f%% [-15%%], remote misses %+.0f%% [-40%%]\n",
                 geomean(sp_large), 100 * (mean(msg_large) - 1),
                 100 * (mean(rm_large) - 1));
}

void
printFigure9(const JsonValue &doc, std::FILE *out)
{
    const auto &delays = figure9Delays();

    std::fprintf(out, "%-8s", "App");
    for (const auto &[label, d] : delays)
        std::fprintf(out, " | %-8s", label);
    std::fprintf(out, "\n---------");
    for (std::size_t i = 0; i < delays.size(); ++i)
        std::fprintf(out, "+----------");
    std::fprintf(out, "\n");

    for (const auto &app : suiteNames()) {
        std::vector<double> cycles;
        for (const auto &[label, d] : delays) {
            RunResult e;
            cycles.push_back(lookup(doc, app, label, e) ? double(e.cycles)
                                                        : 0.0);
        }
        std::fprintf(out, "%-8s", app.c_str());
        for (double c : cycles)
            std::fprintf(out, " | %-8.3f",
                         cycles[0] > 0 ? c / cycles[0] : 0.0);
        std::fprintf(out, "\n");
    }
    std::fprintf(out,
                 "\n(>1.0 = slower than the 5-cycle delay. The paper "
                 "reports 50 cycles works well for all benchmarks: "
                 "long enough for write bursts, short enough for "
                 "updates to arrive before the consumers' reads.)\n");
}

void
printFigure10(const JsonValue &doc, std::FILE *out)
{
    std::fprintf(out, "%-6s | %-14s | %-14s | %-8s\n", "hop",
                 "base cycles", "enhanced cycles", "speedup");
    std::fprintf(out,
                 "-------+----------------+----------------+---------\n");

    double prev_base = 0;
    for (const auto &[label, cycles] : figure10Hops()) {
        RunResult base, enh;
        const bool have =
            lookup(doc, "Appbt", std::string("base-") + label, base) &&
            lookup(doc, "Appbt", std::string("enh-") + label, enh);
        if (!have) {
            std::fprintf(out, "%-6s | (missing result)\n", label);
            continue;
        }
        std::fprintf(out, "%-6s | %-14.0f | %-14.0f | %-8.3f", label,
                     double(base.cycles), double(enh.cycles),
                     double(base.cycles) / double(enh.cycles));
        if (prev_base > 0)
            std::fprintf(out, "   (base grew %.2fx)",
                         double(base.cycles) / prev_base);
        prev_base = double(base.cycles);
        std::fprintf(out, "\n");
    }
    std::fprintf(out,
                 "\n(The mechanisms' value increases with remote "
                 "latency, as the paper observes.)\n");
}

void
printFigure8(const JsonValue &doc, std::FILE *out)
{
    std::fprintf(out, "%-8s | %-12s | %-22s | %-12s\n", "App",
                 "Base(1M L2)", "Inter(1M+32e+32K RAC)", "Equal(1.04M)");
    std::fprintf(out, "---------+--------------+------------------------"
                      "+--------------\n");

    std::vector<double> sp_inter, sp_equal;
    std::vector<std::pair<std::string, std::array<Tick, 3>>> cycles;
    for (const auto &app : suiteNames()) {
        RunResult b, i, e;
        if (!lookup(doc, app, "base", b) ||
            !lookup(doc, app, "inter", i) ||
            !lookup(doc, app, "equal", e)) {
            std::fprintf(out, "%-8s | (missing result)\n", app.c_str());
            continue;
        }
        const double si = double(b.cycles) / double(i.cycles);
        const double se = double(b.cycles) / double(e.cycles);
        sp_inter.push_back(si);
        sp_equal.push_back(se);
        cycles.push_back({app, {b.cycles, i.cycles, e.cycles}});
        std::fprintf(out, "%-8s | %-12.3f | %-22.3f | %-12.3f\n",
                     app.c_str(), 1.0, si, se);
    }
    std::fprintf(out, "\ngeomean: smarter %.3f vs larger %.3f\n",
                 geomean(sp_inter), geomean(sp_equal));
    std::fprintf(out, "(Paper: the extensions beat the 1.04 MB L2 for "
                      "every application except Appbt, whose small RAC "
                      "thrashes.)\n");

    // The exact cycle counts behind the ratios above.
    std::fprintf(out, "\nSimulated cycles:\n%-8s | %-12s | %-12s | %-12s\n",
                 "App", "Base", "Inter", "Equal");
    for (const auto &[app, c] : cycles)
        std::fprintf(out, "%-8s | %-12llu | %-12llu | %-12llu\n",
                     app.c_str(), (unsigned long long)c[0],
                     (unsigned long long)c[1], (unsigned long long)c[2]);
}

void
printFigure11(const JsonValue &doc, std::FILE *out)
{
    printSizeSweep(doc, "MG", false, out);
}

void
printFigure12(const JsonValue &doc, std::FILE *out)
{
    printSizeSweep(doc, "Appbt", true, out);
}

void
printTable3(const JsonValue &doc, std::FILE *out)
{
    std::fprintf(out, "%-8s | %28s | %28s\n", "App",
                 "paper (1 / 2 / 3 / 4 / 4+)",
                 "measured (1 / 2 / 3 / 4 / 4+)");
    std::fprintf(out, "---------+------------------------------+---------"
                      "---------------------\n");
    for (const ConsumerRow &p : paperConsumers) {
        RunResult r;
        if (!lookup(doc, p.app, "base", r)) {
            std::fprintf(out, "%-8s | (missing result)\n", p.app);
            continue;
        }
        const Histogram &h = r.consumerHist;
        double c4p = 0;
        for (std::size_t b = 5; b < h.numBuckets(); ++b)
            c4p += 100 * h.fraction(b);
        std::fprintf(out,
                     "%-8s | %4.1f %4.1f %4.1f %4.1f %5.1f | "
                     "%4.1f %4.1f %4.1f %4.1f %5.1f\n",
                     p.app, p.c1, p.c2, p.c3, p.c4, p.c4p,
                     100 * h.fraction(1), 100 * h.fraction(2),
                     100 * h.fraction(3), 100 * h.fraction(4), c4p);
    }
    std::fprintf(out, "\n(Each row: percentage of producer-consumer "
                      "writes whose invalidation hit that many "
                      "consumers.)\n");
}

void
printTable2(double bench_scale, unsigned num_nodes, std::FILE *out)
{
    std::fprintf(out, "%-8s | %-42s | %s\n", "App",
                 "Paper problem size", "Scaled (this repo)");
    std::fprintf(out,
                 "---------+-------------------------------------------"
                 "-+---------------------------\n");
    std::string volumes;
    for (const auto &name : suiteNames()) {
        auto w = runner::makeRunnerWorkload(name, num_nodes,
                                            bench_scale);
        std::fprintf(out, "%-8s | %-42s | %s\n", name.c_str(),
                     w->paperProblemSize().c_str(),
                     w->scaledProblemSize().c_str());
        auto *t = dynamic_cast<TraceWorkload *>(w.get());
        char line[64];
        std::snprintf(line, sizeof(line), "  %-8s %10zu operations\n",
                      name.c_str(), t ? t->totalOps() : 0);
        volumes += line;
    }
    std::fprintf(out,
                 "\nTrace volumes (parallel phase, all %u CPUs):\n%s",
                 num_nodes, volumes.c_str());
}

} // namespace figures
} // namespace pcsim
