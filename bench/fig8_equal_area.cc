/** @file Figure 8 reproduction: equal silicon area comparison.
 *
 *  Is the ~40 KB of SRAM for a 32-entry delegate cache + 32 KB RAC
 *  better spent on a larger L2? Three systems, per the paper:
 *   - Base:  1 MB L2, no extensions,
 *   - Inter: 1 MB L2 + 32-entry delegate cache + 32 KB RAC,
 *   - Equal: 1.04 MB L2 (same silicon area), no extensions.
 */

#include <array>

#include "bench/common.hh"

using namespace pcsim;
using namespace pcsim::bench;

int
main()
{
    header("Figure 8: equal storage area comparison",
           "smarter (delegation+updates) vs larger (1.04 MB L2) "
           "caches");

    MachineConfig base = presets::base(16);
    base.proto.l2SizeBytes = 1024 * 1024;

    MachineConfig inter = presets::small(16);
    inter.proto.l2SizeBytes = 1024 * 1024;

    // 1.04 MB with 4 ways and 128 B lines: 2129 sets (non-power-of-2,
    // supported by the cache array exactly for this experiment).
    MachineConfig equal = presets::base(16);
    equal.proto.l2SizeBytes = 1024 * 1024;
    equal.proto.l2SetsOverride =
        (1024 * 1024 + 40 * 1024) / (4 * 128);

    std::printf("%-8s | %-12s | %-22s | %-12s\n", "App",
                "Base(1M L2)", "Inter(1M+32e+32K RAC)",
                "Equal(1.04M)");
    std::printf("---------+--------------+------------------------+---"
                "-----------\n");

    std::vector<double> sp_inter, sp_equal;
    std::vector<std::array<Tick, 3>> cycles;
    const auto apps = suiteNames();
    for (const auto &app : apps) {
        auto wl = makeWorkload(app, 16, benchScale());
        RunResult b = run(base, *wl, "base");
        RunResult i = run(inter, *wl, "inter");
        RunResult e = run(equal, *wl, "equal");
        const double si = double(b.cycles) / i.cycles;
        const double se = double(b.cycles) / e.cycles;
        sp_inter.push_back(si);
        sp_equal.push_back(se);
        cycles.push_back({b.cycles, i.cycles, e.cycles});
        std::printf("%-8s | %-12.3f | %-22.3f | %-12.3f\n", app.c_str(),
                    1.0, si, se);
    }
    std::printf("\ngeomean: smarter %.3f vs larger %.3f\n",
                geomean(sp_inter), geomean(sp_equal));
    std::printf("(Paper: the extensions beat the 1.04 MB L2 for every "
                "application except Appbt, whose small RAC thrashes.)\n");

    // The exact cycle counts behind the ratios above.
    std::printf("\nSimulated cycles:\n%-8s | %-12s | %-12s | %-12s\n",
                "App", "Base", "Inter", "Equal");
    for (std::size_t k = 0; k < cycles.size(); ++k) {
        std::printf("%-8s | %-12llu | %-12llu | %-12llu\n",
                    apps[k].c_str(),
                    static_cast<unsigned long long>(cycles[k][0]),
                    static_cast<unsigned long long>(cycles[k][1]),
                    static_cast<unsigned long long>(cycles[k][2]));
    }
    return 0;
}
