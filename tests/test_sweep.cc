/**
 * @file
 * The shared sweep path: preset grids, the determinism check's
 * mismatch branch, exit codes and the column-spec table printer.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>

#include "src/runner/sweep.hh"
#include "src/system/presets.hh"
#include "src/workload/micro.hh"

using namespace pcsim;
using namespace pcsim::runner;

namespace
{

JobSet
grid(const char *preset, const SweepAxes &axes = {})
{
    JobSet set;
    std::string err;
    const SweepPreset *p = findPreset(preset);
    EXPECT_NE(p, nullptr) << preset;
    if (p) {
        EXPECT_TRUE(buildGrid(*p, axes, set, err))
            << preset << ": " << err;
    }
    return set;
}

std::vector<std::string>
labels(const JobSet &set)
{
    std::vector<std::string> out;
    for (const Job &j : set.jobs())
        out.push_back(j.label);
    return out;
}

/** One 4-node PCmicro job built by @p factory. */
JobSet
factoryJob(WorkloadFactory factory)
{
    Job j;
    j.workload = "PCmicro";
    j.cfg = presets::base(4);
    j.configName = "base";
    j.factory = std::move(factory);
    JobSet set;
    set.add(std::move(j));
    return set;
}

SweepOptions
quietCheck()
{
    SweepOptions opt;
    opt.threads = 1;
    opt.progress = false;
    opt.table = false;
    opt.deterministicCheck = true;
    return opt;
}

} // namespace

TEST(Sweep, DeterministicCheckPassesOnStableJobs)
{
    const JobSet set = factoryJob([] {
        ProducerConsumerMicro::Params p;
        p.iterations = 4;
        return std::make_unique<ProducerConsumerMicro>(4, p);
    });
    EXPECT_EQ(runSweep(set, quietCheck()), 0);
}

TEST(Sweep, DeterministicCheckMismatchExitsThree)
{
    // Every call builds a longer run, so the two passes differ.
    auto calls = std::make_shared<std::atomic<unsigned>>(0);
    const JobSet set = factoryJob([calls] {
        ProducerConsumerMicro::Params p;
        p.iterations = 4 + (*calls)++;
        return std::make_unique<ProducerConsumerMicro>(4, p);
    });
    EXPECT_EQ(runSweep(set, quietCheck()), 3);
    EXPECT_EQ(calls->load(), 2u);
}

TEST(Sweep, FailedJobExitsTwo)
{
    const JobSet set =
        factoryJob([]() -> std::unique_ptr<Workload> { return nullptr; });
    SweepOptions opt = quietCheck();
    opt.deterministicCheck = false;
    EXPECT_EQ(runSweep(set, opt), 2);
}

TEST(Sweep, ColumnTablePrintsRatiosAndFailures)
{
    JobResult base, opt, failed;
    base.ok = opt.ok = true;
    base.job.workload = opt.job.workload = failed.job.workload = "W";
    base.job.configName = "base";
    base.job.label = "W/base";
    base.result.cycles = 300;
    opt.job.configName = "opt";
    opt.job.label = "W/opt";
    opt.result.cycles = 200;
    failed.job.label = "W/bad";
    failed.error = "boom";
    const ColumnTable table{
        "job",
        6,
        {{"cycles", 5, [](const RunResult &r) { return r.cycles; }},
         {"vs base", -7, nullptr}},
        "base",
    };

    char buf[512] = {};
    std::FILE *out = fmemopen(buf, sizeof(buf), "w");
    ASSERT_NE(out, nullptr);
    printColumnTable(table, {base, opt, failed}, out);
    std::fclose(out);
    EXPECT_STREQ(buf, "job    | cycles | vs base\n"
                      "W/base |   300 | 1.000  \n"
                      "W/opt  |   200 | 1.500  \n"
                      "W/bad  | FAILED: boom\n");
}

TEST(SweepPresets, RunCrossesWorkloadsConfigsAndSeeds)
{
    SweepAxes axes;
    axes.workloads = {"em3d", "micro"};
    axes.configs = {"base", "pcopt"};
    axes.seeds = {1, 2};
    axes.nodes = {8};
    axes.coarse = 2;
    const JobSet set = grid("run", axes);
    ASSERT_EQ(set.size(), 8u);
    EXPECT_EQ(set.jobs()[0].label, "Em3D/base");
    EXPECT_EQ(set.jobs()[1].seed, 2u);
    EXPECT_EQ(set.jobs()[2].configName, "small");
    EXPECT_EQ(set.jobs()[7].label, "PCmicro/small");
    EXPECT_EQ(set.jobs()[0].cfg.proto.sharerGranularityLog2, 1u);
    EXPECT_EQ(set.jobs()[0].cfg.proto.numNodes, 8u);

    const SweepPreset &run = *findPreset("run");
    EXPECT_EQ(run.defaultThreads, 1u);
    JobSet out;
    std::string err;
    EXPECT_FALSE(buildGrid(run, {}, out, err));
    EXPECT_NE(err.find("--workload is required"), std::string::npos);
    axes.configs = {"warp-drive"};
    EXPECT_FALSE(buildGrid(run, axes, out, err));
    EXPECT_EQ(err, "unknown config 'warp-drive'");
}

TEST(SweepPresets, RunIsolatesABadAppbtGrid)
{
    // 32 CPUs is not a valid Appbt processor grid: that job fails by
    // name and the Em3D job still runs.
    SweepAxes axes;
    axes.workloads = {"appbt", "em3d"};
    axes.nodes = {32};
    axes.scale = 0.1;
    const JobSet set = grid("run", axes);
    ASSERT_EQ(set.size(), 2u);
    SweepOptions opt = quietCheck();
    opt.deterministicCheck = false;
    EXPECT_EQ(runSweep(set, opt), 2);

    RunnerOptions ropts;
    ropts.threads = 1;
    ropts.progress = false;
    const std::vector<JobResult> results = runJobs(set, ropts);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].job.label, "Appbt/base");
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].error,
              "Appbt processor grid does not match CPU count");
    EXPECT_EQ(results[1].job.label, "Em3D/base");
    EXPECT_TRUE(results[1].ok) << results[1].error;
}

TEST(SweepPresets, ScaleSweepsOneWorkloadOverNodeCounts)
{
    const JobSet set = grid("scale");
    // Seven machine sizes x {base, delegation, delegate-update}.
    ASSERT_EQ(set.size(), 21u);
    EXPECT_EQ(labels(set)[0], "Em3D/n16/base");
    EXPECT_EQ(labels(set)[2], "Em3D/n16/delegate-update");
    EXPECT_EQ(labels(set)[20], "Em3D/n1024/delegate-update");
    for (const Job &j : set.jobs()) {
        EXPECT_DOUBLE_EQ(j.scale, 0.25);
        EXPECT_FALSE(j.cfg.proto.checkerEnabled);
    }
    const SweepPreset &scale = *findPreset("scale");
    EXPECT_EQ(scale.defaultThreads, 0u);

    SweepAxes axes;
    axes.workloads = {"mg"};
    axes.nodes = {16, 64};
    axes.scale = 0.5;
    const JobSet mg = grid("scale", axes);
    ASSERT_EQ(mg.size(), 6u);
    EXPECT_EQ(labels(mg)[5], "MG/n64/delegate-update");
    EXPECT_DOUBLE_EQ(mg.jobs()[0].scale, 0.5);

    JobSet out;
    std::string err;
    axes.workloads = {"em3d", "mg"};
    EXPECT_FALSE(buildGrid(scale, axes, out, err));
    EXPECT_EQ(err, "one workload only");
    axes.workloads = {"warp-drive"};
    EXPECT_FALSE(buildGrid(scale, axes, out, err));
    EXPECT_NE(err.find("unknown workload 'warp-drive'"), std::string::npos);
}

TEST(SweepPresets, QosRunsContentionScenariosInRegistryOrder)
{
    const JobSet set = grid("qos");
    // {hotspot, storm} x three arbitration modes x three mechanisms.
    ASSERT_EQ(set.size(), 18u);
    EXPECT_EQ(set.jobs()[0].label, "hotspot/base");
    EXPECT_EQ(set.jobs()[3].label, "hotspot/queue/base");
    EXPECT_EQ(set.jobs()[17].label, "storm/aged-priority/delegate-update");
    for (const Job &j : set.jobs()) {
        EXPECT_TRUE(j.cfg.proto.checkerEnabled);
        EXPECT_TRUE(j.cfg.proto.conformanceEnabled);
    }

    SweepAxes axes;
    axes.arbitrations = {"fifo"};
    JobSet out;
    std::string err;
    EXPECT_FALSE(buildGrid(*findPreset("qos"), axes, out, err));
    EXPECT_NE(err.find("unknown arbitration 'fifo'"), std::string::npos);
}

TEST(SweepPresets, ShardsApplyToEveryJob)
{
    SweepAxes axes;
    axes.shards = 4;
    const JobSet set = grid("fig10", axes);
    for (const Job &j : set.jobs())
        EXPECT_EQ(j.cfg.shards, 4u);
}

TEST(SweepPresets, Figure7MatchesPaperGrid)
{
    const JobSet set = grid("fig7");
    ASSERT_EQ(set.size(), 42u);
    EXPECT_EQ(set.jobs()[0].label, "Barnes/Base");
}

TEST(SweepPresets, Figure8ComparesEqualAreaSystems)
{
    const JobSet set = grid("fig8");
    // Seven applications x {base, inter, equal}.
    ASSERT_EQ(set.size(), 21u);
    EXPECT_EQ(labels(set)[0], "Barnes/base");
    EXPECT_EQ(labels(set)[1], "Barnes/inter");
    EXPECT_EQ(labels(set)[2], "Barnes/equal");
    EXPECT_EQ(labels(set)[20], "Appbt/equal");
    EXPECT_EQ(set.jobs()[2].cfg.proto.l2SetsOverride, 2128u);
    EXPECT_EQ(set.jobs()[1].cfg.proto.kind,
              ProtocolKind::DelegationUpdates);
    for (const Job &j : set.jobs()) {
        EXPECT_EQ(j.cfg.proto.l2SizeBytes, 1024u * 1024);
        EXPECT_FALSE(j.cfg.proto.checkerEnabled);
        EXPECT_EQ(j.scale, 1.0);
    }
}

TEST(SweepPresets, Figure11SweepsDelegateCacheOnMg)
{
    SweepAxes axes;
    axes.scale = 0.2;
    const JobSet set = grid("fig11", axes);
    ASSERT_EQ(set.size(), 8u);
    EXPECT_EQ(labels(set)[0], "MG/base");
    EXPECT_EQ(labels(set)[1], "MG/32-entry deledc & 32K RAC");
    EXPECT_EQ(labels(set)[7], "MG/1K-entry deledc & 1M RAC");
    EXPECT_EQ(set.jobs()[6].cfg.proto.delegate.producerEntries, 1024u);
    EXPECT_EQ(set.jobs()[6].cfg.proto.rac.sizeBytes, 32u * 1024);
    for (const Job &j : set.jobs())
        EXPECT_DOUBLE_EQ(j.scale, 0.2 * 0.75);
}

TEST(SweepPresets, Figure12SweepsRacOnAppbt)
{
    const JobSet set = grid("fig12");
    ASSERT_EQ(set.size(), 8u);
    EXPECT_EQ(labels(set)[0], "Appbt/base");
    EXPECT_EQ(labels(set)[6], "Appbt/32-entry deledc & 1024K RAC");
    EXPECT_EQ(labels(set)[7], "Appbt/1K-entry deledc & 1M RAC");
    EXPECT_EQ(set.jobs()[2].cfg.proto.rac.sizeBytes, 64u * 1024);
    EXPECT_EQ(set.jobs()[2].cfg.proto.delegate.producerEntries, 32u);
    EXPECT_DOUBLE_EQ(set.jobs()[0].scale, 0.75);
}

TEST(SweepPresets, Table3RunsTheSuiteOnBase)
{
    const JobSet set = grid("table3");
    ASSERT_EQ(set.size(), 7u);
    EXPECT_EQ(labels(set)[0], "Barnes/base");
    EXPECT_EQ(labels(set)[6], "Appbt/base");
    for (const Job &j : set.jobs())
        EXPECT_EQ(j.cfg.proto.kind, ProtocolKind::MesiDir);

    // Table 2 needs no simulation: it has no grid.
    const SweepPreset &t2 = *findPreset("table2");
    EXPECT_EQ(t2.build, nullptr);
    EXPECT_NE(t2.printStatic, nullptr);
    EXPECT_EQ(findPreset("fig5"), nullptr);
}
