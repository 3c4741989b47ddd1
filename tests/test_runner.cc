/**
 * @file
 * Experiment runner: pool determinism, result ordering, failure
 * isolation and the workload/config registries.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/runner/figures.hh"
#include "src/runner/job.hh"
#include "src/runner/results.hh"
#include "src/runner/runner.hh"
#include "src/workload/micro.hh"

using namespace pcsim;
using namespace pcsim::runner;

namespace
{

/** A small 4-node job mix: two micro patterns x two configurations. */
JobSet
smallJobSet()
{
    JobSet set;
    for (const char *workload : {"PCmicro", "Random"}) {
        for (const char *config : {"base", "small"}) {
            Job j;
            j.workload = workload;
            std::string canonical;
            EXPECT_TRUE(namedMachineConfig(config, 4, j.cfg,
                                           canonical));
            j.configName = canonical;
            j.cfg.proto.checkerEnabled = false;
            j.seed = 7;
            set.add(std::move(j));
        }
    }
    EXPECT_EQ(set.size(), 4u);
    return set;
}

RunnerOptions
quiet(unsigned threads)
{
    RunnerOptions o;
    o.threads = threads;
    o.progress = false;
    return o;
}

} // namespace

TEST(Runner, PoolMatchesSerialByteForByte)
{
    const JobSet set = smallJobSet();

    const auto serial = runJobs(set, quiet(1));
    const auto pooled = runJobs(set, quiet(4));

    ASSERT_EQ(serial.size(), 4u);
    ASSERT_EQ(pooled.size(), 4u);
    for (const auto &r : serial)
        EXPECT_TRUE(r.ok) << r.error;
    for (const auto &r : pooled)
        EXPECT_TRUE(r.ok) << r.error;

    // The serialized documents -- the unit the determinism check and
    // downstream consumers operate on -- must be byte-identical.
    // Serialize without host timing: wall-clock rates legitimately
    // differ between runs (schemaVersion 2 perf telemetry).
    EXPECT_EQ(resultsToJson(serial, /*with_timing=*/false).dump(2),
              resultsToJson(pooled, /*with_timing=*/false).dump(2));
    EXPECT_EQ(resultsToCsv(serial, /*with_timing=*/false),
              resultsToCsv(pooled, /*with_timing=*/false));
}

TEST(Runner, ResultsComeBackInJobOrder)
{
    const JobSet set = smallJobSet();
    const auto results = runJobs(set, quiet(4));
    ASSERT_EQ(results.size(), set.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].job.label, set.jobs()[i].label);
        EXPECT_EQ(results[i].result.workload,
                  i < 2 ? "PCmicro" : "Random");
    }
}

TEST(Runner, SeedChangesRandomWorkloadOutcome)
{
    JobSet a, b;
    Job j;
    j.workload = "Random";
    j.cfg = presets::base(4);
    j.cfg.proto.checkerEnabled = false;
    j.configName = "base";
    j.seed = 1;
    a.add(j);
    j.seed = 2;
    b.add(j);

    const auto ra = runJobs(a, quiet(1));
    const auto rb = runJobs(b, quiet(1));
    ASSERT_TRUE(ra[0].ok && rb[0].ok);
    // Different machine seeds give different NACK/backoff jitter, so
    // the cycle counts should differ; identical seeds must not.
    const auto ra2 = runJobs(a, quiet(1));
    EXPECT_EQ(ra[0].result.cycles, ra2[0].result.cycles);
    EXPECT_NE(ra[0].result.cycles, rb[0].result.cycles);
}

TEST(Runner, ThrowingJobIsReportedFailedWithoutStallingPool)
{
    JobSet set = smallJobSet();

    Job bad;
    bad.workload = "PCmicro";
    bad.cfg = presets::base(4);
    bad.configName = "base";
    bad.label = "boom";
    bad.factory = []() -> std::unique_ptr<Workload> {
        throw std::runtime_error("synthetic workload failure");
    };
    // Insert in the middle so the pool has work before and after.
    set.jobs().insert(set.jobs().begin() + 2, bad);

    const auto results = runJobs(set, quiet(4));
    ASSERT_EQ(results.size(), 5u);
    EXPECT_FALSE(results[2].ok);
    EXPECT_EQ(results[2].error, "synthetic workload failure");
    EXPECT_EQ(results[2].job.label, "boom");
    for (std::size_t i : {0u, 1u, 3u, 4u})
        EXPECT_TRUE(results[i].ok) << i << ": " << results[i].error;

    // Failed jobs serialize as ok=false with zeroed statistics.
    const JsonValue doc = resultsToJson(results);
    const JsonValue &entry = doc.at("results").at(2);
    EXPECT_FALSE(entry.at("ok").asBool());
    EXPECT_EQ(entry.at("error").asString(),
              "synthetic workload failure");
    EXPECT_EQ(entry.at("cycles").asUInt(), 0u);
}

TEST(Runner, UnknownWorkloadFailsTheJobNotTheProcess)
{
    JobSet set;
    Job j;
    j.workload = "no-such-benchmark";
    j.cfg = presets::base(4);
    set.add(std::move(j));

    const auto results = runJobs(set, quiet(2));
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_NE(results[0].error.find("no-such-benchmark"),
              std::string::npos);
}

TEST(Runner, WorkloadRegistryCanonicalizes)
{
    EXPECT_EQ(canonicalWorkload("em3d"), "Em3D");
    EXPECT_EQ(canonicalWorkload("EM3D"), "Em3D");
    EXPECT_EQ(canonicalWorkload("micro"), "PCmicro");
    EXPECT_EQ(canonicalWorkload("lu"), "LU");
    EXPECT_EQ(canonicalWorkload("bogus"), "");
    EXPECT_THROW(makeRunnerWorkload("bogus", 4),
                 std::invalid_argument);

    auto wl = makeRunnerWorkload("random", 4, 0.25);
    ASSERT_NE(wl, nullptr);
    EXPECT_EQ(wl->numCpus(), 4u);
}

TEST(Runner, ConfigRegistryLooksUpPresetsAndAliases)
{
    MachineConfig cfg;
    std::string canonical;

    ASSERT_TRUE(namedMachineConfig("pcopt", 16, cfg, canonical));
    EXPECT_EQ(canonical, "small");
    EXPECT_TRUE(delegates(cfg.proto.kind));
    EXPECT_TRUE(pushesUpdates(cfg.proto.kind));
    EXPECT_TRUE(cfg.proto.racEnabled);

    ASSERT_TRUE(namedMachineConfig("BASE", 8, cfg, canonical));
    EXPECT_EQ(canonical, "base");
    EXPECT_EQ(cfg.proto.numNodes, 8u);
    EXPECT_FALSE(cfg.proto.racEnabled);

    ASSERT_TRUE(namedMachineConfig("delegation", 16, cfg, canonical));
    EXPECT_TRUE(delegates(cfg.proto.kind));
    EXPECT_FALSE(pushesUpdates(cfg.proto.kind));

    EXPECT_FALSE(namedMachineConfig("warp-drive", 16, cfg, canonical));
}

TEST(Runner, SweepBuildsCartesianProductInOrder)
{
    JobSet set;
    set.sweep({"Em3D", "LU"}, presets::figure7Configs(16), 0.5,
              {1, 2});
    ASSERT_EQ(set.size(), 2u * 6u * 2u);
    // workload-major, then config, then seed.
    EXPECT_EQ(set.jobs()[0].workload, "Em3D");
    EXPECT_EQ(set.jobs()[0].seed, 1u);
    EXPECT_EQ(set.jobs()[1].seed, 2u);
    EXPECT_EQ(set.jobs()[2].configName, "32K RAC");
    EXPECT_EQ(set.jobs()[12].workload, "LU");
    for (const auto &j : set.jobs())
        EXPECT_DOUBLE_EQ(j.scale, 0.5);
}

TEST(Runner, FindResultLocatesEntries)
{
    const auto results = runJobs(smallJobSet(), quiet(2));
    const JsonValue doc = resultsToJson(results);
    const JsonValue *e = findResult(doc, "PCmicro", "small");
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->at("ok").asBool());
    EXPECT_EQ(findResult(doc, "PCmicro", "no-such-config"), nullptr);

    // Round-trip one entry back into a RunResult.
    const RunResult r = runResultFromJson(*e);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_EQ(r.workload, "PCmicro");
}
