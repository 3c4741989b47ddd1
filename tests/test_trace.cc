/** @file Trace subsystem tests: PCTR binary round-trips, malformed
 *  input rejection with precise errors, recorder transparency,
 *  record-then-replay byte-identical statistics, and the external
 *  text-trace ingester against committed golden files. */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/runner/results.hh"
#include "src/runner/trace_cmd.hh"
#include "src/system/presets.hh"
#include "src/system/system.hh"
#include "src/trace/format.hh"
#include "src/trace/recorder.hh"
#include "src/trace/replay.hh"
#include "src/trace/text_ingest.hh"
#include "src/workload/micro.hh"
#include "src/workload/serving.hh"

using namespace pcsim;

namespace
{

trace::TraceMeta
sampleMeta()
{
    trace::TraceMeta meta;
    meta.nodeCount = 3;
    meta.lineBytes = 128;
    meta.coarse = 2;
    meta.seed = 42;
    meta.scale = 0.5;
    meta.workload = "PCmicro";
    meta.config = "small";
    return meta;
}

std::vector<std::vector<MemOp>>
sampleStreams()
{
    std::vector<std::vector<MemOp>> per(3);
    per[0] = {MemOp::write(0x1000), MemOp::barrier(),
              MemOp::read(0x1080)};
    per[1] = {MemOp::barrier(), MemOp::think(7)};
    per[2] = {MemOp::barrier()};
    return per;
}

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::string out;
    char buf[4096];
    std::size_t n;
    while (f && (n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    if (f)
        std::fclose(f);
    return out;
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    std::fclose(f);
}

/** Expect decodeTrace to throw a TraceError whose message contains
 *  @p needle. */
void
expectDecodeError(const std::string &bytes, const std::string &needle)
{
    try {
        trace::decodeTrace(bytes, "<memory>");
        FAIL() << "decode accepted malformed input (wanted error "
                  "containing '"
               << needle << "')";
    } catch (const trace::TraceError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "error was: " << e.what();
    }
}

} // namespace

TEST(TraceFormat, RoundTripPreservesEverything)
{
    const trace::TraceMeta meta = sampleMeta();
    const auto streams = sampleStreams();
    const std::string bytes = trace::encodeTrace(meta, streams);
    const trace::TraceData back = trace::decodeTrace(bytes, "<memory>");

    EXPECT_EQ(back.meta.nodeCount, meta.nodeCount);
    EXPECT_EQ(back.meta.lineBytes, meta.lineBytes);
    EXPECT_EQ(back.meta.coarse, meta.coarse);
    EXPECT_EQ(back.meta.seed, meta.seed);
    EXPECT_EQ(back.meta.scale, meta.scale);
    EXPECT_EQ(back.meta.workload, meta.workload);
    EXPECT_EQ(back.meta.config, meta.config);
    EXPECT_EQ(back.meta.opCount, 6u);
    ASSERT_EQ(back.perNode.size(), streams.size());
    for (std::size_t n = 0; n < streams.size(); ++n) {
        ASSERT_EQ(back.perNode[n].size(), streams[n].size()) << n;
        for (std::size_t i = 0; i < streams[n].size(); ++i) {
            EXPECT_EQ(back.perNode[n][i].kind, streams[n][i].kind);
            EXPECT_EQ(back.perNode[n][i].addr, streams[n][i].addr);
            EXPECT_EQ(back.perNode[n][i].cycles, streams[n][i].cycles);
        }
    }
}

TEST(TraceFormat, EncodingIsDeterministic)
{
    const std::string a =
        trace::encodeTrace(sampleMeta(), sampleStreams());
    const std::string b =
        trace::encodeTrace(sampleMeta(), sampleStreams());
    EXPECT_EQ(a, b);
}

TEST(TraceFormat, RejectsBadMagic)
{
    std::string bytes = trace::encodeTrace(sampleMeta(), sampleStreams());
    bytes[0] = 'X';
    expectDecodeError(bytes, "bad magic");
}

TEST(TraceFormat, RejectsUnsupportedVersion)
{
    std::string bytes = trace::encodeTrace(sampleMeta(), sampleStreams());
    bytes[4] = 99; // u32 version little-endian low byte
    expectDecodeError(bytes, "version");
}

TEST(TraceFormat, RejectsTruncatedHeaderAndRecords)
{
    const std::string bytes =
        trace::encodeTrace(sampleMeta(), sampleStreams());
    // Mid-header cut.
    expectDecodeError(bytes.substr(0, 10), "truncated");
    // Mid-record cut: the byte count no longer matches the promised
    // record count.
    expectDecodeError(bytes.substr(0, bytes.size() - 5), "promises");
}

TEST(TraceFormat, RejectsOutOfRangeNodeAndBrokenSeq)
{
    const trace::TraceMeta meta = sampleMeta();
    const auto streams = sampleStreams();
    const std::string good = trace::encodeTrace(meta, streams);
    const std::size_t firstRecord =
        good.size() - 6 * trace::traceRecordBytes;

    // Node id beyond nodeCount (record u16 at offset 0).
    std::string bad = good;
    bad[firstRecord] = 17;
    expectDecodeError(bad, "node");

    // Per-node seq gap (record u32 seq at offset 4).
    bad = good;
    bad[firstRecord + 4] = 5;
    expectDecodeError(bad, "seq");

    // Nonzero reserved byte.
    bad = good;
    bad[firstRecord + 3] = 1;
    expectDecodeError(bad, "reserved");
}

TEST(TraceFormat, RejectsNonPowerOfTwoCoarse)
{
    trace::TraceMeta meta = sampleMeta();
    meta.coarse = 3;
    expectDecodeError(trace::encodeTrace(meta, sampleStreams()),
                      "coarse 3 is not a power of two");
}

TEST(TraceFormat, FileRoundTripAndHeaderOnlyRead)
{
    const std::string path =
        testing::TempDir() + "pcsim_trace_roundtrip.pctr";
    trace::writeTraceFile(path, sampleMeta(), sampleStreams());
    const trace::TraceData back = trace::readTraceFile(path);
    EXPECT_EQ(back.meta.opCount, 6u);

    const trace::TraceMeta meta = trace::readTraceMeta(path);
    EXPECT_EQ(meta.workload, "PCmicro");
    EXPECT_EQ(meta.opCount, 6u);
    std::remove(path.c_str());
}

TEST(TraceRecorder, CaptureMatchesGeneratorStreams)
{
    ProducerConsumerMicro source(16);
    ProducerConsumerMicro reference(16);
    trace::TraceRecorder recorder(16);
    trace::RecordingWorkload recording(source, recorder);

    RunResult plain =
        runWorkload(presets::small(16), reference, "small");
    RunResult recorded =
        runWorkload(presets::small(16), recording, "small");

    // Transparency: recorded run's stats are byte-identical.
    EXPECT_EQ(runner::toJson(plain).dump(),
              runner::toJson(recorded).dump());

    // Completeness: the capture is exactly the generator's streams.
    reference.reset();
    for (unsigned cpu = 0; cpu < 16; ++cpu) {
        const auto &got = recorder.perNode()[cpu];
        std::size_t i = 0;
        MemOp op;
        while (reference.next(cpu, op)) {
            ASSERT_LT(i, got.size()) << "cpu " << cpu;
            EXPECT_EQ(got[i].kind, op.kind);
            EXPECT_EQ(got[i].addr, op.addr);
            EXPECT_EQ(got[i].cycles, op.cycles);
            ++i;
        }
        EXPECT_EQ(i, got.size()) << "cpu " << cpu;
    }
}

TEST(TraceReplay, ReproducesRecordedStatsByteForByte)
{
    // Record a KVServe run (Zipf + per-node RNG: a stream the replay
    // could never regenerate by accident).
    KvServingWorkload source(16);
    trace::TraceRecorder recorder(16);
    trace::RecordingWorkload recording(source, recorder);
    RunResult recorded =
        runWorkload(presets::small(16), recording, "small");

    trace::TraceMeta meta;
    meta.nodeCount = 16;
    meta.seed = 1;
    meta.workload = "KVServe";
    meta.config = "small";
    const std::string path =
        testing::TempDir() + "pcsim_trace_replay.pctr";
    recorder.writeFile(path, meta);

    auto replay = trace::loadReplayWorkload(path);
    EXPECT_EQ(replay->name(), "KVServe");
    RunResult replayed = runWorkload(presets::small(16), *replay, "small");
    EXPECT_EQ(runner::toJson(recorded).dump(),
              runner::toJson(replayed).dump());

    // A second replay from the same workload object (reset path).
    RunResult again = runWorkload(presets::small(16), *replay, "small");
    EXPECT_EQ(runner::toJson(recorded).dump(),
              runner::toJson(again).dump());
    std::remove(path.c_str());
}

TEST(TraceReplay, InvalidHeaderMachineIsAUsageError)
{
    // A header that decodes but names a machine the protocol rejects
    // must fail the replay with exit status 1 before any job runs.
    struct Case
    {
        const char *field;
        std::size_t offset; ///< u32 offset in the header
        std::uint32_t value;
        const char *error;
    };
    const Case cases[] = {
        {"lineBytes", 12, 100, "lineBytes 100 must be a power of two"},
        {"nodeCount", 8, 5000,
         "numNodes 5000 exceeds the supported maximum 4096"},
    };
    const std::string good =
        trace::encodeTrace(sampleMeta(), sampleStreams());
    for (const Case &c : cases) {
        std::string bad = good;
        for (unsigned i = 0; i < 4; ++i)
            bad[c.offset + i] = static_cast<char>(c.value >> (8 * i));
        const std::string path = testing::TempDir() +
                                 "pcsim_trace_bad_" + c.field + ".pctr";
        writeFile(path, bad);

        runner::TraceReplayOptions opt;
        opt.tracePath = path;
        opt.out.threads = 1;
        opt.out.progress = false;
        opt.out.table = false;
        testing::internal::CaptureStderr();
        EXPECT_EQ(runner::runTraceReplay(opt), 1) << c.field;
        const std::string err = testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find("pcsim trace replay: " + path + ": "),
                  std::string::npos)
            << err;
        EXPECT_NE(err.find(c.error), std::string::npos) << err;
        std::remove(path.c_str());
    }
}

TEST(TextIngest, ParsesLabelsAndSkipsCommentsBlanks)
{
    const std::string text = "# per-core trace\n"
                             "0 0x1000\n"
                             "\n"
                             "1 20AB\n"
                             "2 64\n";
    const auto ops = trace::parseTextTrace(text, "<memory>");
    ASSERT_EQ(ops.size(), 3u);
    EXPECT_EQ(ops[0].kind, MemOp::Kind::Read);
    EXPECT_EQ(ops[0].addr, 0x1000u);
    EXPECT_EQ(ops[1].kind, MemOp::Kind::Write);
    EXPECT_EQ(ops[1].addr, 0x20ABu);
    EXPECT_EQ(ops[2].kind, MemOp::Kind::Think);
    EXPECT_EQ(ops[2].cycles, 0x64u);
}

TEST(TextIngest, ErrorsNameFileAndLine)
{
    const auto expectError = [](const std::string &text,
                                const std::string &needle) {
        try {
            trace::parseTextTrace(text, "core0.data");
            FAIL() << "accepted '" << text << "'";
        } catch (const trace::TraceError &e) {
            EXPECT_NE(std::string(e.what()).find(needle),
                      std::string::npos)
                << "error was: " << e.what();
        }
    };
    expectError("0 1000\n3 2000\n", "core0.data:2: unknown label '3'");
    expectError("0\n", "core0.data:1: expected '<label> <value>'");
    expectError("0 xyz\n", "core0.data:1: bad hex value");
    expectError("2 1ffffffff\n", "exceed 32 bits");
    expectError("1 10000000000000000\n", "overflows 64 bits");
}

TEST(TextIngest, GoldenFilesIngestAndRun)
{
    const std::string dir =
        std::string(PCSIM_SOURCE_DIR) + "/tests/golden/";
    // A 16-node machine: two real per-core files, the rest empty
    // streams via /dev/null-equivalent is not portable, so the
    // committed pair drives a 2-node ingest instead.
    const trace::TraceData data = trace::ingestTextTraces(
        {dir + "ingest_core0.data", dir + "ingest_core1.data"},
        "ingest", 128);
    EXPECT_EQ(data.meta.nodeCount, 2u);
    EXPECT_EQ(data.meta.workload, "ingest");
    ASSERT_EQ(data.perNode.size(), 2u);
    // Every stream leads with the init-ending barrier.
    for (const auto &stream : data.perNode) {
        ASSERT_FALSE(stream.empty());
        EXPECT_EQ(stream[0].kind, MemOp::Kind::Barrier);
    }

    // The ingested trace drives a full simulation.
    trace::TraceReplayWorkload wl{trace::TraceData(data)};
    MachineConfig cfg = presets::base(2);
    cfg.proto.checkerEnabled = true;
    RunResult r = runWorkload(cfg, wl, "base");
    EXPECT_GT(r.nodes.reads + r.nodes.writes, 0u);
}

TEST(TraceGolden, CommittedBinaryTraceDecodesAndReencodesIdentically)
{
    const std::string path = std::string(PCSIM_SOURCE_DIR) +
                             "/tests/golden/pcmicro_small.pctr";
    const std::string bytes = readFile(path);
    ASSERT_FALSE(bytes.empty()) << path;
    const trace::TraceData data = trace::decodeTrace(bytes, path);
    EXPECT_EQ(data.meta.workload, "PCmicro");
    EXPECT_EQ(data.meta.config, "small");
    EXPECT_EQ(data.meta.nodeCount, 16u);

    // Writer stability: re-encoding the decoded trace reproduces the
    // committed bytes exactly.
    EXPECT_EQ(trace::encodeTrace(data.meta, data.perNode), bytes);

    // Freshly recording the same run reproduces the file too: the
    // committed trace pins generator + recorder + writer behavior.
    ProducerConsumerMicro source(16, ProducerConsumerMicro::Params{});
    trace::TraceRecorder recorder(16);
    trace::RecordingWorkload recording(source, recorder);
    runWorkload(presets::small(16), recording, "small");
    EXPECT_EQ(trace::encodeTrace(data.meta, recorder.perNode()), bytes);
}

TEST(TraceGolden, TruncatedFileIsRejectedWithPath)
{
    const std::string src = std::string(PCSIM_SOURCE_DIR) +
                            "/tests/golden/pcmicro_small.pctr";
    const std::string bytes = readFile(src);
    ASSERT_FALSE(bytes.empty());
    const std::string path =
        testing::TempDir() + "pcsim_truncated.pctr";
    writeFile(path, bytes.substr(0, bytes.size() / 2));
    try {
        trace::readTraceFile(path);
        FAIL() << "accepted truncated file";
    } catch (const trace::TraceError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(path), std::string::npos) << msg;
        EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
    }
    std::remove(path.c_str());
}
