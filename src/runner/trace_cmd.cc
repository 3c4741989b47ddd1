#include "src/runner/trace_cmd.hh"

#include <cstdio>
#include <memory>
#include <utility>

#include "src/trace/recorder.hh"
#include "src/trace/replay.hh"
#include "src/trace/text_ingest.hh"

namespace pcsim
{
namespace runner
{

namespace
{

/** RecordingWorkload that owns its inner workload (the runner factory
 *  returns a single self-contained Workload). */
class OwningRecordingWorkload : public trace::RecordingWorkload
{
  public:
    OwningRecordingWorkload(std::unique_ptr<Workload> inner,
                            trace::TraceRecorder &recorder)
        : trace::RecordingWorkload(*inner, recorder),
          _owned(std::move(inner))
    {
    }

  private:
    std::unique_ptr<Workload> _owned;
};

int
ingestToFile(const TraceRecordOptions &opt)
{
    try {
        trace::TraceData data = trace::ingestTextTraces(
            opt.textPaths, "ingest", opt.lineBytes);
        data.meta.scale = opt.scale;
        trace::writeTraceFile(opt.outPath, data.meta, data.perNode);
        if (!opt.quiet)
            std::fprintf(stderr,
                         "ingested %zu text trace(s): %llu ops -> %s\n",
                         opt.textPaths.size(),
                         (unsigned long long)data.meta.opCount,
                         opt.outPath.c_str());
    } catch (const trace::TraceError &e) {
        std::fprintf(stderr, "pcsim trace record: %s\n", e.what());
        return 2;
    }
    return 0;
}

} // namespace

int
runTraceRecord(const TraceRecordOptions &opt)
{
    if (opt.outPath.empty()) {
        std::fprintf(stderr,
                     "pcsim trace record: missing --output <file>\n");
        return 1;
    }
    if (!opt.textPaths.empty())
        return ingestToFile(opt);

    const std::string workload = canonicalWorkload(opt.workload);
    if (workload.empty()) {
        std::fprintf(stderr,
                     "pcsim trace record: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 1;
    }
    Job j;
    std::string configName;
    if (!namedMachineConfig(opt.config, opt.nodes, j.cfg, configName)) {
        std::fprintf(stderr,
                     "pcsim trace record: unknown config '%s'\n",
                     opt.config.c_str());
        return 1;
    }
    j.workload = workload;
    j.configName = configName;
    j.seed = opt.seed;
    j.scale = opt.scale;

    trace::TraceRecorder recorder(opt.nodes);
    const unsigned nodes = opt.nodes;
    const double scale = opt.scale;
    j.factory = [&recorder, workload, nodes, scale]() {
        return std::make_unique<OwningRecordingWorkload>(
            makeRunnerWorkload(workload, nodes, scale), recorder);
    };

    trace::TraceMeta meta;
    meta.nodeCount = opt.nodes;
    meta.lineBytes = j.cfg.proto.lineBytes;
    meta.coarse = 1u << j.cfg.proto.sharerGranularityLog2;
    JobSet set;
    set.add(std::move(j));

    // One thread: every op lands in the one recorder.
    SweepOptions run;
    run.threads = 1;
    run.progress = !opt.quiet;
    run.jsonPath = opt.jsonPath;
    run.table = false;
    if (const int rc = runSweep(set, run))
        return rc;

    meta.seed = opt.seed;
    meta.scale = opt.scale;
    meta.workload = workload;
    meta.config = configName;
    try {
        recorder.writeFile(opt.outPath, meta);
    } catch (const trace::TraceError &e) {
        std::fprintf(stderr, "pcsim trace record: %s\n", e.what());
        return 1;
    }
    if (!opt.quiet)
        std::fprintf(stderr, "recorded %llu ops -> %s\n",
                     (unsigned long long)recorder.opCount(),
                     opt.outPath.c_str());
    return 0;
}

int
runTraceReplay(const TraceReplayOptions &opt)
{
    if (opt.tracePath.empty()) {
        std::fprintf(stderr,
                     "pcsim trace replay: missing trace file\n");
        return 1;
    }
    std::shared_ptr<trace::TraceData> data;
    try {
        data = std::make_shared<trace::TraceData>(
            trace::readTraceFile(opt.tracePath));
    } catch (const trace::TraceError &e) {
        std::fprintf(stderr, "pcsim trace replay: %s\n", e.what());
        return 1;
    }

    // Rebuild the source run's machine: preset name + node count from
    // the header (overridable), line size from the header.
    std::string preset = !opt.config.empty() ? opt.config
                         : !data->meta.config.empty()
                             ? data->meta.config
                             : "base";
    Job j;
    std::string configName;
    if (!namedMachineConfig(preset, data->meta.nodeCount, j.cfg,
                            configName)) {
        std::fprintf(stderr,
                     "pcsim trace replay: unknown config '%s'\n",
                     preset.c_str());
        return 1;
    }
    j.cfg.proto.lineBytes = data->meta.lineBytes;
    j.workload = data->meta.workload.empty() ? "trace"
                                             : data->meta.workload;
    j.configName = configName;
    j.seed = data->meta.seed;
    j.scale = data->meta.scale;
    j.factory = [data]() {
        // Copy: the workload consumes the streams, and every run must
        // start from the decoded trace.
        return std::make_unique<trace::TraceReplayWorkload>(*data);
    };

    JobSet set;
    set.add(std::move(j));

    if (opt.out.progress)
        std::fprintf(stderr, "replaying %llu ops\n",
                     (unsigned long long)data->totalOps());
    return runSweep(set, opt.out);
}

int
runTraceInfo(const std::string &path)
{
    if (path.empty()) {
        std::fprintf(stderr, "pcsim trace info: missing trace file\n");
        return 1;
    }
    try {
        const trace::TraceMeta meta = trace::readTraceMeta(path);
        std::printf("trace:     %s\n", path.c_str());
        std::printf("format:    PCTR v%u\n", trace::traceVersion);
        std::printf("workload:  %s\n", meta.workload.empty()
                                           ? "(unnamed)"
                                           : meta.workload.c_str());
        std::printf("config:    %s\n", meta.config.empty()
                                           ? "(none)"
                                           : meta.config.c_str());
        std::printf("nodes:     %u\n", meta.nodeCount);
        std::printf("lineBytes: %u\n", meta.lineBytes);
        std::printf("coarse:    %u node(s)/sharer bit\n", meta.coarse);
        std::printf("seed:      %llu\n",
                    (unsigned long long)meta.seed);
        std::printf("scale:     %g\n", meta.scale);
        std::printf("ops:       %llu\n",
                    (unsigned long long)meta.opCount);
    } catch (const trace::TraceError &e) {
        std::fprintf(stderr, "pcsim trace info: %s\n", e.what());
        return 1;
    }
    return 0;
}

} // namespace runner
} // namespace pcsim
