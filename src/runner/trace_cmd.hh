/**
 * @file
 * `pcsim trace record|replay|info`: the trace record/replay frontend.
 *
 * record -- run a registry workload under a named machine preset with
 * the op stream teed into a TraceRecorder, and serialize the capture
 * as a binary PCTR file (src/trace/format.hh). With --text, skip the
 * simulation and ingest external per-core text traces
 * (src/trace/text_ingest.hh) into the same format instead.
 *
 * replay -- load a PCTR file, rebuild the source run's job identity
 * (workload name, config preset, seed, scale) from its header, and
 * drive the simulator from the per-node cursors. Stats serialized
 * from a replay are byte-identical to the recorded run's at any
 * runner thread count.
 *
 * info -- print the header without decoding the op payload.
 */

#ifndef PCSIM_RUNNER_TRACE_CMD_HH
#define PCSIM_RUNNER_TRACE_CMD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/runner/sweep.hh"

namespace pcsim
{
namespace runner
{

/** Options for `pcsim trace record`. */
struct TraceRecordOptions
{
    std::string workload = "PCmicro";
    std::string config = "base";
    unsigned nodes = 16;
    double scale = 1.0;
    std::uint64_t seed = 1;
    /** Trace output path (required). */
    std::string outPath;
    /** Also serialize the recorded run's stats here ("" = don't;
     *  "-" = stdout) -- the document replay must reproduce. */
    std::string jsonPath;
    bool quiet = false;
    /** Ingest mode: per-core text trace files (`<label> <hexaddr>`
     *  lines; label 0 = load, 1 = store, 2 = compute cycles), one
     *  file per node. No simulation runs; --workload/--config/--seed
     *  do not apply. */
    std::vector<std::string> textPaths;
    /** Coherence granularity for ingested traces. */
    std::uint32_t lineBytes = 128;
};

/** Options for `pcsim trace replay`. */
struct TraceReplayOptions
{
    std::string tracePath;
    /** Override the header's machine preset ("" = use the header's;
     *  ingested traces default to "base"). */
    std::string config;
    /** How the replay runs and what it writes (JSON/CSV). */
    SweepOptions out;
};

/** @return process exit code: 0 ok, 1 usage/I-O error, 2 run or
 *          ingest failed. */
int runTraceRecord(const TraceRecordOptions &opt);
int runTraceReplay(const TraceReplayOptions &opt);
int runTraceInfo(const std::string &path);

} // namespace runner
} // namespace pcsim

#endif // PCSIM_RUNNER_TRACE_CMD_HH
