/**
 * @file
 * Structured result serialization: JobResult / RunResult to JSON and
 * CSV, plus lookup helpers for table formatters that consume the JSON
 * document instead of scraping stdout.
 *
 * JSON schema (schemaVersion 3):
 *
 *   {
 *     "schemaVersion": 3,
 *     "generator": "pcsim",
 *     "results": [
 *       {
 *         "workload": "Em3D", "config": "Base", "label": "Em3D/Base",
 *         "seed": 1, "scale": 1.0, "ok": true, "error": "",
 *         "cycles": 123456,
 *         "netMessages": N, "netBytes": N,
 *         "nackMessages": N, "updateMessages": N,
 *         "nodes": { "reads": N, "writes": N, ... },   // NodeStats
 *         "consumerHist": { "total": N, "buckets": [N, ...] },
 *         "perf": {                      // kernel telemetry
 *           "eventsExecuted": N, "eventsScheduled": N,
 *           "inlineCallbacks": N, "heapCallbacks": N,
 *           "poolAcquires": N, "simTicks": N,
 *           // only when serialized with_timing (never in
 *           // determinism-checked documents):
 *           "peakQueueDepth": N, "overflowEvents": N,
 *           "windowAdvances": N, "poolReuses": N,
 *           "eventsElided": N, "spinPollsElided": N,
 *           "spinParks": N, "spinWakeTies": N,
 *           "drainsFolded": N, "deliveryRearms": N,
 *           "shards": N, "shardEvents": [N, ...],
 *           "kernelWindows": N, "kernelBarriers": N,
 *           "crossShardMessages": N,
 *           "wallSeconds": F, "eventsPerSec": F, "ticksPerSec": F
 *         }
 *       }, ...
 *     ]
 *   }
 *
 * The default "perf" counters are pure functions of the simulated
 * machine + workload; wall-clock rates are host noise, and the
 * queue-shape/shard counters depend on the parallel kernel's shard
 * layout (schemaVersion 3 moved them behind the opt-in). The default
 * (with_timing = false) drops all of those so the document is
 * byte-identical across thread counts, shard counts and hosts — the
 * repo-wide guarantee the determinism checks diff. Opting in (pcsim
 * --timing) trades that diffability for throughput visibility.
 * "overflowEvents" counts events queued at or beyond the event
 * calendar's sliding horizon (the heap path) and "windowAdvances" the
 * tick advances that migrated at least one of them into the ring; on
 * the sequential kernel both are content-determined.
 */

#ifndef PCSIM_RUNNER_RESULTS_HH
#define PCSIM_RUNNER_RESULTS_HH

#include <string>
#include <vector>

#include "src/runner/runner.hh"
#include "src/sim/json.hh"
#include "src/system/system.hh"

namespace pcsim
{
namespace runner
{

/** Serialize one run's statistics (without job metadata).
 *  @param with_timing include host wall-clock rates (default off:
 *         they break cross-host/thread-count byte identity). */
JsonValue toJson(const RunResult &r, bool with_timing = false);

/** Rebuild a RunResult from toJson() output. Documents without a
 *  "perf" object (schemaVersion 1) parse with zeroed telemetry.
 *  @throws std::out_of_range / std::logic_error on schema mismatch. */
RunResult runResultFromJson(const JsonValue &v);

/** Serialize one job outcome (spec + statistics). */
JsonValue toJson(const JobResult &r, bool with_timing = false);

/** Serialize a whole result set as a schema-versioned document. */
JsonValue resultsToJson(const std::vector<JobResult> &results,
                        bool with_timing = false);

/** Flat CSV: one row per job, fixed column order, RFC-4180 quoting.
 *  Timing columns are emitted only when @p with_timing. */
std::string resultsToCsv(const std::vector<JobResult> &results,
                         bool with_timing = false);

/** Write @p text to @p path; "-" writes to stdout.
 *  @return false (with a warning) if the file cannot be written. */
bool writeTextFile(const std::string &path, const std::string &text);

/** Read a whole file into @p out; @return false when unreadable. */
bool readTextFile(const std::string &path, std::string &out);

/** Find the result entry for (workload, config) in a document
 *  produced by resultsToJson(); nullptr when absent. */
const JsonValue *findResult(const JsonValue &doc,
                            const std::string &workload,
                            const std::string &config);

} // namespace runner
} // namespace pcsim

#endif // PCSIM_RUNNER_RESULTS_HH
