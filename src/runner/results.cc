#include "src/runner/results.hh"

#include <cstdio>

#include "src/sim/logging.hh"

namespace pcsim
{
namespace runner
{

/** Every NodeStats counter, in declaration order. Serialization and
 *  deserialization both expand this list, so they cannot drift. */
#define PCSIM_NODE_STATS_FIELDS(X)                                        \
    X(reads)                                                              \
    X(writes)                                                             \
    X(l1Hits)                                                             \
    X(l2Hits)                                                             \
    X(localMisses)                                                        \
    X(remoteMisses)                                                       \
    X(racHits)                                                            \
    X(twoHopMisses)                                                       \
    X(threeHopMisses)                                                     \
    X(nacksReceived)                                                      \
    X(retries)                                                            \
    X(homeRequests)                                                       \
    X(nacksSent)                                                          \
    X(interventionsSent)                                                  \
    X(dirCacheHits)                                                       \
    X(dirCacheMisses)                                                     \
    X(delegationsGranted)                                                 \
    X(delegationsReceived)                                                \
    X(undelegationsCapacity)                                              \
    X(undelegationsFlush)                                                 \
    X(undelegationsConflict)                                              \
    X(forwardedRequests)                                                  \
    X(delegatedLocalOps)                                                  \
    X(delayedInterventions)                                               \
    X(updatesSent)                                                        \
    X(updatesReceived)                                                    \
    X(updatesConsumed)                                                    \
    X(updatesDropped)                                                     \
    X(extraWriteMisses)                                                   \
    X(writebacks)

/** RunPerf counters that are pure functions of the simulated content:
 *  byte-identical across hosts, thread counts and kernel shard
 *  counts. Only these go into default (determinism-checked) JSON. */
#define PCSIM_RUN_PERF_DET_FIELDS(X)                                      \
    X(eventsExecuted)                                                     \
    X(eventsScheduled)                                                    \
    X(inlineCallbacks)                                                    \
    X(heapCallbacks)                                                      \
    X(poolAcquires)                                                       \
    X(simTicks)

/** RunPerf counters whose values depend on how the run was sharded
 *  (queue shapes, pool recycling); serialized only with_timing, like
 *  the wall-clock rates (schemaVersion 3 moved them there). */
#define PCSIM_RUN_PERF_SHARDED_FIELDS(X)                                  \
    X(peakQueueDepth)                                                     \
    X(overflowEvents)                                                     \
    X(windowAdvances)                                                     \
    X(poolReuses)

/** Barrier spin-elision and folded-drain counters: content-
 *  determined, but kept out of default documents (serialized
 *  with_timing only) so those stay byte-identical to earlier ones. */
#define PCSIM_RUN_PERF_ELISION_FIELDS(X)                                  \
    X(eventsElided)                                                       \
    X(spinPollsElided)                                                    \
    X(spinParks)                                                          \
    X(spinWakeTies)                                                       \
    X(drainsFolded)                                                       \
    X(deliveryRearms)

/** All scalar counters in the historic (schemaVersion 2) order; the
 *  CSV keeps this column layout. */
#define PCSIM_RUN_PERF_FIELDS(X)                                          \
    X(eventsExecuted)                                                     \
    X(eventsScheduled)                                                    \
    X(peakQueueDepth)                                                     \
    X(inlineCallbacks)                                                    \
    X(heapCallbacks)                                                      \
    X(overflowEvents)                                                     \
    X(windowAdvances)                                                     \
    X(poolAcquires)                                                       \
    X(poolReuses)                                                         \
    X(simTicks)

namespace
{

JsonValue
histToJson(const Histogram &h)
{
    JsonValue v = JsonValue::object();
    v["total"] = JsonValue(h.total());
    JsonValue buckets = JsonValue::array();
    for (std::size_t i = 0; i < h.numBuckets(); ++i)
        buckets.push(JsonValue(h.bucket(i)));
    v["buckets"] = std::move(buckets);
    return v;
}

void
histFromJson(const JsonValue &v, Histogram &h)
{
    const JsonValue &buckets = v.at("buckets");
    std::vector<std::uint64_t> counts;
    counts.reserve(buckets.size());
    for (std::size_t i = 0; i < buckets.size(); ++i)
        counts.push_back(buckets.at(i).asUInt());
    h.assign(std::move(counts));
}

} // namespace

JsonValue
toJson(const RunResult &r, bool with_timing)
{
    JsonValue v = JsonValue::object();
    v["workload"] = JsonValue(r.workload);
    v["config"] = JsonValue(r.config);
    v["cycles"] = JsonValue(r.cycles);
    v["netMessages"] = JsonValue(r.netMessages);
    v["netBytes"] = JsonValue(r.netBytes);
    v["nackMessages"] = JsonValue(r.nackMessages);
    v["updateMessages"] = JsonValue(r.updateMessages);

    JsonValue nodes = JsonValue::object();
#define X(field) nodes[#field] = JsonValue(r.nodes.field);
    PCSIM_NODE_STATS_FIELDS(X)
#undef X
    v["nodes"] = std::move(nodes);

    v["consumerHist"] = histToJson(r.consumerHist);

    JsonValue perf = JsonValue::object();
#define X(field) perf[#field] = JsonValue(r.perf.field);
    PCSIM_RUN_PERF_DET_FIELDS(X)
#undef X
    if (with_timing) {
#define X(field) perf[#field] = JsonValue(r.perf.field);
        PCSIM_RUN_PERF_SHARDED_FIELDS(X)
        PCSIM_RUN_PERF_ELISION_FIELDS(X)
#undef X
        perf["shards"] = JsonValue(std::uint64_t(r.perf.shards));
        JsonValue se = JsonValue::array();
        for (std::uint64_t e : r.perf.shardEvents)
            se.push(JsonValue(e));
        perf["shardEvents"] = std::move(se);
        perf["kernelWindows"] = JsonValue(r.perf.kernelWindows);
        perf["kernelBarriers"] = JsonValue(r.perf.kernelBarriers);
        perf["crossShardMessages"] =
            JsonValue(r.perf.crossShardMessages);
        perf["wallSeconds"] = JsonValue(r.perf.wallSeconds);
        perf["eventsPerSec"] = JsonValue(r.perf.eventsPerSec());
        perf["ticksPerSec"] = JsonValue(r.perf.ticksPerSec());
    }
    v["perf"] = std::move(perf);

    // Transition coverage exists only when the run had conformance
    // checking on; omitting it otherwise keeps default-config
    // documents byte-identical to pre-conformance ones.
    if (!r.conformance.empty()) {
        JsonValue conf = JsonValue::object();
        JsonValue observed = JsonValue::array();
        for (const auto &t : r.conformance) {
            JsonValue e = JsonValue::object();
            e["ctrl"] = JsonValue(std::uint64_t(t.ctrl));
            e["state"] = JsonValue(std::uint64_t(t.state));
            e["event"] = JsonValue(std::uint64_t(t.event));
            e["next"] = JsonValue(std::uint64_t(t.next));
            e["count"] = JsonValue(t.count);
            observed.push(std::move(e));
        }
        conf["observed"] = std::move(observed);
        v["conformance"] = std::move(conf);
    }

    // Retry-storm telemetry exists only for fault-injected runs;
    // fault-free documents stay byte-identical to the goldens.
    if (r.faultsActive) {
        JsonValue retry = JsonValue::object();
        retry["mshrConflictRetries"] =
            JsonValue(r.nodes.mshrConflictRetries);
        retry["dirRehandleRetries"] =
            JsonValue(r.nodes.dirRehandleRetries);
        retry["maxRetriesPerLine"] = JsonValue(r.nodes.maxRetriesPerLine);
        retry["nackStormPeak"] = JsonValue(r.nodes.nackStormPeak);
        retry["backoffHist"] = histToJson(r.nodes.backoffHist);
        retry["faultDelayedMessages"] =
            JsonValue(r.faultDelayedMessages);
        retry["faultExtraTicks"] = JsonValue(r.faultExtraTicks);
        v["retry"] = std::move(retry);
    }

    // Update-based-policy counters exist only under write-update /
    // adaptive-hybrid kinds; invalidate-based documents stay
    // byte-identical to the goldens.
    if (r.updateBased) {
        JsonValue pol = JsonValue::object();
        pol["updateEpisodes"] = JsonValue(r.nodes.updateEpisodes);
        pol["updatesApplied"] = JsonValue(r.nodes.updatesApplied);
        pol["adaptiveDrops"] = JsonValue(r.nodes.adaptiveDrops);
        v["policy"] = std::move(pol);
    }

    // Fairness telemetry exists only for fault-injected runs or
    // non-default arbitration modes; every pre-existing golden is
    // fault-free and nack-retry, so they stay byte-identical.
    if (r.faultsActive || r.arbitrationActive) {
        JsonValue fair = JsonValue::object();
        fair["arbitration"] = JsonValue(r.arbitrationActive);
        fair["missLatencyP50"] = JsonValue(r.missLatencyP50);
        fair["missLatencyP95"] = JsonValue(r.missLatencyP95);
        fair["missLatencyP99"] = JsonValue(r.missLatencyP99);
        fair["maxLineWaitTicks"] = JsonValue(r.nodes.maxLineWaitTicks);
        fair["queueDepthPeak"] = JsonValue(r.nodes.queueDepthPeak);
        fair["missLatencyHist"] = histToJson(r.nodes.missLatencyHist);
        v["fairness"] = std::move(fair);
    }
    return v;
}

RunResult
runResultFromJson(const JsonValue &v)
{
    RunResult r;
    r.workload = v.at("workload").asString();
    r.config = v.at("config").asString();
    r.cycles = v.at("cycles").asUInt();
    r.netMessages = v.at("netMessages").asUInt();
    r.netBytes = v.at("netBytes").asUInt();
    r.nackMessages = v.at("nackMessages").asUInt();
    r.updateMessages = v.at("updateMessages").asUInt();

    const JsonValue &nodes = v.at("nodes");
#define X(field) r.nodes.field = nodes.at(#field).asUInt();
    PCSIM_NODE_STATS_FIELDS(X)
#undef X

    histFromJson(v.at("consumerHist"), r.consumerHist);

    // Telemetry arrived in schemaVersion 2; tolerate its absence so
    // old documents still load.
    if (const JsonValue *perf = v.find("perf")) {
#define X(field)                                                          \
        if (const JsonValue *f = perf->find(#field))                      \
            r.perf.field = f->asUInt();
        PCSIM_RUN_PERF_FIELDS(X)
        PCSIM_RUN_PERF_ELISION_FIELDS(X)
#undef X
        if (const JsonValue *w = perf->find("wallSeconds"))
            r.perf.wallSeconds = w->asDouble();
        if (const JsonValue *s = perf->find("shards"))
            r.perf.shards = static_cast<std::uint32_t>(s->asUInt());
        if (const JsonValue *se = perf->find("shardEvents")) {
            for (std::size_t i = 0; i < se->size(); ++i)
                r.perf.shardEvents.push_back(se->at(i).asUInt());
        }
        if (const JsonValue *f = perf->find("kernelWindows"))
            r.perf.kernelWindows = f->asUInt();
        if (const JsonValue *f = perf->find("kernelBarriers"))
            r.perf.kernelBarriers = f->asUInt();
        if (const JsonValue *f = perf->find("crossShardMessages"))
            r.perf.crossShardMessages = f->asUInt();
    }

    // Optional: only runs with conformance checking emit it.
    if (const JsonValue *conf = v.find("conformance")) {
        const JsonValue &observed = conf->at("observed");
        for (std::size_t i = 0; i < observed.size(); ++i) {
            const JsonValue &e = observed.at(i);
            verify::TransitionCount t;
            t.ctrl = static_cast<std::uint8_t>(e.at("ctrl").asUInt());
            t.state = static_cast<std::uint8_t>(e.at("state").asUInt());
            t.event = static_cast<std::uint8_t>(e.at("event").asUInt());
            t.next = static_cast<std::uint8_t>(e.at("next").asUInt());
            t.count = e.at("count").asUInt();
            r.conformance.push_back(t);
        }
    }

    // Optional: only fault-injected runs emit it.
    if (const JsonValue *retry = v.find("retry")) {
        r.faultsActive = true;
        r.nodes.mshrConflictRetries =
            retry->at("mshrConflictRetries").asUInt();
        r.nodes.dirRehandleRetries =
            retry->at("dirRehandleRetries").asUInt();
        r.nodes.maxRetriesPerLine =
            retry->at("maxRetriesPerLine").asUInt();
        r.nodes.nackStormPeak = retry->at("nackStormPeak").asUInt();
        histFromJson(retry->at("backoffHist"), r.nodes.backoffHist);
        r.faultDelayedMessages =
            retry->at("faultDelayedMessages").asUInt();
        r.faultExtraTicks = retry->at("faultExtraTicks").asUInt();
    }

    // Optional: only update-based-policy runs emit it.
    if (const JsonValue *pol = v.find("policy")) {
        r.updateBased = true;
        r.nodes.updateEpisodes = pol->at("updateEpisodes").asUInt();
        r.nodes.updatesApplied = pol->at("updatesApplied").asUInt();
        r.nodes.adaptiveDrops = pol->at("adaptiveDrops").asUInt();
    }

    // Optional: fault-injected or non-default-arbitration runs only.
    if (const JsonValue *fair = v.find("fairness")) {
        r.arbitrationActive = fair->at("arbitration").asBool();
        r.missLatencyP50 = fair->at("missLatencyP50").asUInt();
        r.missLatencyP95 = fair->at("missLatencyP95").asUInt();
        r.missLatencyP99 = fair->at("missLatencyP99").asUInt();
        r.nodes.maxLineWaitTicks =
            fair->at("maxLineWaitTicks").asUInt();
        r.nodes.queueDepthPeak = fair->at("queueDepthPeak").asUInt();
        histFromJson(fair->at("missLatencyHist"),
                     r.nodes.missLatencyHist);
    }
    return r;
}

JsonValue
toJson(const JobResult &jr, bool with_timing)
{
    JsonValue v = toJson(jr.result, with_timing);
    // The job spec is authoritative for identity fields: a failed job
    // has an empty RunResult but still reports what was asked for.
    v["workload"] = JsonValue(jr.job.workload);
    v["config"] = JsonValue(jr.job.configName);
    v["label"] = JsonValue(jr.job.label);
    v["seed"] = JsonValue(jr.job.seed);
    v["scale"] = JsonValue(jr.job.scale);
    v["ok"] = JsonValue(jr.ok);
    v["error"] = JsonValue(jr.error);
    return v;
}

JsonValue
resultsToJson(const std::vector<JobResult> &results, bool with_timing)
{
    JsonValue doc = JsonValue::object();
    doc["schemaVersion"] = JsonValue(std::uint64_t(3));
    doc["generator"] = JsonValue("pcsim");
    JsonValue arr = JsonValue::array();
    for (const auto &r : results)
        arr.push(toJson(r, with_timing));
    doc["results"] = std::move(arr);
    return doc;
}

namespace
{

std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

std::string
resultsToCsv(const std::vector<JobResult> &results, bool with_timing)
{
    std::string out = "workload,config,label,seed,scale,ok,error,"
                      "cycles,netMessages,netBytes,nackMessages,"
                      "updateMessages";
#define X(field) out += ",nodes." #field;
    PCSIM_NODE_STATS_FIELDS(X)
#undef X
#define X(field) out += ",perf." #field;
    PCSIM_RUN_PERF_FIELDS(X)
#undef X
    if (with_timing)
        out += ",perf.wallSeconds,perf.eventsPerSec";
    out += '\n';

    const auto num = [](std::uint64_t v) {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%llu",
                      (unsigned long long)v);
        return std::string(buf);
    };
    for (const auto &jr : results) {
        char scale_str[32];
        std::snprintf(scale_str, sizeof(scale_str), "%g",
                      jr.job.scale);
        out += csvField(jr.job.workload) + ',' +
               csvField(jr.job.configName) + ',' +
               csvField(jr.job.label) + ',' + num(jr.job.seed) + ',' +
               scale_str + ',' + (jr.ok ? "1" : "0") + ',' +
               csvField(jr.error) + ',' + num(jr.result.cycles) + ',' +
               num(jr.result.netMessages) + ',' +
               num(jr.result.netBytes) + ',' +
               num(jr.result.nackMessages) + ',' +
               num(jr.result.updateMessages);
#define X(field) out += ',' + num(jr.result.nodes.field);
        PCSIM_NODE_STATS_FIELDS(X)
#undef X
#define X(field) out += ',' + num(jr.result.perf.field);
        PCSIM_RUN_PERF_FIELDS(X)
#undef X
        if (with_timing) {
            char t[64];
            std::snprintf(t, sizeof(t), ",%.6f,%.0f",
                          jr.result.perf.wallSeconds,
                          jr.result.perf.eventsPerSec());
            out += t;
        }
        out += '\n';
    }
    return out;
}

bool
writeTextFile(const std::string &path, const std::string &text)
{
    if (path == "-") {
        std::fwrite(text.data(), 1, text.size(), stdout);
        return true;
    }
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("cannot write '%s'", path.c_str());
        return false;
    }
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) ==
                    text.size();
    std::fclose(f);
    if (!ok)
        warn("short write to '%s'", path.c_str());
    return ok;
}

bool
readTextFile(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        return false;
    out.clear();
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    const bool ok = !std::ferror(f);
    std::fclose(f);
    return ok;
}

const JsonValue *
findResult(const JsonValue &doc, const std::string &workload,
           const std::string &config)
{
    const JsonValue *arr = doc.find("results");
    if (!arr || !arr->isArray())
        return nullptr;
    for (std::size_t i = 0; i < arr->size(); ++i) {
        const JsonValue &e = arr->at(i);
        const JsonValue *w = e.find("workload");
        const JsonValue *c = e.find("config");
        if (w && c && w->isString() && c->isString() &&
            w->asString() == workload && c->asString() == config)
            return &e;
    }
    return nullptr;
}

} // namespace runner
} // namespace pcsim
