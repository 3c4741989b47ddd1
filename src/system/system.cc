#include "src/system/system.hh"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "src/protocol/policy.hh"
#include "src/sim/logging.hh"

namespace pcsim
{

System::System(const MachineConfig &cfg)
    : _cfg(cfg),
      _kernel(ShardMap::leafAligned(
                  cfg.proto.numNodes,
                  FatTreeTopology(cfg.proto.numNodes).radix(),
                  cfg.shards),
              // Action grid G: 1 + hop latency lower-bounds every
              // cross-shard (hence >= 2 hop) latency, and depends only
              // on the config, so action boundaries are S-invariant.
              1 + cfg.net.hopLatency,
              1 + FatTreeTopology(cfg.proto.numNodes)
                      .minCrossLeafLatencyTicks(cfg.net.hopLatency)),
      _checker(cfg.proto.checkerEnabled),
      _memMap(cfg.proto.numNodes, cfg.pageBytes),
      _net(_kernel.queue(0), cfg.proto.numNodes, cfg.net)
{
    cfg.proto.validate();
    if (cfg.barrierSpinDelay == 0)
        fatal("invalid machine configuration: barrierSpinDelay must be "
              "at least 1 (a zero delay puts a spin poll in the same "
              "tick as the completion that schedules it)");
    const bool parallel = _kernel.numShards() > 1;
    if (cfg.proto.checkerEnabled || cfg.proto.conformanceEnabled) {
        _trace = std::make_unique<verify::MessageTrace>();
        _trace->setParallel(parallel);
    }
    if (cfg.proto.conformanceEnabled) {
        // Each policy is held to its own transition spec.
        _observer = std::make_unique<verify::TransitionObserver>(
            policyFor(cfg.proto.kind).spec(), _trace.get());
        _observer->setParallel(parallel);
    }
    _checker.setTrace(_trace.get());
    _checker.setParallel(parallel);
    _checker.setUpdateBased(cfg.proto.updateBased());
    _net.attachKernel(_kernel);
    // Barrier flags share a page; interleave their homes by line so
    // placement is content-determined and no single directory absorbs
    // every CPU's synchronization traffic (flag k homes at node k,
    // the release line at the master).
    _memMap.setInterleavedRegion(
        cfg.barrierBase,
        Addr(cfg.proto.numNodes + 1) * cfg.proto.lineBytes,
        cfg.proto.lineBytes);
    _shardConsumerHists.assign(_kernel.numShards(), Histogram(17));
    Rng root(cfg.seed);
    std::vector<Hub *> hub_ptrs;
    for (unsigned n = 0; n < cfg.proto.numNodes; ++n) {
        _hubs.push_back(std::make_unique<Hub>(
            _kernel.queueForNode(static_cast<NodeId>(n)), _net, _memMap,
            _checker, _cfg.proto, static_cast<NodeId>(n),
            forkNodeRng(root, static_cast<NodeId>(n))));
        _hubs.back()->setConsumerHist(
            &_shardConsumerHists[_kernel.shardOf(
                static_cast<NodeId>(n))],
            cfg.barrierBase,
            (cfg.proto.numNodes + 1) * cfg.proto.lineBytes);
        _hubs.back()->setConformance(_observer.get(), _trace.get());
        hub_ptrs.push_back(_hubs.back().get());
    }
    _barrier = std::make_unique<BarrierDriver>(
        _kernel.queue(0), hub_ptrs, cfg.barrierBase,
        cfg.proto.lineBytes, cfg.barrierSpinDelay);

    // Fault plan LAST, and only when enabled: fault-free runs draw the
    // exact same fork sequence as before, keeping their results
    // byte-identical to the goldens.
    if (cfg.proto.faults.enabled) {
        _faultPlan = std::make_unique<FaultPlan>(
            cfg.proto.faults, cfg.proto.numNodes, root.fork());
        _net.setFaultPlan(_faultPlan.get());
    }
}

System::~System() = default;

void
System::resetStats(Tick boundary)
{
    for (auto &hub : _hubs)
        hub->stats().reset();
    _net.resetStats(boundary);
    for (auto &h : _shardConsumerHists)
        h.reset();
    _statsResetTick = boundary;
}

/**
 * Deterministic first-touch page placement, computed from the traces
 * before any event runs. The classic policy assigns a page to the
 * first CPU that touches it *in execution order*; under the parallel
 * kernel that order does not exist, so we use the schedule-independent
 * equivalent: scan all CPU streams round-robin by op index and let the
 * first Read/Write claim each page. (The barrier flag region is not
 * part of any trace; it is line-interleaved by the memory map, see
 * setInterleavedRegion.) The map is then frozen so shard workers only
 * ever read it. Runs with any shard count (including the sequential
 * oracle) use the same placement, which is one of the pillars of byte
 * identity.
 */
void
System::preplacePages(Workload &workload)
{
    const unsigned n_cpus = numNodes();
    std::vector<const std::vector<MemOp> *> ops(n_cpus);
    for (unsigned n = 0; n < n_cpus; ++n) {
        ops[n] = workload.cpuOps(n);
        if (!ops[n]) {
            if (_kernel.numShards() > 1) {
                fatal("parallel kernel needs a trace-backed workload "
                      "for deterministic page pre-placement ('%s' "
                      "exposes no op streams)",
                      workload.name().c_str());
            }
            return; // sequential: classic dynamic first-touch
        }
    }

    std::size_t max_ops = 0;
    for (unsigned n = 0; n < n_cpus; ++n)
        max_ops = std::max(max_ops, ops[n]->size());
    for (std::size_t i = 0; i < max_ops; ++i) {
        for (unsigned n = 0; n < n_cpus; ++n) {
            if (i >= ops[n]->size())
                continue;
            const MemOp &op = (*ops[n])[i];
            if (op.kind == MemOp::Kind::Read ||
                op.kind == MemOp::Kind::Write) {
                _memMap.homeOf(op.addr, static_cast<NodeId>(n));
            }
        }
    }
    _memMap.freeze();
}

RunResult
System::run(Workload &workload, Tick max_ticks)
{
    if (workload.numCpus() != numNodes())
        fatal("workload wants %u CPUs, machine has %u",
              workload.numCpus(), numNodes());

    workload.reset();
    _cpus.clear();
    preplacePages(workload);

    std::atomic<unsigned> running{numNodes()};
    std::atomic<Tick> last_done{0};
    for (unsigned n = 0; n < numNodes(); ++n) {
        _cpus.push_back(std::make_unique<Cpu>(
            _kernel.queueForNode(static_cast<NodeId>(n)), *_hubs[n],
            workload, *_barrier, n));
        Cpu *c = _cpus.back().get();
        c->setOnDone([&running, &last_done, c]() {
            running.fetch_sub(1, std::memory_order_relaxed);
            // Commutative max: the final value is independent of the
            // order in which shard workers report completion.
            Tick t = c->finishedAt();
            Tick cur = last_done.load(std::memory_order_relaxed);
            while (t > cur &&
                   !last_done.compare_exchange_weak(
                       cur, t, std::memory_order_relaxed)) {
            }
        });
        c->start();
    }

    // Parallel-phase convention: barrier generation 1 ends init. The
    // reset must happen at a content-determined global time, so it is
    // requested as a kernel action: it applies at the next action-grid
    // boundary B after the generation's last pass tick, once every
    // event before B (on every shard) has executed.
    _barrier->setOnGeneration([this](std::uint64_t gen, Tick at) {
        if (gen == 1) {
            _kernel.requestGlobalAction(at, [this](Tick boundary) {
                _barrier->settleParked(boundary);
                resetStats(boundary);
            });
        }
    });

    const auto wall_start = std::chrono::steady_clock::now();
    _kernel.run(max_ticks);

    if (running.load() != 0)
        fatal("simulation hit the tick limit with %u CPUs unfinished "
              "(deadlock or limit too small)",
              running.load());

    // Drain any leftover protocol work (pending delayed interventions
    // push updates after the CPUs finish) before the quiescent check.
    _kernel.run(maxTick);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();

    if (_checker.enabled()) {
        _checker.checkQuiescent(
            [this](Addr line) { return _memMap.homeOf(line); });
    }

    RunResult r;
    r.workload = workload.name();
    const Tick done = last_done.load();
    r.cycles = done > _statsResetTick ? done - _statsResetTick : done;
    for (auto &hub : _hubs) {
        // Worst-node percentiles, taken per node BEFORE the sum
        // (merging the histograms first would average the unlucky
        // node away; see RunResult).
        const NodeStats &ns = hub->stats();
        r.missLatencyP50 = std::max(
            r.missLatencyP50, latencyPercentile(ns.missLatencyHist, 0.50));
        r.missLatencyP95 = std::max(
            r.missLatencyP95, latencyPercentile(ns.missLatencyHist, 0.95));
        r.missLatencyP99 = std::max(
            r.missLatencyP99, latencyPercentile(ns.missLatencyHist, 0.99));
        r.nodes += ns;
    }
    r.netMessages = _net.numMessages();
    r.netBytes = _net.numBytes();
    r.nackMessages = _net.numByType(MsgType::Nack) +
                     _net.numByType(MsgType::NackNotHome);
    r.updateMessages = _net.numByType(MsgType::Update);
    r.consumerHist = _shardConsumerHists[0];
    for (unsigned s = 1; s < _kernel.numShards(); ++s)
        r.consumerHist.merge(_shardConsumerHists[s]);

    const EventQueueStats eqs = _kernel.aggregateStats();
    r.perf.eventsExecuted = eqs.executed;
    r.perf.eventsScheduled = eqs.scheduled;
    r.perf.peakQueueDepth = eqs.peakPending;
    r.perf.inlineCallbacks = eqs.inlineCallbacks;
    r.perf.heapCallbacks = eqs.heapCallbacks;
    r.perf.overflowEvents = eqs.overflowEvents;
    r.perf.windowAdvances = eqs.windowAdvances;
    r.perf.eventsElided = eqs.elided;
    r.perf.drainsFolded = eqs.folded;
    r.perf.deliveryRearms = eqs.rearms;
    const BarrierDriver::SpinStats spin = _barrier->spinStats();
    r.perf.spinPollsElided = spin.pollsElided;
    r.perf.spinParks = spin.parks;
    r.perf.spinWakeTies = spin.wakeTies;
    const Pool<Message>::Stats pool_stats = _net.poolStats();
    r.perf.poolAcquires = pool_stats.acquires;
    r.perf.poolReuses = pool_stats.reuses;
    r.perf.simTicks = _kernel.maxCurTick();
    r.perf.shards = _kernel.numShards();
    r.perf.shardEvents.reserve(_kernel.numShards());
    for (unsigned s = 0; s < _kernel.numShards(); ++s)
        r.perf.shardEvents.push_back(_kernel.queue(s).stats().executed);
    r.perf.kernelWindows = _kernel.stats().windows;
    r.perf.kernelBarriers = _kernel.stats().barriers;
    r.perf.crossShardMessages = _net.crossShardMessages();
    r.perf.wallSeconds = wall;
    if (_observer)
        r.conformance = _observer->coverage();
    if (_faultPlan) {
        r.faultsActive = true;
        r.faultDelayedMessages = _net.faultDelayedMessages();
        r.faultExtraTicks = _net.faultExtraTicks();
    }
    r.updateBased = _cfg.proto.updateBased();
    r.arbitrationActive = _cfg.proto.arbitrationActive();
    return r;
}

RunResult
runWorkload(const MachineConfig &cfg, Workload &workload,
            const std::string &config_name)
{
    System sys(cfg);
    RunResult r = sys.run(workload);
    r.config = config_name;
    return r;
}

} // namespace pcsim
