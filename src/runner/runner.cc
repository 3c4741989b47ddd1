#include "src/runner/runner.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>

namespace pcsim
{
namespace runner
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Execute one job into its preallocated result slot. */
void
executeJob(const Job &job, JobResult &out)
{
    const auto start = Clock::now();
    out.job = job;
    try {
        MachineConfig cfg = job.cfg;
        cfg.seed = job.seed;

        std::unique_ptr<Workload> wl =
            job.factory ? job.factory()
                        : makeRunnerWorkload(job.workload,
                                             cfg.proto.numNodes,
                                             job.scale);
        if (!wl)
            throw std::runtime_error("workload factory returned null");

        out.result = runWorkload(cfg, *wl, job.configName);
        out.ok = true;
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = e.what();
    } catch (...) {
        out.ok = false;
        out.error = "unknown exception";
    }
    out.wallSeconds = secondsSince(start);
}

} // namespace

unsigned
resolveThreads(unsigned requested, std::size_t num_jobs)
{
    unsigned t = requested;
    if (t == 0) {
        t = std::thread::hardware_concurrency();
        if (t == 0)
            t = 1;
    }
    if (num_jobs > 0 && t > num_jobs)
        t = static_cast<unsigned>(num_jobs);
    return t > 0 ? t : 1;
}

std::vector<JobResult>
runJobs(const JobSet &set, const RunnerOptions &opts)
{
    const std::vector<Job> &jobs = set.jobs();
    std::vector<JobResult> results(jobs.size());
    if (jobs.empty())
        return results;

    const unsigned threads = resolveThreads(opts.threads, jobs.size());
    const auto start = Clock::now();

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{0};
    std::mutex io;

    auto worker = [&]() {
        while (true) {
            const std::size_t idx =
                next.fetch_add(1, std::memory_order_relaxed);
            if (idx >= jobs.size())
                return;
            JobResult &slot = results[idx];
            executeJob(jobs[idx], slot);
            const std::size_t done =
                completed.fetch_add(1, std::memory_order_relaxed) + 1;
            if (opts.progress) {
                std::lock_guard<std::mutex> lock(io);
                if (slot.ok) {
                    std::fprintf(
                        stderr,
                        "[%zu/%zu] %s: %llu cycles (%.2fs, %.1fs "
                        "elapsed)\n",
                        done, jobs.size(), slot.job.label.c_str(),
                        (unsigned long long)slot.result.cycles,
                        slot.wallSeconds, secondsSince(start));
                } else {
                    std::fprintf(stderr, "[%zu/%zu] %s: FAILED: %s\n",
                                 done, jobs.size(),
                                 slot.job.label.c_str(),
                                 slot.error.c_str());
                }
            }
        }
    };

    if (threads == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }

    if (opts.progress) {
        std::size_t failed = 0;
        for (const auto &r : results)
            failed += r.ok ? 0 : 1;
        std::fprintf(stderr,
                     "ran %zu jobs on %u thread%s in %.1fs (%zu "
                     "failed)\n",
                     jobs.size(), threads, threads == 1 ? "" : "s",
                     secondsSince(start), failed);
    }
    return results;
}

} // namespace runner
} // namespace pcsim
