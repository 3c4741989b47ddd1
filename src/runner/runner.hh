/**
 * @file
 * Parallel experiment runner.
 *
 * Executes the independent simulations of a JobSet across a
 * fixed-size pool of worker threads. One simulation stays
 * single-threaded (the event queue is strictly ordered, so a run is
 * bit-reproducible for a given seed); the pool parallelizes across
 * runs. Results come back in job order no matter how the scheduler
 * interleaves workers, so a JobSet produces the same result vector --
 * and the same serialized JSON -- at any thread count.
 *
 * A job that throws is reported as failed in its JobResult; the pool
 * keeps draining the remaining jobs.
 */

#ifndef PCSIM_RUNNER_RUNNER_HH
#define PCSIM_RUNNER_RUNNER_HH

#include <string>
#include <vector>

#include "src/runner/job.hh"
#include "src/system/system.hh"

namespace pcsim
{
namespace runner
{

/** Pool-wide execution options. */
struct RunnerOptions
{
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    unsigned threads = 1;
    /** Per-job completion lines on stderr. */
    bool progress = true;
};

/** Outcome of one job. */
struct JobResult
{
    Job job;
    bool ok = false;
    /** Failure description when !ok (exception text). */
    std::string error;
    RunResult result;
    /** Host wall-clock seconds this job took (not serialized). */
    double wallSeconds = 0.0;
};

/** Resolve an option/flag thread count to an actual pool size. */
unsigned resolveThreads(unsigned requested, std::size_t num_jobs);

/**
 * Run every job of @p set and return results in job order.
 *
 * Deterministic: per-job seeds come from the Job spec, each worker
 * builds a private System + Workload, and the result slot is fixed by
 * the job's index -- scheduling cannot reorder or perturb results.
 */
std::vector<JobResult> runJobs(const JobSet &set,
                               const RunnerOptions &opts = {});

} // namespace runner
} // namespace pcsim

#endif // PCSIM_RUNNER_RUNNER_HH
