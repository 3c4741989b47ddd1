/**
 * @file
 * One sweep path for every grid-shaped experiment.
 *
 * A preset is a name, a job-grid builder over the shared axes
 * (workload/scenario, node count, named config, arbitration, fault
 * scenario, seed, scale) and a printed table. A preset writes a
 * results document only where --json / --csv point, so no run can
 * overwrite a committed reference by default.
 * `pcsim run`, `serve`, `compare`, `scale`, `faults`, `qos` and every
 * `sweep --figure N` / `--table N` are presets; runSweep() is the one
 * loop that runs a grid, checks determinism, writes JSON/CSV and
 * prints the table.
 *
 * Printed tables come in two kinds: a column-spec table over the job
 * results (one row per job), or a figure printer that formats the
 * serialized results document (src/runner/figures.hh), so a printed
 * figure and its saved JSON can never disagree.
 */

#ifndef PCSIM_RUNNER_SWEEP_HH
#define PCSIM_RUNNER_SWEEP_HH

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "src/runner/runner.hh"
#include "src/sim/json.hh"

namespace pcsim
{
namespace runner
{

/** The grid axes a preset reads (the pcsim selection flags). Empty
 *  lists and an unset scale mean "the preset's default". */
struct SweepAxes
{
    std::vector<std::string> workloads;
    std::vector<std::string> configs;
    std::vector<std::string> scenarios;
    std::vector<std::string> arbitrations;
    std::vector<unsigned> nodes;
    std::vector<std::uint64_t> seeds{1};
    std::optional<double> scale;
    /** Nodes per directory sharer bit (power of two; `run` only). */
    unsigned coarse = 1;
    /** Coherence checker / conformance hook (`run` only). */
    bool checker = false;
    bool conformance = false;
    /** Parallel-kernel shards per simulation (1 = sequential oracle;
     *  any value produces byte-identical documents). */
    unsigned shards = 1;
};

/** How runSweep() executes and emits a grid (the pcsim output
 *  flags). */
struct SweepOptions
{
    /** Worker threads; 0 = all cores. */
    unsigned threads = 0;
    /** Per-job progress lines on stderr. */
    bool progress = true;
    /** Results document path ("" = none; "-" = stdout). */
    std::string jsonPath;
    std::string csvPath;
    /** Include host wall-clock rates (breaks byte identity). */
    bool timing = false;
    /** Run every job twice and byte-compare the serialized results
     *  instead of emitting them; exit 3 on mismatch. */
    bool deterministicCheck = false;
    /** Print the preset's table (skipped when JSON or CSV goes to
     *  stdout). */
    bool table = true;
};

/** One column of a column-spec results table. */
struct Column
{
    const char *header;
    /** printf field width; negative left-aligns. */
    int width;
    /** The cell value; nullptr makes this the "vs base" column
     *  (base-config cycles / this row's cycles, "-" without a base). */
    std::uint64_t (*value)(const RunResult &);
};

/** A one-row-per-job table; failed jobs print "FAILED: <error>". */
struct ColumnTable
{
    const char *labelHeader;
    int labelWidth;
    std::vector<Column> columns;
    /** Config name whose cycles the "vs base" column divides, per
     *  (workload, node count). */
    const char *baseConfig = nullptr;
};

void printColumnTable(const ColumnTable &table,
                      const std::vector<JobResult> &results,
                      std::FILE *out = stdout);

/** A preset's printed table: column-spec rows, or a figure printer
 *  over the serialized results document. */
struct SweepTable
{
    const ColumnTable *columns = nullptr;
    void (*figure)(const JsonValue &doc, std::FILE *out) = nullptr;
};

/** A named grid-shaped experiment. */
struct SweepPreset
{
    /** "run", "serve", "compare", "scale", "faults", "qos",
     *  "fig7".."fig12", "table2", "table3". */
    const char *name;
    /** Fill @p out from @p axes; false with @p err on bad axes.
     *  nullptr for a table that needs no simulation. */
    bool (*build)(const SweepAxes &axes, JobSet &out, std::string &err);
    SweepTable table;
    /** Worker threads when -j is not given (0 = all cores). */
    unsigned defaultThreads;
    /** Prints a table that needs no simulation (Table 2). */
    void (*printStatic)(const SweepAxes &axes, std::FILE *out) = nullptr;
};

/** Look a preset up by name; nullptr when unknown. */
const SweepPreset *findPreset(const std::string &name);

/** Build a preset's grid and validate every job's configuration;
 *  false with @p err when an axis value is unknown or a
 *  configuration is invalid. */
bool buildGrid(const SweepPreset &preset, const SweepAxes &axes,
               JobSet &out, std::string &err);

/**
 * Run @p set, then either byte-compare two runs
 * (opt.deterministicCheck) or write JSON/CSV and print @p table.
 * @return process exit code: 0 ok, 1 output I/O error, 2 a job
 *         failed, 3 non-deterministic.
 */
int runSweep(const JobSet &set, const SweepOptions &opt,
             const SweepTable &table = {});

/** Build and run a preset; 1 (with a message) on bad axes. */
int runPreset(const SweepPreset &preset, const SweepAxes &axes,
              SweepOptions opt);

} // namespace runner
} // namespace pcsim

#endif // PCSIM_RUNNER_SWEEP_HH
