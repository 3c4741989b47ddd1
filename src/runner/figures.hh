/**
 * @file
 * Paper figure/table sweeps as JobSets, plus the printed comparison
 * tables as thin formatters over the serialized JSON results.
 *
 * Each sweep is defined once (jobs + per-figure scale conventions)
 * and runs as a `pcsim sweep` preset (src/runner/sweep.hh): through
 * the parallel runner, serialized with resultsToJson(), and the table
 * printers consume that JSON document -- so the printed comparison
 * and any saved results file can never disagree.
 */

#ifndef PCSIM_RUNNER_FIGURES_HH
#define PCSIM_RUNNER_FIGURES_HH

#include <cstdio>

#include "src/runner/job.hh"
#include "src/sim/json.hh"

namespace pcsim
{
namespace figures
{

/** Figure 7: seven applications x six machine configurations.
 *  @param bench_scale overall sweep scale (pcsim --scale). */
runner::JobSet figure7Jobs(double bench_scale = 1.0,
                           unsigned num_nodes = 16);

/** Figure 8: seven applications on three equal-silicon systems --
 *  a 1 MB L2 (base), plus delegate cache and RAC (inter), or a 1.04
 *  MB L2 instead (equal, 2128 sets). */
runner::JobSet figure8Jobs(double bench_scale = 1.0,
                           unsigned num_nodes = 16);

/** Figure 9: seven applications x eight intervention-delay settings
 *  on the large configuration (runs at half bench scale, as the
 *  original harness did). */
runner::JobSet figure9Jobs(double bench_scale = 1.0,
                           unsigned num_nodes = 16);

/** Figure 10: Appbt on base + enhanced systems across four network
 *  hop latencies (half bench scale). */
runner::JobSet figure10Jobs(double bench_scale = 1.0,
                            unsigned num_nodes = 16);

/** Figure 11: MG on base and seven delegate-cache sizes (0.75x
 *  bench scale). */
runner::JobSet figure11Jobs(double bench_scale = 1.0,
                            unsigned num_nodes = 16);

/** Figure 12: Appbt on base and seven RAC sizes (0.75x bench
 *  scale). */
runner::JobSet figure12Jobs(double bench_scale = 1.0,
                            unsigned num_nodes = 16);

/** Table 3: the seven applications on the base system, whose
 *  consumer-count histograms the table reports. */
runner::JobSet table3Jobs(double bench_scale = 1.0,
                          unsigned num_nodes = 16);

/** Print the Figure 7 speedup / traffic / remote-miss tables and the
 *  Section 3.2 summary from a resultsToJson() document. */
void printFigure7(const JsonValue &doc, std::FILE *out = stdout);

/** Print the Figure 8 equal-area speedups and exact cycles. */
void printFigure8(const JsonValue &doc, std::FILE *out = stdout);

/** Print the Figure 9 normalized execution-time table. */
void printFigure9(const JsonValue &doc, std::FILE *out = stdout);

/** Print the Figure 10 hop-latency sensitivity table. */
void printFigure10(const JsonValue &doc, std::FILE *out = stdout);

/** Print the Figure 11 delegate-cache sensitivity table. */
void printFigure11(const JsonValue &doc, std::FILE *out = stdout);

/** Print the Figure 12 RAC-size sensitivity table. */
void printFigure12(const JsonValue &doc, std::FILE *out = stdout);

/** Print Table 3 (consumers per producer-consumer write). */
void printTable3(const JsonValue &doc, std::FILE *out = stdout);

/** Print Table 2 (problem sizes and trace volumes). Table 2 needs no
 *  simulation -- it instantiates the suite through the runner's
 *  workload registry and reports sizes. */
void printTable2(double bench_scale = 1.0, unsigned num_nodes = 16,
                 std::FILE *out = stdout);

} // namespace figures
} // namespace pcsim

#endif // PCSIM_RUNNER_FIGURES_HH
