/**
 * @file
 * `pcsim lint`: every static analysis of a transition spec in one
 * pass, and the one report they share.
 *
 * The four analyses of a spec are the static passes (lintSpec), the
 * model cross-check, the message-dependency graph (analyzeMdg) and
 * liveness. The two model analyses read one cached exploreModel()
 * result per configuration, and each model defect is reported once:
 *  - a transition the spec does not admit: one "mc-mismatch" finding
 *    per distinct spec tuple (the cross-check reports nothing else),
 *  - an invariant violation: one "invariant" finding,
 *  - a hard deadlock or a livelock: one "deadlock" / "livelock"
 *    finding with its witness.
 *
 * The analysis unit is a distinct (spec, McCheckSet): the three
 * MESI-dir + delegation policies run the same spec against the same
 * model family, so `pcsim lint` checks it once and names all three.
 */

#ifndef PCSIM_VERIFY_CHECK_HH
#define PCSIM_VERIFY_CHECK_HH

#include <cstddef>
#include <string>
#include <vector>

#include "src/sim/json.hh"
#include "src/verify/lint.hh"
#include "src/verify/liveness.hh"
#include "src/verify/mdg.hh"
#include "src/verify/spec.hh"

namespace pcsim::verify
{

/** Every analysis of one spec against its model configurations. */
struct SpecReport
{
    const TransitionSpec *spec = nullptr;
    /** Policies that run this spec (filled by checkPolicies). */
    std::vector<std::string> policies;
    LintReport lint;         ///< static passes + model cross-check
    MdgReport mdg;           ///< message-dependency graph
    LivenessReport liveness; ///< per-config stats + model findings

    std::size_t
    findings() const
    {
        return lint.findings.size() + mdg.findings.size() +
               liveness.findings.size();
    }
};

/** Run all four analyses of @p spec; the model passes explore each of
 *  @p configs (once per process, see exploreModel). */
SpecReport checkSpec(const TransitionSpec &spec,
                     const std::vector<NamedModelConfig> &configs);

/** A policy to lint: its name, spec and model-configuration family. */
struct PolicySpec
{
    std::string name;
    const TransitionSpec *spec;
    McCheckSet set;
};

/** checkSpec() once per distinct (spec, set) among @p policies, in
 *  order of first appearance, each report naming its policies. */
std::vector<SpecReport> checkPolicies(const std::vector<PolicySpec> &policies);

/** The `pcsim lint --json` document:
 *  {"schemaVersion": 2, "generator": "pcsim-lint", "specs": [...]},
 *  one entry per report with its policies, spec size, model cross-
 *  check totals, MDG summary, per-config exploration stats and
 *  findings (model findings carry their config and witness). */
JsonValue lintDocument(const std::vector<SpecReport> &reports);

} // namespace pcsim::verify

#endif // PCSIM_VERIFY_CHECK_HH
