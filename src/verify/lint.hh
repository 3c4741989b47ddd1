/**
 * @file
 * Static conformance passes over the declarative transition spec (run
 * by `pcsim lint`, see src/verify/check.hh), plus the transition-
 * coverage report (`pcsim lint --coverage <results.json>`).
 *
 * Finding classes:
 *  - "unhandled":   a declared state has neither a rule nor an
 *                   impossible declaration for a relevant event,
 *  - "ambiguous":   duplicate rules for one (state, event) key, or a
 *                   key both ruled and declared impossible,
 *  - "unreachable": a declared state no chain of rules can reach from
 *                   the controller's initial state,
 *  - "mc-mismatch": the src/mc 3-node abstraction, explored
 *                   exhaustively, takes a transition the spec does not
 *                   admit (TransitionSpec::fit: missing rule,
 *                   impossible pair, or a next state outside the
 *                   allowed set). Raised by the model cross-check in
 *                   checkSpec(); a model that breaks an invariant or
 *                   deadlocks is reported by the liveness pass.
 *
 * The coverage report inverts the runtime feed: it lists every legal
 * (state, event, next) tuple the spec admits and how often recorded
 * runs exercised it, flagging the never-exercised ones.
 */

#ifndef PCSIM_VERIFY_LINT_HH
#define PCSIM_VERIFY_LINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/json.hh"
#include "src/verify/observer.hh"
#include "src/verify/spec.hh"

namespace pcsim::verify
{

/** One lint finding (all fields display-ready). */
struct LintFinding
{
    std::string kind;   ///< finding class (see file header)
    std::string ctrl;   ///< controller name
    std::string state;  ///< state name ("" when not state-specific)
    std::string event;  ///< event name ("" when not event-specific)
    std::string detail; ///< human-readable explanation
};

/** Outcome of the static passes and the model cross-check. */
struct LintReport
{
    std::vector<LintFinding> findings;

    // Model cross-check statistics (zero when no model was explored).
    std::uint64_t mcConfigs = 0;
    std::uint64_t mcStates = 0;
    std::uint64_t mcObserved = 0; ///< distinct model transitions

    bool clean() const { return findings.empty(); }
};

/** Run the static passes (unhandled / ambiguous / unreachable). */
LintReport lintSpec(const TransitionSpec &spec);

/** Which family of abstract-model configurations the cross-check
 *  explores (each spec is checked against the models of the policy it
 *  describes; see src/protocol/policy.hh). */
enum class McCheckSet
{
    MesiDele,      ///< base, delegation, delegation+updates
    WriteUpdate,   ///< Dragon-style write-update
    AdaptiveHybrid ///< write-update plus nondeterministic drops
};

/** One legal spec transition with its observed exercise count. */
struct CoverageRow
{
    Ctrl ctrl;
    StateId state;
    PEvent event;
    StateId next;
    std::uint64_t count = 0;
};

/** Spec-transition coverage accumulated over recorded runs. */
struct CoverageReport
{
    std::vector<CoverageRow> rows; ///< every legal tuple, spec order
    std::uint64_t legal = 0;       ///< rows.size()
    std::uint64_t exercised = 0;   ///< rows with count > 0
};

/** Fold @p observed (merged across runs) onto the legal tuples of
 *  @p spec. Observed tuples outside the spec are ignored here -- the
 *  runtime hook already fails such runs. */
CoverageReport computeCoverage(const TransitionSpec &spec,
                               const std::vector<TransitionCount> &observed);

JsonValue coverageToJson(const TransitionSpec &spec,
                         const CoverageReport &r);
std::string coverageToCsv(const TransitionSpec &spec,
                          const CoverageReport &r);

} // namespace pcsim::verify

#endif // PCSIM_VERIFY_LINT_HH
