/**
 * @file
 * Static conformance lint over the declarative transition spec
 * (`pcsim lint`), plus the transition-coverage report
 * (`pcsim lint --coverage <results.json>`).
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
 *                   allowed set), or its exploration failed (an
 *                   invariant violation or a hard deadlock).
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

/** Outcome of the lint passes. */
struct LintReport
{
    std::vector<LintFinding> findings;

    // Model cross-check statistics (zero when the pass was skipped).
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

/** Static passes plus the model cross-check: explore the 3-node
 *  abstraction under every configuration in @p set and check each
 *  transition taken against @p spec. The default set covers the
 *  MESI-dir + delegation stack (base, delegation, delegation+updates)
 *  and keeps the historical single-argument behaviour. */
LintReport lintSpecWithModel(const TransitionSpec &spec,
                             McCheckSet set = McCheckSet::MesiDele);

JsonValue lintToJson(const TransitionSpec &spec, const LintReport &r);
std::string lintToCsv(const LintReport &r);

/** Findings serialized as the JSON array every lint mode shares
 *  ({"kind", "controller", "state", "event", "detail"} objects). */
JsonValue lintFindingsJson(const std::vector<LintFinding> &findings);

/** lintToJson's body as a per-policy fragment ({"policy": name,
 *  "spec", "model"?, "findings"}) for the combined --policy=all
 *  document. */
JsonValue lintPolicyJson(const std::string &policy,
                         const TransitionSpec &spec,
                         const LintReport &r);

/** Wrap per-policy fragments into the combined multi-policy document:
 *  {"schemaVersion": 1, "generator": "pcsim-lint", "mode": mode,
 *   "policies": [...]}. Used by `pcsim lint --json` for --policy=all
 *  and for the liveness / mdg modes (the classic single-policy
 *  document keeps its historical lintToJson shape). */
JsonValue lintFindingsDocument(const std::string &mode,
                               JsonValue policies);

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
