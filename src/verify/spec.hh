/**
 * @file
 * Declarative protocol transition specification (the conformance
 * subsystem's single source of truth).
 *
 * The spec is a table of
 *   (controller, state, event) -> {allowed next states, allowed sends}
 * covering the three protocol engines of a node:
 *  - Ctrl::Cache     over LineState (the processor-side agent),
 *  - Ctrl::Dir       over DirState incl. DELE (the home directory),
 *  - Ctrl::Producer  over the delegated-home producer-table entry.
 *
 * Three consumers share it (see DESIGN.md "Protocol conformance &
 * lint"): the static lint (`pcsim lint`, src/verify/lint.*), the
 * runtime conformance hook (src/verify/observer.*) and the
 * spec-vs-model cross-check against the src/mc 3-node abstraction.
 *
 * Semantics:
 *  - `next` is the exact set of states a handler may leave the line
 *    in; observing any other next state is a conformance violation.
 *  - `sends` is the *allowed* set of message types a handler may emit
 *    while servicing the event (a superset is a spec bug the mc
 *    cross-check cannot see; a send outside the set is a runtime
 *    violation). Handlers need not send anything.
 *  - pairs declared "impossible" are unreachable by construction
 *    (typically guarded by a panic() in the controller); observing
 *    one at runtime is a violation.
 */

#ifndef PCSIM_VERIFY_SPEC_HH
#define PCSIM_VERIFY_SPEC_HH

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/net/message.hh"

namespace pcsim::verify
{

/** Which protocol engine a transition belongs to. */
enum class Ctrl : std::uint8_t
{
    Cache,
    Dir,
    Producer,
    NumCtrls
};

const char *ctrlName(Ctrl c);

/**
 * Protocol events. The first NumMsgTypes values alias MsgType one to
 * one (a delivered message *is* the event); the tail adds synthetic
 * local events with no message on the wire.
 */
enum class PEvent : std::uint8_t
{
    // Message-delivery events (values alias MsgType).
    ReqShared,
    ReqExcl,
    ReqUpgrade,
    WritebackM,
    RespSharedData,
    RespExclData,
    RespUpgradeAck,
    WritebackAck,
    Nack,
    NackNotHome,
    HomeHint,
    Inval,
    IntervDowngrade,
    IntervTransfer,
    InvalAck,
    SharedResp,
    SharedWriteback,
    ExclResp,
    TransferAck,
    IntervNack,
    Delegate,
    Undele,
    Update,

    // Synthetic local events. Pinned at 23..30: committed conformance
    // documents embed the numeric codes, and the write-update message
    // types continue the MsgType aliasing right after this block.
    CpuLoad = 23,      ///< processor load presented to the L2
    CpuStore,          ///< processor store presented to the L2
    Evict,             ///< replacement victim leaves the array
    LocalDowngrade,    ///< producer downgrades its own M copy
    DelayedInterv,     ///< delayed self-intervention timer fires
    LocalFlush,        ///< delegated line's M copy evicted locally
    LocalWriteComplete,///< local write to a delegated line completed
    RacPressure,       ///< pinned RAC entry wants its slot back

    // Message-delivery events again (values alias MsgType).
    UpdGrant = 31,     ///< write permission + data from the home
    UpdateWB,          ///< writer returns new data to the home
    UpdateDrop,        ///< consumer leaves the update stream

    NumPEvents
};

static_assert(static_cast<unsigned>(PEvent::Update) == 22 &&
                  static_cast<unsigned>(PEvent::CpuLoad) == 23,
              "the synthetic local-event block follows the original "
              "message vocabulary");
static_assert(static_cast<unsigned>(PEvent::UpdGrant) ==
                      static_cast<unsigned>(MsgType::UpdGrant) &&
                  static_cast<unsigned>(PEvent::UpdateDrop) ==
                      static_cast<unsigned>(MsgType::UpdateDrop) &&
                  static_cast<unsigned>(PEvent::NumPEvents) ==
                      static_cast<unsigned>(MsgType::NumMsgTypes),
              "PEvent must alias MsgType exactly");

/** The event corresponding to delivery of a message of type @p t. */
constexpr PEvent
eventOf(MsgType t)
{
    return static_cast<PEvent>(t);
}

const char *eventName(PEvent e);

/** A controller state, in that controller's own encoding: raw
 *  LineState / DirState values, or 0 (None) / 1 (Shared) / 2 (Excl)
 *  for the producer table. */
using StateId = std::uint8_t;

// Producer-table states (Ctrl::Producer).
constexpr StateId prodNone = 0;   ///< no producer-table entry
constexpr StateId prodShared = 1; ///< delegated, directory not owned
constexpr StateId prodExcl = 2;   ///< delegated, producer owns the line

/** One observed transition: (controller, state, event, next). */
struct SpecTuple
{
    Ctrl ctrl = Ctrl::Cache;
    StateId state = 0;
    PEvent event = PEvent::NumPEvents;
    StateId next = 0;

    auto operator<=>(const SpecTuple &) const = default;
};

/** How an observed transition fits the spec. */
enum class Fit : std::uint8_t
{
    Ok,
    Impossible,  ///< the (state, event) pair is declared impossible
    NoRule,      ///< no rule for the (state, event) pair
    NextOutside, ///< the next state is outside the rule's allowed set
};

/** One row of the transition table. */
struct TransitionRule
{
    Ctrl ctrl = Ctrl::Cache;
    StateId state = 0;
    PEvent event = PEvent::NumPEvents;
    std::vector<StateId> next;  ///< allowed next states (non-empty)
    std::vector<MsgType> sends; ///< allowed sends while handling

    bool
    allowsNext(StateId s) const
    {
        for (StateId n : next)
            if (n == s)
                return true;
        return false;
    }

    bool
    allowsSend(MsgType t) const
    {
        return (sendMask & (1ull << static_cast<unsigned>(t))) != 0;
    }

    /** Bit per MsgType; maintained by TransitionSpec::add. */
    std::uint64_t sendMask = 0;
};

/**
 * The transition table plus per-controller state declarations,
 * initial states, and the "impossible" pair list. Lookup is O(1)
 * (dense index) so the runtime hook can afford it per handler call.
 */
class TransitionSpec
{
  public:
    struct ImpossibleEntry
    {
        Ctrl ctrl;
        StateId state;
        PEvent event;
        std::string why;
    };

    TransitionSpec();

    /** Declare a state (with display name) for @p c. */
    void declareState(Ctrl c, StateId s, std::string name);
    /** Set the state a line starts in (before any event). */
    void setInitial(Ctrl c, StateId s);

    /** Append a rule. Duplicate (ctrl, state, event) keys are kept --
     *  the lint reports them as ambiguous; lookups see the first. */
    void add(TransitionRule rule);

    /** Declare a (state, event) pair unreachable by construction. */
    void declareImpossible(Ctrl c, StateId s, PEvent e, std::string why);

    /** First rule for the key, or nullptr. */
    const TransitionRule *find(Ctrl c, StateId s, PEvent e) const;
    /** Mutable lookup; lets tests seed defects into a spec copy. */
    TransitionRule *findMutable(Ctrl c, StateId s, PEvent e);
    /** Remove every rule for the key (test seeding); true if any. */
    bool removeRule(Ctrl c, StateId s, PEvent e);

    bool isImpossible(Ctrl c, StateId s, PEvent e) const;

    /** Whether (c, s, e) -> @p next fits the spec; without @p next
     *  only the (state, event) pair is checked. The runtime observer
     *  and the lint's model cross-check both judge transitions here. */
    Fit fit(Ctrl c, StateId s, PEvent e,
            std::optional<StateId> next = std::nullopt) const;

    const std::vector<TransitionRule> &rules() const { return _rules; }
    const std::vector<ImpossibleEntry> &
    impossible() const
    {
        return _impossible;
    }

    /** Declared (state, name) pairs for @p c, in declaration order. */
    const std::vector<std::pair<StateId, std::string>> &
    states(Ctrl c) const
    {
        return _states[static_cast<unsigned>(c)];
    }

    std::string stateName(Ctrl c, StateId s) const;
    StateId
    initialState(Ctrl c) const
    {
        return _initial[static_cast<unsigned>(c)];
    }

    /** The events a controller can observe at all (drives the
     *  unhandled-pair lint pass). The static lists describe the
     *  original MESI-dir+DELE stack. */
    static const std::vector<PEvent> &relevantEvents(Ctrl c);

    /** Per-spec override of relevantEvents (policy specs observe a
     *  different event vocabulary; see src/protocol/policy.hh). */
    void setRelevantEvents(Ctrl c, std::vector<PEvent> events);

    /** The relevant-event list lint uses for this spec: the override
     *  when set, else the static default. */
    const std::vector<PEvent> &relevant(Ctrl c) const;

  private:
    static constexpr unsigned kMaxStates = 16;
    static constexpr unsigned kNumEvents =
        static_cast<unsigned>(PEvent::NumPEvents);
    static constexpr unsigned kIndexSize =
        static_cast<unsigned>(Ctrl::NumCtrls) * kMaxStates * kNumEvents;

    static unsigned
    keyOf(Ctrl c, StateId s, PEvent e)
    {
        return (static_cast<unsigned>(c) * kMaxStates + s) * kNumEvents +
               static_cast<unsigned>(e);
    }

    void rebuildIndex();

    std::vector<TransitionRule> _rules;
    std::vector<ImpossibleEntry> _impossible;
    /** Per-controller relevantEvents overrides (empty = default). */
    std::vector<PEvent> _relevant[static_cast<unsigned>(Ctrl::NumCtrls)];
    std::vector<std::pair<StateId, std::string>>
        _states[static_cast<unsigned>(Ctrl::NumCtrls)];
    StateId _initial[static_cast<unsigned>(Ctrl::NumCtrls)] = {0, 0, 0};
    /** Index of the first rule per key, or -1. */
    std::vector<std::int16_t> _ruleIndex;
    std::vector<bool> _impossibleIndex;
};

/** Build the shipped spec for the full HPCA'07 protocol (base +
 *  delegation + speculative updates). */
TransitionSpec buildProtocolSpec();

/** Shared immutable instance of buildProtocolSpec(). */
const TransitionSpec &protocolSpec();

/** Build the spec for the Dragon-style write-update policy: the dir
 *  serializes write episodes through BUSY_UPD (UpdGrant/UpdateWB) and
 *  caches only ever hold INVALID or SHARED lines. */
TransitionSpec buildWriteUpdateSpec();

/** Shared immutable instance of buildWriteUpdateSpec(). */
const TransitionSpec &writeUpdateSpec();

/** Build the spec for the per-line adaptive hybrid: the write-update
 *  spec plus consumer self-invalidation (Update -> I + UpdateDrop). */
TransitionSpec buildAdaptiveHybridSpec();

/** Shared immutable instance of buildAdaptiveHybridSpec(). */
const TransitionSpec &adaptiveHybridSpec();

} // namespace pcsim::verify

#endif // PCSIM_VERIFY_SPEC_HH
