/**
 * @file
 * Abstract (untimed) model of the pcsim coherence protocol for
 * explicit-state checking -- the analogue of the paper's extended
 * DASH Murphi model (Section 2.5).
 *
 * Configuration-size class: N nodes (default 3), one cache line, a
 * bounded number of reads and writes per node, per-pair FIFO channels
 * of bounded depth. Mechanisms (delegation, speculative updates) can
 * be switched on and off so the base protocol and each extension are
 * verified separately.
 *
 * Invariants checked at every reachable state:
 *  - single writer: at most one M copy, and no other readable copy
 *    coexists with it once its write has performed,
 *  - data value ("consistency within the directory"): every readable
 *    copy carries the current version, except a producer's pinned
 *    surrogate shadowed by its own M copy,
 *  - directory consistency: owner/sharers cover the actual holders,
 *  - bounded channels never overflow.
 * Deadlock (a non-quiescent state with no enabled transition) is
 * recorded by the GraphExplorer.
 *
 * The model speaks the controllers' own vocabulary: messages are
 * MsgType values (ReqExcl stands for both ReqExcl and ReqUpgrade --
 * the model does not distinguish upgrades), caches hold LineState
 * Invalid / Shared / Modified, the home is a DirState, and the
 * producer table reports the spec's prod* StateIds. Its transitions
 * are therefore spec tuples with no translation layer in between.
 */

#ifndef PCSIM_MC_PROTOCOL_MODEL_HH
#define PCSIM_MC_PROTOCOL_MODEL_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/cache/line_state.hh"
#include "src/mc/explorer.hh"
#include "src/mem/directory.hh"
#include "src/net/message.hh"
#include "src/verify/spec.hh"

namespace pcsim
{
namespace mc
{

constexpr unsigned maxNodes = 4;
constexpr unsigned chanDepth = 4;

/** The message types the model carries (the mdg lint reports the
 *  rest of the spec's vocabulary as unmodeled). */
constexpr MsgType modeledMessages[] = {
    MsgType::ReqShared,      MsgType::ReqExcl,
    MsgType::RespSharedData, MsgType::RespExclData,
    MsgType::Inval,          MsgType::InvalAck,
    MsgType::IntervDowngrade, MsgType::IntervTransfer,
    MsgType::SharedResp,     MsgType::SharedWriteback,
    MsgType::ExclResp,       MsgType::TransferAck,
    MsgType::IntervNack,     MsgType::Nack,
    MsgType::NackNotHome,    MsgType::Delegate,
    MsgType::Undele,         MsgType::Update,
    MsgType::UpdGrant,       MsgType::UpdateWB,
    MsgType::UpdateDrop,
};

/** An abstract in-flight message. */
struct MMsg
{
    MsgType type{};
    std::uint8_t requester = 0;
    std::uint8_t version = 0;
    std::uint8_t acks = 0;
    std::uint8_t sharers = 0;
    std::uint8_t owner = 0xf;
    /** Transaction sequence tag (mirrors Message::txnId, mod 8). */
    std::uint8_t seq = 0;

    bool
    operator==(const MMsg &o) const
    {
        return type == o.type && requester == o.requester &&
               version == o.version && acks == o.acks &&
               sharers == o.sharers && owner == o.owner &&
               seq == o.seq;
    }
};

/** Model parameters. */
struct ModelConfig
{
    unsigned nodes = 3;
    unsigned home = 0;
    unsigned maxWrites = 2; ///< total writes across all nodes
    unsigned maxReads = 2;  ///< reads per node
    bool delegation = false;
    bool updates = false;
    /** Detector threshold abstracted away: any writer with the line
     *  SHARED at the home may be delegated (nondeterministically),
     *  which over-approximates the detector's choices. */

    /** Dragon-style write-update policy: the home serializes write
     *  episodes through BusyUpd (UpdGrant / UpdateWB) and sharers are
     *  refreshed in place; mutually exclusive with delegation. */
    bool writeUpdate = false;
    /** Adaptive hybrid on top of writeUpdate: a sharer receiving a
     *  push may nondeterministically self-invalidate and UpdDrop,
     *  which over-approximates the stale-update counter. */
    bool adaptive = false;
    /** Seeded defect for the liveness lint's golden tests: the home
     *  consumes UpdateWB without closing the BusyUpd episode, so every
     *  later request NACKs forever -- a non-progress retry loop the
     *  fairness-constrained SCC analysis must flag. Never set by any
     *  registered policy's check set. */
    bool defectStallUpdateWB = false;
    /** Parked-request arbitration (ProtocolConfig::Arbitration queue /
     *  aged-priority): busy home and producer controllers absorb one
     *  request into a parked slot instead of NACKing, and drain it as
     *  a spontaneous transition once the episode closes (a depth-1
     *  abstraction of the bounded per-line queue; a second concurrent
     *  request falls back to NACK exactly like queue overflow). */
    bool homeQueue = false;

    bool operator==(const ModelConfig &) const = default;
};

/**
 * Observer of abstract-model FSM transitions, used by the lint pass
 * to cross-check the declarative transition spec against the model's
 * reachable transition relation. Each step is reported as the spec
 * tuple it is: (controller, state, event, next state).
 */
class TransitionListener
{
  public:
    virtual ~TransitionListener() = default;
    virtual void onTransition(verify::Ctrl ctrl, verify::StateId pre,
                              verify::PEvent event,
                              verify::StateId post) = 0;
};

/** The abstract protocol model (see file header). */
class ProtocolModel
{
  public:
    struct State
    {
        // Per node.
        std::array<LineState, maxNodes> cache{};
        std::array<std::uint8_t, maxNodes> cacheV{};
        // MSHR: 0 none, 1 read pending, 2 write pending.
        std::array<std::uint8_t, maxNodes> mshr{};
        std::array<std::uint8_t, maxNodes> mshrHaveData{};
        std::array<std::uint8_t, maxNodes> mshrV{};
        std::array<std::int8_t, maxNodes> mshrAcksNeed{};
        std::array<std::uint8_t, maxNodes> mshrAcksGot{};
        std::array<std::uint8_t, maxNodes> readsLeft{};
        std::array<std::uint8_t, maxNodes> lastSeen{};
        /** Read fill invalidated mid-flight: complete uncached. */
        std::array<std::uint8_t, maxNodes> fillInval{};
        /** Tombstone epoch: pushes at or below it are stale. */
        std::array<std::uint8_t, maxNodes> tombV{};
        /** Outstanding transaction sequence tag per node (mod 8). */
        std::array<std::uint8_t, maxNodes> mshrSeq{};

        // Home directory.
        DirState dir = DirState::Unowned;
        std::uint8_t sharers = 0;
        std::uint8_t owner = 0xf;
        std::uint8_t pendReq = 0xf;
        std::uint8_t pendOwner = 0xf;
        std::uint8_t pendIsWrite = 0;
        std::uint8_t pendSeq = 0; ///< pending requester's seq tag
        std::uint8_t memV = 0;

        // Producer table (at most one delegate for the single line).
        std::uint8_t prodValid = 0;
        std::uint8_t prodNode = 0xf;
        std::uint8_t prodIsExcl = 0;
        std::uint8_t prodSharers = 0;
        std::uint8_t prodV = 0;
        std::uint8_t intervPending = 0;

        // Parked-request slots (homeQueue only): 0 none, 1 ReqS,
        // 2 ReqX, for the home directory and the producer table.
        std::uint8_t parkedType = 0;
        std::uint8_t parkedReq = 0xf;
        std::uint8_t parkedSeq = 0;
        std::uint8_t prodParkedType = 0;
        std::uint8_t prodParkedReq = 0xf;
        std::uint8_t prodParkedSeq = 0;

        // Consumer RAC copies (bitmask) + their versions.
        std::uint8_t racMask = 0;
        std::array<std::uint8_t, maxNodes> racV{};

        // Global bounds / oracle.
        std::uint8_t writesLeft = 0;
        std::uint8_t curV = 0;

        // Channels: per (src,dst) FIFO.
        std::array<std::array<std::array<MMsg, chanDepth>, maxNodes>,
                   maxNodes>
            chan{};
        std::array<std::array<std::uint8_t, maxNodes>, maxNodes>
            chanLen{};

        bool operator==(const State &o) const;
    };

    explicit ProtocolModel(ModelConfig cfg = {}) : _cfg(cfg) {}

    State initial() const;
    void transitions(const State &s, std::vector<State> &out) const;
    void checkInvariants(const State &s) const;
    bool isQuiescent(const State &s) const;
    std::string describe(const State &s) const;
    /** Focused deadlock diagnostics: the blocked state's pending-op
     *  set and per-channel occupancy (src->dst fill/depth plus the
     *  queued message types), appended to deadlock findings. */
    std::string blockedSummary(const State &s) const;
    std::uint64_t hash(const State &s) const;
    bool equal(const State &a, const State &b) const { return a == b; }

    const ModelConfig &config() const { return _cfg; }

    /** Attach a transition observer (null to detach). Every FSM step
     *  taken while generating successors is reported to it. */
    void setListener(TransitionListener *l) { _listener = l; }

  private:
    bool send(State &s, unsigned src, unsigned dst,
              const MMsg &m) const;
    void deliver(State &s, unsigned src, unsigned dst,
                 std::vector<State> &out) const;
    void applyAtHome(State s, unsigned src, const MMsg &m,
                     std::vector<State> &out) const;
    void applyAtNode(State s, unsigned dst, unsigned src,
                     const MMsg &m, std::vector<State> &out) const;
    void completeWrite(State &s, unsigned n) const;
    void maybeComplete(State &s, unsigned n) const;
    bool undelegate(State &s, unsigned p, std::uint8_t pend_req,
                    std::uint8_t pend_is_write,
                    std::uint8_t pend_seq) const;

    ModelConfig _cfg;
    TransitionListener *_listener = nullptr;
};

} // namespace mc
} // namespace pcsim

#endif // PCSIM_MC_PROTOCOL_MODEL_HH
