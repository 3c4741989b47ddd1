/**
 * @file
 * Generic explicit-state model checking engine (Section 2.5).
 *
 * The paper verified its mechanisms with Murphi: "we built a formal
 * model of our protocols and performed an exhaustive reachability
 * analysis of the model for a small configuration size". This engine
 * provides the same method: breadth-first exploration of a model's
 * state space with invariant checking at every state and deadlock
 * detection (a non-quiescent state with no enabled transition).
 * Exploration and analysis are separate: GraphExplorer returns the
 * state graph, and the lint passes (src/verify/liveness.hh) analyze
 * it.
 *
 * A Model must provide:
 *   using State = ...;                    // copyable, hashable
 *   State initial() const;
 *   void transitions(const State &,       // enumerate successors
 *                    std::vector<State> &out) const;
 *   void checkInvariants(const State &) const; // throw McError
 *   bool isQuiescent(const State &) const;     // done states may
 *                                              // have no successors
 *   std::string describe(const State &) const;
 *   std::uint64_t hash(const State &) const;
 *   bool equal(const State &, const State &) const;
 */

#ifndef PCSIM_MC_EXPLORER_HH
#define PCSIM_MC_EXPLORER_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace pcsim
{

/** Raised by a model when an invariant fails. */
class McError : public std::runtime_error
{
  public:
    explicit McError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/**
 * Breadth-first explorer that retains the full explored state graph
 * for offline analyses (the liveness lint's fairness-constrained SCC
 * pass). It *records* hard deadlocks instead of throwing -- callers
 * turn them into findings with witnesses -- while invariant
 * violations throw McError.
 */
template <typename Model>
class GraphExplorer
{
  public:
    using State = typename Model::State;

    struct Graph
    {
        /** Discovered states in BFS order; index 0 is the initial
         *  state and indices double as state ids. */
        std::vector<State> states;
        /** Forward adjacency, deduplicated, discovery order. */
        std::vector<std::vector<std::uint32_t>> succ;
        /** BFS tree parent (parent[0] == 0): a shortest path from the
         *  initial state to any id follows parents backwards. */
        std::vector<std::uint32_t> parent;
        std::vector<bool> quiescent;
        /** Non-quiescent states with no enabled transition. */
        std::vector<std::uint32_t> deadlocks;
        std::uint64_t transitionsTaken = 0;
        bool completed = false; ///< false if the state limit was hit
    };

    explicit GraphExplorer(const Model &model,
                           std::uint64_t max_states = 5'000'000)
        : _model(model), _maxStates(max_states)
    {
    }

    /** Explore and return the graph. @throws McError on an invariant
     *  violation (but not on deadlock -- see Graph::deadlocks). */
    Graph
    run()
    {
        Graph g;
        std::unordered_map<std::uint64_t, std::vector<std::uint32_t>>
            visited;

        auto idOf = [&](const State &s, bool &fresh) {
            auto &bucket = visited[_model.hash(s)];
            for (std::uint32_t id : bucket) {
                if (_model.equal(s, g.states[id])) {
                    fresh = false;
                    return id;
                }
            }
            fresh = true;
            const auto id = static_cast<std::uint32_t>(g.states.size());
            bucket.push_back(id);
            g.states.push_back(s);
            g.succ.emplace_back();
            g.parent.push_back(id);
            g.quiescent.push_back(_model.isQuiescent(s));
            return id;
        };

        auto check = [this](const State &st) {
            try {
                _model.checkInvariants(st);
            } catch (const McError &e) {
                throw McError(std::string(e.what()) + "\nin state:\n" +
                              _model.describe(st));
            }
        };

        bool fresh = false;
        State init = _model.initial();
        check(init);
        std::deque<std::uint32_t> frontier{idOf(init, fresh)};

        std::vector<State> succ;
        while (!frontier.empty()) {
            if (g.states.size() > _maxStates)
                return g; // bounded run: completed stays false

            const std::uint32_t id = frontier.front();
            frontier.pop_front();
            // Copy: expanding may grow (reallocate) g.states.
            const State s = g.states[id];

            succ.clear();
            try {
                _model.transitions(s, succ);
            } catch (const McError &e) {
                throw McError(std::string(e.what()) +
                              "\nwhile expanding state:\n" +
                              _model.describe(s));
            }
            if (succ.empty() && !g.quiescent[id])
                g.deadlocks.push_back(id);
            for (State &n : succ) {
                ++g.transitionsTaken;
                check(n);
                const std::uint32_t nid = idOf(n, fresh);
                if (fresh) {
                    g.parent[nid] = id;
                    frontier.push_back(nid);
                }
                auto &out = g.succ[id];
                if (std::find(out.begin(), out.end(), nid) ==
                    out.end())
                    out.push_back(nid);
            }
        }
        g.completed = true;
        return g;
    }

  private:
    const Model &_model;
    std::uint64_t _maxStates;
};

} // namespace pcsim

#endif // PCSIM_MC_EXPLORER_HH
