/**
 * @file
 * NUMALink-4-style fat-tree topology.
 *
 * Non-leaf routers have eight children (Section 3.1). For the default
 * 16-node system that means two leaf routers under one root: traffic
 * between nodes on the same leaf router crosses 1 router hop, traffic
 * across leaves crosses 2. Latency per hop is configurable (Table 1:
 * 100 processor cycles = 50 ns at 2 GHz; Figure 10 sweeps 25-200 ns).
 */

#ifndef PCSIM_NET_TOPOLOGY_HH
#define PCSIM_NET_TOPOLOGY_HH

#include <array>
#include <cstdint>

#include "src/sim/logging.hh"
#include "src/sim/types.hh"

namespace pcsim
{

/** Fat tree (radix 8 by default, any power of two) over @c numNodes
 *  leaves. */
class FatTreeTopology
{
  public:
    explicit FatTreeTopology(unsigned num_nodes, unsigned radix = 8)
        : _numNodes(num_nodes), _radix(radix)
    {
        if (num_nodes == 0)
            fatal("topology needs at least one node");
        if (num_nodes >= invalidNode)
            fatal("topology: %u leaves exceed the NodeId range",
                  num_nodes);
        if (radix < 2 || (radix & (radix - 1)) != 0)
            fatal("router radix must be a power of two >= 2, got %u",
                  radix);
        // Any leaf count is legal, not just powers of the radix: a
        // partially filled last router level simply leaves ports
        // unused.
        // Depth of the tree: number of router levels needed so that
        // radix^depth >= numNodes.
        _depth = 1;
        std::uint64_t reach = _radix;
        while (reach < _numNodes) {
            reach *= _radix;
            ++_depth;
        }
        // A power-of-two radix makes each tree level a fixed group of
        // id bits, so the common-ancestor level is a function of the
        // highest bit in which the two ids differ: tabulate it.
        const unsigned bits = static_cast<unsigned>(__builtin_ctz(radix));
        for (unsigned b = 0; b < _hopsByTopBit.size(); ++b)
            _hopsByTopBit[b] = static_cast<std::uint8_t>(b / bits + 1);
    }

    unsigned numNodes() const { return _numNodes; }
    unsigned radix() const { return _radix; }
    unsigned depth() const { return _depth; }

    /**
     * Number of router-to-router / node-to-router hops a message
     * traverses from @p src to @p dst. Local delivery is 0 hops;
     * nodes under the same leaf router are 1 hop apart; each extra
     * tree level adds 1 hop (up through the common ancestor).
     */
    unsigned
    hops(NodeId src, NodeId dst) const
    {
        if (src == dst)
            return 0;
        return _hopsByTopBit[31 - __builtin_clz(unsigned{src} ^
                                                unsigned{dst})];
    }

    /** Largest hop count possible in this topology. */
    unsigned maxHops() const { return _depth; }

    /** Fewest hops any message between two *different leaf routers*
     *  can traverse: 2 (up to the parent, down again) whenever the
     *  system spans more than one leaf, else there is no cross-leaf
     *  pair and the minimum degenerates to hops between distinct
     *  nodes (1) or zero for a single node. */
    unsigned
    minCrossLeafHops() const
    {
        if (_numNodes > _radix)
            return 2;
        return _numNodes > 1 ? 1 : 0;
    }

    /** Network latency floor for any message between nodes on
     *  different leaf routers, given the per-hop latency. This is the
     *  conservative-parallel lookahead source: with leaf-aligned
     *  shards, every cross-shard message spends at least this long in
     *  router hops before it can arrive. */
    Tick
    minCrossLeafLatencyTicks(Tick hop_latency) const
    {
        return hop_latency * minCrossLeafHops();
    }

  private:
    unsigned _numNodes;
    unsigned _radix;
    unsigned _depth;
    /** Hops between two distinct ids, indexed by the highest id bit
     *  in which they differ. */
    std::array<std::uint8_t, 32> _hopsByTopBit{};
};

} // namespace pcsim

#endif // PCSIM_NET_TOPOLOGY_HH
