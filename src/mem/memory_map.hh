/**
 * @file
 * Global address -> home node mapping with SGI first-touch placement.
 *
 * The first node to touch a page becomes its home (Section 3.2: "Data
 * placement is done by SGI's first-touch policy"). A round-robin mode
 * is available for experiments that want placement-independent homes.
 */

#ifndef PCSIM_MEM_MEMORY_MAP_HH
#define PCSIM_MEM_MEMORY_MAP_HH

#include <cstdint>

#include "src/sim/addr_map.hh"
#include "src/sim/logging.hh"
#include "src/sim/types.hh"

namespace pcsim
{

/** Page placement policy. */
enum class Placement
{
    FirstTouch,
    RoundRobin,
};

/** Maps pages of the simulated physical address space to home nodes. */
class MemoryMap
{
  public:
    MemoryMap(unsigned num_nodes, std::uint32_t page_bytes = 16 * 1024,
              Placement policy = Placement::FirstTouch)
        : _numNodes(num_nodes), _pageBytes(page_bytes), _policy(policy)
    {
        if (num_nodes == 0)
            fatal("memory map needs nodes");
        if (num_nodes >= invalidNode)
            fatal("memory map: %u nodes exceed the NodeId range",
                  num_nodes);
        if (page_bytes == 0 || (page_bytes & (page_bytes - 1)) != 0)
            fatal("memory map page size %u is not a power of two",
                  page_bytes);
        _pageShift = static_cast<unsigned>(__builtin_ctz(page_bytes));
    }

    std::uint32_t pageBytes() const { return _pageBytes; }

    /**
     * Declare [base, base + size) line-interleaved: line i of the
     * region is homed at node i % numNodes, independent of touch
     * order. The System uses this for the barrier flag region, whose
     * lines all share one page: per-page first-touch would pile every
     * CPU's flag onto one home (a synchronization hot spot), and the
     * winning toucher would depend on event timing. Interleaving is
     * the content-determined analog of each CPU first-touching its
     * own flag line -- flag k lands on node k.
     */
    void
    setInterleavedRegion(Addr base, Addr size, std::uint32_t line_bytes)
    {
        if (line_bytes == 0 || (line_bytes & (line_bytes - 1)) != 0)
            fatal("interleaved region line size %u is not a power of "
                  "two",
                  line_bytes);
        _ilBase = base;
        _ilSize = size;
        _ilLineShift = static_cast<unsigned>(__builtin_ctz(line_bytes));
    }

    /**
     * Home node of @p addr; @p toucher claims unplaced pages under
     * first-touch.
     */
    NodeId
    homeOf(Addr addr, NodeId toucher)
    {
        if (addr - _ilBase < _ilSize)
            return interleavedHome(addr);
        const Addr page = addr >> _pageShift;
        if (_policy == Placement::RoundRobin)
            return static_cast<NodeId>(page % _numNodes);
        if (const NodeId *home = _pages.find(page))
            return *home;
        if (_frozen)
            panic("homeOf: page of 0x%llx touched after the map "
                  "was frozen (pre-placement missed it)",
                  (unsigned long long)addr);
        return _pages[page] = toucher;
    }

    /** Home of an already-placed page (panics if unplaced). */
    NodeId
    homeOf(Addr addr) const
    {
        if (addr - _ilBase < _ilSize)
            return interleavedHome(addr);
        const Addr page = addr >> _pageShift;
        if (_policy == Placement::RoundRobin)
            return static_cast<NodeId>(page % _numNodes);
        const NodeId *home = _pages.find(page);
        if (!home)
            panic("homeOf: page of 0x%llx not placed",
                  (unsigned long long)addr);
        return *home;
    }

    /** Pre-place a page explicitly (workload initialization). */
    void
    place(Addr addr, NodeId home)
    {
        _pages[addr >> _pageShift] = home;
    }

    std::size_t numPlacedPages() const { return _pages.size(); }

    /**
     * Forbid further first-touch inserts. The System freezes the map
     * after deterministic trace-based pre-placement so concurrent
     * shard workers only ever *read* it; a touch of an unplaced page
     * afterwards is a pre-placement bug and panics.
     */
    void freeze() { _frozen = true; }
    bool frozen() const { return _frozen; }

  private:
    /** Line i of the interleaved region is homed at i % numNodes. */
    NodeId
    interleavedHome(Addr addr) const
    {
        const Addr i = (addr - _ilBase) >> _ilLineShift;
        return static_cast<NodeId>(i < _numNodes ? i : i % _numNodes);
    }

    unsigned _numNodes;
    std::uint32_t _pageBytes;
    Placement _policy;
    /** Line-interleaved region (size 0 = none); the subtraction in
     *  homeOf wraps for addr < base, making the range check one
     *  compare. */
    Addr _ilBase = 0;
    Addr _ilSize = 0;
    unsigned _ilLineShift = 0;
    unsigned _pageShift = 0;
    bool _frozen = false;
    /** Page number -> home node. */
    AddrMap<NodeId> _pages;
};

} // namespace pcsim

#endif // PCSIM_MEM_MEMORY_MAP_HH
