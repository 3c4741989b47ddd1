/**
 * @file
 * Recently-invalidated-lines buffer of the processor-side controller.
 *
 * A speculative UPDATE that was already in flight when its line was
 * undelegated can arrive AFTER the next writer's invalidation (no
 * point-to-point ordering between the two sources). Each Inval records
 * the superseded epoch here; updates at or below it are dropped.
 *
 * Modeled as the hardware would build it: a FIFO of the last
 * `capacity` distinct lines. Re-recording a present line keeps its
 * FIFO position and takes the larger version; a new line beyond
 * capacity displaces the oldest.
 */

#ifndef PCSIM_CACHE_TOMBSTONE_BUFFER_HH
#define PCSIM_CACHE_TOMBSTONE_BUFFER_HH

#include <cstdint>
#include <vector>

#include "src/sim/addr_map.hh"
#include "src/sim/types.hh"

namespace pcsim
{

/** Bounded FIFO map of line -> last invalidated version. */
class TombstoneBuffer
{
  public:
    static constexpr std::size_t capacity = 128;

    /** Record that @p line was invalidated at epoch @p version. */
    void
    record(Addr line, Version version)
    {
        if (Version *cur = _versions.find(line)) {
            if (version > *cur)
                *cur = version;
            return;
        }
        if (_fifo.size() < capacity) {
            _fifo.push_back(line);
        } else {
            _versions.erase(_fifo[_oldest]);
            _fifo[_oldest] = line;
            _oldest = (_oldest + 1) % capacity;
        }
        _versions[line] = version;
    }

    /** Version recorded for @p line, or nullptr. */
    const Version *find(Addr line) const { return _versions.find(line); }

    /** Lines currently recorded. */
    std::size_t size() const { return _versions.size(); }

  private:
    AddrMap<Version> _versions;
    /** Recorded lines in arrival order, as a ring once full. */
    std::vector<Addr> _fifo;
    std::size_t _oldest = 0; ///< ring slot of the oldest line when full
};

} // namespace pcsim

#endif // PCSIM_CACHE_TOMBSTONE_BUFFER_HH
