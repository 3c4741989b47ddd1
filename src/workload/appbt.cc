#include "src/workload/appbt.hh"

#include <sstream>
#include <stdexcept>

namespace pcsim
{

AppbtWorkload::AppbtWorkload(unsigned num_cpus, AppbtParams p)
    : TraceWorkload("Appbt", num_cpus), _p(p)
{
    if (_p.procs[0] * _p.procs[1] * _p.procs[2] != num_cpus)
        throw std::invalid_argument(
            "Appbt processor grid does not match CPU count");

    // Init: first-touch own faces for all three dimensions.
    for (unsigned cpu = 0; cpu < num_cpus; ++cpu) {
        auto &t = cpuTrace(cpu);
        for (unsigned d = 0; d < 3; ++d) {
            for (unsigned l = 0; l < faceLines(d); ++l)
                t.push_back(MemOp::write(faceLine(cpu, d, l)));
        }
        t.push_back(MemOp::barrier());
    }

    // Timesteps: one sweep per dimension. The consume phase reads the
    // upstream neighbour's face (produced last sweep); after a
    // barrier the produce phase writes this subcube's face. The
    // split mirrors BT's forward-elimination data dependence.
    for (unsigned it = 0; it < _p.iterations; ++it) {
        for (unsigned d = 0; d < 3; ++d) {
            for (unsigned x = 0; x < _p.procs[0]; ++x) {
                for (unsigned y = 0; y < _p.procs[1]; ++y) {
                    for (unsigned z = 0; z < _p.procs[2]; ++z) {
                        const unsigned cpu = cpuAt(x, y, z);
                        auto &t = cpuTrace(cpu);
                        // Upstream neighbour along dimension d.
                        unsigned c[3] = {x, y, z};
                        bool has_up = c[d] > 0;
                        unsigned up = 0;
                        if (has_up) {
                            unsigned u[3] = {x, y, z};
                            --u[d];
                            up = cpuAt(u[0], u[1], u[2]);
                        }
                        const unsigned lines = faceLines(d);
                        for (unsigned l = 0; l < lines; ++l) {
                            if (has_up)
                                t.push_back(
                                    MemOp::read(faceLine(up, d, l)));
                            t.push_back(
                                MemOp::think(_p.thinkPerLine));
                        }
                        t.push_back(MemOp::barrier());
                        for (unsigned l = 0; l < lines; ++l)
                            t.push_back(
                                MemOp::write(faceLine(cpu, d, l)));
                        t.push_back(MemOp::barrier());
                    }
                }
            }
        }
    }
}

unsigned
AppbtWorkload::faceLines(unsigned dim) const
{
    // Face area orthogonal to `dim`, with `vars` 8-byte variables per
    // point.
    const unsigned bx = _p.cubeDim / _p.procs[0];
    const unsigned by = _p.cubeDim / _p.procs[1];
    const unsigned bz = _p.cubeDim / _p.procs[2];
    unsigned area;
    if (dim == 0)
        area = by * bz;
    else if (dim == 1)
        area = bx * bz;
    else
        area = bx * by;
    return std::max(1u, area * _p.vars * 8 / _p.lineBytes);
}

Addr
AppbtWorkload::faceLine(unsigned cpu, unsigned dim, unsigned l) const
{
    const Addr per_dim = 0x4000000ull;
    const Addr per_cpu = 0x80000ull; // 512 KB, page aligned
    return _p.base + dim * per_dim + cpu * per_cpu +
           static_cast<Addr>(l) * _p.lineBytes;
}

unsigned
AppbtWorkload::cpuAt(unsigned x, unsigned y, unsigned z) const
{
    return (x * _p.procs[1] + y) * _p.procs[2] + z;
}

std::string
AppbtWorkload::scaledProblemSize() const
{
    std::ostringstream os;
    os << _p.cubeDim << "^3 cube, " << _p.vars << " vars, "
       << _p.iterations << " timesteps";
    return os.str();
}

} // namespace pcsim
