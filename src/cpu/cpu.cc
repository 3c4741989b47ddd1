#include "src/cpu/cpu.hh"

#include "src/protocol/hub.hh"
#include "src/sim/logging.hh"

namespace pcsim
{

Cpu::Cpu(EventQueue &eq, Hub &hub, Workload &workload,
         BarrierDriver &barrier, unsigned cpu_id)
    : SimObject(eq, "cpu" + std::to_string(cpu_id)),
      _hub(hub),
      _workload(workload),
      _barrier(barrier),
      _cpuId(cpu_id)
{
}

void
Cpu::start()
{
    _eq.scheduleIn(0, [this]() { nextOp(); });
}

void
Cpu::nextOp()
{
    MemOp op;
    if (!_workload.next(_cpuId, op)) {
        _done = true;
        _finishedAt = curTick();
        if (_onDone)
            _onDone();
        return;
    }
    ++_ops;

    switch (op.kind) {
      case MemOp::Kind::Think:
        _eq.scheduleIn(std::max<std::uint32_t>(1, op.cycles),
                       [this]() { nextOp(); });
        break;
      case MemOp::Kind::Read:
        _hub.cpuAccess(false, op.addr, [this](Version) { nextOp(); });
        break;
      case MemOp::Kind::Write:
        _hub.cpuAccess(true, op.addr, [this](Version) { nextOp(); });
        break;
      case MemOp::Kind::Barrier:
        _barrier.arrive(_cpuId, [this]() { nextOp(); });
        break;
    }
}

} // namespace pcsim
