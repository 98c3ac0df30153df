#ifndef FDP_MC_MC_MEMORY_SYSTEM_HH
#define FDP_MC_MC_MEMORY_SYSTEM_HH

#include "mem/memory_system.hh"

namespace fdp
{

// The benchmark package (perfbench/src/machines.cc) still names this.
using McMemorySystem = MemorySystem;

} // namespace fdp

#endif // FDP_MC_MC_MEMORY_SYSTEM_HH
