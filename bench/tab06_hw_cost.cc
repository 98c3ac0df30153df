/**
 * @file
 * Paper Table 6: hardware cost of FDP in bits of state, computed from
 * the modeled machine configuration (Table 3), plus the Table 3 machine
 * parameters themselves for reference.
 */

#include <cstdio>

#include "harness/cli.hh"
#include "harness/experiment.hh"
#include "sim/table.hh"

using namespace fdp;

int
main(int argc, char **argv)
{
    parseFlags(argc, argv, {});  // computed, not simulated: no knobs
    const MachineParams m;
    const FdpParams f;

    const std::uint64_t l2_blocks = m.l2.sizeBytes / kBlockBytes;
    const std::uint64_t pref_bits = l2_blocks;               // 1 per tag
    const std::uint64_t filter_bits = f.filterBits;
    const std::uint64_t counter_bits = 11 * 16;              // 11 counters
    const std::uint64_t mshr_bits = m.l2Mshrs;               // 1 per entry
    const std::uint64_t total =
        pref_bits + filter_bits + counter_bits + mshr_bits;

    Table t("Table 6: hardware cost of feedback directed prefetching");
    t.setHeader({"structure", "bits"});
    t.addRow({"pref-bit per L2 tag-store entry (16384 blocks)",
              std::to_string(pref_bits)});
    t.addRow({"pollution filter (4096-entry bit vector)",
              std::to_string(filter_bits)});
    t.addRow({"16-bit feedback counters (11 counters)",
              std::to_string(counter_bits)});
    t.addRow({"pref-bit per MSHR entry (128 entries)",
              std::to_string(mshr_bits)});
    t.addRule();
    t.addRow({"total", std::to_string(total)});
    t.print();

    std::printf("\nTotal: %llu bits = %.2f KB (paper: 20784 bits = "
                "2.54 KB)\n",
                static_cast<unsigned long long>(total),
                static_cast<double>(total) / 8.0 / 1024.0);
    std::printf("Overhead vs the 1MB L2 data store: %.3f%% (paper: "
                "0.24%%)\n",
                100.0 * (static_cast<double>(total) / 8.0) /
                    static_cast<double>(m.l2.sizeBytes));

    Table m3("Table 3: modeled machine (memory side)");
    m3.setHeader({"parameter", "value"});
    m3.addRow({"L1D", "64KB, 4-way, 2-cycle"});
    m3.addRow({"L2", "1MB, 16-way, 10-cycle, 128 MSHRs, LRU, 64B blocks"});
    m3.addRow({"DRAM", "32 banks, 500-cycle unloaded latency"});
    m3.addRow({"bus", "4.5 GB/s at 4 GHz (~57 cycles per 64B block)"});
    m3.addRow({"core", "8-wide, 128-entry ROB"});
    m3.addRow({"stream prefetcher", "64 streams, 128-entry request queue"});
    m3.print();
    return 0;
}
