/**
 * @file
 * fdp_trace - inspect and produce fdptrace-v1 micro-op traces.
 *
 *   fdp_trace record --bench swim --ops 8000000 --out swim.fdptrace
 *   fdp_trace info swim.fdptrace
 *   fdp_trace dump swim.fdptrace --limit 20
 *   fdp_trace verify swim.fdptrace
 *
 * record pulls the named benchmark's calibrated generator directly
 * (no simulation), so producing replay input for an N-inst run is a
 * generator-speed operation. verify is the full integrity pass: CRC,
 * record-by-record decode, and byte accounting.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "harness/cli.hh"
#include "harness/experiment.hh"
#include "sim/logging.hh"
#include "trace/trace_diff.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_workload.hh"
#include "workload/spec_suite.hh"

namespace
{

using namespace fdp;

const char kUsage[] =
    "usage: fdp_trace <command> ...\n"
    "  record --bench NAME --ops N --out PATH\n"
    "                    generate N micro-ops from the calibrated\n"
    "                    benchmark generator into an fdptrace-v1 file\n"
    "  info PATH         print the trace header and size summary\n"
    "  dump PATH [--limit N]\n"
    "                    print records human-readably (default 32;\n"
    "                    0 = all)\n"
    "  verify PATH       full integrity pass: header/footer, every\n"
    "                    record, CRC, byte accounting\n"
    "  diff PATH PATH    compare two traces op by op; report the\n"
    "                    first divergence (exit 0 identical, 1 not)\n";

[[noreturn]] void
usage()
{
    std::fputs(kUsage, stderr);
    std::exit(1);
}

const char *
kindName(OpKind kind)
{
    switch (kind) {
      case OpKind::Int:
        return "int";
      case OpKind::Load:
        return "load";
      case OpKind::Store:
        return "store";
    }
    return "?";
}

int
cmdRecord(int argc, char **argv)
{
    std::string bench;
    std::string out;
    std::uint64_t ops = 0;
    const std::vector<std::string> operands = parseArgs(
        argc, argv, 2,
        {{"--bench", "NAME", "", [&](const char *v) { bench = v; }},
         {"--ops", "N", "",
          [&](const char *v) { ops = parseCountArg("--ops", v); }},
         {"--out", "PATH", "", [&](const char *v) { out = v; }}},
        kUsage);
    if (!operands.empty() || bench.empty() || out.empty() || ops == 0)
        usage();

    auto workload = makeBenchmark(bench);  // fatal on unknown names
    TraceWriter writer(out, bench, workload->params().seed);
    for (std::uint64_t i = 0; i < ops; ++i)
        writer.append(workload->next());
    writer.finish();

    TraceReader reader(out);
    std::printf("recorded %llu micro-ops of %s to %s "
                "(%llu bytes, %.2f bytes/op)\n",
                static_cast<unsigned long long>(ops), bench.c_str(),
                out.c_str(),
                static_cast<unsigned long long>(reader.fileBytes()),
                static_cast<double>(reader.recordBytes()) /
                    static_cast<double>(ops));
    return 0;
}

int
cmdInfo(const std::string &path)
{
    TraceReader reader(path);
    const TraceHeader &h = reader.header();
    std::printf("trace:       %s\n", path.c_str());
    std::printf("format:      fdptrace-v%u\n", h.version);
    std::printf("benchmark:   %s\n", h.benchmark.c_str());
    std::printf("seed:        %llu\n",
                static_cast<unsigned long long>(h.seed));
    std::printf("micro-ops:   %llu\n",
                static_cast<unsigned long long>(h.opCount));
    std::printf("file bytes:  %llu\n",
                static_cast<unsigned long long>(reader.fileBytes()));
    std::printf("record bytes: %llu (%.2f bytes/op)\n",
                static_cast<unsigned long long>(reader.recordBytes()),
                static_cast<double>(reader.recordBytes()) /
                    static_cast<double>(h.opCount));
    return 0;
}

int
cmdDump(const std::string &path, std::uint64_t limit)
{
    TraceReader reader(path);
    MicroOp op;
    std::uint64_t shown = 0;
    while ((limit == 0 || shown < limit) && reader.next(op)) {
        if (op.kind == OpKind::Int)
            std::printf("%10llu  int\n",
                        static_cast<unsigned long long>(shown));
        else
            std::printf("%10llu  %-5s 0x%012llx  pc 0x%08llx%s\n",
                        static_cast<unsigned long long>(shown),
                        kindName(op.kind),
                        static_cast<unsigned long long>(op.addr),
                        static_cast<unsigned long long>(op.pc),
                        op.depPrevLoad ? "  dep" : "");
        ++shown;
    }
    const std::uint64_t total = reader.header().opCount;
    if (shown < total)
        std::printf("... %llu more micro-ops (of %llu total)\n",
                    static_cast<unsigned long long>(total - shown),
                    static_cast<unsigned long long>(total));
    return 0;
}

int
cmdVerify(const std::string &path)
{
    TraceReader reader(path);
    reader.verifyAll();
    std::printf("verify ok: %s (%s, %llu micro-ops, CRC and record "
                "accounting clean)\n", path.c_str(),
                reader.header().benchmark.c_str(),
                static_cast<unsigned long long>(reader.header().opCount));
    return 0;
}

int
cmdDiff(const std::string &pathA, const std::string &pathB)
{
    const TraceDiff d = diffTraces(pathA, pathB);
    printTraceDiff(d, std::cout);
    return d.identical() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string cmd = argv[1];
    if (cmd == "record")
        return cmdRecord(argc, argv);

    // The remaining commands take trace paths; only dump has a flag.
    std::uint64_t limit = 32;
    std::vector<Flag> flags;
    if (cmd == "dump")
        flags.push_back({"--limit", "N", "", [&](const char *v) {
                             limit = std::strcmp(v, "0") == 0
                                         ? 0
                                         : parseCountArg("--limit", v);
                         }});
    const std::vector<std::string> paths =
        parseArgs(argc, argv, 2, flags, kUsage);
    if (cmd == "diff" && paths.size() == 2)
        return cmdDiff(paths[0], paths[1]);
    if (paths.size() != 1)
        usage();
    if (cmd == "info")
        return cmdInfo(paths[0]);
    if (cmd == "verify")
        return cmdVerify(paths[0]);
    if (cmd == "dump")
        return cmdDump(paths[0], limit);
    usage();
}
