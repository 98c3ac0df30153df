#include "trace/trace_writer.hh"

#include "sim/check.hh"
#include "sim/logging.hh"

namespace fdp
{

namespace
{

/** Record buffer drained to disk whenever it crosses this size. */
constexpr std::size_t kWriterBufBytes = 64 * 1024;

} // namespace

TraceWriter::TraceWriter(const std::string &path,
                         const std::string &benchmark, std::uint64_t seed)
    : path_(path), out_(path, std::ios::binary | std::ios::trunc)
{
    if (!out_)
        fatal("cannot open trace file %s for writing", path_.c_str());
    if (benchmark.empty() || benchmark.size() > kTraceMaxNameLen)
        fatal("trace %s: benchmark name must be 1..%zu bytes (got %zu)",
              path_.c_str(), kTraceMaxNameLen, benchmark.size());

    std::vector<std::uint8_t> header;
    putBytes(header, {kTraceMagic, kTraceMagicLen});
    putU32(header, kTraceVersion);
    putU16(header, static_cast<std::uint16_t>(benchmark.size()));
    putBytes(header, benchmark);
    putU64(header, seed);
    opCountOffset_ = header.size();
    putU64(header, 0);  // opCount placeholder; finish() patches it
    out_.write(reinterpret_cast<const char *>(header.data()),
               static_cast<std::streamsize>(header.size()));
    if (!out_)
        fatal("failed writing trace header to %s", path_.c_str());
    buf_.reserve(kWriterBufBytes + kTraceMaxRecordBytes);
}

TraceWriter::~TraceWriter()
{
    if (!finished_)
        warn("trace %s discarded without finish(); the file is not a "
             "valid fdptrace-v1 trace", path_.c_str());
}

void
TraceWriter::flushBuffer()
{
    if (buf_.empty())
        return;
    crc_.update(buf_.data(), buf_.size());
    out_.write(reinterpret_cast<const char *>(buf_.data()),
               static_cast<std::streamsize>(buf_.size()));
    if (!out_)
        fatal("failed writing trace records to %s (disk full?)",
              path_.c_str());
    buf_.clear();
}

void
TraceWriter::append(const MicroOp &op)
{
    FDP_ASSERT(!finished_, "append to finished trace writer");
    encodeRecord(buf_, op, prevAddr_, prevPc_);
    ++opCount_;
    if (buf_.size() >= kWriterBufBytes)
        flushBuffer();
}

void
TraceWriter::finish()
{
    FDP_ASSERT(!finished_, "trace writer finished twice");
    if (opCount_ == 0)
        fatal("refusing to finalize trace %s: zero micro-ops recorded",
              path_.c_str());
    flushBuffer();

    std::vector<std::uint8_t> footer;
    putU32(footer, crc_.value());
    putU64(footer, opCount_);
    putBytes(footer, {kTraceEndMagic, kTraceMagicLen});
    out_.write(reinterpret_cast<const char *>(footer.data()),
               static_cast<std::streamsize>(footer.size()));

    // Seal the header: the op count was unknown while streaming.
    out_.seekp(static_cast<std::streamoff>(opCountOffset_));
    std::vector<std::uint8_t> count;
    putU64(count, opCount_);
    out_.write(reinterpret_cast<const char *>(count.data()),
               static_cast<std::streamsize>(count.size()));
    out_.flush();
    if (!out_)
        fatal("failed finalizing trace %s (disk full?)", path_.c_str());
    out_.close();
    finished_ = true;
}

} // namespace fdp
