/**
 * @file
 * Trace ingestion: lets users bring their own address traces (captured
 * from a real run with Pin/DynamoRIO/ChampSim, or dumped from the
 * built-in generators) instead of the synthetic workloads.
 *
 * Formats, newest first:
 *  - SLIPTRC2 ("SLIPTRC2" magic): a self-describing 32-byte header
 *    (record count, core count, format flags) followed by one
 *    varint/delta-coded record per reference — (core, addr, r/w,
 *    icount-delta). Multicore capable: records carry a core id and
 *    readers demux per core.
 *  - SLIPTRC1 ("SLIPTRC1" magic): the legacy 9-byte fixed record
 *    (8-byte LE address + type byte); single-core, still readable.
 *  - text: one "R|W <hex-addr>" per line, `#` comments; single-core,
 *    easy to generate from anything.
 *
 * Readers auto-detect the format and transparently decompress gzip
 * (`.gz`, when the build found zlib); zstd input is recognized and
 * rejected with a named "unsupported compression" error. Plain files
 * are mmap'd (chunked stdio reads as fallback), and gzip inflates in
 * fixed-size chunks, so multi-GB traces stream with bounded memory.
 *
 * Error contract: open/parse failures are *recoverable* — every entry
 * point reports a path-and-offset-named error string instead of
 * aborting, so scenario validation can surface "$.workloads[i]: ..."
 * messages before a run starts. (TraceSource::next is the one
 * exception: the file was validated at open, so a mid-run decode
 * error means the file changed underneath the run and is fatal.)
 *
 * SLIPTRC2 layout (all integers little-endian):
 *   header  8B magic "SLIPTRC2"
 *           u32 header size (>= 32; extra bytes are skipped)
 *           u32 flags (bit0 = records carry an icount-delta varint;
 *               unknown bits are an "unsupported format flags" error)
 *           u32 core count (1..256)
 *           u32 reserved (ignored)
 *           u64 record count (must be nonzero; patched at close)
 *   record  u8 head: bit0 = write, bit1 = core id follows, bits 2-7
 *               must be zero
 *           [varint core id]      only when head bit1 is set; the
 *               reader otherwise reuses the previous record's core
 *           varint zigzag(addr - prev addr of this core)
 *           [varint icount-delta] only with header flag bit0
 * Varints are LEB128, at most 10 bytes ("varint overrun" beyond).
 * The reader decodes a record in one pointer pass over its window: a
 * refill carries the unconsumed tail forward, so a whole record (at
 * most 31 bytes) is contiguous unless the input ends there.
 */

#ifndef SLIP_MEM_TRACE_IO_HH
#define SLIP_MEM_TRACE_IO_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/trace.hh"

namespace slip {

/** On-disk trace encodings, newest first. */
enum class TraceFormat { Sliptrc2, Sliptrc1, Text };

/** Container compression, sniffed from magic bytes. */
enum class TraceCompression { None, Gzip, Zstd };

const char *traceFormatName(TraceFormat f);
const char *traceCompressionName(TraceCompression c);

/** One decoded trace record. */
struct TraceRecord
{
    unsigned core = 0;
    Addr addr = 0;
    bool write = false;
    /** Instructions retired since the previous record (1 for captures
     * of the reference-per-access generators). */
    std::uint64_t icountDelta = 1;
};

/** Header-level description of an opened trace. */
struct TraceInfo
{
    TraceFormat format = TraceFormat::Text;
    TraceCompression compression = TraceCompression::None;
    unsigned coreCount = 1;
    /** 0 = unknown (legacy formats carry no count). */
    std::uint64_t recordCount = 0;
    /** Records carry an explicit icount-delta field (SLIPTRC2 flag). */
    bool hasIcount = false;
};

/**
 * Streaming byte input with transparent decompression: mmap for plain
 * regular files (chunked stdio reads as fallback), chunked zlib
 * inflation for gzip. Also used by the foreign-format importers
 * (mem/trace_import.hh) so compressed ChampSim traces import
 * directly.
 */
class TraceInput
{
  public:
    TraceInput();
    ~TraceInput();

    TraceInput(const TraceInput &) = delete;
    TraceInput &operator=(const TraceInput &) = delete;

    /** Open @p path, sniffing compression. Returns "" or a
     * path-named error ("cannot open", "unsupported compression"). */
    std::string open(const std::string &path);

    /**
     * Read up to @p max bytes into @p dst.
     * @return bytes produced; 0 with @p err empty means end of input,
     *         0 with @p err set is an I/O or decompression error.
     */
    std::size_t read(void *dst, std::size_t max, std::string &err);

    /** Restart from the first byte. Returns "" or an error. */
    std::string rewind();

    /** Decoded (decompressed) bytes handed out so far. */
    std::uint64_t offset() const;

    TraceCompression compression() const;
    const std::string &path() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> _impl;
};

/**
 * Decodes any supported trace format (auto-detected) into
 * TraceRecords. All failures are reported as path-and-offset-named
 * error strings; next() never aborts.
 */
class TraceReader
{
  public:
    TraceReader();
    ~TraceReader();

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    /** Open and parse the header. Returns "" or a named error. */
    std::string open(const std::string &path);

    /**
     * Decode the next record.
     * @return true with a record in @p out; false at the end of the
     *         trace (@p err empty) or on a decode error (@p err set).
     */
    bool next(TraceRecord &out, std::string &err);

    /** Restart from the first record. Returns "" or an error. */
    std::string rewind();

    const TraceInfo &info() const { return _info; }
    const std::string &path() const { return _path; }
    std::uint64_t recordsRead() const { return _nread; }

  private:
    bool fill(std::string &err, std::size_t want = 1);
    int getByte(std::string &err);
    std::string parseHeader();
    bool nextSliptrc2(TraceRecord &out, std::string &err);
    bool nextSliptrc1(TraceRecord &out, std::string &err);
    bool nextText(TraceRecord &out, std::string &err);
    std::uint64_t offset() const { return _base + _pos; }
    std::string at(std::uint64_t off) const;

    TraceInput _in;
    TraceInfo _info;
    std::string _path;
    std::vector<std::uint8_t> _buf;
    std::size_t _pos = 0, _len = 0;
    std::uint64_t _base = 0;  ///< decoded offset of _buf[0]
    bool _end = false;        ///< underlying input exhausted
    unsigned _core = 0;       ///< sticky core id (SLIPTRC2)
    std::vector<std::uint64_t> _prevAddr;  ///< per-core delta base
    std::uint64_t _nread = 0;
};

/**
 * Writes a trace in any supported format. SLIPTRC2 is the default;
 * the legacy formats remain for round-trip coverage and external
 * consumers. A ".gz" suffix compresses the output with zlib (the
 * whole encoded stream is buffered so the header's record count can
 * be patched before compression — for very large captures write
 * plain and compress externally).
 */
class TraceWriter
{
  public:
    /** Open @p path; returns nullptr with @p err set on failure
     * (unwritable path, ".gz" without zlib, multicore legacy
     * format, ".zst"). */
    static std::unique_ptr<TraceWriter>
    create(const std::string &path,
           TraceFormat format = TraceFormat::Sliptrc2,
           unsigned coreCount = 1, std::string *err = nullptr);

    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one record; rec.core must be < coreCount (asserted).
     * Legacy single-core formats drop the core and icount fields. */
    void append(const TraceRecord &rec);

    /** Convenience for core-0 capture tees. */
    void append(const MemAccess &acc);

    /** Flush, patch the header's record count, and close. Returns ""
     * or a path-named error (short write, close failure). Later
     * calls are no-ops; the destructor warns if an unclosed writer
     * had an error. */
    std::string close();

    std::uint64_t written() const { return _count; }
    const std::string &path() const { return _path; }

  private:
    TraceWriter() = default;
    void put(std::uint8_t b) { _chunk.push_back(b); }
    void putVarint(std::uint64_t v);
    std::string flushChunk();

    std::string _path;
    TraceFormat _format = TraceFormat::Sliptrc2;
    TraceCompression _comp = TraceCompression::None;
    unsigned _coreCount = 1;
    std::FILE *_file = nullptr;
    std::vector<std::uint8_t> _chunk;  ///< pending encoded bytes
    std::vector<std::uint8_t> _all;    ///< gz: whole encoded stream
    std::uint64_t _count = 0;
    unsigned _core = 0;
    std::vector<std::uint64_t> _prevAddr;
    bool _closed = false;
    bool _ioError = false;
};

/**
 * Replays one core's records of a trace file as an AccessSource.
 * Multicore SLIPTRC2 traces are demuxed: a source for core c yields
 * exactly the records tagged core c, in order. Single-core traces
 * feed any requested core the full stream (each core replays an
 * identical address sequence — fine for capacity studies, but a
 * multicore capture avoids the aliasing).
 */
class TraceSource : public AccessSource
{
  public:
    /** Open @p path for core @p core. Returns nullptr with @p err
     * set on open/header errors or when the trace has fewer cores
     * than requested. @p loop restarts the (per-core) stream when
     * exhausted, so short captures extend deterministically. */
    static std::unique_ptr<TraceSource> open(const std::string &path,
                                             unsigned core,
                                             bool loop,
                                             std::string *err);

    bool next(MemAccess &out) override;

    /** Decode up to @p max accesses in one call; the same records,
     * demux and looping as repeated next() calls. */
    std::size_t nextBatch(MemAccess *out, std::size_t max) override;

    void reset() override;

    const TraceInfo &info() const { return _reader.info(); }

  private:
    TraceSource() = default;

    TraceReader _reader;
    unsigned _core = 0;
    bool _loop = false;
    bool _filter = false;  ///< demux by core id (coreCount > 1)
    std::uint64_t _matchedThisPass = 0;
};

/** Full-scan integrity summary (slip-trace info/validate). */
struct TraceScan
{
    TraceInfo info;
    std::uint64_t records = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t icountTotal = 0;
    std::vector<std::uint64_t> perCore;
};

/** Decode every record of @p path. Returns "" and fills @p out, or a
 * path-and-offset-named error (including "no trace records" for
 * record-free legacy/text files). */
std::string scanTrace(const std::string &path, TraceScan &out);

/**
 * FNV-1a over the raw file bytes (compressed form as stored), for
 * folding trace content into sweep cache keys: two traces with
 * different bytes can never alias one cache entry. @p err receives a
 * path-named message when the file cannot be read.
 */
std::uint64_t traceFileHash(const std::string &path, std::string *err);

} // namespace slip

#endif // SLIP_MEM_TRACE_IO_HH
