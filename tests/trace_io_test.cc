/**
 * @file
 * Tests for the trace ingestion subsystem (mem/trace_io.hh):
 * round-trip properties across every format/compression combination,
 * per-core demux and looping in TraceSource, TraceSource::nextBatch
 * against repeated next() across window refills, a table-driven
 * malformed-input suite (every row must produce its exact path-and-
 * offset-named error, never a crash — this file runs under the
 * ASan/UBSan CI matrix), the ChampSim importer conformance fixture,
 * and the v9 sweep-cache keys that fold trace content into the
 * benchmark token.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "mem/trace_import.hh"
#include "mem/trace_io.hh"
#include "sweep/run_spec.hh"

namespace slip {
namespace {

std::string
tempPath(const std::string &name)
{
    // The pid sits *before* the name so compression-selecting
    // extensions (.gz, .zst) survive at the end of the path.
    return (std::filesystem::temp_directory_path() /
            ("slip_trace_test_" + std::to_string(::getpid()) + "_" +
             name))
        .string();
}

void
writeBytes(const std::string &path, const std::vector<std::uint8_t> &b)
{
    std::ofstream os(path, std::ios::binary);
    if (!b.empty())
        os.write(reinterpret_cast<const char *>(b.data()),
                 static_cast<std::streamsize>(b.size()));
}

/** Deterministic record generator (splitmix64 over the index). */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::vector<TraceRecord>
makeRecords(unsigned cores, std::size_t n, std::uint64_t seed)
{
    std::vector<TraceRecord> recs;
    recs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t r = mix64(seed + i);
        TraceRecord rec;
        rec.core = unsigned(r % cores);
        // Mostly-local addresses (small deltas) with occasional far
        // jumps, so both varint branches and negative deltas occur.
        rec.addr = (r & 0xff) == 0 ? mix64(r)
                                   : (Addr{1} << 34) + (r & 0xffff) * 64;
        rec.write = (r & 7) == 0;
        rec.icountDelta = 1 + (r >> 32) % 9;
        recs.push_back(rec);
    }
    return recs;
}

/** Write @p recs in @p format, read them back, compare field-for-
 * field. icountDelta survives only in SLIPTRC2 (the legacy formats
 * have no icount field and read back as 1). */
void
roundTrip(const std::vector<TraceRecord> &recs, unsigned cores,
          TraceFormat format, const std::string &path)
{
    SCOPED_TRACE(path);
    {
        std::string err;
        auto w = TraceWriter::create(path, format, cores, &err);
        ASSERT_NE(w, nullptr) << err;
        for (const TraceRecord &r : recs)
            w->append(r);
        ASSERT_EQ(w->close(), "");
        EXPECT_EQ(w->written(), recs.size());
    }
    TraceReader r;
    ASSERT_EQ(r.open(path), "");
    EXPECT_EQ(r.info().format, format);
    EXPECT_EQ(r.info().coreCount, cores);
    if (format == TraceFormat::Sliptrc2) {
        EXPECT_EQ(r.info().recordCount, recs.size());
        EXPECT_TRUE(r.info().hasIcount);
    }
    std::string err;
    TraceRecord got;
    for (std::size_t i = 0; i < recs.size(); ++i) {
        ASSERT_TRUE(r.next(got, err)) << err << " at record " << i;
        EXPECT_EQ(got.core, recs[i].core) << "record " << i;
        EXPECT_EQ(got.addr, recs[i].addr) << "record " << i;
        EXPECT_EQ(got.write, recs[i].write) << "record " << i;
        if (format == TraceFormat::Sliptrc2) {
            EXPECT_EQ(got.icountDelta, recs[i].icountDelta)
                << "record " << i;
        }
    }
    EXPECT_FALSE(r.next(got, err));
    EXPECT_EQ(err, "");
    EXPECT_EQ(r.recordsRead(), recs.size());

    // rewind() replays the identical stream.
    ASSERT_EQ(r.rewind(), "");
    ASSERT_TRUE(r.next(got, err)) << err;
    EXPECT_EQ(got.addr, recs[0].addr);

    std::filesystem::remove(path);
}

TEST(TraceRoundTripTest, Sliptrc2SingleCore)
{
    roundTrip(makeRecords(1, 1000, 1), 1, TraceFormat::Sliptrc2,
              tempPath("rt2_1c.trc2"));
}

TEST(TraceRoundTripTest, Sliptrc2FourCores)
{
    roundTrip(makeRecords(4, 2000, 2), 4, TraceFormat::Sliptrc2,
              tempPath("rt2_4c.trc2"));
}

TEST(TraceRoundTripTest, Sliptrc1)
{
    auto recs = makeRecords(1, 500, 3);
    for (TraceRecord &r : recs)
        r.icountDelta = 1;  // the legacy format has no icount field
    roundTrip(recs, 1, TraceFormat::Sliptrc1, tempPath("rt1.trc"));
}

TEST(TraceRoundTripTest, Text)
{
    auto recs = makeRecords(1, 300, 4);
    for (TraceRecord &r : recs)
        r.icountDelta = 1;
    roundTrip(recs, 1, TraceFormat::Text, tempPath("rt_text.trc"));
}

#ifdef SLIP_HAVE_ZLIB
TEST(TraceRoundTripTest, Sliptrc2SingleCoreGzip)
{
    roundTrip(makeRecords(1, 1000, 5), 1, TraceFormat::Sliptrc2,
              tempPath("rt2_1c_gz.trc2.gz"));
}

TEST(TraceRoundTripTest, Sliptrc2FourCoresGzip)
{
    roundTrip(makeRecords(4, 2000, 6), 4, TraceFormat::Sliptrc2,
              tempPath("rt2_4c_gz.trc2.gz"));
}

TEST(TraceRoundTripTest, TextGzip)
{
    auto recs = makeRecords(1, 300, 7);
    for (TraceRecord &r : recs)
        r.icountDelta = 1;
    roundTrip(recs, 1, TraceFormat::Text,
              tempPath("rt_text_gz.trc.gz"));
}
#endif

TEST(TraceWriterTest, RejectsMulticoreLegacyFormats)
{
    std::string err;
    EXPECT_EQ(TraceWriter::create(tempPath("bad1.trc"),
                                  TraceFormat::Sliptrc1, 2, &err),
              nullptr);
    EXPECT_NE(err.find("single-core"), std::string::npos) << err;
    EXPECT_EQ(TraceWriter::create(tempPath("bad2.trc"),
                                  TraceFormat::Text, 4, &err),
              nullptr);
    EXPECT_EQ(TraceWriter::create(tempPath("bad3.trc"),
                                  TraceFormat::Sliptrc2, 0, &err),
              nullptr);
    EXPECT_NE(err.find("core count"), std::string::npos) << err;
    EXPECT_EQ(TraceWriter::create(tempPath("bad4.zst"),
                                  TraceFormat::Sliptrc2, 1, &err),
              nullptr);
    EXPECT_NE(err.find("unsupported compression"), std::string::npos)
        << err;
}

// ---------------------------------------------------------------------
// TraceSource: demux, looping, exhaustion
// ---------------------------------------------------------------------

TEST(TraceSourceTest, DemuxesPerCore)
{
    const std::string path = tempPath("demux.trc2");
    const auto recs = makeRecords(4, 400, 8);
    {
        std::string err;
        auto w = TraceWriter::create(path, TraceFormat::Sliptrc2, 4,
                                     &err);
        ASSERT_NE(w, nullptr) << err;
        for (const TraceRecord &r : recs)
            w->append(r);
        ASSERT_EQ(w->close(), "");
    }
    for (unsigned core = 0; core < 4; ++core) {
        std::string err;
        auto src = TraceSource::open(path, core, /*loop=*/false, &err);
        ASSERT_NE(src, nullptr) << err;
        MemAccess a;
        for (const TraceRecord &r : recs) {
            if (r.core != core)
                continue;
            ASSERT_TRUE(src->next(a));
            EXPECT_EQ(a.addr, r.addr);
            EXPECT_EQ(a.isWrite(), r.write);
        }
        EXPECT_FALSE(src->next(a));
    }
    // A core the trace does not provide is an open-time error.
    std::string err;
    EXPECT_EQ(TraceSource::open(path, 4, false, &err), nullptr);
    EXPECT_NE(err.find("trace provides 4 cores"), std::string::npos)
        << err;
    std::filesystem::remove(path);
}

TEST(TraceSourceTest, LoopRestartsPerCoreStream)
{
    const std::string path = tempPath("loop4.trc2");
    {
        std::string err;
        auto w = TraceWriter::create(path, TraceFormat::Sliptrc2, 2,
                                     &err);
        ASSERT_NE(w, nullptr) << err;
        w->append(TraceRecord{0, 0x1000, false, 1});
        w->append(TraceRecord{1, 0x2000, false, 1});
        w->append(TraceRecord{0, 0x1040, true, 1});
        ASSERT_EQ(w->close(), "");
    }
    std::string err;
    auto src = TraceSource::open(path, 0, /*loop=*/true, &err);
    ASSERT_NE(src, nullptr) << err;
    MemAccess a;
    for (int pass = 0; pass < 3; ++pass) {
        ASSERT_TRUE(src->next(a));
        EXPECT_EQ(a.addr, 0x1000u);
        ASSERT_TRUE(src->next(a));
        EXPECT_EQ(a.addr, 0x1040u);
    }
    std::filesystem::remove(path);
}

/** Encoded length of a LEB128 varint. */
unsigned
varintBytes(std::uint64_t v)
{
    unsigned n = 1;
    for (; v >= 0x80; v >>= 7)
        ++n;
    return n;
}

/**
 * nextBatch must yield exactly what repeated next() yields, record for
 * record, through window refills. Every record carries a 10-byte
 * icount varint and about half carry a 10-byte address delta, the
 * trace is several 256 KB reader windows long, and the layout check
 * below proves that a 10-byte varint straddles every window boundary.
 * Four cores are demuxed, the per-core streams loop, and batch sizes
 * vary.
 */
void
batchMatchesNext(const std::string &path)
{
    SCOPED_TRACE(path);
    constexpr unsigned kCores = 4;
    constexpr std::uint64_t kWindow = 256 * 1024;  // the reader's window
    std::vector<TraceRecord> recs;
    for (std::size_t i = 0; i < 45000; ++i) {
        const std::uint64_t r = mix64(1000 + i);
        // Runs of one core, so the core-id field comes and goes.
        const unsigned core = unsigned(mix64(i / 3) % kCores);
        recs.push_back(TraceRecord{core, mix64(r), (r & 3) == 0,
                                   (std::uint64_t{1} << 63) | r});
    }

    // Mirror the SLIPTRC2 layout to find varints that cross a window
    // boundary of the decoded stream.
    std::uint64_t off = 32;
    unsigned cur = 0, straddles = 0;
    std::vector<Addr> prev(kCores, 0);
    for (const TraceRecord &rec : recs) {
        off += 1;
        if (rec.core != cur) {
            off += varintBytes(rec.core);
            cur = rec.core;
        }
        const std::int64_t delta =
            static_cast<std::int64_t>(rec.addr - prev[cur]);
        prev[cur] = rec.addr;
        const std::uint64_t zz = (static_cast<std::uint64_t>(delta) << 1) ^
                                 static_cast<std::uint64_t>(delta >> 63);
        for (const std::uint64_t v : {zz, rec.icountDelta}) {
            const unsigned n = varintBytes(v);
            if (n == 10 && off / kWindow != (off + n - 1) / kWindow)
                ++straddles;
            off += n;
        }
    }
    ASSERT_GT(off, 3 * kWindow);
    ASSERT_EQ(straddles, off / kWindow);

    {
        std::string err;
        auto w = TraceWriter::create(path, TraceFormat::Sliptrc2, kCores,
                                     &err);
        ASSERT_NE(w, nullptr) << err;
        for (const TraceRecord &r : recs)
            w->append(r);
        ASSERT_EQ(w->close(), "");
    }

    const std::size_t chunks[] = {1, 7, 256, 4093};
    for (unsigned core = 0; core < kCores; ++core) {
        SCOPED_TRACE("core " + std::to_string(core));
        std::vector<MemAccess> want;
        for (const TraceRecord &r : recs)
            if (r.core == core)
                want.push_back(
                    {r.addr, r.write ? AccessType::Write : AccessType::Read});
        ASSERT_FALSE(want.empty());

        // Two and a half passes of the looping per-core stream.
        const std::size_t total = want.size() * 5 / 2;
        std::string err;
        auto one = TraceSource::open(path, core, /*loop=*/true, &err);
        auto many = TraceSource::open(path, core, /*loop=*/true, &err);
        ASSERT_NE(one, nullptr) << err;
        ASSERT_NE(many, nullptr) << err;
        std::vector<MemAccess> got(total);
        for (std::size_t i = 0; i < total; ++i)
            ASSERT_TRUE(one->next(got[i])) << "record " << i;
        std::vector<MemAccess> batch(4093);
        for (std::size_t i = 0, k = 0; i < total; ++k) {
            const std::size_t n = std::min(chunks[k % 4], total - i);
            ASSERT_EQ(many->nextBatch(batch.data(), n), n);
            for (std::size_t j = 0; j < n; ++j, ++i) {
                ASSERT_EQ(batch[j].addr, got[i].addr) << "record " << i;
                ASSERT_EQ(batch[j].type, got[i].type) << "record " << i;
                const MemAccess &w = want[i % want.size()];
                ASSERT_EQ(got[i].addr, w.addr) << "record " << i;
                ASSERT_EQ(got[i].type, w.type) << "record " << i;
            }
        }

        // Without looping both end together: a short batch, then none.
        auto once = TraceSource::open(path, core, /*loop=*/false, &err);
        ASSERT_NE(once, nullptr) << err;
        std::vector<MemAccess> all(want.size() + 5);
        ASSERT_EQ(once->nextBatch(all.data(), all.size()), want.size());
        EXPECT_EQ(once->nextBatch(all.data(), all.size()), 0u);
        MemAccess a;
        EXPECT_FALSE(once->next(a));
    }
    std::filesystem::remove(path);
}

TEST(TraceSourceTest, BatchMatchesNextAcrossWindowRefills)
{
    batchMatchesNext(tempPath("batch.trc2"));
}

#ifdef SLIP_HAVE_ZLIB
TEST(TraceSourceTest, BatchMatchesNextAcrossWindowRefillsGzip)
{
    batchMatchesNext(tempPath("batch_gz.trc2.gz"));
}
#endif

// ---------------------------------------------------------------------
// Malformed inputs: every row decodes to a named error, never a crash.
// ---------------------------------------------------------------------

std::vector<std::uint8_t>
trc2Header(std::uint32_t headerBytes, std::uint32_t flags,
           std::uint32_t cores, std::uint64_t records)
{
    std::vector<std::uint8_t> b{'S', 'L', 'I', 'P',
                                'T', 'R', 'C', '2'};
    const auto le32 = [&](std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            b.push_back(std::uint8_t(v >> (8 * i)));
    };
    le32(headerBytes);
    le32(flags);
    le32(cores);
    le32(0);
    for (int i = 0; i < 8; ++i)
        b.push_back(std::uint8_t(records >> (8 * i)));
    return b;
}

std::vector<std::uint8_t>
cat(std::vector<std::uint8_t> a, const std::vector<std::uint8_t> &b)
{
    a.insert(a.end(), b.begin(), b.end());
    return a;
}

struct MalformedCase
{
    const char *name;
    std::vector<std::uint8_t> bytes;
    /** The whole error after "<path>: ". Errors below the record
     * layer (container/scan level) carry no byte offset. */
    const char *expect;
};

std::vector<MalformedCase>
malformedCases()
{
    // head=0x00 read, zigzag(addr delta)=2 → addr 1, icount=1.
    const std::vector<std::uint8_t> oneRecord{0x00, 0x02, 0x01};
    std::vector<MalformedCase> cases;
    cases.push_back({"truncated_header",
                     {'S', 'L', 'I', 'P', 'T', 'R', 'C', '2', 0x20,
                      0x00, 0x00, 0x00},
                     "offset 12: truncated header: file ends here (a "
                     "SLIPTRC2 header is 32 bytes)"});
    cases.push_back({"header_size_too_small",
                     trc2Header(16, 1, 1, 1),
                     "offset 8: header size 16 is smaller than the "
                     "fixed 32-byte header"});
    cases.push_back({"unsupported_flags",
                     trc2Header(32, 0x80000001u, 1, 1),
                     "offset 12: unsupported format flags 0x80000000 "
                     "(written by a newer tool?)"});
    cases.push_back({"impossible_core_count_zero",
                     trc2Header(32, 1, 0, 1),
                     "offset 16: impossible core count 0 (want "
                     "1..256)"});
    cases.push_back({"impossible_core_count_huge",
                     trc2Header(32, 1, 5000, 1),
                     "offset 16: impossible core count 5000 (want "
                     "1..256)"});
    cases.push_back({"zero_record_file",
                     trc2Header(32, 1, 1, 0),
                     "offset 24: zero-record trace (record count is 0; "
                     "was the writer closed?)"});
    cases.push_back({"truncated_extended_header",
                     cat(trc2Header(40, 1, 1, 1), {0x00, 0x00}),
                     "offset 34: truncated header: file ends inside "
                     "the extended header"});
    cases.push_back({"invalid_record_flags",
                     cat(trc2Header(32, 1, 1, 1), {0xf0, 0x02, 0x01}),
                     "offset 32: invalid record flags 0xf0"});
    cases.push_back({"impossible_core_id",
                     cat(trc2Header(32, 1, 2, 1), {0x02, 0x07, 0x02,
                                                   0x01}),
                     "offset 32: impossible core id 7 (trace has 2 "
                     "cores)"});
    cases.push_back({"truncated_core_id_varint",
                     cat(trc2Header(32, 1, 2, 1), {0x02, 0x81}),
                     "offset 33: truncated varint decoding core id "
                     "(file ends mid-record)"});
    cases.push_back(
        {"varint_overrun",
         cat(trc2Header(32, 1, 1, 1),
             {0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
              0x80, 0x80, 0x80}),
         "offset 33: varint overrun decoding address delta (more than "
         "10 bytes)"});
    cases.push_back({"truncated_varint",
                     cat(trc2Header(32, 1, 1, 1), {0x00, 0x80}),
                     "offset 33: truncated varint decoding address "
                     "delta (file ends mid-record)"});
    cases.push_back(
        {"icount_varint_overrun",
         cat(trc2Header(32, 1, 1, 1),
             {0x00, 0x02, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
              0xff, 0xff, 0xff}),
         "offset 34: varint overrun decoding icount delta (more than "
         "10 bytes)"});
    cases.push_back({"truncated_icount_varint",
                     cat(trc2Header(32, 1, 1, 1), {0x00, 0x02, 0x80}),
                     "offset 34: truncated varint decoding icount delta "
                     "(file ends mid-record)"});
    cases.push_back({"eof_before_record_count",
                     cat(trc2Header(32, 1, 1, 2), oneRecord),
                     "offset 35: truncated trace: file ends after 1 of "
                     "2 records"});
    cases.push_back({"trailing_garbage",
                     cat(cat(trc2Header(32, 1, 1, 1), oneRecord),
                         {0x42}),
                     "offset 35: trailing garbage after the 1 records "
                     "the header declares"});
    cases.push_back({"sliptrc1_truncated_record",
                     {'S', 'L', 'I', 'P', 'T', 'R', 'C', '1', 0x01,
                      0x02, 0x03},
                     "offset 8: truncated record: got 3 of 9 bytes"});
    cases.push_back({"text_malformed",
                     {'X', ' ', '1', '2', '\n'},
                     "offset 0: malformed text record (expected \"R|W "
                     "<hex-addr>\")"});
    cases.push_back({"text_wide_address",
                     {'R', ' ', '1', '1', '2', '2', '3', '3', '4',
                      '4', '5', '5', '6', '6', '7', '7', '8', '8',
                      '9', '\n'},
                     "offset 0: address wider than 64 bits"});
    cases.push_back({"text_trailing_garbage",
                     {'R', ' ', '4', '0', ' ', 'z', 'z', '\n'},
                     "offset 5: trailing garbage after text record"});
    cases.push_back({"zstd_container",
                     {0x28, 0xb5, 0x2f, 0xfd, 0x00, 0x00, 0x00, 0x00},
                     "unsupported compression: zstd (this build has no "
                     "zstd support; decompress with `unzstd` first)"});
    cases.push_back({"empty_file", {}, "no trace records"});
    return cases;
}

TEST(TraceMalformedTest, EveryCaseYieldsNamedError)
{
    for (const MalformedCase &c : malformedCases()) {
        SCOPED_TRACE(c.name);
        const std::string path = tempPath(c.name);
        writeBytes(path, c.bytes);
        const std::string want = path + ": " + c.expect;
        TraceScan scan;
        EXPECT_EQ(scanTrace(path, scan), want);

        // The reader reports the same error from open() or, for
        // record-level damage, from the next() that reaches it.
        TraceReader r;
        std::string err = r.open(path);
        if (err.empty()) {
            TraceRecord rec;
            while (r.next(rec, err)) {
            }
        }
        // "no trace records" is scanTrace's own verdict on a reader
        // that ends cleanly without a record.
        const bool scan_level = std::string(c.expect) == "no trace records";
        EXPECT_EQ(err, scan_level ? "" : want);
        std::filesystem::remove(path);
    }
}

TEST(TraceMalformedTest, MissingFileIsNamedError)
{
    TraceScan scan;
    const std::string err =
        scanTrace("/nonexistent/slip_no_such.trc2", scan);
    EXPECT_NE(err.find("cannot open trace"), std::string::npos) << err;
    EXPECT_NE(err.find("/nonexistent/slip_no_such.trc2"),
              std::string::npos)
        << err;
}

#ifdef SLIP_HAVE_ZLIB
TEST(TraceMalformedTest, TruncatedGzipIsNamedError)
{
    const std::string path = tempPath("trunc_gz.trc2.gz");
    // A full valid .gz capture, cut in half mid-member.
    {
        std::string err;
        auto w = TraceWriter::create(path, TraceFormat::Sliptrc2, 1,
                                     &err);
        ASSERT_NE(w, nullptr) << err;
        for (const TraceRecord &r : makeRecords(1, 4000, 9))
            w->append(r);
        ASSERT_EQ(w->close(), "");
    }
    std::vector<std::uint8_t> bytes;
    {
        std::ifstream is(path, std::ios::binary);
        char ch;
        while (is.get(ch))
            bytes.push_back(std::uint8_t(ch));
    }
    ASSERT_GT(bytes.size(), 64u);
    bytes.resize(bytes.size() / 2);
    writeBytes(path, bytes);

    TraceScan scan;
    const std::string err = scanTrace(path, scan);
    ASSERT_FALSE(err.empty());
    EXPECT_NE(err.find(path), std::string::npos) << err;
    EXPECT_NE(err.find("gzip"), std::string::npos) << err;
    std::filesystem::remove(path);
}
#else
TEST(TraceMalformedTest, GzipWithoutZlibIsNamedError)
{
    const std::string path = tempPath("nozlib.trc2.gz");
    writeBytes(path, {0x1f, 0x8b, 0x08, 0x00, 0x00, 0x00});
    TraceScan scan;
    const std::string err = scanTrace(path, scan);
    EXPECT_NE(err.find("unsupported compression: gzip"),
              std::string::npos)
        << err;
    std::filesystem::remove(path);
}
#endif

// ---------------------------------------------------------------------
// ChampSim importer conformance
// ---------------------------------------------------------------------

/** One 64-byte input_instr with the given memory operands. */
std::vector<std::uint8_t>
champSimInstr(std::uint64_t ip,
              const std::vector<std::uint64_t> &srcMem,
              const std::vector<std::uint64_t> &destMem)
{
    std::vector<std::uint8_t> b(64, 0);
    const auto le64At = [&](std::size_t off, std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            b[off + std::size_t(i)] = std::uint8_t(v >> (8 * i));
    };
    le64At(0, ip);
    for (std::size_t i = 0; i < destMem.size(); ++i)
        le64At(16 + 8 * i, destMem[i]);
    for (std::size_t i = 0; i < srcMem.size(); ++i)
        le64At(32 + 8 * i, srcMem[i]);
    return b;
}

TEST(ChampSimImportTest, ConvertsKnownRecords)
{
    const std::string in = tempPath("cs_in.champsim");
    const std::string out = tempPath("cs_out.trc2");
    // i1: two loads + one store; i2: no memory; i3: one load.
    std::vector<std::uint8_t> bytes;
    bytes = cat(bytes, champSimInstr(0x400000, {0xA000, 0xB000},
                                     {0xC000}));
    bytes = cat(bytes, champSimInstr(0x400004, {}, {}));
    bytes = cat(bytes, champSimInstr(0x400008, {0xD000}, {}));
    writeBytes(in, bytes);

    ChampSimImportStats stats;
    ASSERT_EQ(importChampSimTrace(in, out, &stats), "");
    EXPECT_EQ(stats.instructions, 3u);
    EXPECT_EQ(stats.records, 4u);
    EXPECT_EQ(stats.reads, 3u);
    EXPECT_EQ(stats.writes, 1u);

    // Exact converted record list: loads in operand order, then
    // stores; the first record of an instruction carries the icount
    // delta, later records of the same instruction carry 0; the
    // skipped i2 shows up as a delta of 2 on i3's record.
    struct Expect
    {
        std::uint64_t addr;
        bool write;
        std::uint64_t icount;
    };
    const Expect want[] = {
        {0xA000, false, 1},
        {0xB000, false, 0},
        {0xC000, true, 0},
        {0xD000, false, 2},
    };
    TraceReader r;
    ASSERT_EQ(r.open(out), "");
    EXPECT_EQ(r.info().format, TraceFormat::Sliptrc2);
    EXPECT_EQ(r.info().coreCount, 1u);
    EXPECT_EQ(r.info().recordCount, 4u);
    std::string err;
    TraceRecord rec;
    for (const Expect &w : want) {
        ASSERT_TRUE(r.next(rec, err)) << err;
        EXPECT_EQ(rec.core, 0u);
        EXPECT_EQ(rec.addr, w.addr);
        EXPECT_EQ(rec.write, w.write);
        EXPECT_EQ(rec.icountDelta, w.icount);
    }
    EXPECT_FALSE(r.next(rec, err));
    EXPECT_EQ(err, "");

    std::filesystem::remove(in);
    std::filesystem::remove(out);
}

TEST(ChampSimImportTest, RejectsBadInputs)
{
    const std::string out = tempPath("cs_rej.trc2");
    struct Bad
    {
        const char *name;
        std::vector<std::uint8_t> bytes;
        const char *expect;
    };
    std::vector<Bad> bad;
    bad.push_back({"empty", {}, "empty ChampSim trace"});
    bad.push_back({"truncated",
                   cat(champSimInstr(0x1000, {0xA000}, {}),
                       {1, 2, 3, 4, 5}),
                   "truncated ChampSim record (got 5 of 64 bytes)"});
    bad.push_back({"no_mem_refs",
                   cat(champSimInstr(0x1000, {}, {}),
                       champSimInstr(0x1004, {}, {})),
                   "no memory references in 2 instructions"});
    for (const Bad &b : bad) {
        SCOPED_TRACE(b.name);
        const std::string in = tempPath(std::string("cs_") + b.name);
        writeBytes(in, b.bytes);
        const std::string err = importChampSimTrace(in, out);
        ASSERT_FALSE(err.empty());
        EXPECT_NE(err.find(in), std::string::npos) << err;
        EXPECT_NE(err.find(b.expect), std::string::npos) << err;
        std::filesystem::remove(in);
    }
    std::filesystem::remove(out);
}

// ---------------------------------------------------------------------
// Sniper-style cpu_trace importer conformance
// ---------------------------------------------------------------------

void
writeText(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::binary);
    os << text;
}

TEST(CpuTraceImportTest, ConvertsKnownRecords)
{
    const std::string in = tempPath("ct_in.cpu_trace");
    const std::string out = tempPath("ct_out.trc2");
    // Comments, blank lines, bare and 0x hex, lowercase r/w, a
    // cumulative per-core icount column on some lines, and a core
    // gap (core 1 unused) sizing the core table to max-core + 1.
    writeText(in,
              "# sniper-style cpu_trace conformance fixture\n"
              "0 R 0x1000 5\n"
              "\n"
              "2 W 2040    # trailing comment, bare hex, no icount\n"
              "0 r 0x1040 9\n"
              "2 w 0x2080 12\n"
              "0 R 0x1080\n");

    CpuTraceImportStats stats;
    ASSERT_EQ(importCpuTrace(in, out, &stats), "");
    EXPECT_EQ(stats.records, 5u);
    EXPECT_EQ(stats.reads, 3u);
    EXPECT_EQ(stats.writes, 2u);
    EXPECT_EQ(stats.cores, 3u);

    // Exact converted record list: deltas are per-core (core 0's 9
    // follows its own 5, not core 2's line in between); lines
    // without the column count one instruction.
    struct Expect
    {
        unsigned core;
        std::uint64_t addr;
        bool write;
        std::uint64_t icount;
    };
    const Expect want[] = {
        {0, 0x1000, false, 5},
        {2, 0x2040, true, 1},
        {0, 0x1040, false, 4},
        {2, 0x2080, true, 12},
        {0, 0x1080, false, 1},
    };
    TraceReader r;
    ASSERT_EQ(r.open(out), "");
    EXPECT_EQ(r.info().format, TraceFormat::Sliptrc2);
    EXPECT_EQ(r.info().coreCount, 3u);
    EXPECT_EQ(r.info().recordCount, 5u);
    std::string err;
    TraceRecord rec;
    for (const Expect &w : want) {
        ASSERT_TRUE(r.next(rec, err)) << err;
        EXPECT_EQ(rec.core, w.core);
        EXPECT_EQ(rec.addr, w.addr);
        EXPECT_EQ(rec.write, w.write);
        EXPECT_EQ(rec.icountDelta, w.icount);
    }
    EXPECT_FALSE(r.next(rec, err));
    EXPECT_EQ(err, "");

    // The multicore scan `slip-trace info` prints: per-core record
    // counts with the unused core reported as zero.
    TraceScan scan;
    ASSERT_EQ(scanTrace(out, scan), "");
    ASSERT_EQ(scan.perCore.size(), 3u);
    EXPECT_EQ(scan.perCore[0], 3u);
    EXPECT_EQ(scan.perCore[1], 0u);
    EXPECT_EQ(scan.perCore[2], 2u);

    std::filesystem::remove(in);
    std::filesystem::remove(out);
}

TEST(CpuTraceImportTest, RejectsBadInputs)
{
    const std::string out = tempPath("ct_rej.trc2");
    struct Bad
    {
        const char *name;
        const char *text;
        const char *expect;
    };
    const Bad bad[] = {
        {"empty", "# only a comment\n\n",
         "empty cpu_trace (no reference lines)"},
        {"few_fields", "0 R\n", ":1: expected <core> <R|W> <addr>"},
        {"many_fields", "0 R 0x10 5 junk\n", ":1: trailing fields"},
        {"bad_core", "x R 0x10\n", ":1: bad core id 'x'"},
        {"core_range", "0 R 0x10\n64 R 0x20\n",
         ":2: core id 64 out of range"},
        {"bad_rw", "0 L 0x10\n", ":1: bad access type 'L'"},
        {"bad_addr", "0 R zz\n", ":1: bad hex address 'zz'"},
        {"bad_icount", "0 R 0x10 5x\n", ":1: bad icount '5x'"},
        {"icount_regress", "0 R 0x10 9\n0 W 0x20 4\n",
         ":2: non-monotone icount for core 0 (4 after 9)"},
    };
    for (const Bad &b : bad) {
        SCOPED_TRACE(b.name);
        const std::string in =
            tempPath(std::string("ct_") + b.name + ".cpu_trace");
        writeText(in, b.text);
        const std::string err = importCpuTrace(in, out);
        ASSERT_FALSE(err.empty());
        EXPECT_NE(err.find(in), std::string::npos) << err;
        EXPECT_NE(err.find(b.expect), std::string::npos) << err;
        std::filesystem::remove(in);
    }
    std::filesystem::remove(out);
}

// ---------------------------------------------------------------------
// v9 cache keys: trace content is part of the benchmark token
// ---------------------------------------------------------------------

TEST(TraceCacheKeyTest, ContentChangesKey)
{
    const std::string path = tempPath("key.trc2");
    const auto writeOne = [&](Addr addr) {
        std::string err;
        auto w = TraceWriter::create(path, TraceFormat::Sliptrc2, 1,
                                     &err);
        ASSERT_NE(w, nullptr) << err;
        w->append(TraceRecord{0, addr, false, 1});
        ASSERT_EQ(w->close(), "");
    };
    SweepOptions opts;
    writeOne(0x1000);
    const std::string k1 =
        RunSpec::single("trace:" + path, PolicyKind::Baseline, opts)
            .key();
    const std::string k1again =
        RunSpec::single("trace:" + path, PolicyKind::Baseline, opts)
            .key();
    EXPECT_EQ(k1, k1again);
    EXPECT_NE(k1.find("_v10_"), std::string::npos) << k1;
    EXPECT_NE(k1.find("trace-"), std::string::npos) << k1;
    // Keys double as on-disk cache file names, so the path must be
    // hashed, never embedded.
    EXPECT_EQ(k1.find('/'), std::string::npos) << k1;

    // Editing the file in place changes the key (no stale aliasing).
    writeOne(0x2000);
    const std::string k2 =
        RunSpec::single("trace:" + path, PolicyKind::Baseline, opts)
            .key();
    EXPECT_NE(k1, k2);

    // A trace key never collides with a registered workload's key.
    const std::string kBench =
        RunSpec::single("soplex", PolicyKind::Baseline, opts).key();
    EXPECT_NE(k1, kBench);
    std::filesystem::remove(path);
}

} // namespace
} // namespace slip
